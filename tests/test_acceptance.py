"""Acceptance gate: eight end-to-end checks, one printed verdict each.

Each test evaluates its property over the stated sample sizes, prints a
single "criterion N: PASS/FAIL (...)" line straight to the terminal,
and only then asserts. The 100 shared instances (12 to 20 variables,
split depths 1 to 4) are built once and reused across criteria.
"""

import random
import shutil
import subprocess
import time

import pytest

from dratstitch import (
    ADD,
    BundleEntry,
    Clause,
    Cube,
    EMPTY_CLAUSE,
    Formula,
    IncompletePartitionError,
    ProofBundle,
    ProofStep,
    Refutation,
    STRICT,
    build_cube_tree,
    check_refutation,
    combine_all,
    cube_from_filename,
    gen_random_unsat,
    has_at,
    is_preserving,
    parse_drat,
    propagate_fixpoint,
    stitch,
    write_drat,
)
from dratstitch.cli import EXIT_OK, main as cli_main

from helpers import bundle_for, random_clause, random_formula, truth_table_entails


def _verdict(capsys, number, passed, detail):
    with capsys.disabled():
        print("criterion %d: %s (%s)" % (number, "PASS" if passed else "FAIL", detail))


_CACHE = {}


def _instances():
    """100 unsat instances with their solved cube bundles, built once."""
    if "instances" not in _CACHE:
        rows = []
        for i in range(100):
            num_vars = 12 + i % 9
            depth = 1 + i % 4
            formula = gen_random_unsat(num_vars, 5.0, seed=1000 + i)
            rows.append((formula, bundle_for(formula, depth, seed=i)))
        _CACHE["instances"] = rows
    return _CACHE["instances"]


def _runs(cl_avg):
    """Combine every cached bundle at the given threshold, keeping records."""
    if cl_avg not in _CACHE:
        rows = []
        for formula, bundle in _instances():
            records = []
            combined = combine_all(
                formula,
                build_cube_tree(bundle),
                cl_avg=cl_avg,
                on_record=records.append,
            )
            rows.append((formula, combined, records))
        _CACHE[cl_avg] = rows
    return _CACHE[cl_avg]


def test_criterion_1_stitching_end_to_end(capsys):
    start = time.perf_counter()
    good = 0
    for formula, combined, _ in _runs(-1):
        report = check_refutation(formula, combined, mode=STRICT)
        if report.valid and is_preserving(combined):
            good += 1
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 1, good == 100,
        "%d/100 combined proofs strict-valid and preserving, %.1fs" % (good, elapsed),
    )
    assert good == 100


def test_criterion_2_stitch_unit_law(capsys):
    failures = 0
    for i in range(1000):
        num_vars = 4 + i % 5
        formula = gen_random_unsat(num_vars, 5.0, seed=20000 + i)
        bundle = bundle_for(formula, 1, seed=i)
        pos, neg = bundle.entries
        x = pos.cube.literals[0]
        assert neg.cube.literals == (-x,)
        out = stitch(formula, x, pos.refutation, neg.refutation)

        ok = len(out) == len(pos.refutation) + len(neg.refutation) + 1
        n = len(pos.refutation)
        for step, src in zip(out.steps[:n], pos.refutation.steps):
            ok = ok and step.op == src.op and -x in step.clause
        for step, src in zip(out.steps[n:-1], neg.refutation.steps):
            ok = ok and step.op == src.op and x in step.clause
        last = out.steps[-1]
        ok = ok and last.op == ADD and last.clause == EMPTY_CLAUSE
        if not ok:
            failures += 1
    _verdict(
        capsys, 2, failures == 0,
        "%d/1000 triples break the length or lifted-literal law" % failures,
    )
    assert failures == 0


def test_criterion_3_trim_validity_and_reduction(capsys):
    valid = nonexpanding = reduced = 0
    time_unopt = time_opt = 0.0
    for (formula, unopt, _), (_, opt, _) in zip(_runs(-1), _runs(0)):
        s = time.perf_counter()
        report = check_refutation(formula, opt, mode=STRICT)
        time_opt += time.perf_counter() - s
        s = time.perf_counter()
        check_refutation(formula, unopt, mode=STRICT)
        time_unopt += time.perf_counter() - s
        valid += report.valid
        nonexpanding += len(opt) <= len(unopt)
        reduced += len(opt) < len(unopt)
    ratio = time_unopt / max(time_opt, 1e-9)
    passed = valid == 100 and nonexpanding == 100 and reduced >= 80
    _verdict(
        capsys, 3, passed,
        "optimized proofs valid %d/100, non-expanding %d/100, smaller %d/100; "
        "check-time ratio %.2fx (informational)" % (valid, nonexpanding, reduced, ratio),
    )
    assert passed


def test_criterion_4_cl_avg_gate(capsys):
    trims_at_never = sum(r.trimmed for _, _, recs in _runs(-1) for r in recs)

    always = [r for _, _, recs in _runs(0) for r in recs]
    trims_at_zero = sum(r.trimmed for r in always)
    once_per_stitch = trims_at_zero == len(always)

    gate_exact = True
    fired = 0
    checked = 0
    gate_records = [r for _, _, recs in _runs(10) for r in recs]

    # One synthetic bundle whose wide vacuous-RAT additions push the
    # average past 10, exercising the open side of the gate too.
    contradiction = Formula((Clause((1,)), Clause((-1,))))
    wide = parse_drat((" ".join(str(v) for v in range(50, 80)) + " 0\n0\n").encode())
    probe = ProofBundle(
        contradiction,
        (
            BundleEntry(Cube((2,)), wide, "2.proof"),
            BundleEntry(Cube((-2,)), wide, "-2.proof"),
        ),
    )
    probe_records = []
    combine_all(
        contradiction, build_cube_tree(probe), cl_avg=10, on_record=probe_records.append
    )
    gate_records.extend(probe_records)

    for r in gate_records:
        checked += 1
        fired += r.trimmed
        gate_exact = gate_exact and r.trimmed == (r.add_literal_total > 10 * r.add_count)
        if r.add_count:
            gate_exact = gate_exact and (
                abs(r.average_clause_length - r.add_literal_total / r.add_count) < 1e-12
            )

    passed = trims_at_never == 0 and once_per_stitch and gate_exact and fired >= 1
    _verdict(
        capsys, 4, passed,
        "cl_avg=-1 trimmed %d, cl_avg=0 trimmed %d/%d stitches, "
        "cl_avg=10 gate exact on %d records (%d fired)"
        % (trims_at_never, trims_at_zero, len(always), checked, fired),
    )
    assert passed


def test_criterion_5_checker_oracle(capsys):
    counterexamples = 0
    at_hits = 0
    order_breaks = 0
    for i in range(1000):
        rng = random.Random(30000 + i)
        num_vars = rng.randint(3, 12)
        formula = random_formula(rng, num_vars, rng.randint(1, 3 * num_vars))
        clause = random_clause(rng, num_vars, rng.randint(1, min(3, num_vars)))

        if has_at(formula, clause):
            at_hits += 1
            if not truth_table_entails(formula, clause):
                counterexamples += 1

        probe = formula
        for lit in clause:
            probe = probe.add(Clause((-lit,)))
        base = propagate_fixpoint(probe)
        for shuffle in range(20):
            outcome = propagate_fixpoint(probe, order_seed=shuffle)
            if outcome.conflict != base.conflict or outcome.formula != base.formula:
                order_breaks += 1

    passed = counterexamples == 0 and order_breaks == 0
    _verdict(
        capsys, 5, passed,
        "%d AT hits with %d entailment counterexamples; "
        "%d outcome changes over 20 propagation shuffles x 1000 formulas"
        % (at_hits, counterexamples, order_breaks),
    )
    assert passed
    assert at_hits > 100


def test_criterion_6_buggy_partition_detection(capsys):
    formula = Formula((Clause((-1,)), Clause((2, 3)), Clause((-2, 3))))
    fake = Refutation((ProofStep(ADD, EMPTY_CLAUSE),))

    incomplete = ProofBundle(
        formula,
        (
            BundleEntry(Cube((1,)), fake, "1.proof"),
            BundleEntry(Cube((-2,)), fake, "-2.proof"),
        ),
    )
    rejected_early = False
    try:
        build_cube_tree(incomplete)
    except IncompletePartitionError:
        rejected_early = True

    fabricated = ProofBundle(
        formula,
        (
            BundleEntry(Cube((1,)), fake, "1.proof"),
            BundleEntry(Cube((-1,)), fake, "-1.proof"),
        ),
    )
    combined = combine_all(formula, build_cube_tree(fabricated), validate=False)
    final = check_refutation(formula, combined, mode=STRICT)

    passed = rejected_early and not final.valid
    _verdict(
        capsys, 6, passed,
        "cubes {(1),(-2)} rejected before stitching: %s; "
        "fabricated complementary bundle fails the final check: %s"
        % (rejected_early, not final.valid),
    )
    assert passed


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _cli_bundle(workdir, i):
    out_dir = workdir / ("bundle%02d" % i)
    if not out_dir.exists():
        rc = cli_main(
            [
                "fixture",
                "--vars", str(8 + i % 3),
                "--ratio", "5.0",
                "--depth", "2",
                "--seed", str(i),
                "-o", str(out_dir),
            ]
        )
        assert rc == EXIT_OK
    return out_dir


def _cli_stitch(workdir, bundle_dir, out_name, proofs=None):
    out = workdir / out_name
    rc = cli_main(
        [
            "stitch",
            "--cnf", str(bundle_dir / "instance.cnf"),
            "--proofs", str(proofs or bundle_dir),
            "-o", str(out),
            "--no-verify",
        ]
    )
    assert rc == EXIT_OK
    return out


def test_criterion_7_input_order_determinism(workdir, capsys):
    identical = 0
    for i in range(20):
        bundle_dir = _cli_bundle(workdir, i)
        manifest = workdir / ("c7_%02d_reversed.icnf" % i)
        lines = []
        for proof in sorted(bundle_dir.glob("*.proof"), reverse=True):
            lits = " ".join(str(l) for l in cube_from_filename(proof.name))
            lines.append("a %s 0 %s/%s" % (lits, bundle_dir.name, proof.name))
        manifest.write_text("\n".join(lines) + "\n")
        from_dir = _cli_stitch(workdir, bundle_dir, "c7_%02d_dir.drat" % i)
        from_manifest = _cli_stitch(workdir, bundle_dir, "c7_%02d_manifest.drat" % i, manifest)
        identical += from_dir.read_bytes() == from_manifest.read_bytes()
    _verdict(
        capsys, 7, identical == 20,
        "directory vs reversed-manifest outputs byte-identical on %d/20 seeded bundles" % identical,
    )
    assert identical == 20


def test_criterion_8_format_interop(workdir, capsys):
    binary = shutil.which("drat-trim")
    roundtrips = 0
    pairs = []
    for i in range(10):
        bundle_dir = _cli_bundle(workdir, i)
        out = _cli_stitch(workdir, bundle_dir, "c8_%02d.drat" % i)
        pairs.append((bundle_dir / "instance.cnf", out))
        emitted = [out] + sorted(bundle_dir.glob("*.proof"))
        if all(write_drat(parse_drat(p.read_bytes())) == p.read_text() for p in emitted):
            roundtrips += 1

    if binary is None:
        _verdict(
            capsys, 8, roundtrips == 10,
            "%d/10 bundles round-trip every emitted proof; "
            "drat-trim sub-check SKIPPED, binary unavailable" % roundtrips,
        )
        assert roundtrips == 10
        return

    accepted = 0
    for cnf, proof in pairs:
        result = subprocess.run(
            [binary, str(cnf), str(proof)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        accepted += "s VERIFIED" in result.stdout or result.returncode == 0
    passed = roundtrips == 10 and accepted == 10
    _verdict(
        capsys, 8, passed,
        "%d/10 bundles round-trip every emitted proof; drat-trim accepted %d/10"
        % (roundtrips, accepted),
    )
    assert passed
