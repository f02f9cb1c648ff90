"""The hint record that leaf checks and replay trims read from a replay.

annotate_refutation(..., _record=True) hands the stitcher's leaf checks
and the trimmer's replays the record of a replay as hint ids, built by
checker._hint_record from the replay's own list of judged additions.
It must equal what the reference conversion of the public annotations
gives (helpers.reference_as_hinted, plus the numbers of the deletions
the replay skipped), serial and in two forced shares, on the engine's
differential corpora, the bench's smoke inputs and the CI fixtures.
Those callers build no StepVerdict, and the benchmark's tracer still
sees one leaf check per leaf and two replays per trim.
"""

import importlib
import itertools
import random

import pytest

import dratstitch
from dratstitch import (
    PERMISSIVE,
    STRICT,
    annotate_refutation,
    build_cube_tree,
    combine_all,
    gen_random_unsat,
    load_bundle,
    parse_dimacs,
    parse_drat,
    solve_drup,
    trim,
)
from dratstitch import checker
from dratstitch.cli import EXIT_OK, main

from helpers import (
    bench_module,
    bundle_for,
    last_use_corpus,
    random_proofs,
    rat_corpus,
    reference_as_hinted,
    stitched_instance,
)
from test_cli import make_fixture, stitch_args
from test_engine_differential import HAND_CASES, _cubes, _mutations, _sparse_formula, F, P
from test_replay_shares import _untimed, no_children, replays

MODES = (STRICT, PERMISSIVE)
SQUARE_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
# adds 9 as RAT, deletes the absent clause 7 and has a step after its empty clause
SQUARE_RAT = "9 0\nd 7 0\n-1 0\n1 0\n0\n5 0\n"


def _leaves(bundle):
    return [(bundle.instance, e.refutation, e.cube.literals) for e in bundle.entries]


def _stitched(formula, tree):
    """The stitches of tree at cl_avg -1 and 0, and a trim of each."""
    out = []
    for cl_avg in (-1, 0):
        stitched = combine_all(formula, tree, cl_avg=cl_avg)
        out += [(formula, stitched, ()), (formula, trim(formula, stitched)[0], ())]
    return out


def _engine_corpora():
    """Every corpus of test_engine_differential, as (formula, proof, cube)."""
    rng = random.Random(53)
    for formula, proof in HAND_CASES:
        for cube in _cubes(formula, rng):
            yield formula, proof, cube
    for n, (_, formula, proof) in enumerate(random_proofs()):
        yield formula, proof, ()
        if n % 5 == 0:
            yield formula, proof, rng.choice(_cubes(formula, rng))
    for seed in (3, 7, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        yield from _leaves(bundle_for(formula, 2, seed=seed))
    for seed in (1, 2):
        formula = gen_random_unsat(11, 5.0, seed=seed)
        yield from _stitched(formula, build_cube_tree(bundle_for(formula, 3, seed=seed)))
    for formula, proof in rat_corpus()[::4]:
        yield formula, proof, ()
        yield formula, trim(formula, proof)[0], ()
    for formula, proof in last_use_corpus()[::4]:
        yield formula, proof, ()
    bases = []
    for seed in (4, 5):
        formula, combined = stitched_instance(seed, num_vars=10, depth=2)
        bases += [(formula, combined), (formula, trim(formula, combined)[0])]
    formula = gen_random_unsat(12, 5.0, seed=11)
    bases.append((formula, solve_drup(formula, seed=11).refutation))
    for n, (formula, proof) in enumerate(bases):
        for mutated in _mutations(formula, proof, random.Random(n)).values():
            yield formula, mutated, ()
            yield formula, mutated, rng.choice(_cubes(formula, rng))
    square = parse_dimacs(SQUARE_CNF).formula
    yield square, parse_drat("-3 4 0\n-3 5 0\n3 -4 -5 0\n2 0\n0\n"), ()
    x, a, b = 2**40, 2**40 + 1, 2**40 + 2
    for proof in (P((-x, a), (-x, b), (x, -a, -b), (10**9,), ()), P((-x, b), (x, a), (10**9,), ())):
        for cube in ((), (-(2**41),), (2**41, -1)):
            yield _sparse_formula(), proof, cube


def _bench_inputs(directory):
    """The bench's smoke inputs at seed 1: each leaf against its cube, each
    stitch and its trim, and the monolithic proof."""
    workloads = bench_module("workloads")
    for name, workload in sorted(workloads.WORKLOADS.items()):
        inputs = workloads.build_inputs(dratstitch, workload, 1, directory / name, smoke=True)
        if workload.stitch_args is None:
            formula = parse_dimacs(inputs.cnf.read_text()).formula
            yield formula, parse_drat(inputs.proofs.read_text()), ()
            continue
        bundle = load_bundle(inputs.cnf, inputs.proofs)
        yield from _leaves(bundle)
        yield from _stitched(bundle.instance, build_cube_tree(bundle))


def _ci_fixtures(directory):
    """The bundles and hand-written proofs of the CI workflow."""
    for depth, vars_ in ((2, 20), (4, 20), (11, 24)):
        out = directory / ("fx%d" % depth)
        args = ["fixture", "--vars", vars_, "--ratio", "4.6", "--depth", depth, "-o", out]
        assert main([str(a) for a in args]) == EXIT_OK
        bundle = load_bundle(out / "instance.cnf", out)
        yield from _leaves(bundle)
        if depth == 11:
            formula = bundle.instance
            yield formula, combine_all(formula, build_cube_tree(bundle)), ()
        else:
            yield from _stitched(bundle.instance, build_cube_tree(bundle))
    square = parse_dimacs(SQUARE_CNF).formula
    for text in ("d -1 2 0\n2 0\n0\n", "d 1 2 0\n1 2 0\n0\n"):
        yield square, parse_drat(text), (1,)
    yield square, parse_drat("2 0\n0\n"), (-1,)
    yield square, parse_drat(SQUARE_RAT), ()
    yield square, parse_drat("+1 0\n+2 0\n0\n"), ()
    yield F((1, 2), (-1, 2)), parse_drat("0\n"), ()


def _records(formula, proof, mode, cube):
    """The checker's report and record, and the report and the reference's
    record made from the public annotations of the same replay."""
    report, record = annotate_refutation(formula, proof, mode, cube=cube, _record=True)
    annotated, annotations = annotate_refutation(formula, proof, mode, cube=cube)
    skipped = [sv.index for sv in annotations if not sv.applied]
    reference = (*reference_as_hinted(formula, cube, annotations), skipped)
    return (_untimed(report), record), (_untimed(annotated), reference)


def _assert_records_match(cases, cpus):
    """Each case's record equals the reference's, in both modes, with
    replays on that many CPUs, two forcing shares; returns the verdicts
    seen."""
    seen = set()
    with replays(cpus) as forks:
        for formula, proof, cube in cases:
            for mode in MODES:
                got, want = _records(formula, proof, mode, cube)
                assert got == want, (mode, cube, proof)
                report, (steps, _, rat, applied, skipped) = got
                # the record holds the proof's own steps, less those skipped
                kept = (i for i in range(1, report.steps_checked + 1) if i not in skipped)
                assert all(step is proof[i - 1] for step, i in zip(steps, kept))
                seen.add((report.valid, report.reason, bool(rat), bool(applied), bool(skipped)))
    assert bool(forks) == (cpus > 1)
    return seen


@pytest.mark.parametrize("cpus", [1, 2])
def test_records_of_the_engine_differential_corpora_match_the_reference(cpus):
    seen = _assert_records_match(list(_engine_corpora()), cpus)
    assert {valid for valid, *_ in seen} == {True, False}
    assert {reason for _, reason, *_ in seen} >= {
        None,
        checker.NOT_AT,
        checker.NOT_RAT,
        checker.DELETION_ABSENT,
        checker.MISSING_EMPTY_CLAUSE,
    }
    # RAT steps, applied deletions and skipped ones all occur
    assert all(any(s[k] for s in seen) for k in (2, 3, 4))
    assert no_children()


@pytest.mark.parametrize("cpus", [1, 2])
def test_records_of_the_bench_smoke_inputs_and_ci_fixtures_match_the_reference(tmp_path, cpus):
    cases = list(itertools.chain(_bench_inputs(tmp_path / "bench"), _ci_fixtures(tmp_path / "ci")))
    seen = _assert_records_match(cases, cpus)
    assert (True, None, False, True, False) in seen  # the mono-deletions proof
    assert no_children()


def test_leaf_checks_and_replay_trims_build_no_step_verdicts(monkeypatch):
    formula = gen_random_unsat(10, 5.0, seed=3)
    tree = build_cube_tree(bundle_for(formula, 2, seed=3))
    stitched = {cl_avg: combine_all(formula, tree, cl_avg=cl_avg) for cl_avg in (-1, 0)}
    square_rat = (parse_dimacs(SQUARE_CNF).formula, parse_drat(SQUARE_RAT))
    trims = [(formula, stitched[-1]), square_rat]
    trimmed = [trim(f, p) for f, p in trims]

    def no_verdicts(*args, **kwargs):
        raise AssertionError("a StepVerdict was built")

    monkeypatch.setattr(checker, "StepVerdict", no_verdicts)
    for cl_avg, want in stitched.items():
        got = combine_all(formula, tree, cl_avg=cl_avg)
        assert got == want and got.hints == want.hints is not None
    for (f, p), (want, report) in zip(trims, trimmed):
        out, got = trim(f, p)
        assert out == want and got.core == report.core and got.hints == report.hints
    # the public annotations still are StepVerdicts
    with pytest.raises(AssertionError, match="StepVerdict"):
        annotate_refutation(formula, stitched[-1])


def test_the_bench_tracer_counts_every_leaf_check_and_two_replays_per_trim(tmp_path, capsys):
    tracing = bench_module("tracing")
    modules = {
        name: importlib.import_module("dratstitch." + name)
        for name in ("cli", "core", *tracing.LAYERS)
    }
    modules["dratstitch"] = dratstitch
    fixture_dir = make_fixture(tmp_path)
    leaves = len(list(fixture_dir.glob("*.proof")))
    cnf = str(fixture_dir / "instance.cnf")
    stitched = tmp_path / "stitched.drat"
    (tmp_path / "square.cnf").write_text(SQUARE_CNF)
    (tmp_path / "rat.drat").write_text(SQUARE_RAT)
    tracer = tracing.Tracer(modules)
    totals = []
    with replays(1):  # the spans of a forked worker's checks are lost
        tracer.install()
        try:
            for cl_avg in ("-1", "0"):
                assert main(stitch_args(fixture_dir, stitched, "--cl-avg", cl_avg)) == EXIT_OK
                totals.append(tracer.snapshot())
                tracer.reset()
            for argv in (
                [cnf, str(stitched)],
                [str(tmp_path / "square.cnf"), str(tmp_path / "rat.drat")],
            ):
                assert main(["trim", *argv, "-o", str(tmp_path / "trimmed.drat")]) == EXIT_OK
                totals.append(tracer.snapshot())
                tracer.reset()
        finally:
            tracer.uninstall()
    capsys.readouterr()
    for t in totals[:2]:
        assert t["checker.leaf_checks"] == leaves == 4
    assert totals[1]["trimmer.trims"] == 3  # every merge, from hints: no replay in them
    assert totals[1].get("trimmer.replays_in_trims", 0) == 0
    for t in totals[2:]:
        assert t["trimmer.trims"] == 1 and t["trimmer.replays_in_trims"] == 2
        assert t["checker.replays"] == 2 and t.get("checker.leaf_checks", 0) == 0
