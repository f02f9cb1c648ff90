"""Unsat-core trimming: shrink proofs, keep them valid, extract cores."""

import contextlib
import dataclasses
import random

import pytest

from dratstitch import (
    ADD,
    Clause,
    EMPTY_CLAUSE,
    Formula,
    InvalidProofError,
    ProofStep,
    Refutation,
    TrimInternalError,
    check_refutation,
    is_preserving,
    parse_drat,
    trim,
    unsat_core,
    write_dimacs,
    write_drat,
)
from dratstitch import checker, stitcher, trimmer
from dratstitch.checker import KIND_RAT, PERMISSIVE, STRICT, annotate_refutation
from dratstitch.cli import EXIT_OK, main

from helpers import (
    ReferenceAnalysis,
    instance_at,
    last_use_corpus,
    random_proofs,
    rat_corpus,
    stitched_instance,
)

SQUARE = Formula(
    (Clause((1, 2)), Clause((1, -2)), Clause((-1, 2)), Clause((-1, -2)))
)

# AT-blind unsat block on variables 6 and 7, gated open by literal 2
GATED = (
    Clause((2, 6, 7)),
    Clause((2, 6, -7)),
    Clause((2, -6, 7)),
    Clause((2, -6, -7)),
)


def F(*clauses):
    return Formula(Clause(c) for c in clauses)


def test_trim_drops_unused_addition():
    f = F((1,), (-1,))
    trimmed, report = trim(f, parse_drat("2 0\n0\n"))
    assert trimmed == parse_drat("0\n")
    assert report.input_steps == 2
    assert report.output_steps == 1
    assert report.output_bytes <= report.input_bytes
    assert report.wall_time >= 0.0


def test_trim_keeps_a_chain_that_is_all_needed():
    f = F((1,), (-1, 2), (-2,))
    proof = parse_drat("2 0\n0\n")
    # {2} is not needed: the instance already conflicts by propagation.
    trimmed, _ = trim(f, proof)
    assert trimmed == parse_drat("0\n")


def test_trim_keeps_used_additions():
    # {1} feeds the closing conflict and the conflict needs it: both stay
    f = F((1, 2), (1, -2), (-1, 3), (-1, -3))
    trimmed, _ = trim(f, parse_drat("1 0\n0\n"))
    assert trimmed == parse_drat("1 0\n0\n")


def test_trim_finds_single_unit_closure():
    # either unit alone already closes the square by propagation
    trimmed, _ = trim(SQUARE, parse_drat("-1 0\n1 0\n0\n"))
    assert len(trimmed) == 2
    assert check_refutation(SQUARE, trimmed, mode=STRICT).valid


def test_trim_drops_trailing_steps_after_empty_clause():
    f = F((1,), (-1,))
    trimmed, _ = trim(f, parse_drat("0\n5 0\nd 5 0\n"))
    assert trimmed == parse_drat("0\n")


def test_trim_rejects_invalid_input():
    with pytest.raises(InvalidProofError):
        trim(F((1, 2),), parse_drat("0\n"))
    with pytest.raises(InvalidProofError):
        trim(F((1,), (-1,)), Refutation())


def test_trim_drops_unused_resolution_addition():
    # {9} passes only a resolution check and nothing uses it
    proof = parse_drat("9 0\n-1 0\n1 0\n0\n")
    trimmed, _ = trim(SQUARE, proof)
    assert len(trimmed) < len(proof)
    assert all(9 not in s.clause for s in trimmed)
    assert check_refutation(SQUARE, trimmed, mode=STRICT).valid


def test_trim_keeps_load_bearing_resolution_step():
    # {1,2} is blocked on pivot 1 and feeds the later {1} derivation
    f = F((-1, -2), (-2, 5), (1, -2), *[c.literals for c in GATED])
    proof = parse_drat("1 2 0\n1 0\n6 0\n0\n")
    assert check_refutation(f, proof, mode=STRICT).valid
    trimmed, report = trim(f, proof)
    assert trimmed == proof
    assert report.output_steps == report.input_steps


def test_trim_keeps_deletion_that_enables_a_resolution_step():
    # with {-1,8} present the blocked addition would not check out
    f = F((-1, -2), (-2, 5), (1, -2), (-1, 8), *[c.literals for c in GATED])
    proof = parse_drat("d -1 8 0\n1 2 0\n1 0\n6 0\n0\n")
    assert check_refutation(f, proof, mode=STRICT).valid
    trimmed, _ = trim(f, proof)
    assert trimmed == proof
    again, _ = trim(f, trimmed)
    assert again == trimmed


def _varied_instances():
    rng = random.Random(101)
    for _ in range(15):
        seed = rng.randint(0, 10**6)
        yield stitched_instance(seed, num_vars=rng.randint(6, 9), depth=rng.randint(1, 3))


def _small_instances(rng_seed):
    rng = random.Random(rng_seed)
    for _ in range(10):
        yield stitched_instance(rng.randint(0, 10**6), num_vars=8, depth=2)


def test_trim_never_expands_and_stays_valid():
    cases = list(_varied_instances()) + list(last_use_corpus())
    for case, (formula, combined) in enumerate(cases):
        trimmed, report = trim(formula, combined)
        assert report.output_steps <= report.input_steps, "case %d" % case
        assert report.output_bytes <= report.input_bytes
        assert len(trimmed) == report.output_steps
        assert check_refutation(formula, trimmed, mode=STRICT).valid
        assert is_preserving(trimmed)


def test_trim_is_idempotent():
    cases = list(_small_instances(103)) + list(rat_corpus()) + list(last_use_corpus())
    for formula, proof in cases:
        for mode in (STRICT, PERMISSIVE):
            for resynthesize in (True, False):
                once, _ = trim(formula, proof, mode, resynthesize)
                twice, _ = trim(formula, once, mode, resynthesize)
                assert twice == once, (formula, proof, mode, resynthesize)


def test_trim_without_resynthesized_deletions():
    formula, combined = stitched_instance(7, num_vars=9, depth=3)
    bare, _ = trim(formula, combined, resynthesize_deletions=False)
    assert all(s.is_add for s in bare)
    full, _ = trim(formula, combined)
    assert Refutation(s for s in full if s.is_add) == bare
    assert len(full) <= len(combined)
    assert len(write_drat(full)) <= len(write_drat(combined))


def test_resynthesis_can_keep_more_additions_than_plain_marking():
    # Pinned, not fixed: the first analysis keeps the input's deletions
    # (it has RAT steps) and marks (5), (-3) and (-2); once (4 -6) is
    # deleted after its last use they stay needed, while plain marking,
    # with (4 -6) live, drops them. Resynthesis settles on 7 additions
    # and plain marking on 5. The larger output is still a valid,
    # idempotent trim no longer than its input.
    formula, proof = rat_corpus()[268]
    full, _ = trim(formula, proof)
    bare, _ = trim(formula, proof, resynthesize_deletions=False)
    sizes = (sum(s.is_add for s in full), sum(s.is_add for s in bare))
    assert sizes == (7, 5)
    assert check_refutation(formula, full, mode=STRICT).valid
    assert trim(formula, full)[0] == full
    assert len(full) <= len(proof)
    assert len(write_drat(full)) <= len(write_drat(proof))


def test_trim_report_core_counts_instances():
    f = F((1,), (-1,), (5, 6))
    _, report = trim(f, parse_drat("0\n"))
    assert report.core_clauses == 2


def test_unsat_core_minimal_example():
    f = F((1,), (-1,), (5, 6))
    core = unsat_core(f, parse_drat("0\n"))
    assert core == F((1,), (-1,))


def test_unsat_core_is_a_sub_multiset():
    for formula, combined in _small_instances(107):
        core = unsat_core(formula, combined)
        for clause, k in core.counts():
            assert k <= formula.multiplicity(clause)


def test_unsat_core_supports_the_trimmed_proof():
    for formula, combined in _small_instances(109):
        trimmed, _ = trim(formula, combined)
        core = unsat_core(formula, combined)
        assert check_refutation(core, trimmed, mode=STRICT).valid


def test_unsat_core_rejects_invalid_proofs():
    with pytest.raises(InvalidProofError):
        unsat_core(F((1, 2),), parse_drat("0\n"))


def test_trim_handles_deletions_in_input():
    f = SQUARE
    proof = parse_drat("-1 0\nd -1 2 0\n1 0\n0\n")
    assert check_refutation(f, proof, mode=STRICT).valid
    trimmed, _ = trim(f, proof)
    assert check_refutation(f, trimmed, mode=STRICT).valid
    assert len(trimmed) < len(proof)
    # nothing forces the input deletion to stay
    assert all(s.is_add for s in trimmed)


@pytest.fixture
def replays(monkeypatch):
    """Count full proof replays made through the checker's public entry points.

    trimmer binds the names it imports, so its bindings are patched too.
    """
    calls = []
    for module in (checker, trimmer):
        for name in ("annotate_refutation", "check_refutation"):
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


# {1} feeds only the final conflict, so there is no deletion to resynthesize
NEEDS_ONE = F((1, 2), (1, -2), (-1, 3), (-1, -3))


# {5, 6} is the only RAT step and nothing uses it; once it is gone, the
# unused {2, 3} must go together with its deletion
RAT_THEN_DELETION = "5 6 0\n2 3 0\nd 2 3 0\n1 0\n0\n"


def test_trim_drops_a_deletion_once_the_rat_steps_are_gone():
    proof = parse_drat(RAT_THEN_DELETION)
    assert check_refutation(NEEDS_ONE, proof, mode=STRICT).valid
    trimmed, report = trim(NEEDS_ONE, proof)
    assert trimmed == parse_drat("1 0\n0\n")
    assert report.core == NEEDS_ONE
    assert trim(NEEDS_ONE, trimmed)[0] == trimmed


def test_trim_replays_input_and_fixpoint_only(replays):
    trimmed, report = trim(NEEDS_ONE, parse_drat("5 0\n1 0\n0\n"))
    assert trimmed == parse_drat("1 0\n0\n")
    # the input, then the fixpoint candidate, which is also the strict re-check
    assert replays == ["annotate_refutation"] * 2
    assert report.core == NEEDS_ONE


def test_emit_core_adds_no_replay(tmp_path, capsys, replays):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(write_dimacs(NEEDS_ONE))
    proof = tmp_path / "p.drat"
    proof.write_text("5 0\n1 0\n0\n")
    argv = ["trim", str(cnf), str(proof), "-o", str(tmp_path / "t.drat")]
    assert main(argv) == EXIT_OK
    plain = len(replays)
    replays.clear()
    assert main(argv + ["--emit-core", str(tmp_path / "core.cnf")]) == EXIT_OK
    capsys.readouterr()
    assert len(replays) == plain == 2


def test_unsat_core_is_the_trim_report_core():
    formula, combined = stitched_instance(7, num_vars=9, depth=3)
    _, report = trim(formula, combined)
    assert unsat_core(formula, combined) == report.core
    assert len(report.core) == report.core_clauses


def test_broken_candidate_raises_internal_error(monkeypatch):
    # a candidate without the needed lemma {1} must not come back as output
    monkeypatch.setattr(
        trimmer._Analysis,
        "marked_adds",
        lambda self: [ProofStep(ADD, EMPTY_CLAUSE)],
    )
    with pytest.raises(TrimInternalError):
        trim(NEEDS_ONE, parse_drat("1 0\n0\n"))


# a chain: {1} gives {3}, {3} gives {5}, and only {5} gives the empty clause
CHAIN = F(
    (1, 2), (1, -2), (-1, 3, 4), (-1, 3, -4), (-3, 5, 6), (-3, 5, -6), (-5, 7), (-5, -7)
)


def test_broken_candidate_after_a_shared_prefix_raises_internal_error(monkeypatch):
    # the candidate starts like the input, and its replay must judge the
    # {5} that lost {3}, not carry over the input's verdicts
    monkeypatch.setattr(
        trimmer._Analysis,
        "marked_adds",
        lambda self: [step for step in self.steps if step.clause != Clause((3,))],
    )
    with pytest.raises(TrimInternalError, match="step 2 \\(not-rat\\)"):
        trim(CHAIN, parse_drat("1 0\n3 0\n5 0\n0\n"))


# CHAIN's proof with each lemma deleted right after its last use
CHAIN_LAST_USE = "1 0\n3 0\nd 1 0\n5 0\nd 3 0\n0\n"


def test_trim_checks_resynthesized_deletions_inside_the_fixpoint(replays):
    proof = parse_drat(CHAIN_LAST_USE)
    trimmed, _ = trim(CHAIN, proof)
    assert trimmed == proof
    # the input, then its with-deletions candidate, which proposes itself
    assert replays == ["annotate_refutation"] * 2
    replays.clear()
    assert trim(CHAIN, trimmed)[0] == trimmed
    assert replays == ["annotate_refutation"] * 2


def test_broken_resynthesized_candidate_raises_internal_error(monkeypatch):
    # {1} is deleted before {3} needs it: the candidate fits, but fails
    monkeypatch.setattr(
        trimmer._Analysis,
        "with_deletions",
        lambda self: list(parse_drat("1 0\nd 1 0\n3 0\n5 0\n0\n")),
    )
    with pytest.raises(TrimInternalError, match="step 3 \\(not-rat\\)"):
        trim(CHAIN, parse_drat(CHAIN_LAST_USE))


# The analysis charges each use to a hint id. The reference analysis
# numbers every clause instance in a second replay of the multiset;
# trims through either must agree, the reference's core once the cube
# units the formula lacks are dropped from it.

# every hand-written trim input above
HAND_TRIMS = [
    (F((1,), (-1,)), "2 0\n0\n"),
    (F((1,), (-1, 2), (-2,)), "2 0\n0\n"),
    (NEEDS_ONE, "1 0\n0\n"),
    (SQUARE, "-1 0\n1 0\n0\n"),
    (F((1,), (-1,)), "0\n5 0\nd 5 0\n"),
    (SQUARE, "9 0\n-1 0\n1 0\n0\n"),
    (F((-1, -2), (-2, 5), (1, -2), *[c.literals for c in GATED]), "1 2 0\n1 0\n6 0\n0\n"),
    (
        F((-1, -2), (-2, 5), (1, -2), (-1, 8), *[c.literals for c in GATED]),
        "d -1 8 0\n1 2 0\n1 0\n6 0\n0\n",
    ),
    (F((1,), (-1,), (5, 6)), "0\n"),
    (SQUARE, "-1 0\nd -1 2 0\n1 0\n0\n"),
    (NEEDS_ONE, "5 0\n1 0\n0\n"),
    (NEEDS_ONE, RAT_THEN_DELETION),
    (CHAIN, "1 0\n3 0\n5 0\n0\n"),
    (CHAIN, CHAIN_LAST_USE),
]


@contextlib.contextmanager
def reference_analysis(monkeypatch):
    """Swap the reference analysis in for the replay source; yields the
    list of analyses it makes."""
    made = []

    def counted(*args):
        made.append(ReferenceAnalysis(*args))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(trimmer, "_replayed", counted)
        yield made


def _new_units(formula, cube):
    """The unit clauses of cube that formula lacks."""
    return {Clause((lit,)) for lit in cube if Clause((lit,)) not in formula}


def _trims(formula, proof, cube=()):
    """Trimmed bytes and core, or the error, for each mode and flag."""
    new = _new_units(formula, cube)
    out = []
    for mode in (STRICT, PERMISSIVE):
        for resynthesize in (True, False):
            try:
                trimmed, report = trim(formula, proof, mode, resynthesize, cube=cube)
            except InvalidProofError as exc:
                out.append(str(exc))
            else:
                core = Formula.from_counts(c for c in report.core.counts() if c[0] not in new)
                out.append((write_drat(trimmed), core))
    return out


def assert_trims_match_reference(monkeypatch, cases):
    """cases are (formula, proof) or (formula, proof, cube)."""
    for case in cases:
        fast = _trims(*case)
        with reference_analysis(monkeypatch) as made:
            reference = _trims(*case)
        assert made, "the reference analysis never ran"
        assert fast == reference, case


def test_hand_trims_match_the_reference_analysis(monkeypatch):
    cases = [(formula, parse_drat(text)) for formula, text in HAND_TRIMS]
    assert_trims_match_reference(monkeypatch, cases)


def test_stitched_trims_match_the_reference_analysis(monkeypatch):
    cases = list(_varied_instances())
    for rng_seed in (103, 107, 109):
        cases += _small_instances(rng_seed)
    cases += [stitched_instance(7, num_vars=9, depth=3)]
    for cl_avg in (-1, 0):
        cases += [stitched_instance(seed, num_vars=11, depth=3, cl_avg=cl_avg) for seed in (1, 2)]
    assert_trims_match_reference(monkeypatch, cases)


def test_random_proof_trims_match_the_reference_analysis(monkeypatch):
    cases = [(f, p) for _, f, p in random_proofs() if check_refutation(f, p).valid]
    assert len(cases) > 10
    assert_trims_match_reference(monkeypatch, cases)


def test_rat_proof_trims_match_the_reference_analysis(monkeypatch):
    cases = rat_corpus()
    with_rat = sum(
        any(sv.kind == KIND_RAT for sv in annotate_refutation(f, p)[1]) for f, p in cases
    )
    assert with_rat > len(cases) // 2
    assert_trims_match_reference(monkeypatch, cases)


def test_last_use_deletion_trims_match_the_reference_analysis(monkeypatch):
    cases = last_use_corpus()
    # the corpus is for the resynthesis path: most trims keep deletions
    with_deletions = sum(not all(s.is_add for s in trim(f, p)[0]) for f, p in cases)
    assert with_deletions > len(cases) // 2
    assert_trims_match_reference(monkeypatch, cases)


# Trims against a formula plus a cube's units: trim(F, p, cube=c) must give
# the steps and report, core and its order included, of trim on F with the
# units added, once the units F lacks are dropped from that trim's core.


def _trim_outcome(formula, proof, cube=(), drop=()):
    """Trimmed bytes, report and core less the clauses in drop; or the error."""
    try:
        trimmed, report = trim(formula, proof, cube=cube)
    except InvalidProofError as exc:
        return str(exc)
    core = [c for c in report.core.counts() if c[0] not in drop]
    return write_drat(trimmed), dataclasses.replace(report, wall_time=0.0), core


def assert_cube_trim_matches(formula, proof, cube):
    built = _trim_outcome(instance_at(formula, cube), proof, drop=_new_units(formula, cube))
    assert _trim_outcome(formula, proof, cube=cube) == built, cube
    return built


def _trim_cubes(formula, rng):
    """The empty cube, a formula unit, and literals old and new to the formula."""
    variables = sorted(formula.variables())
    new = max(variables) + 1
    cubes = [(), (new,), tuple(v if rng.random() < 0.5 else -v for v in rng.sample(variables, 2))]
    units = [c.literals[0] for c in formula.distinct() if len(c) == 1]
    if units:
        cubes.append((rng.choice(units), -new))
    return cubes


@contextlib.contextmanager
def merge_trims(monkeypatch):
    """Record the (formula, proof, cube) of every trim combine_all makes."""
    calls = []
    real = stitcher.trim

    def recording(formula, proof, *args, **kwargs):
        calls.append((formula, proof, kwargs["cube"]))
        return real(formula, proof, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(stitcher, "trim", recording)
        yield calls


@pytest.mark.parametrize("cl_avg", [-1, 0])
def test_cube_trims_of_stitched_proofs_match_built_instances(monkeypatch, cl_avg):
    rng = random.Random(113 + cl_avg)
    with merge_trims(monkeypatch) as merges:
        stitched = [
            stitched_instance(seed, num_vars=11, depth=3, cl_avg=cl_avg) for seed in range(1, 9)
        ]
    # at cl_avg 0 every one of the 7 merges per instance trims against its path
    assert len(merges) == (0 if cl_avg < 0 else 7 * len(stitched))
    for formula, proof, cube in merges:
        assert not isinstance(assert_cube_trim_matches(formula, proof, cube), str)
    for formula, combined in stitched:
        for cube in _trim_cubes(formula, rng):
            assert_cube_trim_matches(formula, combined, cube)


def test_cube_trims_of_rat_proofs_match_built_instances():
    rng = random.Random(127)
    outcomes = set()
    for formula, proof in rat_corpus():
        for cube in _trim_cubes(formula, rng):
            outcomes.add(isinstance(assert_cube_trim_matches(formula, proof, cube), str))
    assert outcomes == {False, True}  # some cubes break a RAT step, others do not


def test_cube_trims_of_merges_match_the_reference_analysis(monkeypatch):
    with merge_trims(monkeypatch) as merges:
        for seed in (1, 2):
            stitched_instance(seed, num_vars=11, depth=3, cl_avg=0)
    assert merges
    assert_trims_match_reference(monkeypatch, merges)


def _named_clauses(formula, hints):
    """The formula clauses that hints name."""
    clauses = [clause for clause, _ in formula.counts()]
    return {clauses[h] for ids in hints for h in ids if h < len(clauses)}


def test_a_trim_without_hints_hands_out_hints_and_a_core_as_a_hinted_trim_does():
    # a replay trim's report carries the output's hints, named as a hint
    # check names them, and its core, like a hinted trim's, is the
    # formula clauses those hints name (all copies of a RAT neighbour or
    # a deleted value too), with no cube unit: the output refutes it
    # with the cube's units
    trims = 0
    for formula, proof in rat_corpus() + last_use_corpus():
        for cube in ((), (1,)):
            try:
                out, report = trim(formula, proof, cube=cube)
            except InvalidProofError:
                continue
            assert len(report.hints) == len(out)
            assert check_refutation(formula, out, STRICT, cube=cube, hints=report.hints).valid
            _, annotations = annotate_refutation(formula, proof, cube=cube)
            steps, needed, _, _ = checker._as_hinted(formula, cube, annotations)
            hinted_out, hinted = trim(formula, Refutation(steps), cube=cube, hints=needed)
            new = _new_units(formula, cube)
            for output, rep in ((out, report), (hinted_out, hinted)):
                named = _named_clauses(formula, rep.hints)
                core = set(rep.core.distinct())
                assert core == named if not rep.rat_steps else core >= named
                assert new.isdisjoint(core)
                assert check_refutation(rep.core, output, STRICT, cube=cube).valid
            trims += 1
    assert trims == 975
