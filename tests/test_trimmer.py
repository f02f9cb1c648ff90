"""Unsat-core trimming: shrink proofs, keep them valid, extract cores."""

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
    gen_random_unsat,
    is_preserving,
    parse_drat,
    trim,
    unsat_core,
    write_dimacs,
    write_drat,
)
from dratstitch import checker, trimmer
from dratstitch.checker import STRICT
from dratstitch.cli import EXIT_OK, main

from helpers import stitched_instance

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


def test_trim_never_expands_and_stays_valid():
    rng = random.Random(101)
    for case in range(15):
        seed = rng.randint(0, 10**6)
        formula, combined = stitched_instance(seed, num_vars=rng.randint(6, 9), depth=rng.randint(1, 3))
        trimmed, report = trim(formula, combined)
        assert report.output_steps <= report.input_steps, "case %d" % case
        assert report.output_bytes <= report.input_bytes
        assert len(trimmed) == report.output_steps
        assert check_refutation(formula, trimmed, mode=STRICT).valid
        assert is_preserving(trimmed)


def test_trim_is_idempotent():
    rng = random.Random(103)
    for _ in range(10):
        seed = rng.randint(0, 10**6)
        formula, combined = stitched_instance(seed, num_vars=8, depth=2)
        once, _ = trim(formula, combined)
        twice, _ = trim(formula, once)
        assert twice == once


def test_trim_without_resynthesized_deletions():
    formula, combined = stitched_instance(7, num_vars=9, depth=3)
    bare, _ = trim(formula, combined, resynthesize_deletions=False)
    assert all(s.is_add for s in bare)
    full, _ = trim(formula, combined)
    assert Refutation(s for s in full if s.is_add) == bare
    assert len(full) <= len(combined)
    assert len(write_drat(full)) <= len(write_drat(combined))


def test_trim_report_core_counts_instances():
    f = F((1,), (-1,), (5, 6))
    _, report = trim(f, parse_drat("0\n"))
    assert report.core_clauses == 2


def test_unsat_core_minimal_example():
    f = F((1,), (-1,), (5, 6))
    core = unsat_core(f, parse_drat("0\n"))
    assert core == F((1,), (-1,))


def test_unsat_core_is_a_sub_multiset():
    rng = random.Random(107)
    for _ in range(10):
        seed = rng.randint(0, 10**6)
        formula, combined = stitched_instance(seed, num_vars=8, depth=2)
        core = unsat_core(formula, combined)
        for clause, k in core.counts():
            assert k <= formula.multiplicity(clause)


def test_unsat_core_supports_the_trimmed_proof():
    rng = random.Random(109)
    for _ in range(10):
        seed = rng.randint(0, 10**6)
        formula, combined = stitched_instance(seed, num_vars=8, depth=2)
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
    # the candidate starts like the input, so its replay resumes after {1},
    # and must still judge the {5} that lost {3}
    monkeypatch.setattr(
        trimmer._Analysis,
        "marked_adds",
        lambda self: [ProofStep(ADD, sv.clause) for sv in self.ann if sv.clause != Clause((3,))],
    )
    with pytest.raises(TrimInternalError, match="step 2 \\(not-rat\\)"):
        trim(CHAIN, parse_drat("1 0\n3 0\n5 0\n0\n"))
