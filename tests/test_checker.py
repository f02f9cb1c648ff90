"""Unit propagation, AT/RAT checks, and refutation replay."""

import random

import pytest

from dratstitch import (
    ADD,
    DELETE,
    Clause,
    EMPTY_CLAUSE,
    Formula,
    NotUnitError,
    PivotNotInClauseError,
    ProofStep,
    Refutation,
    annotate_refutation,
    check_refutation,
    has_at,
    has_rat,
    is_preserving,
    parse_dimacs,
    parse_drat,
    propagate_fixpoint,
    propagate_step,
)
from dratstitch.checker import (
    DELETION_ABSENT,
    KIND_AT,
    KIND_DELETE,
    KIND_RAT,
    MISSING_EMPTY_CLAUSE,
    NOT_AT,
    NOT_RAT,
    PERMISSIVE,
    STRICT,
)

from helpers import (
    clause_counts,
    oracle_fixpoint,
    random_clause,
    random_formula,
    satisfies,
    all_assignments,
    truth_table_entails,
)


def F(*clauses):
    return Formula(Clause(c) for c in clauses)


# ---------------------------------------------------------------- propagation


def test_propagate_step_strips_and_drops():
    out = propagate_step(F((1,), (-1, 2)), 1)
    assert out == F((1,), (2,))


def test_propagate_step_unit_multiplicity_collapses():
    # the propagated literal comes back as exactly one unit instance
    out = propagate_step(F((1,), (1,)), 1)
    assert out == F((1,))
    assert out.multiplicity(Clause((1,))) == 1


def test_propagate_step_can_expose_conflict():
    out = propagate_step(F((1,), (-1,)), 1)
    assert out == F((), (1,))
    assert EMPTY_CLAUSE in out


def test_propagate_step_enabled_by_unit_presence():
    # {2,1} propagates on 2 because {-1} is present, even before any step on -1
    out = propagate_step(F((-1,), (2, 1)), 2)
    assert out == F((-1,), (2,))


def test_propagate_step_requires_an_enabling_clause():
    with pytest.raises(NotUnitError):
        propagate_step(F((1, 2), (3,)), 2)
    with pytest.raises(NotUnitError):
        propagate_step(F((1,),), -1)
    with pytest.raises(ValueError):
        propagate_step(F((1,),), 0)


def test_propagate_fixpoint_chain():
    out = propagate_fixpoint(F((1,), (-1, 2), (-2, 3)))
    assert not out.conflict
    assert out.formula == F((1,), (2,), (3,))


def test_propagate_fixpoint_conflict_and_empty():
    assert propagate_fixpoint(F((1,), (-1,))).conflict
    assert propagate_fixpoint(F(())).conflict
    assert propagate_fixpoint(F((1,), (-1,))).formula is None


def test_propagate_fixpoint_strips_survivors():
    out = propagate_fixpoint(F((1,), (-1, 2, 3)))
    assert out.formula == F((1,), (2, 3))


def test_propagate_fixpoint_keeps_untouched_tautologies():
    out = propagate_fixpoint(F((1,), (2, -2, 3)))
    assert out.formula == F((1,), (2, -2, 3))


def test_propagate_fixpoint_collapses_duplicate_units():
    out = propagate_fixpoint(Formula([Clause((1,))] * 3))
    assert out.formula == F((1,))


def test_propagate_fixpoint_agrees_with_rewriting_oracle():
    # the incremental engine and the one-step-at-a-time rewriter must land
    # on the same fixpoint multiset, or both report a conflict
    rng = random.Random(171)
    for round_no in range(300):
        f = random_formula(rng, rng.randint(1, 6), rng.randint(0, 10))
        conflict, final = oracle_fixpoint(clause_counts(f), rng)
        out = propagate_fixpoint(f)
        assert out.conflict == conflict, "round %d: %r" % (round_no, f)
        if not conflict:
            assert clause_counts(out.formula) == final, "round %d" % round_no


def test_propagate_fixpoint_order_seed_is_irrelevant():
    rng = random.Random(172)
    for _ in range(50):
        f = random_formula(rng, rng.randint(1, 7), rng.randint(0, 12))
        base = propagate_fixpoint(f)
        for seed in range(10):
            shuffled = propagate_fixpoint(f, order_seed=seed)
            assert shuffled.conflict == base.conflict
            assert shuffled.formula == base.formula


# ------------------------------------------------------------------- AT / RAT


def test_has_at_examples():
    f = F((1,), (-1, 2))
    assert has_at(f, Clause((2,)))
    assert has_at(f, Clause((-1, 2)))  # negating both literals conflicts
    assert not has_at(f, Clause((-1,)))
    assert not has_at(f, EMPTY_CLAUSE)
    assert has_at(F((1,), (-1,)), EMPTY_CLAUSE)


def test_has_at_tautology_always_holds():
    assert has_at(Formula(), Clause((3, -3)))
    assert has_at(F((1, 2),), Clause((5, 2, -5)))


def test_has_at_is_incomplete():
    # entailment without a unit-propagation conflict
    f = F((2, 3), (2, -3), (-2, 3), (-2, -3))
    assert truth_table_entails(f, EMPTY_CLAUSE)
    assert not has_at(f, EMPTY_CLAUSE)


def test_has_at_implies_entailment():
    rng = random.Random(41)
    hits = 0
    for _ in range(400):
        f = random_formula(rng, rng.randint(1, 6), rng.randint(1, 9))
        c = random_clause(rng, 6, rng.randint(0, 3))
        if has_at(f, c):
            hits += 1
            assert truth_table_entails(f, c)
    assert hits > 20  # the loop must actually exercise the implication


def test_has_at_monotone_under_addition():
    rng = random.Random(42)
    checked = 0
    for _ in range(300):
        f = random_formula(rng, 5, rng.randint(1, 8))
        c = random_clause(rng, 5, rng.randint(0, 3))
        if not has_at(f, c):
            continue
        checked += 1
        grown = f.add(random_clause(rng, 5, rng.randint(1, 3)))
        assert has_at(grown, c)
    assert checked > 20


def test_has_rat_fast_path_from_at():
    f = F((1,), (-1, 2))
    assert has_rat(f, Clause((2,)), 2)


def test_has_rat_vacuous_when_pivot_negation_absent():
    f = F((2,),)
    assert not has_at(f, Clause((1,)))
    assert has_rat(f, Clause((1,)), 1)


def test_has_rat_blocked_clause():
    f = F((-1, -2), (-2, 5))
    c = Clause((1, 2))
    assert not has_at(f, c)
    # pivot 1: the only resolvent is the tautology {1,2,-2}, so it checks out
    assert has_rat(f, c, 1)
    # pivot 2: the resolvent {1,2,5} with {-2,5} has no conflict
    assert not has_rat(f, c, 2)


def test_has_rat_depends_on_pivot_choice():
    f = F((-3, 5),)
    c1 = parse_drat("1 3 0\n").steps[0].clause
    c2 = parse_drat("3 1 0\n").steps[0].clause
    assert c1 == c2  # same set, different pivot
    assert has_rat(f, c1, c1.pivot)
    assert not has_rat(f, c2, c2.pivot)


def test_has_rat_pivot_must_be_in_clause():
    with pytest.raises(PivotNotInClauseError):
        has_rat(F((1,),), Clause((1, 2)), 3)
    with pytest.raises(PivotNotInClauseError):
        has_rat(F((1,),), EMPTY_CLAUSE, 1)


def test_has_rat_preserves_satisfiability():
    # adding a RAT clause never turns a satisfiable formula unsatisfiable
    rng = random.Random(43)
    checked = 0
    for _ in range(300):
        f = random_formula(rng, 5, rng.randint(1, 8))
        c = random_clause(rng, 5, rng.randint(1, 3))
        if not has_rat(f, c, c.pivot):
            continue
        variables = set(f.variables()) | {abs(l) for l in c}
        if not any(satisfies(a, f) for a in all_assignments(variables)):
            continue
        checked += 1
        grown = f.add(c)
        assert any(satisfies(a, grown) for a in all_assignments(variables))
    assert checked > 20


# ------------------------------------------------------------------ replay


def test_check_refutation_minimal_valid():
    rep = check_refutation(F((1,), (-1,)), Refutation((ProofStep(ADD, EMPTY_CLAUSE),)))
    assert rep.valid
    assert rep.steps_checked == 1
    assert rep.failing_step is None
    assert rep.reason is None


def test_check_refutation_two_step_valid():
    f = F((1,), (-1,))
    rep = check_refutation(f, parse_drat("-1 0\n1 0\n0\n"))
    assert rep.valid
    assert rep.steps_checked == 3


def test_check_refutation_empty_proof():
    rep = check_refutation(F((1,), (-1,)), Refutation())
    assert not rep.valid
    assert rep.reason == MISSING_EMPTY_CLAUSE
    assert rep.failing_step is None


def test_check_refutation_missing_empty_clause():
    f = F((1,), (-1, 2))
    rep = check_refutation(f, parse_drat("2 0\n"))
    assert not rep.valid
    assert rep.reason == MISSING_EMPTY_CLAUSE
    assert rep.steps_checked == 1


def test_check_refutation_failing_empty_add():
    rep = check_refutation(F((1, 2),), parse_drat("0\n"))
    assert not rep.valid
    assert rep.failing_step == 1
    assert rep.reason == NOT_AT


def test_check_refutation_failing_nonempty_add():
    rep = check_refutation(F((-1, 2),), parse_drat("1 0\n1 0\n"))
    # {1} is RAT here (resolvent {1,2} fails, so it is not), hence step 1 fails
    assert not rep.valid
    assert rep.failing_step == 1
    assert rep.reason == NOT_RAT


def test_check_refutation_deletion_changes_later_steps():
    f = F((1,), (-1, 2), (-2,))
    assert check_refutation(f, parse_drat("2 0\n0\n"), mode=STRICT).valid
    rep = check_refutation(f, parse_drat("d 1 0\n2 0\n0\n"), mode=STRICT)
    assert not rep.valid
    assert rep.failing_step == 2
    assert rep.reason == NOT_RAT


def test_check_refutation_applies_unit_deletions():
    # specified DRAT: deleting {1} takes its consequences with it, so the
    # empty clause is no longer AT. Operational DRAT (drat-trim's default)
    # ignores unit deletions and would accept this proof.
    f = F((1,), (-1, 2), (-1, -2))
    assert check_refutation(f, parse_drat("0\n"), mode=STRICT).valid
    for mode in (STRICT, PERMISSIVE):
        rep = check_refutation(f, parse_drat("d 1 0\n0\n"), mode=mode)
        assert not rep.valid
        assert rep.failing_step == 2
        assert rep.reason == NOT_AT


def test_check_refutation_deletion_removes_one_instance():
    f = Formula([Clause((1,)), Clause((1,)), Clause((-1,))])
    # one copy of {1} survives the first deletion, so the conflict remains
    assert check_refutation(f, parse_drat("d 1 0\n0\n"), mode=STRICT).valid
    # deleting both copies leaves {{-1}}, where the empty clause has no AT
    rep = check_refutation(f, parse_drat("d 1 0\nd 1 0\n0\n"), mode=STRICT)
    assert not rep.valid
    assert rep.failing_step == 3
    assert rep.reason == NOT_AT


def test_check_refutation_absent_deletion_strict_vs_permissive():
    f = F((1,), (-1,))
    proof = parse_drat("d 3 0\n0\n")
    strict = check_refutation(f, proof, mode=STRICT)
    assert not strict.valid
    assert strict.failing_step == 1
    assert strict.reason == DELETION_ABSENT
    loose = check_refutation(f, proof, mode=PERMISSIVE)
    assert loose.valid
    assert loose.steps_checked == 2


def test_check_refutation_default_mode_is_permissive():
    f = F((1,), (-1,))
    assert check_refutation(f, parse_drat("d 3 0\n0\n")).valid


def test_check_refutation_ignores_trailing_steps():
    f = F((1,), (-1,))
    rep = check_refutation(f, parse_drat("0\nd 99 0\n5 0\n"), mode=STRICT)
    assert rep.valid
    assert rep.steps_checked == 1


def test_check_refutation_rejects_bad_mode():
    with pytest.raises(ValueError):
        check_refutation(F((1,),), Refutation(), mode="fast")


def test_check_refutation_counts_propagations():
    f = F((1,), (-1, 2), (-2,))
    rep = check_refutation(f, parse_drat("0\n"))
    assert rep.valid
    assert rep.propagations >= 2
    assert rep.wall_time >= 0.0


def test_check_refutation_from_dimacs_and_drat_text():
    cnf = parse_dimacs("p cnf 2 3\n1 2 0\n1 -2 0\n-1 0\n")
    rep = check_refutation(cnf.formula, parse_drat("1 0\n0\n"), mode=STRICT)
    assert rep.valid


def test_annotate_refutation_kinds():
    f = F((-1, -2), (2, 3), (1,), (-1, 5))
    proof = Refutation(
        (
            ProofStep(ADD, Clause((5,))),  # AT via {1} and {-1,5}
            ProofStep(DELETE, Clause((2, 3))),
            ProofStep(ADD, Clause((9, 2))),  # blocked on 9: no -9 occurrences
        )
    )
    rep, notes = annotate_refutation(f, proof, mode=STRICT)
    assert not rep.valid and rep.reason == MISSING_EMPTY_CLAUSE
    assert [n.kind for n in notes] == [KIND_AT, KIND_DELETE, KIND_RAT]
    assert notes[1].applied
    assert notes[0].index == 1


def test_annotate_matches_check():
    rng = random.Random(77)
    for _ in range(40):
        f = random_formula(rng, 5, rng.randint(1, 8))
        steps = []
        for _ in range(rng.randint(0, 5)):
            op = ADD if rng.random() < 0.8 else DELETE
            steps.append(ProofStep(op, random_clause(rng, 5, rng.randint(0, 3))))
        proof = Refutation(steps)
        for mode in (STRICT, PERMISSIVE):
            direct = check_refutation(f, proof, mode=mode)
            annotated, notes = annotate_refutation(f, proof, mode=mode)
            assert direct.valid == annotated.valid
            assert direct.failing_step == annotated.failing_step
            assert direct.reason == annotated.reason
            assert len(notes) <= len(steps)


def test_annotate_permissive_absent_delete_not_applied():
    f = F((1,), (-1,))
    rep, notes = annotate_refutation(f, parse_drat("d 3 0\n0\n"), mode=PERMISSIVE)
    assert rep.valid
    assert notes[0].kind == KIND_DELETE and not notes[0].applied


# --------------------------------------------------------------- preservation


def test_is_preserving_examples():
    assert is_preserving(parse_drat("1 2 0\nd 1 2 0\n0\n"))
    assert is_preserving(parse_drat("0\n"))
    assert not is_preserving(parse_drat("d 1 0\n0\n"))
    assert not is_preserving(parse_drat("1 0\nd 1 0\nd 1 0\n0\n"))


def test_is_preserving_ignores_order():
    # deletion before the matching addition still balances out
    assert is_preserving(parse_drat("d 1 0\n1 0\n0\n"))


def test_is_preserving_uses_clause_values():
    assert is_preserving(parse_drat("1 2 0\nd 2 1 0\n0\n"))


def test_is_preserving_random_counter_model():
    rng = random.Random(88)
    for _ in range(200):
        steps = []
        for _ in range(rng.randint(0, 12)):
            op = ADD if rng.random() < 0.6 else DELETE
            steps.append(ProofStep(op, random_clause(rng, 3, rng.randint(0, 2))))
        proof = Refutation(steps)
        adds = {}
        dels = {}
        for s in steps:
            (adds if s.is_add else dels)[s.clause] = (
                (adds if s.is_add else dels).get(s.clause, 0) + 1
            )
        expected = all(dels.get(c, 0) <= adds.get(c, 0) for c in dels)
        assert is_preserving(proof) == expected
