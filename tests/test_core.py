"""Clause, Formula, ProofStep, and Refutation behavior."""

import copy
import pickle
import random
import sys
from collections import Counter

import pytest

from dratstitch import (
    ADD,
    DELETE,
    AbsentClauseError,
    Clause,
    EMPTY_CLAUSE,
    Formula,
    ProofStep,
    Refutation,
    negate,
)


def test_negate_examples():
    assert negate(5) == -5
    assert negate(-3) == 3
    with pytest.raises(ValueError):
        negate(0)


def test_negate_involution():
    rng = random.Random(7)
    for _ in range(200):
        lit = rng.randint(1, 1000) * rng.choice((1, -1))
        assert negate(negate(lit)) == lit
        assert abs(negate(lit)) == abs(lit)


def test_clause_drops_duplicates_keeps_first_order():
    c = Clause((3, -1, 3, 2, -1))
    assert c.literals == (3, -1, 2)
    assert len(c) == 3
    assert list(c) == [3, -1, 2]


def test_clause_rejects_zero():
    with pytest.raises(ValueError):
        Clause((1, 0, 2))


def test_clause_equality_ignores_order():
    assert Clause((1, 2, 3)) == Clause((3, 1, 2))
    assert hash(Clause((1, 2, 3))) == hash(Clause((3, 1, 2)))
    assert Clause((1, 2)) != Clause((1, 2, 3))
    assert Clause((1,)) != Clause((-1,))


def test_clause_membership():
    c = Clause((4, -2))
    assert 4 in c and -2 in c
    assert 2 not in c and -4 not in c


def test_pivot_is_first_literal():
    assert Clause((7, -3, 2)).pivot == 7
    assert Clause((-3, 7)).pivot == -3
    assert EMPTY_CLAUSE.pivot is None


def test_with_literal_appends_last():
    c = Clause((5, -2))
    grown = c.with_literal(9)
    assert grown.literals == (5, -2, 9)
    assert grown.pivot == 5
    assert c.literals == (5, -2)  # original untouched


def test_with_literal_existing_is_identity():
    c = Clause((5, -2))
    assert c.with_literal(-2).literals == (5, -2)
    with pytest.raises(ValueError):
        c.with_literal(0)


def test_with_literal_can_build_tautology():
    c = Clause((5, -2)).with_literal(2)
    assert c.literals == (5, -2, 2)
    assert c.is_tautology()


def test_with_literal_equals_a_clause_built_from_scratch():
    rng = random.Random(12)
    for _ in range(300):
        c = Clause(rng.randint(1, 6) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8)))
        lit = rng.randint(1, 7) * rng.choice((1, -1))
        grown = c.with_literal(lit)
        built = Clause(c.literals + (lit,))
        assert grown.literals == built.literals
        assert grown == built and hash(grown) == hash(built)
        assert lit in grown and len(grown) == len(built)
        if lit in c:
            assert grown is c
        # clauses widened twice stay equal to their from-scratch twins
        again = grown.with_literal(-lit)
        assert again.literals == Clause(built.literals + (-lit,)).literals
        assert again == Clause(built.literals + (-lit,))


def test_without():
    c = Clause((5, -2, 7))
    assert c.without(-2).literals == (5, 7)
    assert c.without(1).literals == (5, -2, 7)  # absent literal is a no-op


def test_tautology_detection():
    assert Clause((1, -1)).is_tautology()
    assert Clause((2, 3, -2)).is_tautology()
    assert not Clause((1, 2, 3)).is_tautology()
    assert not EMPTY_CLAUSE.is_tautology()


def test_empty_clause():
    assert len(EMPTY_CLAUSE) == 0
    assert EMPTY_CLAUSE == Clause(())
    assert EMPTY_CLAUSE.literals == ()


def test_clause_random_model_agreement():
    # A clause must behave like an order-annotated set of its literals.
    rng = random.Random(11)
    for _ in range(300):
        lits = [rng.randint(1, 6) * rng.choice((1, -1)) for _ in range(rng.randint(0, 10))]
        c = Clause(lits)
        expected_set = set(lits)
        assert set(c.literals) == expected_set
        assert len(c.literals) == len(expected_set)
        # first occurrence wins the order slot
        firsts = []
        for l in lits:
            if l not in firsts:
                firsts.append(l)
        assert c.literals == tuple(firsts)
        assert c == Clause(sorted(expected_set))


def test_formula_multiset_add_remove():
    a = Clause((1, 2))
    f = Formula((a,))
    f2 = f.add(a)
    assert f.multiplicity(a) == 1
    assert f2.multiplicity(a) == 2
    assert len(f2) == 2
    assert list(f2) == [a, a]
    f1 = f2.remove(a)
    assert f1.multiplicity(a) == 1
    f0 = f1.remove(a)
    assert f0.multiplicity(a) == 0
    assert a not in f0
    with pytest.raises(AbsentClauseError):
        f0.remove(a)


def test_formula_remove_respects_value_equality():
    # Equal clauses built in different literal orders share multiplicity.
    f = Formula((Clause((1, 2)),))
    f = f.remove(Clause((2, 1)))
    assert len(f) == 0


def test_formula_union_sums_multiplicities():
    a, b = Clause((1,)), Clause((2,))
    f = Formula((a, a)).union(Formula((a, b)))
    assert f.multiplicity(a) == 3
    assert f.multiplicity(b) == 1
    assert len(f) == 4


def test_formula_variables():
    f = Formula((Clause((1, -3)), Clause((-1, 7))))
    assert f.variables() == {1, 3, 7}
    assert Formula().variables() == set()


def test_formula_from_counts_round_trip():
    f = Formula((Clause((1,)), Clause((1,)), Clause((2, 3))))
    again = Formula.from_counts(f.counts())
    assert again == f
    with pytest.raises(ValueError):
        Formula.from_counts([(Clause((1,)), -1)])


def test_formula_rejects_non_clauses():
    with pytest.raises(TypeError):
        Formula(((1, 2),))


def test_formula_random_counter_agreement():
    # Formula must track multiplicities exactly like a Counter.
    rng = random.Random(23)
    for _ in range(200):
        f = Formula()
        model = Counter()
        pool = [Clause((rng.randint(1, 4) * rng.choice((1, -1)),)) for _ in range(4)]
        for _ in range(rng.randint(0, 30)):
            c = rng.choice(pool)
            if rng.random() < 0.6:
                f = f.add(c)
                model[c] += 1
            elif model[c] > 0:
                f = f.remove(c)
                model[c] -= 1
        for c in pool:
            assert f.multiplicity(c) == model[c]
        assert len(f) == sum(model.values())
        assert Counter(dict(f.counts())) == +model


def test_proof_step():
    c = Clause((1, 2))
    s = ProofStep(ADD, c)
    assert s.op == ADD and s.clause == c and s.is_add
    assert s == (ADD, c)  # tuple compatibility
    d = ProofStep(DELETE, c)
    assert not d.is_add
    with pytest.raises(ValueError):
        ProofStep("x", c)


def test_refutation():
    steps = (
        ProofStep(ADD, Clause((1,))),
        ProofStep(DELETE, Clause((2,))),
        ProofStep(ADD, EMPTY_CLAUSE),
    )
    r = Refutation(steps)
    assert r.steps == steps
    assert len(r) == 3
    assert list(r.adds()) == [Clause((1,)), EMPTY_CLAUSE]
    assert r == Refutation(list(steps))
    assert r != Refutation(steps[:2])


def test_pickle_round_trip():
    clause = Clause((3, -1, 2))
    step = ProofStep(DELETE, clause)
    formula = Formula([clause, clause, Clause((1,))])
    refutation = Refutation((ProofStep(ADD, Clause((1,))), step, ProofStep(ADD, EMPTY_CLAUSE)))

    back = pickle.loads(pickle.dumps(clause))
    assert back == clause and back.literals == (3, -1, 2)
    back = pickle.loads(pickle.dumps(step))
    assert isinstance(back, ProofStep) and back == step and back.clause.literals == (3, -1, 2)
    back = pickle.loads(pickle.dumps(formula))
    assert back == formula and back.multiplicity(clause) == 2
    back = pickle.loads(pickle.dumps(refutation))
    assert back == refutation and all(isinstance(s, ProofStep) for s in back)


def test_clause_hashes_and_compares_as_a_frozenset_in_c():
    assert Clause.__hash__ is frozenset.__hash__
    for name in ("__eq__", "__ne__", "__contains__", "__len__"):
        assert getattr(Clause, name) is getattr(frozenset, name), name
    a, b = Clause((1, -2, 3)), Clause((3, 1, -2))
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        outcomes = (a == b, a != b, hash(a) == hash(b), -2 in a, len(a), bool(EMPTY_CLAUSE))
    finally:
        sys.setprofile(None)
    assert outcomes == (True, False, True, True, 3, False)
    # no Python-level function ran (a "call" event), only C code
    assert "call" not in events, events


def test_clause_equals_the_frozenset_of_its_literals():
    c = Clause((2, -1, 2))
    assert c == frozenset((-1, 2)) and frozenset((2, -1)) == c
    assert c == {2, -1} and hash(c) == hash(frozenset((-1, 2)))
    assert {frozenset((-1, 2)): "found"}[c] == "found"
    assert {c: "found"}[frozenset((2, -1))] == "found"
    assert EMPTY_CLAUSE == frozenset()
    assert c != (2, -1) and c != [2, -1] and c != frozenset((2,))
    # set operations give plain frozensets, without an order
    assert type(c | {5}) is frozenset and c | {5} == {-1, 2, 5}


def test_clause_keeps_its_order_through_copies_and_edits():
    c = Clause((5, -3, 9, 1))
    for copied in (
        pickle.loads(pickle.dumps(c)),
        pickle.loads(pickle.dumps(c, protocol=0)),
        copy.copy(c),
        copy.deepcopy(c),
        copy.deepcopy([c])[0],
    ):
        assert type(copied) is Clause and copied.literals == (5, -3, 9, 1)
        assert list(copied) == [5, -3, 9, 1] and copied.pivot == 5
    assert c.with_literal(-7).literals == (5, -3, 9, 1, -7)
    assert c.with_literals((2, 9, 2, -2)).literals == (5, -3, 9, 1, 2, -2)
    assert c.without(9).literals == (5, -3, 1) and c.without(5).pivot == -3
    for grown in (c.with_literal(-7), c.with_literals((2, 9, 2, -2)), c.without(9)):
        assert type(grown) is Clause and grown == frozenset(grown.literals)
        assert len(grown) == len(grown.literals)


def test_clause_rejects_zero_and_drops_repeats_keeping_the_first():
    for build in (
        lambda: Clause((1, 0)),
        lambda: Clause([0]),
        lambda: Clause((1,)).with_literal(0),
        lambda: Clause((1,)).with_literals((2, 0)),
    ):
        with pytest.raises(ValueError, match="0 terminates clauses"):
            build()
    c = Clause(iter((4, -4, 4, 2, -4)))
    assert c.literals == (4, -4, 2) and len(c) == 3 and c.is_tautology()


def test_formula_rejects_plain_frozensets():
    with pytest.raises(TypeError):
        Formula([frozenset((1, 2))])
    with pytest.raises(TypeError):
        Formula([Clause((1,)), {1}])


def test_proof_step_fields_are_read_only():
    s = ProofStep(ADD, Clause((1, 2)))
    for name in ("op", "clause"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
    with pytest.raises(AttributeError):
        s.extra = 1
    assert (s.op, s.clause) == (ADD, Clause((2, 1)))
