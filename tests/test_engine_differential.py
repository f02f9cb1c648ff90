"""Differential tests: the watched-literal engine against the reference engine.

Each case replays one proof twice, once through checker._ClauseDb and
once with tests/helpers.ReferenceClauseDb swapped in, and requires the
same report (apart from wall time) and the same annotations, down to
the order of used clauses and RAT neighbours and the literal order of
every clause object handed out.
"""

import dataclasses
import random

import pytest

from dratstitch import (
    ADD,
    DELETE,
    Clause,
    EMPTY_CLAUSE,
    Formula,
    ProofStep,
    Refutation,
    annotate_refutation,
    check_refutation,
    gen_random_unsat,
    parse_dimacs,
    parse_drat,
    propagate_fixpoint,
    solve_drup,
    trim,
)
from dratstitch import checker
from dratstitch.checker import PERMISSIVE, STRICT

from helpers import (
    ReferenceClauseDb,
    bundle_for,
    random_clause,
    random_formula,
    stitched_instance,
)

MODES = (STRICT, PERMISSIVE)


def _lits(clauses):
    return tuple(c.literals for c in clauses)


def _annotations(ann):
    return tuple(
        (sv.index, sv.op, sv.clause.literals, sv.kind, sv.applied, _lits(sv.used), _lits(sv.rat_neighbors))
        for sv in ann
    )


def _replay(formula, proof, mode):
    report = check_refutation(formula, proof, mode=mode)
    annotated, ann = annotate_refutation(formula, proof, mode=mode)
    return (
        dataclasses.replace(report, wall_time=0.0),
        dataclasses.replace(annotated, wall_time=0.0),
        _annotations(ann),
    )


def assert_same_replay(monkeypatch, formula, proof):
    """Both engines give equal reports and annotations in both modes."""
    for mode in MODES:
        fast = _replay(formula, proof, mode)
        with monkeypatch.context() as m:
            m.setattr(checker, "_ClauseDb", ReferenceClauseDb)
            reference = _replay(formula, proof, mode)
        assert fast == reference, (mode, proof)
    return fast[0]


def F(*clauses):
    return Formula(Clause(c) for c in clauses)


def P(*steps):
    return Refutation(
        ProofStep(DELETE, Clause(s[1:])) if s and s[0] == "d" else ProofStep(ADD, Clause(s))
        for s in steps
    )


HAND_CASES = [
    # the 2x2 square: both units, then the empty clause
    (F((1, 2), (1, -2), (-1, 2), (-1, -2)), P((1,), (2,), ())),
    (F((1,), (-1,)), P(())),
    (F((1,), (-1,)), P()),
    # a deletion that takes away the only way to the empty clause
    (F((1, 2), (-1, 2), (1, -2), (-1, -2)), P(("d", 1, 2), (2,), ())),
    # unit deletion under specified DRAT
    (F((1,), (-1, 2), (-1, -2)), P(("d", 1), ())),
    # deletion of an absent clause, and of a tautology
    (F((1, 2), (-1, 2), (-2,)), P(("d", 3, 4), ("d", 1, -1), ())),
    # duplicate instances, deleted one at a time, in another literal order
    (F((1, 2), (1, 2), (-1,), (-2, 3)), P(("d", 2, 1), (2,), ("d", 1, 2), (3,), ())),
    # lemmas passing RAT only, on fresh variables, the last one with neighbours
    (F((1, 2), (-1, 2), (1, -2), (-1, -2)), P((-3, 4), (-3, 5), (3, -4, -5), (2,), ())),
    # a RAT lemma whose check fails on one neighbour
    (F((1, 2), (-1, 3)), P((-2, 4), (2, -4), ())),
    # lemmas after the empty clause are ignored
    (F((1,), (-1,)), P((), (5,), ("d", 1))),
    # a failing lemma in the middle
    (F((1, 2, 3), (-1, 2), (-2, 3)), P((3,), (1,), ())),
]


@pytest.mark.parametrize("case", range(len(HAND_CASES)))
def test_hand_cases_match_reference(monkeypatch, case):
    formula, proof = HAND_CASES[case]
    assert_same_replay(monkeypatch, formula, proof)


def test_cli_fixture_bundles_match_reference(monkeypatch):
    for seed in (3, 7, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        bundle = bundle_for(formula, 2, seed=seed)
        for entry in bundle.entries:
            sub = formula
            for lit in entry.cube.literals:
                sub = sub.add(Clause((lit,)))
            assert assert_same_replay(monkeypatch, sub, entry.refutation).valid


def test_random_formulas_with_random_proofs_match_reference(monkeypatch):
    # mostly invalid proofs: random lemmas and deletions over random formulas
    valid = 0
    for i in range(150):
        rng = random.Random(7000 + i)
        num_vars = rng.randint(3, 9)
        formula = random_formula(rng, num_vars, rng.randint(2, 4 * num_vars))
        alive = list(formula.distinct())
        steps = []
        for _ in range(rng.randint(0, 12)):
            if alive and rng.random() < 0.3:
                steps.append(ProofStep(DELETE, rng.choice(alive)))
            else:
                lemma = random_clause(rng, num_vars, rng.randint(1, 3))
                steps.append(ProofStep(ADD, lemma))
                alive.append(lemma)
        steps.append(ProofStep(ADD, EMPTY_CLAUSE))
        report = assert_same_replay(monkeypatch, formula, Refutation(steps))
        valid += report.valid

        fast = propagate_fixpoint(formula)
        with monkeypatch.context() as m:
            m.setattr(checker, "_ClauseDb", ReferenceClauseDb)
            reference = propagate_fixpoint(formula)
        assert fast == reference
    assert 0 < valid < 150


@pytest.mark.parametrize("cl_avg", [-1, 0])
def test_stitched_and_trimmed_proofs_match_reference(monkeypatch, cl_avg):
    for seed in (1, 2):
        formula, combined = stitched_instance(seed, num_vars=11, depth=3, cl_avg=cl_avg)
        assert assert_same_replay(monkeypatch, formula, combined).valid
        trimmed, _ = trim(formula, combined)  # trimmed proofs carry deletions
        assert assert_same_replay(monkeypatch, formula, trimmed).valid


def _mutations(formula, proof, rng):
    """Broken and reworked variants of a valid proof, named for the failures."""
    steps = list(proof)
    adds = [i for i, s in enumerate(steps) if s.is_add and len(s.clause) > 0]
    out = {}

    i = rng.choice(adds)
    out["lemma dropped"] = steps[:i] + steps[i + 1 :]

    i = rng.choice(adds)
    lits = list(steps[i].clause.literals)
    k = rng.randrange(len(lits))
    lits[k] = -lits[k]
    out["literal flipped"] = steps[:i] + [ProofStep(ADD, Clause(lits))] + steps[i + 1 :]

    i = rng.randrange(len(steps))
    bogus = Clause((max(formula.variables()) + 1, 1))
    out["bogus deletion"] = steps[:i] + [ProofStep(DELETE, bogus)] + steps[i:]

    original = rng.choice(list(formula.distinct()))
    twin = Clause(reversed(original.literals))
    i = rng.randrange(len(steps))
    out["duplicate added then deleted"] = (
        steps[:i] + [ProofStep(ADD, twin), ProofStep(DELETE, original)] + steps[i:]
    )

    units = [s.clause for s in steps if s.is_add and len(s.clause) == 1]
    units += [c for c in formula.distinct() if len(c) == 1]
    if units:
        i = rng.randrange(len(steps))
        out["unit deletion"] = steps[:i] + [ProofStep(DELETE, rng.choice(units))] + steps[i:]

    # x <-> (a and b) on fresh variables: two vacuous RAT lemmas, then one
    # whose resolvents with both are tautologies
    x = max(formula.variables()) + 1
    a, b = x + 1, x + 2
    definition = [
        ProofStep(ADD, Clause((-x, a))),
        ProofStep(ADD, Clause((-x, b))),
        ProofStep(ADD, Clause((x, -a, -b))),
    ]
    i = rng.randrange(len(steps))
    out["rat-only lemmas"] = steps[:i] + definition + steps[i:]
    return {name: Refutation(s) for name, s in out.items()}


def test_mutated_proofs_match_reference(monkeypatch):
    bases = []
    for seed in (4, 5):
        formula, combined = stitched_instance(seed, num_vars=10, depth=2)
        bases.append((formula, combined))
        bases.append((formula, trim(formula, combined)[0]))
    formula = gen_random_unsat(12, 5.0, seed=11)
    bases.append((formula, solve_drup(formula, seed=11).refutation))

    verdicts = {}
    for n, (formula, proof) in enumerate(bases):
        rng = random.Random(n)
        for _ in range(3):
            for name, mutated in _mutations(formula, proof, rng).items():
                report = assert_same_replay(monkeypatch, formula, mutated)
                verdicts.setdefault(name, set()).add(report.valid)
    # every kind of mutation ran, and the breaking ones broke something
    assert set(verdicts) == {
        "lemma dropped",
        "literal flipped",
        "bogus deletion",
        "duplicate added then deleted",
        "unit deletion",
        "rat-only lemmas",
    }
    assert True in verdicts["rat-only lemmas"]


def test_rat_lemmas_are_annotated_with_neighbours(monkeypatch):
    formula = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").formula
    proof = parse_drat("-3 4 0\n-3 5 0\n3 -4 -5 0\n2 0\n0\n")
    report, ann = annotate_refutation(formula, proof, mode=STRICT)
    assert report.valid
    assert [sv.kind for sv in ann[:3]] == ["rat", "rat", "rat"]
    assert _lits(ann[2].rat_neighbors) == ((-3, 4), (-3, 5))
    assert_same_replay(monkeypatch, formula, proof)
