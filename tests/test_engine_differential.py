"""Differential tests: the watched-literal engine against the reference engine.

Each case replays one proof twice, once through checker._ClauseDb and
once with tests/helpers.ReferenceClauseDb swapped in, and requires the
same report (apart from wall time) and the same annotations, down to
the order of used clauses and RAT neighbours and the literal order of
every clause object handed out.

Each case is also replayed with the depth-first explanation that the
engine used before it listed a conflict's clauses along the trail
(tests/helpers.depth_first_explain): the report must be the same, and
so must each step's used clauses, taken as a set.

Replays work on a copy of a kept database of their formula, extended by
the units of a cube. The last section requires every such replay, in
both engines, to equal a replay on a database built from scratch over
the formula with the cube's units added.
"""

import contextlib
import dataclasses
import random
import tracemalloc

import pytest

from dratstitch import (
    ADD,
    DELETE,
    Clause,
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
    depth_first_explain,
    instance_at,
    long_root_case,
    random_proofs,
    rat_corpus,
    stitched_instance,
)

MODES = (STRICT, PERMISSIVE)


def _lits(clauses):
    return tuple(c.literals for c in clauses)


def _annotations(ann):
    return tuple(
        (
            sv.index,
            sv.op,
            sv.clause.literals,
            sv.kind,
            sv.applied,
            _lits(sv.used),
            _lits(sv.rat_neighbors),
            sv.clause_id,
            sv.used_ids,
        )
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


@contextlib.contextmanager
def reference_engine(monkeypatch):
    """Swap the reference engine in; yields the list of engines it builds."""
    built = []
    init = ReferenceClauseDb.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(checker, "_ClauseDb", ReferenceClauseDb)
        m.setattr(ReferenceClauseDb, "__init__", counted)
        yield built


def _as_sets(annotations):
    """Annotations with used and used_ids as sets, in a comparable form."""
    return [a[:5] + (frozenset(a[5]),) + a[6:8] + (frozenset(a[8]),) for a in annotations]


def assert_same_used_sets(monkeypatch, formula, proof, cube=()):
    """The engine's conflicts, listed along the trail, use the same
    clauses as the depth-first walk it listed them by before, in both
    modes: equal reports, and equal annotations once each step's used
    clauses are taken as a set."""
    for mode in MODES:
        trail = annotate_refutation(formula, proof, mode=mode, cube=cube)
        with monkeypatch.context() as m:
            m.setattr(checker._ClauseDb, "_explain", depth_first_explain)
            depth_first = annotate_refutation(formula, proof, mode=mode, cube=cube)
        assert _no_time(trail[0]) == _no_time(depth_first[0]), (mode, cube, proof)
        got, want = _annotations(trail[1]), _annotations(depth_first[1])
        assert _as_sets(got) == _as_sets(want), (mode, cube, proof)


def assert_same_replay(monkeypatch, formula, proof):
    """Both engines give equal reports and annotations in both modes, and
    the engine uses the clauses the depth-first explanation did."""
    for mode in MODES:
        fast = _replay(formula, proof, mode)
        with reference_engine(monkeypatch) as built:
            reference = _replay(formula, proof, mode)
        assert len(built) >= 2, "the reference engine ran neither replay"
        assert fast == reference, (mode, proof)
    assert_same_used_sets(monkeypatch, formula, proof)
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

# (-1, 2) is the reason of the root literal 2; deleting it takes 2, 3 and 4
# out of the root closure, after which (3) is neither AT nor RAT
ROOT_REASON_DELETED = (F((1,), (-1, 2), (-2, 3), (-3, 4)), P(("d", -1, 2), (3,), ()))
# (-2, 3) is a reason only inside the AT check of (1, 5), so deleting it
# leaves the root closure {6, 7} standing; a rebuild would count it again
CHECK_REASON_DELETED = (
    F((1, 2), (-2, 3), (-3, -2), (6,), (-6, 7), (10, 11), (10, -11), (-10, 11), (-10, -11)),
    P((1, 5), ("d", -2, 3), (10,), ()),
)
HAND_CASES += [ROOT_REASON_DELETED, CHECK_REASON_DELETED]

# Ternary clauses, which the engine keeps on occurrence lists, not watches.
SQUARE_10 = ((10, 11), (10, -11), (-10, 11), (-10, -11))
TERNARY_CASES = [
    # (1 2 3) is deleted and added again under a new id; in the check of
    # (1 2 6) the new id must be the reason of 3, not the stale one
    (
        F((1, 2, 3), (1, 2, 5), (-5, 3), (-3, 6), *SQUARE_10),
        P(("d", 1, 2, 3), (3, 2, 1), (1, 2, 6), (10,), ()),
    ),
    # (-1 -2 3) is the reason of the root literal 3; once it is deleted,
    # (3) is neither AT nor RAT
    (F((1,), (2,), (-1, -2, 3), (-3, 4), *SQUARE_10), P(("d", -1, -2, 3), (3,), ())),
    (F((1,), (2,), (-1, -2, 3), (-3, 4), *SQUARE_10), P(("d", -1, -2, 3), (10,), ())),
    # ternary tautologies, as an input clause and as a lemma
    (F((1, -1, 2), (-2, 3), *SQUARE_10), P((5, -5, 6), (1, -1, 3), (3,), (10,), ())),
    # a ternary lemma that is unit at the root, then used there
    (F((1,), (2,), (-3, 4), (-3, -4), *SQUARE_10), P((-1, -2, -3), (-3,), (10,), ())),
    # a RAT lemma whose neighbours are both ternary
    (F((-7, 1, 2), (-7, -1, 2), (2, 4, 8), (-8, 4), *SQUARE_10), P((7, 4), (10,), ())),
]
# Heavy ternary churn: eight lemmas on 1 and 2 added and deleted, some
# added again under new ids, and a formula clause on the same literals
# deleted, so the occurrence lists of 1 and 2 fill with stale entries
CHURN = [(1, 2, k) for k in range(20, 28)]
TERNARY_CHURN = (
    F((1, 2, 3), (1, 2, -3), (-1, 4, 5), (-2, 4, -5), *SQUARE_10),
    P(
        *CHURN,
        *(("d",) + c for c in CHURN),
        (2, 1, 20),
        (1, 2, 21),
        ("d", 2, 1, 20),
        (1, 2, 20),
        ("d", 1, 2, 3),
        (1, 2, -3, 30),
        ("d", 1, 2, 21),
        (1, 2, -3, 4),
        (10,),
        (),
    ),
)
TERNARY_CASES.append(TERNARY_CHURN)
HAND_CASES += TERNARY_CASES


@pytest.mark.parametrize("case", range(len(HAND_CASES)))
def test_hand_cases_match_reference(monkeypatch, case):
    formula, proof = HAND_CASES[case]
    assert_same_replay(monkeypatch, formula, proof)


def test_ternary_occurrence_lists_stay_within_twice_their_live_entries():
    formula, proof = TERNARY_CHURN
    assert check_refutation(formula, proof, mode=STRICT).valid
    db = checker._ClauseDb(formula)
    longest = 0
    for step in proof:
        if step.is_add:
            db.add(step.clause)
        else:
            assert db.remove(step.clause)
        for occ in db.occurs:
            live = sum(db.lits[cid] is not None for cid, _, _ in occ)
            assert len(occ) <= 2 * live
            longest = max(longest, len(occ))
    assert longest >= len(CHURN)  # the churn did fill the lists


def test_ternary_occurrence_lists_stay_in_increasing_id_order():
    # propagation queues the units an occurrence list yields in list
    # order and sorts the queue's new tail only for watched units, so
    # each list must be in id order after every step: as built, after
    # compactions, after re-additions under new ids, and in copies
    formula, proof = TERNARY_CHURN
    pool = [Clause(c) for c in CHURN + [(1, 2, 3), (-1, 4, 5), (1, -2, 20), (4, -5, 21)]]
    rng = random.Random(27)
    base = checker._ClauseDb(formula)
    before = _database_state(base)
    compactions = readded = 0

    def assert_in_id_order(db):
        for occ in db.occurs:
            ids = [cid for cid, _, _ in occ]
            assert all(a < b for a, b in zip(ids, ids[1:])), ids

    for cube in ((), (3,), (-1, 4), (10,)):
        db = base.extended(cube) if cube else checker._ClauseDb(formula)
        assert_in_id_order(db)
        steps = list(proof) + [
            ProofStep(rng.choice((ADD, DELETE)), rng.choice(pool)) for _ in range(300)
        ]
        for step in steps:
            entries = sum(map(len, db.occurs))
            if step.is_add:
                old = db.ids.get(step.clause)
                known = old is None and step.clause in db.clauses
                db.add(step.clause)
                readded += known and len(step.clause) == 3
            else:
                db.remove(step.clause)
                compactions += sum(map(len, db.occurs)) < entries
            assert_in_id_order(db)
    assert _database_state(base) == before
    assert compactions > 100 and readded > 100, (compactions, readded)


def test_the_short_clause_index_is_the_live_units_and_empties_in_id_order():
    rng = random.Random(31)
    pool = [Clause(()), Clause((1,)), Clause((-1,)), Clause((2,)), Clause((-3,)), Clause((1, 2))]
    compared = 0
    for case in range(60):
        db = checker._ClauseDb(F((1, 2, 3), (-1, 2), (2,), (-2, 3, 4)))
        if case % 2:
            db = db.extended((rng.choice((1, -1)) * rng.randint(1, 4),))
        for _ in range(25):
            clause = rng.choice(pool)
            if rng.random() < 0.5:
                db.add(clause)
            else:
                db.remove(clause)
            scan = [
                (cid, db.lits[cid][0] if db.lits[cid] else None)
                for cid in db.ids.values()
                if len(db.lits[cid]) <= 1
            ]
            assert list(db.short.items()) == scan
            fresh = checker._ClauseDb(Formula.from_counts(db.mult.items()))
            assert db.root_conflict == fresh.root_conflict
            if not db.root_conflict:
                compared += 1
                assert set(db.true_lits[: db.root_len]) == set(fresh.true_lits[: fresh.root_len])
    assert compared > 100


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
    valid = 0
    for _, formula, proof in random_proofs():
        report = assert_same_replay(monkeypatch, formula, proof)
        valid += report.valid

        fast = propagate_fixpoint(formula)
        with reference_engine(monkeypatch) as built:
            reference = propagate_fixpoint(formula)
        assert built
        assert fast == reference
    assert 0 < valid < 150


@pytest.mark.parametrize("cl_avg", [-1, 0])
def test_stitched_and_trimmed_proofs_match_reference(monkeypatch, cl_avg):
    for seed in (1, 2):
        formula, combined = stitched_instance(seed, num_vars=11, depth=3, cl_avg=cl_avg)
        assert assert_same_replay(monkeypatch, formula, combined).valid
        # these trims carry no deletions; test_rat_proofs_match_reference
        # drives the delete path
        trimmed, _ = trim(formula, combined)
        assert assert_same_replay(monkeypatch, formula, trimmed).valid


def test_rat_proofs_match_reference(monkeypatch):
    # RAT lemmas, duplicate clauses, re-added lemmas and deletions, and
    # the trims of them
    kinds = set()
    for formula, proof in rat_corpus():
        trimmed, _ = trim(formula, proof)
        for p in (proof, trimmed):
            assert assert_same_replay(monkeypatch, formula, p).valid
            kinds.update(s.op for s in p)
    assert kinds == {ADD, DELETE}


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


def test_the_long_root_case_matches_reference(monkeypatch):
    # every conflict needs the first literal of a 5,000-literal root chain
    formula, proof = long_root_case()
    report = assert_same_replay(monkeypatch, formula, proof)
    assert report.valid and report.steps_checked == len(proof) == 501


def test_rat_lemmas_are_annotated_with_neighbours(monkeypatch):
    formula = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").formula
    proof = parse_drat("-3 4 0\n-3 5 0\n3 -4 -5 0\n2 0\n0\n")
    report, ann = annotate_refutation(formula, proof, mode=STRICT)
    assert report.valid
    assert [sv.kind for sv in ann[:3]] == ["rat", "rat", "rat"]
    assert _lits(ann[2].rat_neighbors) == ((-3, 4), (-3, 5))
    assert_same_replay(monkeypatch, formula, proof)


# Replays on copied databases: a replay copies the kept database of its
# formula and adds the cube's units. Against a database built from
# scratch over the formula plus those units it must give the same report,
# propagation count included, and the same annotations, in both engines.


def _no_time(report):
    return dataclasses.replace(report, wall_time=0.0)


def _built_from_scratch(formula, cube, record):
    return checker._ClauseDb(instance_at(formula, cube), record=record)


def _cube_replays(formula, proof, cube, mode):
    report = check_refutation(formula, proof, mode=mode, cube=cube)
    annotated, ann = annotate_refutation(formula, proof, mode=mode, cube=cube)
    return _no_time(report), _no_time(annotated), _annotations(ann)


def _fresh_cube_replays(monkeypatch, formula, proof, cube, mode):
    with monkeypatch.context() as m:
        m.setattr(checker, "_database", _built_from_scratch)
        return _cube_replays(formula, proof, cube, mode)


def assert_cube_replay_matches(monkeypatch, formula, proof, cube):
    """Through a copy, in both engines and modes, a replay of proof against
    formula plus the cube's units equals one on a fresh build."""
    instance = instance_at(formula, cube)
    by_engine = []
    for swap in (False, True):
        with reference_engine(monkeypatch) if swap else contextlib.nullcontext() as built:
            for mode in MODES:
                copied = _cube_replays(formula, proof, cube, mode)
                fresh = _fresh_cube_replays(monkeypatch, formula, proof, cube, mode)
                assert copied == fresh, (swap, mode, cube, proof)
                assert _no_time(check_refutation(instance, proof, mode=mode)) == fresh[0]
                by_engine.append(copied)
        assert built is None or built, "the reference engine was never built"
    assert by_engine[:2] == by_engine[2:]
    assert_same_used_sets(monkeypatch, formula, proof, cube)
    return by_engine[0][0]


def _cubes(formula, rng):
    """The empty cube and cubes that reach each way a unit can go in."""
    variables = sorted(formula.variables())
    new = max(variables, default=0) + 1
    cubes = [(), (new,), (-new, new + 1)]  # variables the formula lacks
    units = [c.literals[0] for c in formula.distinct() if len(c) == 1]
    if units:
        unit = rng.choice(units)
        cubes.append((unit,))  # already a unit of the formula
        cubes.append((-unit,))  # against a unit: a root conflict
    if variables:
        picked = rng.sample(variables, min(3, len(variables)))
        cubes.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
        v = rng.choice(variables)
        cubes.append((v, new, v))  # a literal twice
        cubes.append((v, -v))
    return cubes


def _assert_cubes_match(monkeypatch, formula, proof, rng):
    """Checks every cube of _cubes; returns the set of verdicts seen."""
    seen = set()
    for cube in _cubes(formula, rng):
        report = assert_cube_replay_matches(monkeypatch, formula, proof, cube)
        seen.add(report.valid)
    return seen


@pytest.mark.parametrize("case", range(len(HAND_CASES)))
def test_cube_replays_of_hand_cases_match_fresh_builds(monkeypatch, case):
    formula, proof = HAND_CASES[case]
    _assert_cubes_match(monkeypatch, formula, proof, random.Random(case))


def test_cube_replays_of_random_proofs_match_fresh_builds(monkeypatch):
    rng = random.Random(41)
    kinds = set()
    for _, formula, proof in random_proofs():
        units = {c.literals[0] for c in formula.distinct() if len(c) == 1}
        for cube in _cubes(formula, rng):
            assert_cube_replay_matches(monkeypatch, formula, proof, cube)
            if len(cube) == 1 and cube[0] in units:
                kinds.add("unit present")
            if len(cube) == 1 and -cube[0] in units:
                kinds.add("root conflict")
    assert kinds == {"unit present", "root conflict"}


def test_cube_replays_of_fixture_bundles_match_fresh_builds(monkeypatch):
    rng = random.Random(43)
    for seed in (3, 7):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        for entry in bundle_for(formula, 2, seed=seed).entries:
            cube = entry.cube.literals
            assert assert_cube_replay_matches(monkeypatch, formula, entry.refutation, cube).valid
        entry = bundle_for(formula, 2, seed=seed).entries[0]
        _assert_cubes_match(monkeypatch, formula, entry.refutation, rng)


def test_cube_replays_of_stitched_trimmed_and_mutated_proofs_match_fresh_builds(monkeypatch):
    rng = random.Random(47)
    formula, combined = stitched_instance(2, num_vars=11, depth=3)
    trimmed, _ = trim(formula, combined)
    for proof in (combined, trimmed):
        assert True in _assert_cubes_match(monkeypatch, formula, proof, rng)
        for mutated in _mutations(formula, proof, rng).values():
            cube = rng.choice(_cubes(formula, rng))
            assert_cube_replay_matches(monkeypatch, formula, mutated, cube)


def test_a_cube_unit_the_formula_has_leaves_with_its_last_deletion(monkeypatch):
    # the copy holds {1} twice, once from the formula and once from the
    # cube; after both deletions, {2, 1} is neither AT nor RAT
    formula = F((1,), (-2, 3))
    proof = P(("d", 1), ("d", 1), (2, 1), ())
    for mode in MODES:
        report = check_refutation(formula, proof, mode=mode, cube=(1,))
        assert (report.valid, report.failing_step, report.reason) == (False, 3, "not-rat")
    assert_cube_replay_matches(monkeypatch, formula, proof, (1,))


def test_only_deleting_the_reason_of_a_root_literal_rebuilds_the_closure():
    formula, proof = ROOT_REASON_DELETED
    for mode in MODES:
        report = check_refutation(formula, proof, mode=mode, cube=())
        assert (report.valid, report.failing_step, report.reason) == (False, 2, "not-rat")
    formula, proof = CHECK_REASON_DELETED
    undeleted = Refutation(s for s in proof if s.is_add)
    for mode in MODES:
        for cube in ((), (-20,)):
            report = check_refutation(formula, proof, mode=mode, cube=cube)
            assert report.valid
            assert report.propagations == check_refutation(formula, undeleted, cube=cube).propagations


def _sparse_formula():
    big = 10**9
    return F((1, big), (1, -big), (-1, big), (-1, -big))


def test_sparse_huge_variables_match_reference_in_little_memory(monkeypatch):
    # x <-> (a and b) on variables from 2**40 up: two vacuous RAT lemmas,
    # then one whose resolvents with both are tautologies
    x, a, b = 2**40, 2**40 + 1, 2**40 + 2
    proof = P((-x, a), (-x, b), (x, -a, -b), (10**9,), ())
    failing = P((-x, b), (x, a), (10**9,), ())  # the resolvent (a, b) is not AT
    formula = _sparse_formula()
    assert assert_same_replay(monkeypatch, formula, proof).valid
    report = assert_same_replay(monkeypatch, formula, failing)
    assert (report.valid, report.failing_step, report.reason) == (False, 2, "not-rat")
    for p in (proof, failing):
        for cube in ((), (-(2**41),), (2**41, -1)):
            assert_cube_replay_matches(monkeypatch, formula, p, cube)
    _, ann = annotate_refutation(formula, proof)
    assert [sv.kind for sv in ann] == ["rat", "rat", "rat", "at", "at"]

    for mode in MODES:
        for cube in ((), (-(2**41),)):
            formula = _sparse_formula()  # a new object, so its base is built anew
            tracemalloc.start()
            try:
                report = check_refutation(formula, proof, mode=mode, cube=cube)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.valid
            assert peak < 2**20, (mode, cube, peak)


def _database_state(db):
    """What a copy could touch, with literal codes decoded to literals."""

    def literal(code):
        var = db.variables[code >> 1]
        return -var if code & 1 else var

    return (
        list(db.mult.items()),
        list(db.ids.items()),
        list(db.clauses),
        list(db.index.items()),
        [[literal(c) for c in codes] for codes in db.codes],
        [[literal(c) for c in lits] for lits in db.lits],
        {literal(code): list(ws) for code, ws in enumerate(db.watches)},
        {
            literal(code): [(cid, literal(a), literal(b)) for cid, a, b in occ]
            for code, occ in enumerate(db.occurs)
        },
        list(db.stale),
        list(db.watched),
        [(cid, None if code is None else literal(code)) for cid, code in db.short.items()],
        [(literal(c), db.reason[c]) for c in db.trail],
        list(db.value),
        sorted(db.root_reasons),
        db.propagations,
    )


def test_copies_leave_the_kept_base_untouched(monkeypatch):
    formula, combined = stitched_instance(1, num_vars=11, depth=3)
    trimmed, _ = trim(formula, combined)
    cube_a, cube_b = (3, -5), (-3,)
    # deletions of cube units and of an input clause rebuild the copies'
    # closures; the proof goes on as the stitched one
    first = next(iter(formula.distinct()))
    deleted = (Clause((3,)), Clause((-3,)), first)
    rebuilding = Refutation([ProofStep(DELETE, c) for c in deleted] + list(combined))
    other, other_proof = HAND_CASES[4]
    runs = [
        (formula, trimmed, cube_a),
        (other, other_proof, ()),
        (formula, trimmed, cube_b),
        (formula, rebuilding, cube_a),
        (other, other_proof, (2,)),
        (formula, trimmed, cube_a),
        (formula, combined, ()),
        (formula, rebuilding, cube_b),
        (formula, trimmed, cube_b),
    ]
    for swap in (False, True):
        with reference_engine(monkeypatch) if swap else contextlib.nullcontext():
            for mode in MODES:
                for f, proof, cube in runs + runs[::-1]:
                    fresh = _fresh_cube_replays(monkeypatch, f, proof, cube, mode)
                    assert _cube_replays(f, proof, cube, mode) == fresh, (swap, mode, cube)

    check_refutation(formula, trimmed, cube=cube_a)
    kept, base, *_ = checker._base
    assert kept is formula
    before = _database_state(base)
    for f, proof, cube in runs:
        if f is formula:
            for mode in MODES:
                _cube_replays(f, proof, cube, mode)
            checker._root_conflict(f, cube)
            checker._root_conflict(f, cube + (-1, 2))
            assert checker._base[1] is base  # the same formula reuses its base
    assert _database_state(base) == before


def _fresh_root_conflict(formula, cube):
    db = checker._ClauseDb(instance_at(formula, cube), record=True)
    if not db.root_conflict:
        return None
    return tuple(u for u in db.root_used if u < len(formula.counts()))


def test_root_conflicts_match_a_database_built_from_scratch(monkeypatch):
    # formulas with units, so that many closures conflict; each cube is
    # asked after every cube containing it was copied, then on its own
    real = checker._database
    copies = []

    def counted(*args, **kwargs):
        copies.append(args)
        return real(*args, **kwargs)

    rng = random.Random(881)
    conflicts = answered = 0
    for _ in range(200):
        num_vars = rng.randint(3, 7)
        clauses = [
            Clause(rng.choice((v, -v)) for v in rng.sample(range(1, num_vars + 1), width))
            for width in (rng.randint(1, 3) for _ in range(rng.randint(2, 12)))
        ]
        variables = rng.sample(range(1, num_vars + 2), rng.randint(1, 3))
        big = tuple(rng.choice((v, -v)) for v in variables)
        cubes = [big[:k] for k in range(len(big) + 1)] + [big[::-1], big[1:]]
        expected = [_fresh_root_conflict(Formula(clauses), c) for c in cubes]
        for order in (cubes, cubes[::-1]):
            formula = Formula(clauses)  # a new object, so its memo starts empty
            for cube in order:
                checker._database(formula, cube, record=False)
                got = checker._root_conflict(formula, cube)
                assert got == expected[cubes.index(cube)], (clauses, cube)
        formula = Formula(clauses)
        real(formula, big, record=False)
        with monkeypatch.context() as m:
            m.setattr(checker, "_database", counted)
            for cube, want in zip(cubes, expected):
                before = len(copies)
                assert checker._root_conflict(formula, cube) == want, (clauses, cube)
                answered += len(copies) == before  # from the memo, with no copy
        conflicts += sum(want is not None for want in expected)
    assert conflicts > 100 and answered > 100


def test_a_swapped_engine_does_not_reuse_the_kept_base(monkeypatch):
    formula, proof = HAND_CASES[0]
    check_refutation(formula, proof)
    assert type(checker._base[1]) is checker._ClauseDb
    with reference_engine(monkeypatch) as built:
        check_refutation(formula, proof)
        assert type(checker._base[1]) is ReferenceClauseDb
    assert len(built) == 2  # the base, then its extension
    check_refutation(formula, proof)
    assert type(checker._base[1]) is checker._ClauseDb
