"""Bundled CDCL solver, cube splitting, and unsat instance generation."""

import hashlib
import random
import tracemalloc

import pytest

from dratstitch import (
    Clause,
    Cube,
    DepthTooLargeError,
    Formula,
    GiveUpError,
    ResourceLimitError,
    check_refutation,
    gen_random_unsat,
    is_preserving,
    solve_drup,
    split,
    write_drat,
)
from dratstitch.checker import STRICT

from helpers import random_formula, satisfies, truth_table_unsat


def F(*clauses):
    return Formula(Clause(c) for c in clauses)


# ------------------------------------------------------------------- solving


def test_solve_trivial_conflict():
    out = solve_drup(F((1,), (-1,)))
    assert not out.sat
    assert out.assignment is None
    assert all(s.is_add for s in out.refutation)
    assert check_refutation(F((1,), (-1,)), out.refutation, mode=STRICT).valid


def test_solve_sat_returns_model():
    out = solve_drup(F((1, 2),))
    assert out.sat
    assert out.refutation is None
    assert satisfies(out.assignment, F((1, 2),))


def test_solve_sat_three_clauses():
    f = F((-1,), (2, 3), (-2, 3))
    out = solve_drup(f)
    assert out.sat
    assert satisfies(out.assignment, f)


def test_solve_empty_formula_is_sat():
    assert solve_drup(Formula()).sat


def test_solve_formula_with_empty_clause():
    out = solve_drup(F(()))
    assert not out.sat
    assert check_refutation(F(()), out.refutation, mode=STRICT).valid


def test_solve_needs_search():
    # no unit clauses, so the refutation must come from learned clauses
    f = F((1, 2), (1, -2), (-1, 2), (-1, -2))
    out = solve_drup(f)
    assert not out.sat
    assert len(out.refutation) >= 2
    assert check_refutation(f, out.refutation, mode=STRICT).valid
    assert is_preserving(out.refutation)


def test_solve_is_deterministic_per_seed():
    f = gen_random_unsat(8, 5.0, seed=5)
    first = solve_drup(f, seed=3)
    second = solve_drup(f, seed=3)
    assert first.refutation == second.refutation


def test_solve_agrees_with_truth_tables():
    rng = random.Random(201)
    unsat_seen = 0
    for case in range(300):
        f = random_formula(rng, rng.randint(1, 6), rng.randint(1, 14))
        expected_unsat = truth_table_unsat(f)
        out = solve_drup(f, seed=case)
        assert out.sat != expected_unsat, "case %d: %r" % (case, f)
        if out.sat:
            assert satisfies(out.assignment, f)
            assert set(out.assignment) == f.variables()
        else:
            unsat_seen += 1
            assert all(s.is_add for s in out.refutation)
            assert out.refutation.steps[-1].clause == Clause(())
            report = check_refutation(f, out.refutation, mode=STRICT)
            assert report.valid, "case %d failed at %s" % (case, report.failing_step)
    assert unsat_seen > 50


def test_solve_conflict_budget():
    f = gen_random_unsat(12, 4.5, seed=9)
    with pytest.raises(ResourceLimitError):
        solve_drup(f, max_conflicts=1)


def _three_cnf(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    return Formula(
        Clause(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses)
    )


def _spread(formula, scale):
    return Formula(Clause((abs(l) * scale + 7) * (1 if l > 0 else -1) for l in c) for c in formula)


def _with_cube(formula, depth, index):
    cube = split(formula, depth)[index]
    return Formula(list(formula) + [Clause((l,)) for l in cube.literals])


@pytest.mark.parametrize(
    "formula, seed, size, digest",
    [
        (
            lambda: gen_random_unsat(12, 4.5, seed=9), 0, 8,
            "72cd58631443c2ab6971cf626c379c26170b8f1c1e83eeb2d64e23d17fc4cf7a",
        ),
        (
            lambda: _spread(gen_random_unsat(16, 5.0, seed=1), 1009), 5, 12,
            "2031e8f7d5fdd84554fadb8b8bbd71d39d22658342476264cc80c881f24cecc1",
        ),
        (
            lambda: _with_cube(_three_cnf(60, 276, 11), 3, 5), 6, 3,
            "8cfdb460871935233220174fe702c613473bb1e154314e8461d2b609e5f6a25d",
        ),
        (
            lambda: _three_cnf(60, 276, 11), 4, 277,
            "cb856de9ba4089546413e2f70eafab79021b130d4b0491e09dfd14d7e323e772",
        ),
        (
            lambda: _three_cnf(50, 150, 3), 1, 50,
            "a90181f1de4fb4a4ec55e5a9815e62bdeb5fd52301579e4f8de86512f241efe7",
        ),
    ],
    ids=["gen", "spread", "cube", "mono", "sat"],
)
def test_solve_outcomes_are_pinned(formula, seed, size, digest):
    """Byte digests of fixed outcomes: the proof as DRAT text, or the
    model as var=value pairs in the order the dict gives them."""
    out = solve_drup(formula(), seed=seed)
    if out.sat:
        assert len(out.assignment) == size
        text = " ".join("%d=%d" % (v, b) for v, b in out.assignment.items())
    else:
        assert len(out.refutation) == size
        text = write_drat(out.refutation)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_solve_memory_follows_the_distinct_variables_not_their_numbers():
    f = F((1, 10**7), (1, -10**7), (-1, 10**7), (-1, -10**7))
    solve_drup(f)  # warm
    tracemalloc.start()
    try:
        out = solve_drup(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not out.sat
    # a table indexed by variable number would take 80 MB for 10**7 slots
    assert peak < 64 * 1024


# ------------------------------------------------------------------ splitting


def test_split_depth_one_prefers_frequent_then_small():
    f = F((1, 2), (1, 2), (3,))
    assert split(f, 1) == (Cube((1,)), Cube((-1,)))


def test_split_counts_clause_multiplicity():
    f = Formula([Clause((3,))] * 3 + [Clause((1, 2))])
    assert split(f, 1) == (Cube((3,)), Cube((-3,)))


def test_split_depth_two_orders_positive_first():
    f = F((1, 2), (1, 2), (3,))
    assert split(f, 2) == (
        Cube((1, 2)),
        Cube((1, -2)),
        Cube((-1, 2)),
        Cube((-1, -2)),
    )


def test_split_size_and_partition_shape():
    f = gen_random_unsat(8, 5.0, seed=13)
    for depth in (1, 2, 3):
        cubes = split(f, depth)
        assert len(cubes) == 2 ** depth
        assert len(set(cubes)) == len(cubes)
        # same variables in the same order on every branch
        variable_rows = {tuple(abs(l) for l in c.literals) for c in cubes}
        assert len(variable_rows) == 1
        # every sign combination appears exactly once
        signs = {tuple(l > 0 for l in c.literals) for c in cubes}
        assert len(signs) == len(cubes)


def test_split_rejects_bad_depth():
    f = F((1, 2), (3,))
    with pytest.raises(ValueError):
        split(f, 0)
    with pytest.raises(DepthTooLargeError):
        split(f, 4)  # only three variables occur


def test_split_counts_occurring_variables_only():
    f = F((1,), (1,))
    assert split(f, 1) == (Cube((1,)), Cube((-1,)))
    with pytest.raises(DepthTooLargeError):
        split(f, 2)


# ----------------------------------------------------------------- generation


def test_gen_random_unsat_is_deterministic():
    a = gen_random_unsat(8, 5.0, seed=17)
    b = gen_random_unsat(8, 5.0, seed=17)
    assert a == b
    assert gen_random_unsat(8, 5.0, seed=18) != a


def test_gen_random_unsat_is_actually_unsat():
    for seed in range(5):
        f = gen_random_unsat(7, 5.0, seed=seed)
        assert truth_table_unsat(f)


def test_gen_random_unsat_shape():
    f = gen_random_unsat(10, 5.0, seed=19)
    assert len(f) == 50
    assert f.variables() <= set(range(1, 11))
    for clause in f.distinct():
        assert len(clause) == 3
        assert len({abs(l) for l in clause.literals}) == 3


def test_gen_random_unsat_small_widths():
    f = gen_random_unsat(2, 3.0, seed=2)
    for clause in f.distinct():
        assert len(clause) == 2
    assert truth_table_unsat(f)


def test_gen_random_unsat_bounds():
    with pytest.raises(ValueError):
        gen_random_unsat(0, 5.0)
    with pytest.raises(ValueError):
        gen_random_unsat(25, 5.0)


def test_gen_random_unsat_gives_up():
    # 20 sparse clauses over 20 variables: satisfiable, so one attempt fails
    with pytest.raises(GiveUpError):
        gen_random_unsat(20, 1.0, seed=0, max_attempts=1)


def test_gen_solver_pipeline_round_trip():
    rng = random.Random(211)
    for _ in range(30):
        f = gen_random_unsat(rng.randint(5, 9), 5.0, seed=rng.randint(0, 10**6))
        out = solve_drup(f)
        assert not out.sat
        assert check_refutation(f, out.refutation, mode=STRICT).valid
