"""Differential tests: the fixture solver against the reference solver.

Each case solves one formula twice, once with harness.solve_drup and once
with tests/helpers.ReferenceSolver, and requires the same outcome: the
same proof steps with every clause's literals in the same order, the same
model with its variables in the same order, or the same budget error.
The corpus holds every formula the benchmark solves while it draws its
workloads, random k-CNF with units, repeated literals, tautologies and
empty clauses, gen_random_unsat instances, and formulas over sparse
variable numbers, each under a small, a medium and the default budget.
"""

import random
import types

import pytest

import dratstitch
from dratstitch import Clause, Formula, ResourceLimitError, gen_random_unsat, solve_drup, split

from helpers import bench_workloads, reference_solve_drup

BUDGETS = (5, 50, 100000)


def outcome(solve, formula, seed, max_conflicts):
    try:
        out = solve(formula, seed=seed, max_conflicts=max_conflicts)
    except ResourceLimitError as e:
        return ("budget", str(e))
    if out.sat:
        assert out.refutation is None
        return ("sat", list(out.assignment.items()))
    assert out.assignment is None
    return ("unsat", [(s.op, s.clause.literals) for s in out.refutation])


def assert_same(formula, seed=0, max_conflicts=100000):
    got = outcome(solve_drup, formula, seed, max_conflicts)
    want = outcome(reference_solve_drup, formula, seed, max_conflicts)
    assert got == want, "seed %d, budget %d: %r" % (seed, max_conflicts, formula)
    return got[0]


def renamed(formula, table):
    def lit(l):
        return table[l] if l > 0 else -table[-l]

    return Formula(Clause(lit(l) for l in c.literals) for c in formula)


def random_kcnf(rng, num_vars, num_clauses, widths=(1, 1, 2, 3, 3, 3, 4, 5)):
    """Clauses of 0 to 5 literals drawn with repetition, so units, repeated
    literals, tautologies and the odd empty clause all occur."""
    clauses = []
    for _ in range(num_clauses):
        width = rng.choice(widths) if rng.random() > 0.01 else 0
        clauses.append(
            Clause(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(width))
        )
    return Formula(clauses)


@pytest.mark.parametrize("smoke", (False, True), ids=("full", "smoke"))
@pytest.mark.parametrize("name", ("stitch-verify", "stitch-trim", "mono-deletions"))
def test_every_solve_of_a_bench_draw_matches_the_reference(name, smoke):
    workloads = bench_workloads()
    workload = workloads.WORKLOADS[name]
    shape = workload.smoke if smoke else workload.shape
    solved = []

    def checked(formula, seed=0, max_conflicts=100000):
        solved.append(assert_same(formula, seed, max_conflicts))
        return solve_drup(formula, seed=seed, max_conflicts=max_conflicts)

    ds = types.SimpleNamespace(**vars(dratstitch))
    ds.solve_drup = checked
    base = workloads.draw_base(ds, shape)
    assert len(solved) >= len(base.leaves) == 2 ** shape.depth


def test_random_kcnf_matches_the_reference():
    rng = random.Random(2024)
    seen = set()
    for case in range(150):
        if case % 3:
            formula = random_kcnf(rng, rng.randint(1, 24), rng.randint(0, 110))
        else:  # near the 3-SAT threshold, where budgets of 5 and 50 run out
            num_vars = rng.randint(20, 40)
            formula = random_kcnf(rng, num_vars, round(4.3 * num_vars), widths=(3, 3, 3, 3, 2, 4))
        for budget in BUDGETS:
            seen.add(assert_same(formula, seed=case, max_conflicts=budget))
    assert seen == {"sat", "unsat", "budget"}


def test_gen_random_unsat_instances_and_their_cubes_match_the_reference():
    for seed in range(12):
        formula = gen_random_unsat(10 + seed, 4.6, seed=seed)
        for budget in BUDGETS:
            assert_same(formula, seed=seed, max_conflicts=budget)
        for i, cube in enumerate(split(formula, 2)):
            sub = formula
            for lit in cube.literals:
                sub = sub.add(Clause((lit,)))
            assert_same(sub, seed=i)


def test_sparse_variable_numbers_match_the_reference():
    rng = random.Random(77)
    kinds = set()
    for case in range(40):
        num_vars = rng.randint(2, 30)
        if case % 2:
            formula = random_kcnf(rng, num_vars, rng.randint(1, 5 * num_vars))
        else:
            formula = random_kcnf(rng, num_vars, round(4.3 * num_vars), widths=(3,))
        # increasing, decreasing and shuffled renamings, up to 10**7
        names = sorted(rng.sample(range(1, 10**7 + 1), num_vars))
        if case % 3 == 1:
            names.reverse()
        elif case % 3 == 2:
            rng.shuffle(names)
        sparse = renamed(formula, dict(zip(range(1, num_vars + 1), names)))
        for budget in BUDGETS:
            kinds.add(assert_same(sparse, seed=case, max_conflicts=budget))
    assert kinds == {"sat", "unsat", "budget"}
    assert assert_same(Formula([Clause((1, 10**7)), Clause((-10**7,))])) == "sat"
    assert assert_same(Formula([Clause((1, 10**7)), Clause((-1,)), Clause((-10**7,))])) == "unsat"
