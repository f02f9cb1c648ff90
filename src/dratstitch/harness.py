"""Fixture plumbing: a proof-emitting solver, a splitter, and instance generation.

The solver is a small conflict-driven search with first-UIP clause
learning. Every learned clause passes the plain propagation check
against the clauses known when it was learned, so the emitted proof
needs no deletions and no resolution checks.

Its proofs are fixtures: tests and the benchmark's inputs are built
from them, so a change to the solver must leave every proof, model and
budget error byte for byte as it was. The search keeps these rules:

- propagation scans, for each newly false literal, every clause holding
  it in the order the clauses were added (inputs in the formula's order,
  then learned ones), and enqueues a clause's last open literal at once;
- conflict analysis stops at the first unique implication point; the
  learned clause lists the negated implication point first, then the
  lower-level literals in the order the analysis met them;
- a decision draws ``rng.choice`` over the free variables in increasing
  order, then ``rng.random() < 0.5`` for a positive literal;
- every conflict propagation finds, the final one at level 0 included,
  is counted against the budget before it is analysed.

Occurrence lists rather than watched literals keep the first rule: a
watch scheme finds units in another order and would change the proofs.
"""

import random
from dataclasses import dataclass
from itertools import chain, product
from typing import Optional

from .core import ADD, Clause, EMPTY_CLAUSE, Formula, ProofStep, Refutation
from .formats import Cube


class ResourceLimitError(Exception):
    """Conflict budget exhausted; satisfiability unknown."""


class DepthTooLargeError(Exception):
    """Asked to split on more variables than the formula has."""


class GiveUpError(Exception):
    """Random generation did not find a qualifying instance in budget."""


@dataclass(frozen=True)
class SolveOutcome:
    sat: bool
    assignment: Optional[dict] = None  # variable -> bool, total on sat
    refutation: Optional[Refutation] = None  # addition-only proof on unsat


def solve_drup(formula: Formula, seed: int = 0, max_conflicts: int = 100000) -> SolveOutcome:
    """Decide the formula, emitting an addition-only refutation when unsat.

    Deterministic for a given (formula, seed). Raises ResourceLimitError
    when the conflict budget runs out.
    """
    return _Solver(formula, seed, max_conflicts).run()


class _Solver:
    """CDCL search over dense lists.

    Variables are renumbered 1..n in increasing order, n the number of
    distinct variables, so every table is as long as the formula is wide
    and not as its largest variable number. A literal's code keeps its
    sign, and the literal tables have 2n + 1 slots so that a negative
    code indexes from the end: value[-c] is the slot of the complement.
    Formulas whose variables already are 1..n keep their numbers.
    A clause is a sequence of codes; a literal's reason and a conflict
    are such sequences themselves, not indices.
    """

    def __init__(self, formula, seed, max_conflicts):
        self.rng = random.Random(seed)
        self.max_conflicts = max_conflicts
        # the formula's distinct clauses in its order, as codes once renumbered
        self.inputs = clauses = [c.literals for c in formula.distinct()]
        self.empty_input = not all(clauses)
        names = sorted(set(map(abs, chain.from_iterable(clauses))))
        n = len(names)
        if names and names[-1] != n:
            code = {v: i for i, v in enumerate(names, 1)}
            code.update({-v: -i for v, i in code.items()})
            self.inputs = clauses = [tuple(map(code.__getitem__, lits)) for lits in clauses]
        self.literal = [0, *names, *(-v for v in reversed(names))]  # code -> literal
        self.num_vars = n
        self.occ = occ = [[] for _ in range(2 * n + 1)]  # code -> clauses holding it, in order
        for lits in clauses:
            for l in lits:
                occ[l].append(lits)
        self.value = [None] * (2 * n + 1)  # code -> True | False | None
        self.level = [0] * (n + 1)  # variable -> decision level
        self.reason = [None] * (n + 1)  # variable -> implying clause | None
        self.trail = []
        self.decisions = []  # level - 1 -> trail position of its decision
        self.qhead = 0
        self.proof = []  # learned clauses in emission order, asserting literal first

    def _enqueue(self, lit, reason, level):
        self.value[lit] = True
        self.value[-lit] = False
        var = abs(lit)
        self.level[var] = level
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self, level):
        """Scan the clauses of each newly false literal in clause order.

        A clause left with one unassigned literal and no true one
        enqueues it at once, so later clauses of the scan see it set.
        Returns the first clause found false, or None.
        """
        value, occ, trail = self.value, self.occ, self.trail
        level_of, reason = self.level, self.reason
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            for lits in occ[-lit]:
                unassigned = 0
                for m in lits:
                    v = value[m]
                    if v:
                        break
                    if v is None:
                        if unassigned:
                            break
                        unassigned = m
                else:
                    if not unassigned:
                        self.qhead = qhead
                        return lits
                    value[unassigned] = True
                    value[-unassigned] = False
                    var = abs(unassigned)
                    level_of[var] = level
                    reason[var] = lits
                    trail.append(unassigned)
        self.qhead = qhead
        return None

    def _analyze(self, conflict, level):
        """First-UIP conflict clause, pivot first, plus the backjump level."""
        level_of, trail = self.level, self.trail
        seen = set()
        rest = []  # literals from lower decision levels
        counter = 0
        lits = conflict
        idx = len(trail) - 1
        p = 0
        while True:
            for q in lits:
                if q == p:
                    continue
                var = abs(q)
                if var in seen:
                    continue
                lv = level_of[var]
                if lv == 0:
                    continue  # root-implied, rederivable by propagation
                seen.add(var)
                if lv == level:
                    counter += 1
                else:
                    rest.append(q)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            lits = self.reason[abs(p)]
        learned = [-p] + rest
        backjump = max((level_of[abs(q)] for q in rest), default=0)
        return learned, backjump

    def _backjump(self, target):
        """Unassign every literal above level target: the trail's tail,
        since every literal is enqueued at the current level."""
        value, trail = self.value, self.trail
        cut = self.decisions[target]
        del self.decisions[target:]
        for lit in trail[cut:]:
            value[lit] = value[-lit] = None
        del trail[cut:]
        self.qhead = cut

    def _refutation(self):
        decode = self.literal.__getitem__
        steps = [ProofStep(ADD, Clause(map(decode, lits))) for lits in self.proof]
        steps.append(ProofStep(ADD, EMPTY_CLAUSE))
        return SolveOutcome(False, refutation=Refutation(steps))

    def run(self):
        if self.empty_input:
            return self._refutation()
        value = self.value
        for lits in self.inputs:
            if len(lits) == 1:
                v = value[lits[0]]
                if v is False:
                    return self._refutation()
                if v is None:
                    self._enqueue(lits[0], lits, 0)
        n = self.num_vars
        rng = self.rng
        conflicts = 0
        level = 0
        while True:
            conflict = self._propagate(level)
            if conflict is not None:
                conflicts += 1
                if conflicts > self.max_conflicts:
                    raise ResourceLimitError("no verdict within %d conflicts" % self.max_conflicts)
                if level == 0:
                    return self._refutation()
                learned, backjump = self._analyze(conflict, level)
                self.proof.append(learned)
                self._backjump(backjump)
                for l in learned:
                    self.occ[l].append(learned)
                self._enqueue(learned[0], learned, backjump)
                level = backjump
                continue
            if len(self.trail) == n:
                literal = self.literal
                return SolveOutcome(True, assignment={abs(literal[l]): l > 0 for l in self.trail})
            # codes rise with the variables, so this is the sorted free list
            free = [v for v in range(1, n + 1) if value[v] is None]
            var = rng.choice(free)
            lit = var if rng.random() < 0.5 else -var
            self.decisions.append(len(self.trail))
            level += 1
            self._enqueue(lit, None, level)


def split(formula: Formula, depth: int) -> tuple:
    """All 2^depth cubes over the most frequent variables.

    Frequency counts literal occurrences over clause instances; ties go
    to the smaller variable. Cube order enumerates the positive branch
    first at every position.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    counts = {}
    for clause, k in formula.counts():
        for lit in clause.literals:
            var = abs(lit)
            counts[var] = counts.get(var, 0) + k
    if depth > len(counts):
        raise DepthTooLargeError(
            "cannot split %d-variable formula at depth %d" % (len(counts), depth)
        )
    chosen = sorted(counts, key=lambda v: (-counts[v], v))[:depth]
    cubes = []
    for signs in product((1, -1), repeat=depth):
        cubes.append(Cube(tuple(s * v for s, v in zip(signs, chosen))))
    return tuple(cubes)


def gen_random_unsat(
    num_vars: int,
    clause_ratio: float,
    seed: int = 0,
    max_attempts: int = 500,
) -> Formula:
    """Rejection-sample a random 3-CNF until one is unsatisfiable.

    Deterministic for the given arguments. num_vars is capped so results
    stay small enough to cross-check exhaustively.
    """
    if not 1 <= num_vars <= 24:
        raise ValueError("num_vars must be between 1 and 24")
    num_clauses = max(1, round(clause_ratio * num_vars))
    width = min(3, num_vars)
    for attempt in range(max_attempts):
        rng = random.Random(seed * 1000003 + attempt)
        clauses = []
        for _ in range(num_clauses):
            chosen = rng.sample(range(1, num_vars + 1), width)
            clauses.append(Clause(v if rng.random() < 0.5 else -v for v in chosen))
        formula = Formula(clauses)
        try:
            outcome = solve_drup(formula, seed=0)
        except ResourceLimitError:
            continue
        if not outcome.sat:
            return formula
    raise GiveUpError("no unsatisfiable sample within %d attempts" % max_attempts)
