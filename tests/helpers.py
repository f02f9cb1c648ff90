"""Shared oracles and generators for the test suite.

Everything here is deliberately naive. Truth tables enumerate every
assignment, and the propagation oracle rewrites clause multisets one
unit step at a time, picking the next step at random. The point is to
have slow, obviously-correct references that the fast library code can
be compared against.
"""

import itertools
from collections import Counter

from dratstitch import (
    BundleEntry,
    Clause,
    Formula,
    ProofBundle,
    build_cube_tree,
    combine_all,
    gen_random_unsat,
    solve_drup,
    split,
)


def all_assignments(variables):
    """Yield every total assignment over the given variables as a dict."""
    ordered = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def literal_true(lit, assignment):
    value = assignment[abs(lit)]
    return value if lit > 0 else not value


def satisfies(assignment, formula):
    return all(
        any(literal_true(lit, assignment) for lit in clause.literals)
        for clause in formula.distinct()
    )


def truth_table_unsat(formula):
    """Brute-force unsatisfiability over the formula's own variables."""
    return not any(
        satisfies(assignment, formula)
        for assignment in all_assignments(formula.variables())
    )


def truth_table_entails(formula, clause):
    """Whether every model of the formula satisfies the clause."""
    variables = set(formula.variables()) | {abs(lit) for lit in clause.literals}
    for assignment in all_assignments(variables):
        if satisfies(assignment, formula) and not any(
            literal_true(lit, assignment) for lit in clause.literals
        ):
            return False
    return True


def clause_counts(formula):
    """The formula as a Counter of frozensets, the shape the oracle rewrites."""
    return Counter({frozenset(c.literals): n for c, n in formula.counts()})


def _oracle_step(counts, lit):
    # Drop clauses containing lit, strip -lit from the rest, add the unit.
    after = Counter()
    for clause, n in counts.items():
        if lit in clause:
            continue
        after[clause - {-lit}] += n
    after[frozenset((lit,))] += 1
    return after


def _enabled_literals(counts):
    # lit is enabled when some clause holds it alongside literals whose
    # negations are all present as unit clauses.
    found = set()
    for clause in counts:
        for lit in clause:
            if all(frozenset((-m,)) in counts for m in clause if m != lit):
                found.add(lit)
    return found


def oracle_fixpoint(counts, rng=None):
    """Apply unit steps until none changes the multiset.

    Returns (conflict, final_counts). With an rng the next step is picked
    at random, so repeated runs exercise confluence instead of assuming it.
    Each productive step strictly shrinks the total literal count, which
    bounds the loop.
    """
    counts = Counter(counts)
    while True:
        if frozenset() in counts:
            return True, counts
        productive = []
        for lit in sorted(_enabled_literals(counts)):
            after = _oracle_step(counts, lit)
            if after != counts:
                productive.append(after)
        if not productive:
            return False, counts
        pick = 0 if rng is None else rng.randrange(len(productive))
        counts = productive[pick]


def random_clause(rng, num_vars, width):
    chosen = rng.sample(range(1, num_vars + 1), min(width, num_vars))
    return Clause(v if rng.random() < 0.5 else -v for v in chosen)


def random_formula(rng, num_vars, num_clauses, max_width=3):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        clauses.append(random_clause(rng, num_vars, width))
    return Formula(clauses)


def bundle_for(formula, depth, seed=0):
    """Split the formula and refute every cube with the bundled solver."""
    entries = []
    for cube in split(formula, depth):
        sub = formula
        for lit in cube.literals:
            sub = sub.add(Clause((lit,)))
        outcome = solve_drup(sub, seed=seed)
        assert not outcome.sat, "cube %r left a satisfiable sub-problem" % (cube,)
        entries.append(BundleEntry(cube, outcome.refutation, cube.filename()))
    return ProofBundle(formula, tuple(entries))


def stitched_instance(seed, num_vars=10, depth=2, cl_avg=-1, ratio=5.0):
    """Generate an unsat instance, refute its cubes, and combine them."""
    formula = gen_random_unsat(num_vars, ratio, seed=seed)
    bundle = bundle_for(formula, depth, seed=seed)
    tree = build_cube_tree(bundle)
    return formula, combine_all(formula, tree, cl_avg=cl_avg)


class ReferenceClauseDb:
    """The occurrence-list replay engine the checker used before watched literals.

    Kept as the reference for the differential tests: they swap it in for
    checker._ClauseDb and require identical reports and annotations. Every
    propagation scans the whole occurrence list of the falsified literal and
    walks each clause on it.
    """

    def __init__(self, formula: Formula, record: bool = False):
        self.record = record
        self.mult = dict(formula.counts())
        self.occ = {}  # literal -> {Clause: None}, an ordered set
        self.true_lits = {}  # true literal -> None, ordered
        self.reason = {}  # true literal -> Clause | None (None: assumption)
        self.trail = []
        self.reason_refs = {}  # Clause -> number of root literals it justifies
        self.root_len = 0
        self.root_conflict = False
        self.root_used = ()
        self.propagations = 0
        for clause in self.mult:
            self._index(clause)
        self._rebuild_closure()

    def _index(self, clause):
        for l in clause.literals:
            self.occ.setdefault(l, {})[clause] = None

    def _unindex(self, clause):
        for l in clause.literals:
            del self.occ[l][clause]

    def _rebuild_closure(self):
        self.true_lits.clear()
        self.reason.clear()
        self.trail.clear()
        self.reason_refs.clear()
        self.root_conflict = False
        self.root_used = ()
        empty = None
        pending = []
        for clause in self.mult:
            n = len(clause)
            if n == 0 and empty is None:
                empty = clause
            elif n == 1:
                pending.append((clause.literals[0], clause))
        if empty is not None:
            self.root_conflict = True
            self.root_used = (empty,)
        else:
            conflict, used = self._propagate(pending)
            if conflict:
                self.root_conflict = True
                self.root_used = tuple(used or ())
        self.root_len = len(self.trail)

    def _propagate(self, pending):
        """Assign the pending (literal, reason) pairs and their consequences.

        Returns (conflict, used) where used lists the clause values behind
        the conflict when recording is on.
        """
        queue = list(pending)
        qi = 0
        tl = self.true_lits
        while qi < len(queue):
            lit, reason = queue[qi]
            qi += 1
            if lit in tl:
                continue
            if -lit in tl:
                if not self.record:
                    return True, None
                if reason is not None:
                    return True, self._explain(reason, reason.literals)
                return True, self._explain(None, (lit,))
            tl[lit] = None
            self.reason[lit] = reason
            self.trail.append(lit)
            self.propagations += 1
            if reason is not None:
                self.reason_refs[reason] = self.reason_refs.get(reason, 0) + 1
            watchers = self.occ.get(-lit)
            if not watchers:
                continue
            for clause in list(watchers):
                unassigned = None
                skip = False
                for m in clause.literals:
                    if m in tl:
                        skip = True
                        break
                    if -m in tl:
                        continue
                    if unassigned is None:
                        unassigned = m
                    else:
                        skip = True
                        break
                if skip:
                    continue
                if unassigned is None:
                    if not self.record:
                        return True, None
                    return True, self._explain(clause, clause.literals)
                queue.append((unassigned, clause))
        return False, None

    def _explain(self, falsified, seed_lits):
        """Walk reasons backwards from false literals, collecting used clauses."""
        used = {}
        if falsified is not None:
            used[falsified] = None
        stack = list(seed_lits)
        seen = set(stack)
        while stack:
            m = stack.pop()  # m is false, so -m is on the trail
            r = self.reason.get(-m)
            if r is None or r in used:
                continue
            used[r] = None
            for q in r.literals:
                if q != -m and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return list(used)

    def _undo_to(self, mark):
        while len(self.trail) > mark:
            lit = self.trail.pop()
            del self.true_lits[lit]
            r = self.reason.pop(lit)
            if r is not None:
                left = self.reason_refs[r] - 1
                if left:
                    self.reason_refs[r] = left
                else:
                    del self.reason_refs[r]

    def at_check(self, clause):
        """Does propagating the negated clause literals yield a conflict?"""
        if self.root_conflict:
            return True, (list(self.root_used) if self.record else None)
        conflict, used = self._propagate([(-l, None) for l in clause.literals])
        self._undo_to(self.root_len)
        return conflict, used

    def rat_check(self, clause, pivot):
        """Check every resolvent with alive clauses containing -pivot.

        Callers run the plain at_check fast path first. Returns
        (ok, used, neighbors).
        """
        neighbors = tuple(self.occ.get(-pivot, ()))
        used_all = {} if self.record else None
        for other in neighbors:
            assumptions = {}
            for l in clause.literals:
                assumptions[-l] = None
            for m in other.literals:
                if m != -pivot:
                    assumptions[-m] = None
            conflict, used = self._propagate([(a, None) for a in assumptions])
            self._undo_to(self.root_len)
            if not conflict:
                return False, None, ()
            if self.record:
                for u in used:
                    used_all[u] = None
        return True, (list(used_all) if self.record else None), neighbors

    def add(self, clause):
        count = self.mult.get(clause, 0)
        self.mult[clause] = count + 1
        if count:
            return
        self._index(clause)
        if self.root_conflict:
            return
        if len(clause) == 0:
            self.root_conflict = True
            self.root_used = (clause,)
            return
        unassigned = None
        extra = False
        for m in clause.literals:
            if m in self.true_lits:
                return  # satisfied at root, nothing propagates
            if -m in self.true_lits:
                continue
            if unassigned is None:
                unassigned = m
            else:
                extra = True
                break
        if extra:
            return
        if unassigned is None:
            self.root_conflict = True
            if self.record:
                self.root_used = tuple(self._explain(clause, clause.literals))
            return
        conflict, used = self._propagate([(unassigned, clause)])
        if conflict:
            self.root_conflict = True
            self.root_used = tuple(used or ())
        self.root_len = len(self.trail)

    def remove(self, clause):
        """Drop one instance; returns False when no instance is present."""
        count = self.mult.get(clause, 0)
        if count == 0:
            return False
        if count > 1:
            self.mult[clause] = count - 1
            return True
        del self.mult[clause]
        self._unindex(clause)
        # only these removals can invalidate the root closure
        if self.root_conflict or len(clause) <= 1 or clause in self.reason_refs:
            self._rebuild_closure()
        return True
