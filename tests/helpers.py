"""Shared oracles and generators for the test suite.

Everything here is deliberately naive. Truth tables enumerate every
assignment, and the propagation oracle rewrites clause multisets one
unit step at a time, picking the next step at random. The point is to
have slow, obviously-correct references that the fast library code can
be compared against.
"""

import functools
import importlib
import itertools
import random
import sys
from collections import Counter
from pathlib import Path

from dratstitch import (
    ADD,
    DELETE,
    BundleEntry,
    Clause,
    DimacsCnf,
    EMPTY_CLAUSE,
    Formula,
    MalformedHeaderError,
    MissingTerminatorError,
    NonIntegerTokenError,
    ProofBundle,
    ProofStep,
    Refutation,
    ResourceLimitError,
    SolveOutcome,
    build_cube_tree,
    combine_all,
    gen_random_unsat,
    has_at,
    has_rat,
    solve_drup,
    split,
    stitch,
    trim,
)
from dratstitch import stitcher
from dratstitch.checker import KIND_RAT, STRICT, annotate_refutation
from dratstitch.stitcher import Leaf, StitchRecord, StitchedRefutation
from dratstitch.trimmer import InvalidProofError


def bench_module(name):
    """A module of bench/, imported as it is there."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(bench))


def bench_workloads():
    """bench/workloads.py, which draws and writes the benchmark's inputs."""
    return bench_module("workloads")


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


def random_proofs():
    """150 random formulas, each with a random proof and the rng that drew it.

    The proofs are mostly invalid: random lemmas and deletions."""
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
        yield rng, formula, Refutation(steps)


def instance_at(formula, cube):
    """The formula plus one unit clause per cube literal, built out."""
    out = formula
    for lit in cube:
        out = out.add(Clause((lit,)))
    return out


def bundle_for(formula, depth, seed=0):
    """Split the formula and refute every cube with the bundled solver."""
    entries = []
    for cube in split(formula, depth):
        outcome = solve_drup(instance_at(formula, cube), seed=seed)
        assert not outcome.sat, "cube %r left a satisfiable sub-problem" % (cube,)
        entries.append(BundleEntry(cube, outcome.refutation, cube.filename()))
    return ProofBundle(formula, tuple(entries))


def stitched_instance(seed, num_vars=10, depth=2, cl_avg=-1, ratio=5.0):
    """Generate an unsat instance, refute its cubes, and combine them."""
    formula = gen_random_unsat(num_vars, ratio, seed=seed)
    bundle = bundle_for(formula, depth, seed=seed)
    tree = build_cube_tree(bundle)
    return formula, combine_all(formula, tree, cl_avg=cl_avg)


class ReferenceSolver:
    """The fixture solver as it was before its tables became dense lists.

    Kept as the reference for tests/test_solver_differential.py, which
    requires the harness solver to give the same proofs, models and
    budget errors. Every table is a dict keyed by variable or literal,
    and every literal's value is read through _value.
    """

    def __init__(self, formula, seed, max_conflicts):
        self.rng = random.Random(seed)
        self.max_conflicts = max_conflicts
        self.clauses = []  # literal lists; inputs first, then learned
        self.occ = {}  # literal -> clause indices containing it
        self.empty_input = False
        for c in formula.distinct():
            if len(c) == 0:
                self.empty_input = True
            self._attach(list(c.literals))
        self.vars = sorted({abs(l) for c in formula.distinct() for l in c.literals})
        self.assign = {}  # var -> bool
        self.level = {}
        self.reason = {}  # var -> clause index | None for decisions
        self.trail = []
        self.qhead = 0
        self.proof = []  # learned clauses in emission order

    def _attach(self, lits):
        idx = len(self.clauses)
        self.clauses.append(lits)
        for l in lits:
            self.occ.setdefault(l, []).append(idx)
        return idx

    def _value(self, lit):
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v == (lit > 0)

    def _enqueue(self, lit, reason_idx, level):
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = level
        self.reason[var] = reason_idx
        self.trail.append(lit)

    def _propagate(self, level):
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            for ci in self.occ.get(-lit, ()):
                lits = self.clauses[ci]
                unassigned = None
                skip = False
                for m in lits:
                    v = self._value(m)
                    if v is True:
                        skip = True
                        break
                    if v is None:
                        if unassigned is None:
                            unassigned = m
                        else:
                            skip = True
                            break
                if skip:
                    continue
                if unassigned is None:
                    return ci
                self._enqueue(unassigned, ci, level)
        return None

    def _analyze(self, conflict_ci, level):
        """First-UIP conflict clause, pivot first, plus the backjump level."""
        seen = set()
        rest = []  # literals from lower decision levels
        counter = 0
        lits = self.clauses[conflict_ci]
        idx = len(self.trail) - 1
        p = None
        while True:
            for q in lits:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if var in seen:
                    continue
                lv = self.level[var]
                if lv == 0:
                    continue  # root-implied, rederivable by propagation
                seen.add(var)
                if lv == level:
                    counter += 1
                else:
                    rest.append(q)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            lits = self.clauses[self.reason[abs(p)]]
        learned = [-p] + rest
        backjump = max((self.level[abs(q)] for q in rest), default=0)
        return learned, backjump

    def _backjump(self, target):
        while self.trail and self.level[abs(self.trail[-1])] > target:
            lit = self.trail.pop()
            var = abs(lit)
            del self.assign[var]
            del self.level[var]
            del self.reason[var]
        self.qhead = len(self.trail)

    def _refutation(self):
        steps = [ProofStep(ADD, Clause(lits)) for lits in self.proof]
        steps.append(ProofStep(ADD, EMPTY_CLAUSE))
        return SolveOutcome(False, refutation=Refutation(steps))

    def run(self):
        if self.empty_input:
            return self._refutation()
        for ci, lits in enumerate(self.clauses):
            if len(lits) == 1:
                v = self._value(lits[0])
                if v is False:
                    return self._refutation()
                if v is None:
                    self._enqueue(lits[0], ci, 0)
        conflicts = 0
        level = 0
        while True:
            conflict_ci = self._propagate(level)
            if conflict_ci is not None:
                conflicts += 1
                if conflicts > self.max_conflicts:
                    raise ResourceLimitError("no verdict within %d conflicts" % self.max_conflicts)
                if level == 0:
                    return self._refutation()
                learned, backjump = self._analyze(conflict_ci, level)
                self.proof.append(learned)
                self._backjump(backjump)
                ci = self._attach(learned)
                self._enqueue(learned[0], ci, backjump)
                level = backjump
                continue
            if len(self.assign) == len(self.vars):
                return SolveOutcome(True, assignment=dict(self.assign))
            free = [v for v in self.vars if v not in self.assign]
            var = self.rng.choice(free)
            lit = var if self.rng.random() < 0.5 else -var
            level += 1
            self._enqueue(lit, None, level)


def reference_solve_drup(formula, seed=0, max_conflicts=100000):
    return ReferenceSolver(formula, seed, max_conflicts).run()


# The parsers as they were before they read a line at a time: each builds a
# list of every token of its input first. Kept verbatim as the reference
# for the parser differential in test_formats.py.


def _reference_text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        return data.decode("utf-8")
    return data


def _reference_content_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield line


def reference_parse_dimacs(data) -> DimacsCnf:
    text = _reference_text(data)
    header = None
    tokens = []
    for line in _reference_content_lines(text):
        if header is None:
            parts = line.split()
            if parts[0] != "p" or len(parts) != 4 or parts[1] != "cnf":
                raise MalformedHeaderError("expected 'p cnf <vars> <clauses>', got: %s" % line)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise MalformedHeaderError("non-numeric header counts: %s" % line) from None
            continue
        if line == "%":
            break
        tokens.extend(line.split())
    if header is None:
        raise MalformedHeaderError("no 'p cnf' header found")

    clauses = []
    dupes = 0
    current = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise NonIntegerTokenError("bad token %r in clause data" % tok) from None
        if lit == 0:
            clause = Clause(current)
            dupes += len(current) - len(clause)
            clauses.append(clause)
            current = []
        else:
            current.append(lit)
    if current:
        raise MissingTerminatorError("end of input inside a clause: %s" % current)
    return DimacsCnf(Formula(clauses), header[0], header[1], dupes)


def reference_parse_drat(data) -> Refutation:
    text = _reference_text(data)
    tokens = []
    for line in _reference_content_lines(text):
        tokens.extend(line.split())

    steps = []
    op = ADD
    current = None  # None means we are at a clause boundary
    for tok in tokens:
        if current is None:
            if tok == "d":
                op = DELETE
                current = []
                continue
            op = ADD
            current = []
        try:
            lit = int(tok)
        except ValueError:
            raise NonIntegerTokenError("bad token %r in proof data" % tok) from None
        if lit == 0:
            steps.append(ProofStep(op, Clause(current)))
            current = None
        else:
            current.append(lit)
    if current is not None:
        raise MissingTerminatorError("end of input inside a proof clause")
    return Refutation(steps)


class ReferenceClauseDb:
    """The occurrence-list replay engine the checker used before watched literals.

    Kept as the reference for the differential tests: they swap it in for
    checker._ClauseDb and require identical reports and annotations. Every
    propagation scans the whole occurrence list of the falsified literal and
    walks each clause on it. Conflict derivations are collected as clause
    values and handed out as ids from this engine's own id table.
    """

    def __init__(self, formula: Formula, record: bool = False):
        self.formula = formula
        self.record = record
        self.mult = dict(formula.counts())
        self.ids = {}  # alive clause value -> id, issued when its count leaves 0
        self.clauses = []  # id -> Clause
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

    def extended(self, cube, record=False):
        """A new engine built from scratch over the formula plus cube's units."""
        formula = self.formula
        for lit in cube:
            formula = formula.add(Clause((lit,)))
        return ReferenceClauseDb(formula, record)

    def _index(self, clause):
        self.ids[clause] = len(self.clauses)
        self.clauses.append(clause)
        for l in clause.literals:
            self.occ.setdefault(l, {})[clause] = None

    def _unindex(self, clause):
        del self.ids[clause]
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
            self.root_used = (self.ids[empty],)
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
        """Walk reasons backwards from false literals, collecting used
        clauses; returns their ids."""
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
        return [self.ids[c] for c in used]

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
            self.root_used = (self.ids[clause],)
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


class ReferenceAnalysis:
    """The trimmer's analysis as it was before it charged uses to clause ids.

    It replays the clause multiset a second time, numbering every clause
    instance, and charges each use to the oldest alive instance of its
    value, deleting the youngest first. Kept as the reference for the
    trim differential tests: they swap it in for the trimmer's replay
    source and require the same trimmed bytes and the same core
    multiset, once the cube units the formula lacks are dropped. The
    proof refutes the formula plus one unit clause per cube literal; the
    original instances are that instance's.
    """

    used = ()  # it names no hints; the differentials compare bytes and cores

    def __init__(self, formula, refutation, mode, cube=()):
        report, ann = annotate_refutation(formula, refutation, mode, cube=cube)
        if not report.valid:
            raise InvalidProofError("input proof is %s" % report.failure_text())
        self.ann = ann

        # Replay the clause multiset structurally, giving every clause
        # instance an id so dependencies can be attributed to the oldest
        # alive instance of each value.
        alive = {}  # clause value -> [instance ids], oldest first
        inst_clause = {}
        next_id = 0
        self.phi_ids = {}  # clause value -> ids of original instances
        for lit in cube:
            formula = formula.add(Clause((lit,)))
        for clause, k in formula.counts():
            for _ in range(k):
                alive.setdefault(clause, []).append(next_id)
                inst_clause[next_id] = clause
                self.phi_ids.setdefault(clause, []).append(next_id)
                next_id += 1
        self.n_phi = next_id

        self.deps = {}  # add step index -> instance ids its checks consumed
        self.uses = {}  # instance id -> [add step indices that consumed it]
        self.birth = {}  # instance id (added) -> add step index
        self.rat = {}  # RAT step -> its neighbours
        self.applied_delete_values = set()

        for sv in ann:
            if sv.op == ADD:
                dep_ids = []
                for value in sv.used:
                    ids = alive.get(value)
                    assert ids, "checker used a dead clause value"
                    dep_ids.append(ids[0])
                if sv.kind == KIND_RAT:
                    self.rat[sv.index] = sv.rat_neighbors
                    for value in sv.rat_neighbors:
                        dep_ids.extend(alive.get(value, ()))
                deps = []
                seen = set()
                for iid in dep_ids:
                    if iid not in seen:
                        seen.add(iid)
                        deps.append(iid)
                        self.uses.setdefault(iid, []).append(sv.index)
                self.deps[sv.index] = deps
                alive.setdefault(sv.clause, []).append(next_id)
                inst_clause[next_id] = sv.clause
                self.birth[next_id] = sv.index
                next_id += 1
            elif sv.applied:
                alive[sv.clause].pop()  # youngest instance dies first
                self.applied_delete_values.add(sv.clause)

        self.inst_clause = inst_clause
        self._mark()

    def _mark(self):
        final = self.ann[-1]
        assert final.op == ADD and len(final.clause) == 0
        self.final_index = final.index
        marked_steps = {final.index}
        marked_instances = set()

        if self.rat:
            # deletions stay, so additions of deleted values must stay too
            for sv in self.ann:
                if sv.op == ADD and sv.clause in self.applied_delete_values:
                    marked_steps.add(sv.index)
            for value in self.applied_delete_values:
                marked_instances.update(self.phi_ids.get(value, ()))

        for sv in reversed(self.ann):
            if sv.op != ADD or sv.index not in marked_steps:
                continue
            for iid in self.deps[sv.index]:
                if iid in marked_instances:
                    continue
                marked_instances.add(iid)
                if iid >= self.n_phi:
                    marked_steps.add(self.birth[iid])

        self.marked_steps = marked_steps
        self.marked_instances = marked_instances

    def marked_adds(self):
        return [
            ProofStep(ADD, sv.clause)
            for sv in self.ann
            if sv.op == ADD and sv.index in self.marked_steps
        ]

    def kept_steps(self):
        """RAT-conservative output: marked adds plus all applied deletions."""
        out = []
        for sv in self.ann:
            if sv.op == ADD:
                if sv.index in self.marked_steps:
                    out.append(ProofStep(ADD, sv.clause))
            elif sv.applied:
                out.append(ProofStep(DELETE, sv.clause))
        return out

    def emit(self):
        """The next fixpoint candidate: kept_steps with RAT steps, else marked_adds."""
        return self.kept_steps() if self.rat else self.marked_adds()

    def _deletions(self):
        """One deletion event per kept non-original clause, right after its
        last marked use."""
        events = []
        for iid in sorted(self.marked_instances):
            if iid < self.n_phi:
                continue
            last = max(
                (u for u in self.uses.get(iid, ()) if u in self.marked_steps),
                default=None,
            )
            if last is None or last >= self.final_index:
                continue  # deleting after the final empty clause is dead weight
            events.append((last, 1, iid, ProofStep(DELETE, self.inst_clause[iid])))
        return events

    def deletion_count(self):
        """How many deletions with_deletions places."""
        return len(self._deletions())

    def with_deletions(self):
        """Marked adds interleaved with one deletion per kept non-original
        clause, placed right after its last marked use; None when there is
        nothing to delete."""
        deletions = self._deletions()
        if not deletions:
            return None
        events = []
        for sv in self.ann:
            if sv.op == ADD and sv.index in self.marked_steps:
                events.append((sv.index, 0, 0, ProofStep(ADD, sv.clause)))
        events += deletions
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return [step for *_, step in events]

    def core(self) -> Formula:
        counts = Counter()
        for iid in self.marked_instances:
            if iid < self.n_phi:
                counts[self.inst_clause[iid]] += 1
        return Formula.from_counts(counts.items())


def reference_as_hinted(formula, cube, annotations):
    """A record-mode replay of a proof of formula plus cube's units, as a
    hint check of it gives its outcome: (steps, needed, rat, applied).

    The checker's own conversion of annotate_refutation's annotations
    before it built the record from the replay itself; kept as the
    reference that checker._hint_record is compared against.

    steps are the judged steps less the deletions the replay skipped,
    which removed nothing. needed holds per step the ids its check used,
    named as check_refutation's hints name them for steps against the
    formula: a formula clause keeps its id, a cube unit the formula
    lacks is left out, and a lemma is named by the step that made its
    value live, n_formula + i - 1 for step i. rat maps each addition
    that passed only as RAT to its neighbours' values, and applied
    holds the numbers of the deletions, all of which removed a clause.
    """
    n_formula = len(formula.counts())
    n_instance = n_formula + len({l for l in cube if Clause((l,)) not in formula})
    named = {}  # engine id of a lemma value -> the hint id of the step that made it live
    steps, needed, rat, applied = [], [], {}, set()
    for sv in annotations:
        if not sv.applied:
            continue
        steps.append(ProofStep(sv.op, sv.clause))
        i = len(steps)
        if sv.op != ADD:
            needed.append(())
            applied.add(i)
            continue
        needed.append(
            tuple(
                u if u < n_formula else named[u]
                for u in sv.used_ids
                if not n_formula <= u < n_instance
            )
        )
        if sv.kind == KIND_RAT:
            rat[i] = sv.rat_neighbors
        if sv.clause_id is not None and sv.clause_id >= n_instance:
            named.setdefault(sv.clause_id, n_formula + i - 1)
    return steps, needed, rat, applied


def rat_proof(seed):
    """A seeded unsat formula with duplicate clauses and a valid refutation
    of it that has RAT lemmas, re-added lemmas and deletions.

    The formula is a gen_random_unsat instance with a few clauses doubled.
    The proof opens with random lemmas over its variables and two extra
    ones, each kept only if it is AT or RAT on its first literal, mixed
    with re-additions of live lemmas and with deletions, each kept only
    if solve_drup still refutes what is left. A solve_drup refutation of
    the final database closes it. Returns (formula, refutation).
    """
    rng = random.Random(seed)
    num_vars = rng.randint(4, 7)
    base = gen_random_unsat(num_vars, 5.0, seed=seed)
    distinct = list(base.distinct())
    formula = Formula(list(base) + rng.sample(distinct, rng.randint(1, 3)))
    db = formula
    lemmas = []  # alive lemma values, one entry per instance
    steps = []
    for _ in range(rng.randint(4, 12)):
        r = rng.random()
        if r < 0.5:
            lemma = random_clause(rng, num_vars + 2, rng.randint(1, 3))
            if rng.random() < 0.5:
                extra = rng.choice((num_vars + 1, num_vars + 2))
                lemma = Clause((rng.choice((extra, -extra)),) + lemma.literals)
            if not (has_at(db, lemma) or has_rat(db, lemma, lemma.pivot)):
                continue
        elif r < 0.65 and lemmas:
            lemma = rng.choice(lemmas)
        else:
            victim = rng.choice(list(db))
            rest = db.remove(victim)
            if solve_drup(rest, seed=seed).sat:
                continue
            steps.append(ProofStep(DELETE, victim))
            if victim in lemmas:
                lemmas.remove(victim)
            db = rest
            continue
        steps.append(ProofStep(ADD, lemma))
        lemmas.append(lemma)
        db = db.add(lemma)
    steps.extend(solve_drup(db, seed=seed).refutation)
    return formula, Refutation(steps)


@functools.lru_cache(maxsize=None)
def rat_corpus():
    """rat_proof for seeds 0 to 399, built once and shared by the tests."""
    return tuple(rat_proof(seed) for seed in range(400))


def last_use_deletion_proof(seed):
    """A solve_drup refutation of a seeded gen_random_unsat instance, with
    each lemma deleted right after the last step whose check used it.

    Uses come from annotate_refutation's ``used``; a lemma nothing uses is
    deleted right after its addition, and nothing follows the final empty
    clause. Deleting after the last use leaves every check's derivation
    intact, so the proof stays valid in strict mode too. It has no RAT
    steps. Returns (formula, refutation).
    """
    rng = random.Random(seed)
    formula = gen_random_unsat(rng.randint(12, 20), 5.0, seed=seed)
    proof = solve_drup(formula, seed=seed).refutation
    _, annotations = annotate_refutation(formula, proof)
    inputs = set(formula.distinct())
    last = {}  # lemma value -> index of its last use (or of its addition)
    for sv in annotations:
        if sv.op == ADD and sv.clause not in inputs:
            last.setdefault(sv.clause, sv.index)
        for value in sv.used:
            if value in last:
                last[value] = sv.index
    after = {}  # step index -> the lemmas deleted right after it
    for value, index in last.items():
        if index < len(proof):
            after.setdefault(index, []).append(value)
    steps = []
    for index, step in enumerate(proof, 1):
        steps.append(step)
        steps.extend(ProofStep(DELETE, value) for value in after.get(index, ()))
    return formula, Refutation(steps)


@functools.lru_cache(maxsize=None)
def last_use_corpus():
    """last_use_deletion_proof for seeds 0 to 99, built once and shared."""
    return tuple(last_use_deletion_proof(seed) for seed in range(100))


def eager_combine_all(formula, tree, cl_avg=-1, validate=True, mode=STRICT, on_record=None):
    """combine_all as it was before merges were composed lazily: every
    merge builds its proof with stitch() right away, and is trimmed, when
    the gate fires, by the same trim call. Kept as the reference that
    combine_all must match in steps, hints and records (timings aside).

    With validate off no leaf is replayed, there are no hints, and every
    trimmed merge is trimmed by replay: the reference for the hint trims'
    sizes."""
    n_formula = len(formula.counts())
    leaves = {}
    for leaf, path in stitcher._leaves(tree):
        proof = stitcher._through_empty_clause(leaf.refutation)
        hints, rat = None, ()
        if validate:
            hints, rat, skipped = stitcher._leaf_outcome(
                formula, path, proof, "cube %s" % leaf.cube.filename(), mode
            )
            # the deletions the check skipped removed nothing, but could once widened
            proof = Refutation(step for i, step in enumerate(proof, 1) if i not in skipped)
        leaves[path] = proof, hints, rat

    def shift(hints, by):
        return [tuple(h + by if h >= n_formula else h for h in ids) for ids in hints]

    def merge(node, path):
        if isinstance(node, Leaf):
            return leaves[path]
        pos_ref, pos_hints, pos_fresh = merge(node.pos_child, path + (node.var,))
        neg_ref, neg_hints, neg_fresh = merge(node.neg_child, path + (-node.var,))
        merged = stitch(formula, node.var, pos_ref, neg_ref, validate=False)
        adds = [step.clause for step in merged if step.is_add]
        total = sum(map(len, adds))
        wants_trim = cl_avg >= 0 and total > cl_avg * len(adds)
        fresh = pos_fresh + tuple(i + len(pos_ref) for i in neg_fresh) + (len(merged),)
        hints = None
        if validate:
            # step k's id is n_formula + k - 1; the children's final
            # clauses are steps len(pos_ref) and len(merged) - 1
            neg_hints = shift(neg_hints, len(pos_ref))
            final = (n_formula + len(merged) - 2,) if cl_avg < 0 else neg_hints[-1]
            hints = pos_hints + neg_hints + [(n_formula + len(pos_ref) - 1,) + final]
        out = merged
        if wants_trim:
            if validate:
                judged = set(range(1, len(merged) + 1)).difference(fresh)
                out, report = trim(formula, merged, cube=path, hints=hints, _judged=judged)
                hints = list(report.hints)
            else:
                out, report = trim(formula, merged, cube=path)
            fresh = report.rat_steps
        if on_record is not None:
            on_record(
                StitchRecord(
                    depth=len(path),
                    path=path,
                    var=node.var,
                    add_count=len(adds),
                    add_literal_total=total,
                    average_clause_length=total / len(adds),
                    trimmed=wants_trim,
                    steps_before=len(merged),
                    steps_after=len(out),
                    merge_seconds=0.0,
                    trim_seconds=0.0,
                )
            )
        return out, hints, fresh

    combined, hints, _ = merge(tree, ())
    return StitchedRefutation(combined, hints)
