"""Unit propagation, redundancy checks, and proof replay.

The replay engine keeps the clause database under integer ids with two
watched literals per clause and maintains the root unit-propagation
closure incrementally: clause additions extend it, deletions rebuild it
only when they can actually shrink it (the deleted clause was empty, a
unit, or a propagation reason). Redundancy checks push assumption
literals on top of the root closure and undo them afterwards, so one
check costs propagation work proportional to what it derives, not to
the database size.

Deletions are applied as written, unit clauses included: this is
"specified DRAT". drat-trim by default ignores unit deletions
("operational DRAT"; Rebola-Pardo and Biere, "Two flavors of DRAT",
POS 2018), so a proof that relies on a deleted unit staying in force
is valid there and invalid here.
"""

import logging
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import ADD, DELETE, Clause, Formula, Refutation

log = logging.getLogger(__name__)

STRICT = "strict"
PERMISSIVE = "permissive"

NOT_AT = "not-at"
NOT_RAT = "not-rat"
MISSING_EMPTY_CLAUSE = "missing-empty-clause"
DELETION_ABSENT = "deletion-absent"

KIND_AT = "at"
KIND_RAT = "rat"
KIND_DELETE = "delete"


class PivotNotInClauseError(Exception):
    """The requested resolution pivot does not occur in the clause."""


class NotUnitError(Exception):
    """No clause enables a single propagation step on the given literal."""


@dataclass(frozen=True)
class PropagationOutcome:
    """Result of running unit propagation to its fixpoint."""

    conflict: bool
    formula: Optional[Formula] = None  # fixpoint formula; None iff conflict


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    failing_step: Optional[int] = None  # 1-based index of the failing step
    reason: Optional[str] = None
    steps_checked: int = 0
    propagations: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class StepVerdict:
    """Replay annotation for one proof step (consumed by the trimmer)."""

    index: int  # 1-based position in the refutation
    op: str
    clause: Clause
    kind: str  # "at" | "rat" | "delete"
    applied: bool  # deletions only: whether a clause instance was removed
    used: tuple  # clause values consumed by the conflict derivations
    rat_neighbors: tuple  # alive values containing the negated pivot


def propagate_step(formula: Formula, lit: int) -> Formula:
    """Apply one unit-propagation step on lit.

    Requires some clause {lit, m1, ..., mk} whose other literals are all
    contradicted by unit clauses {-mi} of the formula; otherwise raises
    NotUnitError. Clauses containing lit are dropped, -lit is struck from
    the rest, and the unit {lit} is put in with multiplicity one.
    """
    if lit == 0:
        raise ValueError("0 is not a literal")
    units = {c.literals[0] for c in formula.distinct() if len(c) == 1}
    enabled = any(
        lit in c and all(-m in units for m in c.literals if m != lit)
        for c in formula.distinct()
    )
    if not enabled:
        raise NotUnitError("no clause unit-propagates on %d" % lit)
    out = Counter()
    for c, k in formula.counts():
        if lit in c:
            continue
        out[c.without(-lit)] += k
    out[Clause((lit,))] += 1
    return Formula.from_counts(out.items())


def propagate_fixpoint(formula: Formula, order_seed: Optional[int] = None) -> PropagationOutcome:
    """Run unit propagation to its fixpoint.

    The outcome does not depend on propagation order; order_seed shuffles
    the processing order so tests can exercise exactly that.
    """
    values = list(formula.distinct())
    if order_seed is not None:
        random.Random(order_seed).shuffle(values)
    db = _ClauseDb(Formula.from_counts((c, 1) for c in values))
    if db.root_conflict:
        return PropagationOutcome(True)
    true = db.true_lits

    out = Counter()
    for c, k in formula.counts():
        if any(l in true for l in c.literals):
            continue
        stripped = Clause(l for l in c.literals if -l not in true)
        # a survivor with <2 open literals would have propagated or conflicted
        assert len(stripped) >= 2
        out[stripped] += k
    for lit in true:
        out[Clause((lit,))] += 1
    return PropagationOutcome(False, Formula.from_counts(out.items()))


class _ClauseDb:
    """Clause multiset over integer ids, two watched literals per clause,
    and an incremental root closure.

    A distinct clause value gets the next id when it enters the multiset,
    and a fresh one if it is fully deleted and added again, so id order is
    the insertion order of ``mult``. Positions 0 and 1 of a clause's
    literal list are watched; a unit clause is watched on its only
    literal. Watch entries of deleted clauses are dropped lazily.

    Invariant between propagations: a false watched literal has a true
    partner. Undoing to the root keeps it, and a closure rebuild clears
    every assignment, so watches never need re-initialising.
    """

    def __init__(self, formula: Formula, record: bool = False):
        self.record = record
        self.mult = dict(formula.counts())
        self.ids = {}  # alive clause value -> id, in id order
        self.clauses = []  # id -> Clause, literals in serialization order
        self.lits = []  # id -> literal list in watch order; None once deleted
        self.watches = {}  # literal -> ids of clauses watching it
        self.true_lits = {}  # true literal -> None, ordered
        self.reason = {}  # true literal -> clause id | None (None: assumption)
        self.trail = []
        self.reason_refs = {}  # clause id -> number of root literals it justifies
        self.root_len = 0
        self.root_conflict = False
        self.root_used = ()
        self.propagations = 0
        for clause in self.mult:
            self._watch(clause, list(clause.literals))
        self._rebuild_closure()

    def _watch(self, clause, lits):
        """Give a new clause value the next id and watch lits[0] and lits[1]."""
        cid = len(self.clauses)
        self.ids[clause] = cid
        self.clauses.append(clause)
        self.lits.append(lits)
        watches = self.watches
        for l in lits[:2]:
            ws = watches.get(l)
            if ws is None:
                watches[l] = [cid]
            else:
                ws.append(cid)
        return cid

    def _rebuild_closure(self):
        self.true_lits.clear()
        self.reason.clear()
        self.trail.clear()
        self.reason_refs.clear()
        self.root_conflict = False
        self.root_used = ()
        empty = None
        pending = []
        all_lits = self.lits
        for cid in self.ids.values():
            lits = all_lits[cid]
            n = len(lits)
            if n == 0 and empty is None:
                empty = self.clauses[cid]
            elif n == 1:
                pending.append((lits[0], cid))
        if empty is not None:
            self.root_conflict = True
            self.root_used = (empty,)
        else:
            conflict, used = self._propagate(pending)
            if conflict:
                self.root_conflict = True
                self.root_used = tuple(used or ())
        self.root_len = len(self.trail)

    def _propagate(self, queue):
        """Assign the queued (literal, reason id) pairs and their consequences.

        Returns (conflict, used) where used lists the clause values behind
        the conflict when recording is on. The clauses a new assignment
        turns unit or false are handled in id order, the order of a scan
        over every clause containing the falsified literal, so the queue,
        the conflict found and the propagation count do not depend on
        where the watches happen to sit. Consequences are appended to the
        queue while it is walked.
        """
        tl = self.true_lits
        reason = self.reason
        trail = self.trail
        refs = self.reason_refs
        watches = self.watches
        all_lits = self.lits
        for lit, why in queue:
            if lit in tl:
                continue
            if -lit in tl:
                if not self.record:
                    return True, None
                if why is not None:
                    return True, self._explain(why, self.clauses[why].literals)
                return True, self._explain(None, (lit,))
            tl[lit] = None
            reason[lit] = why
            trail.append(lit)
            self.propagations += 1
            if why is not None:
                refs[why] = refs.get(why, 0) + 1
            false_lit = -lit
            ws = watches.get(false_lit)
            if not ws:
                continue
            units = []
            falsified = None
            j = 0
            for cid in ws:
                c = all_lits[cid]
                if c is None:
                    continue  # deleted clause: drop the entry
                other = c[0]  # stays false_lit for a unit clause
                if other == false_lit and len(c) > 1:
                    other = c[1]
                    c[0] = other
                    c[1] = false_lit
                if other in tl:
                    ws[j] = cid
                    j += 1
                    continue
                for k in range(2, len(c)):
                    m = c[k]
                    if -m not in tl:
                        c[1] = m
                        c[k] = false_lit
                        w = watches.get(m)
                        if w is None:
                            watches[m] = [cid]
                        else:
                            w.append(cid)
                        break
                else:
                    ws[j] = cid
                    j += 1
                    if -other in tl:
                        if falsified is None or cid < falsified:
                            falsified = cid
                    else:
                        units.append(cid)
            del ws[j:]
            if falsified is not None:
                if not self.record:
                    return True, None
                return True, self._explain(falsified, self.clauses[falsified].literals)
            if units:
                units.sort()
                for cid in units:
                    queue.append((all_lits[cid][0], cid))
        return False, None

    def _explain(self, falsified, seed_lits):
        """Walk reasons backwards from false literals, collecting used clauses."""
        used = {}
        if falsified is not None:
            used[falsified] = None
        stack = list(seed_lits)
        seen = set(stack)
        clauses = self.clauses
        while stack:
            m = stack.pop()  # m is false, so -m is on the trail
            r = self.reason.get(-m)
            if r is None or r in used:
                continue
            used[r] = None
            for q in clauses[r].literals:
                if q != -m and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return [clauses[r] for r in used]

    def _undo_to(self, mark):
        tl = self.true_lits
        reason = self.reason
        refs = self.reason_refs
        for lit in self.trail[mark:]:
            del tl[lit]
            r = reason.pop(lit)
            if r is not None:
                left = refs[r] - 1
                if left:
                    refs[r] = left
                else:
                    del refs[r]
        del self.trail[mark:]

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
        neighbors = tuple(c for c in self.mult if -pivot in c)
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
        # watch true literals first, then open ones, so a false watch
        # only ever sits next to a true one
        tl = self.true_lits
        true = []
        open_ = []
        false = []
        for m in clause.literals:
            if m in tl:
                true.append(m)
            elif -m in tl:
                false.append(m)
            else:
                open_.append(m)
        cid = self._watch(clause, true + open_ + false)
        if self.root_conflict or true or len(open_) > 1:
            return  # nothing new to derive, or nothing propagates
        if not open_:
            self.root_conflict = True
            if len(clause) == 0:
                self.root_used = (clause,)
            elif self.record:
                self.root_used = tuple(self._explain(cid, clause.literals))
            return
        conflict, used = self._propagate([(open_[0], cid)])
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
        cid = self.ids.pop(clause)
        self.lits[cid] = None
        # only these removals can invalidate the root closure
        if self.root_conflict or len(clause) <= 1 or cid in self.reason_refs:
            self._rebuild_closure()
        return True


def has_at(formula: Formula, clause: Clause) -> bool:
    """Is the clause an asymmetric tautology with respect to the formula?"""
    ok, _ = _ClauseDb(formula).at_check(clause)
    return ok


def has_rat(formula: Formula, clause: Clause, pivot: int) -> bool:
    """Is the clause a resolution asymmetric tautology on the given pivot?"""
    if pivot not in clause:
        raise PivotNotInClauseError("pivot %d not in %r" % (pivot, clause))
    db = _ClauseDb(formula)
    ok, _ = db.at_check(clause)
    if ok:
        return True
    ok, _, _ = db.rat_check(clause, pivot)
    return ok


def first_violation(refutation: Refutation) -> Optional[Clause]:
    """The first deleted clause, in order of first deletion, that the proof
    deletes more often than it adds; None when there is none."""
    added = Counter()
    deleted = Counter()
    for step in refutation:
        if step.is_add:
            added[step.clause] += 1
        else:
            deleted[step.clause] += 1
    for clause, k in deleted.items():
        if k > added[clause]:
            return clause
    return None


def is_preserving(refutation: Refutation) -> bool:
    """No clause is deleted more often than it is added, over the whole proof."""
    return first_violation(refutation) is None


def _replay(formula, refutation, mode, record):
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError("mode must be %r or %r" % (STRICT, PERMISSIVE))
    start = time.perf_counter()
    db = _ClauseDb(formula, record=record)
    annotations = [] if record else None

    def report(valid, step=None, reason=None, checked=0):
        return CheckReport(
            valid,
            failing_step=step,
            reason=reason,
            steps_checked=checked,
            propagations=db.propagations,
            wall_time=time.perf_counter() - start,
        )

    total = len(refutation)
    for i, step in enumerate(refutation, 1):
        clause = step.clause
        if step.is_add:
            ok, used = db.at_check(clause)
            kind = KIND_AT
            neighbors = ()
            if not ok and len(clause) > 0:
                kind = KIND_RAT
                ok, used, neighbors = db.rat_check(clause, clause.pivot)
            if record:
                annotations.append(
                    StepVerdict(i, ADD, clause, kind, True, tuple(used or ()), neighbors)
                )
            if not ok:
                rep = report(False, i, NOT_AT if len(clause) == 0 else NOT_RAT, i)
                return rep, annotations
            if len(clause) == 0:
                if i < total:
                    log.warning("empty clause at step %d; ignoring %d trailing steps", i, total - i)
                return report(True, checked=i), annotations
            db.add(clause)
        else:
            applied = db.remove(clause)
            if record:
                annotations.append(StepVerdict(i, DELETE, clause, KIND_DELETE, applied, (), ()))
            if not applied:
                if mode == STRICT:
                    return report(False, i, DELETION_ABSENT, i), annotations
                log.warning("step %d: deletion of absent clause %r skipped", i, clause)
    return report(False, None, MISSING_EMPTY_CLAUSE, total), annotations


def check_refutation(formula: Formula, refutation: Refutation, mode: str = PERMISSIVE) -> CheckReport:
    """Replay a proof against the formula and judge it.

    Every addition must be an asymmetric tautology or, failing that, a
    resolution asymmetric tautology on its first literal. The proof is
    valid once an empty clause passes; anything after it is ignored.
    Deleting an absent clause fails in strict mode and is skipped with a
    warning in permissive mode.
    """
    rep, _ = _replay(formula, refutation, mode, record=False)
    return rep


def annotate_refutation(formula: Formula, refutation: Refutation, mode: str = PERMISSIVE):
    """Like check_refutation, but also return per-step replay annotations."""
    rep, annotations = _replay(formula, refutation, mode, record=True)
    return rep, tuple(annotations)
