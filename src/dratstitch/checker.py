"""Unit propagation, redundancy checks, and proof replay.

The replay engine keeps the clause database under integer ids and
maintains the root unit-propagation closure incrementally: clause
additions extend it, deletions rebuild it only when they can actually
shrink it (the deleted clause was empty, a unit, or the reason of a root
literal; those reasons are marked as the closure grows). Redundancy
checks push assumption literals on top of the root closure and undo them
afterwards, so one check costs propagation work proportional to what it
derives, not to the database size.

Clauses of three literals sit on an occurrence list per literal and are
checked in full whenever one of their literals is falsified: for a
ternary clause that check is no more work than moving a watch. Every
other clause has two watched literals. Either way the clauses a new
assignment turns unit or false are handled in id order, so verdicts,
annotations and propagation counts are those of a plain occurrence scan.

Inside the engine a literal is a dense code, ``2 * index + (lit < 0)``,
where each variable gets the next index the first time the database
sees it; ``code ^ 1`` negates. Assignments, reasons, watch lists and
occurrence lists are lists indexed by code, so propagation does no
hashing and memory follows the number of distinct variables, not the
largest one. Clauses, verdicts and annotations are in literals as read;
the encoding changes nothing a caller can observe.

Deletions are applied as written, unit clauses included: this is
"specified DRAT". drat-trim by default ignores unit deletions
("operational DRAT"; Rebola-Pardo and Biere, "Two flavors of DRAT",
POS 2018), so a proof that relies on a deleted unit staying in force
is valid there and invalid here.

A replay never builds its database in place. It copies an as-built
database of the formula, kept from the previous replay of the same
formula object, and adds one unit clause per cube literal before judging
anything, so checking many sub-problems of one instance (formula plus a
cube, as leaf validation and the per-merge trims do) indexes the
instance once. The copy then recomputes its root closure from nothing,
and every step is judged on it exactly as on a fresh build of the
formula plus the cube's units: same clause ids, same closure, same
verdicts and propagation counts.

A proof can also be judged from hints, in the manner of LRAT (Cruz-Filipe
et al., "Efficient certified RAT verification", CADE 2017): each addition
names the ids of the clauses its check needs, and is judged by unit
propagation over those clauses alone. That checker shares no code with
the replay engine and searches nothing beyond the hinted clauses. The
hints for a stitched proof come out of the leaf replays, but they need
not be trusted: a hint can only add a live, older clause of the database
to a propagation, propagating over some of the database's clauses
derives nothing that propagating over all of them would not, and a RAT
lemma's neighbours are found by the checker, not named by the hints. So
hints from a faulty leaf replay can only make the check reject, never
accept.
"""

import logging
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import islice
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

    def failure_text(self) -> str:
        """'invalid at step N (reason)', or 'invalid (reason)' when the
        failure is not tied to a step, as with a missing empty clause."""
        if self.failing_step is None:
            return "invalid (%s)" % self.reason
        return "invalid at step %d (%s)" % (self.failing_step, self.reason)


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
    clause_id: Optional[int] = None  # applied additions: the value's id after it
    used_ids: tuple = ()  # the ids of the values in used, in the same order


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
    true = dict.fromkeys(db.true_lits)

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
    """Clause multiset over integer ids, occurrence lists for ternary
    clauses, two watched literals for every other clause, and an
    incremental root closure, all run over dense literal codes.

    Each variable gets a dense index the first time the database sees it,
    in a formula clause, a cube unit, a lemma or a check assumption, and a
    literal is coded as ``2 * index + (lit < 0)``, so ``code ^ 1`` is its
    negation. Assignments, reasons, watch lists and occurrence lists are
    lists indexed by code, so they grow with the number of distinct
    variables, not with the largest variable number. Clause literal
    lists, check assumptions and the trail hold codes; clause values stay
    in literals, and ``_explain`` walks each reason's ``Clause.literals``
    in serialization order. Conflict derivations are handed out as
    clause ids.

    A distinct clause value gets the next id when it enters the multiset,
    and a fresh one if it is fully deleted and added again, so id order is
    the insertion order of ``mult``. A ternary clause is entered on the
    occurrence list of each of its three codes as ``(id, other code,
    other code)``; it is never watched and its literal list is never
    reordered. Entries of deleted ternary clauses are skipped, and a
    code's list is compacted once its stale entries outnumber its live
    ones, so it never holds more than twice its live entries.
    Of any other clause, positions 0 and 1 of its literal list are
    watched; a unit clause is watched on its only literal. Watch entries
    of deleted clauses are dropped lazily.

    The ids of the clauses that are the reason of a root literal are
    marked whenever the root closure grows: on a rebuild and on an
    addition's root propagation. A deletion rebuilds the closure only
    when the deleted clause was empty, a unit, or marked.

    Invariant between propagations, for every clause that is not
    ternary: a false watched literal has a true partner. Undoing to the
    root keeps it, and a closure rebuild clears every assignment, so
    watches never need re-initialising. Ternary clauses need no
    invariant: every falsification of one of their literals visits them.
    """

    def __init__(self, formula: Formula, record: bool = False):
        self.record = record
        self.mult = dict(formula.counts())
        self.ids = {}  # alive clause value -> id, in id order
        self.clauses = []  # id -> Clause, literals in serialization order
        self.codes = []  # id -> literal codes in serialization order
        self.lits = []  # id -> literal codes in watch order; None once deleted
        self.index = {}  # variable -> dense index
        self.variables = []  # dense index -> variable
        self.value = []  # code -> whether that literal is true
        self.reason = []  # code -> clause id | None (an assumption), while true
        self.watches = []  # code -> ids of watched clauses watching it
        self.occurs = []  # code -> (id, other code, other code) per ternary clause
        self.stale = []  # code -> entries of deleted clauses on its occurrence list
        self.trail = []  # true codes in assignment order
        self.root_reasons = set()  # ids of clauses that are reasons of root literals
        self.root_len = 0
        self.root_conflict = False
        self.root_used = ()
        self.propagations = 0
        for clause in self.mult:
            self._watch(clause, self._codes(clause.literals))
        self._rebuild_closure()

    @property
    def true_lits(self):
        """The true literals in assignment order, decoded from the trail."""
        variables = self.variables
        return [-variables[c >> 1] if c & 1 else variables[c >> 1] for c in self.trail]

    def extended(self, cube, record=False):
        """A new database over this one's clauses plus a unit per cube literal.

        This database must be as built: no step applied, so its ids run in
        the order of ``mult``. Its clauses, watches, occurrence lists and
        variable index are copied, the units go in as ``__init__`` would
        put them in (a new value gets the next id, a present one a higher
        count), and the root closure is computed afresh, so the copy equals
        a build over the formula plus the units. Watch positions may
        differ; nothing depends on them. Only the literal lists of watched
        clauses are copied, since no replay reorders any other.
        """
        db = type(self)(Formula(), record)  # empty clauses, closure and counts
        db.mult = mult = self.mult.copy()
        db.ids = self.ids.copy()
        db.clauses = self.clauses.copy()
        db.codes = self.codes.copy()  # never written to, so shared
        db.lits = [lits if len(lits) == 3 else lits.copy() for lits in self.lits]
        db.index = self.index.copy()
        db.variables = self.variables.copy()
        db.value = [False] * len(self.value)
        db.reason = [None] * len(self.reason)
        db.watches = [ws.copy() for ws in self.watches]
        db.occurs = [occ.copy() for occ in self.occurs]
        db.stale = self.stale.copy()
        for lit in cube:
            unit = Clause((lit,))
            count = mult.get(unit, 0)
            mult[unit] = count + 1
            if not count:
                db._watch(unit, db._codes(unit.literals))
        db._rebuild_closure()
        return db

    def _codes(self, literals):
        """The codes of literals, indexing each variable not seen before."""
        index = self.index
        out = []
        for lit in literals:
            var = lit if lit > 0 else -lit
            i = index.get(var)
            if i is None:
                i = index[var] = len(self.variables)
                self.variables.append(var)
                self.value += (False, False)
                self.reason += (None, None)
                self.watches += ([], [])
                self.occurs += ([], [])
                self.stale += (0, 0)
            out.append(i + i + (lit < 0))
        return out

    def _watch(self, clause, codes, lits=None):
        """Give a new clause value the next id and index it for propagation.

        codes are its literal codes in serialization order. A ternary
        clause goes on the occurrence list of each of its codes and keeps
        codes as its literal list. Any other clause watches lits[0] and
        lits[1], where lits holds the same codes in watch order and
        defaults to a copy of codes.
        """
        cid = len(self.clauses)
        self.ids[clause] = cid
        self.clauses.append(clause)
        self.codes.append(codes)
        if len(codes) == 3:
            a, b, c = codes
            occurs = self.occurs
            occurs[a].append((cid, b, c))
            occurs[b].append((cid, a, c))
            occurs[c].append((cid, a, b))
            self.lits.append(codes)
            return cid
        if lits is None:
            lits = codes.copy()
        self.lits.append(lits)
        watches = self.watches
        for c in lits[:2]:
            watches[c].append(cid)
        return cid

    def _rebuild_closure(self):
        self._undo_to(0)
        self.root_reasons.clear()
        self.root_len = 0
        self.root_conflict = False
        self.root_used = ()
        empty = None
        pending = []
        all_lits = self.lits
        for cid in self.ids.values():
            lits = all_lits[cid]
            n = len(lits)
            if n == 0 and empty is None:
                empty = cid
            elif n == 1:
                pending.append((cid, lits[0]))
        if empty is not None:
            self.root_conflict = True
            self.root_used = (empty,)
        else:
            conflict, used = self._propagate(pending)
            if conflict:
                self.root_conflict = True
                self.root_used = tuple(used or ())
            self._extend_root()

    def _extend_root(self):
        """Make the trail the root closure, marking the reasons it gained."""
        reason = self.reason
        marked = self.root_reasons
        for c in islice(self.trail, self.root_len, None):
            marked.add(reason[c])  # root literals all have a reason
        self.root_len = len(self.trail)

    def _propagate(self, queue):
        """Assign the queued (reason id, code) pairs and their consequences.

        Returns (conflict, used) where used lists the ids of the clauses
        behind the conflict when recording is on. The ternary clauses on
        the falsified literal's occurrence list are checked first, then the
        clauses watching it. The clauses the new assignment turns unit or
        false are handled in id order, the order of a scan over every
        clause containing the falsified literal, so the queue, the conflict
        found and the propagation count do not depend on where the watches
        happen to sit. Consequences are appended to the queue while it is
        walked. Propagations are counted by how much the trail grew.
        """
        value = self.value
        reason = self.reason
        trail = self.trail
        watches = self.watches
        occurs = self.occurs
        all_lits = self.lits
        start = len(trail)
        for why, lit in queue:
            if value[lit]:
                continue
            if value[lit ^ 1]:
                self.propagations += len(trail) - start
                if not self.record:
                    return True, None
                if why is not None:
                    return True, self._explain(why)
                return True, self._explain(None, lit)
            value[lit] = True
            reason[lit] = why
            trail.append(lit)
            false_lit = lit ^ 1
            units = []  # (id, the code it makes true)
            falsified = None
            for cid, a, b in occurs[false_lit]:
                if value[a] or value[b] or all_lits[cid] is None:
                    continue  # satisfied, or a deleted clause
                if value[a ^ 1]:
                    if not value[b ^ 1]:
                        units.append((cid, b))
                    elif falsified is None or cid < falsified:
                        falsified = cid
                elif value[b ^ 1]:
                    units.append((cid, a))
            ws = watches[false_lit]
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
                if value[other]:
                    ws[j] = cid
                    j += 1
                    continue
                for k in range(2, len(c)):
                    m = c[k]
                    if not value[m ^ 1]:
                        c[1] = m
                        c[k] = false_lit
                        watches[m].append(cid)
                        break
                else:
                    ws[j] = cid
                    j += 1
                    if value[other ^ 1]:
                        if falsified is None or cid < falsified:
                            falsified = cid
                    else:
                        units.append((cid, other))
            del ws[j:]
            if falsified is not None:
                self.propagations += len(trail) - start
                if not self.record:
                    return True, None
                return True, self._explain(falsified)
            if units:
                units.sort()
                queue += units
        self.propagations += len(trail) - start
        return False, None

    def _explain(self, falsified, lit=None):
        """Walk reasons backwards from false literals, collecting the ids
        of the clauses used.

        The walk starts from the literals of the falsified clause, or from
        the code lit when no clause is falsified, and visits each clause's
        literals in serialization order.
        """
        used = {}
        codes = self.codes
        if falsified is None:
            stack = [lit]
        else:
            used[falsified] = None
            stack = list(codes[falsified])
        seen = set(stack)
        reason = self.reason
        while stack:
            m = stack.pop() ^ 1  # the literal popped is false, so m is on the trail
            r = reason[m]
            if r is None or r in used:
                continue
            used[r] = None
            for q in codes[r]:
                if q != m and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return list(used)

    def _undo_to(self, mark):
        value = self.value
        trail = self.trail
        for c in islice(trail, mark, None):
            value[c] = False
        del trail[mark:]

    def at_check(self, clause):
        """Does propagating the negated clause literals yield a conflict?"""
        if self.root_conflict:
            return True, (list(self.root_used) if self.record else None)
        conflict, used = self._propagate([(None, c ^ 1) for c in self._codes(clause.literals)])
        self._undo_to(self.root_len)
        return conflict, used

    def rat_check(self, clause, pivot):
        """Check every resolvent with alive clauses containing -pivot.

        Callers run the plain at_check fast path first. Returns
        (ok, used, neighbors).
        """
        neighbors = tuple(c for c in self.mult if -pivot in c)
        used_all = {} if self.record else None
        negated = [c ^ 1 for c in self._codes(clause.literals)]
        (resolved,) = self._codes((-pivot,))
        for other in neighbors:
            assumptions = dict.fromkeys(negated)
            for c in self._codes(other.literals):
                if c != resolved:
                    assumptions[c ^ 1] = None
            conflict, used = self._propagate([(None, a) for a in assumptions])
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
        # only ever sits next to a true one (ternary clauses ignore the order)
        value = self.value
        codes = self._codes(clause.literals)
        true = []
        open_ = []
        false = []
        for c in codes:
            if value[c]:
                true.append(c)
            elif value[c ^ 1]:
                false.append(c)
            else:
                open_.append(c)
        cid = self._watch(clause, codes, true + open_ + false)
        if self.root_conflict or true or len(open_) > 1:
            return  # nothing new to derive, or nothing propagates
        if not open_:
            self.root_conflict = True
            if len(clause) == 0:
                self.root_used = (cid,)
            elif self.record:
                self.root_used = tuple(self._explain(cid))
            return
        conflict, used = self._propagate([(cid, open_[0])])
        if conflict:
            self.root_conflict = True
            self.root_used = tuple(used or ())
        self._extend_root()

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
        all_lits = self.lits
        all_lits[cid] = None
        codes = self.codes[cid]
        if len(codes) == 3:
            occurs = self.occurs
            stale = self.stale
            for c in codes:
                stale[c] += 1
                occ = occurs[c]
                if 2 * stale[c] > len(occ):
                    occurs[c] = [e for e in occ if all_lits[e[0]] is not None]
                    stale[c] = 0
        # only these removals can invalidate the root closure
        if self.root_conflict or len(clause) <= 1 or cid in self.root_reasons:
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


def _apply_repeated_prefix(db, refutation, resume, annotations):
    """Apply, unjudged, the leading steps that repeat an earlier valid replay.

    The database before a step depends only on the formula and the steps
    before it; the checks leave nothing behind but watch positions, which
    change no verdict. So each repeated step is applied with add/remove
    and its earlier verdict kept. Returns the number of steps applied.
    """
    earlier_report, earlier = resume
    if not earlier_report.valid:
        return 0
    n = 0
    for step, verdict in zip(refutation, earlier):
        clause = step.clause
        if step.op != verdict.op or clause.literals != verdict.clause.literals:
            break
        if len(clause) == 0:
            break  # the verdict of the whole proof is always judged again
        if step.is_add:
            db.add(clause)
        elif not verdict.applied:
            break  # a strict replay fails here, so judge it again
        elif not db.remove(clause):
            raise ValueError("resume is not a replay of this formula")
        annotations.append(verdict)
        n += 1
    return n


def _instance_at(formula, cube):
    """The formula plus one unit clause per cube literal."""
    out = formula
    for lit in cube:
        out = out.add(Clause((lit,)))
    return out


_base = (None, None)  # (formula, its as-built database) of the last replay


def _database(formula, cube, record):
    """A fresh database for formula plus cube, copied from a kept base.

    The base is rebuilt when the formula object differs from the last
    one, or when ``_ClauseDb`` names another engine (tests swap in a
    reference engine). It is only ever copied, never replayed on.
    """
    global _base
    kept, base = _base
    if kept is not formula or type(base) is not _ClauseDb:
        base = _ClauseDb(formula)
        _base = (formula, base)
    return base.extended(cube, record)


def _replay(formula, refutation, mode, record, resume=None, cube=()):
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError("mode must be %r or %r" % (STRICT, PERMISSIVE))
    start = time.perf_counter()
    db = _database(formula, cube, record)
    annotations = [] if record else None
    done = 0 if resume is None else _apply_repeated_prefix(db, refutation, resume, annotations)

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
    for i, step in enumerate(islice(refutation, done, None), done + 1):
        clause = step.clause
        if step.is_add:
            ok, used = db.at_check(clause)
            kind = KIND_AT
            neighbors = ()
            if not ok and len(clause) > 0:
                kind = KIND_RAT
                ok, used, neighbors = db.rat_check(clause, clause.pivot)
            added = ok and len(clause) > 0
            if added:
                db.add(clause)
            if record:
                used_ids = tuple(used or ())
                used = tuple(db.clauses[u] for u in used_ids)
                cid = db.ids[clause] if added else None
                annotations.append(
                    StepVerdict(i, ADD, clause, kind, True, used, neighbors, cid, used_ids)
                )
            if not ok:
                rep = report(False, i, NOT_AT if len(clause) == 0 else NOT_RAT, i)
                return rep, annotations
            if len(clause) == 0:
                if i < total:
                    log.warning("empty clause at step %d; ignoring %d trailing steps", i, total - i)
                return report(True, checked=i), annotations
        else:
            applied = db.remove(clause)
            if record:
                annotations.append(StepVerdict(i, DELETE, clause, KIND_DELETE, applied, (), ()))
            if not applied:
                if mode == STRICT:
                    return report(False, i, DELETION_ABSENT, i), annotations
                log.warning("step %d: deletion of absent clause %r skipped", i, clause)
    return report(False, None, MISSING_EMPTY_CLAUSE, total), annotations


def _hinted_conflict(true, hinted):
    """Unit propagation over the hinted clauses only, from the true literals.

    Passes over the clauses still open until one is falsified (a
    conflict) or a pass derives nothing, so the hints may come in any
    order. Adds the derived literals to true; returns (conflict, number
    of literals derived).
    """
    derived = 0
    pending = hinted
    while pending:
        still_open = []
        for lits in pending:
            unit = None
            for lit in lits:
                if lit in true:
                    break  # satisfied: it can derive nothing any more
                if -lit not in true:
                    if unit is not None:
                        still_open.append(lits)
                        break
                    unit = lit
            else:
                if unit is None:
                    return True, derived
                true.add(unit)
                derived += 1
        if len(still_open) == len(pending):
            return False, derived
        pending = still_open
    return False, derived


def _assumed(literals):
    """The negations of literals as a set; None when two of them clash."""
    true = set()
    for lit in literals:
        if lit in true:
            return None
        true.add(-lit)
    return true


def _check_hinted(formula, refutation, mode, hints):
    """Judge every step from its hints alone; see check_refutation."""
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError("mode must be %r or %r" % (STRICT, PERMISSIVE))
    if len(hints) != len(refutation):
        raise ValueError("hints must give one entry per proof step")
    start = time.perf_counter()
    literals = []  # id -> the clause's literals
    copies = []  # id -> live copies under that id
    live = {}  # clause value -> its live ids, one per copy, youngest last
    for clause, k in formula.counts():
        live[clause] = [len(literals)] * k
        literals.append(clause.literals)
        copies.append(k)
    derived = 0

    def report(valid, step=None, reason=None, checked=0):
        return CheckReport(
            valid,
            failing_step=step,
            reason=reason,
            steps_checked=checked,
            propagations=derived,
            wall_time=time.perf_counter() - start,
        )

    total = len(refutation)
    for i, (step, hint) in enumerate(zip(refutation, hints), 1):
        clause = step.clause
        cid = len(literals)
        literals.append(clause.literals)
        copies.append(0)
        if not step.is_add:
            ids = live.get(clause)
            if ids:
                copies[ids.pop()] -= 1
                if not ids:
                    del live[clause]
            elif mode == STRICT:
                return report(False, i, DELETION_ABSENT, i)
            else:
                log.warning("step %d: deletion of absent clause %r skipped", i, clause)
            continue
        # every hint names a live clause from before this step
        ok = all(0 <= h < cid and copies[h] for h in hint)
        if ok:
            # a replay lists a conflict's clauses from the falsified one
            # back to the assumptions; reversed, one pass mostly suffices
            hinted = [literals[h] for h in reversed(hint)]
            true = _assumed(clause.literals)
            ok = true is None
            if not ok:
                ok, n = _hinted_conflict(true, hinted)
                derived += n
            if not ok and len(clause) > 0:
                # RAT on the pivot: every resolvent with a live clause
                # holding its negation is a tautology or conflicts
                pivot = clause.pivot
                ok = True
                for value in live:
                    if -pivot not in value:
                        continue
                    true = _assumed(clause.literals + tuple(m for m in value if m != -pivot))
                    if true is not None:
                        ok, n = _hinted_conflict(true, hinted)
                        derived += n
                        if not ok:
                            break
        if not ok:
            return report(False, i, NOT_AT if len(clause) == 0 else NOT_RAT, i)
        if len(clause) == 0:
            if i < total:
                log.warning("empty clause at step %d; ignoring %d trailing steps", i, total - i)
            return report(True, checked=i)
        live.setdefault(clause, []).append(cid)
        copies[cid] = 1
    return report(False, None, MISSING_EMPTY_CLAUSE, total)


def check_refutation(
    formula: Formula, refutation: Refutation, mode: str = PERMISSIVE, *, cube=(), hints=None
) -> CheckReport:
    """Replay a proof against the formula and judge it.

    Every addition must be an asymmetric tautology or, failing that, a
    resolution asymmetric tautology on its first literal. The proof is
    valid once an empty clause passes; anything after it is ignored.
    Deleting an absent clause fails in strict mode and is skipped with a
    warning in permissive mode.

    cube is a sequence of literals. The proof is then judged against the
    formula plus one unit clause per cube literal, the sub-problem a
    divide-and-conquer solver refuted, with the same report as for that
    formula built out: the database is a copy of the formula's, kept
    from the last replay of the same formula object, with the units
    added.

    hints, when given, holds one sequence of clause ids per proof step
    (deletions ignore theirs), and the proof is judged from them alone,
    without the replay engine. Ids name the formula's distinct clauses
    in ``counts()`` order, then one id per proof step in order; an
    addition's clause lives under its step's id, and a deletion kills
    the youngest live id of its value. Each hinted id must be live and
    older than its step. The negated addition must then reach a
    conflict by unit propagation over the hinted clauses alone, or, for
    a RAT lemma, every resolvent with a live clause holding the negated
    pivot must be a tautology or reach one the same way. The report's
    propagations count the literals the hinted clauses derived. Hints
    that fall short only make a step fail: a valid proof with too few
    hints is rejected, an invalid one is never accepted. cube must be
    empty with hints.
    """
    if hints is not None:
        if cube:
            raise ValueError("hints are checked against the formula alone, without a cube")
        return _check_hinted(formula, refutation, mode, hints)
    rep, _ = _replay(formula, refutation, mode, record=False, cube=cube)
    return rep


def annotate_refutation(
    formula: Formula, refutation: Refutation, mode: str = PERMISSIVE, *, resume=None, cube=()
):
    """Like check_refutation, but also return per-step replay annotations.

    resume may be the (report, annotations) pair an earlier call returned
    for the same formula. The leading steps of refutation that repeat the
    earlier steps are then applied to the clause database without being
    judged, and keep their earlier annotations; every later step is judged
    as usual. Reuse stops at the first step whose op or literal order
    differs, before the empty clause, which is always judged, and before a
    deletion that the earlier replay found absent. An earlier report that
    is not valid is not reused at all. A repeated deletion that finds
    nothing to remove shows that resume came from another formula, and
    raises ValueError. With resume, the report's propagations count only
    the propagations this call performed.

    cube means what it means for check_refutation: the proof is judged
    against the formula plus one unit clause per cube literal, and the
    report and annotations are those for that instance built out. resume
    must then come from a replay against the same instance.

    Annotations also name clauses by id. A value gets the next id when
    its count goes from 0 to 1, the instance's in the order of its
    ``counts()`` first (the formula's clauses, then each cube unit the
    formula lacks, in cube order), so ids below the instance's distinct
    clause count are its clauses; a value keeps its id until its count is
    0 again. A resumed replay issues the same ids.
    """
    rep, annotations = _replay(formula, refutation, mode, record=True, resume=resume, cube=cube)
    return rep, tuple(annotations)
