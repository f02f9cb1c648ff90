"""Unit propagation, redundancy checks, and proof replay.

The replay engine keeps the clause database under integer ids and
maintains the root unit-propagation closure incrementally: clause
additions extend it, deletions rebuild it only when they can actually
shrink it (the deleted clause was empty, a unit, or the reason of a root
literal; those reasons are marked as the closure grows). Redundancy
checks push assumption literals on top of the root closure and undo them
afterwards, so one check costs propagation work proportional to what it
derives, not to the database size.

Clauses of three literals sit on an occurrence list per literal, as
their id and the negations of their two other literals, and are looked
at whenever one of their literals is falsified: for a ternary clause
that costs no more than moving a watch, and the usual visit, to a
clause that can derive nothing, reads two assignments. Every other
clause has two watched literals. Either way the clauses a new
assignment turns unit or false are handled in id order, so verdicts,
annotations and propagation counts are those of a plain occurrence
scan: occurrence lists are kept in increasing id order, so their units
go onto the propagation queue in that order as they are found, and the
queue's new tail is sorted only when a watched clause added a unit.

Inside the engine a literal is a dense code, ``2 * index + (lit < 0)``,
where each variable gets the next index the first time the database
sees it; ``code ^ 1`` negates. Assignments, reasons, watch lists and
occurrence lists are lists indexed by code, so propagation does no
hashing and memory follows the number of distinct variables, not the
largest one. Clauses, verdicts and annotations are in literals as read;
the encoding changes nothing a caller can observe.

A check that ends in a conflict names the clauses its derivation used:
the clause it falsified, then the reason of each trail literal the
conflict needs, latest on the trail first. Reversed, that is a unit
order, the order in which LRAT lists an addition's hints: each clause is
unit under the assumptions and the literals before it, and the last is
falsified. Every annotation, hint record and hint built from a replay
lists its ids so, and the hint checker, which takes an addition's hints
reversed, derives each such conflict in one pass over them. Working out
the order costs what the check derived: the walk covers only the trail
above the root closure, and the root literals the conflict needs are
taken by the positions recorded as the closure grew.

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

Whether an addition passes, the ids its check uses, its RAT neighbours
and the propagations its check makes depend only on the database at its
step, not on where the watches sit. So a replay with enough additions
(see _SHARE_ADDITIONS), on a mask of two CPUs or more, is judged in two
interleaved shares by one pass each (_pass): each process applies every
step, but judges only the additions whose ordinal has its share's
parity, and adds the others unjudged, as if they passed. The process
judges share 0 and a forked worker share 1 (see workers). Each pass,
and a serial one that records, lists per judged addition the ids its
check used, and the process merges the two lists by step. The earliest
failure of either share is the verdict, and the report, the warnings
and what is built from the merged list are the serial replay's: the
annotations annotate_refutation returns, and the hint record
(_hint_record) that leaf checks and replay trims read. That record
names each check's ids as check_refutation's hints name them, straight
from the list and the database's clauses, with no annotation between.

A proof can also be judged from hints, in the manner of LRAT (Cruz-Filipe
et al., "Efficient certified RAT verification", CADE 2017): each addition
names the ids of the clauses its check needs, and is judged by unit
propagation over those clauses alone. That checker shares the verdict
rules, the report and the warnings with the replay (_report), but not
the engine, and searches nothing beyond the hinted clauses. A
hinted id counts as live while its clause value has a live copy, which
is the engine's rule too: a deletion removes one copy of a value, not
the copy some hint names. Against a cube, its units are live clauses
that every check may use unnamed. The hints for a stitched proof come
out of the leaf replays and the per-merge trims, but they need not be
trusted: a hint can only add a clause that is in the database, older
than the step, to a propagation, propagating over some of the
database's clauses derives nothing that propagating over all of them
would not, and a RAT lemma's neighbours are found by the checker, not
named by the hints. So faulty hints can only make the check reject,
never accept.
"""

import logging
import os
import random
import threading
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
    # clause values consumed by the conflict derivations: of an AT check,
    # the falsified clause, then the reasons it needed, latest derived
    # first, so reversed they are in unit order; of a RAT check, each
    # resolvent's so in turn, without repeats
    used: tuple
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
    in literals. Conflict derivations are handed out as clause ids, the
    falsified clause first, then the reason of each trail literal the
    conflict needs, latest on the trail first (see ``_explain``); the
    position of each root literal on the trail is recorded as the
    closure grows, for that order.

    A distinct clause value gets the next id when it enters the multiset,
    and a fresh one if it is fully deleted and added again, so id order is
    the insertion order of ``mult``. A ternary clause is entered on the
    occurrence list of each of its three codes as ``(id, a ^ 1, b ^ 1)``,
    where a and b are its other two codes, so that a visit finds the
    clause can derive nothing, neither other literal being false, in two
    reads of ``value``; it is never watched and its literal list is never
    reordered. Entries are appended when their id is created, and
    compaction keeps their order, so every occurrence list is in
    increasing id order: ``_propagate`` relies on it. Entries of deleted
    ternary clauses are skipped where they could derive something, and a
    code's list is compacted once its stale entries outnumber its live
    ones, so it never holds more than twice its live entries.
    Of any other clause, positions 0 and 1 of its literal list are
    watched; a unit clause is watched on its only literal. Watch entries
    of deleted clauses are dropped lazily.

    The ids of the clauses that are the reason of a root literal are
    marked whenever the root closure grows: on a rebuild and on an
    addition's root propagation. A deletion rebuilds the closure only
    when the deleted clause was empty, a unit, or marked. A rebuild
    starts from the live empty and unit clauses, kept in id order, and
    does not scan the others.

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
        self.watched = []  # ids of the clauses that are not ternary, deleted ones too
        self.short = {}  # id -> code of a live unit, None of a live empty clause; id order
        self.index = {}  # variable -> dense index
        self.variables = []  # dense index -> variable
        self.value = []  # code -> whether that literal is true
        self.reason = []  # code -> clause id | None (an assumption), while true
        self.watches = []  # code -> ids of watched clauses watching it
        self.occurs = []  # code -> (id, other code, other code) per ternary clause
        self.stale = []  # code -> entries of deleted clauses on its occurrence list
        self.trail = []  # true codes in assignment order
        self.position = []  # code -> its trail position, recorded while it is a root literal
        self.root_reasons = set()  # ids of clauses that are reasons of root literals
        self.root_len = 0
        self.root_conflict = False
        self.root_used = ()
        self.propagations = 0
        self.checked = (None, None)  # the clause at_check last judged, and its codes
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
        db.lits = lits = self.lits.copy()
        for cid in self.watched:
            lits[cid] = lits[cid].copy()
        db.watched = self.watched.copy()
        db.short = self.short.copy()
        db.index = self.index.copy()
        db.variables = self.variables.copy()
        db.value = [False] * len(self.value)
        db.reason = [None] * len(self.reason)
        db.watches = [ws.copy() for ws in self.watches]
        db.occurs = [occ.copy() for occ in self.occurs]
        db.stale = self.stale.copy()
        db.position = [0] * len(self.position)
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
                self.position += (0, 0)
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
            occurs[a].append((cid, b ^ 1, c ^ 1))
            occurs[b].append((cid, a ^ 1, c ^ 1))
            occurs[c].append((cid, a ^ 1, b ^ 1))
            self.lits.append(codes)
            return cid
        if lits is None:
            lits = codes.copy()
        self.lits.append(lits)
        self.watched.append(cid)
        if len(codes) <= 1:
            self.short[cid] = codes[0] if codes else None
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
        for cid, code in self.short.items():
            if code is None:
                empty = cid
                break
            pending.append((cid, code))
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
        """Make the trail the root closure, marking the reasons it gained
        and recording the positions of its new literals."""
        reason = self.reason
        marked = self.root_reasons
        position = self.position
        trail = self.trail
        for p in range(self.root_len, len(trail)):
            c = trail[p]
            marked.add(reason[c])  # root literals all have a reason
            position[c] = p
        self.root_len = len(trail)

    def _propagate(self, queue):
        """Assign the queued (reason id, code) pairs and their consequences.

        Returns (conflict, used) where used lists the ids of the clauses
        behind the conflict when recording is on. The ternary clauses on
        the falsified literal's occurrence list are checked first, then the
        clauses watching it. The clauses the new assignment turns unit or
        false are handled in id order, the order of a scan over every
        clause containing the falsified literal, so the queue, the conflict
        found and the propagation count do not depend on where the watches
        happen to sit. Units are appended to the queue as they are found,
        in id order from the occurrence list, and the queue's new tail is
        sorted when a watched clause added one; the queue is walked while
        it grows. Propagations are counted by how much the trail grew.
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
            tail = len(queue)  # where this assignment's units start
            falsified = None
            # na and nb negate the clause's other two codes: while neither
            # is true, neither literal is false and the clause derives nothing
            for cid, na, nb in occurs[false_lit]:
                if value[na]:
                    if value[nb]:
                        if (falsified is None or cid < falsified) and all_lits[cid] is not None:
                            falsified = cid
                    elif not value[nb ^ 1] and all_lits[cid] is not None:
                        queue.append((cid, nb ^ 1))
                elif value[nb] and not value[na ^ 1] and all_lits[cid] is not None:
                    queue.append((cid, na ^ 1))
            ws = watches[false_lit]
            if ws:
                ordered = True  # the occurrence list's units came in id order
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
                            queue.append((cid, other))
                            ordered = False
                del ws[j:]
                if not ordered:
                    queue[tail:] = sorted(queue[tail:])
            if falsified is not None:
                self.propagations += len(trail) - start
                if not self.record:
                    return True, None
                return True, self._explain(falsified)
        self.propagations += len(trail) - start
        return False, None

    def _explain(self, falsified, lit=None):
        """The ids of the clauses behind a conflict: the falsified clause
        first, then the reason of each trail literal the conflict needs,
        latest on the trail first, so that the list reversed is a unit
        order. The conflict needs the negations of the falsified clause's
        literals, or of the code lit when no clause is falsified, and
        whatever their reasons need in turn.

        The walk runs back over the trail above the root closure only, and
        stops at the earliest literal it needs there; the root literals it
        needs are sorted by the positions _extend_root recorded, so an
        explanation costs what the check derived, not the size of the root
        closure.
        """
        codes = self.codes
        reason = self.reason
        trail = self.trail
        position = self.position
        root_len = self.root_len
        if falsified is None:
            used = []
            false = (lit,)
        else:
            used = [falsified]
            false = codes[falsified]
        need = set()  # true codes the conflict needs
        roots = []  # the positions of the root ones
        above = 0  # needed codes above the root not yet walked past
        for q in false:
            m = q ^ 1
            if m not in need:
                need.add(m)
                p = position[m]
                if p < root_len and trail[p] == m:
                    roots.append(p)
                else:
                    above += 1
        if above:
            for m in reversed(trail):  # reaches every needed code before the root
                if m not in need:
                    continue
                r = reason[m]
                if r is not None:  # else an assumption
                    used.append(r)
                    for q in codes[r]:
                        n = q ^ 1  # q is false but for m
                        if q != m and n not in need:
                            need.add(n)
                            p = position[n]
                            if p < root_len and trail[p] == n:
                                roots.append(p)
                            else:
                                above += 1
                above -= 1
                if not above:
                    break
        for p in roots:  # the list grows to the root codes their reasons need
            m = trail[p]
            for q in codes[reason[m]]:  # root literals all have a reason
                n = q ^ 1
                if q != m and n not in need:
                    need.add(n)
                    roots.append(position[n])
        roots.sort(reverse=True)
        used += [reason[trail[p]] for p in roots]
        return used

    def _undo_to(self, mark):
        value = self.value
        trail = self.trail
        for c in trail[mark:]:  # reads only what is undone, not the root below it
            value[c] = False
        del trail[mark:]

    def at_check(self, clause):
        """Does propagating the negated clause literals yield a conflict?"""
        if self.root_conflict:
            return True, (list(self.root_used) if self.record else None)
        codes = self._codes(clause.literals)
        self.checked = (clause, codes)
        conflict, used = self._propagate([(None, c ^ 1) for c in codes])
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
        checked, codes = self.checked
        if checked is not clause:
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
        self.short.pop(cid, None)
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
    deleted = Counter(clause for op, clause in refutation if op == DELETE)
    if not deleted:
        return None
    added = Counter(clause for op, clause in refutation if op == ADD and clause in deleted)
    for clause, k in deleted.items():
        if k > added[clause]:
            return clause
    return None


def is_preserving(refutation: Refutation) -> bool:
    """No clause is deleted more often than it is added, over the whole proof."""
    return first_violation(refutation) is None


# the last formula used, its as-built database, its hint table, its open cubes
_base = (None, None, None, None)


def _kept(formula, part):
    """Part 1, the as-built database, part 2, the hint table, or part 3,
    the open cubes, of formula, from a one-entry memo.

    Each part is built when first asked for. All are dropped when
    another formula object is used, and the database is rebuilt when
    ``_ClauseDb`` names another engine (tests swap in a reference
    engine). The database is only ever copied, never replayed on, and a
    hint check copies what it changes of the table. The open cubes are
    the cubes, as frozensets, whose copies had no root conflict.
    """
    global _base
    entry = list(_base) if _base[0] is formula else [formula, None, None, None]
    if part == 1 and type(entry[1]) is not _ClauseDb:
        entry[1] = _ClauseDb(formula)
    elif part == 2 and entry[2] is None:
        entry[2] = _hint_table(formula)
    elif part == 3 and entry[3] is None:
        entry[3] = set()
    _base = tuple(entry)
    return entry[part]


def _database(formula, cube, record):
    """A fresh database for formula plus cube, copied from the kept one;
    the cube is recorded as open when the copy has no root conflict."""
    db = _kept(formula, 1).extended(cube, record)
    if not db.root_conflict:
        _kept(formula, 3).add(frozenset(cube))
    return db


def _root_conflict(formula, cube):
    """The formula clauses behind a conflict in the root closure of formula
    plus cube's units, as ids for check_refutation's hints; None when that
    closure has no conflict. A cube unit's id is left out.

    Unit propagation only gains from more units, so a cube within an
    open one, say a merge's path within the cube of a leaf checked
    below it, is answered without building a copy.
    """
    units = frozenset(cube)
    if any(units <= other for other in _kept(formula, 3)):
        return None
    db = _database(formula, cube, record=True)
    if not db.root_conflict:
        return None
    n = len(formula.counts())
    return tuple(u for u in db.root_used if u < n)


# A replay is judged in two shares, one on a forked worker, only when
# each holds at least this many additions, so a proof needs twice as
# many to fork. On a 2-core box (Python 3.11), replays of prefixes
# of the seed-3 and seed-7 mono-deletions proofs in two pinned shares
# took 0.6 to 2.2 ms longer than serial ones at 150 additions, between
# 3.4 ms longer and 3.5 ms shorter from 200 to 300, 3 to 6 ms shorter at
# 400 and 2 to 40 ms shorter from 600 up (medians of 15 to 40
# alternating pairs, with and without annotations).
_SHARE_ADDITIONS = 200

# True in a forked worker, and in its parent until the worker is reaped:
# the CPUs are shared out already, so nothing in between forks again.
_sharing = False


def _cpus():
    """The number of CPUs this process may run on; 1 where it cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _share_count(weight, share_weight):
    """How many shares to split work of the given weight into: 2 where
    the affinity mask holds two CPUs or more and each share would weigh
    share_weight at least, else 1: for too little work, inside a share
    already, on one CPU, without fork, or beside other threads. The
    weight and the share are tested first, so that the many small
    replays, such as leaf checks, never read the affinity mask.
    """
    serial = (
        weight < 2 * share_weight
        or _sharing
        or _cpus() < 2
        or not hasattr(os, "fork")
        or threading.active_count() > 1
    )
    return 1 if serial else 2


def _judged(db, clause):
    """(ok, kind, used ids, neighbours) of an addition judged on db: AT,
    or failing that, RAT on its first literal, as rat_check gives them."""
    ok, used = db.at_check(clause)
    if ok or not clause:
        return ok, KIND_AT, used, ()
    ok, used, neighbors = db.rat_check(clause, clause.pivot)
    return ok, KIND_RAT, used, neighbors


def _pass(db, refutation, mode, share=0, shares=1):
    """Apply refutation's steps to db in order and judge its additions:
    with two shares, only those whose ordinal among the additions, from
    0, has share's parity, and every other one but an empty clause is
    added unjudged, as if it passed. Stops at the first failure found
    and at the first empty clause, judged or not.

    Returns (end, reason, skipped, judged). end is the step it stopped
    at, None past the last one; reason is the failure found there, None
    for an empty clause that passed or was not judged. skipped holds the
    (step, clause) of each deletion of an absent clause that permissive
    mode skipped. judged holds, in order, the (step, kind, used ids,
    neighbour ids, id, propagations) of each addition judged here, when
    db records or there are two shares, and is None otherwise: the ids
    are db's, the id is its clause's after the step, None where it was
    not added, and the propagations are those its check made.
    """
    judged = [] if db.record or shares > 1 else None
    skipped = []
    n = -1  # ordinal of the last addition
    for i, step in enumerate(refutation, 1):
        clause = step.clause
        if step.is_add:
            n += 1
            if n % shares != share:
                if not clause:
                    return i, None, skipped, judged
                db.add(clause)
                continue
            before = db.propagations
            ok, kind, used, neighbors = _judged(db, clause)
            made = db.propagations - before
            added = ok and len(clause) > 0
            if added:
                db.add(clause)
            if judged is not None:
                ids = db.ids
                cid = ids[clause] if added else None
                neighbor_ids = tuple(map(ids.__getitem__, neighbors))
                judged.append((i, kind, tuple(used or ()), neighbor_ids, cid, made))
            if not ok:
                return i, NOT_AT if len(clause) == 0 else NOT_RAT, skipped, judged
            if len(clause) == 0:
                return i, None, skipped, judged
        elif not db.remove(clause):
            if mode == STRICT:
                return i, DELETION_ABSENT, skipped, judged
            skipped.append((i, clause))
    return None, None, skipped, judged


def _report(start, refutation, end, reason, skipped, propagations):
    """The report of a check of refutation that began at perf_counter
    time start and stopped at step end, None past the last step, for
    reason, None for an empty clause that passed; logs a warning per
    (step, clause) deletion of an absent clause in skipped, then one for
    the steps after a passed empty clause."""
    for i, clause in skipped:
        log.warning("step %d: deletion of absent clause %r skipped", i, clause)
    total = len(refutation)
    if end is None:
        reason = MISSING_EMPTY_CLAUSE
    elif reason is None and end < total:
        log.warning("empty clause at step %d; ignoring %d trailing steps", end, total - end)
    return CheckReport(
        reason is None,
        failing_step=end if reason is not None else None,
        reason=reason,
        steps_checked=total if end is None else end,
        propagations=propagations,
        wall_time=time.perf_counter() - start,
    )


def _replay(formula, refutation, mode, record, cube=()):
    """The report of a replay of refutation against formula plus cube's
    units, and _pass's judged, skipped and the database's clauses, which
    name every id in judged."""
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError("mode must be %r or %r" % (STRICT, PERMISSIVE))
    start = time.perf_counter()
    additions = sum(1 for _ in refutation.adds())
    db = _database(formula, cube, record)
    if _share_count(additions, _SHARE_ADDITIONS) > 1:
        from . import workers  # see its docstring

        outcome = workers._shared_replay(formula, cube, db, refutation, mode)
        end, reason, propagations, skipped, judged = outcome
    else:
        end, reason, skipped, judged = _pass(db, refutation, mode)
        propagations = db.propagations
    report = _report(start, refutation, end, reason, skipped, propagations)
    return report, judged, skipped, db.clauses


def _hinted_conflict(true, pending, literals):
    """Unit propagation from the true literals over the clauses whose ids
    are pending, literals giving each id's literals.

    Passes over the clauses still open until one is falsified (a
    conflict) or a pass derives nothing, so the ids may come in any
    order. Adds the derived literals to true. Returns the ids of the
    clauses that became unit, in the order they did, then the falsified
    one's, or None without a conflict; and the number of literals derived.
    """
    used = []
    while pending:
        still_open = []
        for h in pending:
            unit = None
            for lit in literals[h]:
                if lit in true:
                    break  # satisfied: it can derive nothing any more
                if -lit not in true:
                    if unit is not None:
                        still_open.append(h)
                        break
                    unit = lit
            else:
                used.append(h)
                if unit is None:
                    return used, len(used) - 1
                true.add(unit)
        if len(still_open) == len(pending):
            break
        pending = still_open
    return None, len(used)


def _assumed(literals, units=()):
    """The negations of literals, then the unit literals, as a set; None
    when two of them clash, which is a conflict before any propagation."""
    true = set()
    for lit in literals:
        if lit in true:
            return None
        true.add(-lit)
    for lit in units:
        if -lit in true:
            return None
        true.add(lit)
    return true


def _hint_table(formula):
    """Per distinct formula clause, in ``counts()`` order, its literals,
    its value and its count; and each value's key, its position plus 1.

    A hint check reads the formula from it, as kept by ``_kept``, so the
    checks of many proofs of one formula build it once.
    """
    values = [None]
    values += (clause for clause, _ in formula.counts())
    count = [0]
    count += (k for _, k in formula.counts())
    literals = [clause.literals for clause in values[1:]]
    return literals, values, count, dict(zip(values[1:], range(1, len(values))))


def _check_hinted(formula, refutation, mode, hints, cube=(), judged=None, record=False):
    """Judge every step from its hints alone; see check_refutation.

    Returns the report and, when record is on, (steps, needed, rat,
    applied) as _hint_record gives them of a replay, else None. steps
    are the judged steps. needed holds per judged step the hints it
    needed: for an addition that passed as AT, the clauses that became
    unit and then the falsified one, listed from the falsified one back,
    as a replay lists them; for one that passed only as RAT, those of
    every resolvent's conflict; the given hints for a deletion. A needed
    clause is named, as _hint_record names a replay's, by the id its
    value took when its live copies last went from none to one, and not
    at all while a cube unit keeps it live. rat maps each addition that
    passed only as RAT to the values of its live neighbours (the clauses
    holding its negated pivot), as the replay engine's annotations give
    them, and applied holds the numbers of the deletions that removed a
    clause.

    judged, when given, holds the numbers of additions that an earlier
    check has propagated to a conflict over their hints, as AT. Their
    hints must still name older clauses with a live copy, as every
    step's must, but they are not propagated again: each needed what
    its hints name, in their order, renamed as above. Deletions and the
    naming are followed over every step either way.
    """
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError("mode must be %r or %r" % (STRICT, PERMISSIVE))
    if len(hints) != len(refutation):
        raise ValueError("hints must give one entry per proof step")
    start = time.perf_counter()
    literals, values, count, keys = _kept(formula, 2)
    literals = literals.copy()  # id -> the clause's literals
    key = list(range(1, len(values)))  # id -> its value's key; 0 (never live) for a deletion
    values = values.copy()  # key -> clause value
    count = count.copy()  # key -> live copies of the value
    keys = keys.copy()  # clause value -> key
    named = list(range(-1, len(values) - 1))  # key -> the id that names its live copies

    def key_of(clause):
        k = keys.get(clause)
        if k is None:
            k = keys[clause] = len(values)
            values.append(clause)
            count.append(0)
            named.append(None)
        return k

    # the cube's units: live clauses every check may use without naming them
    unit_keys = {}
    for lit in cube:
        k = key_of(Clause((lit,)))
        count[k] += 1
        unit_keys[k] = lit
    units = list(unit_keys.values())
    needed = [] if record else None
    rat = {}  # step -> its live neighbours' values
    applied = set()
    skipped = []
    derived = 0
    end = reason = None
    for i, ((op, clause), hint) in enumerate(zip(refutation, hints), 1):
        lits = clause.literals
        cid = len(literals)
        literals.append(lits)
        if op != ADD:
            key.append(0)
            if record:
                needed.append(hint)
            k = keys.get(clause)
            if k is not None and count[k]:
                count[k] -= 1
                applied.add(i)
                if k in unit_keys and not count[k]:
                    units = [l for u, l in unit_keys.items() if count[u]]
            elif mode == STRICT:
                end, reason = i, DELETION_ABSENT
                break
            else:
                skipped.append((i, clause))
            continue
        # every hint names an older clause whose value has a live copy
        for h in hint:
            if not (0 <= h < cid and count[key[h]]):
                end, reason = i, NOT_RAT if lits else NOT_AT
                break
        if end is not None:
            break
        # a replay, a trim and this check list a conflict's clauses from
        # the falsified one back in trail order, so reversed they are in
        # unit order and one pass suffices; other hints may take more
        hinted = hint[::-1]
        if judged is not None and i in judged:
            used = hinted  # the order an earlier propagation used them in
        else:
            true = _assumed(lits, units)
            used = ()
            if true is not None:
                used, n = _hinted_conflict(true, hinted, literals)
                derived += n
        if used is None and lits:
            # RAT on the pivot: every resolvent with a live clause
            # holding its negation is a tautology or conflicts
            pivot = lits[0]
            neighbours = [v for k, v in enumerate(values) if count[k] and -pivot in v]
            used = {}  # what the resolvents' conflicts used, in order
            for value in neighbours:
                true = _assumed(lits + tuple(m for m in value if m != -pivot), units)
                if true is not None:
                    conflict, n = _hinted_conflict(true, hinted, literals)
                    derived += n
                    if conflict is None:
                        used = None
                        break
                    used.update(dict.fromkeys(conflict))
            else:
                rat[i] = tuple(neighbours)
        if used is None:
            end, reason = i, NOT_RAT if lits else NOT_AT
            break
        if record:
            ids = [named[key[h]] for h in reversed(used)]
            if None in ids:
                ids = [h for h in ids if h is not None]
            needed.append(tuple(ids))
        if not lits:
            end = i
            break
        k = key_of(clause)
        key.append(k)
        count[k] += 1
        if count[k] == 1:
            named[k] = cid
            if k in unit_keys:
                units = [l for u, l in unit_keys.items() if count[u]]
    report = _report(start, refutation, end, reason, skipped, derived)
    if not record:
        return report, None
    return report, (refutation.steps[: len(needed)], needed, rat, applied)


def _hint_record(formula, cube, refutation, report, judged, skipped, clauses):
    """A record-mode replay of refutation against formula plus cube's
    units, as a hint check of it gives its outcome, and the deletions it
    skipped: (steps, needed, rat, applied, skipped numbers).

    Each step's ids keep the replay's order: for an AT check, the
    falsified clause, then the reasons it needed, latest derived first,
    so that reversed they are in unit order; a cube unit left out is
    supplied unnamed and breaks no order.

    report, judged, skipped and clauses are _replay's, serial or in two
    shares. steps are the judged steps, the proof's own, less the
    deletions that removed nothing: those permissive mode skipped and a
    strict failure's. needed holds per step the ids its check used,
    named as check_refutation's hints name them for steps against the
    formula: a formula clause keeps its id, a cube unit the formula
    lacks is left out, and a lemma is named by the step that made its
    value live, n_formula + i - 1 for step i. rat maps each addition
    that passed only as RAT to its neighbours' values, applied holds
    the numbers of the deletions, all of which removed a clause, and
    the skipped numbers are those, in the proof, of the deletions left
    out.
    """
    n_formula = len(formula.counts())
    new_units = len({l for l in cube if Clause((l,)) not in formula})
    # engine id -> hint id: a formula clause keeps its id, a cube unit has
    # none, and the engine gives each new lemma value the next id, so a
    # lemma's name is appended when the step that made it live comes
    hint_id = list(range(n_formula))
    hint_id += [None] * new_units
    name = hint_id.__getitem__
    removed_nothing = {i for i, _ in skipped}
    removed_nothing.add(report.failing_step)  # a failing deletion is of an absent clause
    steps, needed, rat, applied, left_out = [], [], {}, set(), []
    judged = iter(judged)
    for i, step in enumerate(refutation.steps[: report.steps_checked], 1):
        if not step.is_add:
            if i in removed_nothing:
                left_out.append(i)
                continue
            steps.append(step)
            needed.append(())
            applied.add(len(steps))
            continue
        steps.append(step)
        _, kind, used_ids, neighbor_ids, cid, _ = next(judged)
        ids = tuple(map(name, used_ids))
        if new_units and None in ids:
            ids = tuple(h for h in ids if h is not None)
        needed.append(ids)
        if kind == KIND_RAT:
            rat[len(steps)] = tuple(map(clauses.__getitem__, neighbor_ids))
        if cid == len(hint_id):
            hint_id.append(n_formula + len(steps) - 1)
    return steps, needed, rat, applied, left_out


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

    A replay of a proof with enough additions is judged in two shares,
    one on a forked worker (see the module docstring); its report and
    warnings are those of a serial replay, wall_time aside.

    hints, when given, holds one sequence of clause ids per proof step
    (deletions ignore theirs), and the proof is judged from them alone,
    without the replay engine. Ids name the formula's distinct clauses
    in ``counts()`` order, then one id per proof step in order; an
    addition's clause lives under its step's id, and a deletion's id
    names no clause. Each hinted id must be older than its step, and
    its clause value must have a live copy then: a deletion removes one
    copy of its value, whichever id named it. The negated addition must
    then reach a conflict by unit propagation over the hinted clauses
    alone, or, for a RAT lemma, every resolvent with a live clause
    holding the negated pivot must be a tautology or reach one the same
    way. With a cube, its units get no ids: each is a live clause that
    every propagation may use without naming it, and a deletion of its
    value removes it like any other copy. The report's propagations
    count the literals the hinted clauses derived. Hints that fall short
    only make a step fail: a valid proof with too few hints is rejected,
    an invalid one is never accepted.
    """
    if hints is not None:
        return _check_hinted(formula, refutation, mode, hints, cube)[0]
    return _replay(formula, refutation, mode, record=False, cube=cube)[0]


def annotate_refutation(
    formula: Formula, refutation: Refutation, mode: str = PERMISSIVE, *, cube=(), _record=False
):
    """Like check_refutation, but also return per-step replay annotations.

    cube means what it means for check_refutation: the proof is judged
    against the formula plus one unit clause per cube literal, and the
    report and annotations are those for that instance built out.

    An addition's used values, and its used_ids, list the clause its
    check falsified first, then the reason of each literal the conflict
    needed, latest derived first: reversed, each is unit in turn under
    the negated addition and the ones before it, and the last is
    falsified, as LRAT orders hints. A RAT addition lists each
    resolvent's so, in neighbour order, without repeats.

    Annotations also name clauses by id. A value gets the next id when
    its count goes from 0 to 1, the instance's in the order of its
    ``counts()`` first (the formula's clauses, then each cube unit the
    formula lacks, in cube order), so ids below the instance's distinct
    clause count are its clauses; a value keeps its id until its count is
    0 again. Judged in two shares, the annotations are the serial
    replay's.

    _record is for the stitcher's leaf checks and the trimmer's replays
    alone: with it, the second item is _hint_record's record of the same
    replay instead of the annotations. Those callers go through this
    function only because the benchmark's tracer counts leaf checks and
    trim replays from its calls; the keyword goes once the library
    keeps its own counters (ROADMAP item 1).
    """
    rep, judged, skipped, clauses = _replay(formula, refutation, mode, True, cube)
    if _record:
        return rep, _hint_record(formula, cube, refutation, rep, judged, skipped, clauses)
    removed_nothing = {i for i, _ in skipped}
    removed_nothing.add(rep.failing_step)  # a failing deletion is of an absent clause
    judged = iter(judged)
    named = clauses.__getitem__
    annotations = []
    for i, (op, clause) in enumerate(refutation.steps[: rep.steps_checked], 1):
        if op != ADD:
            sv = StepVerdict(i, DELETE, clause, KIND_DELETE, i not in removed_nothing, (), ())
        else:
            _, kind, used_ids, neighbor_ids, cid, _ = next(judged)
            used = tuple(map(named, used_ids))
            neighbors = tuple(map(named, neighbor_ids))
            sv = StepVerdict(i, ADD, clause, kind, True, used, neighbors, cid, used_ids)
        annotations.append(sv)
    return rep, tuple(annotations)
