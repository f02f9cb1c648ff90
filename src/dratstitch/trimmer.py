"""Shrinking valid refutations by backward dependency marking.

An analysis judges every step of a proof and records which clauses each
check consumed; a backward sweep from the final empty clause then marks
the additions actually needed, and everything unmarked is dropped. An
analysis has one of two sources: a replay by the checker's engine, or,
when the caller has hints (ids of the clauses each addition needs, as
``check_refutation`` takes them), a check by the hint checker. Both
give the same record, and one class marks it: the judged steps, the ids
each check used, the RAT steps with their neighbours, and the deletions
that removed a clause. A replay's record comes straight from the
checker (``annotate_refutation(..., _record=True)``), less the
deletions the replay skipped. Each analysis proposes one candidate: its
kept steps when it has RAT steps (below); otherwise, while resynthesis
is on, its marked additions with each kept lemma deleted right after
its last marked use, if that deletes anything and fits in the input's
steps and bytes; otherwise its marked additions. The first
resynthesized candidate that does not fit turns resynthesis off; one
with too many steps is found so by counting its deletions, before it is
built. Every candidate is judged strictly by the source that judged the
input, and one that fails is an internal error. An instance (formula
plus cube units) that propagates to a conflict by itself proposes the
empty clause alone, hinted by that conflict. A replayed candidate is
judged from its first step; a hinted candidate carries the hints of its
kept additions, renumbered to its steps. The loop ends when an analysis
proposes its own proof again, so its last analysis is the strict
re-check of the output, deletions included, and trimming is idempotent
rather than merely shrinking.

The hint source needs no replay, and its output need not trust the
hints: the input is judged by the hint checker before anything is
marked, and the output is always judged again, in full. The input is
judged in full too, unless combine_all says which of its additions no
previous check (a leaf's replay, or the final check of a trim below)
has propagated to a conflict over their hints: only those are
propagated, and the hints of the others must still name live, older
clauses, each being charged with the clauses its hints name. That checker
accepts an addition only when unit propagation over the clauses its
hints name, all live and older, reaches a conflict (from every
resolvent, for a RAT step), so a broken hint makes a check reject,
never accept, and a rejection raises TrimInternalError. A broken hint
on a step judged earlier reaches no output unchecked: if the output
keeps the step, the output's own check propagates it. For a RAT step
the hint checker gives the neighbours it found, as a replay does, so
the RAT rule below marks from either source. A hinted candidate may
pass only as RAT the additions its source passed so; any other such
addition raises TrimInternalError.

The loop terminates. Additions only shrink, because each candidate's
additions are a subsequence of the previous one's. While resynthesis is
on, a deleted lemma cannot be used after its deletion, so its next
deletion sits no later, and a lemma can only gain a deletion, never lose
one. Once resynthesis is off, the loop is the plain fixpoint of marked
additions. The off-switch is needed: a candidate that fits could have a
successor that gains deletions and no longer fits; that successor's
marked additions could lead back to the candidate, and the loop would
alternate between the two forever.

A fixpoint with resynthesis is not always the smaller one. A
resynthesized deletion takes its lemma away from every later check, so
the later lemmas an earlier analysis marked can stay needed, where plain
marking, with the lemma still live, finds shorter derivations and drops
them: one RAT proof of the tests keeps 7 additions with resynthesis and
5 without.

Uses are charged to hint ids, whichever source judged the proof. An id
below the formula's distinct clause count is a formula clause, and id
n_formula + i - 1 is step i's. A use of a lemma names the step that
made its value live, which is the addition the use marks and the lemma
a resynthesized deletion removes; the name holds while the value has a
live copy, since a deletion removes one copy of a value, whichever one.
A cube unit has no id, as a hint check supplies it unnamed. The core is
the formula clauses that marked steps used, in formula order, which are
the formula clauses the output's hints name, and it has no cube unit.

Steps that passed only the resolution check are handled conservatively:
deleting clauses can enlarge the set of resolution obligations, so when
an analysis has such a step, every applied deletion, and every addition
of a deleted clause, is kept, and every formula copy of a deleted clause
counts in the core. A marked RAT step used every live copy of each
neighbour, so it marks every earlier addition of a neighbour value and
puts every formula copy of it in the core. Each analysis decides for
itself: when the fixpoint drops the last RAT step, the next candidate
keeps only marked additions, so trimming a RAT proof is idempotent too.
"""

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .checker import (
    PERMISSIVE,
    STRICT,
    _check_hinted,
    _root_conflict,
    annotate_refutation,
)
from .core import ADD, DELETE, EMPTY_CLAUSE, Formula, ProofStep, Refutation, _step
from .formats import drat_size


class InvalidProofError(Exception):
    """trim and unsat_core require an input proof that already checks out."""


class TrimInternalError(Exception):
    """The trimmed proof failed its own re-check; always a bug, never silent."""


@dataclass(frozen=True)
class TrimReport:
    input_steps: int
    output_steps: int
    input_bytes: int
    output_bytes: int
    wall_time: float
    # builds the core; a merge's trim never reads it
    build_core: Callable[[], Formula] = field(compare=False, repr=False)
    # the numbers of the output's additions that passed only as RAT
    rat_steps: tuple = field(default=(), compare=False, repr=False)
    # the output's hints, one tuple of ids per output step, as check_refutation takes them
    hints: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def core(self) -> Formula:
        """The part of the formula the output's final check relied on,
        built on first read."""
        return self.build_core()

    @property
    def core_clauses(self) -> int:
        return len(self.core)


class _Analysis:
    """The record of one check of a valid proof, and the marking over it.

    steps are the judged steps, ending at the final empty clause, and
    used[i] the ids the check of steps[i] used, named as
    ``check_refutation``'s hints name them: ids below the formula's
    distinct clause count are its clauses, and id n_formula + i - 1 is
    step i's. rat maps each addition that passed only as RAT to its
    neighbours' values, and applied holds the deletions that removed a
    clause.
    """

    def __init__(self, formula, steps, used, rat, applied):
        self.steps = steps
        self.used = used
        self.formula = formula
        self.n_formula = n_formula = len(formula.counts())  # ids below this are formula clauses
        self.final_index = final_index = len(steps)
        assert steps[-1].is_add and len(steps[-1].clause) == 0
        self.applied = applied
        self.rat = rat

        self.marked_steps = marked = {final_index}
        self.last_use = last_use = {}  # marked clause id -> its last marked use
        self.whole = whole = set()  # values with every formula copy in the core
        if rat:
            # deletions stay, so additions of deleted values must stay too
            adds = {}  # clause value -> indices of its additions
            for i, step in enumerate(steps, 1):
                if step.is_add:
                    adds.setdefault(step.clause, []).append(i)
            deleted = {steps[i - 1].clause for i in applied}
            for value in deleted:
                marked.update(adds.get(value, ()))
            whole |= deleted

        for i in range(final_index, 0, -1):
            if i not in marked:
                continue
            for cid in used[i - 1]:
                if cid not in last_use:
                    last_use[cid] = i
                    if cid >= n_formula:
                        marked.add(cid - n_formula + 1)
            if i in rat:
                # the check used every live copy of each neighbour
                for value in rat[i]:
                    whole.add(value)
                    marked.update(j for j in adds.get(value, ()) if j < i)

    def marked_adds(self):
        return [self.steps[i - 1] for i in sorted(self.marked_steps)]

    def kept_steps(self):
        """RAT-conservative output: marked adds plus all applied deletions."""
        return [
            step
            for i, step in enumerate(self.steps, 1)
            if i in self.marked_steps or i in self.applied
        ]

    def emit(self):
        """The candidate without resynthesis: kept_steps with RAT steps, else marked_adds."""
        return self.kept_steps() if self.rat else self.marked_adds()

    def deletion_count(self):
        """How many deletions with_deletions places."""
        n, final_index = self.n_formula, self.final_index
        return sum(1 for cid, last in self.last_use.items() if cid >= n and last < final_index)

    def with_deletions(self):
        """Marked adds interleaved with one deletion per kept lemma id,
        placed right after its last marked use; None when there is
        nothing to delete."""
        steps = self.steps
        n = self.n_formula
        deletions = [
            (last, 1, cid, _step(DELETE, steps[cid - n].clause))
            for cid, last in self.last_use.items()
            # deleting after the final empty clause is dead weight
            if cid >= n and last < self.final_index
        ]
        if not deletions:
            return None
        events = deletions + [(i, 0, 0, steps[i - 1]) for i in self.marked_steps]
        events.sort(key=lambda e: e[:3])
        return [step for *_, step in events]

    def core(self) -> Formula:
        """The formula clauses the marked steps used, in formula order."""
        return Formula.from_counts(
            (clause, k if clause in self.whole else 1)
            for cid, (clause, k) in enumerate(self.formula.counts())
            if clause in self.whole or cid in self.last_use
        )

    def hints_of(self, candidate):
        """The hints of a candidate of marked additions, deletions between
        them: each addition's uses, renumbered to the candidate's steps."""
        n = self.n_formula
        sources = iter(sorted(self.marked_steps))
        new_id = {}
        out = []
        for position, step in enumerate(candidate, n):
            if not step.is_add:
                out.append(())
                continue
            i = next(sources)
            new_id[n + i - 1] = position
            out.append(tuple(h if h < n else new_id[h] for h in self.used[i - 1]))
        return out


def _replayed(formula, refutation, mode, cube):
    """The analysis of a replay of refutation against formula plus cube's units."""
    report, record = annotate_refutation(formula, refutation, mode, cube=cube, _record=True)
    if not report.valid:
        raise InvalidProofError("input proof is %s" % report.failure_text())
    steps, used, rat, applied, _ = record
    return _Analysis(formula, steps, used, rat, applied)


def _hinted(formula, refutation, mode, hints, cube, fresh=None):
    """The analysis of a hint check of refutation, judged as _check_hinted
    takes it; a check that rejects raises TrimInternalError."""
    report, record = _check_hinted(formula, refutation, mode, hints, cube, fresh, record=True)
    if not report.valid:
        raise TrimInternalError("hinted proof is %s" % report.failure_text())
    return _Analysis(formula, *record)


def _converge(formula, analysis, input_steps, input_bytes, sizes, resynthesize, cube, hinted):
    """Iterate marking until stable; returns (steps, analysis of them).

    analysis is the input's, judged in the caller's mode, and every
    candidate is judged strictly, from hints when hinted, else replayed.
    The candidate rule is the module's. The returned analysis checks
    exactly the returned steps, and its core and hints pair with them.
    """
    conflict = _root_conflict(formula, cube)
    steps = None  # the input itself still needs its strict check
    while True:
        if conflict is not None:
            again = [ProofStep(ADD, EMPTY_CLAUSE)]
        else:
            again = None
            if resynthesize and not analysis.rat:
                # counted first, so a candidate with too many steps is never built
                if len(analysis.marked_steps) + analysis.deletion_count() > input_steps:
                    resynthesize = False
                else:
                    again = analysis.with_deletions()
                    if again is not None and drat_size(again, sizes) > input_bytes:
                        resynthesize, again = False, None
            if again is None:
                again = analysis.emit()
        if again == steps:
            return steps, analysis
        steps = again
        if not hinted:
            try:
                analysis = _replayed(formula, Refutation(steps), STRICT, cube)
            except InvalidProofError as exc:
                raise TrimInternalError(
                    "internal trim candidate failed to check: %s" % exc
                ) from exc
            continue
        hints = [conflict] if conflict is not None else analysis.hints_of(steps)
        marked, rat = analysis.marked_steps, analysis.rat
        analysis = _hinted(formula, Refutation(steps), STRICT, hints, cube)
        if analysis.rat:
            adds = (j for j, step in enumerate(steps, 1) if step.is_add)
            allowed = {j for j, i in zip(adds, sorted(marked)) if i in rat}
            if not analysis.rat.keys() <= allowed:
                # its source passed the step as AT: hints handed up from below fall short
                raise TrimInternalError("internal trim candidate passed only as RAT")


def trim(
    formula: Formula,
    refutation: Refutation,
    mode: str = PERMISSIVE,
    resynthesize_deletions: bool = True,
    *,
    cube=(),
    hints=None,
    _fresh=None,
):
    """Shrink a valid refutation; returns (trimmed, report).

    The output is never longer than the input, in steps or serialized
    bytes, and has passed a strict check before being returned: the last
    analysis of the fixpoint, which judges exactly the output, its
    resynthesized deletions included. The report's core is the part of
    the formula that check relied on, built when first read. A candidate
    that fails its check raises TrimInternalError.

    cube is a sequence of literals, as for check_refutation: the proof
    then refutes the formula plus one unit clause per cube literal, and
    steps and sizes are those of a trim against that instance built
    out. The core is the formula's clauses the output relied on and has
    no cube unit. When the formula plus the cube's units propagates to a
    conflict, the output is the empty clause alone. Every replay copies
    the formula's kept database, so the trims of many sub-problems of
    one formula index it once.

    hints, as check_refutation takes them (with the cube's units
    unnamed), make every analysis a hint check instead of a replay: the
    input is checked in mode and each candidate strictly, and a check
    that rejects raises TrimInternalError. Without hints every analysis
    is a replay. Either way the report's hints are the output's, one
    tuple per output step, which check_refutation accepts with the same
    cube, its core is the formula clauses they name, and its rat_steps
    number the output's additions that passed only as RAT.

    _fresh is for combine_all alone: the set of the numbers of the
    input's additions that no earlier check has propagated over their
    hints (see _check_hinted). The input check then propagates only
    those; every candidate is still checked in full. Without it, the
    input is judged in full.
    """
    start = time.perf_counter()
    input_steps = len(refutation)
    sizes = {}  # clause value -> its line's bytes, for every size below
    input_bytes = drat_size(refutation, sizes)

    hinted = hints is not None
    if hinted:
        analysis = _hinted(formula, refutation, mode, hints, cube, _fresh)
    else:
        analysis = _replayed(formula, refutation, mode, cube)
    steps, analysis = _converge(
        formula, analysis, input_steps, input_bytes, sizes, resynthesize_deletions, cube, hinted
    )
    trimmed = Refutation(steps)

    output_bytes = drat_size(trimmed, sizes)
    if len(trimmed) > input_steps or output_bytes > input_bytes:
        raise TrimInternalError("trimmed proof is larger than its input")
    report = TrimReport(
        input_steps=input_steps,
        output_steps=len(trimmed),
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        wall_time=time.perf_counter() - start,
        build_core=analysis.core,
        rat_steps=tuple(sorted(analysis.rat)),
        hints=tuple(analysis.used),
    )
    return trimmed, report


def unsat_core(formula: Formula, refutation: Refutation, mode: str = PERMISSIVE) -> Formula:
    """The sub-multiset of the formula that the trimmed proof relies on.

    This is the core of trim's report, so it checks out against trim's
    output. It is sufficient, not minimal.
    """
    _, report = trim(formula, refutation, mode)
    return report.core
