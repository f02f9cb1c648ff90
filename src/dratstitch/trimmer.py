"""Shrinking valid refutations by backward dependency marking.

A forward replay records which clauses each conflict derivation consumed;
a backward sweep from the final empty clause then marks the additions
actually needed, and everything unmarked is dropped. Marking is iterated
until the output is a fixpoint (each candidate is a subsequence of the
proof it came from, so this terminates), which is what makes trimming
idempotent rather than merely shrinking.

Uses are charged to the checker's clause ids. A value holds one id from
the moment its count leaves 0 until it is 0 again, and deletions remove
the youngest instance first, so the id names the oldest live instance:
the one a use keeps alive. An id below the formula's distinct clause
count is a formula clause, and any other id was issued by the first
addition that carries it, which is the addition a use of it marks. The
core is the formula clauses that marked steps used, in formula order.

Steps that passed only the resolution check are handled conservatively:
deleting clauses can enlarge the set of resolution obligations, so when
an analysis has such a step, every applied deletion, and every addition
of a deleted clause, is kept, and every formula copy of a deleted clause
counts in the core. A marked RAT step used every live copy of each
neighbour, so it marks every earlier addition of a neighbour value and
puts every formula copy of it in the core. Each analysis decides for
itself: when the fixpoint drops the last RAT step, the next candidate
keeps only marked additions, so trimming a RAT proof is idempotent too.

Every candidate after the input is replayed in strict mode, so the last
analysis of the fixpoint is also the strict re-check of the output. A
candidate's replay resumes from the analysis it was derived from: the
leading steps it shares with that analysis's proof keep the verdicts
given to them there, in the same database state, and every later step is
judged strictly.
"""

import time
from dataclasses import dataclass, field

from .checker import KIND_RAT, PERMISSIVE, STRICT, annotate_refutation
from .core import ADD, DELETE, Formula, ProofStep, Refutation
from .formats import write_drat


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
    core_clauses: int
    wall_time: float
    core: Formula = field(compare=False, repr=False)


class _Analysis:
    """One replay of a valid proof, its uses charged to the engine's clause ids."""

    def __init__(self, formula, refutation, mode, resume=None):
        report, ann = annotate_refutation(formula, refutation, mode, resume=resume)
        if not report.valid:
            raise InvalidProofError("input proof is %s" % report.failure_text())
        self.replay = (report, ann)  # what a later replay can resume from
        self.ann = ann
        self.formula = formula
        self.n_formula = len(formula.counts())  # ids below this are formula clauses
        final = ann[-1]
        assert final.op == ADD and len(final.clause) == 0
        self.final_index = final.index

        self.born = born = {}  # clause id -> the first addition carrying it
        adds = {}  # clause value -> indices of its additions
        deleted = set()  # values with an applied deletion
        for sv in ann:
            if sv.op == ADD:
                born.setdefault(sv.clause_id, sv)
                adds.setdefault(sv.clause, []).append(sv.index)
            elif sv.applied:
                deleted.add(sv.clause)
        self.any_rat = any(sv.kind == KIND_RAT for sv in ann)

        self.marked_steps = marked = {final.index}
        self.last_use = last_use = {}  # marked clause id -> its last marked use
        self.whole = whole = set()  # values with every formula copy in the core
        if self.any_rat:
            # deletions stay, so additions of deleted values must stay too
            for value in deleted:
                marked.update(adds.get(value, ()))
            whole |= deleted

        for sv in reversed(ann):
            if sv.op != ADD or sv.index not in marked:
                continue
            for cid in sv.used_ids:
                if cid not in last_use:
                    last_use[cid] = sv.index
                    if cid >= self.n_formula:
                        marked.add(born[cid].index)
            if sv.kind == KIND_RAT:
                # the check used every live copy of each neighbour
                for value in sv.rat_neighbors:
                    whole.add(value)
                    marked.update(i for i in adds.get(value, ()) if i < sv.index)

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
        return self.kept_steps() if self.any_rat else self.marked_adds()

    def with_deletions(self):
        """Marked adds interleaved with one deletion per kept non-original
        clause, placed right after its last marked use; None when there is
        nothing to delete."""
        deletions = [
            (last, 1, cid, ProofStep(DELETE, self.born[cid].clause))
            for cid, last in self.last_use.items()
            # deleting after the final empty clause is dead weight
            if cid >= self.n_formula and last < self.final_index
        ]
        if not deletions:
            return None
        events = deletions + [
            (sv.index, 0, 0, ProofStep(ADD, sv.clause))
            for sv in self.ann
            if sv.op == ADD and sv.index in self.marked_steps
        ]
        events.sort(key=lambda e: e[:3])
        return [step for *_, step in events]

    def core(self) -> Formula:
        """The formula clauses the marked steps used, in formula order."""
        return Formula.from_counts(
            (clause, k if clause in self.whole else 1)
            for cid, (clause, k) in enumerate(self.formula.counts())
            if clause in self.whole or cid in self.last_use
        )


def _reanalyze(formula, steps, previous):
    try:
        return _Analysis(formula, Refutation(steps), STRICT, previous.replay)
    except InvalidProofError as exc:
        raise TrimInternalError("internal trim candidate failed to check: %s" % exc) from exc


def _converge(formula, refutation, mode, resynthesize, input_bytes):
    """Iterate marking until stable; returns (steps, analysis of them).

    Only the input is replayed in the caller's mode. Every candidate is
    replayed strictly, so the returned analysis is a strict check of
    exactly the returned steps and the reported core pairs with them.
    Each candidate's replay resumes from the analysis it was derived from.
    """
    input_steps = len(refutation)

    analysis = _Analysis(formula, refutation, mode)
    steps = analysis.emit()
    while True:
        analysis = _reanalyze(formula, steps, analysis)
        again = analysis.emit()
        if again == steps:
            break
        steps = again

    if not analysis.any_rat and resynthesize:
        candidate = analysis.with_deletions()
        if (
            candidate is not None
            and len(candidate) <= input_steps
            and len(write_drat(Refutation(candidate))) <= input_bytes
        ):
            # accept the deletions only if they leave the marking alone,
            # which keeps repeated trimming stable
            try:
                verify = _Analysis(formula, Refutation(candidate), STRICT, analysis.replay)
            except InvalidProofError:
                verify = None
            if (
                verify is not None
                and not verify.any_rat
                and verify.marked_adds() == steps
            ):
                return candidate, verify
    return steps, analysis


def trim(
    formula: Formula,
    refutation: Refutation,
    mode: str = PERMISSIVE,
    resynthesize_deletions: bool = True,
):
    """Shrink a valid refutation; returns (trimmed, report).

    The output is never longer than the input, in steps or serialized
    bytes, and has passed a strict check before being returned. The
    report's core is the part of the formula that check relied on.
    """
    start = time.perf_counter()
    input_steps = len(refutation)
    input_bytes = len(write_drat(refutation))

    steps, analysis = _converge(formula, refutation, mode, resynthesize_deletions, input_bytes)
    trimmed = Refutation(steps)

    output_bytes = len(write_drat(trimmed))
    if len(trimmed) > input_steps or output_bytes > input_bytes:
        raise TrimInternalError("trimmed proof is larger than its input")
    core = analysis.core()
    report = TrimReport(
        input_steps=input_steps,
        output_steps=len(trimmed),
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        core_clauses=len(core),
        wall_time=time.perf_counter() - start,
        core=core,
    )
    return trimmed, report


def unsat_core(formula: Formula, refutation: Refutation, mode: str = PERMISSIVE) -> Formula:
    """The sub-multiset of the formula that the trimmed proof relies on.

    This is the core of trim's report, so it checks out against trim's
    output. It is sufficient, not minimal.
    """
    _, report = trim(formula, refutation, mode)
    return report.core
