"""Shrinking valid refutations by backward dependency marking.

A forward replay records which clauses each conflict derivation consumed;
a backward sweep from the final empty clause then marks the additions
actually needed, and everything unmarked is dropped. Each analysis
proposes one candidate: its kept steps when it has RAT steps (below);
otherwise, while resynthesis is on, its marked additions with each kept
lemma deleted right after its last marked use, if that deletes anything
and fits in the input's steps and bytes; otherwise its marked additions.
The first resynthesized candidate that does not fit turns resynthesis
off. Every candidate is replayed strictly, resuming from the analysis it
came from (shared leading steps keep their verdicts and every later step
is judged), and one that fails is an internal error. The loop ends when
an analysis proposes its own proof again, so its last analysis is the
strict re-check of the output, deletions included, and trimming is
idempotent rather than merely shrinking.

The loop terminates. Additions only shrink, because each candidate's
additions are a subsequence of the previous one's. While resynthesis is
on, a deleted lemma cannot be used after its deletion, so its next
deletion sits no later, and a lemma can only gain a deletion, never lose
one. Once resynthesis is off, the loop is the plain fixpoint of marked
additions. The off-switch is needed: a candidate that fits could have a
successor that gains deletions and no longer fits; that successor's
marked additions could lead back to the candidate, and the loop would
alternate between the two forever.

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
"""

import time
from dataclasses import dataclass, field

from .checker import KIND_RAT, PERMISSIVE, STRICT, _instance_at, annotate_refutation
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
    """One replay of a valid proof, its uses charged to the engine's clause ids.

    The proof refutes the formula plus one unit clause per cube literal,
    and that instance's clauses are the formula clauses here.
    """

    def __init__(self, formula, refutation, mode, resume=None, cube=()):
        report, ann = annotate_refutation(formula, refutation, mode, resume=resume, cube=cube)
        if not report.valid:
            raise InvalidProofError("input proof is %s" % report.failure_text())
        self.replay = (report, ann)  # what a later replay can resume from
        self.ann = ann
        self.formula = _instance_at(formula, cube)
        self.n_formula = len(self.formula.counts())  # ids below this are formula clauses
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
        """The candidate without resynthesis: kept_steps with RAT steps, else marked_adds."""
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


def _converge(formula, refutation, mode, resynthesize, input_bytes, cube):
    """Iterate marking until stable; returns (steps, analysis of them).

    The candidate rule is the module's. Only the input is replayed in the
    caller's mode and every candidate strictly, so the returned analysis
    checks exactly the returned steps, and its core pairs with them.
    """
    input_steps = len(refutation)

    analysis = _Analysis(formula, refutation, mode, cube=cube)
    steps = None  # the input itself still needs its strict replay
    while True:
        again = analysis.with_deletions() if resynthesize and not analysis.any_rat else None
        if again is not None and (
            len(again) > input_steps or len(write_drat(Refutation(again))) > input_bytes
        ):
            resynthesize, again = False, None
        if again is None:
            again = analysis.emit()
        if again == steps:
            return steps, analysis
        steps = again
        try:
            analysis = _Analysis(formula, Refutation(steps), STRICT, analysis.replay, cube)
        except InvalidProofError as exc:
            raise TrimInternalError("internal trim candidate failed to check: %s" % exc) from exc


def trim(
    formula: Formula,
    refutation: Refutation,
    mode: str = PERMISSIVE,
    resynthesize_deletions: bool = True,
    *,
    cube=(),
):
    """Shrink a valid refutation; returns (trimmed, report).

    The output is never longer than the input, in steps or serialized
    bytes, and has passed a strict check before being returned: the last
    analysis of the fixpoint, which replays exactly the output, its
    resynthesized deletions included. The report's core is the part of
    the formula that check relied on. A candidate that fails its check
    raises TrimInternalError.

    cube is a sequence of literals, as for check_refutation: the proof
    then refutes the formula plus one unit clause per cube literal, and
    steps and report, core included, are those of a trim against that
    instance built out. Every replay copies the formula's kept database,
    so the trims of many sub-problems of one formula index it once.
    """
    start = time.perf_counter()
    input_steps = len(refutation)
    input_bytes = len(write_drat(refutation))

    steps, analysis = _converge(
        formula, refutation, mode, resynthesize_deletions, input_bytes, cube
    )
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
