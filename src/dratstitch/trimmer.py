"""Shrinking valid refutations by backward dependency marking.

A forward replay records which clauses each conflict derivation consumed;
a backward sweep from the final empty clause then marks the additions
actually needed, and everything unmarked is dropped. Marking is iterated
until the kept additions are a fixpoint (the add multiset shrinks
monotonically, so this terminates), which is what makes trimming
idempotent rather than merely shrinking.

Steps that passed only the resolution check are handled conservatively:
deleting clauses can enlarge the set of resolution obligations, so in
that case every applied deletion, and every addition of a deleted
clause, is kept.

Every candidate after the input is replayed in strict mode, so the last
analysis of the fixpoint is also the strict re-check of the output. A
candidate's replay resumes from the analysis it was derived from: the
leading steps it shares with that analysis's proof keep the verdicts
given to them there, in the same database state, and every later step is
judged strictly.
"""

import time
from collections import Counter
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
    """One replay of a valid proof with per-step dependency attribution."""

    def __init__(self, formula, refutation, mode, resume=None):
        report, ann = annotate_refutation(formula, refutation, mode, resume=resume)
        if not report.valid:
            raise InvalidProofError("input proof is %s" % report.failure_text())
        self.replay = (report, ann)  # what a later replay can resume from
        self.ann = ann

        # Replay the clause multiset structurally, giving every clause
        # instance an id so dependencies can be attributed to the oldest
        # alive instance of each value.
        alive = {}  # clause value -> [instance ids], oldest first
        inst_clause = {}
        next_id = 0
        self.phi_ids = {}  # clause value -> ids of original instances
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
        self.any_rat = False
        self.applied_delete_values = set()

        for sv in ann:
            if sv.op == ADD:
                dep_ids = []
                for value in sv.used:
                    ids = alive.get(value)
                    assert ids, "checker used a dead clause value"
                    dep_ids.append(ids[0])
                if sv.kind == KIND_RAT:
                    self.any_rat = True
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

        if self.any_rat:
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

    def with_deletions(self):
        """Marked adds interleaved with one deletion per kept non-original
        clause, placed right after its last marked use; None when there is
        nothing to delete."""
        events = []
        for sv in self.ann:
            if sv.op == ADD and sv.index in self.marked_steps:
                events.append((sv.index, 0, 0, ProofStep(ADD, sv.clause)))
        count = 0
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
            count += 1
        if not count:
            return None
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return [step for *_, step in events]

    def core(self) -> Formula:
        counts = Counter()
        for iid in self.marked_instances:
            if iid < self.n_phi:
                counts[self.inst_clause[iid]] += 1
        return Formula.from_counts(counts.items())


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
    emit = _Analysis.kept_steps if analysis.any_rat else _Analysis.marked_adds
    steps = emit(analysis)
    while True:
        analysis = _reanalyze(formula, steps, analysis)
        again = emit(analysis)
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
