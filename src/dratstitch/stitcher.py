"""Combining per-cube refutations bottom-up over the decision tree.

Two refutations of formula+{x} and formula+{-x} merge into one refutation
of formula by widening every clause of the first with -x, every clause of
the second with x, and closing with the empty clause. The widened literal
is appended last so each clause's first literal, the resolution pivot,
survives the merge. Over a full cube set this is applied bottom-up,
deepest tree level first, one merge at a time in a fixed order.
"""

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from .checker import STRICT, annotate_refutation, check_refutation, first_violation
from .core import ADD, Clause, EMPTY_CLAUSE, Formula, ProofStep, Refutation
from .formats import Cube, ProofBundle, parse_drat, write_drat
from .trimmer import trim


class IncompletePartitionError(Exception):
    """The cubes do not split every branch point on a single variable."""


class MissingSiblingError(Exception):
    """A branch point has proofs for only one polarity."""


class InconsistentDecisionOrderError(Exception):
    """One cube is a strict prefix of another, so the tree shape is ambiguous."""


class InvalidSubProofError(Exception):
    """An input refutation does not check out against its sub-instance."""


class NonPreservingInputError(Exception):
    """An input refutation deletes some clause more often than it adds it."""


class RepairError(Exception):
    """Deletions could not be stripped without breaking the proof."""


@dataclass(frozen=True)
class Leaf:
    cube: Cube
    refutation: Refutation


@dataclass(frozen=True)
class Inner:
    var: int
    pos_child: "CubeNode"
    neg_child: "CubeNode"


CubeNode = Union[Leaf, Inner]


def build_cube_tree(bundle: ProofBundle) -> CubeNode:
    """Arrange a bundle's cubes into the full binary tree they came from.

    Every branch point must decide one variable, positively on one side
    and negatively on the other, in a consistent decision order.
    """
    if not bundle.entries:
        raise ValueError("bundle has no proofs")
    items = [(e.cube.literals, e) for e in bundle.entries]
    return _build(items, ())


def _build(items, prefix):
    if len(items) == 1 and not items[0][0]:
        entry = items[0][1]
        return Leaf(entry.cube, entry.refutation)
    done = [e for rest, e in items if not rest]
    if done:
        raise InconsistentDecisionOrderError(
            "cube %r is a prefix of %d sibling cube(s)" % (done[0].cube, len(items) - len(done))
        )
    branch_vars = sorted({abs(rest[0]) for rest, _ in items})
    if len(branch_vars) != 1:
        raise IncompletePartitionError(
            "cubes below %s branch on different variables %s: %s"
            % (list(prefix), branch_vars, [e.cube for _, e in items])
        )
    var = branch_vars[0]
    pos = [(rest[1:], e) for rest, e in items if rest[0] == var]
    neg = [(rest[1:], e) for rest, e in items if rest[0] == -var]
    if not pos or not neg:
        raise MissingSiblingError(
            "no proof for branch %d below %s" % (-var if not pos else var, list(prefix))
        )
    return Inner(var, _build(pos, prefix + (var,)), _build(neg, prefix + (-var,)))


def _require_sub_proof(instance, proof, label, mode):
    offender = first_violation(proof)
    if offender is not None:
        raise NonPreservingInputError(
            "%s: %r is deleted more often than added" % (label, offender)
        )
    report = check_refutation(instance, proof, mode=mode)
    if not report.valid:
        raise InvalidSubProofError(
            "%s: invalid at step %s (%s)" % (label, report.failing_step, report.reason)
        )


def stitch(
    formula: Formula,
    decision: int,
    pos_proof: Refutation,
    neg_proof: Refutation,
    validate: bool = True,
    mode: str = STRICT,
) -> Refutation:
    """Merge refutations of formula+{decision} and formula+{-decision}.

    The output has len(pos_proof) + len(neg_proof) + 1 steps and refutes
    the formula alone. With validate on, both inputs must check out and
    be preserving for their sub-instances first.
    """
    if decision == 0:
        raise ValueError("0 is not a decision literal")
    if validate:
        _require_sub_proof(_instance_at(formula, (decision,)), pos_proof, "branch %d" % decision, mode)
        _require_sub_proof(_instance_at(formula, (-decision,)), neg_proof, "branch %d" % -decision, mode)
    steps = []
    for step in pos_proof:
        steps.append(ProofStep(step.op, step.clause.with_literal(-decision)))
    for step in neg_proof:
        steps.append(ProofStep(step.op, step.clause.with_literal(decision)))
    steps.append(ProofStep(ADD, EMPTY_CLAUSE))
    return Refutation(steps)


def _addition_lengths(refutation):
    """(total literals, count, mean) over the addition steps; the mean is 0.0 for none."""
    total = 0
    count = 0
    for step in refutation:
        if step.is_add:
            total += len(step.clause)
            count += 1
    return total, count, total / count if count else 0.0


def average_clause_length(refutation: Refutation) -> float:
    """Mean literal count over addition steps; 0.0 for no additions."""
    return _addition_lengths(refutation)[2]


@dataclass(frozen=True)
class StitchJob:
    depth: int
    path: tuple  # decision literals from the root down to this node
    var: int


@dataclass(frozen=True)
class StitchPlan:
    """Inner nodes grouped by depth, deepest level first."""

    levels: tuple

    @property
    def merges(self) -> int:
        return sum(len(level) for level in self.levels)


def build_plan(tree: CubeNode) -> StitchPlan:
    jobs = []

    def walk(node, path):
        if isinstance(node, Leaf):
            return
        jobs.append(StitchJob(len(path), path, node.var))
        walk(node.pos_child, path + (node.var,))
        walk(node.neg_child, path + (-node.var,))

    walk(tree, ())
    by_depth = {}
    for job in jobs:
        by_depth.setdefault(job.depth, []).append(job)
    levels = tuple(
        tuple(sorted(by_depth[d], key=lambda j: j.path)) for d in sorted(by_depth, reverse=True)
    )
    return StitchPlan(levels)


@dataclass(frozen=True)
class StitchRecord:
    """What one merge did; handed to combine_all's observer."""

    depth: int
    path: tuple
    var: int
    add_count: int
    add_literal_total: int
    average_clause_length: float
    trimmed: bool
    steps_before: int
    steps_after: int
    merge_seconds: float
    trim_seconds: float


class SpillStore:
    """Keeps intermediate refutations on disk instead of in memory."""

    def __init__(self, directory, threshold_steps: int = 0):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.threshold_steps = threshold_steps

    def put(self, path_key, refutation):
        if len(refutation) < self.threshold_steps:
            return refutation
        name = "node%s.drat" % "".join("_%d" % l for l in path_key)
        target = self.directory / (name if path_key else "node_root.drat")
        target.write_text(write_drat(refutation))
        return target

    def get(self, stored):
        if isinstance(stored, Refutation):
            return stored
        return parse_drat(stored.read_text())


def _instance_at(formula, path):
    out = formula
    for lit in path:
        out = out.add(Clause((lit,)))
    return out


def _leaves(tree):
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            yield node, path
        else:
            stack.append((node.neg_child, path + (-node.var,)))
            stack.append((node.pos_child, path + (node.var,)))


def combine_all(
    formula: Formula,
    tree: CubeNode,
    cl_avg: int = -1,
    validate: bool = True,
    mode: str = STRICT,
    on_record: Optional[Callable] = None,
    spill: Optional[SpillStore] = None,
) -> Refutation:
    """Merge a whole cube tree into one refutation of the formula.

    cl_avg gates the per-merge trimming pass: -1 never trims, 0 trims
    after every merge, k > 0 trims when the merged proof's average
    addition length exceeds k. Merges run one at a time, deepest level
    first; spilling intermediates to disk does not change the output.
    """
    if cl_avg < -1:
        raise ValueError("cl_avg must be -1 or a nonnegative threshold")

    if validate:
        for leaf, path in _leaves(tree):
            _require_sub_proof(
                _instance_at(formula, path), leaf.refutation, "cube %s" % leaf.cube.filename(), mode
            )

    if isinstance(tree, Leaf):
        return tree.refutation

    results = {}
    for leaf, path in _leaves(tree):
        stored = leaf.refutation if spill is None else spill.put(path, leaf.refutation)
        results[path] = stored

    def fetch(path):
        stored = results[path]
        return stored if spill is None else spill.get(stored)

    def run_job(job):
        pos_ref = fetch(job.path + (job.var,))
        neg_ref = fetch(job.path + (-job.var,))
        instance = _instance_at(formula, job.path)
        t0 = time.perf_counter()
        merged = stitch(instance, job.var, pos_ref, neg_ref, validate=False)
        merge_seconds = time.perf_counter() - t0
        total, count, average = _addition_lengths(merged)
        # integer comparison; cl_avg = 0 fires on anything with a literal
        wants_trim = cl_avg >= 0 and total > cl_avg * count
        trim_seconds = 0.0
        out = merged
        if wants_trim:
            t1 = time.perf_counter()
            out, _ = trim(instance, merged)
            trim_seconds = time.perf_counter() - t1
        record = StitchRecord(
            depth=job.depth,
            path=job.path,
            var=job.var,
            add_count=count,
            add_literal_total=total,
            average_clause_length=average,
            trimmed=wants_trim,
            steps_before=len(merged),
            steps_after=len(out),
            merge_seconds=merge_seconds,
            trim_seconds=trim_seconds,
        )
        return out, record

    for level in build_plan(tree).levels:
        for job in level:
            out, record = run_job(job)
            del results[job.path + (job.var,)]
            del results[job.path + (-job.var,)]
            results[job.path] = out if spill is None else spill.put(job.path, out)
            if on_record is not None:
                on_record(record)
    return fetch(())


def strip_deletions(instance: Formula, refutation: Refutation) -> Refutation:
    """Drop all deletion steps from a proof of the given instance.

    Sound only when every addition still passes the plain propagation
    check afterwards; if any step needs a resolution check, the repair
    is rejected rather than risking an unsound widening.
    """
    stripped = Refutation(s for s in refutation if s.is_add)
    report, ann = annotate_refutation(instance, stripped, mode=STRICT)
    if not report.valid:
        raise RepairError(
            "proof no longer checks without deletions (step %s, %s)"
            % (report.failing_step, report.reason)
        )
    for sv in ann:
        if sv.kind == "rat":
            raise RepairError(
                "step %d needs a resolution check once deletions are dropped" % sv.index
            )
    return stripped
