"""Combining per-cube refutations bottom-up over the decision tree.

Two refutations of formula+{x} and formula+{-x} merge into one refutation
of formula by widening every clause of the first with -x, every clause of
the second with x, and closing with the empty clause. The widened literal
is appended last so each clause's first literal, the resolution pivot,
survives the merge. Over a full cube set this is applied bottom-up in
one post-order pass: each inner node merges right after both of its
children, positive child first.

Merging only widens clauses, so a widened lemma ``C or -x`` is an
asymmetric tautology through the same clauses as ``C`` was under the
cube unit ``(x)``: negating it assigns x. The ids each leaf replay used
therefore carry over to the merged proof as hints for
``check_refutation``, and the root needs no second full replay.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .checker import KIND_RAT, STRICT, annotate_refutation, first_violation
from .core import ADD, EMPTY_CLAUSE, Clause, Formula, ProofStep, Refutation
from .formats import Cube, ProofBundle
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


def _require_sub_proof(formula, cube, proof, label, mode):
    """The proof must be preserving and refute formula plus cube's units;
    returns the annotations of its replay."""
    offender = first_violation(proof)
    if offender is not None:
        raise NonPreservingInputError(
            "%s: %r is deleted more often than added" % (label, offender)
        )
    report, annotations = annotate_refutation(formula, proof, mode=mode, cube=cube)
    if not report.valid:
        raise InvalidSubProofError("%s: %s" % (label, report.failure_text()))
    return annotations


def _local_hints(formula, cube, annotations):
    """Per step of a replayed proof of formula plus cube's units, the ids
    its check used, named as ``check_refutation``'s hints name them for the
    proof alone against the formula.

    A formula clause keeps its id and a cube unit's id is dropped: the
    widened lemma's negation supplies the unit. A lemma id becomes the id
    of the first addition that carried it, as the trimmer's born rule
    has it. Deletions get no ids.
    """
    n_formula = len(formula.counts())
    n_instance = n_formula + len({l for l in cube if Clause((l,)) not in formula})
    born = {}  # engine id of a lemma -> the hint id of its first addition
    out = []
    for sv in annotations:
        if sv.op != ADD:
            out.append(())
            continue
        out.append(
            tuple(
                u if u < n_formula else born[u]
                for u in sv.used_ids
                if not n_formula <= u < n_instance
            )
        )
        if sv.clause_id is not None and sv.clause_id >= n_instance:
            born.setdefault(sv.clause_id, n_formula + sv.index - 1)
    return out


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
        _require_sub_proof(formula, (decision,), pos_proof, "branch %d" % decision, mode)
        _require_sub_proof(formula, (-decision,), neg_proof, "branch %d" % -decision, mode)
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


def _leaves(tree):
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            yield node, path
        else:
            stack.append((node.neg_child, path + (-node.var,)))
            stack.append((node.pos_child, path + (node.var,)))


class StitchedRefutation(Refutation):
    """A merged refutation and, when every leaf was validated, its hints.

    hints holds one tuple of clause ids per step, as check_refutation
    takes them, or is None.
    """

    __slots__ = ("hints",)

    def __init__(self, steps=(), hints=None):
        super().__init__(steps)
        self.hints = hints


def combine_all(
    formula: Formula,
    tree: CubeNode,
    cl_avg: int = -1,
    validate: bool = True,
    mode: str = STRICT,
    on_record: Optional[Callable] = None,
) -> StitchedRefutation:
    """Merge a whole cube tree into one refutation of the formula.

    cl_avg gates the per-merge trimming pass: -1 never trims, 0 trims
    after every merge, k > 0 trims when the merged proof's average
    addition length exceeds k. A merge is trimmed against the formula
    plus one unit per literal of its path, on copies of the formula's
    kept clause database. With validate on, every leaf is checked
    before any merge runs. Merges run one at a time in post order: each
    inner node merges right after both of its children, positive child
    first, and on_record sees each merge as it finishes.

    With validate on, and every leaf proof ending at the empty clause
    its replay stopped at, the result carries hints: the ids each leaf's
    replay used, with the positive child's ids kept and the negative
    child's shifted past it, each merge's empty clause hinted by its two
    children's final clauses, and a trimmed merge's ids taken from the
    trim's final analysis. Otherwise its hints are None.
    """
    if cl_avg < -1:
        raise ValueError("cl_avg must be -1 or a nonnegative threshold")

    # per node, its hints as (shift, hint tuples) runs: ids from
    # n_formula up name steps and move by shift, lower ids are clauses
    # of the formula
    n_formula = len(formula.counts())
    leaf_hints = None
    if validate:
        leaf_hints = {}
        for leaf, path in _leaves(tree):
            annotations = _require_sub_proof(
                formula, path, leaf.refutation, "cube %s" % leaf.cube.filename(), mode
            )
            if leaf_hints is not None and len(annotations) == len(leaf.refutation):
                leaf_hints[path] = [(0, _local_hints(formula, path, annotations))]
            else:
                leaf_hints = None  # steps past the empty clause were not judged

    def merge(node, path):
        if isinstance(node, Leaf):
            return node.refutation, leaf_hints and leaf_hints[path]
        pos_ref, pos_hints = merge(node.pos_child, path + (node.var,))
        neg_ref, neg_hints = merge(node.neg_child, path + (-node.var,))
        t0 = time.perf_counter()
        merged = stitch(formula, node.var, pos_ref, neg_ref, validate=False)
        merge_seconds = time.perf_counter() - t0
        total, count, average = _addition_lengths(merged)
        # integer comparison; cl_avg = 0 fires on anything with a literal
        wants_trim = cl_avg >= 0 and total > cl_avg * count
        trim_seconds = 0.0
        out = merged
        hints = None
        if wants_trim:
            t1 = time.perf_counter()
            out, report = trim(formula, merged, cube=path)
            trim_seconds = time.perf_counter() - t1
            if leaf_hints:
                hints = [(0, _local_hints(formula, path, report.annotations))]
        elif leaf_hints:
            shift = len(pos_ref)
            final = (n_formula + shift - 1, n_formula + shift + len(neg_ref) - 1)
            hints = pos_hints + [(s + shift, h) for s, h in neg_hints] + [(0, [final])]
        record = StitchRecord(
            depth=len(path),
            path=path,
            var=node.var,
            add_count=count,
            add_literal_total=total,
            average_clause_length=average,
            trimmed=wants_trim,
            steps_before=len(merged),
            steps_after=len(out),
            merge_seconds=merge_seconds,
            trim_seconds=trim_seconds,
        )
        if on_record is not None:
            on_record(record)
        return out, hints

    combined, runs = merge(tree, ())
    hints = None
    if runs:
        hints = []
        for shift, run in runs:
            if shift:
                run = [tuple(h + shift if h >= n_formula else h for h in ids) for ids in run]
            hints += run
    return StitchedRefutation(combined, hints)


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
            "proof no longer checks without deletions: %s" % report.failure_text()
        )
    for sv in ann:
        if sv.kind == KIND_RAT:
            raise RepairError(
                "step %d needs a resolution check once deletions are dropped" % sv.index
            )
    return stripped
