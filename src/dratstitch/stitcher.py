"""Combining per-cube refutations bottom-up over the decision tree.

Two refutations of formula+{x} and formula+{-x} merge into one refutation
of formula by widening every clause of the first with -x, every clause of
the second with x, and closing with the empty clause. The widened literal
is appended last so each clause's first literal, the resolution pivot,
survives the merge. Over a full cube set this is applied bottom-up in
one post-order pass: each inner node merges right after both of its
children, positive child first.

Widening a clause by one decision after another is the same as
appending, once, the decisions it lacks, deepest first. So
``combine_all`` builds no steps at a merge that is not trimmed: it
keeps its children's steps, each run of them with the negated
decisions still to append, and counts the merged additions and
literals from its children's counts. A step is built when a trimmed
merge, which needs real steps, or the root first reads it, instead of
once per level.

Merging only widens clauses, so a widened lemma ``C or -x`` is an
asymmetric tautology through the same clauses as ``C`` was under the
cube unit ``(x)``: negating it assigns x. The ids each leaf replay used
therefore carry over to the merged proof as hints for
``check_refutation``: the root needs no second full replay, and a merge
is trimmed from its hints, with no replay either.

For the same reason an AT lemma needs its propagation judged only once
per stitch. Once a leaf replay, or the final check of a trim below, has
propagated it to a conflict over its hinted clauses, it propagates to
one over the same clauses, widened, under every path above, so a
trim's input check does not propagate it again. A RAT lemma is judged
at every trim, as widening changes its neighbours. What widening can
change is which clauses are live when, and which copy names a value
that two widened lemmas now share, so liveness, deletions and naming
are checked again at every trim, over every step. Each trim's
candidates, the output included, are judged in full: a wrong hint
handed up on a step the output keeps is caught there, and a step the
trim drops reaches no output.
"""

import logging
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional, Union

from .checker import STRICT, _share_count, annotate_refutation, first_violation
from .core import ADD, EMPTY_CLAUSE, Formula, ProofStep, Refutation, _step
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
    returns the hint record of its replay (see checker._hint_record).

    In strict mode, each deletion must also remove a copy of a clause
    the proof itself added and has not deleted since: widened, the
    formula clause or cube unit it removed here is absent, and a strict
    check of the merged proof would fail there.
    """
    offender = first_violation(proof)
    if offender is not None:
        raise NonPreservingInputError(
            "%s: %r is deleted more often than added" % (label, offender)
        )
    report, record = annotate_refutation(formula, proof, mode=mode, cube=cube, _record=True)
    if not report.valid:
        raise InvalidSubProofError("%s: %s" % (label, report.failure_text()))
    if mode == STRICT and any(op != ADD for op, _ in proof):
        added = Counter()
        for i, (op, clause) in enumerate(proof, 1):
            if op == ADD:
                added[clause] += 1
            elif added[clause]:
                added[clause] -= 1
            else:
                raise NonPreservingInputError(
                    "%s: step %d deletes %r before adding it; widened, it is absent"
                    % (label, i, clause)
                )
    return record


def _leaf_outcome(formula, cube, proof, label, mode):
    """A leaf proof of formula plus cube's units checked, as plain data
    that a forked worker can hand back: the ids each step used, named as
    hints for the proof against the formula alone, where the widened
    lemma's negation supplies each cube unit; the numbers of its steps
    that passed only as RAT; and the numbers of the deletions its check
    skipped, which removed nothing here but may remove a lemma once
    widened. _leaf_part takes it to the leaf's part."""
    _, hints, rat, _, skipped = _require_sub_proof(formula, cube, proof, label, mode)
    return hints, tuple(rat), tuple(skipped)


# A stitch is split over a forked worker only when each of its two
# shares weighs at least this much, so a bundle needs twice as much to
# fork. A leaf weighs its steps and a merge that will be trimmed a third
# of its steps: serially, on stitch-trim at seed 7 on a 2-core box, a
# leaf check took 0.076 ms per step and a trim 0.027 ms per input step.
# On that box (Python 3.11), two forked shares, pinned to their own
# CPUs, of the subtrees down to depth 3 of the seed-7 stitch-trim and
# stitch-verify trees, at cl_avg -1 and 0, took 0.3 to 5 ms longer than
# a serial stitch below a weight of 120, between 4 ms longer and 8 ms
# shorter from 120 to 340, 1 to 17 ms shorter from 380 to 500 and 3 to
# 146 ms shorter from 600 up (medians of 9 alternating pairs); unpinned,
# the cut-over had sat between 400 and 500.
_SHARE_STEPS = 350

# Where workers._split cuts the leaves, a leaf weighs this many steps
# more than it has, for what its check costs besides its steps: the copy
# of the kept database alone is about 0.09 ms, more than a step. On the
# seed-7 stitch-verify tree (128 leaves of 1 to 142 steps) on that box,
# the process waited a median 7 to 11 ms for the worker with no such
# constant (cut after leaf 33), 1 to 2 ms at 2 (38) and 0.6 to 0.7 ms
# at 4 (41) and above (medians of 30 to 60 alternating stitches, seeds 1
# and 7); the stitch-trim cut stays after leaf 12. Whether to fork at
# all still weighs the steps alone, as _SHARE_STEPS was measured.
_LEAF_STEPS = 4


def _shares(sizes, merges=()):
    """Leaf numbers in contiguous runs, one per process: two, cut by
    workers._split, or one where the stitch stays serial (see
    checker._share_count).

    sizes holds each leaf's weight, merges the (first leaf, end, weight)
    of each merge that will be trimmed, its leaves being first to end - 1.
    Where to cut, each leaf weighs _LEAF_STEPS more.
    """
    total = sum(sizes) + sum(w for *_, w in merges)
    if len(sizes) < 2 or _share_count(total, _SHARE_STEPS) < 2:
        return [range(len(sizes))]
    from . import workers  # see its docstring

    return workers._split([size + _LEAF_STEPS for size in sizes], merges)


def _weigh(node, path, counted, cl_avg, sizes, merges):
    """The part of node as counted with no merge below it trimmed.

    Appends to sizes the weight of each leaf below node, and to merges
    the (first leaf, end, weight) of each merge below it that cl_avg
    trims, as _shares takes them; counted holds every leaf's part as
    counted before its check, in post order.
    """
    if isinstance(node, Leaf):
        part = counted[len(sizes)]
        sizes.append(part.length)
        return part
    first = len(sizes)
    x = node.var
    pos = _weigh(node.pos_child, path + (x,), counted, cl_avg, sizes, merges)
    neg = _weigh(node.neg_child, path + (-x,), counted, cl_avg, sizes, merges)
    count, total, length, occ, wants_trim = _joined(pos, neg, x, path, cl_avg)
    if wants_trim:
        merges.append((first, len(sizes), length // 3))
    return _Part(None, length, count, total, occ, None, ())


def _checked_shares(walk, tree, leaves, mode):
    """Fills walk.done with each leaf's part, checked, and with the parts
    of the subtrees stitched in shares (see workers._stitched_share);
    leaves holds the (path, proof, label, counted part) of every leaf, in
    post order. With one share, the leaves are checked here in turn."""
    counted = [counted for *_, counted in leaves]
    sizes, merges = [], []
    if walk.cl_avg < 0:
        sizes = [part.length for part in counted]  # no merge is trimmed, so none weighs
    else:
        _weigh(tree, (), counted, walk.cl_avg, sizes, merges)
    shares = _shares(sizes, merges)
    if len(shares) > 1:
        from . import workers  # see its docstring

        workers._stitched_shares(walk, tree, leaves, shares, mode)
        return
    for path, proof, label, counted in leaves:
        outcome = _leaf_outcome(walk.formula, path, proof, label, mode)
        walk.done[path] = (_leaf_part(counted, proof, outcome), ())


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
    return _steps([(pos_proof.steps, (-decision,)), (neg_proof.steps, (decision,)), (_CLOSING, ())])


def average_clause_length(refutation: Refutation) -> float:
    """Mean literal count over addition steps; 0.0 for no additions."""
    total = 0
    count = 0
    for step in refutation:
        if step.is_add:
            total += len(step.clause)
            count += 1
    return total / count if count else 0.0


@dataclass(frozen=True)
class StitchRecord:
    """What one merge did; handed to combine_all's observer.

    merge_seconds is the merge's bookkeeping and the steps it builds:
    none for an untrimmed merge other than the root. Records come in post
    order whichever process made the merge. A merge made in a forked
    worker (see combine_all) is timed there, so the seconds of merges
    made at the same time in different processes overlap, and their sum
    is not wall time.
    """

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


class _Part(NamedTuple):
    """A merged subtree whose steps may not be built yet.

    Its steps are those of each run in turn, a run being (steps, suffix):
    built steps, and the negated decisions still to append to each of
    their clauses, deepest first. length counts its steps, count its
    additions and total their literals, all as widened; occ maps the
    negation of each literal of its path to the number of additions
    that hold it. hints and fresh are _merge's.
    """

    runs: list
    length: int
    count: int
    total: int
    occ: dict
    hints: Optional[list]
    fresh: tuple


_CLOSING = (ProofStep(ADD, EMPTY_CLAUSE),)


def _tally(steps, path):
    """(count, total, occ) of built steps at path, as _Part has them."""
    adds = [clause for op, clause in steps if op == ADD]
    lits = Counter(chain.from_iterable(clause.literals for clause in adds))
    return len(adds), sum(lits.values()), {-p: lits[-p] for p in path}


def _through_empty_clause(proof):
    """The proof up to its first empty clause, where every check stops."""
    ends = (i for i, (op, clause) in enumerate(proof, 1) if op == ADD and not len(clause))
    return Refutation(proof.steps[: next(ends, len(proof))])


def _steps(runs):
    """The refutation that (steps, suffix) runs stand for, clauses widened."""
    out = []
    for steps, suffix in runs:
        if suffix:
            out += [_step(op, clause.with_literals(suffix)) for op, clause in steps]
        else:
            out += steps
    return Refutation(out)


def _built(steps, path, hints, fresh):
    """The part of built steps at path."""
    return _Part([(steps, ())], len(steps), *_tally(steps, path), hints, fresh)


def _leaf_part(counted, proof, outcome):
    """A leaf's part from its part as counted before its check, its proof,
    and its _leaf_outcome, or (None, (), ()) when it is not checked: the
    proof less the deletions the check skipped, which leaves the counts
    as they stand."""
    hints, rat, skipped = outcome
    if skipped:
        skipped = set(skipped)
        proof = Refutation(step for i, step in enumerate(proof, 1) if i not in skipped)
    return counted._replace(
        runs=[(proof.steps, ())],
        length=len(proof),
        hints=None if hints is None else [(0, hints)],
        fresh=rat,
    )


def _shifted(runs, n_formula):
    """The hint tuples of (shift, hint tuples) runs, each id from
    n_formula up moved by its run's shift."""
    out = []
    for shift, run in runs:
        if shift:
            run = [tuple(h + shift if h >= n_formula else h for h in ids) for ids in run]
        out += run
    return out


class _Walk(NamedTuple):
    """What _merge reads besides the node and its path.

    n_formula is the formula's distinct clause count, and hinted says
    whether parts carry hints. done maps the path of each leaf, and of
    each subtree stitched already, to its part and the (log records,
    record as a tuple) pairs that its merges emitted, which _merge emits
    again when it takes the part. emit is called with each merge's
    record and part as the merge finishes.
    """

    formula: Formula
    n_formula: int
    cl_avg: int
    hinted: bool
    done: dict
    emit: Callable


def _joined(pos, neg, x, path, cl_avg):
    """The merge of parts pos and neg on x at path, counted before any of
    its steps are built: its count, total, length and occ as _Part has
    them, and whether cl_avg trims it."""
    # widening appends -x to each positive addition that lacks it, x to each negative one
    count = pos.count + neg.count + 1
    total = pos.total + pos.count - pos.occ[-x] + neg.total + neg.count - neg.occ[x]
    # p is x or -x only in a hand-built tree that decides x twice
    occ = {
        -p: (pos.count if p == x else pos.occ[-p]) + (neg.count if p == -x else neg.occ[-p])
        for p in path
    }
    # integer comparison; cl_avg = 0 fires on anything with a literal
    wants_trim = cl_avg >= 0 and total > cl_avg * count
    return count, total, pos.length + neg.length + 1, occ, wants_trim


def _emit_logs(records):
    """Emits log records kept by a workers._Records handler, as logged."""
    for record in map(logging.makeLogRecord, records):
        logging.getLogger(record.name).handle(record)


def _merge(walk, node, path):
    """The part of node, at path, merged bottom-up in post order: each
    inner node right after both of its children, positive child first.

    Hints are (shift, hint tuples) runs: ids from n_formula up name
    steps and move by shift, lower ids are clauses of the formula. fresh
    numbers the additions that no check has propagated as AT: the RAT
    steps, whose hints name no derivation of their own, and the empty
    clauses of untrimmed merges.
    """
    if path in walk.done:
        part, events = walk.done.pop(path)
        for records, record in events:
            _emit_logs(records)
            walk.emit(StitchRecord(*record), None)
        return part
    x = node.var
    pos = _merge(walk, node.pos_child, path + (x,))
    neg = _merge(walk, node.neg_child, path + (-x,))
    t0 = time.perf_counter()
    count, total, length, occ, wants_trim = _joined(pos, neg, x, path, walk.cl_avg)
    fresh = pos.fresh + tuple(i + pos.length for i in neg.fresh) + (length,)
    n_formula = walk.n_formula
    hints = None
    if walk.hinted:
        shift = pos.length
        if walk.cl_avg < 0:
            # nothing is marked, and (x) is the cheapest hint
            neg_final = (n_formula + shift + neg.length - 1,)
        else:
            last_shift, last_run = neg.hints[-1]
            neg_final = tuple(h + shift + last_shift if h >= n_formula else h for h in last_run[-1])
        hints = pos.hints + [(s + shift, h) for s, h in neg.hints]
        # (-x) is unit first, then the negative side's conflict follows
        hints.append((0, [neg_final + (n_formula + shift - 1,)]))
    if wants_trim:
        merged = stitch(walk.formula, x, _steps(pos.runs), _steps(neg.runs), validate=False)
    else:
        runs = [(s, suffix + (-x,)) for s, suffix in pos.runs]
        runs += [(s, suffix + (x,)) for s, suffix in neg.runs]
        runs.append((_CLOSING, ()))
        if not path:
            runs = [(_steps(runs).steps, ())]  # the root builds what no trim did
    merge_seconds = time.perf_counter() - t0
    trim_seconds = 0.0
    if wants_trim:
        t1 = time.perf_counter()
        judged = set(range(1, length + 1)).difference(fresh)
        out, report = trim(
            walk.formula, merged, cube=path, hints=_shifted(hints, n_formula), _judged=judged
        )
        part = _built(out.steps, path, [(0, report.hints)], report.rat_steps)
        trim_seconds = time.perf_counter() - t1
    else:
        part = _Part(runs, length, count, total, occ, hints, fresh)
    record = StitchRecord(
        depth=len(path),
        path=path,
        var=x,
        add_count=count,
        add_literal_total=total,
        average_clause_length=total / count,
        trimmed=wants_trim,
        steps_before=length,
        steps_after=part.length,
        merge_seconds=merge_seconds,
        trim_seconds=trim_seconds,
    )
    walk.emit(record, part)
    return part


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
    kept clause database. Every leaf is checked before any merge runs
    when validate is on, and whenever cl_avg lets merges be trimmed, so
    that a trimmed merge trusts no leaf: validate=False skips the checks
    only at cl_avg -1. Merges are made in post order: each inner node
    merges right after both of its children, positive child first, and
    on_record sees each merge's record in that order.

    An untrimmed merge builds no steps: it keeps its children's steps
    as runs, each with the negated decisions its clauses still need,
    and takes its record's addition counts from its children's. Steps
    are built by the first trimmed merge above them, which builds its
    children's proofs and stitches them, or else by the root. A merge's
    merge_seconds holds its bookkeeping and whatever steps it builds.

    Each leaf proof is cut at its first empty clause, where every check
    stops. A checked leaf also loses the deletions its check skipped in
    permissive mode: each removed nothing there, but could remove a
    lemma once widened. A proof that strip_deletions rewrote is judged
    only by this check, so it must be stitched with validate on. With
    every leaf checked, the result carries hints: the ids
    each leaf's replay used, with the positive child's ids kept and the
    negative child's shifted past it. A merge's empty clause is hinted by
    the positive child's final clause ``(-x)`` and, when cl_avg lets
    merges be trimmed, the hints of the negative child's final clause
    ``(x)``, so that a trim marks no ``(x)``; at cl_avg -1, by ``(x)``
    itself. Those come first and ``(-x)`` last, so that, as every
    step's hints from a replay or a trim, they are in unit order
    reversed: ``(-x)`` is unit first. Without them, the result's hints
    are None.

    A trimmed merge is trimmed from these hints against its path's cube
    and takes the trim's output hints. The trim is told which of its
    input's additions were already propagated as AT: every leaf step and
    every step a trim below output, except those that passed only as
    RAT. Only those RAT steps and the empty clauses of untrimmed merges
    since the last trim, its own included, are propagated by its input
    check; its candidates are checked in full.

    A checked stitch is cut in two once its leaves and the merges cl_avg
    will trim weigh enough (see _SHARE_STEPS), on a mask of two CPUs or
    more. The leaves are cut into two contiguous shares in leaf order
    where the estimated time is least (see workers._split). The process
    does the first share and a forked worker the second; on a mask of
    exactly two CPUs each is pinned to one of them until the worker is
    reaped (see workers). No replay forks again meanwhile. Each checks its
    share's leaves and, when a merge can be trimmed, stitches every
    subtree whose leaves all lie in its share, through the same merges.
    The process then makes the merges that no share made and takes the
    worker's trimmed subtrees as they are. The result, the records and
    their order, the warnings and their order, and the first error are
    those of a serial stitch. One CPU, as under ``taskset -c 0``, keeps
    the stitch serial, as does a platform without fork. No parameter
    selects this.
    """
    if cl_avg < -1:
        raise ValueError("cl_avg must be -1 or a nonnegative threshold")
    hinted = validate or cl_avg >= 0

    def emit(record, part):
        if on_record is not None:
            on_record(record)

    n_formula = len(formula.counts())
    walk = _Walk(formula, n_formula, cl_avg, hinted, {}, emit)
    leaves = []
    for leaf, path in _leaves(tree):
        proof = _through_empty_clause(leaf.refutation)
        counted = _Part(None, len(proof), *_tally(proof.steps, path), None, ())
        leaves.append((path, proof, "cube %s" % leaf.cube.filename(), counted))
    if hinted:
        _checked_shares(walk, tree, leaves, mode)
    else:
        for path, proof, _, counted in leaves:
            walk.done[path] = (_leaf_part(counted, proof, (None, (), ())), ())
    root = _merge(walk, tree, ())
    hints = _shifted(root.hints, n_formula) if root.hints else None
    return StitchedRefutation(_steps(root.runs), hints)


def strip_deletions(refutation: Refutation) -> Refutation:
    """The proof without its deletion steps.

    Every clause then stays live, so each AT step stays AT, but a RAT
    step or one that was redundant only once some clause was deleted
    may fail: the proof is not checked here, but by combine_all's leaf
    check, run with validate on.
    """
    return Refutation(s for s in refutation if s.is_add)
