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

import contextlib
import gc
import logging
import marshal
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Optional, Union

from .checker import STRICT, _as_hinted, _kept, annotate_refutation, first_violation
from .core import ADD, EMPTY_CLAUSE, Formula, ProofStep, Refutation
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


def _checked_leaf(formula, cube, proof, label, mode):
    """A leaf proof of formula plus cube's units, checked, as combine_all
    keeps it: less the deletions its check skipped, which removed nothing
    here but may remove a lemma once widened; the ids each step used,
    named as hints for the proof against the formula alone, where the
    widened lemma's negation supplies each cube unit; and the numbers of
    its steps that passed only as RAT."""
    return _rebuilt(proof, _leaf_outcome(formula, cube, proof, label, mode))


def _leaf_outcome(formula, cube, proof, label, mode):
    """_checked_leaf as plain data, which a forked worker can hand back:
    the hints, the RAT step numbers, and the numbers of the deletions the
    check skipped."""
    annotations = _require_sub_proof(formula, cube, proof, label, mode)
    _, hints, rat, _ = _as_hinted(formula, cube, annotations)
    return hints, tuple(rat), tuple(sv.index for sv in annotations if not sv.applied)


def _rebuilt(proof, outcome):
    """_checked_leaf of proof from its _leaf_outcome."""
    hints, rat, skipped = outcome
    if skipped:
        skipped = set(skipped)
        proof = Refutation(step for i, step in enumerate(proof, 1) if i not in skipped)
    return proof, hints, rat


# Leaf checks are split over forked workers only when every share gets
# at least this many leaf steps, so a bundle needs twice as many to fork
# on two CPUs. In bench pairs on a 2-core box (Python 3.11, 10 s runs,
# seed 7), two shares took stitch-verify's op_s (1443 leaf steps, 128
# leaves) from 0.180 to 0.149 s in 4 of 4 pairs, but stitch-trim's (884
# steps, 32 leaves, then 31 trims) only from 0.193 to 0.189 s, well
# inside the 0.180-0.206 s its serial runs spread over, so a bundle of
# stitch-trim's size stays serial.
_SHARE_STEPS = 600


def _cpus():
    """The number of CPUs this process may run on; 1 where it cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _shares(sizes):
    """Leaf numbers in contiguous runs balanced by the leaves' sizes, one
    run per worker; a single run where the checks stay serial: on one
    CPU, without fork, beside other threads, or for too few steps."""
    total = sum(sizes)
    n = min(_cpus(), total // _SHARE_STEPS, len(sizes))
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [range(len(sizes))]
    cuts = [0]
    done = 0  # steps before leaf i
    for i, size in enumerate(sizes):
        # a share ends before the first leaf whose middle is past its end
        if len(cuts) < n and i > cuts[-1] and (2 * done + size) * n > 2 * total * len(cuts):
            cuts.append(i)
        done += size
    cuts.append(len(sizes))
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


class _Records(logging.Handler):
    """Keeps the log records emitted through it as plain dicts, each with
    its message formatted, as logging.makeLogRecord takes them."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg = record.getMessage()
        record.args = None
        self.records.append(record.__dict__)


def _share_outcomes(formula, leaves, mode):
    """A worker's checks of its (cube, proof, label) leaves: per leaf, in
    order, up to the first that fails, the log records its check emitted
    and its _leaf_outcome; and the open cubes the checks found, for the
    parent's memo.

    Runs in the worker, whose copy of the package logger it may change.
    """
    package = logging.getLogger("dratstitch")
    kept = _Records()
    package.handlers = [kept]
    package.propagate = False
    out = []
    for cube, proof, label in leaves:
        try:
            outcome = _leaf_outcome(formula, cube, proof, label, mode)
        except Exception:
            break  # the parent checks this leaf again, and raises
        out.append((kept.records, outcome))
        kept.records = []
    return out, _kept(formula, 3)


class _Worker:
    """A forked child that runs work() and pipes back its result, which
    holds only the core types marshal writes: loaded already, unlike
    pickle, which would cost the parent's import time and memory.

    The child ends with os._exit, with status 0 only once the whole
    result is written: it runs none of the parent's clean-up and flushes
    none of its buffers.
    """

    def __init__(self, work):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            status = 1
            try:
                gc.freeze()  # its collections then leave the pages it shares alone
                os.close(r)
                data = marshal.dumps(work())
                with open(w, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self.pid = pid
        self.fd = r

    def result(self):
        """The child's result, or None if it ended without one; reaps it."""
        with open(self.fd, "rb") as pipe:
            self.fd = None  # the pipe closes it
            data = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return marshal.loads(data) if status == 0 else None

    def stop(self):
        """Kill and reap the child, unless it was reaped already."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            # imported here, where a stitch failed or was interrupted:
            # at the top it would cost every process 45 KB of memory
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _checked_leaves(formula, leaves, mode):
    """_checked_leaf of each (cube, proof, label) in leaves, in order.

    With more than one share (see _shares), the parent checks the first
    and a forked worker each other one. A worker hands back plain data
    only, and the parent rebuilds each result from its own copy of the
    proof; it also takes the worker's open cubes into its memo, which
    the trims answer _root_conflict from, and emits the worker's log
    records, so warnings come out as in a serial check. The parent
    checks again the leaf a worker failed, which raises here what it
    raised there, and every leaf of a share whose worker did not start
    or ended without a result. Every worker is reaped before this
    returns or raises.
    """
    shares = _shares([len(proof) for _, proof, _ in leaves])
    if len(shares) == 1:
        return [_checked_leaf(formula, *leaf, mode) for leaf in leaves]
    _kept(formula, 1)  # built once, before the fork, for every worker
    workers = {}  # share number -> its worker
    try:
        for k in range(1, len(shares)):
            work = partial(_share_outcomes, formula, [leaves[i] for i in shares[k]], mode)
            with contextlib.suppress(OSError):
                workers[k] = _Worker(work)
        out = []
        for k, share in enumerate(shares):
            result = workers[k].result() if k in workers else None
            outcomes, open_cubes = result or ([], ())
            _kept(formula, 3).update(open_cubes)
            for i, (records, outcome) in zip(share, outcomes):
                for record in map(logging.makeLogRecord, records):
                    logging.getLogger(record.name).handle(record)
                out.append(_rebuilt(leaves[i][1], outcome))
            out += [_checked_leaf(formula, *leaves[i], mode) for i in share[len(outcomes) :]]
        return out
    finally:
        for worker in workers.values():
            worker.stop()


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
    none for an untrimmed merge other than the root.
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
    that hold it. hints and fresh are combine_all's.
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
            out += [ProofStep(op, clause.with_literals(suffix)) for op, clause in steps]
        else:
            out += steps
    return Refutation(out)


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
    only at cl_avg -1. Merges run one at a time in post order: each
    inner node merges right after both of its children, positive child
    first, and on_record sees each merge as it finishes.

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
    itself. Without them, the result's hints are None.

    A trimmed merge is trimmed from these hints against its path's cube
    and takes the trim's output hints. The trim is told which of its
    input's additions were already propagated as AT: every leaf step and
    every step a trim below output, except those that passed only as
    RAT. Only those RAT steps and the empty clauses of the untrimmed
    merges since the last trim, its own included, are propagated by its
    input check; its candidates are checked in full.

    The leaf checks use the CPUs in the process's affinity mask once the
    leaves hold enough steps (see _shares): the process checks one
    share of the leaves and a forked worker each other share, with the
    same result, warnings and first error as a serial check. One CPU,
    as under ``taskset -c 0``, keeps them serial, as does a platform
    without fork. No parameter selects this.
    """
    if cl_avg < -1:
        raise ValueError("cl_avg must be -1 or a nonnegative threshold")

    # per node, its hints as (shift, hint tuples) runs: ids from
    # n_formula up name steps and move by shift, lower ids are clauses
    # of the formula; and the numbers of its additions that no check has
    # propagated as AT: its RAT steps, whose hints name no derivation of
    # their own, and the empty clauses of untrimmed merges
    n_formula = len(formula.counts())

    def built(steps, path, hints, fresh):
        return _Part([(steps, ())], len(steps), *_tally(steps, path), hints, fresh)

    hinted = validate or cl_avg >= 0
    cut = [
        (path, _through_empty_clause(leaf.refutation), "cube %s" % leaf.cube.filename())
        for leaf, path in _leaves(tree)
    ]
    if hinted:
        checked = _checked_leaves(formula, cut, mode)
    else:
        checked = [(proof, None, ()) for _, proof, _ in cut]
    leaves = {}  # path -> the leaf's part
    for (path, _, _), (proof, hints, rat) in zip(cut, checked):
        leaves[path] = built(proof.steps, path, None if hints is None else [(0, hints)], rat)

    def shifted(runs):
        out = []
        for shift, run in runs:
            if shift:
                run = [tuple(h + shift if h >= n_formula else h for h in ids) for ids in run]
            out += run
        return out

    def merge(node, path):
        if isinstance(node, Leaf):
            return leaves[path]
        x = node.var
        pos = merge(node.pos_child, path + (x,))
        neg = merge(node.neg_child, path + (-x,))
        t0 = time.perf_counter()
        # widening appends -x to each positive addition that lacks it, x to each negative one
        count = pos.count + neg.count + 1
        total = pos.total + pos.count - pos.occ[-x] + neg.total + neg.count - neg.occ[x]
        # integer comparison; cl_avg = 0 fires on anything with a literal
        wants_trim = cl_avg >= 0 and total > cl_avg * count
        length = pos.length + neg.length + 1
        fresh = pos.fresh + tuple(i + pos.length for i in neg.fresh) + (length,)
        hints = None
        if hinted:
            shift = pos.length
            if cl_avg < 0:
                # nothing is marked, and (x) is the cheapest hint
                neg_final = (n_formula + shift + neg.length - 1,)
            else:
                last_shift, last_run = neg.hints[-1]
                neg_final = tuple(
                    h + shift + last_shift if h >= n_formula else h for h in last_run[-1]
                )
            hints = pos.hints + [(s + shift, h) for s, h in neg.hints]
            hints.append((0, [(n_formula + shift - 1,) + neg_final]))
        if wants_trim:
            merged = stitch(formula, x, _steps(pos.runs), _steps(neg.runs), validate=False)
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
            out, report = trim(formula, merged, cube=path, hints=shifted(hints), _judged=judged)
            part = built(out.steps, path, [(0, report.hints)], report.rat_steps)
            trim_seconds = time.perf_counter() - t1
        else:
            # p is x or -x only in a hand-built tree that decides x twice
            occ = {
                -p: (pos.count if p == x else pos.occ[-p]) + (neg.count if p == -x else neg.occ[-p])
                for p in path
            }
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
        if on_record is not None:
            on_record(record)
        return part

    root = merge(tree, ())
    del merge  # a reference cycle that would hold every part until the next collection
    return StitchedRefutation(_steps(root.runs), shifted(root.hints) if root.hints else None)


def strip_deletions(refutation: Refutation) -> Refutation:
    """The proof without its deletion steps.

    Every clause then stays live, so each AT step stays AT, but a RAT
    step or one that was redundant only once some clause was deleted
    may fail: the proof is not checked here, but by combine_all's leaf
    check, run with validate on.
    """
    return Refutation(s for s in refutation if s.is_add)
