"""Work split over one forked worker: the two shares of a cube tree for
combine_all, and the two shares of a large replay's additions for the
checker. Only two shares were ever measured, so there are never more.

A stitch share is a contiguous run of leaves in post order, so it covers
a sequence of maximal subtrees. The process does the first share and a
forked worker the second: each checks its share's leaves and, when a
merge can be trimmed, stitches the subtrees that lie in its share
through stitcher._merge. The process then hands both results to the one
post-order walk of combine_all.

A replay share is every other addition of a proof, judged by
checker._pass: both processes apply every step, but each judges only
its own additions and adds the others unjudged, as if they passed. Each
records, per addition it judged, the ids its check used, and the
process merges the two records by step. A verdict, its record and its
propagation count depend only on the database at its step (see
checker), so the outcome is the serial one.

On a mask of exactly two CPUs, the worker is pinned to the second and
the process to the first until the worker is reaped: left to the
scheduler, a child forked for a few tens of milliseconds of work mostly
shared its parent's CPU. On a larger mask, where other processes may be
running, both are left to the scheduler.

The checker and stitcher import this module where a process first
forks, so that a process that never forks does not compile it: where
no bytecode is written, as under PYTHONDONTWRITEBYTECODE, compiling
these functions with stitcher.py raised the memory peak of importing
the package.
"""

import contextlib
import gc
import logging
import marshal
import os
import signal
from dataclasses import astuple
from functools import partial

from . import checker, stitcher
from .checker import _kept
from .core import Clause, ProofStep


def _split(sizes, merges):
    """The leaves in two contiguous runs, cut where the stitch would take
    the least time: the slower side's weight plus the weight of the
    merges across the cut, which wait for both sides. The two sides and
    the merges across add up to the same total at every cut, so that is
    where the lighter side, its leaves and the merges wholly within it,
    weighs the most."""
    n = len(sizes)
    ended = [0] * (n + 1)  # weight of the merges that end at each leaf
    begun = [0] * (n + 1)  # and of those that begin there
    for first, end, w in merges:
        ended[end] += w
        begun[first] += w
    before = [0] * (n + 1)  # weight of the leaves and merges before each cut
    after = [0] * (n + 1)  # and after it
    for c in range(1, n + 1):
        before[c] = before[c - 1] + sizes[c - 1] + ended[c]
    for c in range(n - 1, -1, -1):
        after[c] = after[c + 1] + sizes[c] + begun[c]
    cut = max(range(1, n), key=lambda c: min(before[c], after[c]))
    return [range(cut), range(cut, n)]


def _subtrees(node, path, first, share_of, out):
    """The number of leaves below node, the first of them leaf number first.

    Appends to out[k] the (first leaf number, node, path) of each maximal
    subtree below node, with a merge, whose leaves all lie in share k:
    share_of maps each leaf number to its share.
    """
    if isinstance(node, stitcher.Leaf):
        return 1
    x = node.var
    children = []
    n = 0
    for child, p in ((node.pos_child, path + (x,)), (node.neg_child, path + (-x,))):
        children.append((first + n, child, p))
        n += _subtrees(child, p, first + n, share_of, out)
    if share_of[first] != share_of[first + n - 1]:
        for (lo, child, p), end in zip(children, (children[1][0], first + n)):
            if isinstance(child, stitcher.Inner) and share_of[lo] == share_of[end - 1]:
                out[share_of[lo]].append((lo, child, p))
    return n


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

    def take(self):
        """The records kept since the last take."""
        out, self.records = self.records, []
        return out


@contextlib.contextmanager
def _captured():
    """A _Records handler that takes the package's log records in place of
    its handlers and its parents' until the block ends."""
    package = logging.getLogger("dratstitch")
    saved = package.handlers, package.propagate
    kept = _Records()
    package.handlers = [kept]
    package.propagate = False
    try:
        yield kept
    finally:
        package.handlers, package.propagate = saved


def _stitched_share(walk, leaves, subtrees, mode):
    """A share's work, as plain data that marshal writes: its leaves
    checked, then, when cl_avg can trim and every leaf passed, each of
    its subtrees stitched by _merge.

    leaves holds the (path, proof, label, counted part) of each leaf of
    the share, subtrees the (node, path) of each maximal subtree that
    lies in it, both in post order. Returns (outcomes, stitched).
    outcomes holds, per leaf, in order, up to the first whose check
    raises, the log records its check emitted and its _leaf_outcome, or
    None for a leaf below a stitched node. stitched holds, in post
    order, for each trimmed node not below another: its path, its output
    steps as (op, literals) pairs, its hints, its RAT step numbers, and
    the (log records, record as a tuple) pairs of the merges of its
    subtree. A stitch stops at the first merge that raises; the parent
    stitches that subtree again, and raises.
    """
    formula = walk.formula
    outcomes = []
    with _captured() as kept:
        for path, proof, label, _ in leaves:
            try:
                outcome = stitcher._leaf_outcome(formula, path, proof, label, mode)
            except Exception:
                return outcomes, []  # the parent checks this leaf again, and raises
            outcomes.append((kept.take(), outcome))
        if walk.cl_avg < 0 or not subtrees:
            return outcomes, []  # no merge is trimmed: the parent merges them all
        done = {}
        for (path, proof, _, counted), (_, outcome) in zip(leaves, outcomes):
            checked = stitcher._rebuilt(proof, outcome)
            done[path] = (stitcher._leaf_part(counted, checked), ())
        events = []  # (path, log records, record) of each merge, in post order
        tops = []  # (path, part) of each trimmed node not below another

        def emit(record, part):
            events.append((record.path, kept.take(), astuple(record)))
            if record.trimmed:
                path = record.path
                while tops and tops[-1][0][: len(path)] == path:
                    tops.pop()
                tops.append((path, part))

        mine = walk._replace(done=done, emit=emit)
        with contextlib.suppress(Exception):  # the parent stitches the rest again, and raises
            for node, path in subtrees:
                stitcher._merge(mine, node, path)
    stitched = []
    for path, part in tops:
        ((steps, _),) = part.runs
        ((_, hints),) = part.hints
        below = [(records, record) for p, records, record in events if p[: len(path)] == path]
        plain = tuple((op, clause.literals) for op, clause in steps)
        stitched.append((path, plain, hints, part.fresh, below))
    covered = {path for path, _ in tops}
    for i, (path, *_) in enumerate(leaves):
        if any(path[:depth] in covered for depth in range(len(path))):
            outcomes[i] = (outcomes[i][0], None)
    return outcomes, stitched


def _share_outcomes(walk, leaves, subtrees, mode):
    """_stitched_share in a forked worker, and the open cubes its checks
    and trims found, for the parent's memo."""
    return _stitched_share(walk, leaves, subtrees, mode) + (_kept(walk.formula, 3),)


class _Worker:
    """A forked child that runs work() and pipes back its result, which
    holds only the core types marshal writes: loaded already, unlike
    pickle, which would cost the parent's import time and memory.

    The child pins itself to cpu, unless that is None, and forks
    nothing more. It ends with os._exit, with status 0 only once the
    whole result is written: it runs none of the parent's clean-up and
    flushes none of its buffers.
    """

    def __init__(self, work, cpu):
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
                checker._sharing = True
                if cpu is not None:
                    _pin({cpu})
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
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _pin(cpus):
    """Run this process on cpus from now on, where the platform lets it."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, cpus)


@contextlib.contextmanager
def _forked(work):
    """A forked _Worker that runs work, or None where fork failed. On a
    mask of two CPUs, the worker is pinned to the second and this process
    to the first until the block ends; on a larger mask the scheduler
    places them. An interrupt waits until the child forked is kept; the
    child keeps it blocked, and is killed. When the block ends, the mask
    is restored and the worker, if still running, is killed and reaped.
    """
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask) if len(mask) == 2 else None
    worker = None
    try:
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            worker = _Worker(work, cpus[1] if cpus else None)
        except OSError:
            pass
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        checker._sharing = True
        if cpus:
            _pin({cpus[0]})
        yield worker
    finally:
        checker._sharing = False
        if cpus:
            _pin(mask)
        if worker is not None:
            worker.stop()


def _stitched_shares(walk, tree, leaves, shares, mode):
    """stitcher._checked_shares with two shares: a forked worker does the
    work of the second while the process does the first.

    The parent rebuilds each result from plain data and its own copy of
    the proofs; it also takes the worker's open cubes into its memo,
    which the trims answer _root_conflict from, and emits the log records
    of the checks in leaf order, so warnings come out as in a serial
    stitch. It checks again the leaf a share failed, which raises here
    what it raised there, and every leaf of the second share if its
    worker did not start or ended without a result; _merge stitches again
    whatever no share stitched. The worker is reaped before this returns
    or raises.
    """
    formula = walk.formula
    # built once, before the fork, for the worker too
    _kept(formula, 1)
    if walk.cl_avg >= 0:
        _kept(formula, 2)
    share_of = [k for k, share in enumerate(shares) for _ in share]
    subtrees = ([], [])
    _subtrees(tree, (), 0, share_of, subtrees)
    work = [
        (walk, [leaves[i] for i in share], [sub[1:] for sub in sorted(subs)], mode)
        for share, subs in zip(shares, subtrees)
    ]
    with _forked(partial(_share_outcomes, *work[1])) as worker:
        stitched = []
        for k, share in enumerate(shares):
            if k == 0:
                result = _stitched_share(*work[0])
            else:
                result = worker.result() if worker is not None else None
                if result is not None:
                    _kept(formula, 3).update(result[2])
            outcomes, handed = result[:2] if result is not None else ([], [])
            for i, (records, outcome) in zip(share, outcomes):
                stitcher._emit_logs(records)
                if outcome is not None:
                    path, proof, _, counted = leaves[i]
                    checked = stitcher._rebuilt(proof, outcome)
                    walk.done[path] = (stitcher._leaf_part(counted, checked), ())
            for i in share[len(outcomes) :]:
                path, proof, label, counted = leaves[i]
                checked = stitcher._checked_leaf(formula, path, proof, label, mode)
                walk.done[path] = (stitcher._leaf_part(counted, checked), ())
            stitched += handed
    for path, steps, hints, rat, events in stitched:
        steps = [ProofStep(op, Clause(literals)) for op, literals in steps]
        walk.done[path] = (stitcher._built(steps, path, [(0, hints)], rat), events)


def _judged_share(db, refutation, mode):
    """The second of two shares of a replay judged on db by
    checker._pass, as plain data that marshal writes: (end, reason,
    propagations, judged), the propagations being all those db made."""
    end, reason, _, judged = checker._pass(db, refutation, mode, 1, 2)
    return end, reason, db.propagations, judged


def _shared_replay(formula, cube, db, refutation, mode):
    """checker._replay's outcome with the proof's additions judged in two
    shares: a forked worker judges the second on its copy of db, a new
    database of formula plus cube, while this process judges the first
    on db. Returns (end, reason, propagations, skipped, judged) as
    _pass's end, reason, skipped and judged, for the proof as a serial
    replay judges it.

    The verdict is the earliest failure of either share; without one,
    both stopped at the same step. Applying a step makes the same
    propagations in both shares, so the count is that of the share the
    verdict is from, plus those the other share's checks made up to the
    verdict. judged merges both shares' by step, up to the verdict: ids
    are never reused, so db's clauses name the worker's ids too. If the
    worker did not start or ended without a result, its share is judged
    here on another new database.
    """
    with _forked(partial(_judged_share, db, refutation, mode)) as worker:
        end, reason, skipped, judged = checker._pass(db, refutation, mode, 0, 2)
        theirs = worker.result() if worker is not None else None
    if theirs is None:
        theirs = _judged_share(checker._database(formula, cube, db.record), refutation, mode)
    results = [(end, reason, db.propagations, judged), theirs]
    failed = [result for result in results if result[1] is not None]
    verdict = min(failed, key=lambda result: result[0]) if failed else results[0]
    end, reason, propagations, _ = verdict
    if end is not None:
        skipped = [(i, clause) for i, clause in skipped if i < end]
    merged = []
    for result in results:
        for entry in result[3]:
            if end is not None and entry[0] > end:
                break
            if result is not verdict:
                propagations += entry[5]
            merged.append(entry)
    merged.sort()
    return end, reason, propagations, skipped, merged
