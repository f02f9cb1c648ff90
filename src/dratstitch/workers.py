"""Work split over forked workers: the shares of a cube tree for
combine_all, and the shares of a large replay's additions for the
checker.

A stitch share is a contiguous run of leaves in post order, so it covers
a sequence of maximal subtrees. The process does the first share and a
forked worker each other one: each checks its share's leaves and, when
a merge can be trimmed, stitches the subtrees that lie in its share
through stitcher._merge. The process then hands every result to the one
post-order walk of combine_all.

A replay share is every K-th addition of a proof, judged by
checker._pass: every process applies every step, but judges only its
own additions and adds the others unjudged, as if they passed. The
process judges the first share and builds the report and annotations
meanwhile, and takes the rest from its workers. A verdict, its
annotation and its propagation count depend only on the database at its
step (see checker), so the outcome is the serial one.

Where the process and its workers fill the affinity mask, one per CPU,
each worker is pinned to a CPU of its own and the process to the first
until the workers are reaped: left to the scheduler, a child forked for
a few tens of milliseconds of work mostly shared its parent's CPU. On a
larger mask, where other processes may be running, they are left to
the scheduler.

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
from .checker import StepVerdict, _kept
from .core import ADD, Clause, ProofStep


def _split(sizes, merges, lo, hi, n):
    """Leaves lo to hi - 1 in n contiguous runs: cut in two where the
    stitch would take the least time, each side split again. That time is
    the slower side's, each side's weight spread over its workers, plus
    the weight of the merges across the cut, which wait for both sides."""
    if n == 1:
        return [range(lo, hi)]
    left = n // 2
    ended = [0] * (hi - lo + 1)  # weight of the merges that end at each leaf
    begun = [0] * (hi - lo + 1)  # and of those that begin there
    for first, end, w in merges:
        if lo <= first and end <= hi:
            ended[end - lo] += w
            begun[first - lo] += w
    before = [0] * (hi - lo + 1)  # weight of the leaves and merges before each cut
    after = [0] * (hi - lo + 1)  # and after it
    for c in range(1, hi - lo + 1):
        before[c] = before[c - 1] + sizes[lo + c - 1] + ended[c]
    for c in range(hi - lo - 1, -1, -1):
        after[c] = after[c + 1] + sizes[lo + c] + begun[c]
    # in units of 1 / (left * (n - left)) of a weight, to stay in integers
    _, cut = min(
        (
            max(before[c] * (n - left), after[c] * left)
            + (before[-1] - before[c] - after[c]) * left * (n - left),
            lo + c,
        )
        for c in range(left, hi - lo - (n - left) + 1)
    )
    return _split(sizes, merges, lo, cut, left) + _split(sizes, merges, cut, hi, n - left)


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
def _forked(works):
    """A forked _Worker per work, in order, or None where fork failed.
    Where this process and the workers fill the affinity mask, one per
    CPU, the n-th is pinned to CPU n of the mask and this process to the
    first until the block ends; on a larger mask the scheduler places
    them. An interrupt waits until every child forked is listed; the
    children keep it blocked, and are killed. When the block ends, the
    mask is restored and every worker that is still running is killed
    and reaped.
    """
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask) if len(works) + 1 == len(mask) else None
    workers = []
    try:
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for n, work in enumerate(works, 1):
                try:
                    workers.append(_Worker(work, cpus[n] if cpus else None))
                except OSError:
                    workers.append(None)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        checker._sharing = True
        if cpus:
            _pin({cpus[0]})
        yield workers
    finally:
        checker._sharing = False
        if cpus:
            _pin(mask)
        for worker in workers:
            if worker is not None:
                worker.stop()


def _stitched_shares(walk, tree, leaves, shares, mode):
    """stitcher._checked_shares with more than one share: a forked worker
    does the work of each share but the first, which the process does
    meanwhile.

    The parent rebuilds each result from plain data and its own copy of
    the proofs; it also takes each worker's open cubes into its memo,
    which the trims answer _root_conflict from, and emits the log records
    of the checks in leaf order, so warnings come out as in a serial
    stitch. It checks again the leaf a share failed, which raises here
    what it raised there, and every leaf of a share whose worker did not
    start or ended without a result; _merge stitches again whatever no
    share stitched. Every worker is reaped before this returns or raises.
    """
    formula = walk.formula
    # built once, before the fork, for every worker
    _kept(formula, 1)
    if walk.cl_avg >= 0:
        _kept(formula, 2)
    share_of = [k for k, share in enumerate(shares) for _ in share]
    subtrees = [[] for _ in shares]
    _subtrees(tree, (), 0, share_of, subtrees)
    work = [
        (walk, [leaves[i] for i in share], [sub[1:] for sub in sorted(subs)], mode)
        for share, subs in zip(shares, subtrees)
    ]
    with _forked([partial(_share_outcomes, *w) for w in work[1:]]) as workers:
        stitched = []
        for k, share in enumerate(shares):
            if k == 0:
                result = _stitched_share(*work[0])
            else:
                worker = workers[k - 1]
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


def _judged_share(db, refutation, mode, share, shares):
    """One share of a replay judged on db by checker._pass, as plain data
    that marshal writes: (end, reason, propagations, judged), the
    propagations being all those db made."""
    end, reason, _, _, judged = checker._pass(db, refutation, mode, share, shares)
    return end, reason, db.propagations, judged


def _shared_replay(formula, cube, record, refutation, mode, shares):
    """checker._replay's outcome with the proof's additions judged in
    shares: a forked worker judges each share but the first, which this
    process judges meanwhile. Returns (end, reason, propagations,
    annotations, skipped) as _pass's end, reason, steps and skipped, for
    the proof as a serial replay judges it.

    The verdict is the earliest failure of any share; without one, every
    share stopped at the same step. Applying a step makes the same
    propagations in every share, so the count is that of the share the
    verdict is from, plus those the other shares' checks made up to the
    verdict. Annotations of the workers' additions are built here, their
    ids mapped through this database's clauses: ids are never reused. A
    share whose worker did not start or ended without a result is judged
    here on a new database.
    """
    db = checker._database(formula, cube, record)
    works = [partial(_judged_share, db, refutation, mode, k, shares) for k in range(1, shares)]
    with _forked(works) as workers:
        end, reason, steps, skipped, judged = checker._pass(db, refutation, mode, 0, shares)
        results = [worker.result() if worker is not None else None for worker in workers]
    results = [(end, reason, db.propagations, judged)] + results
    for k, result in enumerate(results):
        if result is None:
            fresh = checker._database(formula, cube, record)
            results[k] = _judged_share(fresh, refutation, mode, k, shares)
    failed = [result for result in results if result[1] is not None]
    verdict = min(failed, key=lambda result: result[0]) if failed else results[0]
    end, reason, propagations, _ = verdict
    if end is not None:
        skipped = [(i, clause) for i, clause in skipped if i < end]
        if record:
            del steps[end:]
    clauses = db.clauses
    for k, result in enumerate(results):
        for i, kind, used_ids, neighbor_ids, cid, made in result[3]:
            if end is not None and i > end:
                break
            if result is not verdict:
                propagations += made
            if record and k:
                clause = refutation[i - 1].clause
                used = tuple(clauses[u] for u in used_ids)
                neighbors = tuple(clauses[u] for u in neighbor_ids)
                steps[i - 1] = StepVerdict(
                    i, ADD, clause, kind, True, used, neighbors, cid, used_ids
                )
    return end, reason, propagations, steps, skipped
