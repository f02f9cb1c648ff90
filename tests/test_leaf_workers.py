"""combine_all's shares in forked workers against the serial stitch.

Each path is forced: two CPUs and a share weight of one step fork a
worker for every bundle of two leaves or more, and one CPU keeps the
stitch in the parent. A worker checks its share's leaves and, when a
merge can be trimmed, stitches the subtrees that lie in its share. The
two paths must stitch the same bytes, hints and records, log the same
warnings in the same order, raise the same error after the same
records, and leave no child process behind.
"""

import contextlib
import dataclasses
import itertools
import logging
import os
import signal
import threading
import time
from functools import partial

import pytest

from dratstitch import (
    ADD,
    Clause,
    DELETE,
    InvalidSubProofError,
    NonPreservingInputError,
    PERMISSIVE,
    ProofStep,
    Refutation,
    TrimInternalError,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    write_drat,
)
import dratstitch
from dratstitch import checker, load_bundle, stitcher, workers

from helpers import bench_workloads, bundle_for, reference_subtrees
from test_acceptance import _instances
from test_hint_trim import _deep_splits
from test_hints import depth_one_rat_bundles


@contextlib.contextmanager
def leaf_checks(path):
    """Force the "serial" or the "forked" leaf checks; yields the pids of
    the workers forked meanwhile."""
    forks = []
    with pytest.MonkeyPatch.context() as m:
        if path == "serial":
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            m.setattr(stitcher, "_SHARE_STEPS", 1)
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            fork = os.fork

            def counted():
                pid = fork()
                if pid:
                    forks.append(pid)
                return pid

            m.setattr(os, "fork", counted)
        yield forks


def outcome(formula, tree, cl_avg, **kwargs):
    """(bytes, hints, records without timings) of a stitch, or the type
    and message of the error it raised and the records it emitted first."""
    records = []
    try:
        out = combine_all(formula, tree, cl_avg=cl_avg, on_record=records.append, **kwargs)
    except (InvalidSubProofError, NonPreservingInputError, TrimInternalError) as exc:
        out = exc
    untimed = [dataclasses.replace(r, merge_seconds=0.0, trim_seconds=0.0) for r in records]
    if isinstance(out, Exception):
        return type(out), str(out), untimed
    return write_drat(out), out.hints, untimed


@contextlib.contextmanager
def parent_trims():
    """The paths of the trims made in this process meanwhile."""
    paths = []
    real = stitcher.trim

    def recording(formula, proof, *args, **kwargs):
        paths.append(kwargs["cube"])
        return real(formula, proof, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stitcher, "trim", recording)
        yield paths


@contextlib.contextmanager
def weigh_walks():
    """The cube trees stitcher._weigh walked meanwhile, which lists the
    merges a share's subtrees are selected from."""
    walks = []
    real = stitcher._weigh

    def counted(node, path, *args):
        if not path:  # the walk's root, not one of its own recursive calls
            walks.append(node)
        return real(node, path, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stitcher, "_weigh", counted)
        yield walks


def both_paths(formula, tree, cl_avg, **kwargs):
    """outcome on the serial path, then on the forked path, and the
    number of workers the forked one started."""
    with leaf_checks("serial") as forks:
        serial = outcome(formula, tree, cl_avg, **kwargs)
    assert not forks
    with leaf_checks("forked") as forks:
        forked = outcome(formula, tree, cl_avg, **kwargs)
    return serial, forked, len(forks)


def _corpus():
    for formula, bundle in _instances():
        yield formula, build_cube_tree(bundle)
    yield from _deep_splits()
    for formula, bundle in itertools.islice(depth_one_rat_bundles(), 0, 400, 10):
        yield formula, build_cube_tree(bundle)


def test_forked_leaf_checks_stitch_what_serial_ones_do():
    stitched = failed = started = 0
    trims = {"serial": 0, "forked": 0}  # made in this process
    for formula, tree in _corpus():
        for cl_avg in (-1, 0, 2, 4):
            with parent_trims() as paths, weigh_walks() as walks:
                serial, forked, forks = both_paths(formula, tree, cl_avg)
            assert forked == serial
            # one walk per stitch, serial and forked; with no merge to
            # trim, none, and no share stitches a subtree
            assert len(walks) == (2 if cl_avg >= 0 else 0)
            started += forks
            if isinstance(serial[0], str):
                stitched += 1
                made = sum(r.trimmed for r in serial[2])
                assert made <= len(paths) <= 2 * made
                trims["serial"] += made
                trims["forked"] += len(paths) - made
            else:
                failed += 1
    # every bundle has two leaves or more, so every forced stitch forks
    assert started == stitched + failed
    assert stitched > 400 and failed > 0
    # workers made some of the trims
    assert 0 < trims["forked"] < trims["serial"]


def _seed_7_trees(directory):
    """The cube trees of both stitch workloads' bench inputs at seed 7."""
    workloads = bench_workloads()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        if workload.stitch_args is not None:
            inputs = workloads.build_inputs(dratstitch, workload, 7, directory / name)
            yield build_cube_tree(load_bundle(inputs.cnf, inputs.proofs))


def test_a_shares_subtrees_are_selected_from_the_weighed_merges_as_a_walk_finds_them(tmp_path):
    cuts = 0
    for tree in itertools.chain(_seed_7_trees(tmp_path), (tree for _, tree in _deep_splits())):
        counted = [
            stitcher._Part(None, len(leaf.refutation), *stitcher._tally(leaf.refutation, path), ())
            for leaf, path in stitcher._leaves(tree)
        ]
        sizes, merges = [], []
        stitcher._weigh(tree, (), counted, 0, sizes, merges)
        n = len(sizes)
        for cut in range(1, n):
            shares = [range(cut), range(cut, n)]
            share_of = [k for k, share in enumerate(shares) for _ in share]
            walked = ([], [])
            reference_subtrees(tree, (), 0, share_of, walked)
            want = [[sub[1:] for sub in sorted(subs)] for subs in walked]
            assert [workers._subtrees(merges, share) for share in shares] == want
            cuts += 1
    assert cuts > 150


def test_leaves_fork_in_balanced_runs_only_with_enough_steps_per_cpu(monkeypatch):
    monkeypatch.setattr(stitcher, "_SHARE_STEPS", 600)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert stitcher._shares([100] * 11 + [99]) == [range(12)]
    assert stitcher._shares([100] * 12) == [range(6), range(6, 12)]
    assert stitcher._shares([900, 100, 200]) == [range(1), range(1, 3)]
    # a merge that will be trimmed weighs on the side that makes it
    assert stitcher._shares([200, 200, 200, 600]) == [range(3), range(3, 4)]
    merges = [(0, 2, 600), (2, 4, 0), (0, 4, 20)]
    assert stitcher._shares([200, 200, 200, 600], merges) == [range(2), range(2, 4)]
    # two shares at most, however many CPUs the mask holds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert stitcher._shares([100] * 18) == [range(9), range(9, 18)]
    assert stitcher._shares([100] * 24) == [range(12), range(12, 24)]
    # serial on one CPU, without fork, and beside another thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert stitcher._shares([100] * 24) == [range(24)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert stitcher._shares([100] * 24) == [range(24)]
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert stitcher._shares([100] * 24) == [range(24)]
    finally:
        done.set()
        other.join(10)
    assert not other.is_alive()


# broken leaves in either share


def _split():
    """A split whose leaves all have lemmas, the leaves in stitching order
    and their two shares."""
    formula = gen_random_unsat(18, 4.3, seed=1)
    tree = build_cube_tree(bundle_for(formula, 2, seed=1))
    leaves = list(stitcher._leaves(tree))
    with leaf_checks("forked"):
        shares = stitcher._shares([len(leaf.refutation) for leaf, _ in leaves])
    assert len(shares) == 2
    return formula, tree, leaves, shares


def _replaced(tree, path, proof):
    """The tree with the leaf at path given another proof."""
    if isinstance(tree, stitcher.Leaf):
        return stitcher.Leaf(tree.cube, proof)
    x = tree.var
    if path[0] == x:
        return stitcher.Inner(x, _replaced(tree.pos_child, path[1:], proof), tree.neg_child)
    return stitcher.Inner(x, tree.pos_child, _replaced(tree.neg_child, path[1:], proof))


def _invalid_at_a_step(formula, path, proof):
    """The proof with a first step that its check rejects."""
    for lit in sorted(formula.variables()):
        for unit in (lit, -lit):
            broken = Refutation((ProofStep(ADD, Clause((unit,))),) + proof.steps)
            report = check_refutation(formula, broken, cube=path)
            if report.failing_step == 1:
                return broken
    raise AssertionError("every unit passes under %r" % (path,))


def _deleted_and_added_again(formula, path, proof):
    """The proof that first deletes a formula clause the cube satisfies,
    then adds it again, as AT: it passes a strict check and is
    preserving, but the formula clause is absent once the proof is
    widened, so a strict stitch rejects it."""
    clause = next(c for c in formula.distinct() if any(lit in c for lit in path))
    return Refutation((ProofStep(DELETE, clause), ProofStep(ADD, clause)) + proof.steps)


def _breakers(formula):
    """Ways to break a leaf proof, each with the error it must raise."""
    first = next(iter(formula.distinct()))
    return [
        (NonPreservingInputError, partial(_deleted_and_added_again, formula)),
        (InvalidSubProofError, lambda path, proof: Refutation(proof.steps[:-1])),
        (InvalidSubProofError, lambda path, proof: _invalid_at_a_step(formula, path, proof)),
        (
            NonPreservingInputError,
            lambda path, proof: Refutation((ProofStep(DELETE, first),) + proof.steps),
        ),
    ]


@pytest.mark.parametrize("where", ["parent", "worker", "both"])
def test_a_broken_leaf_raises_what_the_serial_check_raises(where):
    formula, tree, leaves, (mine, theirs) = _split()
    # the parent's first leaf and the worker's last, each with lemmas
    picks = {
        "parent": [min(i for i in mine if len(leaves[i][0].refutation) > 1)],
        "worker": [max(i for i in theirs if len(leaves[i][0].refutation) > 1)],
    }
    picks["both"] = picks["parent"] + picks["worker"]
    for error, breaker in _breakers(formula):
        broken = tree
        sizes = [len(leaf.refutation) for leaf, _ in leaves]
        for i in picks[where]:
            leaf, path = leaves[i]
            proof = breaker(path, leaf.refutation)
            broken = _replaced(broken, path, proof)
            sizes[i] = len(proof)
        with leaf_checks("forked"):
            assert stitcher._shares(sizes) == [mine, theirs]
        for cl_avg in (-1, 0):
            serial, forked, forks = both_paths(formula, broken, cl_avg)
            assert forked == serial and forks == 1
            assert serial[0] is error
            first = leaves[picks[where][0]][0].cube.filename()
            assert serial[1].startswith("cube %s: " % first)


def test_a_stitch_on_a_mask_of_four_cpus_forks_one_worker_and_pins_nothing(tmp_path):
    formula, tree, _, _ = _split()
    pinned = tmp_path / "pinned"

    def pin(pid, cpus):
        with open(pinned, "a") as out:
            out.write("%s\n" % sorted(cpus))

    with leaf_checks("serial"):
        serial = outcome(formula, tree, 0)
    with leaf_checks("forked") as forks, pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        m.setattr(os, "sched_setaffinity", pin)
        assert outcome(formula, tree, 0) == serial
    assert len(forks) == 1 and not pinned.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_a_stitch_that_raises_or_returns():
    formula, tree, leaves, (_, theirs) = _split()
    leaf, path = leaves[theirs[-1]]
    broken = _replaced(tree, path, Refutation(leaf.refutation.steps[:-1]))
    with leaf_checks("forked") as forks:
        for cl_avg in (-1, 0):
            with pytest.raises(InvalidSubProofError):
                combine_all(formula, broken, cl_avg=cl_avg)
            combine_all(formula, tree, cl_avg=cl_avg)
    assert len(forks) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_stitch_that_fails_in_the_parent_does_not_wait_for_its_workers(monkeypatch):
    formula, tree, leaves, (mine, _) = _split()
    leaf, path = leaves[mine[0]]
    broken = _replaced(tree, path, Refutation(leaf.refutation.steps[:-1]))
    monkeypatch.setattr(workers, "_share_outcomes", lambda *args: time.sleep(60))
    start = time.perf_counter()
    with leaf_checks("forked") as forks:
        with pytest.raises(InvalidSubProofError):
            combine_all(formula, broken)
    assert len(forks) == 1 and time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_stitch_reaps_its_workers(monkeypatch):
    formula, tree, _, _ = _split()
    package = logging.getLogger("dratstitch")
    handlers = package.handlers
    parent = os.getpid()
    # in a leaf check, and in a trim of the parent's share
    for name, cl_avg in (("_leaf_outcome", -1), ("trim", 0)):
        real = getattr(stitcher, name)

        def interrupted(*args, real=real, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(stitcher, name, interrupted)
            with leaf_checks("forked") as forks:
                with pytest.raises(KeyboardInterrupt):
                    combine_all(formula, tree, cl_avg=cl_avg)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the log records of the parent's share go to the package's handlers again
        assert package.handlers is handlers and package.propagate


def test_an_interrupt_right_after_a_fork_reaps_the_new_worker(monkeypatch):
    formula, tree, _, _ = _split()
    # The interrupt is raised only if a worker is forked and SIGINT then
    # reaches the default handler, so each way that could fail is named:
    # a stitch beside another thread or inside a share stays serial, a
    # child left behind holds a process slot, and a failed fork falls back
    # to a serial stitch.
    assert threading.active_count() == 1, threading.enumerate()
    assert not checker._sharing
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    failed = []
    with leaf_checks("forked") as forks, monkeypatch.context() as m:
        fork = os.fork

        def interrupted():
            try:
                pid = fork()
            except OSError as exc:
                failed.append(exc)
                raise
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        m.setattr(os, "fork", interrupted)
        with pytest.raises(KeyboardInterrupt):
            try:
                combine_all(formula, tree, cl_avg=0)
            finally:
                assert not failed, "the fork failed: %r" % failed
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("broken", [False, True])
def test_a_share_whose_worker_ends_without_a_result_is_checked_in_the_parent(
    monkeypatch, broken
):
    formula, tree, leaves, (_, theirs) = _split()
    if broken:
        leaf, path = leaves[theirs[-1]]
        tree = _replaced(tree, path, Refutation(leaf.refutation.steps[:-1]))
    with leaf_checks("serial"):
        serial = outcome(formula, tree, -1)
    checked = []
    real = stitcher._leaf_outcome

    def counted(formula, cube, *args):
        checked.append(cube)
        return real(formula, cube, *args)

    def killed(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(stitcher, "_leaf_outcome", counted)
    monkeypatch.setattr(workers, "_share_outcomes", killed)
    with leaf_checks("forked") as forks:
        assert outcome(formula, tree, -1) == serial
    assert len(forks) == 1
    # every leaf was checked here, the worker's share too
    assert checked == [path for _, path in leaves]


def test_the_subtree_of_a_worker_killed_mid_stitch_is_stitched_in_the_parent(monkeypatch):
    formula, tree, _, _ = _split()
    with leaf_checks("serial"), parent_trims() as made:
        serial = outcome(formula, tree, 0)
    parent = os.getpid()
    real = stitcher.trim

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(stitcher, "trim", killed)
    with leaf_checks("forked") as forks, parent_trims() as paths:
        assert outcome(formula, tree, 0) == serial
    assert len(forks) == 1
    # the parent made every trim, in post order, the worker's too
    assert paths == made and len(made) == 3


def _trims_raising_at(monkeypatch, at):
    """Makes the trim of the merge at path at raise, in every process."""
    real = stitcher.trim

    def raising(formula, proof, *args, **kwargs):
        if kwargs["cube"] == at:
            raise TrimInternalError("made to fail at %r" % (at,))
        return real(formula, proof, *args, **kwargs)

    monkeypatch.setattr(stitcher, "trim", raising)


@pytest.mark.parametrize("where", ["parent", "worker", "root"])
def test_a_trim_that_raises_raises_after_the_records_of_a_serial_stitch(monkeypatch, where):
    formula, tree, leaves, (mine, theirs) = _split()
    at = {"parent": leaves[mine[0]][1][:-1], "worker": leaves[theirs[0]][1][:-1], "root": ()}
    _trims_raising_at(monkeypatch, at[where])
    serial, forked, forks = both_paths(formula, tree, 0)
    assert forked == serial and forks == 1
    assert serial[:2] == (TrimInternalError, "made to fail at %r" % (at[where],))
    # the merges before it in post order were recorded
    assert [r.path for r in serial[2]] == [at["parent"], at["worker"]][: len(serial[2])]
    assert len(serial[2]) == {"parent": 0, "worker": 1, "root": 2}[where]


def test_a_worker_whose_trim_raises_hands_back_the_trims_it_finished(monkeypatch):
    formula = gen_random_unsat(18, 4.3, seed=3)
    tree = build_cube_tree(bundle_for(formula, 3, seed=3))
    at = (-tree.var,)  # the root's negative subtree, a worker's share
    _trims_raising_at(monkeypatch, at)
    with parent_trims() as paths:
        serial, forked, forks = both_paths(formula, tree, 0)
    assert forked == serial and forks == 1
    assert serial[:2] == (TrimInternalError, "made to fail at %r" % (at,))
    made = [r.path for r in serial[2]]
    assert len(made) == 5 and made[3:] == [at + (tree.neg_child.var,), at + (-tree.neg_child.var,)]
    # the parent made the trims of its own share, and the one that raises again
    assert paths == made + [at] + made[:3] + [at]


def test_a_trim_that_raises_in_the_parent_gives_way_to_a_broken_leaf_of_a_worker(monkeypatch):
    formula, tree, leaves, (mine, theirs) = _split()
    leaf, path = leaves[theirs[-1]]
    broken = _replaced(tree, path, Refutation(leaf.refutation.steps[:-1]))
    _trims_raising_at(monkeypatch, leaves[mine[0]][1][:-1])
    serial, forked, forks = both_paths(formula, broken, 0)
    assert forked == serial and forks == 1
    # every leaf is checked before any merge
    assert serial[0] is InvalidSubProofError and serial[2] == []
    assert serial[1].startswith("cube %s: " % leaf.cube.filename())


def test_warnings_from_a_workers_subtree_come_out_in_serial_order(caplog):
    formula, tree, leaves, (_, theirs) = _split()
    # each leaf of the worker's share first deletes a lemma it adds
    # later, which is absent then
    expected = []
    for i in theirs:
        leaf, path = leaves[i]
        lemma = next(step.clause for step in leaf.refutation if step.clause not in formula)
        deletion = ProofStep(DELETE, lemma)
        tree = _replaced(tree, path, Refutation((deletion,) + leaf.refutation.steps))
        expected.append("step 1: deletion of absent clause %r skipped" % lemma)
    for cl_avg in (-1, 0, 2):
        runs = []
        for path in ("serial", "forked"):
            caplog.clear()
            with leaf_checks(path):
                stitched = outcome(formula, tree, cl_avg, mode=PERMISSIVE)
            runs.append((stitched, [record.getMessage() for record in caplog.records]))
        assert runs[1] == runs[0]
        assert isinstance(runs[0][0][0], str) and runs[0][1] == expected
