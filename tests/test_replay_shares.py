"""Replays judged in interleaved shares on forked workers against serial ones.

Each path is forced: a share size of one addition and a mask of two
CPUs fork one worker for every proof of two additions or more, and one
CPU keeps the replay in the process. Both processes apply every step
and each judges every other addition, so the two paths must give the
same reports (wall time aside), annotations, warnings in the same
order, trimmed bytes and cores, restore the affinity mask and leave no
child process behind.
"""

import contextlib
import dataclasses
import itertools
import logging
import os
import random
import signal

import pytest

import dratstitch
from dratstitch import (
    ADD,
    DELETE,
    PERMISSIVE,
    STRICT,
    Clause,
    Formula,
    ProofStep,
    Refutation,
    annotate_refutation,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    solve_drup,
    trim,
    write_drat,
)
from dratstitch import checker, stitcher, workers

from helpers import bench_workloads, bundle_for, instance_at, random_proofs, rat_corpus, stitched_instance
from test_engine_differential import HAND_CASES, TERNARY_CASES, _mutations

MODES = (STRICT, PERMISSIVE)


@contextlib.contextmanager
def replays(cpus):
    """Replays on that many CPUs: serial on one, else forced into two
    shares; yields the pids of the workers forked meanwhile."""
    forks = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        if cpus > 1:
            m.setattr(checker, "_SHARE_ADDITIONS", 1)
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        m.setattr(os, "fork", counted)
        yield forks


def no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _untimed(report):
    return dataclasses.replace(report, wall_time=0.0)


def outcome(formula, proof, mode, cube=()):
    """check_refutation's report, annotate_refutation's report and
    annotations, and the warnings both logged, in order."""
    logger = logging.getLogger("dratstitch")
    kept = []
    handler = logging.Handler()
    handler.emit = lambda record: kept.append((record.levelname, record.getMessage()))
    logger.addHandler(handler)
    try:
        report = check_refutation(formula, proof, mode=mode, cube=cube)
        annotated, annotations = annotate_refutation(formula, proof, mode=mode, cube=cube)
    finally:
        logger.removeHandler(handler)
    return _untimed(report), _untimed(annotated), annotations, kept


def assert_same(formula, proof, mode, cube=(), cpus=2):
    """The outcome on the forced path, on a mask of that many CPUs, is the
    serial one; returns the serial report and the number of forks made."""
    with replays(1) as forks:
        serial = outcome(formula, proof, mode, cube)
    assert not forks
    with replays(cpus) as forks:
        assert outcome(formula, proof, mode, cube) == serial, (mode, proof)
    return serial[0], len(forks)


def _adds(proof):
    return sum(1 for step in proof if step.is_add)


def _corpus():
    yield from HAND_CASES
    yield from TERNARY_CASES
    for _, formula, proof in itertools.islice(random_proofs(), 0, 150, 3):
        yield formula, proof
    for seed in (3, 7):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        for entry in bundle_for(formula, 2, seed=seed).entries:
            yield instance_at(formula, entry.cube.literals), entry.refutation
    for seed in (1, 2):
        formula, combined = stitched_instance(seed, num_vars=11, depth=3)
        yield formula, combined
        yield formula, trim(formula, combined)[0]


def _mutated():
    bases = []
    for seed in (4, 5):
        formula, combined = stitched_instance(seed, num_vars=10, depth=2)
        bases += [(formula, combined), (formula, trim(formula, combined)[0])]
    formula = gen_random_unsat(12, 5.0, seed=11)
    bases.append((formula, solve_drup(formula, seed=11).refutation))
    for n, (formula, proof) in enumerate(bases):
        rng = random.Random(n)
        for mutated in _mutations(formula, proof, rng).values():
            yield formula, mutated


def test_shared_replays_of_the_differential_corpora_match_serial_ones():
    verdicts = set()
    for formula, proof in itertools.chain(_corpus(), _mutated()):
        for mode in MODES:
            report, forks = assert_same(formula, proof, mode)
            verdicts.add((report.valid, report.reason))
            # two replays, one worker each
            if _adds(proof) >= 2:
                assert forks == 2
    assert {v for v, _ in verdicts} == {True, False}
    assert {r for _, r in verdicts} >= {
        None,
        checker.NOT_AT,
        checker.NOT_RAT,
        checker.DELETION_ABSENT,
        checker.MISSING_EMPTY_CLAUSE,
    }
    assert no_children()


def test_shared_replays_of_rat_proofs_and_their_trims_match_serial_ones():
    kinds = set()
    for formula, proof in itertools.islice(rat_corpus(), 0, 400, 8):
        for p in (proof, trim(formula, proof)[0]):
            report, _ = assert_same(formula, p, PERMISSIVE)
            assert report.valid
            kinds.update(s.op for s in p)
    assert kinds == {ADD, DELETE}


def test_shared_replays_against_a_cube_match_serial_ones():
    forked = 0
    for seed in (5, 6):
        formula = gen_random_unsat(14, 5.0, seed=seed)
        for entry in bundle_for(formula, 2, seed=seed).entries:
            for mode in MODES:
                cube = entry.cube.literals
                report, forks = assert_same(formula, entry.refutation, mode, cube)
                assert report.valid
                forked += forks
    assert forked


def _mono_deletions(seed, directory):
    """The bench's mono-deletions instance and proof at seed."""
    workloads = bench_workloads()
    shape = workloads.WORKLOADS["mono-deletions"]
    inputs = workloads.build_inputs(dratstitch, shape, seed, directory)
    formula = dratstitch.parse_dimacs(inputs.cnf.read_text()).formula
    return formula, dratstitch.parse_drat(inputs.proofs.read_text())


def _trimmed(formula, proof):
    trimmed, report = trim(formula, proof)
    return write_drat(trimmed), dratstitch.write_dimacs(report.core)


@pytest.mark.parametrize("seed", [1, 7])
def test_mono_deletions_checks_and_trims_the_same_in_shares(tmp_path, seed):
    formula, proof = _mono_deletions(seed, tmp_path)
    # the default share size splits it on two CPUs
    assert _adds(proof) >= 2 * checker._SHARE_ADDITIONS
    with replays(1) as forks:
        serial = outcome(formula, proof, STRICT), _trimmed(formula, proof)
    assert not forks
    with replays(2) as forks:
        assert outcome(formula, proof, STRICT) == serial[0]
        assert _trimmed(formula, proof) == serial[1]
    # check, annotate, and the trim's input and candidate replays
    assert len(forks) >= 4
    assert serial[0][0].valid and serial[0][0].propagations > 0
    assert no_children()


# hand-made proofs: the square is refuted by (2) then the empty clause;
# (-1) is neither AT nor RAT on a formula that only forces 1 and 2


SAT = Formula(Clause(c) for c in ((1, 2), (-1, 2), (1, -2), (3, 4)))
SQUARE = Formula(Clause(c) for c in ((1, 2), (1, -2), (-1, 2), (-1, -2)))
GOOD = [Clause((2,)), Clause((1,)), Clause((1, 2, 5)), Clause((2, 3)), Clause((1, 4))]
BAD = Clause((-1,))


def _proof(clauses, empty=True):
    steps = [ProofStep(ADD, c) for c in clauses]
    if empty:
        steps.append(ProofStep(ADD, Clause(())))
    return Refutation(steps)


@pytest.mark.parametrize("cpus", [2, 3])
def test_the_earliest_failure_of_any_share_is_the_verdict(cpus):
    failing = {}
    for bad in itertools.chain(
        ([i] for i in range(len(GOOD) + 1)), itertools.combinations(range(len(GOOD) + 1), 2)
    ):
        clauses = list(GOOD)
        for i in sorted(bad, reverse=True):
            clauses.insert(i, BAD)
        proof = _proof(clauses, empty=False)
        ordinals = [k for k, clause in enumerate(clauses) if clause is BAD]
        for mode in MODES:
            report, forks = assert_same(SAT, proof, mode, cpus=cpus)
            assert report.reason == checker.NOT_RAT
            assert report.failing_step == ordinals[0] + 1
            # two shares on either mask: one worker per replay
            assert forks == 2
        # whether the parent judged each failure: it judges share 0, the
        # additions whose ordinal is even
        failing.setdefault(tuple(k % 2 == 0 for k in ordinals), []).append(bad)
    # failures in the parent's share, a worker's, and both, either first
    assert {(True,), (False,), (True, False), (False, True), (True, True)} <= set(failing)
    assert no_children()


def test_an_absent_deletion_fails_strictly_and_warns_permissively_before_the_verdict():
    absent = ProofStep(DELETE, Clause((7, 8)))
    for at in range(len(GOOD) + 1):
        for bad in (None, len(GOOD) - 1, 1):
            clauses = [ProofStep(ADD, c) for c in GOOD]
            if bad is not None:
                clauses[bad] = ProofStep(ADD, BAD)
            steps = clauses[:at] + [absent] + clauses[at:] + [ProofStep(ADD, Clause(()))]
            proof = Refutation(steps)
            strict, _ = assert_same(SAT, proof, STRICT)
            permissive, _ = assert_same(SAT, proof, PERMISSIVE)
            first_bad = None if bad is None else bad + 1 + (bad >= at)
            if first_bad is None or at + 1 < first_bad:
                assert strict.reason == checker.DELETION_ABSENT
                assert strict.failing_step == at + 1
            # the warning of a deletion past the verdict step is not logged
            with replays(2):
                warned = outcome(SAT, proof, PERMISSIVE)[3]
            assert bool(warned) == (first_bad is None or at + 1 < first_bad)


def test_a_missing_empty_clause_and_steps_after_the_empty_clause():
    for n in range(2, len(GOOD) + 1):
        report, _ = assert_same(SQUARE, _proof(GOOD[:n], empty=False), STRICT)
        assert report.reason == checker.MISSING_EMPTY_CLAUSE
        assert report.failing_step is None and report.steps_checked == n
    # the empty clause at either parity of the additions, so judged by
    # the parent or by a worker, with valid and invalid steps after it
    for n in range(1, len(GOOD) + 1):
        after = [ProofStep(ADD, BAD), ProofStep(DELETE, Clause((9,)))]
        for trailing in (1, 2):
            proof = Refutation(list(_proof(GOOD[:n])) + after[:trailing])
            for mode in MODES:
                report, _ = assert_same(SQUARE, proof, mode)
                assert report.valid and report.steps_checked == n + 1
            with replays(2):
                warned = outcome(SQUARE, proof, STRICT)[3]
            message = "empty clause at step %d; ignoring %d trailing steps" % (n + 1, trailing)
            assert warned == [("WARNING", message)] * 2
            # an empty clause that fails on a satisfiable formula
            report, _ = assert_same(SAT, proof, STRICT)
            assert report.reason == checker.NOT_AT and report.failing_step == n + 1


def test_an_instance_with_a_root_conflict():
    formula = Formula(Clause(c) for c in ((1,), (-1,), (2, 3)))
    proof = _proof([BAD, Clause((4,)), Clause((-2, 5))] + GOOD)
    for mode in MODES:
        report, forks = assert_same(formula, proof, mode)
        assert report.valid and forks
    report, _ = assert_same(SAT, proof, STRICT, cube=(1, -1))
    assert report.valid


def test_the_share_of_a_worker_killed_is_judged_in_the_process(monkeypatch):
    parent = os.getpid()
    judged = []
    real = workers._judged_share

    def killed(db, refutation, mode):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        judged.append(refutation)
        return real(db, refutation, mode)

    formula, proof = stitched_instance(1, num_vars=11, depth=3)
    clauses = [s.clause for s in proof if s.is_add][:-1]
    cases = [(formula, proof), (SAT, _proof(GOOD[:2] + [BAD] + GOOD[2:]))]
    flipped = Clause(-lit for lit in clauses[5].literals)
    cases.append((formula, _proof(clauses[:5] + [flipped] + clauses[5:])))
    for f, p in cases:
        with replays(1):
            serial = outcome(f, p, STRICT)
        with replays(2) as forks, monkeypatch.context() as m:
            m.setattr(workers, "_judged_share", killed)
            judged.clear()
            assert outcome(f, p, STRICT) == serial
        # the worker's share of each replay was judged again here
        assert len(forks) == 2 and judged == [p, p]
    assert no_children()


def test_the_mask_is_restored_and_the_workers_reaped_after_a_return_or_a_raise(
    monkeypatch, tmp_path
):
    parent = os.getpid()
    pins = []  # this process's
    worker_pins = tmp_path / "pins"

    def pin(pid, cpus):
        if os.getpid() == parent:
            pins.append(set(cpus))
        else:
            with open(worker_pins, "a") as out:
                out.write("%s\n" % sorted(cpus))

    monkeypatch.setattr(os, "sched_setaffinity", pin)
    formula, proof = stitched_instance(2, num_vars=11, depth=3)
    with replays(2) as forks:
        assert check_refutation(formula, proof).valid
    # pinned to the first CPU, then the faked mask of two CPUs put back;
    # the worker pinned to the second
    assert len(forks) == 1 and pins == [{0}, {0, 1}]
    assert worker_pins.read_text() == "[1]\n"
    assert no_children()

    real_pass = checker._pass

    def interrupted(*args):
        real_pass(*args)
        if os.getpid() == parent:
            raise KeyboardInterrupt

    pins.clear()
    with replays(2) as forks, monkeypatch.context() as m:
        m.setattr(checker, "_pass", interrupted)
        with pytest.raises(KeyboardInterrupt):
            annotate_refutation(formula, proof)
    assert len(forks) == 1 and pins == [{0}, {0, 1}]
    assert not checker._sharing
    assert no_children()

    # the stitch's shares pin and restore through the same helper
    tree = build_cube_tree(bundle_for(gen_random_unsat(18, 4.3, seed=1), 2, seed=1))
    formula = gen_random_unsat(18, 4.3, seed=1)
    real_share = workers._stitched_share
    for raising in (False, True):

        def share(*args):
            out = real_share(*args)
            if raising and os.getpid() == parent:
                raise KeyboardInterrupt
            return out

        pins.clear()
        with replays(2) as forks, monkeypatch.context() as m:
            m.setattr(stitcher, "_SHARE_STEPS", 1)
            m.setattr(workers, "_stitched_share", share)
            with pytest.raises(KeyboardInterrupt) if raising else contextlib.nullcontext():
                combine_all(formula, tree, cl_avg=0)
        assert len(forks) == 1 and pins == [{0}, {0, 1}]
        assert not checker._sharing
        assert no_children()


def test_a_replay_takes_two_shares_at_most_and_pins_only_a_mask_it_fills(
    monkeypatch, tmp_path
):
    parent = os.getpid()
    pinned = tmp_path / "pinned"

    def pin(pid, cpus):
        with open(pinned, "a") as out:
            out.write("%s %s\n" % ("process" if os.getpid() == parent else "worker", sorted(cpus)))

    monkeypatch.setattr(os, "sched_setaffinity", pin)
    formula, proof = stitched_instance(2, num_vars=11, depth=3)
    with replays(1):
        serial = outcome(formula, proof, STRICT)
    # two shares on a mask of four CPUs: one worker per replay, left to
    # the scheduler, as processes started side by side may share the mask
    with replays(4) as forks:
        assert outcome(formula, proof, STRICT) == serial
    assert len(forks) == 2 and not pinned.exists()
    # the helper the stitch shares fork through pins by the same rule
    for cpus in (3, 2):
        with replays(cpus), workers._forked(os.getpid) as worker:
            assert worker.result() != parent
    pins = sorted(pinned.read_text().splitlines())
    assert pins == ["process [0, 1]", "process [0]", "worker [1]"]
    assert no_children()


def test_no_replay_forks_inside_a_stitch_worker_or_beside_one(monkeypatch, tmp_path):
    parent = os.getpid()
    nested = tmp_path / "nested"
    formula = gen_random_unsat(18, 4.3, seed=1)
    tree = build_cube_tree(bundle_for(formula, 2, seed=1))
    for cl_avg in (-1, 0):
        with replays(2) as forks, monkeypatch.context() as m:
            counted = os.fork

            def logged():
                if os.getpid() != parent:
                    with open(nested, "a") as out:
                        out.write("fork in a worker\n")
                return counted()

            m.setattr(stitcher, "_SHARE_STEPS", 1)
            m.setattr(os, "fork", logged)
            # every leaf has more than one addition, so a replay of it
            # would fork on its own
            assert all(_adds(leaf.refutation) >= 2 for leaf, _ in stitcher._leaves(tree))
            combine_all(formula, tree, cl_avg=cl_avg)
        assert not nested.exists()
        # the stitch's one worker, and no replay of the process's share
        assert len(forks) == 1
    assert no_children()
