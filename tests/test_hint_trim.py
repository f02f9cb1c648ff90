"""Per-merge trims from hints.

Wherever merges may be trimmed, ``combine_all`` validates every leaf
and trims each merge from the hints its children carry:
``trim(formula, merged, cube=path, hints=...)`` marks from the hints
and judges the input and every candidate with the hint checker, against
the formula plus the path's units. These tests hold that path to the
replay trim's outputs in size, to a full replay in validity, and to
rejection, never a returned proof, when the hints it is given are
broken; the replay trims are those of ``helpers.eager_combine_all``
with validate off. A step that passed only as RAT is trimmed from hints
too: the hint check gives its neighbours, and no trim replays.
Inside combine_all each trim is also told which input steps an earlier
check propagated; it must give what a trim judging its input in full
gives, and hints handed up broken must still make it raise.
"""

import contextlib
import dataclasses
import itertools
import random
from collections import Counter

import pytest

from dratstitch import (
    ADD,
    DELETE,
    BundleEntry,
    Clause,
    EMPTY_CLAUSE,
    Formula,
    InvalidSubProofError,
    ProofBundle,
    ProofStep,
    Refutation,
    TrimInternalError,
    annotate_refutation,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    has_at,
    parse_drat,
    trim,
    write_drat,
)
from dratstitch import checker, stitcher
from dratstitch.checker import KIND_RAT, STRICT
from dratstitch.formats import Cube

from helpers import bundle_for, eager_combine_all, rat_corpus, stitched_instance
from test_acceptance import _instances
from test_hints import _insert, depth_one_rat_bundles


@contextlib.contextmanager
def recorded_trims(monkeypatch):
    """Record (formula, proof, cube, hints) of every trim combine_all makes."""
    calls = []
    real = stitcher.trim

    def recording(formula, proof, *args, cube=(), hints=None, **kwargs):
        calls.append((formula, proof, tuple(cube), hints))
        return real(formula, proof, *args, cube=cube, hints=hints, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(stitcher, "trim", recording)
        yield calls


def hinted_merges(monkeypatch):
    """The hinted trim inputs of a few stitches at cl_avg 0."""
    with recorded_trims(monkeypatch) as calls:
        for seed in range(1, 5):
            stitched_instance(seed, cl_avg=0)
            stitched_instance(seed, num_vars=11, depth=3, cl_avg=0)
    assert calls and all(hints is not None for *_, hints in calls)
    return calls


def _trim_rejects(formula, proof, cube, hints):
    with pytest.raises(TrimInternalError):
        trim(formula, Refutation(proof), cube=cube, hints=hints)


def _walk(formula, proof, hints, cube):
    """Per step: (index, step, its hints, live copies per value before it)."""
    live = Counter(dict(formula.counts()))
    for lit in cube:
        live[Clause((lit,))] += 1
    for k, (step, hint) in enumerate(zip(proof, hints), 1):
        yield k, step, hint, live.copy()
        live[step.clause] += 1 if step.is_add else -1


def _at_over(clauses, units, clause):
    """Is clause AT over the given clauses plus the unit clauses? The hint
    rule without RAT, judged by the engine."""
    return has_at(Formula(list(clauses) + [Clause((u,)) for u in units]), clause)


# broken input hints: trim raises and returns nothing


def test_dropping_a_needed_input_hint_makes_the_trim_raise(monkeypatch):
    rejected = 0
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        clauses = list(formula.distinct()) + [s.clause for s in proof]
        rng = random.Random(len(proof))
        adds = [k for k, s in enumerate(proof, 1) if s.is_add and hints[k - 1]]
        for k in rng.sample(adds, min(4, len(adds))):
            hint = hints[k - 1]
            j = rng.randrange(len(hint))
            rest = hint[:j] + hint[j + 1 :]
            if _at_over((clauses[h] for h in rest), cube, proof[k - 1].clause):
                continue  # that hint was not needed
            mutated = list(hints)
            mutated[k - 1] = rest
            _trim_rejects(formula, proof, cube, mutated)
            rejected += 1
    assert rejected > 30


def test_deleting_a_hinted_lemma_before_its_use_makes_the_trim_raise(monkeypatch):
    rejected = 0
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        n = len(formula.counts())
        for k, step, hint, live in _walk(formula, proof, hints, cube):
            lemmas = [h for h in hint if h >= n and live[proof[h - n].clause] == 1]
            if step.is_add and lemmas and k % 3 == 0:
                victim = ProofStep(DELETE, proof[lemmas[0] - n].clause)
                mutated, moved = _insert(proof, hints, n, k, victim)
                _trim_rejects(formula, mutated, cube, moved)
                rejected += 1
    assert rejected > 30


def test_an_input_hint_naming_a_later_step_makes_the_trim_raise(monkeypatch):
    rejected = 0
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        n = len(formula.counts())
        rng = random.Random(len(proof))
        adds = [k for k, s in enumerate(proof, 1) if s.is_add]
        for k in rng.sample(adds, min(3, len(adds))):
            for later in (n + k - 1, n + k, n + len(proof)):  # itself, the next step, past the end
                mutated = list(hints)
                mutated[k - 1] = hints[k - 1] + (later,)
                _trim_rejects(formula, proof, cube, mutated)
                rejected += 1
    assert rejected > 30


def test_a_flipped_lemma_literal_makes_the_trim_raise_where_the_replay_rejects(monkeypatch):
    rejected = 0
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        rng = random.Random(len(proof))
        adds = [k for k, s in enumerate(proof, 1) if s.is_add and len(s.clause) > 0]
        for k in rng.sample(adds, min(4, len(adds))):
            lits = list(proof[k - 1].clause.literals)
            i = rng.randrange(len(lits))
            lits[i] = -lits[i]
            steps = list(proof)
            steps[k - 1] = ProofStep(ADD, Clause(lits))
            if not check_refutation(formula, Refutation(steps), STRICT, cube=cube).valid:
                _trim_rejects(formula, steps, cube, hints)
                rejected += 1
    assert rejected > 10


def test_a_cube_unit_deleted_and_then_used_makes_the_trim_raise(monkeypatch):
    rejected = 0
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        n = len(formula.counts())
        clauses = list(formula.distinct()) + [s.clause for s in proof]
        for u in cube:
            unit = Clause((u,))
            for k, step, hint, live in _walk(formula, proof, hints, cube):
                if not step.is_add or live[unit] != 1:
                    continue
                others = [v for v in cube if v != u and live[Clause((v,))]]
                hinted = [clauses[h] for h in hint]
                if _at_over(hinted, others + [u], step.clause) and not _at_over(
                    hinted, others, step.clause
                ):
                    # the first step that needs the unit, with it deleted just before
                    mutated, moved = _insert(proof, hints, n, k, ProofStep(DELETE, unit))
                    _trim_rejects(formula, mutated, cube, moved)
                    rejected += 1
                    break
    assert rejected > 10


def test_a_hinted_candidate_that_fails_its_check_raises(monkeypatch):
    from dratstitch import trimmer

    (formula, proof, cube, hints), *_ = [m for m in hinted_merges(monkeypatch) if len(m[1]) > 3]
    monkeypatch.setattr(trimmer._Analysis, "hints_of", lambda self, steps: [()] * len(steps))
    with pytest.raises(TrimInternalError):
        trim(formula, proof, cube=cube, hints=hints)


# the hint trim's outputs


def test_trimming_a_hint_trimmed_merge_with_its_own_hints_returns_it_unchanged(monkeypatch):
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        out, report = trim(formula, proof, cube=cube, hints=hints)
        assert report.rat_steps == () and len(report.hints) == len(out)
        assert check_refutation(formula, out, STRICT, cube=cube).valid
        assert check_refutation(formula, out, STRICT, cube=cube, hints=report.hints).valid
        again, second = trim(formula, out, cube=cube, hints=report.hints)
        assert again == out and second.hints == report.hints
        # the core is the formula clauses the output's hints name
        named = {h for ids in report.hints for h in ids}
        assert list(report.core.distinct()) == [
            c for i, c in enumerate(formula.distinct()) if i in named
        ]


def _depth_one(formula, pos, neg, var=1):
    entries = (
        BundleEntry(Cube((var,)), parse_drat(pos), "pos"),
        BundleEntry(Cube((-var,)), parse_drat(neg), "neg"),
    )
    return build_cube_tree(ProofBundle(formula, entries))


def test_a_merge_whose_instance_propagates_to_a_conflict_trims_to_the_empty_clause():
    # (3), (-3 4) and (-4) conflict by unit propagation alone
    formula = Formula(Clause(c) for c in ((3,), (-3, 4), (-4,), (1, 2), (-1, 2)))
    tree = _depth_one(formula, "2 0\n4 0\n0\n", "4 0\n2 0\n0\n")
    out = combine_all(formula, tree, cl_avg=0)
    assert out == Refutation([ProofStep(ADD, EMPTY_CLAUSE)])
    assert out.hints == [(1, 2, 0)]  # the root conflict: (-3 4) falsified by (-4) and (3)
    assert check_refutation(formula, out, STRICT, hints=out.hints).valid
    assert eager_combine_all(formula, tree, cl_avg=0, validate=False) == out


def test_a_widened_value_is_named_by_its_oldest_live_copy():
    # Under the cube 3 the leaf adds (1 -3), derives (1) from it, deletes
    # (1 -3) and refutes through (1). Widened, both lemmas are (1 -3):
    # the hint checker names the value by its first copy, as the replay
    # engine does, so the trim keeps one copy, deleted after its last use
    formula = Formula(
        Clause(c) for c in ((1, 2), (1, -2), (-1, 2, -3), (-1, -2, -3), (-1, 2, 3), (-1, -2, 3))
    )
    tree = _depth_one(formula, "1 -3 0\n1 0\nd 1 -3 0\n1 2 0\n0\n", "1 0\n0\n", var=3)
    out = combine_all(formula, tree, cl_avg=0)
    assert out == parse_drat("1 -3 0\n-3 0\nd 1 -3 0\n1 3 0\n0\n")
    assert out == eager_combine_all(formula, tree, cl_avg=0, validate=False)
    assert check_refutation(formula, out, STRICT, hints=out.hints).valid


def test_a_judged_step_names_a_widened_value_by_its_oldest_live_copy():
    # Under the cube 3 the leaf adds (1 -3) and (2), re-adds 1 as (1),
    # deletes (1 -3) and refutes through (1) and (2). Widened, (1) is a
    # second live copy of (1 -3), so the final step, judged by the leaf's
    # replay and not propagated again, must name the first copy, as a
    # propagation names it; naming the second would keep both
    formula = Formula(
        Clause(c) for c in ((1, 2), (1, -2), (-1, 2, -3), (-1, -2, -3), (-1, 2, 3), (-1, -2, 3))
    )
    tree = _depth_one(formula, "1 -3 0\n2 0\n1 0\nd 1 -3 0\n0\n", "1 0\n0\n", var=3)
    out = combine_all(formula, tree, cl_avg=0)
    assert out == parse_drat("1 -3 0\n2 -3 0\n-3 0\nd 1 -3 0\nd 2 -3 0\n1 3 0\n0\n")
    assert out == eager_combine_all(formula, tree, cl_avg=0, validate=False)
    assert check_refutation(formula, out, STRICT, hints=out.hints).valid


def test_a_depth_one_merge_drops_the_negative_final_clause():
    dropped = 0
    for seed in range(1, 30):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        bundle = bundle_for(formula, 1, seed=seed)
        pos, neg = sorted(bundle.entries, key=lambda e: -e.cube.literals[0])
        x = pos.cube.literals[0]
        if len(pos.refutation) < 2 or len(neg.refutation) < 2:
            continue
        out = combine_all(formula, build_cube_tree(bundle), cl_avg=0)
        if len(out) == 1:
            continue  # the instance propagates to a conflict
        assert ProofStep(ADD, Clause((-x,))) in out.steps
        assert ProofStep(ADD, Clause((x,))) not in out.steps
        assert check_refutation(formula, out, STRICT).valid
        dropped += 1
    assert dropped >= 10


# parity with the replay trim, RAT steps included


def _stitches():
    for seed in range(1, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        yield formula, build_cube_tree(bundle_for(formula, 2, seed=seed))
    for formula, bundle in _instances():
        yield formula, build_cube_tree(bundle)


@pytest.mark.parametrize("cl_avg", [0, 4])
def test_hint_trimmed_stitches_verify_and_match_the_replay_trims_in_size(cl_avg, capsys):
    hinted = replayed = trimmed = 0
    for formula, tree in itertools.chain(_stitches(), _deep_splits()):
        records = []
        out = combine_all(formula, tree, cl_avg=cl_avg, on_record=records.append)
        assert check_refutation(formula, out, STRICT).valid
        assert check_refutation(formula, out, STRICT, hints=out.hints).valid
        assert len(out) <= len(combine_all(formula, tree, cl_avg=-1, validate=False))
        hinted += len(out)
        replayed += len(eager_combine_all(formula, tree, cl_avg=cl_avg, validate=False))
        trimmed += sum(r.trimmed for r in records)
    with capsys.disabled():
        print(
            "\ncl_avg=%d: %d steps trimmed from hints, %d by replay, %d merges trimmed"
            % (cl_avg, hinted, replayed, trimmed)
        )
    assert trimmed > 0
    assert hinted <= replayed * 1.02


@contextlib.contextmanager
def counted_replays(monkeypatch):
    """Record, per call of the replay engine, whether a trim of
    combine_all's was running."""
    calls = []
    in_trim = []
    replay = checker._replay
    real = stitcher.trim

    def replay_(*args, **kwargs):
        calls.append(bool(in_trim))
        return replay(*args, **kwargs)

    def trim_(*args, **kwargs):
        in_trim.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            in_trim.pop()

    with monkeypatch.context() as m:
        m.setattr(checker, "_replay", replay_)
        m.setattr(stitcher, "trim", trim_)
        yield calls


def test_depth_one_rat_bundles_trim_from_hints(monkeypatch, capsys):
    count = 0
    for cl_avg in (0, 2):
        hinted = replayed = 0
        for formula, bundle in depth_one_rat_bundles():
            if not any(
                sv.kind == KIND_RAT
                for e in bundle.entries
                for sv in annotate_refutation(formula, e.refutation, cube=e.cube.literals)[1]
            ):
                continue
            tree = build_cube_tree(bundle)
            with recorded_trims(monkeypatch) as calls, counted_replays(monkeypatch) as replays:
                try:
                    out = combine_all(formula, tree, cl_avg=cl_avg)
                except InvalidSubProofError:
                    continue
            assert all(hints is not None for *_, hints in calls)
            assert replays == [False, False]  # one per leaf, none inside a trim
            assert check_refutation(formula, out, STRICT).valid
            assert check_refutation(formula, out, STRICT, hints=out.hints).valid
            hinted += len(out)
            replayed += len(eager_combine_all(formula, tree, cl_avg=cl_avg, validate=False))
            count += 1
        with capsys.disabled():
            print(
                "\ncl_avg=%d: RAT bundles trimmed from hints to %d steps, by replay to %d"
                % (cl_avg, hinted, replayed)
            )
        assert hinted <= replayed * 1.02
    assert count > 100


def test_a_trim_given_hints_of_a_rat_proof_does_not_replay(monkeypatch):
    def no_replay(*args, **kwargs):
        raise AssertionError("a trim given hints replayed")

    count = hinted = replayed = 0
    for formula, proof in rat_corpus():
        _, ann = annotate_refutation(formula, proof)
        if not any(sv.kind == KIND_RAT for sv in ann) or len(ann) < len(proof):
            continue
        steps, hints, _, _ = checker._as_hinted(formula, (), ann)
        assert steps == list(proof.steps)
        with monkeypatch.context() as m:
            m.setattr(checker, "_replay", no_replay)
            out, report = trim(formula, proof, hints=hints)
        assert check_refutation(formula, out, STRICT).valid
        assert check_refutation(formula, out, STRICT, hints=report.hints).valid
        hinted += len(out)
        replayed += len(trim(formula, proof)[0])
        count += 1
    assert count > 50
    assert hinted <= replayed * 1.02


def test_a_rat_steps_needed_ids_name_the_oldest_live_copy_of_a_widened_value():
    # Under the cube 3 the leaf adds (1 5 -3) and (1 5), deletes (1 5 -3),
    # and adds (4) as RAT on 4: its one resolvent, with (-4 6), is (6),
    # whose negation (-1 6), (-5 6) and (1 5) refute. Widened, (1 5) is a
    # second copy of (1 5 -3), so the hint the leaf carries for (4 -3)
    # names the younger copy; what its RAT check needed must name the
    # older one, as the replay engine does
    formula = Formula(
        Clause(c)
        for c in (
            (1, 5, -3, 7), (1, 5, -3, -7), (-4, 6), (-1, 6), (-5, 6),
            (-6, -3, 9), (-6, -3, -9), (3, 10), (3, -10),
        )
    )
    tree = _depth_one(formula, "1 5 -3 0\n1 5 0\nd 1 5 -3 0\n4 0\n6 0\n0\n", "0\n", var=3)
    stitched = combine_all(formula, tree)
    n = len(formula.counts())
    assert stitched[3] == ProofStep(ADD, Clause((4, -3))) and n + 1 in stitched.hints[3]
    needed = []
    _, rat = checker._check_hinted(formula, stitched, STRICT, stitched.hints, needed=needed)
    assert rat == {4: (Clause((-4, 6)),)}
    replayed = annotate_refutation(formula, stitched, STRICT)[1][3]
    assert needed[3] == replayed.used_ids and n in needed[3] and n + 1 not in needed[3]
    # trimmed from these hints, the RAT step stays and its output hints pass
    out, report = trim(formula, stitched, hints=stitched.hints)
    assert out[report.rat_steps[0] - 1] == stitched[3]
    assert check_refutation(formula, out, STRICT).valid
    assert check_refutation(formula, out, STRICT, hints=report.hints).valid


# trims told which input steps an earlier check propagated


@contextlib.contextmanager
def judged_trims(monkeypatch, in_full=False):
    """Record (proof, cube, hints, judged steps) of every trim combine_all
    makes. With in_full, each is the public trim without the judged
    steps, which judges its whole input."""
    calls = []
    real = stitcher.trim

    def recording(formula, proof, *args, cube=(), hints=None, _judged=None, **kwargs):
        calls.append((proof, tuple(cube), hints, _judged))
        if not in_full:
            kwargs["_judged"] = _judged
        return real(formula, proof, *args, cube=cube, hints=hints, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(stitcher, "trim", recording)
        yield calls


def _deep_splits():
    """Instances split so deep that most leaves refute by propagation
    alone: at cl_avg 4, trimmed merges sit above untrimmed ones."""
    for seed, depth in itertools.product(range(1, 5), (5, 6)):
        formula = gen_random_unsat(24, 4.6, seed=seed)
        yield formula, build_cube_tree(bundle_for(formula, depth, seed=seed))


@pytest.mark.parametrize("cl_avg", [0, 4])
def test_trims_told_the_judged_steps_match_trims_that_judge_their_inputs_in_full(
    cl_avg, monkeypatch, capsys
):
    told = in_full = trims = unjudged = 0
    for formula, tree in itertools.chain(_stitches(), _deep_splits()):
        records = []
        with judged_trims(monkeypatch) as calls:
            out = combine_all(formula, tree, cl_avg=cl_avg, on_record=records.append)
        with judged_trims(monkeypatch, in_full=True):
            full = combine_all(formula, tree, cl_avg=cl_avg)
        text = write_drat(out)
        assert text == write_drat(full) and out.hints == full.hints
        told += len(text)
        in_full += len(write_drat(full))
        decisions = {r.var for r in records}
        for proof, _, _, judged in calls:
            fresh = set(range(1, len(proof) + 1)) - judged
            assert len(proof) in fresh  # the merge's own empty clause
            if cl_avg == 0:
                assert fresh == {len(proof)}
            for i in fresh:
                # an untrimmed merge's empty clause, widened by decisions
                assert {abs(l) for l in proof[i - 1].clause} <= decisions
            trims += 1
            unjudged += len(fresh) - 1
    with capsys.disabled():
        print(
            "\ncl_avg=%d: %d bytes told the judged steps, %d judging in full; "
            "%d hinted trims, %d untrimmed empty clauses among their inputs"
            % (cl_avg, told, in_full, trims, unjudged)
        )
    assert trims > 10 and (unjudged > 100 if cl_avg else unjudged == 0)


def _stitch_raises(monkeypatch, formula, tree, cl_avg, wrap):
    """combine_all with stitcher.trim replaced by wrap(real trim) must
    raise TrimInternalError, never return a proof."""
    with monkeypatch.context() as m:
        m.setattr(stitcher, "trim", wrap(stitcher.trim))
        with pytest.raises(TrimInternalError):
            combine_all(formula, tree, cl_avg=cl_avg)


def _kth_trim(k, given=None, handed_up=None):
    """A trim wrapper: the k-th trim is given the input hints given, or
    hands up handed_up as its output's hints."""

    def wrap(real):
        count = itertools.count()

        def trim_(formula, proof, *args, hints=None, **kwargs):
            if next(count) != k:
                return real(formula, proof, *args, hints=hints, **kwargs)
            out, report = real(formula, proof, *args, hints=given or hints, **kwargs)
            if handed_up is not None:
                report = dataclasses.replace(report, hints=handed_up)
            return out, report

        return trim_

    return wrap


def _needed_dropped(formula, proof, cube, hints, i):
    """hints with one id dropped from step i's that the step cannot pass
    as AT without, or None when there is none."""
    clauses = list(formula.distinct()) + [s.clause for s in proof]
    hint = hints[i - 1]
    for j in range(len(hint)):
        rest = hint[:j] + hint[j + 1 :]
        if not _at_over((clauses[h] for h in rest), cube, proof[i - 1].clause):
            out = list(hints)
            out[i - 1] = rest
            return out
    return None


def test_broken_hints_a_trimmed_child_hands_up_make_the_trim_above_it_raise(monkeypatch):
    lost = later = 0
    for seed, (num_vars, depth) in itertools.product(range(1, 5), ((10, 2), (11, 3))):
        formula = gen_random_unsat(num_vars, 5.0, seed=seed)
        tree = build_cube_tree(bundle_for(formula, depth, seed=seed))
        outputs = []  # per trim: its cube, output and output hints

        def recording(real):
            def trim_(formula, proof, *args, cube=(), **kwargs):
                out, report = real(formula, proof, *args, cube=cube, **kwargs)
                outputs.append((tuple(cube), out, report.hints))
                return out, report

            return trim_

        with monkeypatch.context() as m:
            m.setattr(stitcher, "trim", recording(stitcher.trim))
            combine_all(formula, tree, cl_avg=0)
        output_steps = {cube: set(out.steps) for cube, out, _ in outputs}
        n = len(formula.counts())
        for k, (cube, out, hints) in enumerate(outputs):
            if not cube:
                continue
            # the additions of this output that the trim above keeps, widened
            above = output_steps[cube[:-1]]
            kept = [
                i
                for i, step in enumerate(out, 1)
                if step.is_add
                and hints[i - 1]
                and ProofStep(ADD, step.clause.with_literal(-cube[-1])) in above
            ]
            for i in random.Random(seed * 100 + k).sample(kept, min(2, len(kept))):
                dropped = _needed_dropped(formula, out, cube, hints, i)
                if dropped is not None:
                    _stitch_raises(monkeypatch, formula, tree, 0, _kth_trim(k, handed_up=dropped))
                    lost += 1
                # the id of the step after it names a later step above too
                named = list(hints)
                named[i - 1] += (n + i,)
                _stitch_raises(monkeypatch, formula, tree, 0, _kth_trim(k, handed_up=named))
                later += 1
    assert lost > 10 and later > 20


def test_a_broken_hint_on_an_untrimmed_merges_empty_clause_makes_the_trim_above_raise(
    monkeypatch,
):
    broken = 0
    for formula, tree in _deep_splits():
        with judged_trims(monkeypatch) as calls:
            combine_all(formula, tree, cl_avg=4)
        for k, (proof, cube, hints, judged) in enumerate(calls):
            # the untrimmed merges' empty clauses, not the trim's own
            fresh = sorted(set(range(1, len(proof))) - judged)
            for i in random.Random(k).sample(fresh, min(3, len(fresh))):
                dropped = _needed_dropped(formula, proof, cube, hints, i)
                if dropped is not None:
                    _stitch_raises(monkeypatch, formula, tree, 4, _kth_trim(k, given=dropped))
                    broken += 1
    assert broken >= 8


def test_a_kept_step_whose_handed_up_hints_pass_it_only_as_rat_makes_the_trim_raise(monkeypatch):
    # 3 occurs in no formula clause, so once the judged (-3) of the
    # positive leaf loses its hints, its candidate check passes it as RAT
    # on -3 with no resolvent to check; hints then say nothing of its
    # derivation, and the trim must not take it
    formula = Formula(Clause(c) for c in ((1, 2), (1, -2), (-1, 2), (-1, -2), (-3, 4)))
    tree = _depth_one(formula, "1 0\n0\n", "1 0\n0\n", var=3)
    with judged_trims(monkeypatch) as calls:
        combine_all(formula, tree, cl_avg=0)
    [(proof, _, hints, judged)] = calls
    assert proof[1].clause == Clause((-3,)) and 2 in judged and hints[1]
    broken = list(hints)
    broken[1] = ()
    _stitch_raises(monkeypatch, formula, tree, 0, _kth_trim(0, given=broken))
