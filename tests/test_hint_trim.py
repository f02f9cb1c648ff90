"""Per-merge trims from hints.

With every leaf validated, ``combine_all`` trims each merge from the
hints its children carry: ``trim(formula, merged, cube=path, hints=...)``
marks from the hints and judges the input and every candidate with the
hint checker, against the formula plus the path's units. These tests
hold that path to the replay trim's outputs in size, to a full replay in
validity, and to rejection, never a returned proof, when the hints it is
given are broken. RAT leaves and unhinted stitches keep the replay trim.
"""

import contextlib
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
)
from dratstitch import stitcher
from dratstitch.checker import KIND_RAT, STRICT
from dratstitch.formats import Cube

from helpers import bundle_for, rat_corpus, stitched_instance
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
    monkeypatch.setattr(trimmer._HintedAnalysis, "hints_of", lambda self, steps: [()] * len(steps))
    with pytest.raises(TrimInternalError):
        trim(formula, proof, cube=cube, hints=hints)


# the hint trim's outputs


def test_trimming_a_hint_trimmed_merge_with_its_own_hints_returns_it_unchanged(monkeypatch):
    for formula, proof, cube, hints in hinted_merges(monkeypatch):
        out, report = trim(formula, proof, cube=cube, hints=hints)
        assert report.annotations == () and len(report.hints) == len(out)
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
    assert combine_all(formula, tree, cl_avg=0, validate=False) == out


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
    assert out == combine_all(formula, tree, cl_avg=0, validate=False)
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


# parity with the replay trim, and where the replay trim stays


def _stitches():
    for seed in range(1, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        yield formula, build_cube_tree(bundle_for(formula, 2, seed=seed))
    for formula, bundle in _instances():
        yield formula, build_cube_tree(bundle)


@pytest.mark.parametrize("cl_avg", [0, 4])
def test_hint_trimmed_stitches_verify_and_match_the_replay_trims_in_size(cl_avg, capsys):
    hinted = replayed = 0
    for formula, tree in _stitches():
        out = combine_all(formula, tree, cl_avg=cl_avg)
        assert check_refutation(formula, out, STRICT).valid
        assert check_refutation(formula, out, STRICT, hints=out.hints).valid
        assert len(out) <= len(combine_all(formula, tree, cl_avg=-1, validate=False))
        hinted += len(out)
        replayed += len(combine_all(formula, tree, cl_avg=cl_avg, validate=False))
    with capsys.disabled():
        print("\ncl_avg=%d: %d steps trimmed from hints, %d by replay" % (cl_avg, hinted, replayed))
    assert hinted <= replayed * 1.02


def test_depth_one_rat_bundles_take_the_replay_trim(monkeypatch):
    count = 0
    for formula, bundle in depth_one_rat_bundles():
        if not any(
            sv.kind == KIND_RAT
            for e in bundle.entries
            for sv in annotate_refutation(formula, e.refutation, cube=e.cube.literals)[1]
        ):
            continue
        tree = build_cube_tree(bundle)
        with recorded_trims(monkeypatch) as calls:
            try:
                out = combine_all(formula, tree, cl_avg=0)
            except InvalidSubProofError:
                continue
        assert [hints for *_, hints in calls] == [None]
        assert out == combine_all(formula, tree, cl_avg=0, validate=False)
        assert check_refutation(formula, out, STRICT).valid
        assert check_refutation(formula, out, STRICT, hints=out.hints).valid
        count += 1
    assert count > 50


def test_a_trim_given_hints_of_a_rat_proof_replays():
    count = 0
    for formula, proof in rat_corpus():
        _, ann = annotate_refutation(formula, proof)
        if not any(sv.kind == KIND_RAT for sv in ann) or len(ann) < len(proof):
            continue
        hints = stitcher._local_hints(formula, (), ann)
        assert trim(formula, proof, hints=hints)[0] == trim(formula, proof)[0]
        count += 1
    assert count > 50
