"""The hint checker against the replay engine.

``check_refutation(..., hints=...)`` judges each addition by unit
propagation over the clauses its hints name, and nothing else. For a
plain proof the hints here come from the proof's own annotated replay;
for a bundle they are the ones ``combine_all`` carries out of its leaf
replays and merges. Either way the hint verdict must equal the replay
verdict: valid or not, failing step, reason and steps checked; and the
warnings the two checks log must be the same, in the same order.

Broken hints must be rejected: a needed hint dropped, a hint naming a
later id, a hinted lemma deleted before its use, a lemma literal
flipped where the replay also rejects, and a cube unit's id left in.
A hint stays live while its clause value has a live copy, so a merge
that widens two leaf values into one keeps its hints valid.
"""

import contextlib
import logging
import random
from collections import Counter
from itertools import islice

import pytest

from dratstitch import (
    ADD,
    DELETE,
    BundleEntry,
    Clause,
    Formula,
    ProofBundle,
    ProofStep,
    Refutation,
    annotate_refutation,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    has_at,
    is_preserving,
    solve_drup,
    trim,
)
from dratstitch.checker import PERMISSIVE, STRICT
from dratstitch.formats import Cube
from dratstitch.stitcher import InvalidSubProofError

from helpers import bundle_for, random_proofs, rat_corpus, stitched_instance
from test_acceptance import _instances
from test_engine_differential import HAND_CASES, _mutations, _sparse_formula, F, P

MODES = (STRICT, PERMISSIVE)


def _verdict(report):
    return (report.valid, report.failing_step, report.reason, report.steps_checked)


def plain_hints(formula, proof, mode=STRICT, cube=()):
    """Hints for the proof from its own replay against formula plus cube's
    units. That replay's record drops the deletions it skipped, so its
    ids are renumbered to the proof's steps; the deletions it skipped and
    the steps it never judged get no hints."""
    report, (steps, needed, _, _, skipped) = annotate_refutation(
        formula, proof, mode=mode, cube=cube, _record=True
    )
    # each record step's number in proof
    number = [i for i in range(1, report.steps_checked + 1) if i not in skipped]
    assert steps == [proof[i - 1] for i in number]
    n = len(formula.counts())
    hints = [()] * len(proof)
    for i, ids in zip(number, needed):
        hints[i - 1] = tuple(h if h < n else n + number[h - n] - 1 for h in ids)
    return hints


@contextlib.contextmanager
def logged():
    """The (level, message) of each record the package logs in the block."""
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append((record.levelname, record.getMessage()))
    package = logging.getLogger("dratstitch")
    package.addHandler(handler)
    try:
        yield records
    finally:
        package.removeHandler(handler)


def checked(formula, proof, mode, cube=(), hints=None):
    """The report of check_refutation and the records it logged."""
    with logged() as records:
        report = check_refutation(formula, proof, mode=mode, cube=cube, hints=hints)
    return report, records


def assert_same_verdict(formula, proof, hints=None, cube=()):
    """The hint verdict and warnings, in their order, equal the replay's
    in both modes; returns the strict replay's report."""
    for mode in MODES:
        given = plain_hints(formula, proof, mode, cube) if hints is None else hints
        replay, replay_warnings = checked(formula, proof, mode, cube)
        hinted, hint_warnings = checked(formula, proof, mode, cube, given)
        assert _verdict(hinted) == _verdict(replay), (mode, proof)
        assert hint_warnings == replay_warnings, (mode, proof)
        if mode == STRICT:
            report = replay
    return report


def stitched(formula, bundle, cl_avg=-1):
    combined = combine_all(formula, build_cube_tree(bundle), cl_avg=cl_avg)
    assert combined.hints is not None and len(combined.hints) == len(combined)
    return combined


def depth_one_rat_bundles():
    """Depth-1 bundles of a preserving rat_corpus proof on both sides of
    each variable: (formula, bundle)."""
    for formula, proof in rat_corpus():
        if not is_preserving(proof):
            continue
        for v in sorted(formula.variables()):
            entries = (BundleEntry(Cube((v,)), proof, "pos"), BundleEntry(Cube((-v,)), proof, "neg"))
            yield formula, ProofBundle(formula, entries)


def rat_bundles():
    """The depth-1 rat_corpus bundles whose leaves both validate:
    (formula, stitched proof)."""
    for formula, bundle in depth_one_rat_bundles():
        try:
            yield formula, stitched(formula, bundle)
        except InvalidSubProofError:
            continue


# the differential gate


@pytest.mark.parametrize("case", range(len(HAND_CASES)))
def test_hand_cases_match_the_replay(case):
    formula, proof = HAND_CASES[case]
    assert_same_verdict(formula, proof)


def test_random_proofs_match_the_replay():
    valid = sum(assert_same_verdict(formula, proof).valid for _, formula, proof in random_proofs())
    assert 0 < valid < 150


def test_sparse_huge_variables_match_the_replay():
    x, a, b = 2**40, 2**40 + 1, 2**40 + 2
    for proof in (P((-x, a), (-x, b), (x, -a, -b), (10**9,), ()), P((-x, b), (x, a), (10**9,), ())):
        assert_same_verdict(_sparse_formula(), proof)


def test_stitched_fixture_bundles_match_the_replay():
    for seed in (3, 7, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        combined = stitched(formula, bundle_for(formula, 2, seed=seed))
        assert assert_same_verdict(formula, combined, combined.hints).valid


@pytest.mark.parametrize("cl_avg", [-1, 0])
def test_stitched_and_trimmed_proofs_match_the_replay(cl_avg):
    for seed in (1, 2):
        formula, combined = stitched_instance(seed, num_vars=11, depth=3, cl_avg=cl_avg)
        assert assert_same_verdict(formula, combined, combined.hints).valid
        trimmed, _ = trim(formula, combined)
        assert assert_same_verdict(formula, trimmed).valid


def test_rat_proofs_and_their_trims_match_the_replay():
    kinds = set()
    for formula, proof in rat_corpus():
        trimmed, _ = trim(formula, proof)
        for p in (proof, trimmed):
            assert assert_same_verdict(formula, p).valid
            kinds.update(s.op for s in p)
    assert kinds == {ADD, DELETE}


def test_mutated_proofs_match_the_replay():
    bases = []
    for seed in (4, 5):
        formula, combined = stitched_instance(seed, num_vars=10, depth=2)
        bases += [(formula, combined), (formula, trim(formula, combined)[0])]
    formula = gen_random_unsat(12, 5.0, seed=11)
    bases.append((formula, solve_drup(formula, seed=11).refutation))
    verdicts = set()
    for n, (formula, proof) in enumerate(bases):
        rng = random.Random(n)
        for _ in range(3):
            for mutated in _mutations(formula, proof, rng).values():
                verdicts.add(assert_same_verdict(formula, mutated).valid)
    assert verdicts == {True, False}


@pytest.mark.parametrize("cl_avg", [-1, 0, 4])
def test_stitched_instances_match_the_replay(cl_avg):
    for seed in range(1, 9):
        formula, combined = stitched_instance(seed, cl_avg=cl_avg)
        assert assert_same_verdict(formula, combined, combined.hints).valid


@pytest.mark.parametrize("cl_avg", [-1, 0, 4])
def test_acceptance_instances_match_the_replay(cl_avg):
    for formula, bundle in _instances():
        combined = stitched(formula, bundle, cl_avg)
        assert assert_same_verdict(formula, combined, combined.hints).valid


def test_leaf_proofs_under_their_cubes_match_the_replay():
    # a cube's units are live clauses that no hint names; a deletion of
    # one removes it, and the mutations delete units and re-add twins
    compared = 0
    for seed in (3, 7, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        rng = random.Random(seed)
        for entry in bundle_for(formula, 2, seed=seed).entries:
            cube = entry.cube.literals
            proofs = [entry.refutation]
            if any(s.is_add and len(s.clause) > 0 for s in entry.refutation):
                proofs += _mutations(formula, entry.refutation, rng).values()
            unit_deleted = [ProofStep(DELETE, Clause((cube[0],)))] + list(entry.refutation)
            proofs.append(Refutation(unit_deleted))
            for proof in proofs:
                assert_same_verdict(formula, proof, cube=cube)
                compared += len(MODES)
    assert compared > 60


SQUARE = F((1, 2), (1, -2), (-1, 2), (-1, -2))
ABSENT = ("WARNING", "step 1: deletion of absent clause Clause(5) skipped")


@pytest.mark.parametrize(
    "proof, strict, permissive",
    [
        # an absent deletion fails a strict check there; a permissive one warns
        (P(("d", 5), (1,), ()), ((False, 1, "deletion-absent", 1), []), ((True, None, None, 3), [ABSENT])),
        # the steps after the empty clause are ignored, with a warning
        (
            P((1,), (), (2,), ("d", 1)),
            ((True, None, None, 2), [("WARNING", "empty clause at step 2; ignoring 2 trailing steps")]),
            ((True, None, None, 2), [("WARNING", "empty clause at step 2; ignoring 2 trailing steps")]),
        ),
        # a proof without the empty clause fails at no step
        (P((1,), (2,)), ((False, None, "missing-empty-clause", 2), []), ((False, None, "missing-empty-clause", 2), [])),
        (
            P(("d", 5), (1,)),
            ((False, 1, "deletion-absent", 1), []),
            ((False, None, "missing-empty-clause", 2), [ABSENT]),
        ),
    ],
)
def test_both_checkers_give_the_same_verdicts_and_warnings(proof, strict, permissive):
    for mode, expected in ((STRICT, strict), (PERMISSIVE, permissive)):
        for hints in (None, plain_hints(SQUARE, proof, mode)):
            report, records = checked(SQUARE, proof, mode, hints=hints)
            assert (_verdict(report), records) == expected, (mode, hints)


def test_depth_one_rat_bundles_match_the_replay():
    count = 0
    for formula, combined in rat_bundles():
        assert assert_same_verdict(formula, combined, combined.hints).valid
        count += 1
    assert count > 100


# broken hints


def _corpus():
    """(formula, stitched proof) pairs with hints, some with RAT steps."""
    for seed in range(1, 5):
        for cl_avg in (-1, 0):
            yield stitched_instance(seed, cl_avg=cl_avg)
    yield from islice(rat_bundles(), 40)


def _hinted(formula, proof, hints, mode=STRICT):
    return check_refutation(formula, proof, mode=mode, hints=hints)


def _clauses_by_id(formula, proof):
    return list(formula.distinct()) + [s.clause for s in proof]


def _accepted(live, hinted, clause):
    """Whether clause is AT over the hinted clauses, or RAT with every
    resolvent on a live clause AT over them: the hint rule, by the engine."""
    if has_at(Formula(hinted), clause):
        return True
    if len(clause) == 0:
        return False
    pivot = clause.pivot
    return all(
        has_at(Formula(hinted), Clause(clause.literals + tuple(m for m in d if m != -pivot)))
        for d in live
        if live[d] and -pivot in d
    )


def test_dropping_a_needed_hint_rejects_its_step():
    dropped = kept = 0
    for formula, proof in _corpus():
        clauses = _clauses_by_id(formula, proof)
        live = Counter(dict(formula.counts()))
        rng = random.Random(len(proof))
        for k, (step, hint) in enumerate(zip(proof, proof.hints), 1):
            if step.is_add and hint:
                j = rng.randrange(len(hint))
                hints = list(proof.hints)
                hints[k - 1] = hint[:j] + hint[j + 1 :]
                report = _hinted(formula, proof, hints)
                if _accepted(live, [clauses[h] for h in hints[k - 1]], step.clause):
                    assert report.failing_step is None or report.failing_step > k
                    kept += 1
                else:
                    assert (report.valid, report.failing_step) == (False, k)
                    dropped += 1
            live[step.clause] += 1 if step.is_add else -1
    assert dropped > 100 and kept > 0


def test_a_hint_naming_a_later_id_rejects_its_step():
    for formula, proof in _corpus():
        n = len(formula.counts())
        rng = random.Random(len(proof))
        adds = [k for k, s in enumerate(proof, 1) if s.is_add and proof.hints[k - 1]]
        for k in rng.sample(adds, min(5, len(adds))):
            for later in (n + k - 1, n + k, n + len(proof)):  # itself, the next step, past the end
                hints = list(proof.hints)
                hints[k - 1] = hints[k - 1] + (later,)
                report = _hinted(formula, proof, hints)
                assert (report.valid, report.failing_step) == (False, k)


def _insert(proof, hints, n, at, step):
    """The proof with step put in before position at (1-based), its
    hints renumbered to match; the new step gets no hints."""
    steps = list(proof)
    moved = [tuple(h + 1 if h >= n + at - 1 else h for h in hint) for hint in hints]
    return Refutation(steps[: at - 1] + [step] + steps[at - 1 :]), moved[: at - 1] + [()] + moved[at - 1 :]


def test_deleting_a_hinted_lemma_before_its_use_rejects_the_use():
    deleted = 0
    for formula, proof in _corpus():
        n = len(formula.counts())
        live = Counter(dict(formula.counts()))
        for k, (step, hint) in enumerate(zip(proof, proof.hints), 1):
            lemmas = [h for h in hint if h >= n and live[proof[h - n].clause] == 1]
            if step.is_add and lemmas and deleted < 200:
                victim = proof[lemmas[0] - n].clause
                mutated, hints = _insert(proof, proof.hints, n, k, ProofStep(DELETE, victim))
                for mode in MODES:
                    report = _hinted(formula, mutated, hints, mode)
                    assert (report.valid, report.failing_step) == (False, k + 1)
                deleted += 1
            live[step.clause] += 1 if step.is_add else -1
    assert deleted > 100


def test_a_flipped_lemma_literal_is_rejected_where_the_replay_rejects():
    rejected = 0
    for formula, proof in _corpus():
        rng = random.Random(len(proof))
        adds = [k for k, s in enumerate(proof, 1) if s.is_add and len(s.clause) > 0]
        for k in rng.sample(adds, min(5, len(adds))):
            lits = list(proof[k - 1].clause.literals)
            i = rng.randrange(len(lits))
            lits[i] = -lits[i]
            steps = list(proof)
            steps[k - 1] = ProofStep(ADD, Clause(lits))
            mutated = Refutation(steps)
            for mode in MODES:
                if not check_refutation(formula, mutated, mode=mode).valid:
                    assert not _hinted(formula, mutated, proof.hints, mode).valid
                    rejected += 1
    assert rejected > 50


def test_a_cube_unit_id_left_in_is_rejected():
    # Were a leaf's cube unit kept as an instance clause, its replay id
    # n_formula would reach the root unchanged, and there it names proof
    # step 1: the positive leaf's first addition, which is not before
    # itself. So a first addition whose leaf check used the unit fails.
    kept = 0
    for seed in range(1, 30):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        bundle = bundle_for(formula, 1, seed=seed)
        combined = stitched(formula, bundle)
        n = len(formula.counts())
        pos = next(e for e in bundle.entries if e.cube.literals[0] > 0)
        if Clause(pos.cube.literals) in formula:
            continue  # the unit is a formula clause, whose id stays
        _, annotations = annotate_refutation(formula, pos.refutation, cube=pos.cube.literals)
        assert combined[0] == ProofStep(ADD, pos.refutation[0].clause.with_literal(-pos.cube.literals[0]))
        if n not in annotations[0].used_ids:
            continue  # the first addition did not use the unit
        assert n not in combined.hints[0]
        hints = list(combined.hints)
        hints[0] += (n,)
        report = _hinted(formula, combined, hints)
        assert (report.valid, report.failing_step) == (False, 1)
        kept += 1
    assert kept >= 10
