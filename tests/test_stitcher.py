"""Cube trees, proof stitching, gated trimming, and deletion stripping."""

import dataclasses
import itertools
import random

import pytest

from dratstitch import (
    ADD,
    BundleEntry,
    Clause,
    Cube,
    DELETE,
    EMPTY_CLAUSE,
    Formula,
    IncompletePartitionError,
    InconsistentDecisionOrderError,
    Inner,
    InvalidSubProofError,
    Leaf,
    MissingSiblingError,
    NonPreservingInputError,
    ProofBundle,
    ProofStep,
    Refutation,
    average_clause_length,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    is_preserving,
    parse_drat,
    solve_drup,
    stitch,
    strip_deletions,
    trim,
    write_drat,
)
from dratstitch import stitcher
from dratstitch.checker import KIND_RAT, PERMISSIVE, STRICT, annotate_refutation
from dratstitch.trimmer import InvalidProofError

from helpers import bundle_for, eager_combine_all, random_clause
from test_acceptance import _instances
from test_hint_trim import _deep_splits
from test_hints import depth_one_rat_bundles

# 2-variable pigeonhole-style square: unsatisfiable, no unit clauses
SQUARE = Formula(
    (Clause((1, 2)), Clause((1, -2)), Clause((-1, 2)), Clause((-1, -2)))
)

EMPTY_PROOF = Refutation((ProofStep(ADD, EMPTY_CLAUSE),))


def entry(lits, proof_text="0\n"):
    cube = Cube(tuple(lits))
    return BundleEntry(cube, parse_drat(proof_text), cube.filename())


def bundle(formula, *entries):
    return ProofBundle(formula, tuple(entries))


# ------------------------------------------------------------------ cube tree


def test_build_cube_tree_depth_one():
    tree = build_cube_tree(bundle(SQUARE, entry((1,)), entry((-1,))))
    assert isinstance(tree, Inner)
    assert tree.var == 1
    assert isinstance(tree.pos_child, Leaf) and tree.pos_child.cube == Cube((1,))
    assert isinstance(tree.neg_child, Leaf) and tree.neg_child.cube == Cube((-1,))


def test_build_cube_tree_order_of_entries_is_irrelevant():
    t1 = build_cube_tree(bundle(SQUARE, entry((-1,)), entry((1,))))
    t2 = build_cube_tree(bundle(SQUARE, entry((1,)), entry((-1,))))
    assert t1 == t2


def test_build_cube_tree_depth_two_and_uneven():
    tree = build_cube_tree(
        bundle(SQUARE, entry((1,)), entry((-1, 2)), entry((-1, -2)))
    )
    assert tree.var == 1
    assert isinstance(tree.pos_child, Leaf)
    assert isinstance(tree.neg_child, Inner)
    assert tree.neg_child.var == 2
    assert tree.neg_child.pos_child.cube == Cube((-1, 2))


def test_build_cube_tree_root_only():
    tree = build_cube_tree(bundle(SQUARE, entry(())))
    assert isinstance(tree, Leaf)
    assert tree.cube == Cube(())


def test_build_cube_tree_incomplete_partition():
    with pytest.raises(IncompletePartitionError):
        build_cube_tree(bundle(SQUARE, entry((1,)), entry((-2,))))


def test_build_cube_tree_missing_sibling():
    with pytest.raises(MissingSiblingError):
        build_cube_tree(bundle(SQUARE, entry((1,))))
    with pytest.raises(MissingSiblingError):
        build_cube_tree(bundle(SQUARE, entry((1,)), entry((-1, 2))))


def test_build_cube_tree_inconsistent_decision_order():
    with pytest.raises(InconsistentDecisionOrderError):
        build_cube_tree(bundle(SQUARE, entry((1,)), entry((1, 2)), entry((-1,))))
    with pytest.raises(InconsistentDecisionOrderError):
        build_cube_tree(bundle(SQUARE, entry(()), entry((1,))))


def test_build_cube_tree_empty_bundle():
    with pytest.raises(ValueError):
        build_cube_tree(bundle(SQUARE))


# --------------------------------------------------------------------- stitch


def test_stitch_minimal_example():
    out = stitch(SQUARE, 1, EMPTY_PROOF, EMPTY_PROOF)
    assert out.steps == (
        ProofStep(ADD, Clause((-1,))),
        ProofStep(ADD, Clause((1,))),
        ProofStep(ADD, EMPTY_CLAUSE),
    )
    assert check_refutation(SQUARE, out, mode=STRICT).valid
    assert is_preserving(out)


def test_stitch_lifts_all_steps_with_the_branch_literal():
    pos = parse_drat("3 0\nd 3 0\n0\n")
    neg = parse_drat("0\n")
    out = stitch(Formula(), 5, pos, neg, validate=False)
    assert len(out) == len(pos) + len(neg) + 1
    assert out.steps[0] == ProofStep(ADD, Clause((3, -5)))
    assert out.steps[0].clause.literals == (3, -5)  # appended last, pivot kept
    assert out.steps[1] == ProofStep(DELETE, Clause((3, -5)))
    assert out.steps[2] == ProofStep(ADD, Clause((-5,)))
    assert out.steps[3] == ProofStep(ADD, Clause((5,)))
    assert out.steps[4] == ProofStep(ADD, EMPTY_CLAUSE)


def test_stitch_literal_already_present_is_kept_once():
    pos = Refutation((ProofStep(ADD, Clause((-5, 1))), ProofStep(ADD, EMPTY_CLAUSE)))
    out = stitch(Formula(), 5, pos, EMPTY_PROOF, validate=False)
    assert out.steps[0].clause.literals == (-5, 1)


def test_stitch_opposite_literal_makes_a_kept_tautology():
    pos = Refutation((ProofStep(ADD, Clause((5, 1))), ProofStep(ADD, EMPTY_CLAUSE)))
    out = stitch(Formula(), 5, pos, EMPTY_PROOF, validate=False)
    assert out.steps[0].clause.literals == (5, 1, -5)
    assert out.steps[0].clause.is_tautology()


def test_stitch_rejects_zero_decision():
    with pytest.raises(ValueError):
        stitch(SQUARE, 0, EMPTY_PROOF, EMPTY_PROOF)


def test_stitch_validates_sub_proofs():
    sat_side = Formula((Clause((-1,)), Clause((2, 3)), Clause((-2, 3))))
    # instance+{1} conflicts outright, instance+{-1} is satisfiable
    with pytest.raises(InvalidSubProofError):
        stitch(sat_side, 1, EMPTY_PROOF, EMPTY_PROOF)
    out = stitch(sat_side, 1, EMPTY_PROOF, EMPTY_PROOF, validate=False)
    assert not check_refutation(sat_side, out, mode=STRICT).valid


def test_stitch_rejects_non_preserving_inputs():
    bad = parse_drat("d 1 2 0\n0\n")
    with pytest.raises(NonPreservingInputError):
        stitch(SQUARE, 1, bad, EMPTY_PROOF)


def test_stitch_validation_mode_is_forwarded():
    # preserving overall, but the deletion happens while {7} is still absent
    sloppy = parse_drat("d 7 0\n7 0\n0\n")
    with pytest.raises(InvalidSubProofError):
        stitch(SQUARE, 1, sloppy, EMPTY_PROOF, mode=STRICT)
    out = stitch(SQUARE, 1, sloppy, EMPTY_PROOF, mode=PERMISSIVE)
    assert check_refutation(SQUARE, out).valid


# passes a strict check under the cube 1 and is preserving, but its
# deletion is of a formula clause, which widened by -1 is absent
DELETES_THEN_ADDS = parse_drat("d 1 2 0\n1 2 0\n0\n")
ADDS_2 = parse_drat("2 0\n0\n")


def test_a_strict_stitch_rejects_a_deletion_of_a_clause_the_leaf_did_not_add():
    assert is_preserving(DELETES_THEN_ADDS)
    assert check_refutation(SQUARE, DELETES_THEN_ADDS, STRICT, cube=(1,)).valid
    message = "branch 1: step 1 deletes Clause(1 2) before adding it; widened, it is absent"
    with pytest.raises(NonPreservingInputError) as raised:
        stitch(SQUARE, 1, DELETES_THEN_ADDS, ADDS_2, mode=STRICT)
    assert str(raised.value) == message
    # the unchecked merge is what a strict check rejects
    out = stitch(SQUARE, 1, DELETES_THEN_ADDS, ADDS_2, validate=False)
    assert check_refutation(SQUARE, out, STRICT).reason == "deletion-absent"
    # permissively, the deletion is skipped there with a warning
    out = stitch(SQUARE, 1, DELETES_THEN_ADDS, ADDS_2, mode=PERMISSIVE)
    assert check_refutation(SQUARE, out, PERMISSIVE).valid
    # a deletion of a clause the leaf added earlier, also a formula clause, stands
    readds = parse_drat("1 2 0\nd 1 2 0\n0\n")
    out = stitch(SQUARE, 1, readds, ADDS_2, mode=STRICT)
    assert check_refutation(SQUARE, out, STRICT).valid


@pytest.mark.parametrize("cl_avg", [-1, 0])
def test_a_strict_combine_all_rejects_a_deletion_of_a_clause_the_leaf_did_not_add(cl_avg):
    bundle = ProofBundle(
        SQUARE,
        (
            BundleEntry(Cube((1,)), DELETES_THEN_ADDS, "1.proof"),
            BundleEntry(Cube((-1,)), ADDS_2, "-1.proof"),
        ),
    )
    tree = build_cube_tree(bundle)
    records = []
    with pytest.raises(NonPreservingInputError, match="^cube 1.proof: step 1 deletes "):
        combine_all(SQUARE, tree, cl_avg=cl_avg, mode=STRICT, on_record=records.append)
    assert records == []  # before any merge
    out = combine_all(SQUARE, tree, cl_avg=cl_avg, mode=PERMISSIVE)
    assert check_refutation(SQUARE, out, PERMISSIVE).valid


def test_stitch_step_count_law_randomized():
    rng = random.Random(15)
    for _ in range(100):
        decision = rng.randint(1, 8) * rng.choice((1, -1))
        pos_steps = []
        for _ in range(rng.randint(0, 6)):
            op = ADD if rng.random() < 0.8 else DELETE
            pos_steps.append(ProofStep(op, random_clause(rng, 8, rng.randint(0, 3))))
        neg_steps = []
        for _ in range(rng.randint(0, 6)):
            neg_steps.append(ProofStep(ADD, random_clause(rng, 8, rng.randint(0, 3))))
        pos, neg = Refutation(pos_steps), Refutation(neg_steps)
        out = stitch(Formula(), decision, pos, neg, validate=False)
        assert len(out) == len(pos) + len(neg) + 1
        n = len(pos)
        for i, step in enumerate(out.steps[:-1]):
            lifted = -decision if i < n else decision
            source = pos_steps[i] if i < n else neg_steps[i - n]
            assert lifted in step.clause
            assert step.op == source.op
            assert step.clause.literals[: len(source.clause)] == source.clause.literals
        assert out.steps[-1] == ProofStep(ADD, EMPTY_CLAUSE)


# -------------------------------------------------------- average clause length


def test_average_clause_length_examples():
    assert average_clause_length(parse_drat("1 2 0\n1 0\n")) == 1.5
    assert average_clause_length(Refutation()) == 0.0
    assert average_clause_length(parse_drat("0\n")) == 0.0
    # deletions never count
    assert average_clause_length(parse_drat("d 1 2 3 0\n1 0\n")) == 1.0


# ---------------------------------------------------------------- combine_all


def assert_post_order(tree, records):
    """Each inner node is recorded once, after both children, positive child first."""
    inner = []

    def walk(node, path):
        if isinstance(node, Inner):
            inner.append((path, node.var))
            walk(node.pos_child, path + (node.var,))
            walk(node.neg_child, path + (-node.var,))

    walk(tree, ())
    assert sorted((r.path, r.var) for r in records) == sorted(inner)
    order = {r.path: i for i, r in enumerate(records)}
    for i, r in enumerate(records):
        # the node's subtree is one block of records that ends at the node
        below = [j for j, s in enumerate(records) if s.path[: len(r.path)] == r.path]
        assert below == list(range(i - len(below) + 1, i + 1))
        pos, neg = order.get(r.path + (r.var,)), order.get(r.path + (-r.var,))
        if pos is not None and neg is not None:
            assert pos < neg


def test_combine_all_merges_in_post_order():
    formula = gen_random_unsat(10, 5.0, seed=7)
    tree = build_cube_tree(bundle_for(formula, 3, seed=7))
    records = []
    combine_all(formula, tree, on_record=records.append)
    assert_post_order(tree, records)
    assert [r.depth for r in records] == [2, 2, 1, 2, 2, 1, 0]


def _solved_tree(formula, cubes):
    """The cube tree of cubes, each refuted by the bundled solver, and
    the proofs in the order of cubes."""
    proofs = []
    for i, cube in enumerate(cubes):
        sub = formula
        for lit in cube:
            sub = sub.add(Clause((lit,)))
        proofs.append(solve_drup(sub, seed=i).refutation)
    entries = tuple(BundleEntry(c, p, c.filename()) for c, p in zip(cubes, proofs))
    return build_cube_tree(ProofBundle(formula, entries)), proofs


def test_combine_all_unbalanced_tree_matches_hand_composition():
    formula = gen_random_unsat(8, 5.0, seed=61)
    cubes = [Cube((1,)), Cube((-1, 2)), Cube((-1, -2))]
    tree, proofs = _solved_tree(formula, cubes)
    p1, p2, p3 = proofs
    negative = formula.add(Clause((-1,)))

    inner = stitch(negative, 2, p2, p3)
    assert combine_all(formula, tree, cl_avg=-1) == stitch(formula, 1, p1, inner)

    # a leaf's steps after its empty clause are cut before anything reads
    # them, so the stitch is that of the leaf without them, hints and all;
    # stitch() itself keeps every step
    trailing = Refutation(p1.steps + EMPTY_PROOF.steps)
    assert len(stitch(formula, 1, trailing, inner)) == len(trailing) + len(inner) + 1
    cut = Inner(1, Leaf(cubes[0], trailing), tree.neg_child)
    for cl_avg in (-1, 0):
        records = []
        got = combine_all(formula, cut, cl_avg=cl_avg, on_record=records.append)
        want = combine_all(formula, tree, cl_avg=cl_avg)
        assert got == want and got.hints == want.hints is not None
        assert [(r.path, r.trimmed) for r in records] == [((-1,), cl_avg == 0), ((), cl_avg == 0)]

    # validated, every merge is trimmed from its children's hints
    n = len(formula.counts())
    hinted = [
        annotate_refutation(formula, p, STRICT, cube=c, _record=True)[1]
        for c, p in zip((c.literals for c in cubes), proofs)
    ]
    assert [steps for steps, *_ in hinted] == [list(p.steps) for p in proofs]
    h1, h2, h3 = (needed for _, needed, *_ in hinted)
    merged = stitch(formula, 2, p2, p3, validate=False)
    inner, report = trim(formula, merged, cube=(-1,), hints=_merged(n, h2, h3))
    merged = stitch(formula, 1, p1, inner, validate=False)
    root, _ = trim(formula, merged, hints=_merged(n, h1, report.hints))
    assert combine_all(formula, tree, cl_avg=0) == root


def _merged(n, pos, neg):
    """The hints of a merge: the negative side's ids shifted past the
    positive side, and the empty clause hinted by the positive final
    clause and the negative final clause's hints."""
    neg = [tuple(h + len(pos) if h >= n else h for h in ids) for ids in neg]
    return list(pos) + neg + [(n + len(pos) - 1,) + neg[-1]]


def test_combine_all_leaf_passthrough():
    proof = parse_drat("-1 0\n1 0\n0\n")
    got = combine_all(SQUARE, build_cube_tree(bundle(SQUARE, entry((), "-1 0\n1 0\n0\n"))))
    assert got == proof


def test_combine_all_leaf_passthrough_still_validates():
    with pytest.raises(InvalidSubProofError) as info:
        combine_all(
            Formula((Clause((1, 2)),)),
            build_cube_tree(bundle(Formula((Clause((1, 2)),)), entry(()))),
        )
    assert "root.proof" in str(info.value)


def test_combine_all_depth_one_square():
    tree = build_cube_tree(bundle(SQUARE, entry((1,)), entry((-1,))))
    out = combine_all(SQUARE, tree)
    assert len(out) == 3
    assert check_refutation(SQUARE, out, mode=STRICT).valid
    assert is_preserving(out)


def test_combine_all_step_count_law_without_trimming():
    formula = gen_random_unsat(8, 5.0, seed=3)
    proofs = bundle_for(formula, 2, seed=3)
    tree = build_cube_tree(proofs)
    out = combine_all(formula, tree, cl_avg=-1)
    leaf_total = sum(len(e.refutation) for e in proofs.entries)
    assert len(out) == leaf_total + 3  # one closing step per inner node
    assert check_refutation(formula, out, mode=STRICT).valid
    assert is_preserving(out)


def test_combine_all_trimming_keeps_validity_and_never_grows():
    formula = gen_random_unsat(8, 5.0, seed=21)
    tree = build_cube_tree(bundle_for(formula, 2, seed=21))
    plain = combine_all(formula, tree, cl_avg=-1)
    trimmed = combine_all(formula, tree, cl_avg=0)
    assert len(trimmed) <= len(plain)
    assert check_refutation(formula, trimmed, mode=STRICT).valid
    assert is_preserving(trimmed)


def test_combine_all_records_follow_the_gate():
    formula = gen_random_unsat(8, 5.0, seed=31)
    tree = build_cube_tree(bundle_for(formula, 2, seed=31))
    for cl_avg in (-1, 0, 2, 10**6):
        records = []
        combine_all(formula, tree, cl_avg=cl_avg, on_record=records.append)
        assert_post_order(tree, records)
        for r in records:
            assert r.average_clause_length * r.add_count == pytest.approx(r.add_literal_total)
            if cl_avg < 0:
                assert not r.trimmed
            else:
                assert r.trimmed == (r.add_literal_total > cl_avg * r.add_count)
            assert r.steps_after <= r.steps_before
            if not r.trimmed:
                assert r.steps_after == r.steps_before
                assert r.trim_seconds == 0.0


def test_combine_all_gate_is_an_integer_comparison():
    # cl_avg equal to the exact average must not trigger a trim
    records = []
    formula = gen_random_unsat(8, 5.0, seed=41)
    tree = build_cube_tree(bundle_for(formula, 1, seed=41))
    combine_all(formula, tree, cl_avg=-1, on_record=records.append)
    (record,) = records
    total, count = record.add_literal_total, record.add_count
    if total % count == 0:
        exact = total // count
        records.clear()
        combine_all(formula, tree, cl_avg=exact, on_record=records.append)
        assert not records[0].trimmed


def test_combine_all_rejects_bad_knobs():
    tree = build_cube_tree(bundle(SQUARE, entry((1,)), entry((-1,))))
    with pytest.raises(ValueError):
        combine_all(SQUARE, tree, cl_avg=-2)


def test_combine_all_rejects_non_preserving_leaf():
    tree = build_cube_tree(
        bundle(SQUARE, entry((1,), "d 2 0\n0\n"), entry((-1,)))
    )
    with pytest.raises(NonPreservingInputError) as info:
        combine_all(SQUARE, tree)
    assert "1.proof" in str(info.value)


def test_combine_all_invalid_leaf_names_its_cube():
    sat_side = Formula((Clause((-1,)), Clause((2, 3)), Clause((-2, 3))))
    tree = build_cube_tree(bundle(sat_side, entry((1,)), entry((-1,))))
    with pytest.raises(InvalidSubProofError) as info:
        combine_all(sat_side, tree)
    assert "-1.proof" in str(info.value)


def _spy_leaf_checks(monkeypatch):
    calls = []
    real = stitcher.annotate_refutation

    def spy(formula, proof, mode=PERMISSIVE, *, cube=(), **kwargs):
        calls.append((formula, tuple(cube), mode))
        return real(formula, proof, mode=mode, cube=cube, **kwargs)

    monkeypatch.setattr(stitcher, "annotate_refutation", spy)
    return calls


def test_leaf_checks_pass_their_cube_against_the_shared_instance(monkeypatch):
    formula = gen_random_unsat(10, 5.0, seed=3)
    fixture = bundle_for(formula, 2, seed=3)
    calls = _spy_leaf_checks(monkeypatch)
    combine_all(formula, build_cube_tree(fixture), mode=PERMISSIVE)
    assert all(f is formula and mode == PERMISSIVE for f, _, mode in calls)
    assert sorted(cube for _, cube, _ in calls) == sorted(e.cube.literals for e in fixture.entries)

    del calls[:]
    stitch(SQUARE, 2, EMPTY_PROOF, EMPTY_PROOF)
    assert calls == [(SQUARE, (2,), STRICT), (SQUARE, (-2,), STRICT)]
    assert all(f is SQUARE for f, _, _ in calls)


def test_combine_all_carries_hints_only_when_every_leaf_was_judged_in_full():
    tree = build_cube_tree(bundle(SQUARE, entry((1,), "2 0\n0\n"), entry((-1,))))
    out = combine_all(SQUARE, tree)
    # under (1) the instance conflicts at the root through (-1 -2) and
    # (-1 2), ids 3 and 2, under (-1) through (1 -2) and (1 2), and the
    # root's empty clause through the two final clauses, step 3's (1) and
    # step 2's (-1), which reversed is unit first
    assert out.hints == [(3, 2), (3, 2), (1, 0), (6, 5)]
    assert check_refutation(SQUARE, out, mode=STRICT, hints=out.hints).valid
    # where merges may be trimmed, through the hints of (1) and then (-1),
    # so that a trim drops (1)
    assert combine_all(SQUARE, tree, cl_avg=10).hints == [(3, 2), (3, 2), (1, 0), (1, 0, 5)]
    # where merges may be trimmed every leaf is replayed, validate or not
    assert combine_all(SQUARE, tree, cl_avg=10, validate=False).hints == [
        (3, 2), (3, 2), (1, 0), (1, 0, 5)
    ]
    assert combine_all(SQUARE, tree, cl_avg=-1, validate=False).hints is None
    # a leaf's steps after its empty clause are cut, so they cost no hints
    trailing = build_cube_tree(bundle(SQUARE, entry((1,), "2 0\n0\nd 5 0\n"), entry((-1,))))
    cut = combine_all(SQUARE, trailing)
    assert cut == out and cut.hints == out.hints


def test_combine_all_trust_mode_defers_to_final_check():
    sat_side = Formula((Clause((-1,)), Clause((2, 3)), Clause((-2, 3))))
    tree = build_cube_tree(bundle(sat_side, entry((1,)), entry((-1,))))
    out = combine_all(sat_side, tree, validate=False)
    assert not check_refutation(sat_side, out, mode=STRICT).valid
    # only at cl_avg -1: where merges may be trimmed every leaf is checked
    for cl_avg in (0, 10):
        with pytest.raises(InvalidSubProofError) as info:
            combine_all(sat_side, tree, cl_avg=cl_avg, validate=False)
        assert str(info.value).startswith("cube -1.proof: ")


# ------------------------------------------- lazy merges against eager stitching


def _differential_corpus():
    for seed in range(1, 9):
        formula = gen_random_unsat(10, 5.0, seed=seed)
        yield formula, build_cube_tree(bundle_for(formula, 2, seed=seed))
    for formula, bundle in _instances():
        yield formula, build_cube_tree(bundle)
    yield from _deep_splits()
    # a tree that splits deeper on one side
    formula = gen_random_unsat(10, 5.0, seed=61)
    cubes = [Cube((1,)), Cube((-1, 2)), Cube((-1, -2, 3)), Cube((-1, -2, -3))]
    yield formula, _solved_tree(formula, cubes)[0]
    for formula, bundle in itertools.islice(depth_one_rat_bundles(), 0, 400, 10):
        yield formula, build_cube_tree(bundle)


def _eager(formula, tree, cl_avg, validate):
    """_composed of eager stitching, validated where combine_all validates:
    at cl_avg >= 0 it checks every leaf whatever validate says."""
    return _composed(eager_combine_all, formula, tree, cl_avg, validate or cl_avg >= 0)


def _composed(compose, formula, tree, cl_avg, validate):
    """(bytes, hints, records without timings) of one composition, or
    the type of the error it raised."""
    records = []
    try:
        out = compose(formula, tree, cl_avg=cl_avg, validate=validate, on_record=records.append)
    except (InvalidSubProofError, InvalidProofError) as exc:
        return type(exc)
    untimed = [dataclasses.replace(r, merge_seconds=0.0, trim_seconds=0.0) for r in records]
    return write_drat(out), out.hints, untimed


def test_combine_all_matches_eager_stitching_in_bytes_hints_and_records():
    compared = trimmed = hinted = 0
    for formula, tree in _differential_corpus():
        for cl_avg, validate in itertools.product((-1, 0, 2, 4), (True, False)):
            lazy = _composed(combine_all, formula, tree, cl_avg, validate)
            assert lazy == _eager(formula, tree, cl_avg, validate)
            if isinstance(lazy, tuple):
                compared += 1
                trimmed += sum(r.trimmed for r in lazy[2])
                hinted += lazy[1] is not None
    assert compared > 1000 and trimmed > 2000 and hinted > 500


def test_widening_appends_no_ancestor_decision_a_leaf_lemma_already_holds():
    # under (1 2) the lemmas already hold -1 and -2, which the merges
    # above would append; the cube's units conflict, so any lemma checks
    formula = Formula(Clause(c) for c in ((2, 3), (2, -3), (-2, 3), (-2, -3)))
    tree = build_cube_tree(
        bundle(
            formula,
            entry((1, 2), "-1 3 0\n-2 -1 0\n0\n"),
            entry((1, -2)),
            entry((-1,), "2 0\n0\n"),
        )
    )
    expected = [(-1, 3, -2), (-2, -1), (-2, -1), (2, -1), (-1,), (2, 1), (1,), ()]
    for cl_avg, validate in itertools.product((-1, 10), (True, False)):
        lazy = _composed(combine_all, formula, tree, cl_avg, validate)
        assert lazy == _eager(formula, tree, cl_avg, validate)
        out = combine_all(formula, tree, cl_avg=cl_avg, validate=validate)
        assert [step.clause.literals for step in out] == expected
        assert check_refutation(formula, out, STRICT).valid


def test_a_hand_built_tree_deciding_a_variable_twice_matches_eager_stitching():
    # no cube decides a variable twice, but a tree built by hand can: the
    # outer merge appends -1 to clauses that hold it or 1 already
    leaf = lambda lits, text: Leaf(Cube(lits), parse_drat(text))
    inner = Inner(1, leaf((1,), "-1 2 0\n0\n"), leaf((-1,), "1 2 0\n0\n"))
    tree = Inner(1, inner, leaf((-1,), "2 0\n0\n"))
    for cl_avg, validate in itertools.product((-1, 0, 2), (True, False)):
        lazy = _composed(combine_all, SQUARE, tree, cl_avg, validate)
        assert lazy == _eager(SQUARE, tree, cl_avg, validate)
    out = combine_all(SQUARE, tree, validate=False)
    assert out.steps[2].clause.literals == (1, 2, -1)


def test_untrimmed_merges_call_no_stitch_and_trimmed_ones_one_each(monkeypatch):
    formula = gen_random_unsat(10, 5.0, seed=5)
    tree = build_cube_tree(bundle_for(formula, 3, seed=5))
    expected = eager_combine_all(formula, tree, cl_avg=-1)

    def refuse(*args, **kwargs):
        raise AssertionError("an untrimmed merge called stitch")

    with monkeypatch.context() as m:
        m.setattr(stitcher, "stitch", refuse)
        for validate in (True, False):
            assert combine_all(formula, tree, cl_avg=-1, validate=validate) == expected

    calls = []

    def counted(formula, decision, pos_proof, neg_proof, **kwargs):
        calls.append(decision)
        return stitch(formula, decision, pos_proof, neg_proof, **kwargs)

    monkeypatch.setattr(stitcher, "stitch", counted)
    records = []
    combine_all(formula, tree, cl_avg=0, on_record=records.append)
    assert calls == [r.var for r in records] and len(calls) == 7


# ------------------------------------------------------------ strip_deletions


def test_strip_deletions_drops_harmless_deletes():
    proof = parse_drat("-1 0\n1 0\nd -1 2 0\n0\n")
    assert check_refutation(SQUARE, proof, mode=STRICT).valid
    stripped = strip_deletions(proof)
    assert stripped == parse_drat("-1 0\n1 0\n0\n")
    assert check_refutation(SQUARE, stripped, mode=STRICT).valid


def test_strip_deletions_noop_on_addition_only_proofs():
    proof = parse_drat("-1 0\n1 0\n0\n")
    assert strip_deletions(proof) == proof


def _stripped_tree(pos_text, neg_text):
    """The depth-one tree on 3 over the two proofs, stripped of deletions."""
    pos, neg = (strip_deletions(parse_drat(text)) for text in (pos_text, neg_text))
    return Inner(3, Leaf(Cube((3,)), pos), Leaf(Cube((-3,)), neg))


def test_stripped_load_bearing_deletes_fail_the_leaf_check():
    # under the cube 3, {5} is only vacuously redundant once {-5,6} is gone
    formula = SQUARE.add(Clause((-5, 6)))
    pos = "d -5 6 0\n5 0\n-1 0\n1 0\n0\n"
    neg = "-1 0\n1 0\n0\n"
    assert check_refutation(formula, parse_drat(pos), mode=STRICT, cube=(3,)).valid
    tree = Inner(3, Leaf(Cube((3,)), parse_drat(pos)), Leaf(Cube((-3,)), parse_drat(neg)))
    with pytest.raises(NonPreservingInputError):
        combine_all(formula, tree)
    for cl_avg in (-1, 0):
        with pytest.raises(InvalidSubProofError) as info:
            combine_all(formula, _stripped_tree(pos, neg), cl_avg=cl_avg)
        assert str(info.value) == "cube 3.proof: invalid at step 1 (not-rat)"


def test_stripped_leaf_without_its_empty_clause_fails_the_leaf_check_at_no_step():
    with pytest.raises(InvalidSubProofError) as info:
        combine_all(SQUARE, _stripped_tree("-1 0\nd 1 2 0\n", "-1 0\n1 0\n0\n"))
    assert str(info.value) == "cube 3.proof: invalid (missing-empty-clause)"


@pytest.mark.parametrize("cl_avg", [-1, 0])
def test_stripped_rat_steps_stitch_and_verify(cl_avg):
    # (9) passes only as RAT on 9, which no clause negates
    tree = _stripped_tree("9 0\nd 9 0\n-1 0\n1 0\n0\n", "-1 0\n1 0\n0\n")
    leaf = tree.pos_child.refutation
    assert leaf == parse_drat("9 0\n-1 0\n1 0\n0\n")
    assert annotate_refutation(SQUARE, leaf, STRICT, cube=(3,))[1][0].kind == KIND_RAT
    combined = combine_all(SQUARE, tree, cl_avg=cl_avg)
    assert combined.hints is not None
    assert check_refutation(SQUARE, combined, mode=STRICT, hints=combined.hints).valid
    assert check_refutation(SQUARE, combined, mode=STRICT).valid
