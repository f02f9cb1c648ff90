"""Hints in unit order.

A replay names the clauses behind each conflict with the falsified clause
first, then the reason of each trail literal the conflict needs, latest
first. Reversed, an addition's hints are then in unit order, the order
in which LRAT lists them: under the addition's negated literals and the
cube's units, each clause in turn is unit, its open literal joins the
assignment, and the last one is falsified. So the hint checker derives
each conflict in one pass over them.

Checked here on the hints of stitches, at cl_avg -1 (the leaf replays'
ids, carried through the merges) and 0 (the trims' ids), on the replay
records that leaf checks and replay trims read, for the bench's smoke
inputs and the CI fixtures, and on the long-root case. An addition that
passed only as RAT is left out: its hints join the conflicts of several
resolvents, each under its own assumptions.
"""

import itertools

from dratstitch import (
    PERMISSIVE,
    STRICT,
    annotate_refutation,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    solve_drup,
)
from dratstitch import checker
from dratstitch.stitcher import StitchedRefutation

from helpers import bundle_for, depth_first_explain, long_root_case
from test_replay_record import _bench_inputs, _ci_fixtures


def _in_unit_order(hint, literals, assumed):
    """Whether the clauses hint names, reversed, are each unit in turn
    under the assumed literals and those derived before, and the last
    falsified. A clause may also derive a literal already assumed: the
    replay finds an assumed literal true at the root already, and names
    its reason when the conflict needs it."""
    true = set(assumed)
    for n, h in enumerate(reversed(hint), 1):
        open_ = [lit for lit in literals[h] if -lit not in true]
        if n == len(hint):
            return not open_
        if len(open_) != 1 or (open_[0] in true and open_[0] not in assumed):
            return False
        true.add(open_[0])
    return False  # no hint


def out_of_unit_order(formula, steps, hints, rat=(), cube=()):
    """The numbers of the additions, other than those in rat, whose
    reversed hints are not in unit order under the negated addition and
    the cube's units; ids name the formula's distinct clauses, then one
    per step. Assumptions that clash need no hint. Once the root closure
    conflicts, every addition is named by that conflict, which is in
    unit order under the cube's units alone."""
    literals = [clause.literals for clause, _ in formula.counts()]
    out = []
    for i, (step, hint) in enumerate(zip(steps, hints), 1):
        literals.append(step.clause.literals)
        if not step.is_add or i in rat:
            continue
        assumed = set(cube)
        assumed.update(-lit for lit in step.clause.literals)
        if any(-lit in assumed for lit in assumed):
            continue
        if not (_in_unit_order(hint, literals, assumed) or _in_unit_order(hint, literals, cube)):
            out.append(i)
    return out


def _additions(steps, rat=()):
    return sum(1 for i, step in enumerate(steps, 1) if step.is_add and i not in rat)


def test_the_checker_of_the_property_rejects_other_orders():
    formula, proof = long_root_case(chain=3, lemmas=2)
    _, (steps, needed, rat, _, _) = annotate_refutation(formula, proof, STRICT, _record=True)
    assert out_of_unit_order(formula, steps, needed, rat) == []
    # each lemma: the falsified clause, the reason of its b, then (1); the
    # empty clause: the root conflict's (a d) or (a -d), the other, then (-a)
    assert [len(hint) for hint in needed] == [3, 3, 3]
    swapped = [hint[:1] + hint[1:][::-1] for hint in needed]
    assert out_of_unit_order(formula, steps, swapped, rat) == [1, 2, 3]


def test_the_depth_first_explanation_was_out_of_unit_order(monkeypatch):
    formula = gen_random_unsat(12, 5.0, seed=11)
    proof = solve_drup(formula, seed=11).refutation
    _, (steps, needed, rat, _, _) = annotate_refutation(formula, proof, STRICT, _record=True)
    assert out_of_unit_order(formula, steps, needed, rat) == []
    monkeypatch.setattr(checker._ClauseDb, "_explain", depth_first_explain)
    _, (_, depth_first, _, _, _) = annotate_refutation(formula, proof, STRICT, _record=True)
    assert list(map(set, depth_first)) == list(map(set, needed))
    assert out_of_unit_order(formula, steps, depth_first, rat) != []


def test_stitched_hints_and_replay_records_are_in_unit_order(tmp_path):
    stitches = records = 0
    cases = itertools.chain(_bench_inputs(tmp_path / "bench"), _ci_fixtures(tmp_path / "ci"))
    for formula, proof, cube in cases:
        if isinstance(proof, StitchedRefutation) and proof.hints is not None:
            assert check_refutation(formula, proof, STRICT, hints=proof.hints).valid
            assert out_of_unit_order(formula, proof.steps, proof.hints) == []
            stitches += 1
        report, (steps, needed, rat, _, _) = annotate_refutation(
            formula, proof, PERMISSIVE, cube=cube, _record=True
        )
        if report.valid:
            assert out_of_unit_order(formula, steps, needed, rat, cube) == [], (cube, proof)
            records += _additions(steps, rat)
    # both gates of each smoke stitch workload and of the depth-2 and depth-4
    # fixtures, and the depth-11 fixture at cl_avg -1
    assert stitches == 9
    assert records > 5000


def test_partly_trimmed_stitches_hint_in_unit_order():
    # an untrimmed merge's empty clause is hinted by its negative side's
    # final clause (x), or what (x) was derived from, and then (-x)
    formula = gen_random_unsat(11, 5.0, seed=2)
    tree = build_cube_tree(bundle_for(formula, 3, seed=2))
    mixed = 0
    for cl_avg in (1, 2, 3, 4, 6):
        records = []
        out = combine_all(formula, tree, cl_avg=cl_avg, on_record=records.append)
        assert out_of_unit_order(formula, out.steps, out.hints) == []
        mixed += len({record.trimmed for record in records}) == 2
    assert mixed


def test_the_long_root_record_is_in_unit_order():
    formula, proof = long_root_case()
    report, (steps, needed, rat, _, _) = annotate_refutation(formula, proof, STRICT, _record=True)
    assert report.valid and not rat
    assert out_of_unit_order(formula, steps, needed) == []
    # each lemma's conflict reaches back to (1), the first root literal's reason
    assert all(hint[-1] == 0 for hint in needed[:-1])
