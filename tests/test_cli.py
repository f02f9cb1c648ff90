"""End-to-end tests for the command line interface.

Every test drives main() directly with an argv list and inspects exit
codes, stdout/stderr text, and the files left behind.
"""

import contextlib
import io
import logging
import os
import re
import shlex
from pathlib import Path

import pytest

from dratstitch import (
    DELETE,
    STRICT,
    Clause,
    ProofStep,
    check_refutation,
    is_preserving,
    parse_dimacs,
    parse_drat,
    unsat_core,
)
from dratstitch.cli import EXIT_IO, EXIT_OK, EXIT_SEMANTIC, build_parser, main


SQUARE_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
CONTRADICTION_CNF = "p cnf 1 2\n1 0\n-1 0\n"
SATISFIABLE_CNF = "p cnf 2 1\n1 2 0\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def make_fixture(tmp_path, name="bundle", num_vars=8, ratio=5.0, depth=2, seed=3):
    out_dir = tmp_path / name
    rc = main(
        [
            "fixture",
            "--vars", str(num_vars),
            "--ratio", str(ratio),
            "--depth", str(depth),
            "--seed", str(seed),
            "-o", str(out_dir),
        ]
    )
    assert rc == EXIT_OK
    return out_dir


# check


def test_check_valid(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    drat = write(tmp_path / "p.drat", "0\n")
    assert main(["check", cnf, drat]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("verdict=valid ")
    assert "steps_checked=1" in out
    assert "propagations=" in out
    assert "check_ms=" in out


def test_check_invalid(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SATISFIABLE_CNF)
    drat = write(tmp_path / "p.drat", "0\n")
    assert main(["check", cnf, drat]) == EXIT_SEMANTIC
    out = capsys.readouterr().out
    assert out.startswith("verdict=invalid ")
    assert "failing_step=1" in out
    assert "reason=not-at" in out


def test_check_accepts_a_satlib_trailer(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF + "%\n0\n\n")
    drat = write(tmp_path / "p.drat", "0\n")
    assert main(["check", cnf, drat]) == EXIT_OK
    assert capsys.readouterr().out.startswith("verdict=valid ")


def test_check_missing_empty_clause(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    drat = write(tmp_path / "p.drat", "")
    assert main(["check", cnf, drat]) == EXIT_SEMANTIC
    out = capsys.readouterr().out
    assert "failing_step=None" in out
    assert "reason=missing-empty-clause" in out


def test_stitch_names_no_step_for_a_leaf_without_its_empty_clause(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    proofs = tmp_path / "proofs"
    proofs.mkdir()
    write(proofs / "1.proof", "0\n")
    write(proofs / "-1.proof", "2 0\n")
    rc = main(["stitch", "--cnf", cnf, "--proofs", str(proofs), "-o", str(tmp_path / "o.drat")])
    assert rc == EXIT_SEMANTIC
    assert capsys.readouterr().err == "error: cube -1.proof: invalid (missing-empty-clause)\n"


@pytest.mark.parametrize(
    "cnf_text, proof_text, message",
    [
        (CONTRADICTION_CNF, "", "input proof is invalid (missing-empty-clause)"),
        (SATISFIABLE_CNF, "0\n", "input proof is invalid at step 1 (not-at)"),
    ],
)
def test_trim_of_an_invalid_proof_names_its_step_if_any(
    tmp_path, capsys, cnf_text, proof_text, message
):
    cnf = write(tmp_path / "f.cnf", cnf_text)
    drat = write(tmp_path / "p.drat", proof_text)
    assert main(["trim", cnf, drat, "-o", str(tmp_path / "o.drat")]) == EXIT_SEMANTIC
    assert capsys.readouterr().err == "error: %s\n" % message


def test_check_missing_file_exits_two(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    assert main(["check", cnf, str(tmp_path / "nope.drat")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["check", "trim"])
def test_an_unreadable_proof_exits_two_and_names_the_file(tmp_path, capsys, command):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    missing = str(tmp_path / "nope.drat")
    argv = [command, cnf, missing] + (["-o", str(tmp_path / "o.drat")] if command == "trim" else [])
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == (
        "error: cannot read %s: [Errno 2] No such file or directory: %r\n" % (missing, missing)
    )


def test_check_malformed_cnf_exits_two(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", "p cnf oops\n1 0\n")
    drat = write(tmp_path / "p.drat", "0\n")
    assert main(["check", cnf, drat]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("bad", ["cnf", "proof"])
def test_undecodable_bytes_name_the_file(tmp_path, capsys, bad):
    garbage = b"\xff\xfe 1 0\n"
    cnf = tmp_path / "i.cnf"
    cnf.write_bytes(garbage if bad == "cnf" else CONTRADICTION_CNF.encode())
    proof = tmp_path / "p.proof"
    proof.write_bytes(garbage if bad == "proof" else b"0\n")
    target = str(cnf if bad == "cnf" else proof)
    assert main(["check", str(cnf), str(proof)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and target in err

    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    (proof_dir / "1.proof").write_bytes(proof.read_bytes())
    (proof_dir / "-1.proof").write_bytes(b"0\n")
    target = str(cnf if bad == "cnf" else proof_dir / "1.proof")
    rc = main(["stitch", "--cnf", str(cnf), "--proofs", str(proof_dir), "-o", str(tmp_path / "o.drat")])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and target in err


@pytest.mark.parametrize("command", ["check", "trim", "stitch"])
@pytest.mark.parametrize(
    "bad, text, message",
    [
        pytest.param("cnf", b"p cnf x 2\n1 0\n-1 0\n", "non-numeric header counts: p cnf x 2", id="cnf"),
        pytest.param("proof", b"1 x 0\n0\n", "bad token 'x' in proof data", id="proof"),
        pytest.param("proof", b"1_2 0\n0\n", "bad token '1_2' in proof data", id="proof-underscore"),
    ],
)
def test_parse_errors_name_the_file(tmp_path, capsys, command, bad, text, message):
    cnf = tmp_path / "i.cnf"
    cnf.write_bytes(text if bad == "cnf" else CONTRADICTION_CNF.encode())
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    proof = proof_dir / "1.proof"
    proof.write_bytes(text if bad == "proof" else b"0\n")
    (proof_dir / "-1.proof").write_bytes(b"0\n")
    argv = {
        "check": ["check", str(cnf), str(proof)],
        "trim": ["trim", str(cnf), str(proof), "-o", str(tmp_path / "t.drat")],
        "stitch": ["stitch", "--cnf", str(cnf), "--proofs", str(proof_dir), "-o", str(tmp_path / "o.drat")],
    }[command]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(cnf if bad == "cnf" else proof) in err
    assert message in err


def test_check_deletion_mode_flags(tmp_path, capsys):
    # Deleting an absent clause is an error only under --strict.
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    drat = write(tmp_path / "p.drat", "d 5 0\n0\n")
    assert main(["check", cnf, drat]) == EXIT_OK
    assert capsys.readouterr().out.startswith("verdict=valid ")
    assert main(["check", "--strict", cnf, drat]) == EXIT_SEMANTIC
    out = capsys.readouterr().out
    assert "reason=deletion-absent" in out
    assert main(["check", "--permissive", cnf, drat]) == EXIT_OK
    capsys.readouterr()


def test_warnings_go_to_the_stderr_of_each_call(tmp_path):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    drat = write(tmp_path / "p.drat", "d 5 0\n0\n")
    package_log = logging.getLogger("dratstitch")
    handlers = list(package_log.handlers)
    buffers = []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["check", cnf, drat]) == EXIT_OK
        buffers.append(err.getvalue())
        assert package_log.handlers == handlers
    warning = "WARNING step 1: deletion of absent clause Clause(5) skipped\n"
    assert buffers == [warning, warning]


def test_check_mode_flags_exclusive(tmp_path):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    drat = write(tmp_path / "p.drat", "0\n")
    with pytest.raises(SystemExit):
        main(["check", "--strict", "--permissive", cnf, drat])


def test_no_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main([])


def test_readme_command_lines_parse():
    # documented flags must not drift from the parser
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line.startswith("dratstitch ")]
    assert commands
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail("README command does not parse: %s" % line)


# solve


def test_solve_sat_prints_assignment(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SATISFIABLE_CNF)
    assert main(["solve", cnf]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "result=sat"
    assert lines[1].startswith("assignment=")
    lits = [int(tok) for tok in lines[1].split("=", 1)[1].split()]
    assert sorted(abs(l) for l in lits) == [1, 2]
    assert any(l in (1, 2) for l in lits)


def test_solve_unsat_writes_proof(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    out = tmp_path / "p.drat"
    assert main(["solve", cnf, "-o", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "result=unsat" in text
    assert "output=%s" % out in text
    proof = parse_drat(out.read_bytes())
    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    assert check_refutation(formula, proof, mode=STRICT).valid


def test_solve_unsat_without_output_flag(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    assert main(["solve", cnf]) == EXIT_OK
    text = capsys.readouterr().out
    assert "result=unsat" in text
    assert "output=" not in text


def test_solve_conflict_budget_exits_one(tmp_path, capsys):
    fixture_dir = make_fixture(tmp_path, num_vars=12, ratio=4.5, seed=9, depth=1)
    cnf = fixture_dir / "instance.cnf"
    assert main(["solve", str(cnf), "--max-conflicts", "1"]) == EXIT_SEMANTIC
    assert capsys.readouterr().err.startswith("error:")


# split


def test_split_stdout(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    assert main(["split", cnf, "--depth", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "a 1 0\na -1 0\n"


def test_split_to_file(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    out = tmp_path / "cubes.txt"
    assert main(["split", cnf, "--depth", "2", "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "cubes=4 output=%s\n" % out
    lines = out.read_text().splitlines()
    assert lines == ["a 1 2 0", "a 1 -2 0", "a -1 2 0", "a -1 -2 0"]


def test_split_depth_too_large_exits_one(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    assert main(["split", cnf, "--depth", "3"]) == EXIT_SEMANTIC
    assert capsys.readouterr().err.startswith("error:")


def test_split_depth_zero_exits_two(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    assert main(["split", cnf, "--depth", "0"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")


# fixture


def test_fixture_layout(tmp_path, capsys):
    out_dir = make_fixture(tmp_path, depth=2)
    text = capsys.readouterr().out
    assert "proofs=4" in text
    assert (out_dir / "instance.cnf").is_file()
    proofs = sorted(p.name for p in out_dir.glob("*.proof"))
    assert len(proofs) == 4
    formula = parse_dimacs((out_dir / "instance.cnf").read_bytes()).formula
    assert len(formula) == 40


def test_fixture_deterministic(tmp_path, capsys):
    a = make_fixture(tmp_path, name="a", seed=7)
    b = make_fixture(tmp_path, name="b", seed=7)
    capsys.readouterr()
    assert (a / "instance.cnf").read_bytes() == (b / "instance.cnf").read_bytes()
    names = sorted(p.name for p in a.glob("*.proof"))
    assert names == sorted(p.name for p in b.glob("*.proof"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fixture_bad_vars_exits_two(tmp_path, capsys):
    rc = main(
        ["fixture", "--vars", "0", "--ratio", "5.0", "--depth", "1",
         "-o", str(tmp_path / "x")]
    )
    assert rc == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")


# stitch


def stitch_args(fixture_dir, out, *extra):
    return [
        "stitch",
        "--cnf", str(fixture_dir / "instance.cnf"),
        "--proofs", str(fixture_dir),
        "-o", str(out),
        *extra,
    ]


def test_stitch_happy_path(tmp_path, capsys):
    fixture_dir = make_fixture(tmp_path)
    out = tmp_path / "combined.drat"
    assert main(stitch_args(fixture_dir, out)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("level=")
    assert lines[-2].startswith("steps=")
    assert lines[-1].startswith("verify=valid ")

    # Depth-2 tree: two merges at level 1, one at level 0, deepest first.
    level_lines = [l for l in lines if l.startswith("level=")]
    assert level_lines[0].startswith("level=1 stitched=2 trimmed=0 ")
    assert level_lines[1].startswith("level=0 stitched=1 trimmed=0 ")

    formula = parse_dimacs((fixture_dir / "instance.cnf").read_bytes()).formula
    proof = parse_drat(out.read_bytes())
    assert check_refutation(formula, proof, mode=STRICT).valid
    assert is_preserving(proof)
    assert "steps=%d" % len(proof) in lines[-2]


def test_stitch_cl_avg_zero_trims_every_merge(tmp_path, capsys):
    fixture_dir = make_fixture(tmp_path)
    out = tmp_path / "combined.drat"
    assert main(stitch_args(fixture_dir, out, "--cl-avg", "0")) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    level_lines = [l for l in lines if l.startswith("level=")]
    assert level_lines[0].startswith("level=1 stitched=2 trimmed=2 ")
    assert level_lines[1].startswith("level=0 stitched=1 trimmed=1 ")
    formula = parse_dimacs((fixture_dir / "instance.cnf").read_bytes()).formula
    assert check_refutation(formula, parse_drat(out.read_bytes()), mode=STRICT).valid


def test_stitch_no_verify_skips_check(tmp_path, capsys):
    fixture_dir = make_fixture(tmp_path)
    out = tmp_path / "combined.drat"
    assert main(stitch_args(fixture_dir, out, "--no-verify")) == EXIT_OK
    assert "verify=" not in capsys.readouterr().out
    assert out.is_file()


def _untimed(text):
    return re.sub(r"_ms=[0-9.]+", "_ms=", text)


def test_a_forked_stitch_prints_the_warnings_of_a_serial_one_in_leaf_order(tmp_path, capfd):
    from dratstitch import formats, stitcher
    from test_leaf_workers import leaf_checks

    fixture_dir = make_fixture(tmp_path, num_vars=18, ratio=4.3, depth=2, seed=1)
    bundle = formats.load_bundle(fixture_dir / "instance.cnf", fixture_dir)
    leaves = list(stitcher._leaves(stitcher.build_cube_tree(bundle)))
    # each leaf first deletes a lemma it adds later, which is absent then
    expected = []
    for leaf, _ in leaves:
        lemma = next(s.clause for s in leaf.refutation if s.clause not in bundle.instance)
        path = fixture_dir / leaf.cube.filename()
        path.write_text("d %s0\n" % "".join("%d " % l for l in lemma) + path.read_text())
        expected.append("WARNING step 1: deletion of absent clause %r skipped\n" % lemma)
    with leaf_checks("forked"):
        sizes = [len(leaf.refutation) + 1 for leaf, _ in leaves]
        assert len(stitcher._shares(sizes)) == 2

    capfd.readouterr()
    out = tmp_path / "combined.drat"
    runs = []
    for path in ("serial", "forked"):
        with leaf_checks(path) as forks:
            assert main(stitch_args(fixture_dir, out)) == EXIT_OK
        captured = capfd.readouterr()
        runs.append((_untimed(captured.out), captured.err, out.read_bytes(), len(forks)))
    (serial_out, serial_err, serial_bytes, _), forked = runs
    assert serial_err == "".join(expected)
    assert forked == (serial_out, serial_err, serial_bytes, 1)


def test_a_forked_stitch_that_fails_leaves_no_child_behind(tmp_path, capfd):
    from dratstitch import formats, stitcher
    from test_leaf_workers import leaf_checks

    fixture_dir = make_fixture(tmp_path, num_vars=18, ratio=4.3, depth=2, seed=1)
    bundle = formats.load_bundle(fixture_dir / "instance.cnf", fixture_dir)
    (leaf, _), *_ = reversed(list(stitcher._leaves(stitcher.build_cube_tree(bundle))))
    path = fixture_dir / leaf.cube.filename()
    path.write_text(path.read_text().replace("\n0\n", "\n"))  # the worker's last leaf
    capfd.readouterr()
    for mode in ("serial", "forked"):
        with leaf_checks(mode) as forks:
            assert main(stitch_args(fixture_dir, tmp_path / "combined.drat")) == EXIT_SEMANTIC
        assert len(forks) == (mode == "forked")
        err = capfd.readouterr().err
        assert err == "error: cube %s: invalid (missing-empty-clause)\n" % leaf.cube.filename()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _spy_root_checks(monkeypatch):
    """Record the hints of every check_refutation call and count the
    stitcher's annotated replays."""
    from dratstitch import checker, stitcher

    calls = {"hints": [], "annotated": 0}
    check = checker.check_refutation
    annotate = stitcher.annotate_refutation

    def spy_check(*args, hints=None, **kwargs):
        calls["hints"].append(hints)
        return check(*args, hints=hints, **kwargs)

    def spy_annotate(*args, **kwargs):
        calls["annotated"] += 1
        return annotate(*args, **kwargs)

    monkeypatch.setattr(checker, "check_refutation", spy_check)
    monkeypatch.setattr(stitcher, "annotate_refutation", spy_annotate)
    return calls


def test_stitch_verifies_the_root_from_leaf_hints(tmp_path, capsys, monkeypatch):
    fixture_dir = make_fixture(tmp_path)
    calls = _spy_root_checks(monkeypatch)
    out = tmp_path / "combined.drat"
    assert main(stitch_args(fixture_dir, out)) == EXIT_OK
    steps = len(parse_drat(out.read_bytes()))
    assert calls["annotated"] == 4  # one recorded replay per leaf
    (hints,) = calls["hints"]
    assert hints is not None and len(hints) == steps
    assert "verify=valid steps_checked=%d " % steps in capsys.readouterr().out


def test_stitch_trust_subproofs_replays_the_root_without_hints(tmp_path, capsys, monkeypatch):
    fixture_dir = make_fixture(tmp_path)
    calls = _spy_root_checks(monkeypatch)
    out = tmp_path / "combined.drat"
    assert main(stitch_args(fixture_dir, out, "--trust-subproofs")) == EXIT_OK
    assert calls == {"hints": [None], "annotated": 0}
    assert "verify=valid " in capsys.readouterr().out


def test_stitch_trust_subproofs_still_validates_where_merges_may_be_trimmed(
    tmp_path, capsys, monkeypatch
):
    fixture_dir = make_fixture(tmp_path)
    validated = tmp_path / "validated.drat"
    assert main(stitch_args(fixture_dir, validated, "--cl-avg", "0")) == EXIT_OK
    calls = _spy_root_checks(monkeypatch)
    trusting = tmp_path / "trusting.drat"
    argv = stitch_args(fixture_dir, trusting, "--cl-avg", "0", "--trust-subproofs")
    assert main(argv) == EXIT_OK
    assert trusting.read_bytes() == validated.read_bytes()
    # every leaf was replayed, and the root is verified from its hints
    assert calls["annotated"] == 4
    (hints,) = calls["hints"]
    assert hints is not None
    assert "verify=valid " in capsys.readouterr().out


def test_stitch_no_verify_skips_the_hint_check(tmp_path, capsys, monkeypatch):
    from dratstitch import checker

    fixture_dir = make_fixture(tmp_path)
    calls = _spy_root_checks(monkeypatch)
    monkeypatch.setattr(checker, "_check_hinted", None)  # would fail if called
    assert main(stitch_args(fixture_dir, tmp_path / "combined.drat", "--no-verify")) == EXIT_OK
    assert calls["hints"] == [] and calls["annotated"] == 4
    assert "verify=" not in capsys.readouterr().out


def test_stitch_replays_the_root_when_its_hints_fall_short(tmp_path, capsys, monkeypatch):
    from dratstitch import checker

    fixture_dir = make_fixture(tmp_path)
    calls = _spy_root_checks(monkeypatch)
    hint_record = checker._hint_record

    def without_hints(*args):
        steps, needed, rat, applied, skipped = hint_record(*args)
        return steps, [() for _ in needed], rat, applied, skipped

    monkeypatch.setattr(checker, "_hint_record", without_hints)
    assert main(stitch_args(fixture_dir, tmp_path / "combined.drat")) == EXIT_OK
    hinted, replayed = calls["hints"]
    assert hinted is not None and replayed is None
    captured = capsys.readouterr()
    assert "verify=valid " in captured.out
    assert "WARNING root hints: invalid at step " in captured.err
    assert captured.err.endswith("; replaying the proof in full\n")


def test_stitch_verifies_the_root_from_hints_when_widening_merges_two_lemmas(
    tmp_path, capsys, monkeypatch
):
    # Under the cube 3 the leaf adds (1 -3), then (1), then deletes
    # (1 -3). Widened, (1) is (1 -3) too, so at the root the deletion
    # takes the younger copy, the one the empty clause's hint names. The
    # value still has a live copy, so the hint stays live and the root
    # verifies from its hints, with no replay behind them.
    cnf = write(
        tmp_path / "f.cnf",
        "p cnf 3 6\n1 2 0\n1 -2 0\n-1 2 -3 0\n-1 -2 -3 0\n-1 2 3 0\n-1 -2 3 0\n",
    )
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "3.proof", "1 -3 0\n1 0\nd 1 -3 0\n0\n")
    write(proof_dir / "-3.proof", "1 0\n0\n")
    out = tmp_path / "combined.drat"
    calls = _spy_root_checks(monkeypatch)
    for mode in ("--strict", "--permissive"):
        calls["hints"].clear()
        rc = main(["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out), mode])
        assert rc == EXIT_OK
        assert "verify=valid steps_checked=7 " in capsys.readouterr().out
        (hints,) = calls["hints"]
        assert hints is not None

    from dratstitch import build_cube_tree, combine_all, load_bundle

    bundle = load_bundle(cnf, str(proof_dir))
    combined = combine_all(bundle.instance, build_cube_tree(bundle))
    assert combined[2] == ProofStep(DELETE, Clause((1, -3)))
    assert len(bundle.instance.counts()) + 1 in combined.hints[3]  # the younger copy
    assert check_refutation(bundle.instance, combined, mode=STRICT, hints=combined.hints).valid


def test_stitch_manifest_input(tmp_path, capsys):
    fixture_dir = make_fixture(tmp_path, depth=1)
    capsys.readouterr()
    proofs = sorted(fixture_dir.glob("*.proof"))
    assert len(proofs) == 2
    manifest_lines = ["c relocated proofs"]
    for i, proof in enumerate(proofs):
        moved = tmp_path / ("run%d.drat" % i)
        moved.write_bytes(proof.read_bytes())
        cube = proof.stem.split("_")
        manifest_lines.append("a %s 0 %s" % (" ".join(cube), moved.name))
    manifest = write(tmp_path / "manifest.txt", "\n".join(manifest_lines) + "\n")

    out = tmp_path / "combined.drat"
    rc = main(
        ["stitch", "--cnf", str(fixture_dir / "instance.cnf"),
         "--proofs", manifest, "-o", str(out)]
    )
    assert rc == EXIT_OK
    assert "verify=valid" in capsys.readouterr().out
    formula = parse_dimacs((fixture_dir / "instance.cnf").read_bytes()).formula
    assert check_refutation(formula, parse_drat(out.read_bytes()), mode=STRICT).valid


@pytest.mark.parametrize(
    "line, message",
    [
        ("a 1 00 0 ok.drat", "bad literal '00'"),
        ("a 1 -1 0 ok.drat", "variable 1 decided twice in cube [1, -1]"),
    ],
)
def test_stitch_names_the_manifest_line_of_a_bad_cube(tmp_path, capsys, line, message):
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    write(tmp_path / "ok.drat", "0\n")
    manifest = write(tmp_path / "m.icnf", "a -1 0 ok.drat\n%s\n" % line)
    rc = main(["stitch", "--cnf", cnf, "--proofs", manifest, "-o", str(tmp_path / "o.drat")])
    assert rc == EXIT_IO
    assert capsys.readouterr().err == "error: %s:2: %s\n" % (manifest, message)


def test_stitch_names_the_proof_file_of_a_bad_cube(tmp_path, capsys):
    proof_dir = tmp_path / "proofs"
    for sub in ("a", "b"):
        (proof_dir / sub).mkdir(parents=True)
        write(proof_dir / sub / "1_-1.proof", "0\n")
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    rc = main(["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(tmp_path / "o.drat")])
    assert rc == EXIT_IO
    assert capsys.readouterr().err == (
        "error: %s: variable 1 decided twice in cube [1, -1]\n" % (proof_dir / "a" / "1_-1.proof")
    )


def test_stitch_incomplete_partition_exits_one(tmp_path, capsys):
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "0\n")
    write(proof_dir / "-2.proof", "0\n")
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    out = tmp_path / "combined.drat"
    rc = main(["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)])
    assert rc == EXIT_SEMANTIC
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_stitch_duplicate_cube_exits_one(tmp_path, capsys):
    proof_dir = tmp_path / "proofs"
    (proof_dir / "deeper").mkdir(parents=True)
    write(proof_dir / "1.proof", "0\n")
    write(proof_dir / "deeper" / "1.proof", "0\n")
    cnf = write(tmp_path / "f.cnf", CONTRADICTION_CNF)
    rc = main(
        ["stitch", "--cnf", cnf, "--proofs", str(proof_dir),
         "-o", str(tmp_path / "out.drat")]
    )
    assert rc == EXIT_SEMANTIC
    assert "twice" in capsys.readouterr().err


def test_stitch_cuts_each_leaf_at_its_empty_clause(tmp_path, capsys, monkeypatch):
    # the step after the positive leaf's empty clause deletes a clause
    # that is not there; no check reads past the empty clause, so neither
    # does the stitch, validated or trusting
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "2 0\n0\nd 5 0\n")
    write(proof_dir / "-1.proof", "2 0\n0\n")
    out = tmp_path / "combined.drat"
    calls = _spy_root_checks(monkeypatch)
    for trust in ((), ("--trust-subproofs",)):
        argv = ["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out), "--strict"]
        assert main(argv + list(trust)) == EXIT_OK
        assert out.read_text() == "2 -1 0\n-1 0\n2 1 0\n1 0\n0\n"
        assert "verify=valid steps_checked=5 " in capsys.readouterr().out
    # validated, the root is verified from its hints; trusting, by replay
    validated, trusting = calls["hints"]
    assert validated is not None and trusting is None


def test_stitch_rejects_bad_subproof(tmp_path, capsys):
    # The -1 branch of this satisfiable instance cannot have a real
    # refutation, so its fabricated one is caught before stitching.
    cnf = write(tmp_path / "f.cnf", "p cnf 3 3\n-1 0\n2 3 0\n-2 3 0\n")
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "0\n")
    write(proof_dir / "-1.proof", "0\n")
    out = tmp_path / "combined.drat"
    rc = main(["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)])
    assert rc == EXIT_SEMANTIC
    assert "-1.proof" in capsys.readouterr().err
    assert not out.exists()


def test_stitch_trust_subproofs_fails_final_verify(tmp_path, capsys):
    # Skipping input validation lets the merge run, but the combined
    # proof of a satisfiable instance cannot pass the final check.
    cnf = write(tmp_path / "f.cnf", "p cnf 3 3\n-1 0\n2 3 0\n-2 3 0\n")
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "0\n")
    write(proof_dir / "-1.proof", "0\n")
    out = tmp_path / "combined.drat"
    rc = main(
        ["stitch", "--cnf", cnf, "--proofs", str(proof_dir),
         "-o", str(out), "--trust-subproofs"]
    )
    assert rc == EXIT_SEMANTIC
    captured = capsys.readouterr()
    assert "verify=invalid" in captured.out
    assert "failed verification" in captured.err
    assert not out.exists()

    # where merges may be trimmed the leaves are checked, trusted or not
    assert main(
        ["stitch", "--cnf", cnf, "--proofs", str(proof_dir),
         "-o", str(out), "--trust-subproofs", "--cl-avg", "0"]
    ) == EXIT_SEMANTIC
    assert capsys.readouterr().err.startswith("error: cube -1.proof: invalid at step 1 ")
    assert not out.exists()


@pytest.mark.parametrize("before", [None, "an earlier proof\n"])
def test_a_stitch_that_fails_its_verify_leaves_no_output(tmp_path, capsys, before):
    # trusted, the two empty proofs merge into (-1) (1) (), which
    # fails at (1); whatever was at -o before stays as it was
    cnf = write(tmp_path / "f.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    proof_dir = tmp_path / "p"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "0\n")
    write(proof_dir / "-1.proof", "0\n")
    out = tmp_path / "out.drat"
    if before is not None:
        out.write_text(before)
    argv = ["stitch", "--trust-subproofs", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)]
    assert main(argv) == EXIT_SEMANTIC
    captured = capsys.readouterr()
    assert "verify=invalid failing_step=2 reason=not-rat" in captured.out
    assert "steps=3 output=%s" % out in captured.out
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["f.cnf", "p"] + ([] if before is None else ["out.drat"])
    )
    # unverified, the same proof is written
    assert main(argv + ["--no-verify"]) == EXIT_OK
    assert out.read_text() == "-1 0\n1 0\n0\n"


def test_a_stitch_to_a_missing_directory_names_its_output(tmp_path, capsys):
    out = tmp_path / "missing" / "out.drat"
    assert main(stitch_args(make_fixture(tmp_path), out)) == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: %r\n" % str(out)


def test_a_stitch_writes_through_a_symlink_at_its_output(tmp_path, capsys):
    fixture_dir = make_fixture(tmp_path)
    target = tmp_path / "target.drat"
    target.write_text("an earlier proof\n")
    out = tmp_path / "link.drat"
    out.symlink_to(target)
    assert main(stitch_args(fixture_dir, out)) == EXIT_OK
    assert "output=%s" % out in capsys.readouterr().out
    assert out.is_symlink()
    assert main(stitch_args(fixture_dir, tmp_path / "plain.drat")) == EXIT_OK
    assert target.read_bytes() == (tmp_path / "plain.drat").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "link.drat", "plain.drat", "target.drat"]


def _spy_replays(monkeypatch):
    """Count the checker's full replays."""
    from dratstitch import checker

    calls = []
    replay = checker._replay

    def spy(*args, **kwargs):
        calls.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(checker, "_replay", spy)
    return calls


def test_stitch_strip_deletions(tmp_path, capsys, monkeypatch):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "2 0\nd 2 0\n2 0\n0\n")
    write(proof_dir / "-1.proof", "0\n")

    kept = tmp_path / "kept.drat"
    rc = main(["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(kept)])
    assert rc == EXIT_OK
    assert "d " in kept.read_text()

    stripped = tmp_path / "stripped.drat"
    argv = ["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(stripped)]
    rc = main(argv + ["--strip-deletions"])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert "d " not in stripped.read_text()
    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    assert check_refutation(formula, parse_drat(stripped.read_bytes()), mode=STRICT).valid

    # each leaf is judged once, by the leaf check, trusted or not
    replays = _spy_replays(monkeypatch)
    for trust in ((), ("--trust-subproofs",)):
        replays.clear()
        assert main(argv + ["--strip-deletions", "--no-verify", *trust]) == EXIT_OK
        assert len(replays) == 2


def test_stitch_strip_deletions_names_the_proof_it_cannot_repair(tmp_path, capsys):
    # under the cube 1, (5) is redundant only once (-5 6) is deleted
    cnf = write(tmp_path / "f.cnf", "p cnf 6 5\n2 3 0\n2 -3 0\n-2 3 0\n-2 -3 0\n-5 6 0\n")
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "d -5 6 0\n5 0\n-2 0\n2 0\n0\n")
    write(proof_dir / "-1.proof", "-2 0\n2 0\n0\n")
    out = tmp_path / "combined.drat"
    rc = main(
        ["stitch", "--cnf", cnf, "--proofs", str(proof_dir),
         "-o", str(out), "--strip-deletions"]
    )
    assert rc == EXIT_SEMANTIC
    assert capsys.readouterr().err == "error: cube 1.proof: invalid at step 1 (not-rat)\n"
    assert not out.exists()


@pytest.mark.parametrize("cl_avg", ["-1", "0"])
def test_stitch_strip_deletions_keeps_rat_steps(tmp_path, capsys, cl_avg):
    # stripped, the positive leaf adds (9) as RAT on 9, which no clause negates
    cnf = write(tmp_path / "f.cnf", "p cnf 9 5\n2 3 0\n2 -3 0\n-2 3 0\n-2 -3 0\n1 -1 0\n")
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "9 0\nd 9 0\n2 0\n0\n")
    write(proof_dir / "-1.proof", "2 0\n0\n")
    out = tmp_path / "combined.drat"
    argv = ["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)]
    assert main(argv + ["--strip-deletions", "--cl-avg", cl_avg]) == EXIT_OK
    assert "verify=valid " in capsys.readouterr().out
    proof = parse_drat(out.read_bytes())
    assert not any(step.op == DELETE for step in proof if step.clause == Clause((9, -1)))
    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    assert check_refutation(formula, proof, mode=STRICT).valid


@pytest.mark.parametrize("cl_avg", ["-1", "0"])
def test_stitch_drops_the_deletions_a_permissive_leaf_check_skipped(
    tmp_path, capsys, monkeypatch, cl_avg
):
    # (2) is absent under the cube 1, so the leaf check skips its
    # deletion; widened to (2 -1) it would delete the leaf's first lemma,
    # which the later steps' hints name
    cnf = write(tmp_path / "f.cnf", "p cnf 6 4\n2 3 0\n2 -3 0\n-2 6 0\n-6 -2 0\n")
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "2 -1 0\nd 2 0\n6 0\n2 0\n0\n")
    write(proof_dir / "-1.proof", "2 0\n0\n")
    out = tmp_path / "combined.drat"
    calls = _spy_root_checks(monkeypatch)
    replays = _spy_replays(monkeypatch)
    argv = ["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)]
    assert main(argv + ["--cl-avg", cl_avg]) == EXIT_OK
    captured = capsys.readouterr()
    assert "verify=valid " in captured.out
    assert "deletion of absent clause" in captured.err
    assert "root hints" not in captured.err
    # the root is verified from its hints alone, after the two leaf checks
    (hints,) = calls["hints"]
    assert hints is not None and len(replays) == 2
    if cl_avg == "-1":
        assert "d 2 -1 0" not in out.read_text()
    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    assert check_refutation(formula, parse_drat(out.read_bytes()), mode=STRICT).valid


def test_stitch_strict_mode_forwarded(tmp_path, capsys):
    # A delete-before-add proof is preserving but replays past an absent
    # clause, so it only validates permissively.
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "d 7 0\n7 0\n0\n")
    write(proof_dir / "-1.proof", "0\n")
    out = tmp_path / "combined.drat"
    base = ["stitch", "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)]
    assert main(base + ["--strict"]) == EXIT_SEMANTIC
    assert capsys.readouterr().err.startswith("error:")
    assert main(base) == EXIT_OK
    assert "verify=valid" in capsys.readouterr().out


@pytest.mark.parametrize("cl_avg", ["-1", "0"])
def test_a_strict_stitch_rejects_a_leaf_that_deletes_a_formula_clause_it_adds_later(
    tmp_path, capsys, cl_avg
):
    # the leaf passes a strict check and is preserving, but widened by -1
    # its deletion is of (1 2 -1), which is absent
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    proof_dir = tmp_path / "proofs"
    proof_dir.mkdir()
    write(proof_dir / "1.proof", "d 1 2 0\n1 2 0\n0\n")
    write(proof_dir / "-1.proof", "2 0\n0\n")
    out = tmp_path / "combined.drat"
    base = ["stitch", "--cl-avg", cl_avg, "--cnf", cnf, "--proofs", str(proof_dir), "-o", str(out)]
    assert main(base + ["--strict"]) == EXIT_SEMANTIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cube 1.proof: step 1 deletes Clause(1 2) before adding it; widened, it is absent\n"
    )
    assert not out.exists()
    # permissively, the widened deletion is skipped with a warning
    assert main(base) == EXIT_OK
    captured = capsys.readouterr()
    assert "verify=valid" in captured.out
    assert "deletion of absent clause Clause(1 2 -1) skipped" in captured.err
    assert main(["check", cnf, str(out)]) == EXIT_OK


# trim


def test_trim_drops_padding(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    drat = write(tmp_path / "p.drat", "5 -6 0\n1 0\n0\n")
    out = tmp_path / "trimmed.drat"
    assert main(["trim", cnf, drat, "-o", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("input_steps=3 output_steps=2 ")
    assert "input_bytes=" in lines[0]
    assert "core_clauses=" in lines[0]
    assert lines[1] == "output=%s" % out
    assert out.read_text() == "1 0\n0\n"


def test_trim_emit_core(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    drat = write(tmp_path / "p.drat", "1 0\n0\n")
    out = tmp_path / "trimmed.drat"
    core_path = tmp_path / "core.cnf"
    rc = main(["trim", cnf, drat, "-o", str(out), "--emit-core", str(core_path)])
    assert rc == EXIT_OK
    assert "core=%s" % core_path in capsys.readouterr().out

    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    trimmed = parse_drat(out.read_bytes())
    core = parse_dimacs(core_path.read_bytes()).formula
    assert core == unsat_core(formula, parse_drat(Path(drat).read_bytes()))
    assert check_refutation(core, trimmed, mode=STRICT).valid


@pytest.mark.parametrize("flags", [(), ("--no-deletions",)], ids=["deletions", "no-deletions"])
def test_trim_core_pairs_with_the_written_proof(tmp_path, capsys, flags):
    fixture_dir = make_fixture(tmp_path, num_vars=9, depth=3, seed=7)
    cnf = str(fixture_dir / "instance.cnf")
    combined = tmp_path / "combined.drat"
    assert main(stitch_args(fixture_dir, combined, "--no-verify")) == EXIT_OK
    out = tmp_path / "trimmed.drat"
    core_path = tmp_path / "core.cnf"
    argv = ["trim", cnf, str(combined), "-o", str(out), "--emit-core", str(core_path), *flags]
    assert main(argv) == EXIT_OK
    stats = dict(
        field.split("=", 1) for field in capsys.readouterr().out.splitlines()[-3].split()
    )
    core = parse_dimacs(core_path.read_bytes()).formula
    assert len(core) == int(stats["core_clauses"])
    trimmed = parse_drat(out.read_bytes())
    assert any(not s.is_add for s in trimmed) == (not flags)
    assert check_refutation(core, trimmed, mode=STRICT).valid


def test_trim_no_deletions_flag(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SQUARE_CNF)
    drat = write(tmp_path / "p.drat", "2 0\nd 2 0\n2 0\n0\n")
    out = tmp_path / "trimmed.drat"
    assert main(["trim", cnf, drat, "-o", str(out), "--no-deletions"]) == EXIT_OK
    capsys.readouterr()
    assert "d " not in out.read_text()
    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    assert check_refutation(formula, parse_drat(out.read_bytes()), mode=STRICT).valid


def test_trim_of_a_rat_proof_whose_deleted_lemma_goes_unused(tmp_path, capsys):
    # {5, 6} is the only RAT step; once it is gone, so are {2, 3} and its deletion
    cnf = write(tmp_path / "f.cnf", "p cnf 3 4\n1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n")
    drat = write(tmp_path / "p.drat", "5 6 0\n2 3 0\nd 2 3 0\n1 0\n0\n")
    out = tmp_path / "trimmed.drat"
    assert main(["trim", cnf, drat, "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("input_steps=5 output_steps=2 ")
    formula = parse_dimacs(Path(cnf).read_bytes()).formula
    assert check_refutation(formula, parse_drat(out.read_bytes()), mode=STRICT).valid


def test_trim_invalid_proof_exits_one(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", SATISFIABLE_CNF)
    drat = write(tmp_path / "p.drat", "0\n")
    out = tmp_path / "trimmed.drat"
    assert main(["trim", cnf, drat, "-o", str(out)]) == EXIT_SEMANTIC
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
