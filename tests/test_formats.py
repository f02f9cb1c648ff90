"""DIMACS, DRAT, cube filename, and bundle loading behavior."""

import random

import pytest

from dratstitch import (
    ADD,
    DELETE,
    BadCubeFilenameError,
    Clause,
    Cube,
    DuplicateCubeError,
    DuplicateVariableInCubeError,
    EMPTY_CLAUSE,
    Formula,
    FormatError,
    MalformedHeaderError,
    MissingTerminatorError,
    NonIntegerTokenError,
    ProofStep,
    Refutation,
    UnreadableProofError,
    cube_from_filename,
    load_bundle,
    parse_dimacs,
    parse_drat,
    write_dimacs,
    write_drat,
)

from helpers import random_formula


def test_parse_dimacs_basic():
    got = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    assert got.formula == Formula((Clause((1, -2)), Clause((2, 3))))
    assert got.declared_vars == 3
    assert got.declared_clauses == 2
    assert got.duplicate_literals == 0


def test_parse_dimacs_comments_whitespace_and_multiline_clauses():
    text = "c intro\nc more\np cnf 4 2\nc inline comment\n1 2\n-3 0\n  4 0\n\n"
    got = parse_dimacs(text)
    assert got.formula == Formula((Clause((1, 2, -3)), Clause((4,))))


def test_parse_dimacs_counts_are_advisory():
    got = parse_dimacs("p cnf 9 9\n1 0\n")
    assert len(got.formula) == 1
    assert got.declared_vars == 9
    assert got.declared_clauses == 9


def test_parse_dimacs_accepts_bytes():
    got = parse_dimacs(b"p cnf 1 1\n1 0\n")
    assert got.formula == Formula((Clause((1,)),))


def test_parse_dimacs_duplicate_literals_dropped_and_counted():
    got = parse_dimacs("p cnf 2 1\n1 1 -2 1 0\n")
    assert got.formula == Formula((Clause((1, -2)),))
    assert got.duplicate_literals == 2


def test_parse_dimacs_keeps_tautologies_and_multiset_duplicates():
    got = parse_dimacs("p cnf 2 3\n1 -1 0\n2 0\n2 0\n")
    assert got.formula.multiplicity(Clause((2,))) == 2
    assert got.formula.multiplicity(Clause((1, -1))) == 1


def test_parse_dimacs_header_errors():
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("1 0\n")  # clause before any header
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p sat 3 2\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p cnf 3\n1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p cnf three 2\n1 0\n")


def test_parse_dimacs_token_errors():
    with pytest.raises(NonIntegerTokenError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(MissingTerminatorError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_write_dimacs_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        f = random_formula(rng, rng.randint(1, 8), rng.randint(0, 12))
        again = parse_dimacs(write_dimacs(f))
        assert again.formula == f
        assert again.declared_clauses == len(f)


def test_write_dimacs_header_uses_max_variable():
    text = write_dimacs(Formula((Clause((2, -7)),)))
    assert text.splitlines()[0] == "p cnf 7 1"
    assert write_dimacs(Formula()).splitlines()[0] == "p cnf 0 0"
    assert write_dimacs(Formula(), declared_vars=5).splitlines()[0] == "p cnf 5 0"


def test_parse_drat_adds_deletes_and_empty():
    r = parse_drat("1 2 0\nd 1 2 0\n-1 0\n0\n")
    assert r.steps == (
        ProofStep(ADD, Clause((1, 2))),
        ProofStep(DELETE, Clause((1, 2))),
        ProofStep(ADD, Clause((-1,))),
        ProofStep(ADD, EMPTY_CLAUSE),
    )


def test_parse_drat_preserves_literal_order():
    r = parse_drat("3 -1 2 0\n")
    assert r.steps[0].clause.literals == (3, -1, 2)
    assert r.steps[0].clause.pivot == 3


def test_parse_drat_delete_empty_and_comments():
    r = parse_drat("c header note\nd 0\n0\n")
    assert r.steps == (ProofStep(DELETE, EMPTY_CLAUSE), ProofStep(ADD, EMPTY_CLAUSE))


def test_parse_drat_empty_input():
    assert parse_drat("").steps == ()
    assert write_drat(Refutation()) == ""


def test_parse_drat_errors():
    with pytest.raises(MissingTerminatorError):
        parse_drat("1 2\n")
    with pytest.raises(NonIntegerTokenError):
        parse_drat("1 d 0\n")  # 'd' only marks a clause start
    with pytest.raises(NonIntegerTokenError):
        parse_drat("q 0\n")
    with pytest.raises(MissingTerminatorError):
        parse_drat("d\n")


def test_write_drat_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        steps = []
        for _ in range(rng.randint(0, 15)):
            op = ADD if rng.random() < 0.7 else DELETE
            width = rng.randint(0, 4)
            lits = []
            while len(lits) < width:
                l = rng.randint(1, 9) * rng.choice((1, -1))
                if l not in lits:
                    lits.append(l)
            steps.append(ProofStep(op, Clause(lits)))
        r = Refutation(steps)
        text = write_drat(r)
        again = parse_drat(text)
        assert again == r
        # serialized order must match the clause's stored order
        assert [s.clause.literals for s in again.steps] == [s.clause.literals for s in steps]
        assert write_drat(again) == text


def test_cube_filename_round_trip():
    assert Cube((1, -2)).filename() == "1_-2.proof"
    assert Cube(()).filename() == "root.proof"
    assert cube_from_filename("1_-2.proof") == Cube((1, -2))
    assert cube_from_filename("root.proof") == Cube(())
    assert cube_from_filename("/some/dir/-4.proof") == Cube((-4,))
    rng = random.Random(3)
    for _ in range(100):
        variables = rng.sample(range(1, 20), rng.randint(1, 5))
        cube = Cube(tuple(v * rng.choice((1, -1)) for v in variables))
        assert cube_from_filename(cube.filename()) == cube


def test_cube_filename_errors():
    for bad in ("1_-2.txt", ".proof", "1__2.proof", "0.proof", "1_.proof", "a.proof", "01.proof"):
        with pytest.raises(BadCubeFilenameError):
            cube_from_filename(bad)


def test_cube_rejects_zero_and_duplicate_variables():
    with pytest.raises(ValueError):
        Cube((1, 0))
    with pytest.raises(DuplicateVariableInCubeError):
        Cube((1, -1))
    with pytest.raises(DuplicateVariableInCubeError):
        cube_from_filename("2_2.proof")


def test_cube_depth_and_iteration():
    cube = Cube((3, -1))
    assert cube.depth == 2
    assert list(cube) == [3, -1]
    assert Cube(()).depth == 0


def _write_instance(tmp_path):
    cnf = tmp_path / "instance.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    return cnf


def test_load_bundle_from_directory(tmp_path):
    cnf = _write_instance(tmp_path)
    proofs = tmp_path / "proofs"
    nested = proofs / "deeper"
    nested.mkdir(parents=True)
    (proofs / "2.proof").write_text("0\n")
    (nested / "-2.proof").write_text("-1 0\n0\n")
    bundle = load_bundle(cnf, proofs)
    assert bundle.instance == Formula((Clause((1,)), Clause((-1, 2))))
    assert bundle.cubes() == (Cube((2,)), Cube((-2,)))  # sorted path order
    by_cube = {e.cube: e.refutation for e in bundle.entries}
    assert by_cube[Cube((2,))] == Refutation((ProofStep(ADD, EMPTY_CLAUSE),))
    assert len(by_cube[Cube((-2,))]) == 2


def test_load_bundle_duplicate_cube(tmp_path):
    cnf = _write_instance(tmp_path)
    proofs = tmp_path / "proofs"
    nested = proofs / "sub"
    nested.mkdir(parents=True)
    (proofs / "2.proof").write_text("0\n")
    (nested / "2.proof").write_text("0\n")
    with pytest.raises(DuplicateCubeError):
        load_bundle(cnf, proofs)


def test_load_bundle_empty_directory(tmp_path):
    cnf = _write_instance(tmp_path)
    proofs = tmp_path / "proofs"
    proofs.mkdir()
    with pytest.raises(FormatError):
        load_bundle(cnf, proofs)


def test_load_bundle_unparseable_proof(tmp_path):
    cnf = _write_instance(tmp_path)
    proofs = tmp_path / "proofs"
    proofs.mkdir()
    (proofs / "2.proof").write_text("1 ner 0\n")
    with pytest.raises(UnreadableProofError):
        load_bundle(cnf, proofs)


def test_load_bundle_undecodable_files_name_the_file(tmp_path):
    cnf = _write_instance(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff 1 0\n")
    manifest = tmp_path / "m.icnf"
    manifest.write_text("a 2 0 bad.bin\n")
    # undecodable CNF, manifest and proof, in that order
    for args in ((bad, manifest), (cnf, bad), (cnf, manifest)):
        with pytest.raises(FormatError, match="bad.bin"):
            load_bundle(*args)


def test_load_bundle_cnf_parse_error_keeps_its_class_and_names_the_file(tmp_path):
    cnf = tmp_path / "broken.cnf"
    cnf.write_text("p cnf x 2\n1 0\n")
    proofs = tmp_path / "proofs"
    proofs.mkdir()
    (proofs / "2.proof").write_text("0\n")
    with pytest.raises(MalformedHeaderError) as info:
        load_bundle(cnf, proofs)
    assert str(info.value) == "%s: non-numeric header counts: p cnf x 2" % cnf


def test_load_bundle_from_manifest(tmp_path):
    cnf = _write_instance(tmp_path)
    sub = tmp_path / "runs"
    sub.mkdir()
    (sub / "left.drat").write_text("0\n")
    (sub / "right.drat").write_text("-1 0\n0\n")
    manifest = tmp_path / "cubes.icnf"
    manifest.write_text(
        "c produced by a splitter\n"
        "p inccnf\n"
        "a 2 0 runs/left.drat\n"
        "a -2 0 runs/right.drat\n"
    )
    bundle = load_bundle(cnf, manifest)
    assert bundle.cubes() == (Cube((2,)), Cube((-2,)))
    assert bundle.entries[0].source.endswith("left.drat")


def test_load_bundle_manifest_errors(tmp_path):
    cnf = _write_instance(tmp_path)
    (tmp_path / "ok.drat").write_text("0\n")

    bad = tmp_path / "m1.icnf"
    bad.write_text("b 2 0 ok.drat\n")
    with pytest.raises(FormatError):
        load_bundle(cnf, bad)

    bad.write_text("a 2 ok.drat\n")
    with pytest.raises(MissingTerminatorError):
        load_bundle(cnf, bad)

    bad.write_text("a 2 0 ok.drat extra\n")
    with pytest.raises(FormatError):
        load_bundle(cnf, bad)

    bad.write_text("a 2 0 missing.drat\n")
    with pytest.raises(UnreadableProofError):
        load_bundle(cnf, bad)

    bad.write_text("c only comments\n")
    with pytest.raises(FormatError):
        load_bundle(cnf, bad)
