"""DIMACS, DRAT, cube filename, and bundle loading behavior."""

import gc
import random
import tracemalloc
from collections import Counter

import pytest

import dratstitch
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

from dratstitch.cli import main
from dratstitch.formats import _BLOCK, drat_size

from helpers import (
    bench_workloads,
    last_use_corpus,
    random_formula,
    random_proofs,
    rat_corpus,
    reference_parse_dimacs,
    reference_parse_drat,
    stitched_instance,
)


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
    # counts are integers as clause tokens are: int() would read these
    for header in ("p cnf 2_0 4", "p cnf \u0661 2", "p cnf 2 \uff14"):
        with pytest.raises(MalformedHeaderError) as info:
            parse_dimacs(header + "\n1 0\n")
        assert str(info.value) == "non-numeric header counts: %s" % header
    assert parse_dimacs("p cnf +2 1\n1 0\n").declared_vars == 2


def test_parse_dimacs_token_errors():
    with pytest.raises(NonIntegerTokenError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(MissingTerminatorError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_dimacs_stops_at_the_satlib_trailer():
    plain = "p cnf 2 2\n1 2 0\n-1 0\n"
    assert parse_dimacs(plain + "%\n0\n") == parse_dimacs(plain)
    assert parse_dimacs(plain + " % \n0\n\n").formula == parse_dimacs(plain).formula
    # only a line of its own ends the clause data
    with pytest.raises(NonIntegerTokenError):
        parse_dimacs("p cnf 2 1\n1 % 0\n")


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


# int() reads each of these as an integer, but no DIMACS or DRAT writer
# spells a literal so: an underscore, Arabic-Indic and fullwidth digits
@pytest.mark.parametrize("token", ["1_2", "0_0", "\u0661", "\uff11", "-\u0662\u0663"])
def test_parsers_take_only_ascii_digit_tokens(token):
    # a clause line of its own, within one, across lines, deleted, after another on its line
    proofs = [t % token for t in ("%s 0\n", "1 %s 0\n", "1\n%s 0\n", "d %s 0\n", "1 0 %s 0\n")]
    for text in proofs:
        with pytest.raises(NonIntegerTokenError) as info:
            parse_drat(text)
        assert str(info.value) == "bad token %r in proof data" % token
        # the references read the token with int(): this is the one place they differ
        assert reference_parse_drat(text)
    for text in proofs[:3]:
        with pytest.raises(NonIntegerTokenError) as info:
            parse_dimacs("p cnf 2 1\n" + text)
        assert str(info.value) == "bad token %r in clause data" % token


def test_parsers_take_signed_and_zero_padded_tokens():
    text = "+1 -02 0\nd +1 -2 +0\n-1\n+2 00\n"
    assert [(s.op, s.clause.literals) for s in parse_drat(text)] == [
        (ADD, (1, -2)),
        (DELETE, (1, -2)),
        (ADD, (-1, 2)),
    ]
    assert parse_drat(text) == reference_parse_drat(text)
    cnf = "p cnf 2 2\n+1 -02 0\n-1\n+2 -0\n"
    assert parse_dimacs(cnf) == reference_parse_dimacs(cnf)


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


def test_drat_size_is_the_length_of_write_drat():
    proofs = [
        Refutation(),
        Refutation([ProofStep(DELETE, EMPTY_CLAUSE), ProofStep(ADD, EMPTY_CLAUSE)]),
        Refutation([ProofStep(ADD, Clause((-1234, 56, 7))), ProofStep(DELETE, Clause((56, 7, -1234)))]),
    ]
    proofs += [proof for *_, proof in random_proofs()]
    proofs += [proof for _, proof in rat_corpus()]
    proofs += [proof for _, proof in last_use_corpus()]  # a deletion after each last use
    proofs += [stitched_instance(seed, cl_avg=cl_avg)[1] for seed in range(1, 5) for cl_avg in (-1, 0)]
    assert sum(not s.is_add for p in proofs for s in p) > 1000
    sizes = {}  # shared by every proof, as a trim shares it between candidates
    for proof in proofs:
        text = write_drat(proof)
        assert drat_size(proof) == drat_size(proof, sizes) == len(text)
        assert drat_size(list(proof), sizes) == len(text)


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
    with pytest.raises(DuplicateVariableInCubeError) as info:
        cube_from_filename("/some/dir/1_-1.proof")
    assert str(info.value) == "variable 1 decided twice in cube [1, -1]"


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
    with pytest.raises(NonIntegerTokenError) as info:
        load_bundle(cnf, proofs)
    assert str(info.value) == "%s: bad token 'ner' in proof data" % (proofs / "2.proof")


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


def test_load_bundle_manifest_cube_errors_name_the_line(tmp_path):
    cnf = _write_instance(tmp_path)
    (tmp_path / "ok.drat").write_text("0\n")
    manifest = tmp_path / "m.icnf"
    for line, error, message in [
        ("a 1 00 0 ok.drat", NonIntegerTokenError, "bad literal '00'"),
        ("a -0 0 ok.drat", NonIntegerTokenError, "bad literal '-0'"),
        ("a 2 +0 0 ok.drat", NonIntegerTokenError, "bad literal '+0'"),
        ("a 2 x 0 ok.drat", NonIntegerTokenError, "bad literal 'x'"),
        # int() reads these as 12, -1 and 7; a literal is ASCII digits
        ("a 1_2 0 ok.drat", NonIntegerTokenError, "bad literal '1_2'"),
        ("a -\u0661 0 ok.drat", NonIntegerTokenError, "bad literal '-\u0661'"),
        ("a \uff17 0 ok.drat", NonIntegerTokenError, "bad literal '\uff17'"),
        ("a 1 -1 0 ok.drat", DuplicateVariableInCubeError, "variable 1 decided twice in cube [1, -1]"),
    ]:
        manifest.write_text("c a comment\na 3 0 ok.drat\n%s\n" % line, encoding="utf-8")
        with pytest.raises(error) as info:
            load_bundle(cnf, manifest)
        assert type(info.value) is error
        assert str(info.value) == "%s:3: %s" % (manifest, message)
    manifest.write_text("a +4 0 ok.drat\n")  # a signed literal still reads
    assert load_bundle(cnf, manifest).cubes() == (Cube((4,)),)


def test_load_bundle_cube_filename_errors_name_the_file(tmp_path):
    cnf = _write_instance(tmp_path)
    proofs = tmp_path / "proofs"
    for name, error, message in [
        ("1_-1.proof", DuplicateVariableInCubeError, "variable 1 decided twice in cube [1, -1]"),
        ("1_x.proof", BadCubeFilenameError, "bad literal 'x' in filename '1_x.proof'"),
    ]:
        # the same basename in two directories: only the full path tells them apart
        for sub in ("a", "b"):
            (proofs / sub).mkdir(parents=True, exist_ok=True)
            (proofs / sub / name).write_text("0\n")
        with pytest.raises(error) as info:
            load_bundle(cnf, proofs)
        assert str(info.value) == "%s: %s" % (proofs / "a" / name, message)
        for sub in ("a", "b"):
            (proofs / sub / name).unlink()


def _parsed(parse, data):
    """(True, what parse makes of data) in a form that compares clause
    order, literal order and counts, or (False, its error's class and
    message)."""
    try:
        result = parse(data)
    except (FormatError, UnicodeDecodeError) as exc:
        return False, (type(exc), str(exc))
    if isinstance(result, dratstitch.DimacsCnf):
        clauses = [(clause.literals, k) for clause, k in result.formula.counts()]
        return True, (clauses, result.declared_vars, result.declared_clauses, result.duplicate_literals)
    return True, [(step.op, step.clause.literals) for step in result]


def _assert_parsers_agree(data, outcomes):
    """Both parsers give their reference's result or error, on data as
    bytes and as text; counts each parse in outcomes by parser and by
    whether it succeeded."""
    forms = [data]
    if isinstance(data, bytes):
        try:
            forms.append(data.decode("utf-8"))
        except UnicodeDecodeError:
            pass
    for form in forms:
        for parse, reference in ((parse_dimacs, reference_parse_dimacs), (parse_drat, reference_parse_drat)):
            got = _parsed(parse, form)
            assert got == _parsed(reference, form), (parse.__name__, form)
            outcomes[parse.__name__, got[0]] += 1


def test_parsers_match_the_reference_on_the_bench_and_ci_inputs(tmp_path):
    workloads = bench_workloads()
    for name, workload in workloads.WORKLOADS.items():
        workloads.build_inputs(dratstitch, workload, 1, tmp_path / name, smoke=True)
    # the CI's fixtures and the files it writes by hand
    for num_vars, depth in ((20, 2), (20, 4), (24, 11)):
        argv = ["fixture", "--vars", str(num_vars), "--ratio", "4.6", "--depth", str(depth)]
        assert main(argv + ["-o", str(tmp_path / ("fx%d" % depth))]) == 0
    ci = tmp_path / "ci"
    ci.mkdir()
    for i, text in enumerate([
        "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n",
        "p cnf 2 2\n1 2 0\n-1 2 0\n",
        "d -1 2 0\n2 0\n0\n",
        "2 0\n0\n",
        "9 0\nd 7 0\n-1 0\n1 0\n0\n5 0\n",
        "d 1 2 0\n1 2 0\n0\n",
        "0\n",
    ]):
        (ci / ("%d.txt" % i)).write_text(text)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) > 2048 + 3 * 5
    outcomes = Counter()
    for path in files:
        _assert_parsers_agree(path.read_bytes(), outcomes)
    # each file is a CNF or a proof, read as bytes and as text
    assert outcomes["parse_dimacs", True] + outcomes["parse_drat", True] == 2 * len(files)


LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85")
ODD_TOKENS = ("00", "-0", "+4", "0x1", "1.5", "d", "%")


def _fuzzed_lines(rng):
    """Clause lines with the odd comment, blank line, split clause, 'd',
    '%' and token that is not a plain literal."""
    lines = []
    deletions = 0.3  # a CNF meets the odd 'd', a proof many
    if rng.random() < 0.5:
        lines.append(rng.choice(("p cnf 9 5", "p cnf 9 5", " p  cnf 3 +2 ", "p cnf 3", "p cnf x 2")))
        deletions = 0.02
    for _ in range(rng.randint(0, 10)):
        lits = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
        tokens = [str(l) for l in lits] + ["0"]
        if rng.random() < deletions:
            tokens.insert(0, "d")
        if rng.random() < 0.03:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(ODD_TOKENS))
        cut = rng.randint(1, len(tokens)) if rng.random() < 0.3 else len(tokens)
        lines.append(" ".join(tokens[:cut]))
        if rng.random() < 0.2:
            lines.append(rng.choice(("c a comment", "c", "", "   ", "%", " % ", "c 1 0")))
        if cut < len(tokens):
            lines.append(" ".join(tokens[cut:]))
    if rng.random() < 0.05:
        lines.append(" ".join(rng.choice(("1", "-2", "0")) for _ in range(3)))  # maybe unterminated
    return lines


def test_parsers_match_the_reference_on_fuzzed_texts():
    rng = random.Random(26)
    outcomes = Counter()
    for _ in range(400):
        lines = _fuzzed_lines(rng)
        for end in LINE_ENDS:
            text = end.join(lines) + rng.choice(("", end))
            for data in (text, text.encode(), text + "\xff", text.encode() + b"\xff"):
                _assert_parsers_agree(data, outcomes)
    # both results and errors were compared, plenty of each
    assert min(outcomes.values()) > 1000 and len(outcomes) == 4, outcomes


def _synthetic_proof(num_steps):
    """A proof text of num_steps random clauses, about 30% of them
    deletions of an earlier addition."""
    rng = random.Random(num_steps)
    lines = []
    added = []
    for _ in range(num_steps):
        if added and rng.random() < 0.3:
            lines.append("d " + rng.choice(added))
        else:
            lits = (rng.choice((1, -1)) * rng.randint(1, 300) for _ in range(rng.randint(1, 8)))
            added.append(" ".join(map(str, lits)) + " 0")
            lines.append(added[-1])
    return "\n".join(lines) + "\n"


def test_parsers_match_the_reference_on_texts_of_many_blocks():
    # a proof, and a CNF of its clauses, with the odd comment and clause
    # over two lines, some of them where a block of lines ends
    lines = []
    for i, line in enumerate(_synthetic_proof(4000).splitlines()):
        if i % 11 == 0:
            lines.append("c a comment")
        if i % 7 == 0:
            cut = line.index(" ") + 1
            lines += [line[:cut], line[cut:]]
        else:
            lines.append(line)
    cnf = ["p cnf 300 4000"] + [line[2:] if line.startswith("d ") else line for line in lines]
    outcomes = Counter()
    for end in LINE_ENDS:
        for text in (end.join(lines) + end, end.join(cnf) + end):
            assert len(text) > 3 * _BLOCK
            _assert_parsers_agree(text.encode(), outcomes)
    # each text is one parser's input and the other's error
    assert outcomes == Counter({(name, ok): 14 for name in ("parse_dimacs", "parse_drat") for ok in (True, False)})


@pytest.mark.parametrize("parse", [parse_drat, parse_dimacs], ids=lambda parse: parse.__name__)
def test_parsing_holds_no_list_of_the_input_tokens(tmp_path, parse):
    if parse is parse_drat:
        data = _synthetic_proof(20000).encode()
    else:
        workloads = bench_workloads()
        inputs = workloads.build_inputs(dratstitch, workloads.WORKLOADS["mono-deletions"], 7, tmp_path)
        data = inputs.cnf.read_bytes()
    gc.collect()
    tracemalloc.start()
    try:
        result = parse(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result
    assert peak < 1.3 * retained
