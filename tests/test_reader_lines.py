"""The two ways formats._clauses reads a line give the same clauses.

A plain line (ASCII, no "_", starting at a clause boundary, its only
zero token the final "0") is read whole with map(int, ...) and turned
into one clause without a call per literal; every other line, and the
rest of its clause, goes token by token. These tests read each text
both ways, the second time with every line forced onto the token path,
and require the same steps, literal orders and duplicate counts, or the
same exception class and message, the file's path included where the
bundle and CLI readers name it.
"""

import random

import pytest

from dratstitch import (
    Clause,
    FormatError,
    core,
    formats,
    parse_dimacs,
    parse_drat,
)
from dratstitch.formats import _BLOCK, _read_cnf, _read_proof


class _TokenLine(str):
    """A content line that _clauses may not read as a plain line.

    Only a plain line is read whole; a line that is not ASCII is read a
    token at a time, each token checked as ASCII digits before int()
    reads it, which for an ASCII line accepts exactly the tokens int()
    does. So this changes the path, not the outcome.
    """

    __slots__ = ()

    def isascii(self):
        return False


@pytest.fixture
def token_path(monkeypatch):
    """Run a reader with every content line forced onto the token path."""
    content_lines = formats._content_lines

    def run(read, *args):
        with monkeypatch.context() as m:
            m.setattr(formats, "_content_lines", lambda data: map(_TokenLine, content_lines(data)))
            return read(*args)

    return run


def _outcome(read, *args):
    """What read makes of args, in a form that compares step order, ops,
    literal order and DIMACS counts, or its error's class and message."""
    try:
        result = read(*args)
    except (FormatError, UnicodeDecodeError) as exc:
        return False, type(exc), str(exc)
    if isinstance(result, formats.DimacsCnf):
        clauses = [(clause.literals, k) for clause, k in result.formula.counts()]
        return True, clauses, result.declared_vars, result.declared_clauses, result.duplicate_literals
    if isinstance(result, core.Formula):
        return True, [(clause.literals, k) for clause, k in result.counts()]
    for step in result:
        assert type(step.clause) is Clause and step.clause == frozenset(step.clause.literals)
    return True, [(step.op, step.clause.literals) for step in result]


def _assert_same(token_path, text):
    """Both parsers read text, as text and as bytes, the same both ways."""
    outcomes = []
    for data in (text, text.encode("utf-8")):
        for parse in (parse_drat, parse_dimacs):
            got = _outcome(parse, data)
            assert got == token_path(_outcome, parse, data), (parse.__name__, data)
            outcomes.append(got)
    return outcomes


HAND_TEXTS = {
    "clauses spanning lines": "1 -2\n3 0\n-1\n0\n",
    "several clauses on a line": "1 2 0 -1 0 d 1 2 0 0\n",
    "d at a line's end": "1 2 0 d\n1 2 0\n0\n",
    "d alone on a line": "d\n-3 0\n",
    "d deleting the empty clause": "d 0\n0\n",
    "comments and blank lines": "c x\n\n  \n1 0\nc 1 0\n-1 0\n\n0\n",
    "CRLF line ends": "1 -2 0\r\nd 1 -2 0\r\n\r\nc y\r\n0\r\n",
    "signed and padded tokens": "+5 -3 0\n+0\n00 0\n5 -0\n007 -007 0\n",
    "huge literals": "%d %d 0\n-%d 0\n0\n" % (2**70, -(2**65), 2**70),
    "duplicate literals": "3 3 -1 3 0\nd 3 -1 -1 0\n-1 -1 0\n",
    "a zero token before the end": "1 00 2 0\n-0 0\n",
    "non-ASCII digits": "1 ١ 0\n0\n",
    "an underscore": "1 0\n1_2 0\n0\n",
    "a bad token after plain lines": "1 0\n2 0\n1 x 0\n0\n",
    "a deletion marker inside a clause": "1 d 2 0\n",
    "a d in a CNF": "1 0\nd 1 0\n",
    "a missing final 0": "1 2 0\n-1 2",
    "a final line that is not plain": "1 0\n2 -3",
    "only a comment": "c nothing\n",
    "empty": "",
}


@pytest.mark.parametrize("text", list(HAND_TEXTS.values()), ids=list(HAND_TEXTS))
def test_hand_written_texts_read_the_same_both_ways(token_path, text):
    _assert_same(token_path, text)
    _assert_same(token_path, "p cnf 9 9\n" + text)


def _random_text(rng):
    """A text of clause lines with the odd comment, split clause, clause
    sharing a line, duplicate literal, odd token and line end."""
    lines = []
    if rng.random() < 0.5:
        lines.append("p cnf 9 5")
    for _ in range(rng.randint(0, 12)):
        lits = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 5))]
        tokens = [rng.choice(("%d", "%+d", "0%d")) % l if l > 0 else str(l) for l in lits]
        tokens.append(rng.choice(("0", "0", "0", "00", "-0")))
        if rng.random() < 0.3:
            tokens.insert(0, "d")
        if rng.random() < 0.05:
            odd = ("x", "1_2", "٣", "d", "0", "%")
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(odd))
        if lines and rng.random() < 0.2:
            lines[-1] += " " + " ".join(tokens)  # shares a line with the clause before
            continue
        cut = rng.randint(1, len(tokens)) if rng.random() < 0.2 else len(tokens)
        lines.append(" ".join(tokens[:cut]))
        if rng.random() < 0.15:
            lines.append(rng.choice(("c note", "", "   ", "c 1 0")))
        if cut < len(tokens):
            lines.append(" ".join(tokens[cut:]))
    if rng.random() < 0.1:
        lines.append(rng.choice(("1", "-2 3", "d")))  # an unterminated clause
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(lines) + rng.choice(("", end))


def test_generated_texts_read_the_same_both_ways(token_path):
    rng = random.Random(30)
    read = errors = 0
    for _ in range(500):
        for ok, *_ in _assert_same(token_path, _random_text(rng)):
            read += ok
            errors += not ok
    # both results and errors were compared, plenty of each
    assert read > 300 and errors > 300, (read, errors)


def test_a_proof_of_many_blocks_reads_the_same_both_ways(token_path):
    rng = random.Random(31)
    lines = []
    while sum(map(len, lines)) < 3 * _BLOCK:
        lits = " ".join(str(rng.choice((1, -1)) * rng.randint(1, 300)) for _ in range(rng.randint(0, 8)))
        line = (lits + " 0").lstrip()
        lines.append("d " + line if rng.random() < 0.3 else line)
        if rng.random() < 0.05:
            lines.append("c comment")
    text = "\n".join(lines) + "\n"
    read = _assert_same(token_path, text)
    failed = _assert_same(token_path, text + "1 x 0\n")
    assert read[0][0] and len(read[0][1]) == len(lines) - text.count("c comment")
    assert failed[0][1:] == (formats.NonIntegerTokenError, "bad token 'x' in proof data")


def test_read_errors_name_the_file_the_same_both_ways(token_path, tmp_path):
    for i, text in enumerate(HAND_TEXTS.values()):
        proof = tmp_path / ("%d.drat" % i)
        proof.write_text(text)
        cnf = tmp_path / ("%d.cnf" % i)
        cnf.write_text("p cnf 9 9\n" + text)
        for read, path in ((_read_proof, proof), (_read_cnf, cnf)):
            got = _outcome(read, path)
            assert got == token_path(_outcome, read, path), (read.__name__, text)
            if not got[0]:
                assert got[2].startswith(str(path) + ": ")


def test_plain_lines_build_no_clause_through_the_constructor(monkeypatch):
    built = []
    new = Clause.__new__

    def counted(cls, literals=()):
        built.append(literals)
        return new(cls, literals)

    monkeypatch.setattr(Clause, "__new__", counted)
    proof = parse_drat("1 -2 0\nd 1 -2 0\n0\n-3 4\n0\n")
    assert [step.clause.literals for step in proof] == [(1, -2), (1, -2), (), (-3, 4)]
    assert built == [[-3, 4]]  # the one clause that spans lines
    cnf = parse_dimacs("p cnf 4 2\n1 -2 0\n3 3 0\n")
    assert built == [[-3, 4], (3, 3)]  # and the one with a duplicate
    assert cnf.duplicate_literals == 1
