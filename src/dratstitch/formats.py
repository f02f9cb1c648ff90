"""Reading and writing DIMACS CNF, ASCII proof files, cube filenames, and cube manifests."""

import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .core import ADD, DELETE, Clause, Formula, Refutation, _new_set, _step


class FormatError(Exception):
    """Malformed input in any of the supported text formats."""


class MalformedHeaderError(FormatError):
    pass


class MissingTerminatorError(FormatError):
    pass


class NonIntegerTokenError(FormatError):
    pass


class BadCubeFilenameError(FormatError):
    pass


class DuplicateVariableInCubeError(FormatError):
    pass


class DuplicateCubeError(FormatError):
    pass


class UnreadableProofError(FormatError):
    pass


@contextmanager
def _in_file(path, decode_error=FormatError):
    """Re-raise a parse error of the file at path with the path in its message.

    A FormatError keeps its class; undecodable bytes become decode_error.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        raise decode_error("cannot decode %s: %s" % (path, exc)) from exc
    except FormatError as exc:
        raise type(exc)("%s: %s" % (path, exc)) from exc


# The root of a cube tree has no decision literals, so its proof cannot be
# named by the lit('_'lit)* scheme; this reserved name fills the gap.
ROOT_PROOF_NAME = "root.proof"

_CUBE_TOKEN = re.compile(r"-?[1-9][0-9]*")


@dataclass(frozen=True)
class Cube:
    """Decision literals of one sub-problem, in decision order."""

    literals: tuple

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))
        seen = set()
        for lit in self.literals:
            if lit == 0:
                raise ValueError("0 is not a decision literal")
            var = abs(lit)
            if var in seen:
                raise DuplicateVariableInCubeError(
                    "variable %d decided twice in cube %s" % (var, list(self.literals))
                )
            seen.add(var)

    @property
    def depth(self) -> int:
        return len(self.literals)

    def filename(self) -> str:
        if not self.literals:
            return ROOT_PROOF_NAME
        return "_".join(str(l) for l in self.literals) + ".proof"

    def __iter__(self):
        return iter(self.literals)

    def __repr__(self):
        return "Cube(%s)" % " ".join(str(l) for l in self.literals)


@dataclass(frozen=True)
class BundleEntry:
    cube: Cube
    refutation: Refutation
    source: str


@dataclass(frozen=True)
class ProofBundle:
    """A CNF instance plus one refutation per solved cube."""

    instance: Formula
    entries: tuple

    def cubes(self) -> tuple:
        return tuple(e.cube for e in self.entries)


# characters of text that are split into lines at once
_BLOCK = 1 << 14


def _content_lines(data):
    """Yield the lines of data that are neither blank nor comments, stripped.

    data is text or UTF-8 bytes. Bytes are decoded whole first, so that a
    decode error names its position in the file. Lines end where
    str.splitlines ends them. The text is split a block at a time, each
    block cut right after a newline, so that no list of all its lines is
    built unless it has no newline.
    """
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        for raw in text[start:end].splitlines():
            line = raw.strip()
            if line and not line.startswith("c"):
                yield line
        start = end


# an integer token as DIMACS and DRAT spell it: ASCII digits, maybe signed
_is_integer = re.compile(r"[-+]?[0-9]+", re.ASCII).fullmatch


def _clauses(lines, drat):
    """Yield (op, clause, n) for each 0-terminated clause in content lines,
    n being the number of literals read for it, duplicates included.

    A clause may span lines. A "d" at a clause boundary marks a deletion
    only when reading a proof (drat true); every other token must be an
    integer: ASCII digits with an optional sign. Literals keep their
    order; a clause drops repeats, keeping the first.

    A plain line, the usual kind, is read whole by C code: one that is
    ASCII without "_", starts at a clause boundary, and whose only token
    that reads as 0 is its last, the literal "0". Any other line, and
    the rest of its clause, is read a token at a time, which finds the
    same clauses and raises every error.
    """
    kind = "proof" if drat else "clause"
    op = ADD
    current = None  # None at a clause boundary
    for line in lines:
        # int() also reads "1_2" as 12 and digits of other scripts; of the
        # tokens of an ASCII line without "_", it takes just the integers
        plain = line.isascii() and "_" not in line
        if plain and current is None:
            toks = line.split()
            if toks.pop() == "0":
                step_op = ADD
                if drat and toks and toks[0] == "d":
                    step_op = DELETE
                    del toks[0]
                try:
                    order = tuple(map(int, toks))
                except ValueError:
                    order = None  # a bad token, or a "d" where none may be
                if order is not None:
                    clause = _new_set(Clause, order)
                    if 0 not in clause:
                        if len(clause) < len(order):
                            clause = Clause(order)
                        else:
                            clause._order = order
                        yield step_op, clause, len(order)
                        continue
        for tok in line.split():
            if current is None:
                current = []
                if drat and tok == "d":
                    op = DELETE
                    continue
                op = ADD
            try:
                if not (plain or _is_integer(tok)):
                    raise ValueError
                lit = int(tok)
            except ValueError:
                raise NonIntegerTokenError("bad token %r in %s data" % (tok, kind)) from None
            if lit:
                current.append(lit)
            else:
                yield op, Clause(current), len(current)
                current = None
    if current is not None:
        if drat:
            raise MissingTerminatorError("end of input inside a proof clause")
        raise MissingTerminatorError("end of input inside a clause: %s" % current)


@dataclass(frozen=True)
class DimacsCnf:
    formula: Formula
    declared_vars: int
    declared_clauses: int
    duplicate_literals: int  # literals dropped by in-clause deduplication


def parse_dimacs(data) -> DimacsCnf:
    """Parse DIMACS CNF text or bytes.

    The header counts are advisory and kept for diagnostics; the clause
    list is what the token stream actually contains. Duplicate literals
    inside a clause are dropped (and counted), tautologies are kept.
    Clause data ends at a line that is exactly "%", the trailer of the
    SATLIB benchmark files, which is followed by a stray "0". A clause
    may span lines and a line may hold several; a line that holds one
    whole clause is read with no call per literal (see _clauses).
    """
    lines = _content_lines(data)
    line = next(lines, None)
    if line is None:
        raise MalformedHeaderError("no 'p cnf' header found")
    parts = line.split()
    if parts[0] != "p" or len(parts) != 4 or parts[1] != "cnf":
        raise MalformedHeaderError("expected 'p cnf <vars> <clauses>', got: %s" % line)
    try:
        header = (int(parts[2]), int(parts[3]))
    except ValueError:
        raise MalformedHeaderError("non-numeric header counts: %s" % line) from None

    clauses = []
    dupes = 0
    body = itertools.takewhile(lambda text: text != "%", lines)
    for _, clause, read in _clauses(body, drat=False):
        dupes += read - len(clause)
        clauses.append(clause)
    return DimacsCnf(Formula(clauses), header[0], header[1], dupes)


def write_dimacs(formula: Formula, declared_vars=None) -> str:
    if declared_vars is None:
        declared_vars = max((abs(l) for c in formula.distinct() for l in c.literals), default=0)
    lines = ["p cnf %d %d" % (declared_vars, len(formula))]
    for clause, k in formula.counts():
        line = _clause_line(clause)
        for _ in range(k):
            lines.append(line)
    return "\n".join(lines) + "\n"


def _clause_line(clause: Clause, prefix: str = "") -> str:
    if clause.literals:
        return prefix + " ".join(map(str, clause.literals)) + " 0"
    return prefix + "0"


def parse_drat(data) -> Refutation:
    """Parse an ASCII proof: 0-terminated clauses, deletions prefixed with 'd'.

    data is text or UTF-8 bytes. A clause may span lines and a line may
    hold several; comment and blank lines are skipped. Each step is
    built straight from its line when the line holds one whole clause
    (see _clauses), with no call per literal.
    """
    steps = _clauses(_content_lines(data), drat=True)
    return Refutation([_step(op, clause) for op, clause, _ in steps])


def write_drat(refutation: Refutation) -> str:
    lines = []
    for op, clause in refutation:
        lines.append(_clause_line(clause, "" if op == ADD else "d "))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def drat_size(refutation, sizes=None) -> int:
    """len(write_drat(refutation)), without writing it.

    refutation may be any sequence of proof steps. sizes, when given,
    maps a clause value to the bytes of its line as an addition, newline
    included; lines it lacks are measured and added to it, so the sizes
    of proofs that share clauses measure each clause once. A line's
    length does not depend on the order of its literals. A line is
    measured as it is written, joined by C code, not literal by literal.
    """
    if sizes is None:
        sizes = {}
    total = 0
    for op, clause in refutation:
        n = sizes.get(clause)
        if n is None:
            lits = clause.literals
            # the literals, spaced, then " 0" or "0" and the newline
            n = sizes[clause] = len(" ".join(map(str, lits))) + (3 if lits else 2)
        total += n if op == ADD else n + 2  # "d "
    return total


def cube_from_filename(name) -> Cube:
    """Decode decision literals from a proof filename like '1_-2.proof'."""
    base = Path(name).name
    if base == ROOT_PROOF_NAME:
        return Cube(())
    if not base.endswith(".proof"):
        raise BadCubeFilenameError("proof filename must end in .proof: %r" % base)
    stem = base[: -len(".proof")]
    if not stem:
        raise BadCubeFilenameError("no decision literals in filename %r" % base)
    literals = []
    for tok in stem.split("_"):
        if not _CUBE_TOKEN.fullmatch(tok):
            raise BadCubeFilenameError("bad literal %r in filename %r" % (tok, base))
        literals.append(int(tok))
    return Cube(tuple(literals))


def load_bundle(cnf_path, proof_source) -> ProofBundle:
    """Load a CNF and its per-cube proofs.

    proof_source is either a directory scanned recursively for *.proof
    files (cubes are read from basenames) or a manifest file whose lines
    are 'a <lit> ... 0 <proof-path>' with paths relative to the manifest.
    """
    instance = _read_cnf(Path(cnf_path))
    src = Path(proof_source)
    cubes = _cubes_in_dir(src) if src.is_dir() else _cubes_in_manifest(src)
    entries = [BundleEntry(cube, _read_proof(path), str(path)) for cube, path in cubes]
    if not entries:  # an empty directory has failed already
        raise FormatError("no cube lines found in %s" % src)
    seen = {}
    for entry in entries:
        key = entry.cube.literals
        if key in seen:
            raise DuplicateCubeError(
                "cube %r appears twice: %s and %s" % (entry.cube, seen[key], entry.source)
            )
        seen[key] = entry.source
    return ProofBundle(instance, tuple(entries))


def _read_cnf(path) -> Formula:
    """The formula of the DIMACS file at path; errors name the path as given."""
    data = Path(path).read_bytes()
    with _in_file(path):
        return parse_dimacs(data).formula


def _read_proof(path) -> Refutation:
    """The ASCII proof at path; errors name the path as given."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UnreadableProofError("cannot read %s: %s" % (path, exc)) from exc
    with _in_file(path, UnreadableProofError):
        return parse_drat(data)


def _cubes_in_dir(directory: Path):
    """Yield (cube, path) for each .proof file under directory, in path order."""
    paths = sorted(p for p in directory.rglob("*.proof") if p.is_file())
    if not paths:
        raise FormatError("no .proof files found under %s" % directory)
    for p in paths:
        with _in_file(p):
            cube = cube_from_filename(p.name)
        yield cube, p


def _cubes_in_manifest(path: Path):
    """Yield (cube, proof path) for each cube line of the manifest at path."""
    base = path.parent
    data = path.read_bytes()
    with _in_file(path):
        text = data.decode("utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("p"):
            continue
        with _in_file("%s:%d" % (path, lineno)):
            tokens = line.split()
            if tokens[0] != "a":
                raise FormatError("cube lines start with 'a'")
            try:
                zero = tokens.index("0", 1)
            except ValueError:
                raise MissingTerminatorError("cube line lacks a 0 terminator") from None
            literals = []
            for tok in tokens[1:zero]:
                try:
                    lit = int(tok)
                except ValueError:
                    lit = 0
                if not lit:  # "00" or "-0" is no more a decision literal than "x"
                    raise NonIntegerTokenError("bad literal %r" % tok)
                literals.append(lit)
            rest = tokens[zero + 1 :]
            if len(rest) != 1:
                raise FormatError("expected one proof path after the 0")
            cube = Cube(tuple(literals))
        yield cube, base / rest[0]
