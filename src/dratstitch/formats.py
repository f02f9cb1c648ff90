"""Reading and writing DIMACS CNF, ASCII proof files, cube filenames, and cube manifests."""

import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .core import ADD, DELETE, Clause, Formula, ProofStep, Refutation


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


def _text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        return data.decode("utf-8")
    return data


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield line


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
    """
    text = _text(data)
    header = None
    tokens = []
    for line in _content_lines(text):
        if header is None:
            parts = line.split()
            if parts[0] != "p" or len(parts) != 4 or parts[1] != "cnf":
                raise MalformedHeaderError("expected 'p cnf <vars> <clauses>', got: %s" % line)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise MalformedHeaderError("non-numeric header counts: %s" % line) from None
            continue
        tokens.extend(line.split())
    if header is None:
        raise MalformedHeaderError("no 'p cnf' header found")

    clauses = []
    dupes = 0
    current = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise NonIntegerTokenError("bad token %r in clause data" % tok) from None
        if lit == 0:
            clause = Clause(current)
            dupes += len(current) - len(clause)
            clauses.append(clause)
            current = []
        else:
            current.append(lit)
    if current:
        raise MissingTerminatorError("end of input inside a clause: %s" % current)
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
        return prefix + " ".join(str(l) for l in clause.literals) + " 0"
    return prefix + "0"


def parse_drat(data) -> Refutation:
    """Parse an ASCII proof: 0-terminated clauses, deletions prefixed with 'd'."""
    text = _text(data)
    tokens = []
    for line in _content_lines(text):
        tokens.extend(line.split())

    steps = []
    op = ADD
    current = None  # None means we are at a clause boundary
    for tok in tokens:
        if current is None:
            if tok == "d":
                op = DELETE
                current = []
                continue
            op = ADD
            current = []
        try:
            lit = int(tok)
        except ValueError:
            raise NonIntegerTokenError("bad token %r in proof data" % tok) from None
        if lit == 0:
            steps.append(ProofStep(op, Clause(current)))
            current = None
        else:
            current.append(lit)
    if current is not None:
        raise MissingTerminatorError("end of input inside a proof clause")
    return Refutation(steps)


def write_drat(refutation: Refutation) -> str:
    lines = []
    for step in refutation:
        prefix = "" if step.is_add else "d "
        lines.append(_clause_line(step.clause, prefix))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


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
    cnf_path = Path(cnf_path)
    src = Path(proof_source)
    data = cnf_path.read_bytes()
    with _in_file(cnf_path):
        cnf = parse_dimacs(data)
    if src.is_dir():
        entries = _entries_from_dir(src)
    else:
        entries = _entries_from_manifest(src)

    seen = {}
    for entry in entries:
        key = entry.cube.literals
        if key in seen:
            raise DuplicateCubeError(
                "cube %r appears twice: %s and %s" % (entry.cube, seen[key], entry.source)
            )
        seen[key] = entry.source
    return ProofBundle(cnf.formula, tuple(entries))


def _read_proof(path: Path) -> Refutation:
    try:
        return parse_drat(path.read_bytes())
    except OSError as exc:
        raise UnreadableProofError("cannot read %s: %s" % (path, exc)) from exc
    except (FormatError, UnicodeDecodeError) as exc:
        raise UnreadableProofError("cannot parse %s: %s" % (path, exc)) from exc


def _entries_from_dir(directory: Path):
    paths = sorted(p for p in directory.rglob("*.proof") if p.is_file())
    if not paths:
        raise FormatError("no .proof files found under %s" % directory)
    return [BundleEntry(cube_from_filename(p.name), _read_proof(p), str(p)) for p in paths]


def _entries_from_manifest(path: Path):
    entries = []
    base = path.parent
    try:
        text = _text(path.read_bytes())
    except UnicodeDecodeError as exc:
        raise FormatError("cannot decode %s: %s" % (path, exc)) from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("p"):
            continue
        tokens = line.split()
        if tokens[0] != "a":
            raise FormatError("%s:%d: cube lines start with 'a'" % (path, lineno))
        try:
            zero = tokens.index("0", 1)
        except ValueError:
            raise MissingTerminatorError("%s:%d: cube line lacks a 0 terminator" % (path, lineno)) from None
        literals = []
        for tok in tokens[1:zero]:
            try:
                literals.append(int(tok))
            except ValueError:
                raise NonIntegerTokenError("%s:%d: bad literal %r" % (path, lineno, tok)) from None
        rest = tokens[zero + 1 :]
        if len(rest) != 1:
            raise FormatError("%s:%d: expected one proof path after the 0" % (path, lineno))
        cube = Cube(tuple(literals))
        proof_path = base / rest[0]
        entries.append(BundleEntry(cube, _read_proof(proof_path), str(proof_path)))
    if not entries:
        raise FormatError("no cube lines found in %s" % path)
    return entries
