"""Seeded inputs for the three benchmark workloads.

Each workload has a fixed *shape*: instance size, split depth and a
window on the size of its proof. Its base instance is the first draw from
the shape's own generator seed that is unsatisfiable (every cube solved,
redrawn if any cube is satisfiable or runs out of conflicts) and whose
proof falls in the window. The run's ``--seed`` then makes an isomorphic
copy of that base: variables are permuted, polarities flipped (except on
decision variables) and the literals inside each input clause
reordered, with the proofs renamed to match.

Why a renamed base and not a fresh random instance per seed: on the
120-variable shape, two random instances with proofs of nearly equal
length (2232 and 2379 leaf steps) stitched in 5.2 s and 7.2 s on a
2-core machine, a 38% gap that step and propagation counts do not
explain. A fresh instance per seed would let the seed, not the code, set
the run-to-run spread. A renamed copy does the same logical work, yet
every byte of the input and the hash of every clause change with the
seed, so no run can reuse another's inputs. The order of the input
clauses is kept: it decides which conflict the checker meets first, and
with it how many passes a trim takes to reach its fixpoint. Shuffled,
mono-deletions made 8 replays per operation on some seeds and 10 on
others.

Why these shapes:

- ``stitch-verify`` (120 vars, 552 clauses, depth 7, 128 cubes): the
  deepest tree of the three; the bundled solver refutes its 128 small
  cubes in about 0.3 s. At the default ``cl_avg=-1`` nothing is trimmed,
  so the checker (root verify plus 128 leaf checks) does nearly all the
  work. This is the bypass case for changes that only touch the trimmer.
- ``stitch-trim`` (100 vars, 460 clauses, depth 5, 32 cubes): the W100
  shape of the ROADMAP starting point, stitched at ``cl_avg=0`` so every
  one of the 31 merges is trimmed. The trimmer and its replays dominate.
- ``mono-deletions`` (90 vars, 414 clauses, no split): a monolithic
  ``solve_drup`` proof with a deletion placed after each lemma's last use.
  It drives the checker's delete path (removal plus closure rebuild),
  which add-only proofs never reach, and then ``trim --emit-core``.

The proof-size windows keep one operation at a few seconds, so a run of
the benchmark's length holds several operations per workload.
"""

import random
import shutil
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    num_vars: int
    num_clauses: int
    depth: int  # 0: one monolithic proof, no cubes
    steps_lo: int  # window on total proof steps (all leaves together)
    steps_hi: int
    base_seed: int
    max_conflicts: int = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    smoke: Shape
    stitch_args: tuple  # extra stitch flags; None for the check/trim workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stitch-verify",
            Shape(120, 552, 7, 1300, 1600, base_seed=3),
            Shape(40, 184, 3, 40, 400, base_seed=1),
            (),
        ),
        Workload(
            "stitch-trim",
            Shape(100, 460, 5, 800, 1000, base_seed=0),
            Shape(36, 166, 2, 20, 300, base_seed=2),
            ("--cl-avg", "0"),
        ),
        Workload(
            "mono-deletions",
            Shape(90, 414, 0, 1200, 1500, base_seed=0, max_conflicts=100000),
            Shape(30, 138, 0, 20, 300, base_seed=3),
            None,
        ),
    )
}

MAX_DRAWS = 200


class DrawError(Exception):
    """No draw of the shape met its conditions within MAX_DRAWS attempts."""


@dataclass(frozen=True)
class Base:
    """An unsatisfiable instance and its proofs, as plain literal lists."""

    num_vars: int
    clauses: list  # [[lit, ...], ...]
    leaves: list  # [(cube literals, [(op, [lit, ...]), ...]), ...]; one entry, cube () when unsplit


def random_3cnf(num_vars, num_clauses, rng):
    """Uniform random 3-CNF: three distinct variables per clause, random signs."""
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def draw_base(ds, shape):
    """The shape's base instance: its first qualifying draw.

    ds is the imported dratstitch package; solving and splitting use its
    harness, which is why set-up time moves with the solver.
    """
    for attempt in range(MAX_DRAWS):
        rng = random.Random("%d:%d" % (shape.base_seed, attempt))
        clauses = random_3cnf(shape.num_vars, shape.num_clauses, rng)
        base = _solve(ds, shape, clauses)
        if base is not None:
            return base
    raise DrawError("no qualifying instance for %r in %d draws" % (shape, MAX_DRAWS))


def _solve(ds, shape, clauses):
    formula = ds.Formula(ds.Clause(c) for c in clauses)
    cubes = [c.literals for c in ds.split(formula, shape.depth)] if shape.depth else [()]
    leaves = []
    total = 0
    for i, cube in enumerate(cubes):
        sub = formula
        for lit in cube:
            sub = sub.add(ds.Clause((lit,)))
        try:
            outcome = ds.solve_drup(sub, seed=i, max_conflicts=shape.max_conflicts)
        except ds.ResourceLimitError:
            return None
        if outcome.sat:
            return None  # the instance is satisfiable: redraw
        steps = [(s.op, list(s.clause.literals)) for s in outcome.refutation]
        total += len(steps)
        if total > shape.steps_hi:
            return None
        leaves.append((tuple(cube), steps))
    if total < shape.steps_lo:
        return None
    return Base(shape.num_vars, clauses, leaves)


def with_last_use_deletions(ds, base):
    """Delete every lemma right after the last step whose check used it.

    Uses come from annotate_refutation's ``used``. A deletion placed after
    a clause's last use keeps every later check's derivation intact, so
    the proof stays valid, also under --strict.
    """
    (cube, steps), = base.leaves
    formula = ds.Formula(ds.Clause(c) for c in base.clauses)
    proof = ds.Refutation(ds.ProofStep(op, ds.Clause(lits)) for op, lits in steps)
    _, annotations = ds.annotate_refutation(formula, proof)
    inputs = set(formula.distinct())
    last = {}  # lemma value -> index of its last use (or of its addition)
    for sv in annotations:
        if sv.op == ds.ADD and sv.clause not in inputs:
            last.setdefault(sv.clause, sv.index)
        for value in sv.used:
            if value in last:
                last[value] = sv.index
    after = {}
    for value, index in last.items():
        if index < len(steps):  # nothing follows the final empty clause
            after.setdefault(index, []).append(list(value.literals))
    out = []
    for index, step in enumerate(steps, 1):
        out.append(step)
        out.extend(("d", lits) for lits in after.get(index, ()))
    return Base(base.num_vars, base.clauses, [(cube, out)])


def renamed(base, seed):
    """An isomorphic copy of base, chosen by seed."""
    rng = random.Random("rename:%d" % seed)
    image = list(range(1, base.num_vars + 1))
    rng.shuffle(image)
    # decision variables keep their polarity: stitch puts the positive
    # branch first, so a flip would reorder the merged proof
    decided = {abs(l) for cube, _ in base.leaves for l in cube}
    table = {}
    for v, w in zip(range(1, base.num_vars + 1), image):
        table[v] = -w if v not in decided and rng.random() < 0.5 else w

    def lit(l):
        return table[l] if l > 0 else -table[-l]

    clauses = []
    for c in base.clauses:
        c = [lit(l) for l in c]
        rng.shuffle(c)
        clauses.append(c)
    # proof literals keep their order: the first one is the RAT pivot
    leaves = [
        (tuple(lit(l) for l in cube), [(op, [lit(l) for l in lits]) for op, lits in steps])
        for cube, steps in base.leaves
    ]
    return Base(base.num_vars, clauses, leaves)


def dimacs(num_vars, clauses):
    lines = ["p cnf %d %d" % (num_vars, len(clauses))]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def drat(steps):
    return "".join(
        ("d " if op == "d" else "") + "".join("%d " % l for l in lits) + "0\n" for op, lits in steps
    )


def cube_filename(cube):
    return "_".join(map(str, cube)) + ".proof"


@dataclass(frozen=True)
class Inputs:
    """Files of one workload in one run, plus the answers they must produce."""

    cnf: Path
    proofs: Path  # cube proof directory (stitch) or the proof file (mono)
    steps: int  # input proof steps: all leaves together, or the one proof
    merges: int  # inner nodes of the cube tree; 0 when unsplit
    probe_cnf: Path  # instance the known-invalid probes are checked against
    probe_missing_empty: Path  # probe proof without its final empty clause
    probe_bogus_delete: Path  # probe proof deleting a clause before it exists
    bogus_delete_step: int  # 1-based step at which --strict must fail


def build_inputs(ds, workload, seed, directory, smoke=False):
    """Draw, rename and write a workload's inputs into directory."""
    shape = workload.smoke if smoke else workload.shape
    base = draw_base(ds, shape)
    if not shape.depth:
        base = with_last_use_deletions(ds, base)
    base = renamed(base, seed)

    directory = Path(directory)
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    cnf = directory / "instance.cnf"
    cnf.write_text(dimacs(base.num_vars, base.clauses))
    if shape.depth:
        proofs = directory / "proofs"
        proofs.mkdir()
        for cube, steps in base.leaves:
            (proofs / cube_filename(cube)).write_text(drat(steps))
    else:
        proofs = directory / "proof.drat"
        proofs.write_text(drat(base.leaves[0][1]))

    # probes run on the longest leaf, whose instance carries its cube as units
    cube, steps = max(base.leaves, key=lambda leaf: len(leaf[1]))
    probe_cnf = directory / "probe.cnf"
    probe_cnf.write_text(dimacs(base.num_vars, base.clauses + [[l] for l in cube]))
    missing_empty = directory / "probe_missing_empty.drat"
    assert steps[-1] == ("a", []), "a refutation ends with the empty clause"
    missing_empty.write_text(drat(steps[:-1]))
    bogus_at, bogus_lits = _bogus_deletion(base.clauses, steps)
    bogus = directory / "probe_bogus_delete.drat"
    bogus.write_text(drat(steps[:bogus_at] + [("d", bogus_lits)] + steps[bogus_at:]))

    return Inputs(
        cnf=cnf,
        proofs=proofs,
        steps=sum(len(s) for _, s in base.leaves),
        merges=len(base.leaves) - 1,
        probe_cnf=probe_cnf,
        probe_missing_empty=missing_empty,
        probe_bogus_delete=bogus,
        bogus_delete_step=bogus_at + 1,
    )


def _bogus_deletion(clauses, steps):
    """Where to delete which clause so that it is absent at that point.

    Picks the middle of the proof and a lemma added only later, whose
    clause is neither an input clause nor an earlier lemma.
    """
    present = {frozenset(c) for c in clauses}
    mid = len(steps) // 2
    for op, lits in steps[:mid]:
        if op == "a":
            present.add(frozenset(lits))
    for op, lits in steps[mid:]:
        if op == "a" and lits and frozenset(lits) not in present:
            return mid, lits
    raise DrawError("no lemma after the middle of the probe proof is new")
