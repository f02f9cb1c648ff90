"""
Shrinking a proof to what its conflicts actually used
=====================================================

Merged proofs carry dead weight: lifted steps that no later conflict
depends on. Trimming replays the proof, marks the useful steps
backwards from the final empty clause, and drops the rest.
"""

import time

from dratstitch import (
    STRICT,
    BundleEntry,
    Clause,
    ProofBundle,
    build_cube_tree,
    check_refutation,
    combine_all,
    gen_random_unsat,
    solve_drup,
    split,
    trim,
    write_drat,
)

formula = gen_random_unsat(16, 5.0, seed=21)
entries = []
for i, cube in enumerate(split(formula, 3)):
    sub = formula
    for lit in cube:
        sub = sub.add(Clause((lit,)))
    entries.append(BundleEntry(cube, solve_drup(sub, seed=i).refutation, cube.filename()))
bundle = ProofBundle(formula, tuple(entries))
tree = build_cube_tree(bundle)

# cl_avg=-1 never trims, so this is the raw merge.
raw = combine_all(formula, tree, cl_avg=-1)
print("raw merge: %d steps, %d bytes" % (len(raw), len(write_drat(raw))))

# Trimming keeps validity and never grows the proof.
trimmed, report = trim(formula, raw)
print("trimmed: %d steps, %d bytes, %.1f ms"
      % (report.output_steps, report.output_bytes, report.wall_time * 1000))
assert check_refutation(formula, trimmed, mode=STRICT).valid
assert len(trimmed) <= len(raw)

# The same marking pass tells which original clauses the proof needs.
core = report.core
print("core: %d of %d clauses" % (len(core), len(formula)))
assert check_refutation(core, trimmed, mode=STRICT).valid

# Smaller proofs are cheaper to re-check.
start = time.perf_counter()
check_refutation(formula, raw, mode=STRICT)
t_raw = time.perf_counter() - start
start = time.perf_counter()
check_refutation(formula, trimmed, mode=STRICT)
t_trimmed = time.perf_counter() - start
print("check: %.2f ms raw vs %.2f ms trimmed" % (t_raw * 1000, t_trimmed * 1000))

# The threshold knob does the same thing inside the merge itself:
# cl_avg=0 trims after every join.
eager = combine_all(formula, tree, cl_avg=0)
print("eager merge: %d steps" % len(eager))
assert check_refutation(formula, eager, mode=STRICT).valid
