"""Command-line front end: stitch, check, trim, solve, split, fixture.

Reports go to stdout as key=value lines; diagnostics go to stderr.
Exit codes: 0 success, 1 semantic failure (invalid proof, bad cube set,
budget exhausted), 2 I/O or format trouble.
"""

import argparse
import logging
import os
import sys
import time
from pathlib import Path

from . import checker, formats, harness, stitcher, trimmer
from .core import Clause, Formula

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_IO = 2

_SEMANTIC_ERRORS = (
    stitcher.IncompletePartitionError,
    stitcher.MissingSiblingError,
    stitcher.InconsistentDecisionOrderError,
    stitcher.InvalidSubProofError,
    stitcher.NonPreservingInputError,
    trimmer.InvalidProofError,
    trimmer.TrimInternalError,
    harness.ResourceLimitError,
    harness.DepthTooLargeError,
    harness.GiveUpError,
)


def _mode(args):
    return checker.STRICT if args.strict else checker.PERMISSIVE


def _add_mode_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--strict",
        action="store_true",
        help="fail on deletions of absent clauses",
    )
    group.add_argument(
        "--permissive",
        action="store_true",
        help="skip deletions of absent clauses with a warning (default)",
    )


def _print_check(report, label="verdict"):
    if report.valid:
        print(
            "%s=valid steps_checked=%d propagations=%d check_ms=%.1f"
            % (label, report.steps_checked, report.propagations, report.wall_time * 1000)
        )
    else:
        print(
            "%s=invalid failing_step=%s reason=%s steps_checked=%d check_ms=%.1f"
            % (label, report.failing_step, report.reason, report.steps_checked, report.wall_time * 1000)
        )


def cmd_stitch(args):
    bundle = formats.load_bundle(args.cnf, args.proofs)
    mode = _mode(args)

    if args.strip_deletions:
        entries = tuple(
            formats.BundleEntry(e.cube, stitcher.strip_deletions(e.refutation), e.source)
            for e in bundle.entries
        )
        bundle = formats.ProofBundle(bundle.instance, entries)

    tree = stitcher.build_cube_tree(bundle)
    records = []
    combined = stitcher.combine_all(
        bundle.instance,
        tree,
        cl_avg=args.cl_avg,
        # a proof we rewrote is judged by the leaf check alone
        validate=args.strip_deletions or not args.trust_subproofs,
        mode=mode,
        on_record=records.append,
    )
    # the proof reaches -o only once it passed its verify, if any; a
    # symlink at -o is followed, so that its target gets the proof
    output = Path(os.path.realpath(args.output))
    written = output.with_name(".%s.%d.tmp" % (output.name, os.getpid()))
    try:
        try:
            written.write_text(formats.write_drat(combined))
        except OSError as exc:
            exc.filename = args.output  # name -o, not the temporary file
            raise
        by_depth = {}
        for record in records:
            by_depth.setdefault(record.depth, []).append(record)
        for depth in sorted(by_depth, reverse=True):
            level = by_depth[depth]
            print(
                "level=%d stitched=%d trimmed=%d merge_ms=%.1f trim_ms=%.1f"
                % (
                    depth,
                    len(level),
                    sum(1 for r in level if r.trimmed),
                    sum(r.merge_seconds for r in level) * 1000,
                    sum(r.trim_seconds for r in level) * 1000,
                )
            )
        print("steps=%d output=%s" % (len(combined), args.output))
        if not args.no_verify:
            # hints are None when no leaf was replayed (--trust-subproofs at
            # --cl-avg -1); the proof is then replayed
            report = checker.check_refutation(
                bundle.instance, combined, mode=mode, hints=combined.hints
            )
            if not report.valid and combined.hints is not None:
                # hints that fall short reject a valid proof; only a replay
                # tells that apart from an invalid one
                log.warning("root hints: %s; replaying the proof in full", report.failure_text())
                report = checker.check_refutation(bundle.instance, combined, mode=mode)
            _print_check(report, label="verify")
            if not report.valid:
                print("error: stitched output failed verification", file=sys.stderr)
                return EXIT_SEMANTIC
        os.replace(written, output)
    finally:
        written.unlink(missing_ok=True)
    return EXIT_OK


def cmd_check(args):
    formula = formats._read_cnf(args.cnf)
    proof = formats._read_proof(args.drat)
    report = checker.check_refutation(formula, proof, mode=_mode(args))
    _print_check(report)
    return EXIT_OK if report.valid else EXIT_SEMANTIC


def cmd_trim(args):
    formula = formats._read_cnf(args.cnf)
    proof = formats._read_proof(args.drat)
    trimmed, report = trimmer.trim(
        formula,
        proof,
        mode=_mode(args),
        resynthesize_deletions=not args.no_deletions,
    )
    Path(args.output).write_text(formats.write_drat(trimmed))
    print(
        "input_steps=%d output_steps=%d input_bytes=%d output_bytes=%d "
        "core_clauses=%d trim_ms=%.1f"
        % (
            report.input_steps,
            report.output_steps,
            report.input_bytes,
            report.output_bytes,
            report.core_clauses,
            report.wall_time * 1000,
        )
    )
    print("output=%s" % args.output)
    if args.emit_core:
        Path(args.emit_core).write_text(formats.write_dimacs(report.core))
        print("core=%s" % args.emit_core)
    return EXIT_OK


def cmd_solve(args):
    formula = formats._read_cnf(args.cnf)
    outcome = harness.solve_drup(formula, seed=args.seed, max_conflicts=args.max_conflicts)
    if outcome.sat:
        print("result=sat")
        lits = [v if outcome.assignment[v] else -v for v in sorted(outcome.assignment)]
        print("assignment=%s" % " ".join(str(l) for l in lits))
    else:
        print("result=unsat")
        if args.output:
            Path(args.output).write_text(formats.write_drat(outcome.refutation))
            print("output=%s" % args.output)
    return EXIT_OK


def cmd_split(args):
    formula = formats._read_cnf(args.cnf)
    cubes = harness.split(formula, args.depth)
    lines = []
    for cube in cubes:
        body = " ".join(str(l) for l in cube)
        lines.append(("a %s 0" % body) if body else "a 0")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print("cubes=%d output=%s" % (len(cubes), args.output))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_fixture(args):
    formula = harness.gen_random_unsat(args.vars, args.ratio, seed=args.seed)
    cubes = harness.split(formula, args.depth)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cnf_path = out_dir / "instance.cnf"
    cnf_path.write_text(formats.write_dimacs(formula))
    for i, cube in enumerate(cubes):
        sub = formula.union(Formula(Clause((lit,)) for lit in cube))
        outcome = harness.solve_drup(sub, seed=args.seed + i + 1)
        assert not outcome.sat, "cube of an unsatisfiable instance cannot be satisfiable"
        (out_dir / cube.filename()).write_text(formats.write_drat(outcome.refutation))
    print("cnf=%s proofs=%d dir=%s" % (cnf_path, len(cubes), out_dir))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dratstitch",
        description="Combine, trim, and validate divide-and-conquer refutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stitch", help="merge per-cube proofs into one refutation")
    p.add_argument("--cnf", required=True, help="DIMACS CNF of the original instance")
    p.add_argument(
        "--proofs",
        required=True,
        help="directory of <cube>.proof files, or a manifest of 'a <lits> 0 <path>' lines",
    )
    p.add_argument("-o", "--output", required=True, help="where to write the merged proof")
    p.add_argument(
        "--cl-avg",
        type=int,
        default=-1,
        help="trim when a merge's average addition length exceeds this; "
        "-1 never trims, 0 trims every merge (default: -1)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip re-checking the merged output",
    )
    p.add_argument(
        "--trust-subproofs",
        action="store_true",
        help="skip validating the input proofs against their sub-instances; "
        "only with --cl-avg -1: a stitch that may trim always validates",
    )
    p.add_argument(
        "--strip-deletions",
        action="store_true",
        help="drop every deletion step from the input proofs, which are then "
        "validated even with --trust-subproofs",
    )
    _add_mode_flags(p)
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("check", help="validate a proof against a CNF")
    p.add_argument("cnf")
    p.add_argument("drat")
    _add_mode_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("trim", help="shrink a valid proof to what its conflicts used")
    p.add_argument("cnf")
    p.add_argument("drat")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--emit-core",
        default=None,
        metavar="PATH",
        help="also write the instance clauses the proof relies on, as DIMACS",
    )
    p.add_argument(
        "--no-deletions",
        action="store_true",
        help="do not re-derive deletion steps in the output",
    )
    _add_mode_flags(p)
    p.set_defaults(func=cmd_trim)

    p = sub.add_parser("solve", help="decide a CNF, emitting a proof when unsatisfiable")
    p.add_argument("cnf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-conflicts", type=int, default=100000)
    p.add_argument("-o", "--output", default=None, help="write the proof here on unsat")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("split", help="enumerate cubes over the most frequent variables")
    p.add_argument("cnf")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-o", "--output", default=None, help="write 'a <lits> 0' lines here")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("fixture", help="generate an unsat instance with solved cubes")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True, help="clauses per variable")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings go to this call's stderr; the handler leaves with the call
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    package_log = logging.getLogger("dratstitch")
    package_log.addHandler(handler)
    try:
        return args.func(args)
    except formats.DuplicateCubeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SEMANTIC
    except (formats.FormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except _SEMANTIC_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SEMANTIC
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    finally:
        package_log.removeHandler(handler)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
