#!/usr/bin/env python3
"""Benchmark of the dratstitch CLI: time to verdict for stitch, check and trim.

Run from the repository root:

    python3 bench/run.py --workload stitch-verify --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` and calls ``dratstitch.cli.main`` in
this process with the CLI's default flags. One run:

1. imports the package and builds the workload's inputs from the seed;
2. sends the known-invalid probes, which must exit 1;
3. runs operations one at a time (a closed loop with one client) until
   ``--seconds`` have passed, checking every command's exit code, verdict
   line and output files against answers known from the inputs;
4. prints a few ``#`` lines for people, then one JSON line with the
   result.

The inputs are built again after every operation, so that ``setup_s``
(import time plus the median build) is sampled across the whole run, as
``op_s`` is. On a shared machine the speed drifts over tens of
seconds, and set-ups timed back to back at the start would catch only one
moment of it. For the same reason ``op_s`` and ``setup_s`` are on the
scale of ``reference.py``, a fixed computation timed right before and
after each operation and each set-up: wall time × ``NOMINAL_S`` / the
mean of the two reference times. The raw wall times are on the ``#``
lines.

With ``--trace 0`` the JSON holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics: traced and untraced
operations alternate, and each layer figure is the median over the
traced ones. ``--smoke`` shrinks every workload so that a run takes
seconds; the tests in this directory use it.

Workload shapes and why they were chosen are in ``workloads.py``.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LEVELS = range(7)  # merge depths of the deepest tree, stitch-verify's depth-7 split

END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "out_steps": "count",
    "out_lits": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "input.steps": "count",
    "cli.wall_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "formats.self_s": "s",
    "formats.parse_s": "s",
    "formats.parse_calls": "count",
    "formats.write_s": "s",
    "formats.write_calls": "count",
    "checker.self_s": "s",
    "checker.replays": "count",
    "checker.replay_s": "s",
    "checker.propagations": "count",
    "checker.propagations_per_s": "1/s",
    "checker.verify_s": "s",
    "checker.verify_propagations": "count",
    "checker.leaf_check_s": "s",
    "checker.leaf_checks": "count",
    "stitcher.self_s": "s",
    "stitcher.merge_s": "s",
    "stitcher.merges": "count",
    **{"stitcher.level_%d_s" % d: "s" for d in LEVELS},
    "trimmer.self_s": "s",
    "trimmer.trim_s": "s",
    "trimmer.trims": "count",
    "trimmer.useful_trims": "count",
    "trimmer.replays_per_trim": "count",
    "trimmer.core_s": "s",
    "harness.solve_s": "s",
    "harness.solves": "count",
}


class SetupError(Exception):
    """The package or the workload's inputs could not be prepared."""


def import_package():
    """Import dratstitch from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        ds = importlib.import_module("dratstitch")
        modules = {
            name: importlib.import_module("dratstitch." + name)
            for name in ("cli", "core", *tracing.LAYERS)
        }
    except ImportError as exc:
        raise SetupError("cannot import dratstitch from %s: %s" % (src, exc)) from exc
    if src.resolve() not in Path(ds.__file__).resolve().parents:
        raise SetupError("dratstitch was imported from %s, not %s" % (ds.__file__, src))
    modules["dratstitch"] = ds
    return ds, modules


class Judge:
    """Counts commands issued with a known answer and those that missed it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, label, ok, output=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAIL %s\n%s" % (label, output), file=sys.stderr)
        return ok


def call(cli, argv):
    """Run the CLI in-process; returns (exit code or None on a crash, stdout, wall s)."""
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed command, and the run goes on
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return rc, out.getvalue() + err.getvalue(), wall


def fields(line):
    """key=value pairs of one CLI report line."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def last_line(text, prefix):
    lines = [l for l in text.splitlines() if l.startswith(prefix)]
    return fields(lines[-1]) if lines else {}


def proof_size(path):
    """(steps, literals, bytes) of an ASCII proof file with one step per line.

    The literal count is the size that does not depend on how the seed
    renamed variables; the byte count does, through the digits.
    """
    data = Path(path).read_bytes()
    steps = lits = 0
    for line in data.splitlines():
        tokens = line.split()
        if tokens:
            steps += 1
            lits += len(tokens) - 1 - (tokens[0] == b"d")
    return steps, lits, len(data)


def dimacs_clauses(path):
    """The clauses of a DIMACS file as a multiset of literal sets."""
    clauses = Counter()
    for line in Path(path).read_text().splitlines():
        tokens = line.split()
        if tokens and tokens[0] not in ("c", "p"):
            clauses[frozenset(int(t) for t in tokens[:-1])] += 1
    return clauses


class Operations:
    """The commands of one workload, each checked against its known answer."""

    def __init__(self, cli, workload, inputs, directory, judge):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.directory = Path(directory)
        self.judge = judge
        self.output_digest = None
        self.commands = {}  # command name -> wall times
        self.tracer = None  # when set, traces the timed commands and nothing else

    def _timed(self, name, argv):
        if self.tracer is None:
            rc, text, wall = call(self.cli, argv)
        else:
            self.tracer.install()
            try:
                rc, text, wall = call(self.cli, argv)
            finally:
                self.tracer.uninstall()
        self.commands.setdefault(name, []).append(wall)
        return rc, text, wall

    def probes(self):
        inp = self.inputs
        rc, text, _ = call(self.cli, ["check", inp.probe_cnf, inp.probe_missing_empty])
        verdict = last_line(text, "verdict=")
        self.judge(
            "probe: proof without its empty clause",
            rc == 1
            and verdict.get("verdict") == "invalid"
            and verdict.get("reason") == "missing-empty-clause",
            text,
        )
        rc, text, _ = call(self.cli, ["check", "--strict", inp.probe_cnf, inp.probe_bogus_delete])
        verdict = last_line(text, "verdict=")
        self.judge(
            "probe: deletion of an absent clause under --strict",
            rc == 1
            and verdict.get("verdict") == "invalid"
            and verdict.get("reason") == "deletion-absent"
            and verdict.get("failing_step") == str(inp.bogus_delete_step),
            text,
        )

    def run(self):
        """One operation; returns (wall s, out steps, out literals, level s by depth)."""
        if self.workload.stitch_args is None:
            return self._check_and_trim()
        return self._stitch()

    def _same_output(self, label, path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if self.output_digest is None:
            self.output_digest = digest
        return self.judge(label + ": output identical to the run's first", digest == self.output_digest)

    def _stitch(self):
        inp = self.inputs
        out = self.directory / "stitched.drat"
        if out.exists():
            out.unlink()
        argv = ["stitch", "--cnf", inp.cnf, "--proofs", inp.proofs, "-o", out, *self.workload.stitch_args]
        rc, text, wall = self._timed("stitch", argv)
        lines = text.splitlines()
        levels = {}
        trimmed = 0
        for line in lines:
            if line.startswith("level="):
                f = fields(line)
                levels[int(f["level"])] = (float(f["merge_ms"]) + float(f["trim_ms"])) / 1000
                trimmed += int(f["trimmed"])
        untrimmed = inp.steps + inp.merges
        steps, lits, _ = proof_size(out) if out.exists() else (0, 0, 0)
        reported = last_line(text, "steps=").get("steps")
        verify = last_line(text, "verify=")
        if self.workload.stitch_args:  # --cl-avg 0: every merge is trimmed, none grows
            shape_ok = 0 < steps <= untrimmed and trimmed == inp.merges
        else:  # no trim: every leaf step plus one empty clause per merge
            shape_ok = steps == untrimmed and trimmed == 0
        self.judge(
            "stitch",
            rc == 0
            and verify.get("verify") == "valid"
            and verify.get("steps_checked") == str(steps)
            and reported == str(steps)
            and shape_ok,
            text,
        )
        if out.exists():
            self._same_output("stitch", out)
        return wall, steps, lits, levels

    def _check_and_trim(self):
        inp = self.inputs
        rc, text, check_wall = self._timed("check", ["check", inp.cnf, inp.proofs])
        verdict = last_line(text, "verdict=")
        self.judge(
            "check",
            rc == 0
            and verdict.get("verdict") == "valid"
            and verdict.get("steps_checked") == str(inp.steps),
            text,
        )

        trimmed = self.directory / "trimmed.drat"
        core = self.directory / "core.cnf"
        for path in (trimmed, core):
            if path.exists():
                path.unlink()
        argv = ["trim", inp.cnf, inp.proofs, "-o", trimmed, "--emit-core", core]
        rc, text, trim_wall = self._timed("trim", argv)
        in_steps, _, in_bytes = proof_size(inp.proofs)
        steps, lits, size = proof_size(trimmed) if trimmed.exists() else (0, 0, 0)
        report = last_line(text, "input_steps=")
        self.judge(
            "trim",
            rc == 0
            and 0 < steps <= in_steps
            and size <= in_bytes
            and report.get("input_steps") == str(in_steps)
            and report.get("input_bytes") == str(in_bytes)
            and report.get("output_steps") == str(steps)
            and report.get("output_bytes") == str(size)
            and core.exists(),
            text,
        )
        if core.exists():
            self.judge(
                "trim: core is a sub-multiset of the instance",
                not dimacs_clauses(core) - dimacs_clauses(inp.cnf),
            )
        if trimmed.exists():
            self._same_output("trim", trimmed)
            # untimed gates: the trimmed proof refutes the instance and its core
            for cnf in (inp.cnf, core):
                rc, text, _ = call(self.cli, ["check", cnf, trimmed])
                verdict = last_line(text, "verdict=")
                self.judge(
                    "check trimmed proof against %s" % Path(cnf).name,
                    rc == 0 and verdict.get("verdict") == "valid",
                    text,
                )
        return check_wall + trim_wall, steps, lits, {}


def resolved_jobs(ds, inputs, workload):
    """The merge thread count stitch picks by default, or a reason there is none."""
    default_jobs = getattr(ds.stitcher, "default_jobs", None)
    if workload.stitch_args is None:
        return "n/a (no stitch)"
    if default_jobs is None:
        return "n/a (no default_jobs)"
    bundle = ds.load_bundle(inputs.cnf, inputs.proofs)
    return default_jobs(ds.build_cube_tree(bundle))


def end_to_end(ops, seconds, calib, import_s, build_s, build):
    """Closed loop: operations back to back until the time is up, at least one.

    build() rebuilds the inputs after each operation. import_s and build_s
    are the first set-up's times, already scaled. Each operation and
    each build is scaled by the references measured on either side of it.
    """
    samples = []
    scaled_ops = []
    refs = []
    builds = [build_s]
    raw_builds = []
    ref_before = calib.measure()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(ops.run())
        ref_after = calib.measure()
        scaled_ops.append(reference.scaled(samples[-1][0], ref_before, ref_after))
        raw_builds.append(build()[1])
        ref_before = calib.measure()
        builds.append(reference.scaled(raw_builds[-1], ref_after, ref_before))
        refs += [ref_after, ref_before]
    walls = [s[0] for s in samples]
    # peak resident memory of the whole process, set-up included
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "op_s": statistics.median(scaled_ops),
        "setup_s": import_s + statistics.median(builds),
        "out_steps": statistics.median(s[1] for s in samples),
        "out_lits": statistics.median(s[2] for s in samples),
        "peak_rss_mb": rss_mb,
    }
    print(
        "# ops=%d op_s median=%.4f min=%.4f max=%.4f; builds=%d median=%.4f import_s=%.4f (scaled)"
        % (len(walls), metrics["op_s"], min(scaled_ops), max(scaled_ops), len(builds), statistics.median(builds), import_s)
    )
    print(
        "# raw wall: op median=%.4f min=%.4f max=%.4f; build median=%.4f; reference median=%.4f min=%.4f max=%.4f"
        % (statistics.median(walls), min(walls), max(walls), statistics.median(raw_builds),
           statistics.median(refs), min(refs), max(refs))
    )
    for name, times in sorted(ops.commands.items()):
        print("# %s_s median=%.4f n=%d" % (name, statistics.median(times), len(times)))
    return metrics


def per_layer(ops, tracer, seconds):
    setup_totals = tracer.snapshot()  # the traced first build
    traced = []
    untraced = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        tracer.reset()
        ops.tracer = tracer
        try:
            sample = ops.run()
        finally:
            ops.tracer = None
        traced.append((sample, tracer.snapshot()))
        untraced.append(ops.run()[0])

    per_op = []
    for (wall, _, _, levels), t in traced:
        layer_self = sum(t.get(layer + ".self_s", 0.0) for layer in tracing.LAYERS)
        v = {name: t.get(name, 0) for name in PER_LAYER}
        v["cli.wall_s"] = wall
        v["cli.self_s"] = wall - layer_self
        v["checker.propagations_per_s"] = (
            t.get("checker.propagations", 0) / t["checker.replay_s"] if t.get("checker.replay_s") else 0.0
        )
        trims = t.get("trimmer.trims", 0)
        v["trimmer.replays_per_trim"] = t.get("trimmer.replays_in_trims", 0) / trims if trims else 0.0
        for d in LEVELS:
            v["stitcher.level_%d_s" % d] = levels.get(d, 0.0)
        per_op.append(v)

    metrics = {name: statistics.median(v[name] for v in per_op) for name in PER_LAYER}
    metrics["input.steps"] = ops.inputs.steps
    metrics["trace.overhead_s"] = statistics.median(s[0] for s, _ in traced) - statistics.median(untraced)
    metrics["harness.solve_s"] = setup_totals.get("harness.solve_s", 0.0)
    metrics["harness.solves"] = setup_totals.get("harness.solves", 0)
    # cli.self_s is the wall time the layers' CPU self times leave over,
    # so it is negative only if spans were counted twice
    print(
        "# traced ops=%d wall median=%.4f untraced median=%.4f min cli.self_s=%.4f"
        % (len(traced), metrics["cli.wall_s"], statistics.median(untraced), min(v["cli.self_s"] for v in per_op))
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the tests")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    calib = reference.Reference()
    calib.measure()  # warm-up
    ref_before = calib.measure()
    start = time.perf_counter()
    ds, modules = import_package()
    import_s = time.perf_counter() - start
    ref_after = calib.measure()
    import_s = reference.scaled(import_s, ref_before, ref_after)

    directory = BENCH_DIR / ".work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        judge = Judge()

        def build():
            start = time.perf_counter()
            inputs = workloads.build_inputs(ds, workload, args.seed, directory, smoke=args.smoke)
            return inputs, time.perf_counter() - start

        tracer = tracing.Tracer(modules) if args.trace else None
        if tracer is not None:
            tracer.install()  # the first build is traced, for the harness figures
        try:
            inputs, build_s = build()
        finally:
            if tracer is not None:
                tracer.uninstall()
        build_s = reference.scaled(build_s, ref_after, calib.measure())
        print(
            "# env python=%s nproc=%s default_jobs=%s"
            % (platform.python_version(), os.cpu_count(), resolved_jobs(ds, inputs, workload))
        )
        print(
            "# workload=%s seed=%d trace=%d smoke=%s input_steps=%d merges=%d"
            % (args.workload, args.seed, args.trace, args.smoke, inputs.steps, inputs.merges)
        )
        ops = Operations(modules["cli"], workload, inputs, directory, judge)
        ops.probes()
        if tracer is not None:
            metrics = per_layer(ops, tracer, args.seconds)
            units = PER_LAYER
        else:
            metrics = end_to_end(ops, args.seconds, calib, import_s, build_s, build)
            units = END_TO_END
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            directory.parent.rmdir()  # only when no other run is using it

    print("# attempted=%d failed=%d fail_rate=%.4f" % (judge.attempted, judge.failed, judge.failed / judge.attempted))
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    try:
        main()
    except (SetupError, workloads.DrawError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
