"""Per-layer spans around the public functions of dratstitch's modules.

A wrapper is installed wherever a function object is bound, not only on
its home module: ``stitcher`` and ``trimmer`` import ``check_refutation``,
``annotate_refutation``, ``trim``, ``parse_drat`` and ``write_drat`` by
name, and wrapping the home module alone would miss those calls.

Span stacks are kept per thread, because ``stitch`` merges one tree level
on a thread pool. Times are thread CPU seconds (``time.thread_time``):
with the interpreter lock only one thread runs Python at a time, so CPU
self times of all threads add up to the command's wall time, where
per-thread wall spans would count the same second once per waiting
thread. Whatever the layers do not cover is the CLI's own time.
"""

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("formats", "checker", "stitcher", "trimmer", "harness")
REPLAYS = ("check_refutation", "annotate_refutation")
PARSERS = ("parse_dimacs", "parse_drat")
WRITERS = ("write_dimacs", "write_drat")


class Tracer:
    """Collects span totals while installed; install/uninstall swap bindings."""

    def __init__(self, modules):
        """modules maps a name to each module of the package, layers by layer name."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings = []  # (module, attribute, original, wrapper)
        for layer in LAYERS:
            home = modules[layer]
            for name, fn in vars(home).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != home.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for module in set(modules.values()):
                    for attr, value in vars(module).items():
                        if value is fn:
                            self._bindings.append((module, attr, fn, wrapper))
        self.reset()

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def reset(self):
        with self._lock:
            self.totals = defaultdict(float)

    def snapshot(self):
        with self._lock:
            return dict(self.totals)

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(layer, name, fn, args, kwargs)

        return wrapper

    def _span(self, layer, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [layer, name, 0.0]  # child time accumulates in frame[2]
        stack.append(frame)
        result = None
        start = time.thread_time()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed = time.thread_time() - start
            stack.pop()
            if stack:
                stack[-1][2] += elapsed
            self._record(layer, name, elapsed, elapsed - frame[2], stack, result)

    def _record(self, layer, name, elapsed, self_time, stack, result):
        t = {layer + ".self_s": self_time, "trace.spans": 1}
        if layer == "formats" and name in PARSERS:
            t["formats.parse_s"] = elapsed
            t["formats.parse_calls"] = 1
        elif layer == "formats" and name in WRITERS:
            t["formats.write_s"] = elapsed
            t["formats.write_calls"] = 1
        elif layer == "checker" and name in REPLAYS:
            report = result[0] if isinstance(result, tuple) else result
            props = getattr(report, "propagations", 0)
            t["checker.replays"] = 1
            t["checker.replay_s"] = elapsed
            t["checker.propagations"] = props
            callers = [f[0] + "." + f[1] for f in stack]
            if not callers:
                t["checker.verify_s"] = elapsed
                t["checker.verify_propagations"] = props
            elif callers[-1] in ("stitcher.combine_all", "stitcher.stitch"):
                t["checker.leaf_check_s"] = elapsed
                t["checker.leaf_checks"] = 1
            if "trimmer.trim" in callers:
                t["trimmer.replays_in_trims"] = 1
        elif layer == "stitcher" and name == "stitch":
            t["stitcher.merge_s"] = elapsed
            t["stitcher.merges"] = 1
        elif layer == "trimmer" and name == "trim":
            t["trimmer.trim_s"] = elapsed
            t["trimmer.trims"] = 1
            report = result[1] if isinstance(result, tuple) else None
            if report is not None and report.output_steps < report.input_steps:
                t["trimmer.useful_trims"] = 1
        elif layer == "trimmer" and name == "unsat_core":
            t["trimmer.core_s"] = elapsed
        elif layer == "harness" and name == "solve_drup":
            t["harness.solve_s"] = elapsed
            t["harness.solves"] = 1
        with self._lock:
            for key, value in t.items():
                self.totals[key] += value
