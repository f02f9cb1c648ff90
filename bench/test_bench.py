"""Tests of the benchmark itself, on its reduced --smoke inputs.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_lists_the_benchmark_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_emits_exactly_the_spec_metrics(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_accounts_for_the_command_wall_time():
    metrics = {k: v["value"] for k, v in smoke("stitch-trim", 1)["metrics"].items()}
    layers = sum(metrics[l + ".self_s"] for l in ("formats", "checker", "stitcher", "trimmer"))
    assert metrics["cli.self_s"] >= 0
    assert layers <= metrics["cli.wall_s"]
    assert metrics["trimmer.trims"] == metrics["stitcher.merges"] > 0
    assert metrics["checker.leaf_checks"] > 0 and metrics["checker.verify_s"] > 0


def test_same_seed_gives_same_inputs_and_other_seeds_differ(tmp_path):
    ds, _ = run.import_package()
    w = workloads.WORKLOADS["stitch-verify"]
    texts = []
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        inputs = workloads.build_inputs(ds, w, seed, tmp_path / name, smoke=True)
        texts.append(inputs.cnf.read_text())
    assert texts[0] == texts[1] != texts[2]


def test_a_checker_that_accepts_everything_fails_the_benchmark(monkeypatch, capsys):
    ds, modules = run.import_package()
    accept = ds.CheckReport(True, steps_checked=1)
    monkeypatch.setattr(modules["checker"], "check_refutation", lambda *a, **k: accept)
    result = run.main(["--workload", "mono-deletions", "--seed", "1", "--seconds", "0.1", "--smoke"])
    assert not result["correct"] and result["failed"] >= 2


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stitch-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
