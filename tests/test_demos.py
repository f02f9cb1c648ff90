"""Smoke test: every script under demos/ and README's library example
runs to completion.

The demos and the example exercise the public API end to end, so a
removed or renamed name breaks them; running each one here keeps them
honest.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = _run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    result = _run_python(["-c", blocks[0]])
    assert result.returncode == 0, result.stderr
    # the example prints the trim's step counts
    assert re.fullmatch(r"\d+ -> \d+\n", result.stdout), result.stdout
