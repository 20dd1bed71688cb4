"""Each demo script the README lists, and its library quick start, runs to
completion in a fresh interpreter with every warning an error."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = (
    "demo_golden_example.py",
    "demo_inner_solvers.py",
    "demo_nonmonotone.py",
    "demo_rate_studies.py",
)


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    out = _python([os.path.join(ROOT, "demos", script)], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    out = _python(["-c", block.split("```", 1)[0]], tmp_path)
    assert out.returncode == 0, out.stderr
    first, second, *_ = out.stdout.splitlines()
    assert first.startswith("0.666666")
    assert second == "0.25"
