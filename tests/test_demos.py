"""Each demo script the README lists runs to completion in a fresh interpreter."""

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


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join(ROOT, "demos", script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
