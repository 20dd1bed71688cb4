import os
import subprocess
import sys


def test_import_leaves_out_sparse_linalg():
    # ARPACK is loaded on demand by the h1 kernel bound; at import time it
    # would add megabytes to every qvar process that never needs it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, qvar; print('scipy.sparse.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert out.stdout.strip() == "False"
