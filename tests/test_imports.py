import os
import subprocess
import sys


def run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports qvar from src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return out.stdout.strip()


def test_import_leaves_out_sparse_linalg():
    # ARPACK is loaded on demand by the h1 kernel bound; at import time it
    # would add megabytes to every qvar process that never needs it
    assert run_fresh("import sys, qvar; print('scipy.sparse.linalg' in sys.modules)") == "False"


def test_kernel_work_leaves_out_scipy_fft():
    # kernel maps apply their Toeplitz matrix with numpy.fft; scipy.fft would
    # add tens of milliseconds and megabytes to every kernel solve
    code = (
        "import sys, qvar\n"
        "p = qvar.builtin_problem('kernel_qvi', n=64)\n"
        "qvar.solve_qvi_minimal(p)\n"
        "qvar.lipschitz_bound(p.obstacle_map)\n"
        "print('scipy.fft' in sys.modules)"
    )
    assert run_fresh(code) == "False"
