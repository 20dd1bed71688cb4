"""Tests of the benchmark's independent checker.

run: python3 -m pytest bench/test_checker.py -q
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.linalg import eigh

import checker as ck

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _dense(op, size):
    return np.column_stack([op.apply(col) for col in np.eye(size)])


def _h1_gram(mesh):
    """Gram matrix of the h1 norm, built from its definition."""
    m = mesh.x.size
    grad = np.diff(np.column_stack([mesh.full(col) for col in np.eye(m)]), axis=0)
    return np.diag(mesh.hw) + grad.T @ grad / mesh.h


@pytest.mark.parametrize("n", [4, 8, 16, 33])
def test_lumped_spectrum_matches_dense_eigh(n):
    mesh = ck.Mesh(n, "dirichlet")
    A = _dense(ck.Linear(mesh, 1.0, 0.0), n - 1)
    assert np.allclose(np.linalg.eigvalsh(A), ck.dirichlet_laplacian_eigenvalues(n), rtol=1e-12)


@pytest.mark.parametrize("name,bc,a0", [("kernel_qvi", "dirichlet", 0.0), ("example1d", "neumann", 1.0)])
@pytest.mark.parametrize("n", [4, 8, 16, 33])
def test_h1_constants_match_dense_eigh(name, bc, a0, n):
    """Extremes of <Au,u> / ||u||_h1^2 with <Au,u> = sum h w (Au) u."""
    mesh = ck.Mesh(n, bc)
    K = np.diag(mesh.hw) @ _dense(ck.Linear(mesh, 1.0, a0), mesh.x.size)
    mu = eigh((K + K.T) / 2, _h1_gram(mesh), eigvals_only=True)
    c, L = ck.h1_constants(name, n)
    assert mu[0] == pytest.approx(c, rel=1e-12)
    assert mu[-1] == pytest.approx(L, rel=1e-12)


def _example1d(n, f=1.0):
    return ck.builtin("example1d", n, {"f": f, "c0": 0.5, "alpha": 0.25})


def test_accepts_the_golden_solution():
    op, f, omap = _example1d(32)
    ck.check_qvi(op, f, omap, np.full(f.size, 2.0 / 3.0), 1e-10, 1e-8)


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_rejects_a_perturbed_golden_solution(shift):
    op, f, omap = _example1d(32)
    y = np.full(f.size, 2.0 / 3.0)
    y[7] += shift
    with pytest.raises(ck.CheckError):
        ck.check_qvi(op, f, omap, y, 1e-10, 1e-8)


def test_rejects_a_uniformly_low_solution():
    op, f, omap = _example1d(32)
    with pytest.raises(ck.CheckError, match="complementarity"):
        ck.check_qvi(op, f, omap, np.full(f.size, 2.0 / 3.0 - 1e-6), 1e-10, 1e-8)


@pytest.mark.parametrize("name", ["fixed_obstacle", "kernel_qvi", "plaplacian", "nonmonotone_sine"])
def test_qvar_solution_passes_and_perturbed_fails(name):
    qvar = pytest.importorskip("qvar")
    params = {"f": 1.0, "psi": 0.05, "c0": 0.5, "alpha": 0.25, "sigma": 0.25,
              "p": 3.0, "eps_op": 1e-3, "lambda": 0.1}
    n = 16
    report = qvar.solve_qvi_minimal(qvar.builtin_problem(name, n=n))
    op, f, omap = ck.builtin(name, n, params)
    y = report.solution.values.copy()
    ck.check_qvi(op, f, omap, y, 1e-10, 1e-8)
    for i in (0, f.size // 2):
        for shift in (1e-6, -1e-6):
            bad = y.copy()
            bad[i] += shift
            with pytest.raises(ck.CheckError):
                ck.check_qvi(op, f, omap, bad, 1e-10, 1e-8)


def test_sampled_lipschitz_ratios_stay_below_the_operator_norm():
    """The l2 -> h1 norm of y -> alpha K (hw y), from a dense eigh, bounds
    every sampled ratio and is approached by the smooth samples."""
    mesh = ck.Mesh(32, "dirichlet")
    omap = ck.Kernel(mesh, 0.05, 0.25, 0.25)
    B = omap.alpha * omap.k * mesh.hw[None, :]
    norm = math.sqrt(eigh(B.T @ _h1_gram(mesh) @ B, np.diag(mesh.hw), eigvals_only=True)[-1])
    sampled = ck.lipschitz_samples(omap, np.random.default_rng(0), 16)
    assert 0.8 * norm <= sampled <= norm * (1 + 1e-12)


def test_fit_slope_recovers_a_power_law():
    points = [(x, 3.0 * x**1.5) for x in (0.5, 0.25, 0.125, 0.0625)]
    slope, r2 = ck.fit_slope(points + [(0.01, 0.0)])
    assert slope == pytest.approx(1.5, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert ck.fit_slope(points[:2]) is None
