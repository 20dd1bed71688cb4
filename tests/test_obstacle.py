import math

import numpy as np
import pytest
from scipy.linalg import eigh

from qvar.grid import GridFunction, _h1_gram_banded, make_mesh, norm
from qvar.obstacle import ObstacleMap, check_order_preserving, eval_obstacle, lipschitz_bound
from qvar.problems import gauss_kernel, one_kernel


@pytest.fixture
def mesh():
    return make_mesh(16, "neumann")


class TestEval:
    def test_constant_mean_at_zero(self, mesh):
        omap = ObstacleMap.constant_mean(mesh, 0.5, 0.25)
        out = eval_obstacle(omap, GridFunction.zeros(mesh))
        assert np.all(out.values == 0.5)

    def test_constant_mean_fixed_point(self, mesh):
        # the level 2/3 reproduces itself: 1/2 + (1/4)(2/3) = 2/3
        omap = ObstacleMap.constant_mean(mesh, 0.5, 0.25)
        out = eval_obstacle(omap, GridFunction.constant(mesh, 2.0 / 3.0))
        assert np.max(np.abs(out.values - 2.0 / 3.0)) <= 1e-14

    def test_kernel_one_matches_constant_mean(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        kmap = ObstacleMap.kernel(mesh, psi, 0.25, one_kernel)
        cmap = ObstacleMap.constant_mean(mesh, 0.5, 0.25)
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = GridFunction(mesh, np.abs(rng.standard_normal(mesh.dof_count)))
            a = eval_obstacle(kmap, y)
            b = eval_obstacle(cmap, y)
            assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_fixed_returns_base(self, mesh):
        psi = GridFunction(mesh, np.linspace(0.0, 1.0, mesh.dof_count))
        omap = ObstacleMap.fixed(mesh, psi)
        out = eval_obstacle(omap, GridFunction.constant(mesh, 7.0))
        assert np.array_equal(out.values, psi.values)

    def test_nonnegative_floor(self, mesh):
        omap = ObstacleMap.constant_mean(mesh, 0.4, 0.25)
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = GridFunction(mesh, np.abs(rng.standard_normal(mesh.dof_count)))
            out = eval_obstacle(omap, y)
            assert np.min(out.values) >= 0.4 - 1e-12


class TestLipschitzBound:
    def test_constant_mean(self, mesh):
        assert lipschitz_bound(ObstacleMap.constant_mean(mesh, 0.5, 0.25), "l2") == 0.25

    def test_fixed(self, mesh):
        psi = GridFunction.constant(mesh, 1.0)
        assert lipschitz_bound(ObstacleMap.fixed(mesh, psi), "l2") == 0.0

    def test_kernel_one_weights_sum(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        omap = ObstacleMap.kernel(mesh, psi, 0.25, one_kernel)
        assert lipschitz_bound(omap, "l2") == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("kind", ["l2", "h1"])
    def test_empirical_ratio_below_bound(self, mesh, kind):
        rng = np.random.default_rng(3)
        psi = GridFunction.constant(mesh, 0.5)
        for omap in (
            ObstacleMap.constant_mean(mesh, 0.5, 0.25),
            ObstacleMap.kernel(mesh, psi, 0.25, gauss_kernel(0.25)),
        ):
            bound = lipschitz_bound(omap, kind)
            for _ in range(100):
                u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                num = norm(eval_obstacle(omap, u) - eval_obstacle(omap, v), kind)
                den = norm(u - v, kind)
                if den > 0:
                    assert num / den <= bound + 1e-9

    def test_complete_continuity_surrogate(self, mesh):
        # output controlled by the weaker norm of the input
        rng = np.random.default_rng(4)
        psi = GridFunction.constant(mesh, 0.5)
        for omap in (
            ObstacleMap.constant_mean(mesh, 0.5, 0.25),
            ObstacleMap.kernel(mesh, psi, 0.25, gauss_kernel(0.3)),
        ):
            lphi = lipschitz_bound(omap, "l2")
            for _ in range(50):
                u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                gap = norm(eval_obstacle(omap, u) - eval_obstacle(omap, v), "sup")
                assert gap <= lphi * norm(u - v, "l2") + 1e-9


def dense_h1_bound(omap):
    """l2 -> h1 norm of the coupling part by a dense generalized eigenproblem:
    the largest mu of B^T G1 B z = mu W z with B = alpha K diag(hw)."""
    mesh = omap.mesh
    hw = mesh.h * mesh.weights()
    B = omap.alpha * omap.kernel_samples * hw[None, :]
    off, diag = _h1_gram_banded(mesh)
    G1 = np.diag(diag) + np.diag(off[1:], -1) + np.diag(off[1:], 1)
    mu = eigh(B.T @ G1 @ B, np.diag(hw), eigvals_only=True)
    return float(np.sqrt(max(mu[-1], 0.0)))


class TestH1BoundReference:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64, 256])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("kernel", ["gauss(0.25)", "gauss(5.0)", "one"])
    def test_matches_dense_eigh(self, n, bc, kernel):
        mesh = make_mesh(n, bc)
        kernel_fn = one_kernel if kernel == "one" else gauss_kernel(float(kernel[6:-1]))
        omap = ObstacleMap.kernel(mesh, GridFunction.constant(mesh, 0.5), 0.25, kernel_fn)
        assert lipschitz_bound(omap, "h1") == pytest.approx(dense_h1_bound(omap), rel=1e-12, abs=0.0)


class TestKernelSampling:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("sigma", [0.05, 0.25, 5.0])
    def test_gauss_matches_scalar_exp(self, bc, sigma):
        mesh = make_mesh(64, bc)
        omap = ObstacleMap.kernel(mesh, GridFunction.zeros(mesh), 0.25, gauss_kernel(sigma))
        xs = mesh.dof_nodes()
        for i, xi in enumerate(xs):
            for j, xj in enumerate(xs):
                want = math.exp(-((xi - xj) ** 2) / (2.0 * sigma * sigma))
                assert abs(omap.kernel_samples[i, j] - want) <= 2.0 * math.ulp(want)


class TestOrderPreservation:
    def test_constant_mean(self, mesh):
        assert check_order_preserving(ObstacleMap.constant_mean(mesh, 0.5, 0.25), 100, seed=0)

    def test_nonnegative_kernel(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        omap = ObstacleMap.kernel(mesh, psi, 0.25, gauss_kernel(0.25))
        assert check_order_preserving(omap, 100, seed=0)

    def test_injected_negative_entry(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        omap = ObstacleMap.kernel(mesh, psi, 0.25, one_kernel)
        omap.kernel_samples[3, 5] = -500.0
        # explicit violating pair: raising node 5 lowers the obstacle at node 3
        y1 = GridFunction.zeros(mesh)
        bump = np.zeros(mesh.dof_count)
        bump[5] = 1.0
        y2 = GridFunction(mesh, bump)
        p1, p2 = eval_obstacle(omap, y1), eval_obstacle(omap, y2)
        assert p2.values[3] < p1.values[3] - 1e-12
        assert not check_order_preserving(omap, 100, seed=0)

    def test_negative_alpha_rejected(self, mesh):
        with pytest.raises(ValueError):
            ObstacleMap.constant_mean(mesh, 0.5, -0.5)


class TestShift:
    def test_constant_mean_shift(self, mesh):
        omap = ObstacleMap.constant_mean(mesh, 0.5, 0.25).shifted(0.1)
        out = eval_obstacle(omap, GridFunction.zeros(mesh))
        assert np.all(out.values == pytest.approx(0.6))

    def test_fixed_shift(self, mesh):
        psi = GridFunction.constant(mesh, 0.2)
        omap = ObstacleMap.fixed(mesh, psi).shifted(0.05)
        out = eval_obstacle(omap, GridFunction.zeros(mesh))
        assert np.all(out.values == pytest.approx(0.25))
