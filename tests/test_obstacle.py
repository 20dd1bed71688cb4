import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from qvar.errors import GridMismatchError
from qvar.grid import GridFunction, _h1_gram_banded, make_mesh, norm
from qvar.obstacle import ObstacleMap, check_order_preserving, eval_obstacle, lipschitz_bound
from qvar.problems import builtin_problem, gauss_kernel, one_kernel


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


def dense_kernel(mesh, profile):
    """The m x m kernel matrix k(|x_i - x_j|), sampled here from profile at
    the distances of the dof nodes, independently of the map's column."""
    xs = mesh.dof_nodes()
    return profile(np.abs(xs[:, None] - xs[None, :]))


def dense_h1_bound(omap, profile):
    """l2 -> h1 norm of the coupling part by a dense generalized eigenproblem:
    the largest mu of B^T G1 B z = mu W z with B = alpha K diag(hw)."""
    mesh = omap.mesh
    K = dense_kernel(mesh, profile)
    hw = mesh.h * mesh.weights()
    B = omap.alpha * K * hw[None, :]
    off, diag = _h1_gram_banded(mesh)
    G1 = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    mu = eigh(B.T @ G1 @ B, np.diag(hw), eigvals_only=True)
    return float(np.sqrt(max(mu[-1], 0.0)))


def builtin_kernel(spec):
    return one_kernel if spec == "one" else gauss_kernel(float(spec[6:-1]))


class TestH1BoundReference:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64, 256])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("kernel", ["gauss(0.25)", "gauss(5.0)", "one"])
    def test_matches_dense_eigh(self, n, bc, kernel):
        mesh = make_mesh(n, bc)
        profile = builtin_kernel(kernel)
        omap = ObstacleMap.kernel(mesh, GridFunction.constant(mesh, 0.5), 0.25, profile)
        want = dense_h1_bound(omap, profile)
        assert lipschitz_bound(omap, "h1") == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma", [0.01, 0.03, 0.05, 0.25])
    def test_two_dofs_deterministic(self, sigma):
        # n=3 on dirichlet leaves 2 dofs, mirror images of each other
        mesh = make_mesh(3, "dirichlet")
        profile = gauss_kernel(sigma)
        omap = ObstacleMap.kernel(mesh, GridFunction.constant(mesh, 0.05), 0.25, profile)
        bounds = {lipschitz_bound(omap, "h1") for _ in range(40)}
        assert len(bounds) == 1
        assert bounds.pop() == pytest.approx(dense_h1_bound(omap, profile), rel=1e-12, abs=0.0)


class TestToeplitzPath:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 64, 256, 2048])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("kernel", ["gauss(0.05)", "gauss(0.25)", "gauss(5.0)", "one"])
    def test_matches_dense_path(self, n, bc, kernel):
        mesh = make_mesh(n, bc)
        psi = GridFunction.constant(mesh, 0.5)
        profile = builtin_kernel(kernel)
        omap = ObstacleMap.kernel(mesh, psi, 0.25, profile)
        # the same map with K applied as a dense matrix sampled by the test
        K = dense_kernel(mesh, profile)
        dense = copy.copy(omap)
        dense._apply_kernel = lambda z: K @ z
        rng = np.random.default_rng(n)
        for _ in range(3):
            y = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            got = eval_obstacle(omap, y).values
            want = eval_obstacle(dense, y).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        hw = mesh.hw
        l2 = 0.25 * math.sqrt(np.einsum("i,j,ij->", hw, hw, K**2))
        assert lipschitz_bound(omap, "l2") == pytest.approx(l2, rel=1e-13, abs=0.0)
        h1 = lipschitz_bound(dense, "h1")
        assert lipschitz_bound(omap, "h1") == pytest.approx(h1, rel=1e-13, abs=0.0)

    def test_no_square_storage(self):
        # the dense m x m samples alone would be 32 MiB at n=2048
        tracemalloc.start()
        try:
            problem = builtin_problem("kernel_qvi", n=2048)
            omap = problem.obstacle_map
            eval_obstacle(omap, GridFunction.constant(omap.mesh, 0.1))
            lipschitz_bound(omap, "l2")
            lipschitz_bound(omap, "h1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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
                assert abs(omap.kernel_column[abs(i - j)] - want) <= 2.0 * math.ulp(want)

    @pytest.mark.parametrize(
        "sigma", [math.nan, math.inf, -math.inf, 1e-200, 1e155, np.float64(1e200), 0.0, -0.25]
    )
    def test_gauss_rejects_invalid_width(self, sigma):
        with pytest.raises(ValueError, match="gauss kernel width"):
            gauss_kernel(sigma)

    def test_gauss_tiny_width_samples_without_warnings(self):
        # 2 sigma^2 = 2e-300 is a normal float, so no distance overflows
        mesh = make_mesh(16, "dirichlet")
        omap = ObstacleMap.kernel(mesh, GridFunction.zeros(mesh), 0.25, gauss_kernel(1e-150))
        assert omap.kernel_column[0] == 1.0 and np.all(omap.kernel_column[1:] == 0.0)



class TestKernelConstruction:
    def test_kernel_map_needs_column(self, mesh):
        psi = GridFunction.zeros(mesh)
        with pytest.raises(ValueError, match=r"^kernel maps need a Toeplitz column k\(\|x_i - x_j\|\)$"):
            ObstacleMap(mesh, "kernel", alpha=0.25, psi_base=psi)

    def test_column_length_must_match_dofs(self, mesh):
        psi = GridFunction.zeros(mesh)
        with pytest.raises(GridMismatchError, match=r"^kernel column must have 17 entries, got \(16,\)$"):
            ObstacleMap(mesh, "kernel", alpha=0.25, psi_base=psi, kernel_column=np.ones(16))


_MESH = make_mesh(16, "dirichlet")
_PSI = GridFunction.zeros(_MESH)
_COLUMN = np.ones(_MESH.dof_count)


class TestUnreadInputs:
    @pytest.mark.parametrize(
        "variant, inputs, unread",
        [
            ("fixed", dict(psi_base=_PSI, alpha=0.5), "alpha"),
            ("fixed", dict(psi_base=_PSI, kernel_column=_COLUMN), "kernel_column"),
            ("constant_mean", dict(c0=0.5, alpha=0.25, psi_base=_PSI), "psi_base"),
            ("kernel", dict(c0=9.0, alpha=0.25, psi_base=_PSI, kernel_column=_COLUMN), "c0"),
        ],
    )
    def test_input_the_variant_does_not_read_is_rejected(self, variant, inputs, unread):
        with pytest.raises(ValueError, match=f"^{variant} maps do not read {unread}$"):
            ObstacleMap(_MESH, variant, **inputs)


class TestOrderPreservation:
    def test_constant_mean(self, mesh):
        assert check_order_preserving(ObstacleMap.constant_mean(mesh, 0.5, 0.25))

    def test_nonnegative_kernel(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        omap = ObstacleMap.kernel(mesh, psi, 0.25, gauss_kernel(0.25))
        assert check_order_preserving(omap)

    def test_injected_negative_entry(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        column = np.ones(mesh.dof_count)
        column[2] = -500.0
        omap = ObstacleMap(mesh, "kernel", alpha=0.25, psi_base=psi, kernel_column=column)
        # explicit violating pair: raising node 5 lowers the obstacle at node 3
        y1 = GridFunction.zeros(mesh)
        bump = np.zeros(mesh.dof_count)
        bump[5] = 1.0
        y2 = GridFunction(mesh, bump)
        p1, p2 = eval_obstacle(omap, y1), eval_obstacle(omap, y2)
        assert p2.values[3] < p1.values[3] - 1e-12
        assert not check_order_preserving(omap)

    def test_negative_entry_without_coupling(self, mesh):
        psi = GridFunction.constant(mesh, 0.5)
        column = np.ones(mesh.dof_count)
        column[2] = -500.0
        omap = ObstacleMap(mesh, "kernel", alpha=0.0, psi_base=psi, kernel_column=column)
        assert check_order_preserving(omap)

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

    @pytest.mark.parametrize("storage", ["kernel_column", "_spectrum"])
    def test_kernel_shift_shares_storage(self, storage):
        # raising the base level must not copy the kernel: robust studies
        # shift the map once per point
        mesh = make_mesh(2048, "dirichlet")
        omap = ObstacleMap.kernel(mesh, GridFunction.constant(mesh, 0.05), 0.25, gauss_kernel(0.25))
        tracemalloc.start()
        try:
            moved = omap.shifted(0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert getattr(moved, storage) is getattr(omap, storage)
        y = GridFunction(mesh, np.linspace(-1.0, 1.0, mesh.dof_count))
        gap = eval_obstacle(moved, y).values - eval_obstacle(omap, y).values
        assert np.max(np.abs(gap - 0.01)) <= 1e-14
