import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from qvar.cli import run_command
from qvar.errors import GridMismatchError
from qvar.grid import GridFunction, _h1_gram_banded, _h1_gram_cholesky, make_mesh, norm
from qvar.obstacle import (
    ConstantMeanMap,
    FixedMap,
    KernelMap,
    ObstacleMap,
    check_order_preserving,
    eval_obstacle,
    lipschitz_bound,
)
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

    def test_constant_mean_overflowing_level_is_value_error(self, mesh):
        omap = ObstacleMap.constant_mean(mesh, 0.5, 1e308)
        with pytest.raises(ValueError, match="^grid function values must be finite$"):
            eval_obstacle(omap, GridFunction.constant(mesh, 1e10))

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
        assert lipschitz_bound(ObstacleMap.constant_mean(mesh, 0.5, 0.25)) == 0.25

    @pytest.mark.parametrize("n, ratio", [(8, 0.9607), (64, 2.8170), (1024, 11.3110)])
    def test_dirichlet_constant_mean_counts_the_boundary_jump(self, n, ratio):
        # the constant output jumps to the boundary zeros, and a constant input
        # attains the bound: ||Phi 1 - Phi 0||_h1 / ||1||_l2 equals it
        omap = builtin_problem("example1d", n=n, bc="dirichlet").obstacle_map
        one = GridFunction.constant(omap.mesh, 1.0)
        jump = eval_obstacle(omap, one) - eval_obstacle(omap, GridFunction.zeros(omap.mesh))
        measured = norm(jump, "h1") / norm(one, "l2")
        assert measured == pytest.approx(ratio, abs=1e-4)
        assert measured <= lipschitz_bound(omap) * (1.0 + 1e-12)
        assert lipschitz_bound(omap) == pytest.approx(measured, rel=1e-12)

    def test_fixed(self, mesh):
        psi = GridFunction.constant(mesh, 1.0)
        assert lipschitz_bound(ObstacleMap.fixed(mesh, psi)) == 0.0

    def test_kernel_one_weights_sum(self, mesh):
        # a constant output alpha <hw, z>, whose h1 norm on a neumann mesh is
        # its l2 norm; Cauchy-Schwarz with sum hw = 1 gives alpha
        psi = GridFunction.constant(mesh, 0.5)
        omap = ObstacleMap.kernel(mesh, psi, 0.25, one_kernel)
        assert lipschitz_bound(omap) == pytest.approx(0.25, abs=1e-12)

    def test_empirical_ratio_below_bound(self, mesh):
        rng = np.random.default_rng(3)
        psi = GridFunction.constant(mesh, 0.5)
        for omap in (
            ObstacleMap.constant_mean(mesh, 0.5, 0.25),
            ObstacleMap.kernel(mesh, psi, 0.25, gauss_kernel(0.25)),
        ):
            bound = lipschitz_bound(omap)
            for _ in range(100):
                u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                num = norm(eval_obstacle(omap, u) - eval_obstacle(omap, v), "h1")
                den = norm(u - v, "h1")
                if den > 0:
                    assert num / den <= bound + 1e-9

    def test_complete_continuity_surrogate(self, mesh):
        # the h1 output is controlled by the weaker l2 norm of the input
        rng = np.random.default_rng(4)
        psi = GridFunction.constant(mesh, 0.5)
        for omap in (
            ObstacleMap.constant_mean(mesh, 0.5, 0.25),
            ObstacleMap.kernel(mesh, psi, 0.25, gauss_kernel(0.3)),
        ):
            lphi = lipschitz_bound(omap)
            for _ in range(50):
                u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
                gap = norm(eval_obstacle(omap, u) - eval_obstacle(omap, v), "h1")
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
        assert lipschitz_bound(omap) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_matches_dense_svd(self, n, bc):
        # the top singular value of C = alpha U K diag(sqrt(hw)) formed
        # densely, with U = sqrt(D) L^T from the h1 Gram factor L D L^T
        mesh = make_mesh(n, bc)
        profile = gauss_kernel(0.25)
        omap = ObstacleMap.kernel(mesh, GridFunction.constant(mesh, 0.5), 0.25, profile)
        d, e = _h1_gram_cholesky(mesh)
        U = np.diag(np.sqrt(d)) + np.diag(np.sqrt(d[:-1]) * e, 1)
        C = omap.alpha * U @ dense_kernel(mesh, profile) @ np.diag(np.sqrt(mesh.hw))
        want = np.linalg.svd(C, compute_uv=False)[0]
        assert lipschitz_bound(omap) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("sigma", [0.01, 0.03, 0.05, 0.25])
    def test_two_dofs_deterministic(self, sigma):
        # n=3 on dirichlet leaves 2 dofs, mirror images of each other
        mesh = make_mesh(3, "dirichlet")
        profile = gauss_kernel(sigma)
        omap = ObstacleMap.kernel(mesh, GridFunction.constant(mesh, 0.05), 0.25, profile)
        bounds = {lipschitz_bound(omap) for _ in range(40)}
        assert len(bounds) == 1
        assert bounds.pop() == pytest.approx(dense_h1_bound(omap, profile), rel=1e-12, abs=0.0)


class TestLargeCoupling:
    # the bound is alpha times that of alpha = 1; with alpha inside C^T C it
    # overflowed from alpha = 1e154 (ArpackError, or nan on two dofs)
    @pytest.mark.parametrize("n", [2, 3, 4, 64])
    def test_bound_is_alpha_times_unit_bound(self, n):
        mesh = make_mesh(n, "dirichlet")
        psi = GridFunction.constant(mesh, 0.05)
        unit = lipschitz_bound(ObstacleMap.kernel(mesh, psi, 1.0, gauss_kernel(0.25)))
        bound = lipschitz_bound(ObstacleMap.kernel(mesh, psi, 1e154, gauss_kernel(0.25)))
        assert math.isfinite(bound)
        assert bound == 1e154 * unit

    @pytest.mark.parametrize("alpha", ["1e154", "1e200", "1e308"])
    def test_certify_reports_violated_smallness(self, tmp_path, capsys, alpha):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[problem]\nname = kernel_qvi\nn = 64\nalpha = {alpha}\n")
        assert run_command(["certify", "-c", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out.endswith(" (smallness violated)\n")
        assert err == ""


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
        h1 = lipschitz_bound(dense)
        assert lipschitz_bound(omap) == pytest.approx(h1, rel=1e-13, abs=0.0)

    def test_no_square_storage(self):
        # the dense m x m samples alone would be 32 MiB at n=2048
        tracemalloc.start()
        try:
            problem = builtin_problem("kernel_qvi", n=2048)
            omap = problem.obstacle_map
            eval_obstacle(omap, GridFunction.constant(omap.mesh, 0.1))
            lipschitz_bound(omap)
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



def column_profile(column):
    """A profile that hands ObstacleMap.kernel the given column, whatever the
    distances it is sampled at."""
    return lambda d: np.asarray(column, dtype=np.float64)


class TestKernelConstruction:
    def test_kernel_map_needs_column(self, mesh):
        psi = GridFunction.zeros(mesh)
        with pytest.raises(TypeError, match="column"):
            KernelMap(mesh, psi, 0.25)

    def test_column_length_must_match_dofs(self, mesh):
        psi = GridFunction.zeros(mesh)
        with pytest.raises(GridMismatchError, match=r"^kernel column must have 17 entries, got \(16,\)$"):
            ObstacleMap.kernel(mesh, psi, 0.25, column_profile(np.ones(16)))


_MESH = make_mesh(16, "dirichlet")
_PSI = GridFunction.zeros(_MESH)
_COLUMN = np.ones(_MESH.dof_count)


class TestUnreadInputs:
    # each kind takes exactly the inputs it reads; any other is a TypeError
    @pytest.mark.parametrize(
        "kind, args, unread",
        [
            (FixedMap, dict(psi=_PSI, alpha=0.5), "alpha"),
            (FixedMap, dict(psi=_PSI, column=_COLUMN), "column"),
            (ConstantMeanMap, dict(c0=0.5, alpha=0.25, psi=_PSI), "psi"),
            (KernelMap, dict(c0=9.0, alpha=0.25, psi=_PSI, column=_COLUMN), "c0"),
        ],
        ids=["fixed-alpha", "fixed-column", "constant_mean-psi", "kernel-c0"],
    )
    def test_input_the_kind_does_not_read_is_rejected(self, kind, args, unread):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{unread}'$"):
            kind(_MESH, **args)


class TestNonFiniteInputs:
    # a nan alpha passed `alpha < 0` and certified rho = 0
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_constant_mean_alpha(self, mesh, alpha):
        with pytest.raises(ValueError, match="^coupling weight alpha must be finite and nonnegative"):
            ObstacleMap.constant_mean(mesh, 0.5, alpha)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_kernel_alpha(self, mesh, alpha):
        with pytest.raises(ValueError, match="^coupling weight alpha must be finite and nonnegative"):
            ObstacleMap.kernel(mesh, GridFunction.zeros(mesh), alpha, one_kernel)

    @pytest.mark.parametrize("c0", [math.nan, math.inf, -math.inf])
    def test_constant_mean_c0(self, mesh, c0):
        with pytest.raises(ValueError, match="^base level c0 must be finite"):
            ObstacleMap.constant_mean(mesh, c0, 0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_kernel_column_entry(self, mesh, bad):
        column = np.ones(mesh.dof_count)
        column[3] = bad
        with pytest.raises(ValueError, match="^kernel column entries must be finite$"):
            ObstacleMap.kernel(mesh, GridFunction.zeros(mesh), 0.25, column_profile(column))

    def test_nan_alpha_problem_is_not_certified(self):
        with pytest.raises(ValueError, match="^coupling weight alpha"):
            builtin_problem("example1d", n=8, alpha=math.nan)


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
        omap = ObstacleMap.kernel(mesh, psi, 0.25, column_profile(column))
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
        omap = ObstacleMap.kernel(mesh, psi, 0.0, column_profile(column))
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
