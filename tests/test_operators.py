import numpy as np
import pytest
from scipy.linalg import solve_banded

from qvar import grid, operators
from qvar.errors import EllipticityError, GridMismatchError, SolverError
from qvar.grid import (
    GridFunction,
    _cholesky_solve,
    _cholesky_tridiag,
    _h1_gram_banded,
    _h1_gram_cholesky,
    dual_norm,
    duality_pairing,
    make_mesh,
    norm,
)
from qvar.obstacle import ObstacleMap, lipschitz_bound
from qvar.problems import BUILTINS, builtin_problem, gauss_kernel
from qvar.qvi_solver import (
    operator_structural_constants,
    problem_certificate,
    unconstrained_supersolution,
)
from qvar.operators import (
    LinearEllipticOperator,
    NonMonotoneOperator,
    PLaplacianOperator,
    add_regularization,
    apply,
    assemble_linear,
    estimate_constants,
    solve_unconstrained,
    _tridiag_apply,
    _tridiag_solve,
)
from qvar.vi_solver import VIParams, _newton_step, solve_vi


def dense_bands(bands):
    lower, diag, upper = bands
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def diagonal_gram_extremes(op):
    """(c, L) of a linear operator's pencil against the diagonal Gram matrix
    diag(hw) of the weighted l2 pairing, where closed forms are plain."""
    m = op.mesh.dof_count
    return operators._pencil_extremes(*op.gram_tridiag(), np.zeros(m - 1), op.mesh.hw)


def reference_pencil_extremes(K_off, K_diag, G_off, G_diag):
    """The reference for `operators._pencil_extremes`: the same bisection,
    with every probe built as sign * (K - mu G) and factored by dpttrf."""
    if not (K_diag.any() or K_off.any()):
        return 0.0, 0.0

    def factor(sign, mu):
        return _cholesky_tridiag(sign * (K_off - mu * G_off), sign * (K_diag - mu * G_diag))

    def G_apply(x):
        return _tridiag_apply(G_off, G_diag, G_off, x)

    def bisect(sign, definite, other, fac):
        # `definite` keeps a point where sign * (K - mu G) is positive definite
        while definite != (mid := 0.5 * (definite + other)) != other:
            trial = factor(sign, mid)
            if trial is None:
                other = mid
            else:
                definite, fac = mid, trial
        return definite, fac

    def refine(fac):
        x = np.ones_like(K_diag)
        for _ in range(3):
            x = _cholesky_solve(fac, G_apply(x))
            x /= np.linalg.norm(x)
        kx = _tridiag_apply(K_off, K_diag, K_off, x)
        return float(np.dot(x, kx) / np.dot(x, G_apply(x)))

    # L: mu G - K turns positive definite above the largest eigenvalue
    lo, hi = 0.0, 1.0
    while (fac := factor(-1.0, hi)) is None:
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            raise SolverError("operator spectrum has no finite upper bound")
    hi, fac = bisect(-1.0, hi, lo, fac)
    L = refine(fac)
    # c: K - mu G stays positive definite below the smallest eigenvalue
    fac = factor(1.0, 0.0)
    if fac is None:
        return 0.0, L
    _, fac = bisect(1.0, 0.0, hi, fac)
    c = refine(fac)
    return (c if c > K_diag.size * np.finfo(float).eps * L else 0.0), L


def fd_jacobian(op, u, step=1e-6):
    cols = []
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = step
        cols.append((op.matvec(u + e) - op.matvec(u - e)) / (2.0 * step))
    return np.column_stack(cols)


def identity_operator(mesh, scale=1.0):
    m = mesh.dof_count
    return LinearEllipticOperator(mesh, np.zeros(m - 1), scale * np.ones(m), np.zeros(m - 1))


class TestAssembly:
    def test_neumann_annihilates_constants(self):
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        out = op.matvec(np.ones(mesh.dof_count))
        assert np.max(np.abs(out - 1.0)) <= 1e-13

    def test_dirichlet_hat_stencil(self):
        mesh = make_mesh(4, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        out = op.matvec(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(out, [-16.0, 32.0, -16.0], atol=1e-12)

    def test_coefficient_perturbation_scales(self):
        # a = 1 + 1/m: the operator difference shrinks like 1/m
        mesh = make_mesh(32, "dirichlet")
        base = assemble_linear(mesh, 1.0, 0.0).dense()
        norms = []
        for m in (4, 8, 16, 32):
            pert = assemble_linear(mesh, 1.0 + 1.0 / m, 0.0).dense()
            norms.append(np.linalg.norm(pert - base, 2))
        scaled = [m * v for m, v in zip((4, 8, 16, 32), norms)]
        assert np.max(scaled) / np.min(scaled) <= 1.0 + 1e-12

    def test_nonpositive_diffusion_rejected(self):
        mesh = make_mesh(8, "dirichlet")
        with pytest.raises(EllipticityError):
            assemble_linear(mesh, 0.0, 0.0)
        with pytest.raises(EllipticityError):
            assemble_linear(mesh, lambda x: x - 0.5, 0.0)

    def test_negative_reaction_rejected(self):
        mesh = make_mesh(8, "dirichlet")
        with pytest.raises(EllipticityError):
            assemble_linear(mesh, 1.0, -0.5)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_weighted_symmetry(self, bc):
        rng = np.random.default_rng(17)
        mesh = make_mesh(24, bc)
        op = assemble_linear(mesh, lambda x: 1.0 + 0.5 * x, lambda x: 0.25 + x * x)
        for _ in range(100):
            u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            lhs = duality_pairing(apply(op, u), v)
            rhs = duality_pairing(apply(op, v), u)
            assert abs(lhs - rhs) <= 1e-12 * norm(u, "l2") * norm(v, "l2") + 1e-14

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_positive_definite(self, bc):
        rng = np.random.default_rng(23)
        mesh = make_mesh(12, bc)
        op = assemble_linear(mesh, 1.0, 1.0)
        for _ in range(20):
            u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            assert duality_pairing(apply(op, u), u) > 0.0

    def test_t_monotone_surrogate(self):
        rng = np.random.default_rng(31)
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, lambda x: 1.0 + x, 0.5)
        from qvar.grid import pos_part

        for _ in range(100):
            u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            gap = duality_pairing(apply(op, u) - apply(op, v), pos_part(u - v))
            assert gap >= -1e-10


class TestApply:
    def test_p2_equals_laplacian_any_eps(self):
        mesh = make_mesh(4, "dirichlet")
        plap = PLaplacianOperator(mesh, 2.0, 0.7)
        lap = assemble_linear(mesh, 1.0, 0.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(3)
        assert np.max(np.abs(plap.matvec(u) - lap.matvec(u))) <= 1e-12

    def test_p4_hat_flux_values(self):
        mesh = make_mesh(4, "dirichlet")
        plap = PLaplacianOperator(mesh, 4.0, 0.0)
        out = plap.matvec(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(out, [-256.0, 512.0, -256.0], atol=1e-9)

    def test_zero_amplitude_composite_is_base(self):
        mesh = make_mesh(8, "neumann")
        base = assemble_linear(mesh, 1.0, 1.0)
        comp = NonMonotoneOperator(base, 0.0)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(mesh.dof_count)
        assert np.array_equal(comp.matvec(u), base.matvec(u))

    def test_linear_homogeneity_dyadic_exact(self):
        mesh = make_mesh(16, "dirichlet")
        op = assemble_linear(mesh, lambda x: 1.0 + x, 1.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh.dof_count)
        for t in (2.0, 0.5, 4.0):
            assert np.array_equal(op.matvec(t * u), t * op.matvec(u))

    def test_plaplacian_degree_p_minus_1(self):
        mesh = make_mesh(16, "dirichlet")
        rng = np.random.default_rng(4)
        u = rng.standard_normal(mesh.dof_count)
        for p in (2.0, 3.0, 4.0):
            plap = PLaplacianOperator(mesh, p, 0.0)
            for t in (0.5, 2.0, 3.0):
                lhs = plap.matvec(t * u)
                rhs = t ** (p - 1.0) * plap.matvec(u)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_dirichlet_only(self):
        with pytest.raises(GridMismatchError):
            PLaplacianOperator(make_mesh(8, "neumann"), 3.0)


class TestSolveUnconstrained:
    def test_constant_eigenvector(self):
        mesh = make_mesh(32, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        u = solve_unconstrained(op, GridFunction.constant(mesh, 1.0))
        assert np.max(np.abs(u.values - 1.0)) <= 1e-12

    def test_shifted_constant(self):
        mesh = make_mesh(32, "neumann")
        eps = 0.3
        op = assemble_linear(mesh, 1.0, 1.0 + eps)
        u = solve_unconstrained(op, GridFunction.constant(mesh, 1.0))
        assert np.max(np.abs(u.values - 1.0 / (1.0 + eps))) <= 1e-12

    def test_random_spd_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mesh = make_mesh(int(rng.integers(4, 20)), "dirichlet")
            op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), rng.uniform(0, 1, mesh.dof_count))
            f = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            u = solve_unconstrained(op, f)
            resid = np.max(np.abs(op.matvec(u.values) - f.values))
            assert resid <= 1e-10 * max(np.max(np.abs(f.values)), 1e-300)

    def test_nonlinear_rejected(self):
        mesh = make_mesh(8, "dirichlet")
        plap = PLaplacianOperator(mesh, 3.0, 0.0)
        with pytest.raises(SolverError):
            solve_unconstrained(plap, GridFunction.constant(mesh, 1.0))

    def test_singular_matrix(self):
        # the a0 = 0 stiffness on a neumann mesh annihilates constants
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 0.0)
        with pytest.raises(SolverError) as info:
            solve_unconstrained(op, GridFunction.constant(mesh, 1.0))
        assert str(info.value) == "tridiagonal solve failed: singular matrix"

    @pytest.mark.parametrize("n", [16, 64, 4096])
    def test_backward_error_rejects_wrong_solve(self, n, monkeypatch):
        # u from the system with one diagonal entry changed by 1e-8 relative
        exact_solve = operators._tridiag_solve

        def perturbed_solve(sub, diag, sup, rhs, what):
            diag = diag.copy()
            diag[diag.size // 2] *= 1.0 + 1e-8
            return exact_solve(sub, diag, sup, rhs, what)

        prob = builtin_problem("example1d", n=n)
        assert solve_unconstrained(prob.operator, prob.f) is not None
        monkeypatch.setattr(operators, "_tridiag_solve", perturbed_solve)
        with pytest.raises(SolverError, match=r"^componentwise backward error \S+ exceeds 64 \* eps$"):
            solve_unconstrained(prob.operator, prob.f)


class TestTridiagSolve:
    """The dgtsv solve against scipy.linalg.solve_banded, which calls the same
    routine and serves here only as the reference."""

    @staticmethod
    def reference(sub, diag, sup, rhs):
        ab = np.zeros((3, diag.size))
        ab[0, 1:] = sup
        ab[1] = diag
        ab[2, :-1] = sub
        return solve_banded((1, 1), ab, rhs)

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 2047])
    def test_random_nonsymmetric_bitwise(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            sub, sup = rng.standard_normal(m - 1), rng.standard_normal(m - 1)
            diag, rhs = rng.standard_normal(m), rng.standard_normal(m)
            x = _tridiag_solve(sub, diag, sup, rhs, "test")
            np.testing.assert_array_equal(x, self.reference(sub, diag, sup, rhs))

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 2047])
    def test_newton_systems_with_held_rows_bitwise(self, m, monkeypatch):
        rng = np.random.default_rng(100 + m)
        op = PLaplacianOperator(make_mesh(m + 1, "dirichlet"), 3.0, 1e-3)
        systems = []

        def recording_solve(sub, diag, sup, rhs, what):
            systems.append((sub, diag, sup, rhs))
            return _tridiag_solve(sub, diag, sup, rhs, what)

        monkeypatch.setattr("qvar.vi_solver._tridiag_solve", recording_solve)
        for _ in range(5):
            y = rng.standard_normal(m)
            held = rng.random(m) < 0.3
            x = _newton_step(op.jacobian_bands(y), held, rng.standard_normal(m), rng.standard_normal(m))
            np.testing.assert_array_equal(x, self.reference(*systems[-1]))

    @pytest.mark.parametrize("m", [1, 3])
    def test_singular_message(self, m):
        diag = np.ones(m)
        diag[m // 2] = 0.0
        with pytest.raises(SolverError) as info:
            _tridiag_solve(np.zeros(m - 1), diag, np.zeros(m - 1), np.ones(m), "what")
        assert str(info.value) == "what: singular matrix"

    # (m, index of the bad entry among sub, diag, sup, rhs); one dof has no off-diagonals
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m, slot", [(1, 1), (1, 3)] + [(4, slot) for slot in range(4)])
    def test_nan_entry_is_value_error(self, m, slot, bad):
        args = [np.ones(m - 1), np.full(m, 4.0), np.ones(m - 1), np.ones(m)]
        args[slot][0] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            _tridiag_solve(*args, "what")


class TestOneDof:
    """Closed forms on the dirichlet mesh n=2: one dof at x = 1/2 with pairing
    weight hw = 1/2 and h1 Gram entry hw + 2/h = 9/2."""

    mesh = make_mesh(2, "dirichlet")

    @pytest.mark.parametrize("a0", [0.0, 1.0])
    def test_estimate_constants(self, a0):
        op = assemble_linear(self.mesh, 1.0, a0)
        k = 0.5 * (8.0 + a0)  # hw times the stiffness 2/h^2 + a0
        con = estimate_constants(op)
        assert con.c == pytest.approx(k / 4.5, rel=1e-15)
        assert con.L == pytest.approx(k / 4.5, rel=1e-15)
        c, L = diagonal_gram_extremes(op)
        assert c == pytest.approx(k / 0.5, rel=1e-15)
        assert L == pytest.approx(k / 0.5, rel=1e-15)

    def test_dual_norm(self):
        g = GridFunction.constant(self.mesh, 3.0)
        assert dual_norm(g) == pytest.approx(1.5 / np.sqrt(4.5), rel=1e-15)

    def test_h1_lipschitz_bound(self):
        # alpha * sqrt(9/2) * k(1/2, 1/2) * sqrt(hw) = 0.25 * 3/2
        psi = GridFunction.constant(self.mesh, 0.05)
        omap = ObstacleMap.kernel(self.mesh, psi, 0.25, gauss_kernel(0.25))
        assert lipschitz_bound(omap) == pytest.approx(0.375, rel=1e-15)


class TestBandLayout:
    """Bands as LAPACK takes them: m diagonal and m - 1 off-diagonal entries."""

    mesh = make_mesh(8, "dirichlet")

    def test_constructor_takes_m_minus_1_off_diagonals(self):
        m = self.mesh.dof_count
        op = LinearEllipticOperator(self.mesh, -np.ones(m - 1), np.full(m, 4.0), -np.ones(m - 1))
        assert op.matvec(np.ones(m)).tolist() == [3.0] + [2.0] * (m - 2) + [3.0]

    @pytest.mark.parametrize("size", [7, 5], ids=["padded", "short"])
    @pytest.mark.parametrize(
        "wrong", [("lower",), ("upper",), ("lower", "upper")], ids=["lower", "upper", "both"]
    )
    def test_constructor_rejects_other_off_diagonals(self, size, wrong):
        m = self.mesh.dof_count
        off = {key: np.zeros(size if key in wrong else m - 1) for key in ("lower", "upper")}
        message = "^tridiagonal bands must have 7 diagonal and 6 off-diagonal entries$"
        with pytest.raises(GridMismatchError, match=message):
            LinearEllipticOperator(self.mesh, off["lower"], np.ones(m), off["upper"])

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_builtin_jacobian_band_shapes(self, name, n):
        op = builtin_problem(name, n=n, bc="dirichlet").operator
        m = op.mesh.dof_count
        u = np.linspace(-0.3, 0.3, m)
        reg = add_regularization(op, 0.1)
        for o in (op, reg):
            shapes = tuple(band.shape for band in o.jacobian_bands(u))
            assert shapes == ((m - 1,), (m,), (m - 1,))

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_gram_band_shapes(self, n, bc):
        mesh = make_mesh(n, bc)
        m = mesh.dof_count
        for off, diag in (assemble_linear(mesh, 1.0, 1.0).gram_tridiag(), _h1_gram_banded(mesh)):
            assert (off.shape, diag.shape) == ((m - 1,), (m,))


class TestJacobianBands:
    def operators(self):
        mesh = make_mesh(16, "dirichlet")
        lin = assemble_linear(mesh, lambda x: 1.0 + 0.5 * x, lambda x: x)
        plap = PLaplacianOperator(mesh, 3.0, 1e-2)
        return {
            "linear": lin,
            "sine": NonMonotoneOperator(lin, 0.3),
            "plaplacian": plap,
            "plaplacian_p4": PLaplacianOperator(mesh, 4.0, 1e-3),
            "regularized": add_regularization(plap, 0.3),
            "regularized_sine": add_regularization(NonMonotoneOperator(lin, 0.3), 0.1),
        }

    @pytest.mark.parametrize(
        "name",
        ["linear", "sine", "plaplacian", "plaplacian_p4", "regularized", "regularized_sine"],
    )
    def test_matches_central_differences(self, name):
        op = self.operators()[name]
        u = np.random.default_rng(17).uniform(-0.3, 0.3, op.mesh.dof_count)
        J = dense_bands(op.jacobian_bands(u))
        fd = fd_jacobian(op, u)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))


class TestConstants:
    def test_neumann_reaction_smallest_eigenvalue(self):
        mesh = make_mesh(64, "neumann")
        c, _ = diagonal_gram_extremes(assemble_linear(mesh, 1.0, 1.0))
        assert c == pytest.approx(1.0, abs=1e-6)

    def test_h1_identity_pair(self):
        # for -u'' + u the pairing coincides with the h1 inner product
        mesh = make_mesh(64, "neumann")
        con = estimate_constants(assemble_linear(mesh, 1.0, 1.0))
        assert con.c == pytest.approx(1.0, abs=1e-9)
        assert con.L == pytest.approx(1.0, abs=1e-9)

    def test_scaled_identity(self):
        mesh = make_mesh(8, "dirichlet")
        c, L = diagonal_gram_extremes(identity_operator(mesh, 3.0))
        assert c == pytest.approx(3.0, abs=1e-8)
        assert L == pytest.approx(3.0, abs=1e-8)

    def test_sine_alone_closed_form(self):
        mesh = make_mesh(16, "neumann")
        zero = identity_operator(mesh, 0.0)
        zero.diag[:] = 0.0
        con = estimate_constants(NonMonotoneOperator(zero, 0.3))
        assert con.c == 0.0
        assert con.gamma == con.L == 0.3

    def test_composite_structural(self):
        mesh = make_mesh(32, "neumann")
        base = assemble_linear(mesh, 1.0, 1.0)
        comp = NonMonotoneOperator(base, 0.1)
        con, _ = operator_structural_constants(comp)
        assert con.gamma == pytest.approx(0.1)
        assert con.c == pytest.approx(1.0, abs=1e-8)
        assert con.L == pytest.approx(1.1, abs=1e-8)

    def test_invalid_constants_rejected(self):
        from qvar.operators import OperatorConstants

        with pytest.raises(ValueError):
            OperatorConstants(c=2.0, L=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            OperatorConstants(c=1.0, L=1.0, gamma=-0.1)
        with pytest.raises(ValueError):
            OperatorConstants(c=np.inf, L=np.inf, gamma=0.0)
        with pytest.raises(ValueError):
            OperatorConstants(c=1.0, L=np.nan, gamma=0.0)
        with pytest.raises(ValueError):
            OperatorConstants(c=1.0, L=np.inf, gamma=np.inf)
        with pytest.raises(ValueError, match="0 <= gamma <= L"):
            OperatorConstants(c=0.5, L=1.0, gamma=1.5)

    def test_composite_nonlinearity_bounded_by_amplitude(self):
        mesh = make_mesh(24, "neumann")
        base = assemble_linear(mesh, 1.0, 1.0)
        comp = NonMonotoneOperator(base, 0.3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.standard_normal(mesh.dof_count) * 5.0
            gap = comp.matvec(u) - base.matvec(u)
            assert np.max(np.abs(gap)) <= 0.3 + 1e-15


class TestPencilConstants:
    """Linear constants against the closed-form lumped spectrum of -u'' on a
    dirichlet mesh, lambda_k = 4/h^2 sin^2(k pi h / 2): the h1 pencil has
    eigenvalues lambda_k / (1 + lambda_k), the pencil against the diagonal
    l2 Gram matrix lambda_k itself."""

    @staticmethod
    def lumped_extremes(n):
        h = 1.0 / n
        lam = 4.0 / h**2 * np.sin(np.array([1, n - 1]) * np.pi * h / 2.0) ** 2
        return lam

    @pytest.mark.parametrize("n", [128, 256, 1024, 4096])
    @pytest.mark.parametrize("gram", ["h1", "l2"])
    def test_closed_form(self, n, gram):
        lam = self.lumped_extremes(n)
        op = assemble_linear(make_mesh(n, "dirichlet"), 1.0, 0.0)
        if gram == "h1":
            con = estimate_constants(op)
            c, L = con.c, con.L
            lam = lam / (1.0 + lam)
        else:
            c, L = diagonal_gram_extremes(op)
        assert c == pytest.approx(lam[0], rel=1e-9, abs=0.0)
        assert L == pytest.approx(lam[1], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [64, 256, 2048])
    def test_kernel_qvi_constants_accuracy(self, n):
        # certify prints Rayleigh quotients: c is off by up to about m^2 eps
        # relative (1.2e-12 at n = 2048), on either side of the exact value
        lam = self.lumped_extremes(n)
        lam = lam / (1.0 + lam)
        con = estimate_constants(builtin_problem("kernel_qvi", n=n).operator)
        assert con.c == pytest.approx(lam[0], rel=1e-11, abs=0.0)
        assert con.L == pytest.approx(lam[1], rel=1e-11, abs=0.0)

    def test_example1d_certificate_row(self):
        row = problem_certificate(builtin_problem("example1d", n=64)).csv_row()
        assert row == "1,1,0,0,0.25,0.25,True"

    def test_indefinite_operator_has_zero_coercivity(self):
        mesh = make_mesh(16, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        op.diag[:] -= 20.0  # shifts below the smallest eigenvalue pi^2
        c, L = diagonal_gram_extremes(op)
        assert c == 0.0
        assert L == pytest.approx(self.lumped_extremes(16)[1] - 20.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 16, 128, 512, 2048])
    def test_singular_neumann_stiffness_has_zero_coercivity(self, n):
        # a0 = 0 on a neumann mesh: K annihilates constants, whatever the
        # rounding of the Cholesky test at mu = 0 says
        cert = problem_certificate(builtin_problem("fixed_obstacle", n=n, bc="neumann"))
        assert cert.c == 0.0
        assert not cert.smallness_ok


class TestPencilProbes:
    """`_pencil_extremes` gives the reference's (c, L) bit for bit, value and
    sign, and certify leaves its cached mesh data as it found them."""

    @staticmethod
    def assert_same_bits(bands):
        got = operators._pencil_extremes(*bands)
        want = reference_pencil_extremes(*bands)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 64, 100, 1024, 2048])
    @pytest.mark.parametrize(
        "name, bc",
        [(name, bc) for name in BUILTINS for bc in ("dirichlet", "neumann")
         if (name, bc) != ("plaplacian", "neumann")],
    )
    def test_builtins_match_reference(self, name, bc, n):
        op = builtin_problem(name, n=n, bc=bc).operator
        for eps in (0.0, 1e-3, 0.3):
            linear, _, _ = add_regularization(op, eps).linear_split()
            self.assert_same_bits((*linear.gram_tridiag(), *_h1_gram_banded(op.mesh)))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_random_operators_match_reference(self, bc):
        # variable coefficients over six decades, half of them with a0 = 0
        # (singular on neumann), against the h1 and the diagonal l2 Gram
        rng = np.random.default_rng(27)
        for k in range(25):
            mesh = make_mesh(int(rng.integers(2, 300)), bc)
            a = rng.uniform(0.01, 10.0, mesh.n) * rng.choice([1e-4, 1.0, 1e4])
            a0 = rng.uniform(0.0, 5.0, mesh.dof_count) * (k % 2)
            K = assemble_linear(mesh, a, a0).gram_tridiag()
            self.assert_same_bits((*K, *_h1_gram_banded(mesh)))
            self.assert_same_bits((*K, np.zeros(mesh.dof_count - 1), mesh.hw))

    def test_nan_first_entry_reaches_lapack(self, monkeypatch):
        mesh = make_mesh(8, "dirichlet")
        K_off, K_diag = assemble_linear(mesh, 1.0, 0.0).gram_tridiag()
        K_diag[0] = np.nan
        calls = []
        dpttrf = grid.dpttrf
        monkeypatch.setattr(grid, "dpttrf", lambda *a, **kw: calls.append(1) or dpttrf(*a, **kw))
        for pencil in (operators._pencil_extremes, reference_pencil_extremes):
            # the doubling search overflows mu G on its way to inf
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SolverError, match="^operator spectrum has no finite upper bound$"
            ):
                pencil(K_off, K_diag, *_h1_gram_banded(mesh))
            assert calls
            calls.clear()

    @pytest.mark.parametrize("name", ["kernel_qvi", "example1d"])
    def test_certify_keeps_cached_inputs(self, name, monkeypatch):
        # f2py factors in place even into a read-only array, so a probe that
        # handed dpttrf the cached Gram bands would corrupt every later
        # certificate and dual norm on the mesh
        dpttrf = grid.dpttrf
        calls = []
        monkeypatch.setattr(grid, "dpttrf", lambda *a, **kw: calls.append(1) or dpttrf(*a, **kw))
        for n in (2, 8, 64, 2048):
            prob = builtin_problem(name, n=n)
            mesh = prob.operator.mesh
            cached = (*_h1_gram_banded(mesh), *_h1_gram_cholesky(mesh), mesh.hw)
            before = [a.tobytes() for a in cached]
            calls.clear()
            first = problem_certificate(prob)
            if (name, n) == ("kernel_qvi", 2048):
                assert len(calls) <= 90  # 108 when every probe called dpttrf
            assert [a.tobytes() for a in cached] == before
            again = (*_h1_gram_banded(mesh), *_h1_gram_cholesky(mesh), mesh.hw)
            assert all(a is b for a, b in zip(again, cached))
            assert problem_certificate(prob) == first


class TestStructuralBounds:
    """Nonlinear constants are closed-form bounds: a linear part read from
    its pencil plus a remainder with known defect and Lipschitz constant."""

    @staticmethod
    def ratios(op, u, v):
        # monotonicity <A u - A v, u - v> / ||u - v||^2 and Lipschitz
        # ||A u - A v||_* / ||u - v|| in the h1 norm pair
        mesh = op.mesh
        du = GridFunction(mesh, u - v)
        dop = GridFunction(mesh, op.matvec(u) - op.matvec(v))
        nd = norm(du, "h1")
        return duality_pairing(dop, du) / nd**2, dual_norm(dop) / nd

    @pytest.mark.parametrize("n", [64, 1024])
    def test_plaplacian_c_below_a_smooth_pair(self, n):
        mesh = make_mesh(n, "dirichlet")
        plap = PLaplacianOperator(mesh, 3.0, 1e-3)
        con = estimate_constants(plap)
        u = 1e-3 * np.sin(np.pi * mesh.dof_nodes())
        mono, _ = self.ratios(plap, u, np.zeros_like(u))
        assert con.c <= mono
        assert con.c == pytest.approx(1e-3**0.5 * np.pi**2 / (1.0 + np.pi**2), rel=1e-3)
        assert con.L == np.inf and con.gamma == 0.0

    def test_p2_is_the_stiffness_pencil(self):
        mesh = make_mesh(32, "dirichlet")
        con = estimate_constants(PLaplacianOperator(mesh, 2.0, 1e-3))
        ref = estimate_constants(assemble_linear(mesh, 1.0, 0.0))
        assert con.c == pytest.approx(ref.c, rel=1e-12)
        assert con.L == pytest.approx(ref.L, rel=1e-12)
        assert con.gamma == 0.0

    def test_unregularized_plaplacian_has_zero_coercivity(self):
        con = estimate_constants(PLaplacianOperator(make_mesh(16, "dirichlet"), 3.0, 0.0))
        assert con.c == 0.0
        assert con.L == np.inf

    def test_random_pairs_respect_the_bounds(self):
        ops = TestJacobianBands().operators()
        rng = np.random.default_rng(23)
        for name in ("plaplacian", "plaplacian_p4", "regularized", "sine", "regularized_sine"):
            op = ops[name]
            con = estimate_constants(op)
            for scale in (1e-3, 1.0, 10.0):
                for _ in range(20):
                    u = scale * rng.standard_normal(op.mesh.dof_count)
                    v = scale * rng.standard_normal(op.mesh.dof_count)
                    mono, lip = self.ratios(op, u, v)
                    assert mono >= (con.c - con.gamma) * (1.0 - 1e-12), name
                    assert lip <= con.L * (1.0 + 1e-12), name

    def test_regularized_sine_split(self):
        ops = TestJacobianBands().operators()
        con, l_n = operator_structural_constants(ops["regularized_sine"])
        assert con.gamma == l_n == 0.3
        assert np.isfinite(con.L)

    def test_unknown_operator_rejected(self):
        class Opaque:
            mesh = make_mesh(4, "dirichlet")

        with pytest.raises(TypeError, match="no structural constants for Opaque"):
            estimate_constants(Opaque())


class TestRegularization:
    def test_zero_is_identity(self):
        mesh = make_mesh(8, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        assert add_regularization(op, 0.0) is op

    def test_constant_shift(self):
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        eps = 0.25
        reg = add_regularization(op, eps)
        out = reg.matvec(np.ones(mesh.dof_count))
        assert np.max(np.abs(out - (1.0 + eps))) <= 1e-13

    def test_l2_coercivity_shift(self):
        mesh = make_mesh(32, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        c0, _ = diagonal_gram_extremes(op)
        c1, _ = diagonal_gram_extremes(add_regularization(op, 0.5))
        assert c1 - c0 == pytest.approx(0.5, abs=1e-6)

    def test_negative_parameters_rejected(self):
        mesh = make_mesh(8, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        with pytest.raises(ValueError):
            add_regularization(op, -0.1)

    @pytest.mark.parametrize("p, eps, message", [
        (1.5, 0.0, "exponent must satisfy p >= 2, got 1.5"),
        (float("nan"), 0.0, "exponent must satisfy p >= 2, got nan"),
        (3.0, -1e-3, "regularization eps must be nonnegative, got -0.001"),
        (3.0, float("nan"), "regularization eps must be nonnegative, got nan"),
    ])
    def test_plaplacian_parameters_rejected(self, p, eps, message):
        # one rule each for p and for eps, shared with the config reader; nan fails too
        with pytest.raises(ValueError) as info:
            PLaplacianOperator(make_mesh(8, "dirichlet"), p, eps)
        assert str(info.value) == message

    def test_nan_regularization_rejected(self):
        with pytest.raises(ValueError, match="^regularization eps must be nonnegative, got nan$"):
            add_regularization(assemble_linear(make_mesh(8, "neumann"), 1.0, 1.0), float("nan"))

    def test_regularized_sine_energy_gradient(self):
        # the gradient of the potential in the weighted pairing is the operator
        mesh = make_mesh(32, "neumann")
        base = assemble_linear(mesh, 1.0, 1.0)
        op = add_regularization(NonMonotoneOperator(base, 0.1), 0.1)
        u = np.random.default_rng(3).uniform(-0.5, 0.5, mesh.dof_count)
        t = 1e-5
        grad = np.array(
            [(op.energy(u + t * e) - op.energy(u - t * e)) / (2 * t) for e in np.eye(u.size)]
        )
        want = mesh.hw * op.matvec(u)
        assert np.max(np.abs(grad - want)) <= 1e-8 * np.max(np.abs(want))

    def test_nonlinear_wrapper(self):
        mesh = make_mesh(16, "dirichlet")
        plap = PLaplacianOperator(mesh, 3.0, 1e-3)
        reg = add_regularization(plap, 0.5)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(mesh.dof_count)
        assert np.max(np.abs(reg.matvec(u) - (plap.matvec(u) + 0.5 * u))) <= 1e-13

    @staticmethod
    def operators():
        mesh = make_mesh(16, "dirichlet")
        lin = assemble_linear(mesh, lambda x: 1.0 + 0.5 * x, lambda x: x)
        return {
            "linear": lin,
            "sine": NonMonotoneOperator(lin, 0.3),
            "plaplacian_p2": PLaplacianOperator(mesh, 2.0, 1e-2),
            "plaplacian_p3": PLaplacianOperator(mesh, 3.0, 1e-2),
        }

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("name", ["linear", "sine", "plaplacian_p2", "plaplacian_p3"])
    def test_keeps_class_and_bits(self, name, eps):
        op = self.operators()[name]
        reg = add_regularization(op, eps)
        assert type(reg) is type(op)
        u = np.random.default_rng(23).uniform(-0.5, 0.5, op.mesh.dof_count)
        lower, diag, upper = op.jacobian_bands(u)
        reg_lower, reg_diag, reg_upper = reg.jacobian_bands(u)
        assert np.array_equal(reg_lower, lower) and np.array_equal(reg_upper, upper)
        assert np.array_equal(reg_diag, diag + eps)
        want = op.matvec(u) + eps * u
        want_energy = op.energy(u) + 0.5 * eps * float(np.dot(u, op.mesh.hw * u))
        if name == "linear":
            # eps enters the assembled diagonal, so it rounds together with A u
            scale = operators._residual_scale(reg.jacobian_bands(u), u, np.zeros_like(u))
            assert np.all(np.abs(reg.matvec(u) - want) <= 4 * np.finfo(float).eps * scale)
            assert reg.energy(u) == pytest.approx(want_energy, rel=1e-14)
        else:
            # a nonlinear operator adds its shift last
            assert np.array_equal(reg.matvec(u), want)
            assert reg.energy(u) == want_energy

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_builtin_linear_split(self, name, eps):
        # the regularized split is the plain split with eps on the diagonal of
        # its linear part, and the constants and the supersolution read it
        prob = builtin_problem(name, n=16, bc="dirichlet")
        op = prob.operator
        reg = add_regularization(op, eps)
        linear, gamma, lip = op.linear_split()
        reg_linear, reg_gamma, reg_lip = reg.linear_split()
        assert (reg_gamma, reg_lip) == (gamma, lip)
        assert np.array_equal(reg_linear.lower, linear.lower)
        assert np.array_equal(reg_linear.upper, linear.upper)
        assert np.array_equal(reg_linear.diag, linear.diag + eps)
        shifted = LinearEllipticOperator(op.mesh, linear.lower, linear.diag + eps, linear.upper)
        lin_con = estimate_constants(shifted)
        assert estimate_constants(reg) == operators.OperatorConstants(
            c=lin_con.c, L=lin_con.L + lip, gamma=gamma
        )
        sup = unconstrained_supersolution(reg, prob.f)
        if lip < np.inf:
            assert np.array_equal(sup.values, solve_unconstrained(shifted, prob.f).values)
        else:
            # the Newton solve sees the same values as through a wrapper that
            # adds eps*u after the plain operator
            class Shifted:
                mesh = op.mesh

                def matvec(self, u):
                    return op.matvec(u) + eps * u

                def jacobian_bands(self, u):
                    lower, diag, upper = op.jacobian_bands(u)
                    return lower, diag + eps, upper

                def energy(self, u):
                    return op.energy(u) + 0.5 * eps * float(np.dot(u, op.mesh.hw * u))

            huge = GridFunction.constant(op.mesh, 1e300)
            direct = solve_vi(Shifted(), prob.f, huge, VIParams()).solution
            assert np.array_equal(sup.values, direct.values)

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_nested_regularization_collapses(self, name):
        op = builtin_problem(name, n=16, bc="dirichlet").operator
        a, b = 0.1, 0.3
        twice = add_regularization(add_regularization(op, a), b)
        once = add_regularization(op, a + b)
        assert type(twice) is type(op)
        if isinstance(op, LinearEllipticOperator):
            assert np.array_equal(twice.diag, op.diag + a + b)
        else:
            assert twice.shift == a + b
        u = np.random.default_rng(29).uniform(-0.5, 0.5, op.mesh.dof_count)
        want = once.matvec(u)
        assert np.max(np.abs(twice.matvec(u) - want)) <= 1e-15 * np.max(np.abs(want))


class TestPLaplacianRegularizedConvergence:
    @staticmethod
    def _gaps(eps_values):
        # operator difference against the plain p-Laplacian for a fixed smooth
        # input, measured in the discrete dual norm
        mesh = make_mesh(64, "dirichlet")
        v = GridFunction(mesh, np.sin(np.pi * mesh.dof_nodes()))
        base = apply(PLaplacianOperator(mesh, 3.0, 0.0), v)
        return [
            dual_norm(apply(PLaplacianOperator(mesh, 3.0, eps), v) - base)
            for eps in eps_values
        ]

    def test_halving_path_decreases_and_vanishes(self):
        eps_values = [0.1]
        while eps_values[-1] > 1e-6:
            eps_values.append(eps_values[-1] / 2.0)
        gaps = self._gaps(eps_values)
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3

    def test_decade_path_decreases_and_vanishes(self):
        gaps = self._gaps([10.0 ** (-k) for k in range(1, 7)])
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3
