import numpy as np
import pytest
from scipy.linalg import solve_banded

from qvar import operators
from qvar.errors import EllipticityError, GridMismatchError, MissingRegularizerError, SolverError
from qvar.grid import GridFunction, _norm_gram_bands, dual_norm, duality_pairing, make_mesh, norm
from qvar.obstacle import ObstacleMap, lipschitz_bound
from qvar.problems import BUILTINS, builtin_problem, gauss_kernel
from qvar.qvi_solver import operator_structural_constants, problem_certificate
from qvar.operators import (
    LinearEllipticOperator,
    NonMonotoneOperator,
    PLaplacianOperator,
    add_regularization,
    apply,
    assemble_linear,
    estimate_constants,
    solve_unconstrained,
    _tridiag_solve,
)
from qvar.vi_solver import _newton_step


def dense_bands(bands):
    lower, diag, upper = bands
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


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

    # (m, index of the NaN among sub, diag, sup, rhs); one dof has no off-diagonals
    @pytest.mark.parametrize("m, slot", [(1, 1), (1, 3)] + [(4, slot) for slot in range(4)])
    def test_nan_entry_is_value_error(self, m, slot):
        args = [np.ones(m - 1), np.full(m, 4.0), np.ones(m - 1), np.ones(m)]
        args[slot][0] = np.nan
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
        for tag, g in (("h1", 4.5), ("l2", 0.5)):
            con = estimate_constants(op, tag)
            assert con.c == pytest.approx(k / g, rel=1e-15)
            assert con.L == pytest.approx(k / g, rel=1e-15)

    def test_dual_norm(self):
        g = GridFunction.constant(self.mesh, 3.0)
        assert dual_norm(g, "h1") == pytest.approx(1.5 / np.sqrt(4.5), rel=1e-15)

    def test_h1_lipschitz_bound(self):
        # alpha * sqrt(9/2) * k(1/2, 1/2) * sqrt(hw) = 0.25 * 3/2
        psi = GridFunction.constant(self.mesh, 0.05)
        omap = ObstacleMap.kernel(self.mesh, psi, 0.25, gauss_kernel(0.25))
        assert lipschitz_bound(omap, "h1") == pytest.approx(0.375, rel=1e-15)


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
        reg = add_regularization(op, 0.1, 0.2, assemble_linear(op.mesh, 1.0, 1.0))
        for o in (op, reg):
            shapes = tuple(band.shape for band in o.jacobian_bands(u))
            assert shapes == ((m - 1,), (m,), (m - 1,))

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_gram_band_shapes(self, n, bc):
        mesh = make_mesh(n, bc)
        m = mesh.dof_count
        grams = [assemble_linear(mesh, 1.0, 1.0).gram_tridiag()]
        grams += [_norm_gram_bands(mesh, tag) for tag in ("l2", "h1")]
        for off, diag in grams:
            assert (off.shape, diag.shape) == ((m - 1,), (m,))


class TestJacobianBands:
    def operators(self):
        mesh = make_mesh(16, "dirichlet")
        lin = assemble_linear(mesh, lambda x: 1.0 + 0.5 * x, lambda x: x)
        plap = PLaplacianOperator(mesh, 3.0, 1e-2)
        R = assemble_linear(mesh, 2.0, 1.0)
        return {
            "linear": lin,
            "sine": NonMonotoneOperator(lin, 0.3),
            "plaplacian": plap,
            "plaplacian_p4": PLaplacianOperator(mesh, 4.0, 1e-3),
            "regularized": add_regularization(plap, 0.3, 0.2, R),
            "regularized_sine": add_regularization(NonMonotoneOperator(lin, 0.3), 0.1, 0.5, R),
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
        op = assemble_linear(mesh, 1.0, 1.0)
        con = estimate_constants(op, "l2")
        assert con.c == pytest.approx(1.0, abs=1e-6)

    def test_h1_identity_pair(self):
        # for -u'' + u the pairing coincides with the h1 inner product
        mesh = make_mesh(64, "neumann")
        con = estimate_constants(assemble_linear(mesh, 1.0, 1.0), "h1")
        assert con.c == pytest.approx(1.0, abs=1e-9)
        assert con.L == pytest.approx(1.0, abs=1e-9)
        assert con.norm_tag == "h1"

    def test_scaled_identity(self):
        mesh = make_mesh(8, "dirichlet")
        con = estimate_constants(identity_operator(mesh, 3.0), "l2")
        assert con.c == pytest.approx(3.0, abs=1e-8)
        assert con.L == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("tag", ["h1", "l2"])
    def test_sine_alone_closed_form(self, tag):
        mesh = make_mesh(16, "neumann")
        zero = identity_operator(mesh, 0.0)
        zero.diag[:] = 0.0
        con = estimate_constants(NonMonotoneOperator(zero, 0.3), tag)
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
            OperatorConstants(c=2.0, L=1.0, gamma=0.0, norm_tag="l2")
        with pytest.raises(ValueError):
            OperatorConstants(c=1.0, L=1.0, gamma=-0.1, norm_tag="l2")
        with pytest.raises(ValueError):
            OperatorConstants(c=np.inf, L=np.inf, gamma=0.0, norm_tag="l2")
        with pytest.raises(ValueError):
            OperatorConstants(c=1.0, L=np.nan, gamma=0.0, norm_tag="l2")
        with pytest.raises(ValueError):
            OperatorConstants(c=1.0, L=np.inf, gamma=np.inf, norm_tag="l2")
        with pytest.raises(ValueError, match="0 <= gamma <= L"):
            OperatorConstants(c=0.5, L=1.0, gamma=1.5, norm_tag="l2")

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
    eigenvalues lambda_k / (1 + lambda_k), the l2 pencil lambda_k itself."""

    @staticmethod
    def lumped_extremes(n):
        h = 1.0 / n
        lam = 4.0 / h**2 * np.sin(np.array([1, n - 1]) * np.pi * h / 2.0) ** 2
        return lam

    @pytest.mark.parametrize("n", [128, 256, 1024, 4096])
    @pytest.mark.parametrize("tag", ["h1", "l2"])
    def test_closed_form(self, n, tag):
        lam = self.lumped_extremes(n)
        c_exact, L_exact = lam / (1.0 + lam) if tag == "h1" else lam
        con = estimate_constants(assemble_linear(make_mesh(n, "dirichlet"), 1.0, 0.0), tag)
        assert con.c == pytest.approx(c_exact, rel=1e-9, abs=0.0)
        assert con.L == pytest.approx(L_exact, rel=1e-9, abs=0.0)

    def test_example1d_certificate_row(self):
        row = problem_certificate(builtin_problem("example1d", n=64)).csv_row()
        assert row == "1,1,0,0,0.25,0.25,True"

    def test_indefinite_operator_has_zero_coercivity(self):
        mesh = make_mesh(16, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        op.diag[:] -= 20.0  # shifts below the smallest eigenvalue pi^2
        con = estimate_constants(op, "l2")
        assert con.c == 0.0
        assert con.L == pytest.approx(self.lumped_extremes(16)[1] - 20.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 16, 128, 512, 2048])
    def test_singular_neumann_stiffness_has_zero_coercivity(self, n):
        # a0 = 0 on a neumann mesh: K annihilates constants, whatever the
        # rounding of the Cholesky test at mu = 0 says
        cert = problem_certificate(builtin_problem("fixed_obstacle", n=n, bc="neumann"))
        assert cert.c == 0.0
        assert not cert.smallness_ok


class TestStructuralBounds:
    """Nonlinear constants are closed-form bounds: a linear part read from
    its pencil plus a remainder with known defect and Lipschitz constant."""

    @staticmethod
    def ratios(op, u, v, tag):
        # monotonicity <A u - A v, u - v> / ||u - v||^2 and Lipschitz
        # ||A u - A v||_* / ||u - v|| in the tagged norm pair
        mesh = op.mesh
        du = GridFunction(mesh, u - v)
        dop = GridFunction(mesh, op.matvec(u) - op.matvec(v))
        nd = norm(du, tag)
        return duality_pairing(dop, du) / nd**2, dual_norm(dop, tag) / nd

    @pytest.mark.parametrize("n", [64, 1024])
    def test_plaplacian_c_below_a_smooth_pair(self, n):
        mesh = make_mesh(n, "dirichlet")
        plap = PLaplacianOperator(mesh, 3.0, 1e-3)
        con = estimate_constants(plap, "h1")
        u = 1e-3 * np.sin(np.pi * mesh.dof_nodes())
        mono, _ = self.ratios(plap, u, np.zeros_like(u), "h1")
        assert con.c <= mono
        assert con.c == pytest.approx(1e-3**0.5 * np.pi**2 / (1.0 + np.pi**2), rel=1e-3)
        assert con.L == np.inf and con.gamma == 0.0

    @pytest.mark.parametrize("tag", ["h1", "l2"])
    def test_p2_is_the_stiffness_pencil(self, tag):
        mesh = make_mesh(32, "dirichlet")
        con = estimate_constants(PLaplacianOperator(mesh, 2.0, 1e-3), tag)
        ref = estimate_constants(assemble_linear(mesh, 1.0, 0.0), tag)
        assert con.c == pytest.approx(ref.c, rel=1e-12)
        assert con.L == pytest.approx(ref.L, rel=1e-12)
        assert con.gamma == 0.0

    def test_unregularized_plaplacian_has_zero_coercivity(self):
        con = estimate_constants(PLaplacianOperator(make_mesh(16, "dirichlet"), 3.0, 0.0), "h1")
        assert con.c == 0.0
        assert con.L == np.inf

    def test_random_pairs_respect_the_bounds(self):
        ops = TestJacobianBands().operators()
        rng = np.random.default_rng(23)
        for name in ("plaplacian", "plaplacian_p4", "regularized", "sine", "regularized_sine"):
            op = ops[name]
            for tag in ("h1", "l2"):
                con = estimate_constants(op, tag)
                for scale in (1e-3, 1.0, 10.0):
                    for _ in range(20):
                        u = scale * rng.standard_normal(op.mesh.dof_count)
                        v = scale * rng.standard_normal(op.mesh.dof_count)
                        mono, lip = self.ratios(op, u, v, tag)
                        assert mono >= (con.c - con.gamma) * (1.0 - 1e-12), (name, tag)
                        assert lip <= con.L * (1.0 + 1e-12), (name, tag)

    def test_regularized_sine_split(self):
        ops = TestJacobianBands().operators()
        con, l_n = operator_structural_constants(ops["regularized_sine"], "h1")
        assert con.gamma == l_n == 0.3
        assert np.isfinite(con.L)

    def test_unknown_operator_rejected(self):
        class Opaque:
            mesh = make_mesh(4, "dirichlet")

        with pytest.raises(TypeError, match="no structural constants for Opaque"):
            estimate_constants(Opaque(), "h1")


class TestRegularization:
    def test_zero_is_identity(self):
        mesh = make_mesh(8, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        assert add_regularization(op, 0.0, 0.0) is op

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
        c0 = estimate_constants(op, "l2").c
        c1 = estimate_constants(add_regularization(op, 0.5), "l2").c
        assert c1 - c0 == pytest.approx(0.5, abs=1e-6)

    def test_missing_regularizer(self):
        mesh = make_mesh(8, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        with pytest.raises(MissingRegularizerError):
            add_regularization(op, 0.0, delta=0.1)

    def test_negative_parameters_rejected(self):
        mesh = make_mesh(8, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        with pytest.raises(ValueError):
            add_regularization(op, -0.1)

    def test_delta_regularizer_linear_combines(self):
        mesh = make_mesh(16, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        R = identity_operator(mesh)
        combined = add_regularization(op, 0.1, 0.2, R)
        direct = add_regularization(op, 0.1 + 0.2)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(mesh.dof_count)
        scale = np.max(np.abs(direct.matvec(u)))
        assert np.max(np.abs(combined.matvec(u) - direct.matvec(u))) <= 1e-14 * scale

    def test_delta_regularized_sine_energy_gradient(self):
        # the gradient of the potential in the weighted pairing is the operator
        mesh = make_mesh(32, "neumann")
        base = assemble_linear(mesh, 1.0, 1.0)
        R = assemble_linear(mesh, 2.0, 1.0)
        op = add_regularization(NonMonotoneOperator(base, 0.1), 0.1, 0.2, R)
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


class TestPLaplacianRegularizedConvergence:
    @staticmethod
    def _gaps(eps_values):
        # operator difference against the plain p-Laplacian for a fixed smooth
        # input, measured in the discrete dual norm
        mesh = make_mesh(64, "dirichlet")
        v = GridFunction(mesh, np.sin(np.pi * mesh.dof_nodes()))
        base = apply(PLaplacianOperator(mesh, 3.0, 0.0), v)
        return [
            dual_norm(apply(PLaplacianOperator(mesh, 3.0, eps), v) - base, "h1")
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
