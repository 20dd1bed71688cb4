import warnings

import numpy as np
import pytest

from qvar.errors import (
    GridMismatchError,
    OracleInfeasibleError,
    OracleSizeError,
    SolverError,
    StagnationError,
)
from qvar.grid import GridFunction, dual_norm, leq, make_mesh, norm
from qvar.operators import (
    LinearEllipticOperator,
    NonMonotoneOperator,
    PLaplacianOperator,
    assemble_linear,
    estimate_constants,
    solve_unconstrained,
)
from qvar.qvi_solver import OuterParams
from qvar.vi_solver import (
    VIParams,
    _merit,
    active_set_candidates,
    kkt_residual,
    solve_vi,
    solve_vi_active_set_oracle,
)


def random_instance(rng, ndof, bc="dirichlet"):
    mesh = make_mesh(ndof + 1 if bc == "dirichlet" else ndof - 1, bc)
    op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), rng.uniform(0.0, 1.0, ndof))
    f = GridFunction(mesh, rng.standard_normal(ndof))
    psi = GridFunction(mesh, rng.uniform(-0.5, 1.0, ndof))
    return op, f, psi


class TestParams:
    def test_tol_positive(self):
        with pytest.raises(ValueError):
            VIParams(tol=0.0)

    @pytest.mark.parametrize("params", [VIParams, OuterParams])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("tol", -1e-3, "tolerance must be positive, got -0.001"),
            ("max_iter", 0, "max_iter must be positive, got 0"),
        ],
    )
    def test_message_names_field_and_value(self, params, field, value, message):
        # the outer and inner parameter sets share one rule and its message
        with pytest.raises(ValueError) as info:
            params(**{field: value})
        assert str(info.value) == message


class TestLinear:
    def test_inactive_constraint(self):
        mesh = make_mesh(32, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        rep = solve_vi(
            op, GridFunction.constant(mesh, 1.0), GridFunction.constant(mesh, 10.0), VIParams()
        )
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 1.0)) <= 1e-8

    def test_fully_active(self):
        mesh = make_mesh(32, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        rep = solve_vi(
            op, GridFunction.constant(mesh, 1.0), GridFunction.constant(mesh, 0.5), VIParams()
        )
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 0.5)) == 0.0
        # multiplier f - A psi = 0.5 >= 0 at every node
        mult = 1.0 - op.matvec(rep.solution.values)
        assert np.min(mult) >= -1e-12

    def test_feasibility(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            op, f, psi = random_instance(rng, 8)
            rep = solve_vi(op, f, psi, VIParams())
            assert rep.converged
            assert leq(rep.solution, psi, 1e-9)

    def test_report_on_exhaustion(self):
        # the ramp obstacle cuts the unconstrained solution 1 at mid-interval,
        # and a cold solve needs 65 Newton iterations to find the contact set
        mesh = make_mesh(64, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        rep = solve_vi(
            op,
            GridFunction.constant(mesh, 1.0),
            GridFunction(mesh, 0.5 + mesh.dof_nodes()),
            VIParams(max_iter=2),
        )
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.kkt_residual > 1e-10


class TestKkt:
    def test_unconstrained_solution(self):
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        f = GridFunction.constant(mesh, 1.0)
        y = solve_unconstrained(op, f)
        psi = GridFunction.constant(mesh, 1e6)
        assert kkt_residual(op, f, psi, y) <= 1e-10

    def test_active_branch(self):
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.5)
        assert kkt_residual(op, f, psi, psi) <= 1e-10

    def test_violation_measured(self):
        # constant overshoot of 0.1 keeps f - A y = 0.4 positive, so the
        # residual picks up the feasibility gap exactly
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.5)
        y = GridFunction.constant(mesh, 0.6)
        assert kkt_residual(op, f, psi, y) == pytest.approx(0.1)

    def test_mesh_mismatch(self):
        op = assemble_linear(make_mesh(8, "neumann"), 1.0, 1.0)
        other = GridFunction.zeros(make_mesh(4, "neumann"))
        with pytest.raises(GridMismatchError):
            kkt_residual(op, other, other, other)


class TestOracle:
    def test_inactive_equals_unconstrained(self):
        rng = np.random.default_rng(21)
        op, f, _ = random_instance(rng, 6)
        psi = GridFunction.constant(op.mesh, 1e6)
        y = solve_vi_active_set_oracle(op, f, psi)
        u = solve_unconstrained(op, f)
        assert np.max(np.abs(y.values - u.values)) <= 1e-10

    def test_fully_active(self):
        mesh = make_mesh(7, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.5)
        y = solve_vi_active_set_oracle(op, f, psi)
        assert np.max(np.abs(y.values - 0.5)) <= 1e-12

    def test_unique_accepted_set(self):
        rng = np.random.default_rng(33)
        op, f, psi = random_instance(rng, 6)
        accepted = active_set_candidates(op, f, psi)
        assert len(accepted) == 1

    def test_size_guard(self):
        mesh = make_mesh(32, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.zeros(mesh)
        with pytest.raises(OracleSizeError):
            solve_vi_active_set_oracle(op, f, f)

    def test_infeasible_instance_detected(self):
        # negative-definite diagonal: the complementarity system has no solution
        mesh = make_mesh(4, "dirichlet")
        m = mesh.dof_count
        op = LinearEllipticOperator(mesh, np.zeros(m - 1), -np.ones(m), np.zeros(m - 1))
        f = GridFunction.constant(mesh, -1.0)
        psi = GridFunction.zeros(mesh)
        with pytest.raises(OracleInfeasibleError):
            solve_vi_active_set_oracle(op, f, psi)

    def test_neumann_matches_oracle(self):
        rng = np.random.default_rng(7)
        params = VIParams(tol=1e-11)
        for _ in range(30):
            op, f, psi = random_instance(rng, int(rng.integers(3, 9)), "neumann")
            ref = solve_vi_active_set_oracle(op, f, psi)
            rep = solve_vi(op, f, psi, params)
            assert rep.converged
            assert np.max(np.abs(ref.values - rep.solution.values)) <= 1e-10


class TestSingularStiffness:
    """Neumann stiffness with no reaction (a0 = 0): singular with no node held."""

    @pytest.mark.parametrize("n", [2, 8, 13])
    def test_constant_obstacle_matches_oracle(self, n):
        mesh = make_mesh(n, "neumann")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        ref = solve_vi_active_set_oracle(op, f, psi)
        rep = solve_vi(op, f, psi, VIParams())
        assert rep.converged
        assert np.array_equal(rep.solution.values, ref.values)
        assert np.all(rep.solution.values == 0.05)

    @pytest.mark.parametrize("n", [4, 9, 12])
    def test_kernel_obstacle_matches_oracle(self, n):
        from qvar.obstacle import eval_obstacle
        from qvar.problems import builtin_problem

        # the inner problem of the second outer iteration of neumann kernel_qvi
        prob = builtin_problem("kernel_qvi", n=n, bc="neumann")
        mesh = prob.operator.mesh
        psi1 = eval_obstacle(prob.obstacle_map, GridFunction.zeros(mesh))
        y1 = solve_vi(prob.operator, prob.f, psi1, VIParams()).solution
        psi = eval_obstacle(prob.obstacle_map, y1)
        ref = solve_vi_active_set_oracle(prob.operator, prob.f, psi)
        rep = solve_vi(prob.operator, prob.f, psi, VIParams(tol=1e-11))
        assert rep.converged
        assert np.max(np.abs(ref.values - rep.solution.values)) <= 1e-10

    def test_oracle_skips_numerically_singular_free_blocks(self):
        # with variable a, the all-free solve does not raise on the singular
        # stiffness and returned y ~ -1e14 below every obstacle, which the
        # oracle took as its first candidate
        rng = np.random.default_rng(13)
        compared = 0
        for _ in range(30):
            ndof = int(rng.integers(3, 10))
            mesh = make_mesh(ndof - 1, "neumann")
            op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), 0.0)
            f = GridFunction(mesh, rng.uniform(0.1, 2.0, ndof))
            psi = GridFunction(mesh, rng.uniform(-0.5, 1.0, ndof))
            ref = solve_vi_active_set_oracle(op, f, psi)
            try:
                rep = solve_vi(op, f, psi, VIParams())
            except StagnationError:
                continue  # the solver's own open failure on these instances
            assert rep.converged
            assert np.max(np.abs(ref.values - rep.solution.values)) <= 1e-9
            compared += 1
        assert compared >= 25

    def test_negative_force_on_the_obstacle_raises(self):
        # y = psi everywhere with f - A y < 0: nothing is held and the step
        # toward the obstacle is zero, so the singular system is reported
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, -1.0)
        with pytest.raises(SolverError, match="^singular Newton system: singular matrix$"):
            solve_vi(op, f, GridFunction.zeros(mesh), VIParams())

    def test_singular_with_held_nodes_raises(self):
        class SingularJacobian:
            """A linear operator whose Jacobian bands are all zero."""

            def __init__(self, base):
                self.mesh = base.mesh
                self.matvec = base.matvec
                self.energy = base.energy

            def jacobian_bands(self, u):
                m = self.mesh.dof_count
                return np.zeros(m - 1), np.zeros(m), np.zeros(m - 1)

        # from a start on the obstacle the interior nodes, where f - A y = 1,
        # are held, so the Newton system that fails is not the all-free one
        mesh = make_mesh(8, "dirichlet")
        op = SingularJacobian(assemble_linear(mesh, 1.0, 0.0))
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        with pytest.raises(SolverError, match="^singular Newton system: singular matrix$"):
            solve_vi(op, f, psi, VIParams(), y0=psi)


class TestProjected:
    @pytest.mark.parametrize("n", [9, 13])
    def test_p2_matches_oracle(self, n):
        # p = 2, eps = 0 is the a = 1, a0 = 0 stiffness, which the oracle takes
        mesh = make_mesh(n, "dirichlet")
        plap = PLaplacianOperator(mesh, 2.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        ref = solve_vi_active_set_oracle(assemble_linear(mesh, 1.0, 0.0), f, psi)
        rep = solve_vi(plap, f, psi, VIParams())
        assert rep.converged
        assert 0 < np.count_nonzero(ref.values == 0.05) < mesh.dof_count
        assert np.max(np.abs(ref.values - rep.solution.values)) <= 1e-12

    @pytest.mark.parametrize("n", [7, 15])
    def test_zero_amplitude_matches_oracle(self, n):
        # the ramp obstacle cuts the unconstrained solution 1 at mid-interval
        mesh = make_mesh(n, "neumann")
        base = assemble_linear(mesh, 1.0, 1.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction(mesh, 0.5 + mesh.dof_nodes())
        ref = solve_vi_active_set_oracle(base, f, psi)
        rep = solve_vi(NonMonotoneOperator(base, 0.0), f, psi, VIParams())
        assert rep.converged
        assert 0 < np.count_nonzero(ref.values == psi.values) < mesh.dof_count
        assert np.max(np.abs(ref.values - rep.solution.values)) <= 1e-12

    def test_p3_symmetric_solution(self):
        mesh = make_mesh(32, "dirichlet")
        plap = PLaplacianOperator(mesh, 3.0, 1e-3)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 10.0)
        rep = solve_vi(plap, f, psi, VIParams())
        assert rep.converged
        assert rep.kkt_residual <= 1e-10
        assert np.max(np.abs(rep.solution.values - rep.solution.values[::-1])) <= 1e-8

    def test_regularized_plap_path(self):
        from qvar.operators import add_regularization

        mesh = make_mesh(32, "dirichlet")
        plap = PLaplacianOperator(mesh, 3.0, 1e-3)
        reg = add_regularization(plap, 0.25)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        rep = solve_vi(reg, f, psi, VIParams())
        assert rep.converged
        assert kkt_residual(reg, f, psi, rep.solution) <= 1e-10


class TestNewton:
    def test_matches_oracle(self):
        rng = np.random.default_rng(2003)
        params = VIParams()
        for _ in range(200):
            op, f, psi = random_instance(rng, int(rng.integers(1, 13)))
            ref = solve_vi_active_set_oracle(op, f, psi)
            rep = solve_vi(op, f, psi, params)
            assert rep.converged
            assert np.max(np.abs(ref.values - rep.solution.values)) <= 1e-10

    def test_report_on_exhaustion(self):
        mesh = make_mesh(64, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        rep = solve_vi(op, f, psi, VIParams(max_iter=2))
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.kkt_residual > 1e-10

    def test_zero_start_is_the_default(self):
        rng = np.random.default_rng(5)
        op, f, psi = random_instance(rng, 12)
        default = solve_vi(op, f, psi, VIParams())
        zero = solve_vi(op, f, psi, VIParams(), y0=GridFunction.zeros(op.mesh))
        assert zero.iterations == default.iterations
        assert np.array_equal(zero.solution.values, default.solution.values)

    def test_start_above_obstacle_is_clipped(self):
        mesh = make_mesh(16, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        rep = solve_vi(op, f, psi, VIParams(), y0=GridFunction.constant(mesh, 10.0))
        assert rep.converged
        assert np.max(rep.solution.values) <= 0.05

    def test_start_on_other_mesh_rejected(self):
        mesh = make_mesh(16, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        with pytest.raises(GridMismatchError, match="^start lives on a different mesh$"):
            solve_vi(op, f, f, VIParams(), y0=GridFunction.zeros(make_mesh(8, "dirichlet")))

    @pytest.mark.parametrize("operator", ["linear", "plaplacian"])
    def test_start_that_solves_costs_one_check(self, operator):
        class NoEnergy:
            """The operator with an energy that must not be called."""

            def __init__(self, base):
                self.mesh = base.mesh
                self.matvec = base.matvec
                self.jacobian_bands = base.jacobian_bands

            def energy(self, u):
                raise AssertionError("energy evaluated")

        mesh = make_mesh(64, "dirichlet")
        base = assemble_linear(mesh, 1.0, 0.0) if operator == "linear" else PLaplacianOperator(
            mesh, 3.0, 1e-3
        )
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        params = VIParams()
        solved = solve_vi(base, f, psi, params)
        assert solved.converged and solved.iterations > 0
        rep = solve_vi(NoEnergy(base), f, psi, params, y0=solved.solution)
        assert rep.iterations == 0
        assert rep.converged
        assert rep.kkt_residual == solved.kkt_residual
        assert rep.solution.values.tobytes() == solved.solution.values.tobytes()

    def test_overflowing_trial_rejected(self):
        class ExpReaction:
            """-u'' + 2u exp(u^2), the gradient of 0.5 <A u, u> + sum hw exp(u^2)."""

            def __init__(self, base):
                self.base = base
                self.mesh = base.mesh

            def matvec(self, u):
                return self.base.matvec(u) + 2.0 * u * np.exp(u * u)

            def jacobian_bands(self, u):
                lower, diag, upper = self.base.jacobian_bands(u)
                return lower, diag + (2.0 + 4.0 * u * u) * np.exp(u * u), upper

            def energy(self, u):
                hw = self.mesh.h * self.mesh.weights()
                return self.base.energy(u) + float(np.dot(hw, np.exp(u * u)))

        # the first Newton step from 0 linearizes exp(u^2) at 1 and overshoots
        # far enough that its trial energy is inf: a rejection, not a warning
        mesh = make_mesh(32, "dirichlet")
        op = ExpReaction(assemble_linear(mesh, 1.0, 0.0))
        f = GridFunction.constant(mesh, 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_vi(op, f, GridFunction.constant(mesh, 1e300), VIParams())
        assert rep.converged
        assert np.max(np.abs(op.matvec(rep.solution.values) - 1e3)) <= 1e-10

    def test_stagnation_on_rising_potential(self):
        class RisingPotential:
            def __init__(self, base):
                self.mesh = base.mesh
                self.matvec = base.matvec
                self.jacobian_bands = base.jacobian_bands

            def energy(self, u):
                return 1e6 * float(np.sum(np.abs(u)))

        mesh = make_mesh(16, "dirichlet")
        op = RisingPotential(assemble_linear(mesh, 1.0, 0.0))
        f = GridFunction.constant(mesh, 1.0)
        with pytest.raises(StagnationError, match="underflowed"):
            solve_vi(op, f, GridFunction.constant(mesh, 1.0), VIParams())

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_linear_merit_is_energy_minus_pairing(self, bc):
        # a linear operator's trial merit is taken from the A y its residual
        # holds; it must carry the bits of op.energy(y) - <f, y>
        rng = np.random.default_rng(11)
        op, f, _ = random_instance(rng, 17, bc)
        hwf = op.mesh.hw * f.values
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(10):
                y = scale * rng.standard_normal(op.mesh.dof_count)
                assert _merit(op, hwf, y, op.matvec(y)) == op.energy(y) - float(np.dot(hwf, y))

    def test_infinite_band_with_no_node_held_is_value_error(self):
        class InfiniteBand:
            """A linear operator whose Jacobian has an inf on its diagonal."""

            def __init__(self, base):
                self.base = base
                self.mesh = base.mesh
                self.matvec = base.matvec
                self.energy = base.energy

            def jacobian_bands(self, u):
                diag = self.base.diag.copy()
                diag[0] = np.inf
                return self.base.lower, diag, self.base.upper

        # from 0 under an obstacle at 1 no node is held, so the bands reach
        # the tridiagonal solve unmasked
        mesh = make_mesh(8, "dirichlet")
        op = InfiniteBand(assemble_linear(mesh, 1.0, 0.0))
        f = GridFunction.constant(mesh, 1.0)
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            solve_vi(op, f, GridFunction.constant(mesh, 1.0), VIParams())

    @pytest.mark.parametrize("level", [0.0, 0.05])
    def test_solution_shares_no_memory_with_inputs(self, level):
        # psi = 0 is solved by the default start, which is then returned
        mesh = make_mesh(64, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, level)
        solved = solve_vi(op, f, psi, VIParams()).solution
        for y0 in (None, psi, solved, GridFunction.constant(mesh, 1.0)):
            rep = solve_vi(op, f, psi, VIParams(), y0=y0)
            assert rep.converged
            inputs = (f, psi) if y0 is None else (f, psi, y0)
            assert not any(np.shares_memory(rep.solution.values, g.values) for g in inputs)

    def test_error_inside_energy_propagates(self):
        class BrokenPotential:
            def __init__(self, base):
                self.mesh = base.mesh
                self.matvec = base.matvec
                self.jacobian_bands = base.jacobian_bands

            def energy(self, u):
                return self.missing_attribute

        # energy is called directly, so an error inside it reaches the caller
        mesh = make_mesh(64, "dirichlet")
        op = BrokenPotential(assemble_linear(mesh, 1.0, 0.0))
        f = GridFunction.constant(mesh, 1.0)
        with pytest.raises(AttributeError, match="missing_attribute"):
            solve_vi(op, f, GridFunction.constant(mesh, 0.05), VIParams())


class TestOrderProperties:
    def test_comparison_principle_in_f(self):
        rng = np.random.default_rng(41)
        params = VIParams()
        for _ in range(50):
            op, f1, psi = random_instance(rng, 10)
            bump = np.abs(rng.standard_normal(10))
            f2 = GridFunction(f1.mesh, f1.values + bump)
            s1 = solve_vi(op, f1, psi, params).solution
            s2 = solve_vi(op, f2, psi, params).solution
            assert leq(s1, s2, 1e-9)

    def test_obstacle_monotonicity(self):
        rng = np.random.default_rng(43)
        params = VIParams()
        for _ in range(50):
            op, f, psi1 = random_instance(rng, 10)
            bump = np.abs(rng.standard_normal(10))
            psi2 = GridFunction(psi1.mesh, psi1.values + bump)
            s1 = solve_vi(op, f, psi1, params).solution
            s2 = solve_vi(op, f, psi2, params).solution
            assert leq(s1, s2, 1e-9)

    def test_lipschitz_stability_in_f(self):
        rng = np.random.default_rng(47)
        mesh = make_mesh(24, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.5)
        c = estimate_constants(op).c
        params = VIParams()
        psi = GridFunction.constant(mesh, 0.1)
        for _ in range(50):
            f1 = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
            f2 = GridFunction(mesh, f1.values + 0.3 * rng.standard_normal(mesh.dof_count))
            s1 = solve_vi(op, f1, psi, params).solution
            s2 = solve_vi(op, f2, psi, params).solution
            assert norm(s1 - s2, "h1") <= dual_norm(f1 - f2) / c + 1e-8

    def test_obstacle_continuity(self):
        # shrinking obstacle perturbations: error <= C * ||psi_n - psi||_sup
        # with a stable fitted C across the sequence
        mesh = make_mesh(32, "dirichlet")
        op = assemble_linear(mesh, 1.0, 0.0)
        f = GridFunction.constant(mesh, 1.0)
        psi = GridFunction.constant(mesh, 0.05)
        params = VIParams(tol=1e-12)
        base = solve_vi(op, f, psi, params).solution
        bump = np.sin(np.pi * mesh.dof_nodes())
        ratios = []
        for k in range(1, 7):
            delta = 2.0**-k * 0.1
            psin = GridFunction(mesh, psi.values + delta * bump)
            sol = solve_vi(op, f, psin, params).solution
            err = norm(sol - base, "h1")
            ratios.append(err / delta)
        c_fit = max(ratios[:2])
        assert all(r <= 1.5 * c_fit + 1e-9 for r in ratios)


# every builtin on each boundary condition it is assembled on
_SOLVING_BUILTINS = [
    ("example1d", "dirichlet"),
    ("example1d", "neumann"),
    ("plaplacian", "dirichlet"),
    ("kernel_qvi", "dirichlet"),
    ("kernel_qvi", "neumann"),
    ("nonmonotone_sine", "dirichlet"),
    ("nonmonotone_sine", "neumann"),
    ("fixed_obstacle", "dirichlet"),
    ("fixed_obstacle", "neumann"),
]


class TestStartIndependence:
    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("name, bc", _SOLVING_BUILTINS)
    def test_solution_does_not_depend_on_start(self, name, bc, n):
        from qvar.obstacle import eval_obstacle
        from qvar.problems import builtin_problem

        prob = builtin_problem(name, n=n, bc=bc)
        mesh = prob.operator.mesh
        # a stop at 1e-10 pins y only to about 1e-10 / c, so 1e-12 needs 1e-11
        params = VIParams(tol=1e-11)
        # the inner problem of outer iteration 2 of the minimal mode
        psi1 = eval_obstacle(prob.obstacle_map, GridFunction.zeros(mesh))
        y1 = solve_vi(prob.operator, prob.f, psi1, params).solution
        psi2 = eval_obstacle(prob.obstacle_map, y1)
        ref = solve_vi(prob.operator, prob.f, psi2, params)
        assert ref.converged
        rng = np.random.default_rng(n)
        starts = (
            GridFunction(mesh, psi2.values - rng.uniform(0.0, 1.0, mesh.dof_count)),
            GridFunction(mesh, y1.values + (psi2.values - psi1.values)),
        )
        for y0 in starts:
            rep = solve_vi(prob.operator, prob.f, psi2, params, y0=y0)
            assert rep.converged
            assert np.max(np.abs(rep.solution.values - ref.solution.values)) <= 1e-12
