import numpy as np
import pytest

from qvar.errors import GridMismatchError, OrderingViolationError, SolverError
from qvar.grid import GridFunction, leq, make_mesh, norm
from qvar.obstacle import ObstacleMap
from qvar.operators import OperatorConstants, assemble_linear, solve_unconstrained
from qvar.problems import builtin_problem
from qvar.qvi_solver import (
    OuterParams,
    QVIProblem,
    contraction_certificate,
    problem_certificate,
    solve_qvi_fixed_point,
    solve_qvi_maximal,
    solve_qvi_minimal,
    solve_qvi_regularized,
    unconstrained_supersolution,
    uniform_bound_holds,
)
from qvar.vi_solver import VIParams


def golden_problem(n=64):
    return builtin_problem("example1d", n=n)


class TestCertificate:
    def constants(self, c, L, gamma):
        return OperatorConstants(c=c, L=L, gamma=gamma)

    def test_quarter_coupling(self):
        cert = contraction_certificate(self.constants(1.0, 1.0, 0.0), 0.25)
        assert cert.rho == pytest.approx(0.25)
        assert cert.smallness_ok

    def test_large_coupling_fails(self):
        cert = contraction_certificate(self.constants(1.0, 1.0, 0.0), 1.5)
        assert cert.rho == pytest.approx(1.5)
        assert not cert.smallness_ok

    def test_nonlinear_split(self):
        cert = contraction_certificate(self.constants(1.0, 1.2, 0.5), 0.1)
        assert cert.rho == pytest.approx(0.24)
        assert cert.smallness_ok
        assert cert.L_A == pytest.approx(0.7)
        assert cert.L_N == pytest.approx(0.5)

    def test_fixed_map_contracts_with_infinite_lipschitz_constant(self):
        cert = contraction_certificate(self.constants(0.5, np.inf, 0.0), 0.0)
        assert cert.rho == 0.0
        assert cert.smallness_ok
        assert cert.L_A == np.inf

    def test_infinite_lipschitz_constant_with_coupling_fails(self):
        cert = contraction_certificate(self.constants(0.5, np.inf, 0.0), 0.1)
        assert cert.rho == np.inf
        assert not cert.smallness_ok

    @pytest.mark.parametrize("L_phi", [np.nan, -0.1])
    def test_invalid_obstacle_lipschitz_constant_rejected(self, L_phi):
        # a nan L_phi passed `L_phi < 0` and certified rho = 0
        with pytest.raises(ValueError, match="^invalid Lipschitz data for the certificate$"):
            contraction_certificate(self.constants(1.0, 1.0, 0.0), L_phi)

    def test_defect_exceeding_coercivity(self):
        cert = contraction_certificate(self.constants(1.0, 1.2, 1.0), 0.1)
        assert not cert.smallness_ok

    def test_problem_certificate_golden(self):
        cert = problem_certificate(golden_problem())
        assert cert.rho == pytest.approx(0.25, abs=1e-8)
        assert cert.smallness_ok


class TestGoldenProblem:
    @pytest.mark.parametrize("n", [16, 64])
    def test_minimal_limit(self, n):
        rep = solve_qvi_minimal(golden_problem(n))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 2.0 / 3.0)) <= 1e-6
        assert rep.monotone_trace == "increasing"

    def test_plateau_recurrence(self):
        # iterate levels follow C_{k+1} = 1/2 + C_k / 4: steps 1/2, 1/8, 1/32
        rep = solve_qvi_minimal(golden_problem())
        assert rep.step_norms[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.step_norms[1] == pytest.approx(0.125, abs=1e-12)
        assert rep.step_norms[2] == pytest.approx(0.03125, abs=1e-12)
        assert rep.rho_observed == pytest.approx(0.25, abs=0.02)

    def test_maximal_descends_from_supersolution(self):
        prob = golden_problem()
        rep_min = solve_qvi_minimal(prob)
        rep_max = solve_qvi_maximal(prob, minimal=rep_min.solution)
        assert rep_max.converged
        assert rep_max.monotone_trace == "decreasing"
        # ybar = 1, first obstacle level 3/4, limit 2/3
        ybar = unconstrained_supersolution(prob.operator, prob.F)
        assert np.max(np.abs(ybar.values - 1.0)) <= 1e-12
        assert np.max(np.abs(rep_max.solution.values - 2.0 / 3.0)) <= 1e-6

    def test_unique_regime_extremal_gap(self):
        prob = golden_problem()
        outer = OuterParams()
        m = solve_qvi_minimal(prob, outer)
        M = solve_qvi_maximal(prob, outer)
        assert norm(M.solution - m.solution, "sup") <= 2 * outer.tol


class TestFixedPoint:
    def test_fixed_obstacle_single_correction(self):
        prob = builtin_problem("fixed_obstacle")
        y0 = GridFunction.zeros(prob.operator.mesh)
        rep = solve_qvi_fixed_point(prob, y0)
        assert rep.converged
        assert rep.outer_iterations == 2
        assert rep.step_norms[1] <= 1e-12

    def test_maximal_trivial_when_supersolution_feasible(self):
        mesh = make_mesh(16, "neumann")
        op = assemble_linear(mesh, 1.0, 1.0)
        f = GridFunction.constant(mesh, 1.0)
        omap = ObstacleMap.fixed(mesh, GridFunction.constant(mesh, 10.0))
        prob = QVIProblem(op, f, omap, f.copy())
        rep = solve_qvi_maximal(prob)
        assert rep.converged
        assert rep.outer_iterations == 1
        assert np.max(np.abs(rep.solution.values - 1.0)) <= 1e-9

    def test_zero_force_minimal_is_zero(self):
        prob = builtin_problem("example1d", f_level=0.0, F_level=0.0)
        rep = solve_qvi_minimal(prob)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values)) <= 1e-12

    def test_kernel_problem_monotone_iterates(self):
        rep = solve_qvi_minimal(builtin_problem("kernel_qvi", n=32))
        assert rep.converged
        assert rep.monotone_trace == "increasing"

    def test_oscillating_start_has_no_monotone_trace(self):
        prob = builtin_problem("example1d", n=16)
        mesh = prob.operator.mesh
        y0 = GridFunction(mesh, 0.6 + 0.1 * (-1.0) ** np.arange(mesh.dof_count))
        rep = solve_qvi_fixed_point(prob, y0)
        assert rep.converged
        assert rep.outer_iterations == 13
        assert rep.monotone_trace == "none"


class TestErrorContext:
    def test_inner_stall_names_first_outer_iteration(self):
        with pytest.raises(SolverError) as info:
            solve_qvi_minimal(builtin_problem("fixed_obstacle", n=64), inner=VIParams(max_iter=2))
        assert str(info.value) == (
            "inner solve stalled in outer iteration 1 at residual 1.776e+01 after 2 iterations"
        )

    def test_inner_stall_names_later_outer_iteration(self, monkeypatch):
        # outer iteration 2 of kernel_qvi n=32 needs 2 Newton iterations from
        # its warm start; its inner solve is cut to 1
        import qvar.qvi_solver

        real = qvar.qvi_solver.solve_vi
        calls = []

        def cut_second(op, f, psi, params, y0=None):
            calls.append(y0)
            return real(op, f, psi, VIParams(max_iter=1) if len(calls) == 2 else params, y0=y0)

        monkeypatch.setattr(qvar.qvi_solver, "solve_vi", cut_second)
        message = r"^inner solve stalled in outer iteration 2 at residual \S+ after 1 iterations$"
        with pytest.raises(SolverError, match=message):
            solve_qvi_minimal(builtin_problem("kernel_qvi", n=32))
        assert len(calls) == 2

    def test_supersolution_failure_gives_residual_and_iterations(self):
        with pytest.raises(SolverError) as info:
            solve_qvi_maximal(builtin_problem("plaplacian", n=64), inner=VIParams(max_iter=2))
        assert str(info.value) == (
            "unconstrained nonlinear solve did not converge: residual 3.619e+00 "
            "after 2 iterations"
        )

    @pytest.mark.parametrize("name", ["fixed_obstacle", "kernel_qvi"])
    def test_singular_stiffness_has_no_supersolution(self, name):
        # the maximal mode starts from A^{-1} F, which the neumann a0 = 0
        # stiffness does not have; the minimal mode solves the same problem
        prob = builtin_problem(name, n=16, bc="neumann")
        assert solve_qvi_minimal(prob).converged
        with pytest.raises(SolverError, match="^tridiagonal solve failed: singular matrix$"):
            solve_qvi_maximal(prob)


class TestValidation:
    def test_negative_force_rejected(self):
        prob = builtin_problem("example1d")
        bad = QVIProblem(
            prob.operator, GridFunction.constant(prob.f.mesh, -1.0), prob.obstacle_map, None
        )
        with pytest.raises(ValueError):
            solve_qvi_minimal(bad)

    def test_maximal_needs_upper_force(self):
        prob = builtin_problem("example1d")
        stripped = QVIProblem(prob.operator, prob.f, prob.obstacle_map, None)
        with pytest.raises(ValueError):
            solve_qvi_maximal(stripped)

    def test_f_dominated_by_F(self):
        prob = builtin_problem("example1d")
        with pytest.raises(ValueError):
            QVIProblem(
                prob.operator,
                prob.f,
                prob.obstacle_map,
                GridFunction.constant(prob.f.mesh, 0.5),
            )

    def test_mismatched_meshes_are_grid_mismatch(self):
        prob = builtin_problem("example1d", n=16)
        other = GridFunction.constant(make_mesh(8, "neumann"), 1.0)
        with pytest.raises(GridMismatchError, match="^problem components live on different meshes$"):
            QVIProblem(prob.operator, other, prob.obstacle_map, None)
        with pytest.raises(GridMismatchError, match="^upper force lives on a different mesh$"):
            QVIProblem(prob.operator, prob.f, prob.obstacle_map, other)

    def test_ordering_violation_surfaces(self):
        # a negative base level makes the first iterate drop below zero
        prob = builtin_problem("example1d", c0=-1.0)
        with pytest.raises(OrderingViolationError, match="^iterates failed to increase; obstacle map"):
            solve_qvi_minimal(prob)

    def test_decreasing_check_rejects_a_rising_step(self):
        # from 0 the iterates of example1d rise towards 2/3
        prob = builtin_problem("example1d", n=16)
        y0 = GridFunction.zeros(prob.f.mesh)
        with pytest.raises(
            OrderingViolationError, match="^iterates failed to decrease from the supersolution$"
        ):
            solve_qvi_fixed_point(prob, y0, _order_check="decreasing")

    def test_minimal_above_maximal_rejected(self):
        # the maximal solution of example1d is 2/3, below a claimed minimal of 1
        prob = builtin_problem("example1d", n=16)
        above = GridFunction.constant(prob.f.mesh, 1.0)
        with pytest.raises(
            OrderingViolationError, match="^minimal solution exceeds the maximal solution$"
        ):
            solve_qvi_maximal(prob, minimal=above)


class TestRegularized:
    @pytest.mark.parametrize(
        "eps,expected",
        [(1.0, 0.5), (0.75, 1.0 / 1.75), (0.5, 2.0 / 3.0), (0.25, 2.0 / 3.0), (0.1, 2.0 / 3.0)],
    )
    def test_branch_formula(self, eps, expected):
        rep = solve_qvi_regularized(golden_problem(), eps)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - expected)) <= 1e-6

    def test_uniform_boundedness(self):
        for name in ("example1d", "kernel_qvi", "nonmonotone_sine"):
            prob = builtin_problem(name, n=32)
            rep = solve_qvi_regularized(prob, 0.25)
            assert uniform_bound_holds(prob, rep)

    def test_eps_monotone_path(self):
        prob = builtin_problem("kernel_qvi", n=32)
        sols = [
            solve_qvi_regularized(prob, eps).solution
            for eps in (0.8, 0.4, 0.2, 0.1, 0.05, 0.025)
        ]
        for larger_eps, smaller_eps in zip(sols, sols[1:]):
            assert leq(larger_eps, smaller_eps, 1e-8)


class TestNonMonotone:
    def test_start_point_independence(self):
        prob = builtin_problem("nonmonotone_sine", n=32)
        outer = OuterParams()
        rep0 = solve_qvi_fixed_point(prob, GridFunction.zeros(prob.f.mesh), outer)
        ybar = unconstrained_supersolution(prob.operator, prob.F)
        rep1 = solve_qvi_fixed_point(prob, ybar, outer)
        assert norm(rep0.solution - rep1.solution, "sup") <= 2 * outer.tol

    def test_certificate_passes(self):
        cert = problem_certificate(builtin_problem("nonmonotone_sine", n=32))
        assert cert.smallness_ok
        assert cert.gamma == pytest.approx(0.1)
        assert cert.rho == pytest.approx(1.1 * 0.25 / 0.9, abs=1e-6)

    def test_observed_contraction_within_certificate(self):
        for name in ("example1d", "kernel_qvi", "nonmonotone_sine", "fixed_obstacle"):
            prob = builtin_problem(name, n=32)
            cert = problem_certificate(prob)
            if not cert.smallness_ok:
                continue
            rep = solve_qvi_fixed_point(prob, GridFunction.zeros(prob.f.mesh))
            assert rep.converged
            assert rep.rho_observed <= cert.rho + 0.05


class TestFineMeshes:
    def test_nonmonotone_sine_golden_n256(self):
        rep = solve_qvi_minimal(builtin_problem("nonmonotone_sine", n=256))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 2.0 / 3.0)) <= 1e-6

    @pytest.mark.parametrize("n", [512, 1024, 4096, 16384])
    @pytest.mark.parametrize("name", ["example1d", "nonmonotone_sine"])
    def test_maximal_mode_golden(self, name, n):
        # the direct supersolution solve is accepted on its componentwise
        # backward error, whose round-off does not grow with n
        rep = solve_qvi_maximal(builtin_problem(name, n=n))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 2.0 / 3.0)) <= 1e-7


    @pytest.mark.parametrize("n", [16384, 65536])
    @pytest.mark.parametrize("name", ["example1d", "nonmonotone_sine"])
    def test_minimal_mode_golden(self, name, n):
        # the warm start keeps contact nodes on the raised obstacle, where
        # Newton holds them; min(y^k, psi^{k+1}) frees them and stagnates here
        rep = solve_qvi_minimal(builtin_problem(name, n=n))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 2.0 / 3.0)) <= 1e-7


class TestWarmStart:
    def test_inner_iterations_per_outer_iteration(self):
        rep = solve_qvi_minimal(builtin_problem("kernel_qvi", n=64))
        assert rep.converged
        assert len(rep.inner_per_outer) == rep.outer_iterations
        assert rep.inner_iterations == sum(rep.inner_per_outer)
        # a cold start in every outer iteration took 125
        assert rep.inner_iterations <= 30
        assert "inner" not in rep.csv_text()

    def test_constant_mean_map_needs_one_newton_iteration(self):
        # the shifted start of outer iteration k >= 2 is already its solution
        rep = solve_qvi_minimal(builtin_problem("example1d", n=128))
        assert rep.converged
        assert rep.inner_iterations == 1

    def test_fixed_obstacle_second_solve_is_free(self):
        rep = solve_qvi_minimal(builtin_problem("fixed_obstacle", n=128))
        assert rep.outer_iterations == 2
        assert rep.inner_per_outer[1] == 0

    def test_starts_move_with_the_obstacle(self, monkeypatch):
        import qvar.qvi_solver

        real = qvar.qvi_solver.solve_vi
        calls = []  # (obstacle, start, solution) of each inner solve

        def record(op, f, psi, params, y0=None):
            rep = real(op, f, psi, params, y0=y0)
            calls.append((psi.values, y0.values, rep.solution.values))
            return rep

        monkeypatch.setattr(qvar.qvi_solver, "solve_vi", record)
        prob = builtin_problem("kernel_qvi", n=16)
        y0 = GridFunction.constant(prob.operator.mesh, 0.01)
        rep = solve_qvi_fixed_point(prob, y0)
        assert len(calls) == rep.outer_iterations > 2
        assert np.array_equal(calls[0][1], y0.values)
        for (psi_prev, _, y_prev), (psi, start, _) in zip(calls, calls[1:]):
            assert np.array_equal(start, y_prev + (psi - psi_prev))


class TestNonlinearSupersolution:
    def test_plaplacian_maximal_mode(self):
        # no linear part: the supersolution comes from the nonlinear solve
        prob = builtin_problem("plaplacian", n=32)
        rep_min = solve_qvi_minimal(prob)
        rep_max = solve_qvi_maximal(prob, minimal=rep_min.solution)
        assert rep_max.converged
        # fixed obstacle: both modes land on the same solution
        assert norm(rep_max.solution - rep_min.solution, "sup") <= 1e-8

    def test_plaplacian_maximal_mode_n64(self):
        # the supersolution runs the inner solver with the obstacle at 1e300
        prob = builtin_problem("plaplacian", n=64)
        rep_min = solve_qvi_minimal(prob)
        rep_max = solve_qvi_maximal(prob, minimal=rep_min.solution)
        assert rep_min.converged and rep_max.converged
        assert norm(rep_max.solution - rep_min.solution, "sup") <= 1e-8

    def test_regularized_sine_maximal_mode(self):
        # the supersolution of op + eps I comes from its linear part
        from qvar.operators import add_regularization, solve_unconstrained

        prob = builtin_problem("nonmonotone_sine", n=32)
        base = prob.operator.base
        reg = prob.with_operator(add_regularization(prob.operator, 0.1))
        ybar = unconstrained_supersolution(reg.operator, reg.F)
        direct = solve_unconstrained(add_regularization(base, 0.1), reg.F)
        assert np.array_equal(ybar.values, direct.values)
        rep_min = solve_qvi_minimal(reg)
        rep_max = solve_qvi_maximal(reg, minimal=rep_min.solution)
        assert rep_min.converged and rep_max.converged
        assert leq(rep_min.solution, rep_max.solution, 1e-8)

    def test_shifted_sine_converges_in_both_modes(self):
        # near the solution the energy of a full Newton step can read above
        # the current one by round-off alone; backtracking must accept it
        from qvar.operators import add_regularization

        prob = builtin_problem("nonmonotone_sine", n=64)
        reg = prob.with_operator(add_regularization(prob.operator, 0.5))
        rep_min = solve_qvi_minimal(reg)
        rep_max = solve_qvi_maximal(reg, minimal=rep_min.solution)
        assert rep_min.converged and rep_max.converged
        assert norm(rep_max.solution - rep_min.solution, "sup") <= 1e-8

    def test_p2_plaplacian_supersolution_is_the_direct_solve(self):
        # for p = 2 the linear part is the whole operator, so it is solved
        # directly; Newton from 0 did not converge at this size
        prob = builtin_problem("plaplacian", n=4096, p=2.0)
        ybar = unconstrained_supersolution(prob.operator, prob.F)
        direct = solve_unconstrained(assemble_linear(prob.f.mesh, 1.0, 0.0), prob.F)
        assert ybar.values.tobytes() == direct.values.tobytes()

    def test_supersolution_solves_operator(self):
        from qvar.operators import apply as op_apply

        prob = builtin_problem("plaplacian", n=32)
        ybar = unconstrained_supersolution(prob.operator, prob.F)
        resid = op_apply(prob.operator, ybar) - prob.F
        assert norm(resid, "sup") <= 1e-9


class TestStabilityBound:
    def test_global_lipschitz_bound(self):
        from qvar.grid import dual_norm

        prob = builtin_problem("nonmonotone_sine", n=32)
        cert = problem_certificate(prob)
        denom = cert.c - cert.gamma - (cert.L_A + cert.L_N) * cert.L_phi
        rng = np.random.default_rng(13)
        mesh = prob.f.mesh
        y0 = GridFunction.zeros(mesh)
        for _ in range(20):
            f1 = GridFunction(mesh, 1.0 + 0.3 * rng.standard_normal(mesh.dof_count))
            f2 = GridFunction(mesh, f1.values + 0.2 * rng.standard_normal(mesh.dof_count))
            r1 = solve_qvi_fixed_point(QVIProblem(prob.operator, f1, prob.obstacle_map, None), y0)
            r2 = solve_qvi_fixed_point(QVIProblem(prob.operator, f2, prob.obstacle_map, None), y0)
            dist = norm(r1.solution - r2.solution, "h1")
            bound = dual_norm(f1 - f2) / denom
            assert dist <= 1.05 * bound + 1e-12
