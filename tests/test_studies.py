import numpy as np
import pytest

from qvar.errors import InsufficientDataError, NestingError, SolverError
from qvar.grid import GridFunction, make_mesh
from qvar.obstacle import ObstacleMap
from qvar.operators import add_regularization, assemble_linear
from qvar.problems import builtin_problem
from qvar.qvi_solver import QVIProblem
from qvar.studies import (
    fit_rate,
    run_data_robustness,
    run_mesh_refinement,
    run_operator_perturbation,
    run_regularization_path,
    run_stability_bound_check,
)

EXAMPLE_EPS = [1.0, 0.75, 0.6, 0.5, 0.25, 0.1]


def golden_exact(n=64):
    return GridFunction.constant(make_mesh(n, "neumann"), 2.0 / 3.0)


def variable_fixed_obstacle(n):
    """Fixed-obstacle problem with variable diffusion (not exactly resolved
    by the stencil, so refinement errors are genuine)."""
    mesh = make_mesh(n, "dirichlet")
    op = assemble_linear(mesh, lambda x: 1.0 + 0.5 * x, 0.0)
    f = GridFunction.constant(mesh, 1.0)
    omap = ObstacleMap.fixed(mesh, GridFunction.constant(mesh, 0.05))
    return QVIProblem(op, f, omap, f.copy())


class TestFitRate:
    def test_exact_line(self):
        fit = fit_rate([(1, 1), (2, 2), (4, 4)])
        assert fit.slope == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_quadratic(self):
        fit = fit_rate([(1, 1), (4, 16), (16, 256)])
        assert fit.slope == pytest.approx(2.0)

    def test_near_linear(self):
        fit = fit_rate([(1, 1), (2, 2.1), (4, 3.9)])
        assert 0.9 < fit.slope < 1.1
        assert fit.r2 > 0.99

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_rate([(1, 1), (2, 2)])

    def test_exact_hits_excluded(self):
        fit = fit_rate([(1, 1), (2, 2), (4, 4), (8, 0.0)])
        assert fit.exact_hits == 1
        assert fit.slope == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_rate([(0.0, 1), (2, 2), (4, 4)])
        with pytest.raises(ValueError):
            fit_rate([(1, -1), (2, 2), (4, 4)])

    @pytest.mark.parametrize("planted", [0.5, 1.0, 2.0])
    def test_recovers_planted_slopes(self, planted):
        rng = np.random.default_rng(17)
        xs = np.logspace(-3, 0, 12)
        ys = 3.0 * xs**planted * (1.0 + 0.01 * rng.standard_normal(xs.size))
        fit = fit_rate(list(zip(xs, ys)))
        assert abs(fit.slope - planted) <= 0.1
        assert fit.r2 >= 0.99


class TestRegularizationPath:
    def test_golden_branch_errors(self):
        prob = builtin_problem("example1d")
        res = run_regularization_path(prob, EXAMPLE_EPS, golden_exact())
        expected = [1.0 / 6.0, 2.0 / 21.0, 1.0 / 24.0, 0.0, 0.0, 0.0]
        for row, want in zip(res.rows, expected):
            assert row[1] == pytest.approx(want, abs=1e-6)
        assert res.verdicts["eps_monotone"]
        assert res.verdicts["errors_nonincreasing"]

    def test_short_list_rejected(self):
        prob = builtin_problem("example1d")
        with pytest.raises(InsufficientDataError):
            run_regularization_path(prob, [1.0, 0.5], golden_exact())

    def test_non_decreasing_list_rejected(self):
        prob = builtin_problem("example1d")
        with pytest.raises(ValueError):
            run_regularization_path(prob, [1.0, 1.0, 0.5, 0.25], golden_exact())

    def test_fixed_obstacle_linear_rate(self):
        prob = builtin_problem("fixed_obstacle")
        eps_list = [0.5 / 2**k for k in range(6)]
        res = run_regularization_path(prob, eps_list, 1e-6)
        assert res.fit is not None
        assert res.fit.slope >= 0.9
        assert res.verdicts["eps_monotone"]

    def test_smallest_eps_reference(self):
        prob = builtin_problem("example1d")
        res = run_regularization_path(prob, [0.5, 0.25, 0.125, 0.0625], "smallest-eps")
        assert res.reference == "eps=0.0625"
        assert res.rows[-1][1] <= 1e-12


class TestOperatorPerturbation:
    def test_scaled_identity_matches_regpath(self):
        prob = builtin_problem("example1d")
        exact = golden_exact()
        a = run_regularization_path(prob, EXAMPLE_EPS, exact)
        b = run_operator_perturbation(prob, "scaled_identity", EXAMPLE_EPS, reference=exact)
        for ra, rb in zip(a.rows, b.rows):
            assert ra[0] == rb[0]
            assert abs(ra[1] - rb[1]) <= 1e-12
        assert b.verdicts["ordered_solutions"]

    def test_coefficient_family_rate(self):
        prob = builtin_problem("fixed_obstacle")
        res = run_operator_perturbation(prob, "coefficient", [0.4, 0.2, 0.1, 0.05, 0.025])
        assert res.fit.slope >= 0.9
        assert res.fit.r2 >= 0.98

    def test_single_delta_rejected(self):
        prob = builtin_problem("example1d")
        with pytest.raises(InsufficientDataError):
            run_operator_perturbation(prob, "scaled_identity", [0.1])

    def test_unknown_family(self):
        prob = builtin_problem("example1d")
        with pytest.raises(ValueError):
            run_operator_perturbation(prob, "rotation", [0.4, 0.2, 0.1, 0.05])


class TestMeshRefinement:
    def test_nesting_error(self):
        with pytest.raises(NestingError):
            run_mesh_refinement(lambda n: builtin_problem("fixed_obstacle", n=n), [8, 12])

    def test_short_nested_list(self):
        with pytest.raises(InsufficientDataError):
            run_mesh_refinement(lambda n: builtin_problem("fixed_obstacle", n=n), [8, 16, 32])

    def test_constant_solution_all_exact(self):
        res = run_mesh_refinement(lambda n: builtin_problem("example1d", n=n), [8, 16, 32, 64])
        assert res.fit is None
        assert all(row[1] <= 1e-10 for row in res.rows)
        assert "exact_hits=3" in res.to_csv()

    def test_kernel_problem_rate(self):
        res = run_mesh_refinement(
            lambda n: builtin_problem("kernel_qvi", n=n), [8, 16, 32, 64, 128]
        )
        assert res.fit.slope >= 1.0

    def test_variable_coefficient_errors_shrink(self):
        res = run_mesh_refinement(variable_fixed_obstacle, [8, 16, 32, 64])
        errors = [row[1] for row in res.rows]
        assert errors[-1] <= errors[0]
        assert errors[0] > 1e-6  # genuinely inexact on the coarse grid


class TestDataRobustness:
    def test_branch_formula_with_unit_regularization(self):
        prob = builtin_problem("example1d")
        reg = prob.with_operator(add_regularization(prob.operator, 1.0))
        res = run_data_robustness(reg, [0.2, 0.1, 0.05, 0.025], None)
        for row, delta in zip(res.rows, [0.2, 0.1, 0.05, 0.025]):
            assert row[1] == pytest.approx(delta / 2.0, abs=1e-6)
        assert res.verdicts["monotone_in_f"]
        assert res.fit.slope == pytest.approx(1.0, abs=1e-6)

    def test_obstacle_shift_axis(self):
        # deltas small enough that the constraint stays active (psi + delta
        # below the unconstrained maximum 1/8)
        prob = builtin_problem("fixed_obstacle")
        res = run_data_robustness(prob, None, [0.02, 0.01, 0.005, 0.0025])
        assert res.fit is not None
        assert res.fit.slope >= 0.9

    def test_monotone_in_f_across_builtins(self):
        for name in ("example1d", "kernel_qvi", "fixed_obstacle"):
            prob = builtin_problem(name, n=32)
            res = run_data_robustness(prob, [0.2, 0.1, 0.05, 0.025], None)
            assert res.verdicts["monotone_in_f"], name

    def test_requires_some_list(self):
        prob = builtin_problem("example1d")
        with pytest.raises(ValueError):
            run_data_robustness(prob, None, None)


class TestStabilityBoundCheck:
    def test_identical_pair_zero_ratio(self):
        prob = builtin_problem("example1d", n=32)
        f = prob.f
        res = run_stability_bound_check(prob, [(f, f.copy())])
        assert res.rows[0][1] == 0.0
        assert res.rows[0][3] == 0.0
        assert res.verdicts["bound_holds"]

    def test_golden_shifted_force(self):
        prob = builtin_problem("example1d", n=32)
        f2 = GridFunction.constant(prob.f.mesh, 1.1)
        res = run_stability_bound_check(prob, [(prob.f, f2)])
        assert res.verdicts["bound_holds"]

    def test_sine_seeded_pairs(self):
        prob = builtin_problem("nonmonotone_sine", n=32)
        rng = np.random.default_rng(29)
        mesh = prob.f.mesh
        pairs = []
        for _ in range(10):
            f1 = GridFunction(mesh, 1.0 + 0.2 * rng.standard_normal(mesh.dof_count))
            f2 = GridFunction(mesh, f1.values + 0.1 * rng.standard_normal(mesh.dof_count))
            pairs.append((f1, f2))
        res = run_stability_bound_check(prob, pairs)
        assert res.verdicts["bound_holds"]

    def test_requires_passing_certificate(self):
        prob = builtin_problem("example1d", n=16, alpha=2.0)
        with pytest.raises(ValueError):
            run_stability_bound_check(prob, [(prob.f, prob.f)])


class TestDeterminismAndFormat:
    def test_identical_csv_bytes(self):
        prob = builtin_problem("example1d")
        kwargs = dict(reference=golden_exact(), seed=7)
        a = run_regularization_path(prob, EXAMPLE_EPS, **kwargs).to_csv()
        b = run_regularization_path(prob, EXAMPLE_EPS, **kwargs).to_csv()
        assert a == b

    def test_jobs_parallel_same_bytes(self):
        prob = builtin_problem("example1d")
        a = run_regularization_path(prob, EXAMPLE_EPS, golden_exact(), jobs=1).to_csv()
        b = run_regularization_path(prob, EXAMPLE_EPS, golden_exact(), jobs=4).to_csv()
        assert a == b

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_point_position(self, jobs):
        def template(n):
            if n == 32:
                raise SolverError("planted failure")
            return variable_fixed_obstacle(n)

        with pytest.raises(SolverError) as info:
            run_mesh_refinement(template, [8, 16, 32, 64], jobs=jobs)
        assert str(info.value) == (
            "mesh refinement aborted at parameter point 3 of 4 (2 rows completed): "
            "planted failure"
        )

    def test_csv_layout(self):
        prob = builtin_problem("fixed_obstacle")
        res = run_regularization_path(prob, [0.5, 0.25, 0.125, 0.0625, 0.03125], 1e-6, seed=11)
        text = res.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "# study=regpath seed=11 reference=eps=1e-06"
        assert lines[1] == "parameter,error,solution_sup,outer_iterations"
        assert any(line.startswith("# fit slope=") for line in lines)
        assert any(line.startswith("# verdict eps_monotone=") for line in lines)

    def test_write_file(self, tmp_path):
        prob = builtin_problem("example1d")
        res = run_regularization_path(prob, EXAMPLE_EPS, golden_exact())
        path = tmp_path / "regpath.csv"
        res.write(path)
        assert path.read_text(encoding="utf-8") == res.to_csv()
