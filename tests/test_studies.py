import re

import numpy as np
import pytest

from qvar.errors import InsufficientDataError, MeshError, NestingError, SolverError
from qvar.grid import GridFunction, make_mesh
from qvar.obstacle import ObstacleMap
from qvar.operators import add_regularization, assemble_linear
from qvar.problems import builtin_problem
from qvar.qvi_solver import QVIProblem
from qvar.studies import (
    FAMILIES,
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

    @pytest.mark.parametrize("reference", ["1e-6", "smallest_eps"])
    def test_string_reference_other_than_smallest_eps_refused(self, reference):
        # the eps of a reference solve is a number; a string is not parsed here
        with pytest.raises(TypeError):
            run_regularization_path(builtin_problem("example1d", n=8), EXAMPLE_EPS, reference)

    def test_smallest_eps_reference(self, monkeypatch):
        import qvar.studies

        solves = []
        original = qvar.studies.solve_qvi_regularized

        def counted(problem, eps, **kwargs):
            solves.append(eps)
            return original(problem, eps, **kwargs)

        # the path's last solve is the reference: no extra solve at the smallest eps
        monkeypatch.setattr(qvar.studies, "solve_qvi_regularized", counted)
        prob = builtin_problem("example1d")
        eps_list = [0.5, 0.25, 0.125, 0.0625]
        res = run_regularization_path(prob, eps_list, "smallest-eps")
        assert solves == eps_list
        assert res.reference == "eps=0.0625"
        assert res.rows[-1][1] <= 1e-12

    def test_negative_force_refused(self):
        # every point is a minimal solve, whose hypothesis is f >= 0
        prob = builtin_problem("example1d", n=32, f_level=-0.5)
        with pytest.raises(ValueError, match="the monotone modes require a nonnegative force"):
            run_regularization_path(prob, EXAMPLE_EPS, "smallest-eps")

    def test_negative_reference_rejected_before_any_solve(self, monkeypatch):
        import qvar.studies

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the reference")

        monkeypatch.setattr(qvar.studies, "solve_qvi_regularized", no_solve)
        with pytest.raises(ValueError, match="regularization eps must be nonnegative"):
            run_regularization_path(builtin_problem("example1d", n=8), EXAMPLE_EPS, -1e-6)

    def test_numeric_reference_is_a_seeded_walk_point(self, monkeypatch):
        import qvar.studies

        calls = []  # (eps, start, solution) of each solve
        original = qvar.studies.solve_qvi_regularized

        def record(problem, eps, start=None, **kwargs):
            rep = original(problem, eps, start=start, **kwargs)
            calls.append((eps, start, rep.solution))
            return rep

        # the reference eps is one more point, started from the path's last solution
        monkeypatch.setattr(qvar.studies, "solve_qvi_regularized", record)
        eps_list = [0.5, 0.25, 0.125, 0.0625]
        res = run_regularization_path(builtin_problem("fixed_obstacle", n=64), eps_list, 1e-6)
        assert [eps for eps, _, _ in calls] == eps_list + [1e-6]
        assert calls[-1][1] is calls[-2][2]
        assert res.reference == "eps=1e-06"
        assert [row[0] for row in res.rows] == eps_list
        assert res.reports[-1].inner_iterations <= 2  # 53 from a cold start at n = 256


class TestOperatorPerturbation:
    def test_regpath_and_perturb_solve_each_point_the_same_way(self, monkeypatch):
        import qvar.studies

        regularized, minimal = [], []
        solve_regularized = qvar.studies.solve_qvi_regularized
        solve_minimal = qvar.studies.solve_qvi_minimal

        def count_regularized(problem, eps, **kwargs):
            regularized.append(eps)
            return solve_regularized(problem, eps, **kwargs)

        def count_minimal(problem, *args, **kwargs):
            minimal.append(problem.operator)
            return solve_minimal(problem, *args, **kwargs)

        # one solve_qvi_regularized call per walk point; perturb's delta = 0
        # reference is the one direct minimal solve
        monkeypatch.setattr(qvar.studies, "solve_qvi_regularized", count_regularized)
        monkeypatch.setattr(qvar.studies, "solve_qvi_minimal", count_minimal)
        prob = builtin_problem("example1d", n=32)
        run_regularization_path(prob, EXAMPLE_EPS, "smallest-eps")
        assert (regularized, minimal) == (EXAMPLE_EPS, [])
        deltas = [0.4, 0.2, 0.1, 0.05]
        for family in FAMILIES:
            regularized.clear()
            minimal.clear()
            run_operator_perturbation(prob, family, deltas)
            assert (regularized, minimal) == (deltas, [prob.operator])

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

    def test_coefficient_family_is_scaled_identity(self):
        prob = builtin_problem("example1d", n=32)
        deltas = [0.4, 0.2, 0.1, 0.05, 0.025]
        a = run_operator_perturbation(prob, "coefficient", deltas)
        b = run_operator_perturbation(prob, "scaled_identity", deltas)
        assert a.rows == b.rows
        assert a.verdicts == {}

    @pytest.mark.parametrize("name", ["plaplacian", "nonmonotone_sine"])
    def test_coefficient_family_refuses_nonlinear_before_any_solve(self, monkeypatch, name):
        import qvar.studies

        def no_solve(*args, **kwargs):
            raise AssertionError("a study solved before checking its operator")

        monkeypatch.setattr(qvar.studies, "solve_qvi_minimal", no_solve)
        with pytest.raises(ValueError, match="needs an assembled linear operator"):
            run_operator_perturbation(
                builtin_problem(name, n=16), "coefficient", [0.4, 0.2, 0.1, 0.05]
            )

    def test_single_delta_rejected(self):
        prob = builtin_problem("example1d")
        with pytest.raises(InsufficientDataError):
            run_operator_perturbation(prob, "scaled_identity", [0.1])

    def test_unknown_family(self):
        prob = builtin_problem("example1d")
        with pytest.raises(ValueError):
            run_operator_perturbation(prob, "rotation", [0.4, 0.2, 0.1, 0.05])


_STUDIES = {
    "regpath": lambda prob, pts: run_regularization_path(prob, pts, "smallest-eps"),
    "regpath_eps_reference": lambda prob, pts: run_regularization_path(prob, pts, 1e-6),
    "scaled_identity": lambda prob, pts: run_operator_perturbation(prob, "scaled_identity", pts),
    "coefficient": lambda prob, pts: run_operator_perturbation(prob, "coefficient", pts),
}


class TestNonPositivePoints:
    @pytest.mark.parametrize(
        "study, points",
        [
            ("regpath", [0.4, 0.2, 0.1, 0.0]),
            ("regpath_eps_reference", [0.4, 0.2, 0.1, -0.1]),
            ("scaled_identity", [0.4, 0.2, 0.1, 0.0]),
            # used to raise EllipticityError at the fourth point, after three solves
            ("coefficient", [0.4, 0.2, 0.1, -2.0]),
        ],
    )
    def test_rejected_before_any_solve(self, monkeypatch, study, points):
        import qvar.studies

        def no_solve(*args, **kwargs):
            raise AssertionError("a study solved before checking its points")

        monkeypatch.setattr(qvar.studies, "solve_qvi_minimal", no_solve)
        monkeypatch.setattr(qvar.studies, "solve_qvi_regularized", no_solve)
        with pytest.raises(ValueError, match="must be positive"):
            _STUDIES[study](builtin_problem("fixed_obstacle", n=16), points)


class TestMeshRefinement:
    def test_nesting_error(self):
        with pytest.raises(NestingError):
            run_mesh_refinement(lambda n: builtin_problem("fixed_obstacle", n=n), [8, 12])

    def test_level_below_two_refused(self):
        # the mesh rule n >= 2 is checked first, before the divisibility test
        with pytest.raises(MeshError, match="cell count must be >= 2, got 0"):
            run_mesh_refinement(lambda n: builtin_problem("fixed_obstacle", n=n), [0, 4, 8, 16])

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

    def test_pairs_from_an_iterator(self):
        prob = builtin_problem("example1d", n=32)
        pairs = [(prob.f, GridFunction.constant(prob.f.mesh, level)) for level in (1.1, 1.2)]
        res = run_stability_bound_check(prob, iter(pairs))
        assert [row[0] for row in res.rows] == [1, 2]
        assert res.rows == run_stability_bound_check(prob, pairs).rows

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

    def test_plaplacian_bound_is_finite_and_holds(self):
        # a fixed obstacle map with L_A = inf: the coupling term is 0, not inf * 0
        prob = builtin_problem("plaplacian", n=32)
        mesh = prob.f.mesh
        pairs = [
            (GridFunction.constant(mesh, a), GridFunction.constant(mesh, b))
            for a, b in ((1.0, 1.1), (0.5, 0.6))
        ]
        res = run_stability_bound_check(prob, pairs)
        assert all(np.isfinite(row[2]) and row[2] > 0 for row in res.rows)
        assert res.verdicts["bound_holds"]

    @staticmethod
    def _sine_pairs(mesh, deltas):
        x = mesh.nodes()[1:-1]
        return [
            (GridFunction.constant(mesh, 1.0), GridFunction(mesh, 1.0 + d * np.sin(np.pi * x)))
            for d in deltas
        ]

    def test_seeded_newton_total(self):
        # each solve starts from the previous solution; cold starts took 456
        prob = builtin_problem("kernel_qvi", n=256, alpha=0.02)
        pairs = self._sine_pairs(prob.f.mesh, [0.2, 0.1, 0.05, 0.025])
        res = run_stability_bound_check(prob, pairs)
        assert sum(rep.inner_iterations for rep in res.reports) <= 200
        assert res.verdicts["bound_holds"]

    def test_failing_pair_position(self, monkeypatch):
        import qvar.studies

        calls = []  # (start, solution) of each solve
        original = qvar.studies.solve_qvi_fixed_point

        def fail_fifth(problem, y0, outer=None, inner=None, start=None):
            if len(calls) == 4:
                calls.append((start, None))
                raise SolverError("planted failure")
            rep = original(problem, y0, outer, inner, start=start)
            calls.append((start, rep.solution))
            return rep

        # the fifth solve is the first force of pair 3, after two finished pairs
        monkeypatch.setattr(qvar.studies, "solve_qvi_fixed_point", fail_fifth)
        prob = builtin_problem("kernel_qvi", n=32)
        with pytest.raises(SolverError) as info:
            run_stability_bound_check(prob, self._sine_pairs(prob.f.mesh, [0.4, 0.2, 0.1, 0.05]))
        assert str(info.value) == (
            "stability check aborted at parameter point 3 of 4 (2 rows completed): "
            "planted failure"
        )
        assert calls[0][0] is None
        for (_, prev), (start, _) in zip(calls, calls[1:]):
            assert start is prev

    def test_requires_passing_certificate(self):
        prob = builtin_problem("example1d", n=16, alpha=2.0)
        with pytest.raises(ValueError):
            run_stability_bound_check(prob, [(prob.f, prob.f)])


class TestDeterminismAndFormat:
    def test_identical_csv_bytes(self):
        prob = builtin_problem("example1d")
        kwargs = dict(reference=golden_exact())
        a = run_regularization_path(prob, EXAMPLE_EPS, **kwargs).to_csv()
        b = run_regularization_path(prob, EXAMPLE_EPS, **kwargs).to_csv()
        assert a == b

    def test_failing_point_position(self):
        def template(n):
            if n == 32:
                raise SolverError("planted failure")
            return variable_fixed_obstacle(n)

        with pytest.raises(SolverError) as info:
            run_mesh_refinement(template, [8, 16, 32, 64])
        assert str(info.value) == (
            "mesh refinement aborted at parameter point 3 of 4 (2 rows completed): "
            "planted failure"
        )

    def test_csv_layout(self):
        prob = builtin_problem("fixed_obstacle")
        res = run_regularization_path(prob, [0.5, 0.25, 0.125, 0.0625, 0.03125], 1e-6)
        res.seed = 11
        text = res.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "# study=regpath seed=11 reference=eps=1e-06"
        assert lines[1] == "parameter,error,solution_sup,outer_iterations"
        assert any(line.startswith("# fit slope=") for line in lines)
        assert any(line.startswith("# verdict eps_monotone=") for line in lines)


# every builtin at n = 32 on each boundary condition it is assembled on, with
# every study: the coefficient family refuses nonlinear operators
_ALL_STUDIES = ("regpath", "scaled_identity", "coefficient", "refine", "robust")
_CHAIN_CASES = [
    ("example1d", "dirichlet", _ALL_STUDIES),
    ("example1d", "neumann", _ALL_STUDIES),
    ("plaplacian", "dirichlet", ("regpath", "scaled_identity", "refine", "robust")),
    ("kernel_qvi", "dirichlet", _ALL_STUDIES),
    ("kernel_qvi", "neumann", _ALL_STUDIES),
    ("nonmonotone_sine", "dirichlet", ("regpath", "scaled_identity", "refine", "robust")),
    ("nonmonotone_sine", "neumann", ("regpath", "scaled_identity", "refine", "robust")),
    ("fixed_obstacle", "dirichlet", _ALL_STUDIES),
    ("fixed_obstacle", "neumann", _ALL_STUDIES),
]


def _run_study(study, name, bc):
    prob = builtin_problem(name, n=32, bc=bc)
    if study == "regpath":
        return run_regularization_path(prob, [0.5 / 2**k for k in range(6)], "smallest-eps")
    if study == "refine":
        return run_mesh_refinement(lambda n: builtin_problem(name, n=n, bc=bc), [4, 8, 16, 32])
    if study == "robust":
        return run_data_robustness(prob, [0.2, 0.1, 0.05, 0.025], None)
    return run_operator_perturbation(prob, study, [0.4, 0.2, 0.1, 0.05, 0.025])


def _exact_hits(result) -> str:
    return re.search(r"exact_hits=(\d+)", result.to_csv()).group(1)


class TestChains:
    @pytest.mark.parametrize(
        "study, name, bc",
        [(study, name, bc) for name, bc, studies in _CHAIN_CASES for study in studies],
    )
    def test_seeded_equals_cold(self, monkeypatch, study, name, bc):
        import qvar.studies

        seeded = _run_study(study, name, bc)
        # the same study with every point solved cold: the solvers without start
        for solver in ("solve_qvi_minimal", "solve_qvi_regularized"):
            real = getattr(qvar.studies, solver)
            monkeypatch.setattr(
                qvar.studies, solver, lambda *args, real=real, start=None, **kw: real(*args, **kw)
            )
        cold = _run_study(study, name, bc)
        assert [r.outer_iterations for r in seeded.reports] == [
            r.outer_iterations for r in cold.reports
        ]
        assert seeded.verdicts == cold.verdicts
        assert _exact_hits(seeded) == _exact_hits(cold)
        for a, b in zip(seeded.reports, cold.reports):
            assert abs(a.solution.values.max() - b.solution.values.max()) <= 1e-9
        assert len(seeded.rows) == len(cold.rows)
        for row_s, row_c in zip(seeded.rows, cold.rows):
            for a, b in zip(row_s, row_c):
                if isinstance(a, int):
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-9

    @pytest.mark.parametrize("study", ["regpath", "scaled_identity", "refine", "robust"])
    def test_each_point_starts_from_its_neighbour(self, monkeypatch, study):
        import qvar.studies

        calls = []  # (start, solution) of each study solve, reference included

        for solver in ("solve_qvi_minimal", "solve_qvi_regularized"):
            real = getattr(qvar.studies, solver)

            def record(*args, real=real, start=None, **kw):
                rep = real(*args, start=start, **kw)
                calls.append((start, rep.solution))
                return rep

            monkeypatch.setattr(qvar.studies, solver, record)
        res = _run_study(study, "kernel_qvi", "dirichlet")
        points = calls[-len(res.reports):]
        if study in ("regpath", "refine"):
            assert points[0][0] is None
        else:
            # perturb and robust seed their first point from the reference solve
            assert len(calls) == len(res.reports) + 1
            assert points[0][0] is calls[0][1]
        for (_, prev), (start, _) in zip(points, points[1:]):
            if study != "refine":
                assert start is prev
                continue
            # coarse to fine: the previous solution interpolated linearly
            coarse = prev.with_boundary()
            fine = start.with_boundary()
            assert start.mesh.n == 2 * prev.mesh.n
            assert np.array_equal(fine[::2], coarse)
            assert np.allclose(fine[1::2], 0.5 * (coarse[:-1] + coarse[1:]), rtol=0, atol=1e-15)

    def test_perturbation_chain_newton_iterations(self):
        # each delta starts from its neighbour's solution; cold starts took 65
        prob = builtin_problem("fixed_obstacle", n=64)
        res = run_operator_perturbation(prob, "coefficient", [0.4, 0.2, 0.1, 0.05, 0.025])
        assert sum(rep.inner_iterations for rep in res.reports) <= 25

    def test_refinement_chain_newton_iterations(self):
        # n = 128 starts from the n = 64 solution interpolated; cold took 26
        res = run_mesh_refinement(
            lambda n: builtin_problem("kernel_qvi", n=n), [8, 16, 32, 64, 128]
        )
        assert res.reports[-1].solution.mesh.n == 128
        assert res.reports[-1].inner_per_outer[0] <= 14
