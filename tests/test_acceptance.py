"""Acceptance suite: every gate criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import time

import numpy as np
import pytest

from qvar.grid import GridFunction, dual_norm, leq, make_mesh, norm, pos_part
from qvar.grid import duality_pairing, lattice_max, lattice_min
from qvar.operators import PLaplacianOperator, apply, assemble_linear
from qvar.problems import builtin_problem
from qvar.qvi_solver import (
    OuterParams,
    problem_certificate,
    solve_qvi_fixed_point,
    solve_qvi_minimal,
    solve_qvi_regularized,
    unconstrained_supersolution,
)
from qvar.studies import (
    run_mesh_refinement,
    run_operator_perturbation,
    run_regularization_path,
    run_stability_bound_check,
)
from qvar.vi_solver import VIParams, kkt_residual, solve_vi, solve_vi_active_set_oracle


def _report(num, desc, checks, elapsed, budget):
    failed = [name for name, ok in checks.items() if not ok]
    in_budget = elapsed < budget
    status = "PASS" if not failed and in_budget else "FAIL"
    print(f"\ncriterion {num:02d} [{status}] {desc} ({elapsed:.2f}s, budget {budget:g}s)")
    assert not failed, f"criterion {num} failed checks: {failed}"
    assert in_budget, f"criterion {num} exceeded runtime budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_golden_solution():
    t0 = time.perf_counter()
    checks = {}
    for n in (16, 64, 256):
        rep = solve_qvi_minimal(builtin_problem("example1d", n=n))
        dist = np.max(np.abs(rep.solution.values - 2.0 / 3.0))
        checks[f"n={n} converged"] = rep.converged
        checks[f"n={n} sup-distance {dist:.2e} <= 1e-6"] = dist <= 1e-6
    _report(1, "golden constant solution 2/3", checks, time.perf_counter() - t0, 1.0)


def test_criterion_02_regularized_branch_formula():
    t0 = time.perf_counter()
    prob = builtin_problem("example1d")
    checks = {}
    for eps in (1.0, 0.75, 0.5, 0.25, 0.1):
        expected = min(1.0 / (1.0 + eps), 2.0 / 3.0)
        rep = solve_qvi_regularized(prob, eps)
        dist = np.max(np.abs(rep.solution.values - expected))
        checks[f"eps={eps} value {dist:.2e} <= 1e-6"] = rep.converged and dist <= 1e-6
    _report(2, "regularized branch formula min{1/(1+eps), 2/3}", checks, time.perf_counter() - t0, 2.0)


def test_criterion_03_eps_monotonicity():
    t0 = time.perf_counter()
    path = [0.8, 0.4, 0.2, 0.1, 0.05, 0.025]
    checks = {}
    for name, n in (("example1d", 64), ("kernel_qvi", 32)):
        prob = builtin_problem(name, n=n)
        sols = [solve_qvi_regularized(prob, eps).solution for eps in path]
        ok = all(leq(a, b, 1e-8) for a, b in zip(sols, sols[1:]))
        checks[f"{name}: solutions non-increasing in eps"] = ok
    _report(3, "eps-monotonicity along 6-point paths", checks, time.perf_counter() - t0, 5.0)


def test_criterion_04_contraction_rate():
    t0 = time.perf_counter()
    checks = {}
    trace = solve_qvi_fixed_point(
        builtin_problem("example1d"), GridFunction.zeros(make_mesh(64, "neumann"))
    )
    checks[f"rho_observed {trace.rho_observed:.4f} in [0.23, 0.27]"] = (
        0.23 <= trace.rho_observed <= 0.27
    )
    for name in ("example1d", "plaplacian", "kernel_qvi", "nonmonotone_sine", "fixed_obstacle"):
        prob = builtin_problem(name, n=32)
        cert = problem_certificate(prob)
        if not cert.smallness_ok:
            continue
        rep = solve_qvi_fixed_point(prob, GridFunction.zeros(prob.f.mesh))
        checks[f"{name}: rho_observed {rep.rho_observed:.3f} <= rho {cert.rho:.3f} + 0.05"] = (
            rep.converged and rep.rho_observed <= cert.rho + 0.05
        )
    _report(4, "observed contraction matches certificate", checks, time.perf_counter() - t0, 2.0)


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    params = VIParams(tol=1e-11)
    max_dev = 0.0
    max_kkt = 0.0
    for _ in range(100):
        ndof = int(rng.integers(2, 9))
        mesh = make_mesh(ndof + 1, "dirichlet")
        op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), rng.uniform(0.0, 1.0, ndof))
        f = GridFunction(mesh, rng.standard_normal(ndof))
        psi = GridFunction(mesh, rng.uniform(-0.5, 1.0, ndof))
        ref = solve_vi_active_set_oracle(op, f, psi)
        rep = solve_vi(op, f, psi, params)
        assert rep.converged
        max_dev = max(max_dev, float(np.max(np.abs(ref.values - rep.solution.values))))
        max_kkt = max(max_kkt, kkt_residual(op, f, psi, rep.solution))
    checks = {
        f"max deviation {max_dev:.2e} <= 1e-8": max_dev <= 1e-8,
        f"max kkt {max_kkt:.2e} <= 1e-9": max_kkt <= 1e-9,
    }
    desc = "projected Newton equals active-set enumeration on 100 instances"
    _report(5, desc, checks, time.perf_counter() - t0, 5.0)


def test_criterion_06_linear_perturbation_rate():
    t0 = time.perf_counter()
    prob = builtin_problem("fixed_obstacle", n=64)
    deltas = [0.4 / 2**k for k in range(5)]
    res = run_operator_perturbation(prob, "coefficient", deltas)
    checks = {
        f"slope {res.fit.slope:.3f} >= 0.9": res.fit.slope >= 0.9,
        f"r2 {res.fit.r2:.4f} >= 0.98": res.fit.r2 >= 0.98,
    }
    _report(6, "reaction-coefficient perturbation rate", checks, time.perf_counter() - t0, 10.0)


def test_criterion_07_regularization_rate():
    t0 = time.perf_counter()
    prob = builtin_problem("fixed_obstacle", n=64)
    eps_list = [0.5 / 2**k for k in range(6)]
    res = run_regularization_path(prob, eps_list, 1e-6)
    checks = {f"slope {res.fit.slope:.3f} >= 0.9": res.fit.slope >= 0.9}
    # strict complementarity holds here (unit multiplier on the contact set),
    # so the sqrt-rate bound applies; report the fitted exponent and fail
    # below 0.5 only on a confident fit
    slope, r2 = res.fit.slope, res.fit.r2
    checks[f"exponent {slope:.3f} <= 1.1"] = slope <= 1.1
    checks[f"exponent {slope:.3f} >= 0.5 (or r2 {r2:.3f} < 0.98)"] = slope >= 0.5 or r2 < 0.98
    _report(7, "regularization path rate", checks, time.perf_counter() - t0, 10.0)


def test_criterion_08_mesh_self_convergence():
    t0 = time.perf_counter()
    res = run_mesh_refinement(
        lambda n: builtin_problem("kernel_qvi", n=n), [8, 16, 32, 64, 128, 256]
    )
    checks = {f"slope {res.fit.slope:.3f} >= 1.0": res.fit.slope >= 1.0}
    # the constant-coefficient variant is reproduced exactly on nested grids
    # up to free-boundary quantization; report it as a sanity bound only
    res_const = run_mesh_refinement(
        lambda n: builtin_problem("fixed_obstacle", n=n), [8, 16, 32, 64, 128, 256]
    )
    worst = max(row[1] for row in res_const.rows)
    checks[f"constant-coefficient errors bounded ({worst:.2e} <= 1e-3)"] = worst <= 1e-3
    _report(8, "mesh self-convergence", checks, time.perf_counter() - t0, 10.0)


def test_criterion_09_nonmonotone_regime():
    t0 = time.perf_counter()
    prob = builtin_problem("nonmonotone_sine", n=32)
    cert = problem_certificate(prob)
    checks = {f"certificate rho {cert.rho:.3f} < 1": cert.smallness_ok}

    outer = OuterParams()
    rep0 = solve_qvi_fixed_point(prob, GridFunction.zeros(prob.f.mesh), outer)
    ybar = unconstrained_supersolution(prob.operator, prob.F)
    rep1 = solve_qvi_fixed_point(prob, ybar, outer)
    gap = norm(rep0.solution - rep1.solution, "sup")
    checks[f"start-point independence {gap:.2e} <= 2e-8"] = gap <= 2e-8

    rng = np.random.default_rng(5)
    mesh = prob.f.mesh
    pairs = []
    for _ in range(10):
        f1 = GridFunction(mesh, 1.0 + 0.25 * rng.standard_normal(mesh.dof_count))
        f2 = GridFunction(mesh, f1.values + 0.15 * rng.standard_normal(mesh.dof_count))
        pairs.append((f1, f2))
    res = run_stability_bound_check(prob, pairs)
    checks["10 seeded force pairs within the Lipschitz bound"] = res.verdicts["bound_holds"]
    _report(9, "non-monotone smallness regime", checks, time.perf_counter() - t0, 10.0)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    checks = {}
    rng = np.random.default_rng(99)

    # comparison principle in the force
    ok = True
    for _ in range(25):
        mesh = make_mesh(11, "dirichlet")
        op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), rng.uniform(0, 1, 10))
        f1 = GridFunction(mesh, rng.standard_normal(10))
        f2 = GridFunction(mesh, f1.values + np.abs(rng.standard_normal(10)))
        psi = GridFunction(mesh, rng.uniform(-0.5, 1.0, 10))
        s1 = solve_vi(op, f1, psi, VIParams()).solution
        s2 = solve_vi(op, f2, psi, VIParams()).solution
        ok = ok and leq(s1, s2, 1e-9)
    checks["comparison principle f1 <= f2"] = ok

    # obstacle monotonicity
    ok = True
    for _ in range(25):
        mesh = make_mesh(11, "dirichlet")
        op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), rng.uniform(0, 1, 10))
        f = GridFunction(mesh, rng.standard_normal(10))
        psi1 = GridFunction(mesh, rng.uniform(-0.5, 1.0, 10))
        psi2 = GridFunction(mesh, psi1.values + np.abs(rng.standard_normal(10)))
        s1 = solve_vi(op, f, psi1, VIParams()).solution
        s2 = solve_vi(op, f, psi2, VIParams()).solution
        ok = ok and leq(s1, s2, 1e-9)
    checks["obstacle monotonicity psi1 <= psi2"] = ok

    # lattice identities
    mesh = make_mesh(33, "neumann")
    ok = True
    for _ in range(50):
        u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
        v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
        s = lattice_min(u, v).values + lattice_max(u, v).values
        ok = ok and np.all(np.abs(s - (u.values + v.values)) <= 1e-14)
        ok = ok and np.all(
            np.abs(lattice_min(u, v).values + pos_part(u - v).values - u.values) <= 1e-12
        )
    checks["lattice identities"] = ok

    # operator symmetry in the weighted pairing
    ok = True
    op = assemble_linear(mesh, lambda x: 1.0 + 0.5 * x, lambda x: 0.5 + x)
    for _ in range(100):
        u = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
        v = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
        gap = abs(duality_pairing(apply(op, u), v) - duality_pairing(apply(op, v), u))
        ok = ok and gap <= 1e-12 * norm(u, "l2") * norm(v, "l2") + 1e-14
    checks["operator symmetry"] = ok

    # regularized p-Laplacian operator convergence, decades 1e-1 .. 1e-6
    mesh64 = make_mesh(64, "dirichlet")
    v = GridFunction(mesh64, np.sin(np.pi * mesh64.dof_nodes()))
    base = apply(PLaplacianOperator(mesh64, 3.0, 0.0), v)
    gaps = [
        dual_norm(apply(PLaplacianOperator(mesh64, 3.0, 10.0**-k), v) - base, "h1")
        for k in range(1, 7)
    ]
    checks["p-Laplacian eps-convergence monotone"] = all(
        b <= a + 1e-15 for a, b in zip(gaps, gaps[1:])
    )
    checks[f"final operator gap {gaps[-1]:.2e} <= 1e-3"] = gaps[-1] <= 1e-3

    _report(10, "property suites", checks, time.perf_counter() - t0, 20.0)
