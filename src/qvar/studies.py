"""Parameter studies: convergence claims turned into measurable slopes and tables.

Each study produces an ordered (parameter, error, aux...) table, an optional
log-log rate fit, and named boolean verdicts.  Exactly reproduced solutions
(error below the exclusion threshold) are counted as exact hits and left out
of fits: the log of zero is undefined and exactness is a stronger statement
than any rate.  Reference solutions are the exact one when known, else the
finest-parameter solve (self-convergence); the choice is recorded in the
output metadata.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, NestingError, SolverError
from .grid import GridFunction, dual_norm, leq, norm
from .operators import assemble_linear, add_regularization
from .qvi_solver import (
    OuterParams,
    QVIProblem,
    problem_certificate,
    solve_qvi_fixed_point,
    solve_qvi_minimal,
    solve_qvi_regularized,
)
from .vi_solver import VIParams

_EXACT_HIT = 1e-10
_ORDER_TOL = 1e-8


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log10(error) against log10(parameter)."""

    slope: float
    intercept: float
    r2: float
    points: tuple
    exact_hits: int = 0


@dataclass
class StudyResult:
    name: str
    rows: list
    aux_names: tuple
    fit: RateFit | None
    verdicts: dict
    seed: int = 0
    reference: str = "none"
    reports: list = field(default_factory=list, repr=False)

    def to_csv(self) -> str:
        lines = [f"# study={self.name} seed={self.seed} reference={self.reference}"]
        lines.append(",".join(("parameter", "error") + tuple(self.aux_names)))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        if self.fit is not None:
            lines.append(
                f"# fit slope={self.fit.slope:.17g} r2={self.fit.r2:.17g} "
                f"exact_hits={self.fit.exact_hits}"
            )
        else:
            exact = sum(1 for row in self.rows if row[1] <= _EXACT_HIT)
            lines.append(f"# fit slope=nan r2=nan exact_hits={exact}")
        for name, value in self.verdicts.items():
            lines.append(f"# verdict {name}={value}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def fit_rate(points, exclude_zero_below: float = _EXACT_HIT) -> RateFit:
    """Ordinary least squares on (log10 x, log10 y) after dropping exact hits."""
    pts = [(float(x), float(y)) for x, y in points]
    for x, y in pts:
        if x <= 0:
            raise ValueError(f"parameters must be positive, got {x}")
        if y < 0:
            raise ValueError(f"errors must be nonnegative, got {y}")
    usable = [(x, y) for x, y in pts if y > exclude_zero_below]
    exact = len(pts) - len(usable)
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 nonzero points for a rate fit, got {len(usable)}"
        )
    lx = np.log10([x for x, _ in usable])
    ly = np.log10([y for _, y in usable])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    return RateFit(float(slope), float(intercept), float(r2), tuple(usable), exact)


def _fit_or_none(points) -> RateFit | None:
    try:
        return fit_rate(points)
    except InsufficientDataError:
        return None


def _map_indexed(fn, items, jobs: int, what: str = "study"):
    """Solve every parameter point, preserving list order regardless of
    scheduling; a failing point aborts the study with its position flagged
    (the first failing point in list order, on either path)."""
    items = list(items)

    def point(k):
        try:
            return fn(items[k])
        except SolverError as exc:
            raise SolverError(
                f"{what} aborted at parameter point {k + 1} of {len(items)} "
                f"({k} rows completed): {exc}"
            ) from exc

    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(point, range(len(items))))
    return [point(k) for k in range(len(items))]


def _check_decreasing(values, what: str) -> None:
    if len(values) < 4:
        raise InsufficientDataError(f"{what} needs at least 4 entries, got {len(values)}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly decreasing")


def _resolve_reference(problem, reference, eps_list, outer, inner):
    """Reference solution for a regularization path: exact grid function,
    a solve at an explicit eps, or the smallest-eps entry of the path."""
    if isinstance(reference, GridFunction):
        return reference, "exact"
    if reference == "smallest-eps":
        eps_ref = eps_list[-1]
    else:
        eps_ref = float(reference)
    rep = solve_qvi_regularized(problem, eps_ref, outer=outer, inner=inner)
    return rep.solution, f"eps={eps_ref:g}"


def run_regularization_path(
    problem: QVIProblem,
    eps_list,
    reference,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> StudyResult:
    """Solve the eps-regularized problem along a decreasing path.

    Verdicts: `eps_monotone` (solutions non-increasing in eps) and
    `errors_nonincreasing` (error against the reference shrinks with eps).
    """
    eps_list = [float(e) for e in eps_list]
    _check_decreasing(eps_list, "eps_list")
    outer = outer or OuterParams()
    inner = inner or VIParams()
    ref, ref_kind = _resolve_reference(problem, reference, eps_list, outer, inner)

    reports = _map_indexed(
        lambda e: solve_qvi_regularized(problem, e, outer=outer, inner=inner),
        eps_list,
        jobs,
        what="regularization path",
    )
    rows = []
    for eps, rep in zip(eps_list, reports):
        err = norm(rep.solution - ref, "h1")
        rows.append((eps, err, float(np.max(rep.solution.values)), rep.outer_iterations))

    sols = [r.solution for r in reports]
    eps_monotone = all(leq(a, b, _ORDER_TOL) for a, b in zip(sols, sols[1:]))
    errors = [row[1] for row in rows]
    errors_nonincreasing = all(b <= a + 1e-10 for a, b in zip(errors, errors[1:]))
    return StudyResult(
        name="regpath",
        rows=rows,
        aux_names=("solution_sup", "outer_iterations"),
        fit=_fit_or_none([(row[0], row[1]) for row in rows]),
        verdicts={"eps_monotone": eps_monotone, "errors_nonincreasing": errors_nonincreasing},
        seed=seed,
        reference=ref_kind,
        reports=reports,
    )


def run_operator_perturbation(
    problem: QVIProblem,
    family: str,
    delta_list,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    reference: GridFunction | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> StudyResult:
    """Minimal solutions of perturbed operators against the unperturbed one.

    family 'scaled_identity' adds delta times the weighted identity (the same
    family a regularization path walks); 'coefficient' shifts the reaction
    coefficient a0 by delta and reassembles.
    """
    delta_list = [float(d) for d in delta_list]
    _check_decreasing(delta_list, "delta_list")
    outer = outer or OuterParams()
    inner = inner or VIParams()

    def perturbed(delta):
        if family == "scaled_identity":
            return add_regularization(problem.operator, delta)
        if family == "coefficient":
            op = problem.operator
            if not getattr(op, "is_linear", False) or op.a is None or op.a0 is None:
                raise ValueError("the coefficient family needs an assembled linear operator")
            return assemble_linear(op.mesh, op.a, op.a0 + delta)
        raise ValueError(f"unknown perturbation family {family!r}")

    if reference is None:
        ref = solve_qvi_minimal(problem, outer, inner).solution
        ref_kind = "delta=0"
    else:
        ref, ref_kind = reference, "exact"

    reports = _map_indexed(
        lambda d: solve_qvi_minimal(problem.with_operator(perturbed(d)), outer, inner),
        delta_list,
        jobs,
        what="perturbation study",
    )
    rows = [
        (d, norm(rep.solution - ref, "h1"), float(np.max(rep.solution.values)), rep.outer_iterations)
        for d, rep in zip(delta_list, reports)
    ]
    verdicts = {}
    if family == "scaled_identity":
        sols = [r.solution for r in reports]
        verdicts["ordered_solutions"] = all(leq(a, b, _ORDER_TOL) for a, b in zip(sols, sols[1:]))
    return StudyResult(
        name="perturb",
        rows=rows,
        aux_names=("solution_sup", "outer_iterations"),
        fit=_fit_or_none([(row[0], row[1]) for row in rows]),
        verdicts=verdicts,
        seed=seed,
        reference=ref_kind,
        reports=reports,
    )


def run_mesh_refinement(
    problem_template,
    n_list,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> StudyResult:
    """Self-convergence under mesh refinement: the finest entry of n_list is
    the reference; coarse solutions are compared at shared nodes (discrete l2)."""
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    n_ref = n_list[-1]
    for n in n_list[:-1]:
        if n_ref % n != 0:
            raise NestingError(f"{n} does not divide the reference cell count {n_ref}")
    if len(n_list) < 4:
        raise InsufficientDataError(f"n_list needs at least 4 entries, got {len(n_list)}")
    outer = outer or OuterParams()
    inner = inner or VIParams()

    def solve_on(n):
        return n, solve_qvi_minimal(problem_template(n), outer, inner)

    results = _map_indexed(solve_on, n_list, jobs, what="mesh refinement")
    n_fine, rep_fine = results[-1]
    fine_full = rep_fine.solution.with_boundary()
    bc = rep_fine.solution.mesh.bc

    rows = []
    reports = []
    for n, rep in results[:-1]:
        sol = rep.solution
        fine_at_coarse = fine_full[np.arange(0, n + 1) * (n_fine // n)]
        if bc == "dirichlet":
            diff = sol.values - fine_at_coarse[1:-1]
        else:
            diff = sol.values - fine_at_coarse
        err = norm(GridFunction(sol.mesh, diff), "l2")
        rows.append((1.0 / n, err, n, rep.outer_iterations))
        reports.append(rep)
    return StudyResult(
        name="refine",
        rows=rows,
        aux_names=("n", "outer_iterations"),
        fit=_fit_or_none([(row[0], row[1]) for row in rows]),
        verdicts={},
        seed=seed,
        reference=f"n={n_fine}",
        reports=reports + [rep_fine],
    )


def run_data_robustness(
    problem: QVIProblem,
    f_deltas,
    phi_deltas,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> StudyResult:
    """Perturb the force by +delta and/or the obstacle base level by +delta.

    The error is measured against the unperturbed solve; the `monotone_in_f`
    verdict requires force increases to produce componentwise non-decreasing
    solutions.
    """
    if f_deltas is None and phi_deltas is None:
        raise ValueError("at least one perturbation list is required")
    if f_deltas is None:
        f_deltas = [0.0] * len(phi_deltas)
    if phi_deltas is None:
        phi_deltas = [0.0] * len(f_deltas)
    f_deltas = [float(d) for d in f_deltas]
    phi_deltas = [float(d) for d in phi_deltas]
    if len(f_deltas) != len(phi_deltas):
        raise ValueError("perturbation lists must have equal length")
    totals = [a + b for a, b in zip(f_deltas, phi_deltas)]
    _check_decreasing(totals, "perturbation magnitudes")
    if totals[-1] <= 0:
        raise ValueError("perturbation magnitudes must be positive")
    outer = outer or OuterParams()
    inner = inner or VIParams()

    base = solve_qvi_minimal(problem, outer, inner).solution

    def solve_pair(pair):
        df, dphi = pair
        f = GridFunction(problem.f.mesh, problem.f.values + df)
        omap = problem.obstacle_map.shifted(dphi) if dphi != 0.0 else problem.obstacle_map
        pert = QVIProblem(problem.operator, f, omap, None)
        return solve_qvi_minimal(pert, outer, inner)

    reports = _map_indexed(
        solve_pair, list(zip(f_deltas, phi_deltas)), jobs, what="robustness study"
    )
    rows = [
        (tot, norm(rep.solution - base, "h1"), df, dphi, rep.outer_iterations)
        for tot, df, dphi, rep in zip(totals, f_deltas, phi_deltas, reports)
    ]
    monotone_in_f = all(
        leq(base, rep.solution, _ORDER_TOL)
        for df, rep in zip(f_deltas, reports)
        if df > 0
    )
    return StudyResult(
        name="robust",
        rows=rows,
        aux_names=("f_delta", "phi_delta", "outer_iterations"),
        fit=_fit_or_none([(row[0], row[1]) for row in rows]),
        verdicts={"monotone_in_f": monotone_in_f},
        seed=seed,
        reference="delta=0",
        reports=reports,
    )


def run_stability_bound_check(
    problem: QVIProblem,
    force_pairs,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> StudyResult:
    """Verify the global Lipschitz bound on the solution map in the smallness
    regime: distance <= ||f1 - f2||_dual / (c - gamma - (L_A + L_N) L_phi)."""
    cert = problem_certificate(problem, "h1")
    if not cert.smallness_ok:
        raise ValueError("stability check requires a passing contraction certificate")
    denom = cert.c - cert.gamma - (cert.L_A + cert.L_N) * cert.L_phi
    if denom <= 0:
        raise ValueError("stability denominator is not positive")
    outer = outer or OuterParams()
    inner = inner or VIParams()
    y0 = GridFunction.zeros(problem.operator.mesh)

    def solve_pair(pair):
        f1, f2 = pair
        r1 = solve_qvi_fixed_point(
            QVIProblem(problem.operator, f1, problem.obstacle_map, None), y0, outer, inner
        )
        r2 = solve_qvi_fixed_point(
            QVIProblem(problem.operator, f2, problem.obstacle_map, None), y0, outer, inner
        )
        return r1, r2

    solved = _map_indexed(solve_pair, list(force_pairs), jobs, what="stability check")
    rows = []
    ratios = []
    for k, ((f1, f2), (r1, r2)) in enumerate(zip(force_pairs, solved)):
        dist = norm(r1.solution - r2.solution, "h1")
        bound = dual_norm(f1 - f2, "h1") / denom
        ratio = dist / bound if bound > 0 else 0.0
        ratios.append(ratio)
        rows.append((k + 1, dist, bound, ratio))
    return StudyResult(
        name="stability",
        rows=rows,
        aux_names=("bound", "ratio"),
        fit=None,
        verdicts={"bound_holds": all(r <= 1.05 for r in ratios)},
        seed=seed,
        reference="pairwise",
        reports=[rep for pair in solved for rep in pair],
    )
