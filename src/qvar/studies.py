"""Parameter studies: convergence claims turned into measurable slopes and tables.

Each study produces an ordered (parameter, error, aux...) table, an optional
log-log rate fit, and named boolean verdicts.  Exactly reproduced solutions
(error below the exclusion threshold) are counted as exact hits and left out
of fits: the log of zero is undefined and exactness is a stronger statement
than any rate.  Reference solutions are the exact one when known, else the
finest-parameter solve (self-convergence); the choice is recorded in the
output metadata.  Parameter points are solved one after another in list
order, the order of the sequences (eps -> 0, h -> 0, A_n -> A) the studies
walk, and each point's first inner solve starts from its neighbour's
solution: the stability theorem makes it a near-solution of the next
problem.  `_chain` is the one loop over points: a regularization path's
numeric reference is its walk's last point, and a stability check's force
pair is one point, whose second force starts from its first.  The inner
problem has one solution, so the seed moves only digits at the inner
tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, NestingError, SolverError
from .grid import DIRICHLET, GridFunction, dual_norm, leq, make_mesh, norm
from .operators import LinearEllipticOperator, _regularization
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
FAMILIES = ("scaled_identity", "coefficient")  # of run_operator_perturbation


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
    # the CLI's config seed, echoed in the header; no study draws random numbers
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


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def fit_rate(points) -> RateFit:
    """Ordinary least squares on (log10 x, log10 y) after dropping exact hits."""
    pts = [(float(x), float(y)) for x, y in points]
    for x, y in pts:
        if x <= 0:
            raise ValueError(f"parameters must be positive, got {x}")
        if y < 0:
            raise ValueError(f"errors must be nonnegative, got {y}")
    usable = [(x, y) for x, y in pts if y > _EXACT_HIT]
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


def _result(name, rows, aux_names, verdicts, reference, reports, fit=True) -> StudyResult:
    """A study's table with the rate fit of its (parameter, error) columns;
    no fit when `fit` is false or fewer than 3 errors are above the exact-hit
    threshold."""
    try:
        rate = fit_rate([row[:2] for row in rows]) if fit else None
    except InsufficientDataError:
        rate = None
    return StudyResult(name, rows, aux_names, rate, verdicts, reference=reference, reports=reports)


def _chain(solve, items: list, what: str, start: GridFunction | None = None) -> list:
    """Solve every parameter point in list order through solve(item, start),
    where start is the previous point's solution and, for the first point,
    the given one; the first failing point aborts the study with its
    position flagged."""
    reports = []
    for k, item in enumerate(items):
        try:
            reports.append(solve(item, reports[-1].solution if reports else start))
        except SolverError as exc:
            raise SolverError(
                f"{what} aborted at parameter point {k + 1} of {len(items)} "
                f"({k} rows completed): {exc}"
            ) from exc
    return reports


def _check_path(values, what: str):
    """Study points must be at least 4, strictly decreasing and positive;
    checked before any solve, and returned."""
    if len(values) < 4:
        raise InsufficientDataError(f"{what} needs at least 4 entries, got {len(values)}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly decreasing")
    if values[-1] <= 0:
        raise ValueError(f"{what} must be positive")
    return values


def _check_levels(n_list):
    """Refinement cell counts must each make a mesh (n >= 2), increase
    strictly and divide the last (the reference), and there must be at least
    4 of them; checked before any solve, and returned."""
    for n in n_list:
        make_mesh(n, DIRICHLET)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    for n in n_list[:-1]:
        if n_list[-1] % n != 0:
            raise NestingError(f"{n} does not divide the reference cell count {n_list[-1]}")
    if len(n_list) < 4:
        raise InsufficientDataError(f"n_list needs at least 4 entries, got {len(n_list)}")
    return n_list


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"perturbation family must be one of {FAMILIES}, got {family!r}")
    return family


_PATH_AUX = ("solution_sup", "outer_iterations")


def _path_rows(params, reports, ref):
    """(parameter, h1 error against ref, solution_sup, outer_iterations) rows
    of a regularization or perturbation path."""
    return [
        (p, norm(rep.solution - ref, "h1"), float(np.max(rep.solution.values)), rep.outer_iterations)
        for p, rep in zip(params, reports)
    ]


def _ordered(reports) -> bool:
    """Each solution lies below the next one, up to _ORDER_TOL."""
    sols = [r.solution for r in reports]
    return all(leq(a, b, _ORDER_TOL) for a, b in zip(sols, sols[1:]))


def run_regularization_path(
    problem: QVIProblem,
    eps_list,
    reference,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
) -> StudyResult:
    """Solve the eps-regularized problem along a decreasing path.

    `reference` is an exact grid function, or else the walk's last solve: the eps (a
    number) of one more point after the path, or "smallest-eps", the path's own last.
    Verdicts: `eps_monotone` (solutions non-increasing in eps) and `errors_nonincreasing`
    (error against the reference shrinks with eps).
    """
    eps_list = [float(e) for e in eps_list]
    _check_path(eps_list, "eps_list")
    exact = isinstance(reference, GridFunction)
    walk = list(eps_list)
    if not (exact or reference == "smallest-eps"):
        walk.append(_regularization(reference))  # checked before any solve
    reports = _chain(
        lambda e, start: solve_qvi_regularized(problem, e, outer=outer, inner=inner, start=start),
        walk,
        "regularization path",
    )
    ref, ref_kind = (reference, "exact") if exact else (reports[-1].solution, f"eps={walk[-1]:g}")
    rows = _path_rows(eps_list, reports, ref)
    errors = [row[1] for row in rows]
    verdicts = {
        "eps_monotone": _ordered(reports[: len(eps_list)]),
        "errors_nonincreasing": all(b <= a + 1e-10 for a, b in zip(errors, errors[1:])),
    }
    return _result("regpath", rows, _PATH_AUX, verdicts, ref_kind, reports)


def run_operator_perturbation(
    problem: QVIProblem,
    family: str,
    delta_list,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    reference: GridFunction | None = None,
) -> StudyResult:
    """Minimal solutions of A + delta*I, solved as a regularization path
    solves its points (solve_qvi_regularized), against the unperturbed one.

    'scaled_identity' takes any operator and has the `ordered_solutions`
    verdict.  'coefficient' shifts the reaction coefficient a0, which enters
    every diagonal entry of a linear operator unweighted, so it solves the
    same operators; it refuses nonlinear operators and has no verdict."""
    delta_list = [float(d) for d in delta_list]
    _check_path(delta_list, "delta_list")
    _check_family(family)
    if family == "coefficient" and not isinstance(problem.operator, LinearEllipticOperator):
        raise ValueError("the coefficient family needs an assembled linear operator")

    if reference is None:
        ref = solve_qvi_minimal(problem, outer, inner).solution
        ref_kind = "delta=0"
    else:
        ref, ref_kind = reference, "exact"

    reports = _chain(
        lambda d, start: solve_qvi_regularized(problem, d, outer=outer, inner=inner, start=start),
        delta_list,
        "perturbation study",
        start=ref,
    )
    verdicts = {}
    if family == "scaled_identity":
        verdicts["ordered_solutions"] = _ordered(reports)
    return _result(
        "perturb", _path_rows(delta_list, reports, ref), _PATH_AUX, verdicts, ref_kind, reports
    )


def _interpolated(coarse: GridFunction, mesh) -> GridFunction:
    """The coarse solution interpolated linearly onto the nodes of `mesh`,
    dirichlet ends dropped."""
    full = np.interp(mesh.nodes(), coarse.mesh.nodes(), coarse.with_boundary())
    return GridFunction(mesh, full[1:-1] if mesh.bc == DIRICHLET else full)


def run_mesh_refinement(
    problem_template,
    n_list,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
) -> StudyResult:
    """Self-convergence under mesh refinement: the finest entry of n_list is
    the reference; coarse solutions are compared at shared nodes (discrete l2).
    Each mesh starts from the previous solution interpolated linearly."""
    n_list = [int(n) for n in n_list]
    _check_levels(n_list)

    def solve_on(n, coarse):
        problem = problem_template(n)
        start = None if coarse is None else _interpolated(coarse, problem.operator.mesh)
        return solve_qvi_minimal(problem, outer, inner, start=start)

    reports = _chain(solve_on, n_list, "mesh refinement")
    n_fine = n_list[-1]
    fine_full = reports[-1].solution.with_boundary()

    rows = []
    for n, rep in zip(n_list[:-1], reports):
        sol = rep.solution
        fine_at_coarse = fine_full[np.arange(0, n + 1) * (n_fine // n)]
        if sol.mesh.bc == DIRICHLET:
            fine_at_coarse = fine_at_coarse[1:-1]
        err = norm(GridFunction(sol.mesh, sol.values - fine_at_coarse), "l2")
        rows.append((1.0 / n, err, n, rep.outer_iterations))
    return _result("refine", rows, ("n", "outer_iterations"), {}, f"n={n_fine}", reports)


def run_data_robustness(
    problem: QVIProblem,
    f_deltas,
    phi_deltas,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
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
    _check_path(totals, "perturbation magnitudes")

    base = solve_qvi_minimal(problem, outer, inner).solution

    def solve_pair(pair, start):
        df, dphi = pair
        f = GridFunction(problem.f.mesh, problem.f.values + df)
        omap = problem.obstacle_map.shifted(dphi) if dphi != 0.0 else problem.obstacle_map
        pert = QVIProblem(problem.operator, f, omap, None)
        return solve_qvi_minimal(pert, outer, inner, start=start)

    reports = _chain(
        solve_pair, list(zip(f_deltas, phi_deltas)), "robustness study", start=base
    )
    rows = [
        (tot, norm(rep.solution - base, "h1"), df, dphi, rep.outer_iterations)
        for tot, df, dphi, rep in zip(totals, f_deltas, phi_deltas, reports)
    ]
    monotone_in_f = all(
        leq(base, rep.solution, _ORDER_TOL) for df, rep in zip(f_deltas, reports) if df > 0
    )
    aux_names = ("f_delta", "phi_delta", "outer_iterations")
    verdicts = {"monotone_in_f": monotone_in_f}
    return _result("robust", rows, aux_names, verdicts, "delta=0", reports)


def run_stability_bound_check(
    problem: QVIProblem,
    force_pairs,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
) -> StudyResult:
    """Verify the global Lipschitz bound on the solution map in the smallness
    regime: distance <= ||f1 - f2||_dual / ((c - gamma)(1 - rho)), where
    (c - gamma)(1 - rho) = c - gamma - (L_A + L_N) L_phi is positive."""
    cert = problem_certificate(problem)
    if not cert.smallness_ok:
        raise ValueError("stability check requires a passing contraction certificate")
    denom = (cert.c - cert.gamma) * (1.0 - cert.rho)

    def solve(f, start):
        pert = QVIProblem(problem.operator, f, problem.obstacle_map, None)
        return solve_qvi_fixed_point(pert, None, outer, inner, start=start)

    # one walk point per pair: its first force starts from the previous pair's
    # second solution, its second force from its first
    firsts = []

    def solve_pair(pair, start):
        firsts.append(solve(pair[0], start))
        return solve(pair[1], firsts[-1].solution)

    force_pairs = list(force_pairs)
    seconds = _chain(solve_pair, force_pairs, "stability check")
    dists = [norm(r1.solution - r2.solution, "h1") for r1, r2 in zip(firsts, seconds)]
    bounds = [dual_norm(f1 - f2) / denom for f1, f2 in force_pairs]
    rows = [(k + 1, d, b, d / b if b > 0 else 0.0) for k, (d, b) in enumerate(zip(dists, bounds))]
    verdicts = {"bound_holds": all(row[3] <= 1.05 for row in rows)}
    reports = [rep for pair in zip(firsts, seconds) for rep in pair]
    return _result(
        "stability", rows, ("bound", "ratio"), verdicts, "pairwise", reports, fit=False
    )


def _positive(values):
    if not all(v > 0 for v in values):
        raise ValueError("entries must be positive")
    return values


def _number(text: str) -> float:
    """The finite number that text spells."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expects a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _reference(text: str):
    """regpath's reference as a config spells it: smallest-eps, an eps >= 0,
    or const:<level>, the constant function on the mesh it is given."""
    if text.startswith("const:"):
        return functools.partial(GridFunction.constant, c=_number(text[6:]))
    return text if text == "smallest-eps" else _regularization(_number(text))


# The runners of STUDIES: run(problem, problem_on, values, outer, inner), where
# problem_on(n) is the configured problem on n cells and values maps each of
# the kind's keys to its value.  Each finds its run_* in this module's
# namespace when it runs, so a function rebound there is the one called.
def _run_regpath(problem, problem_on, values, outer, inner):
    reference = values["reference"]
    if callable(reference):
        reference = reference(problem.f.mesh)
    return run_regularization_path(problem, values["eps_list"], reference, outer, inner)


def _run_perturb(problem, problem_on, values, outer, inner):
    return run_operator_perturbation(problem, values["family"], values["delta_list"], outer, inner)


def _run_refine(problem, problem_on, values, outer, inner):
    return run_mesh_refinement(problem_on, values["n_list"], outer, inner)


def _run_robust(problem, problem_on, values, outer, inner):
    return run_data_robustness(problem, values["f_deltas"], values["phi_deltas"], outer, inner)


# The CLI's study subcommands, in the order of its help:
# kind -> (help line, {[study] key: (entry, check, default)}, runner).
# A key's value is a comma-separated list of `entry` numbers, or one text
# when `entry` is str; `check` owns its range rule and returns the value to
# use, and `default` stands in when the key is absent.
STUDIES = {
    "regpath": ("regularization-path study", {
        "eps_list": (float, functools.partial(_check_path, what="eps_list"),
                     tuple(0.5 / 2**k for k in range(6))),
        "reference": (str, _reference, "smallest-eps"),
    }, _run_regpath),
    "perturb": ("operator-perturbation study", {
        "family": (str, _check_family, "scaled_identity"),
        "delta_list": (float, functools.partial(_check_path, what="delta_list"),
                       (0.4, 0.2, 0.1, 0.05, 0.025)),
    }, _run_perturb),
    "refine": ("mesh-refinement study", {
        "n_list": (int, _check_levels, (8, 16, 32, 64, 128, 256)),
    }, _run_refine),
    "robust": ("data-robustness study", {
        "f_deltas": (float, _positive, (0.2, 0.1, 0.05, 0.025)),
        "phi_deltas": (float, _positive, None),
    }, _run_robust),
}
