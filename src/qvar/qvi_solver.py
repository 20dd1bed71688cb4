"""Outer solvers for obstacle problems whose constraint depends on the solution.

The workhorse is the fixed-point iteration y^{k+1} = S(f, Phi(y^k)); started
from 0 it climbs monotonically to the minimal solution, started from the
unconstrained supersolution A^{-1}(F) it descends to the maximal one.  The
monotone modes hard-assert iterate ordering: a violation means the structural
hypotheses (increasing obstacle map, nonnegative force) are broken and must
surface rather than be iterated over.  Each inner solve starts from the
previous inner solution moved with its obstacle, so the obstacle problems of
late outer iterations cost a few Newton iterations instead of O(n).

When the coupling is weak enough -- L_phi < (c - gamma)/(L_A + L_N) -- the
outer map is a contraction with ratio rho = (L_A + L_N) L_phi / (c - gamma);
the certificate below packages exactly that check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, OrderingViolationError, SolverError
from .grid import GridFunction, dual_norm, leq, norm
from .obstacle import ObstacleMap, eval_obstacle, lipschitz_bound
from .operators import (
    OperatorConstants,
    add_regularization,
    estimate_constants,
    solve_unconstrained,
)
from .vi_solver import VIParams, solve_vi

_ORDER_TOL = 1e-9
_RHO_BURN_IN = 2


@dataclass
class OuterParams:
    tol: float = 1e-8
    max_iter: int = 200

    __post_init__ = VIParams.__post_init__


@dataclass
class QVIProblem:
    """Problem bundle: operator, force, obstacle map, optional upper force."""

    operator: object
    f: GridFunction
    obstacle_map: ObstacleMap
    F: GridFunction | None = None

    def __post_init__(self):
        mesh = self.operator.mesh
        if self.f.mesh != mesh or self.obstacle_map.mesh != mesh:
            raise GridMismatchError("problem components live on different meshes")
        if self.F is not None:
            if self.F.mesh != mesh:
                raise GridMismatchError("upper force lives on a different mesh")
            if not leq(self.f, self.F, 0.0):
                raise ValueError("upper force must dominate the force: f <= F")

    def with_operator(self, op) -> "QVIProblem":
        return QVIProblem(op, self.f, self.obstacle_map, self.F)


@dataclass
class QVIReport:
    solution: GridFunction = field(repr=False)
    outer_iterations: int
    step_norms: list
    ratios: list
    rho_observed: float
    converged: bool
    monotone_trace: str
    # Newton iterations of the inner solve in each outer iteration
    inner_per_outer: list = field(default_factory=list)

    @property
    def inner_iterations(self) -> int:
        return sum(self.inner_per_outer)

    def csv_text(self) -> str:
        lines = ["outer_iter,step_norm,ratio"]
        for k, s in enumerate(self.step_norms):
            ratio = f"{self.ratios[k - 1]:.17g}" if k >= 1 else ""
            lines.append(f"{k + 1},{s:.17g},{ratio}")
        lines.append(
            f"# summary outer_iterations={self.outer_iterations} "
            f"rho_observed={self.rho_observed:.17g} converged={self.converged} "
            f"monotone_trace={self.monotone_trace}"
        )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ContractionCertificate:
    c: float
    L_A: float
    L_N: float
    gamma: float
    L_phi: float
    rho: float
    smallness_ok: bool

    def csv_row(self) -> str:
        return (
            f"{self.c:.17g},{self.L_A:.17g},{self.L_N:.17g},{self.gamma:.17g},"
            f"{self.L_phi:.17g},{self.rho:.17g},{self.smallness_ok}"
        )


def contraction_certificate(constants: OperatorConstants, L_phi: float) -> ContractionCertificate:
    """Smallness check rho = (L_A + L_N) * L_phi / (c - gamma) < 1.

    `constants.L` is the Lipschitz constant of the full operator.  The share
    L_N of its non-monotone part is reported as gamma, because the one such
    part, lam*sin, has defect and Lipschitz constant both |lam|; L_A is
    L - gamma.  The split is reported only, rho uses L.
    """
    if not L_phi >= 0:  # also rejects nan
        raise ValueError("invalid Lipschitz data for the certificate")
    denom = constants.c - constants.gamma
    if denom > 0:
        # a fixed map (L_phi = 0) contracts even when L is +inf
        rho = constants.L * L_phi / denom if L_phi > 0 else 0.0
    else:
        rho = np.inf
    return ContractionCertificate(
        c=constants.c,
        L_A=constants.L - constants.gamma,
        L_N=constants.gamma,
        gamma=constants.gamma,
        L_phi=L_phi,
        rho=float(rho),
        smallness_ok=bool(rho < 1.0),
    )


def operator_structural_constants(op):
    """`estimate_constants(op)` and its L_N = gamma.  No qvar code calls it;
    it is kept because `bench/tracer.py` binds it."""
    constants = estimate_constants(op)
    return constants, constants.gamma


def problem_certificate(problem: QVIProblem) -> ContractionCertificate:
    """The h1 contraction certificate of a problem."""
    constants = estimate_constants(problem.operator)
    return contraction_certificate(constants, lipschitz_bound(problem.obstacle_map))


def solve_qvi_fixed_point(
    problem: QVIProblem,
    y0: GridFunction | None = None,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    _order_check: str | None = None,
    start: GridFunction | None = None,
) -> QVIReport:
    """Iterate y^{k+1} = S(f, Phi(y^k)) until the sup-norm step stagnates.

    The iteration starts from y0, 0 by default.  Records step norms,
    consecutive ratios and rho_observed (the largest ratio after a 2-step
    burn-in; early ratios are polluted by active-set discovery in the inner
    solver).

    Outer iteration 1 starts its inner solve from `start`, y0 by default; a
    study passes its neighbouring point's solution there, which moves only
    the Newton path of that solve, not the outer iterates.  Each later one
    starts from the previous inner solution moved with its obstacle: if y^k
    solved the obstacle psi^{k-1} and psi^k = Phi(y^k), the start is
    y^k + (psi^k - psi^{k-1}).  The shift puts every contact node back on the
    moved obstacle, where Newton holds it; the plain min(y^k, psi^k) leaves
    such nodes just below a raised obstacle, free, and its first step can
    overshoot until backtracking stagnates on fine meshes.
    """
    outer = outer or OuterParams()
    inner = inner or VIParams()
    y = GridFunction.zeros(problem.operator.mesh) if y0 is None else y0.copy()
    psi_prev = None
    step_norms: list[float] = []
    inner_per_outer: list[int] = []
    converged = False
    # whether every step so far was non-decreasing / non-increasing
    rising = falling = True
    start = y if start is None else start
    for k in range(1, outer.max_iter + 1):
        psi = eval_obstacle(problem.obstacle_map, y)
        if psi_prev is not None:
            start = GridFunction(y.mesh, y.values + (psi.values - psi_prev.values))
        rep = solve_vi(problem.operator, problem.f, psi, inner, y0=start)
        psi_prev = psi
        inner_per_outer.append(rep.iterations)
        if not rep.converged:
            raise SolverError(
                f"inner solve stalled in outer iteration {k} at residual "
                f"{rep.kkt_residual:.3e} after {rep.iterations} iterations"
            )
        ynew = rep.solution
        step = ynew.values - y.values
        lo, hi = step.min(), step.max()
        rising = rising and lo >= -_ORDER_TOL
        falling = falling and hi <= _ORDER_TOL
        if _order_check == "increasing" and not rising:
            raise OrderingViolationError(
                "iterates failed to increase; obstacle map or force violates the monotone hypotheses"
            )
        if _order_check == "decreasing" and not falling:
            raise OrderingViolationError(
                "iterates failed to decrease from the supersolution"
            )
        step_norms.append(float(max(abs(lo), abs(hi))))
        y = ynew
        if step_norms[-1] <= outer.tol:
            converged = True
            break
    ratios = [
        step_norms[k + 1] / step_norms[k] if step_norms[k] > 0 else 0.0
        for k in range(len(step_norms) - 1)
    ]
    tail = ratios[_RHO_BURN_IN:]
    rho_observed = max(tail) if tail else 0.0
    return QVIReport(
        solution=y,
        outer_iterations=len(step_norms),
        step_norms=step_norms,
        ratios=ratios,
        rho_observed=float(rho_observed),
        converged=converged,
        monotone_trace="increasing" if rising else "decreasing" if falling else "none",
        inner_per_outer=inner_per_outer,
    )


def solve_qvi_minimal(
    problem: QVIProblem,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    start: GridFunction | None = None,
) -> QVIReport:
    """Non-decreasing iteration from 0; the limit approximates the minimal
    solution.  `start` seeds only the first inner solve."""
    if np.min(problem.f.values) < 0:
        raise ValueError("the monotone modes require a nonnegative force")
    return solve_qvi_fixed_point(
        problem, outer=outer, inner=inner, _order_check="increasing", start=start
    )


def unconstrained_supersolution(op, F: GridFunction, inner: VIParams | None = None) -> GridFunction:
    """A y with op(y) >= F: the start iterate for the maximal mode.

    An operator whose remainder beyond its linear part (`op.linear_split()`) is
    Lipschitz gets a direct solve of that linear part against F + lip: the one
    nonzero such remainder, lam*sin, is at least -|lam| = -lip.  One with a
    remainder that is not (the p-Laplacian for p > 2) gets the inner Newton
    solver on op(y) = F with the obstacle pushed to infinity.
    """
    linear, _, lip = op.linear_split()
    if lip < np.inf:
        return solve_unconstrained(linear, GridFunction(F.mesh, F.values + lip) if lip else F)
    inner = inner or VIParams()
    huge = GridFunction.constant(op.mesh, 1e300)
    rep = solve_vi(op, F, huge, inner)
    if not rep.converged:
        raise SolverError(
            f"unconstrained nonlinear solve did not converge: residual "
            f"{rep.kkt_residual:.3e} after {rep.iterations} iterations"
        )
    return rep.solution


def solve_qvi_maximal(
    problem: QVIProblem,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    minimal: GridFunction | None = None,
) -> QVIReport:
    """Non-increasing iteration from the supersolution A^{-1}(F)."""
    if problem.F is None:
        raise ValueError("the maximal mode needs an upper force F with f <= F")
    y0 = unconstrained_supersolution(problem.operator, problem.F, inner)
    report = solve_qvi_fixed_point(problem, y0, outer, inner, _order_check="decreasing")
    if minimal is not None and not leq(minimal, report.solution, _ORDER_TOL):
        raise OrderingViolationError("minimal solution exceeds the maximal solution")
    return report


def solve_qvi_regularized(
    problem: QVIProblem,
    eps: float,
    outer: OuterParams | None = None,
    inner: VIParams | None = None,
    start: GridFunction | None = None,
) -> QVIReport:
    """The minimal solve of the eps-regularized problem, operator A + eps I;
    `start` seeds only the first inner solve."""
    regularized = problem.with_operator(add_regularization(problem.operator, eps))
    return solve_qvi_minimal(regularized, outer, inner, start=start)


def uniform_bound_holds(problem: QVIProblem, report: QVIReport) -> bool:
    """Check ||y||_h1 <= (1/c) ||f||_h1* + 1e-6; false when c = 0."""
    c = estimate_constants(problem.operator).c
    return c > 0 and norm(report.solution, "h1") <= dual_norm(problem.f) / c + 1e-6
