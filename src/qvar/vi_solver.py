"""Inner obstacle-problem solvers for S(f, psi), the map the outer iteration uses.

Every operator goes through one semismooth Newton method on the
complementarity system min(psi - y, f - A(y)) = 0, with one tridiagonal
solve per iteration on the operator's Jacobian bands.  Projected SOR stays as
a short linear reference, and a brute-force active-set enumeration oracle
covers correctness on small instances.  The complementarity residual

    kkt(y) = max_i | min(psi_i - y_i, (f - A(y))_i) |

is the common convergence measure (zero exactly at the solution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatchError,
    OracleInfeasibleError,
    OracleSizeError,
    SolverError,
    StagnationError,
)
from .grid import GridFunction
from .operators import LinearEllipticOperator, _tridiag_solve

_ORACLE_MAX_DOF = 20
# nodes this close to the obstacle, with a positive multiplier, are held on it
_HOLD_TOL = 1e-10
# backtracking gives up once the Newton step is scaled below this
_STEP_FLOOR = 1e-12


@dataclass
class VIParams:
    """Inner-solver controls: max_iter caps Newton iterations (sweeps for PSOR)."""

    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass
class VISolveReport:
    solution: GridFunction = field(repr=False)
    iterations: int
    kkt_residual: float
    converged: bool


def kkt_residual(op, f: GridFunction, psi: GridFunction, y: GridFunction) -> float:
    """Complementarity residual max | min(psi - y, f - A(y)) |."""
    for g in (f, psi, y):
        if g.mesh != op.mesh:
            raise GridMismatchError("kkt residual inputs live on different meshes")
    return _kkt(psi.values - y.values, f.values - op.matvec(y.values))


def _kkt(gap: np.ndarray, r: np.ndarray) -> float:
    """max | min(gap, r) | for the obstacle gap psi - y and the residual f - A(y)."""
    return float(np.max(np.abs(np.minimum(gap, r))))


def _feasible_start(psi: np.ndarray) -> np.ndarray:
    return np.minimum(0.0, psi)


def solve_vi_psor(
    op: LinearEllipticOperator, f: GridFunction, psi: GridFunction, params: VIParams
) -> VISolveReport:
    """Projected SOR in ascending dof order from the feasible start min(0, psi),
    relaxed by omega = 2/(1+sin(pi*h)): the plain-loop reference the Newton
    solver is checked against."""
    if not isinstance(op, LinearEllipticOperator):
        raise SolverError("PSOR requires a linear (tridiagonal) operator")
    if f.mesh != op.mesh or psi.mesh != op.mesh:
        raise GridMismatchError("force/obstacle live on a different mesh")
    omega = 2.0 / (1.0 + math.sin(math.pi * op.mesh.h))
    lower, diag, upper = op.lower, op.diag, op.upper
    fv, pv = f.values, psi.values
    y = _feasible_start(pv)
    n = y.size
    for sweep in range(1, params.max_iter + 1):
        for i in range(n):
            r = fv[i] - diag[i] * y[i]
            if i > 0:
                r -= lower[i] * y[i - 1]
            if i < n - 1:
                r -= upper[i] * y[i + 1]
            y[i] = min(y[i] + omega * r / diag[i], pv[i])
        kkt = _kkt(pv - y, fv - op.matvec(y))
        if kkt <= params.tol:
            break
    return VISolveReport(GridFunction(op.mesh, y), sweep, kkt, kkt <= params.tol)


def _newton_step(bands, held: np.ndarray, gap: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J dy = r on free rows and dy = gap on held rows."""
    lower, diag, upper = bands
    return _tridiag_solve(
        np.where(held[1:], 0.0, lower[1:]),
        np.where(held, 1.0, diag),
        np.where(held[:-1], 0.0, upper[:-1]),
        np.where(held, gap, r),
        "singular Newton system",
    )


def solve_vi(op, f: GridFunction, psi: GridFunction, params: VIParams) -> VISolveReport:
    """Projected Newton method (Bertsekas, SIAM J. Control Optim. 20, 1982) on
    min(psi - y, f - A(y)) = 0 from min(0, psi).

    Each iteration holds the nodes on the obstacle with a positive multiplier
    there, solves one tridiagonal system with the Jacobian bands at y on the
    free rows, and backtracks the projected path min(psi, y + t dy) until the
    energy minus <f, y> does not rise beyond round-off.  A non-finite trial
    is rejected; a step scaled below 1e-12 raises a stagnation error.  The
    residual is the termination test.
    """
    if f.mesh != op.mesh or psi.mesh != op.mesh:
        raise GridMismatchError("force/obstacle live on a different mesh")
    fv, pv = f.values, psi.values
    hwf = op.mesh.hw * fv

    def merit(v):
        return op.energy(v) - float(np.dot(hwf, v))

    y = _feasible_start(pv)
    e = merit(y)
    r = fv - op.matvec(y)
    kkt = _kkt(pv - y, r)
    iters = 0
    while kkt > params.tol and iters < params.max_iter:
        iters += 1
        gap = pv - y
        held = (gap <= _HOLD_TOL * (1.0 + np.abs(pv))) & (r > 0.0)
        dy = _newton_step(op.jacobian_bands(y), held, gap, r)
        t = 1.0
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                yt = np.minimum(pv, y + t * dy)
                rt = fv - op.matvec(yt)
                kkt_t = _kkt(pv - yt, rt)
                et = merit(yt)
            if math.isfinite(et) and et <= e + 1e-14 * (abs(e) + 1.0) and math.isfinite(kkt_t):
                break
            t *= 0.5
            if t < _STEP_FLOOR:
                raise StagnationError(f"Newton step underflowed at residual {kkt:.3e}")
        y, r, kkt, e = yt, rt, kkt_t, et
    return VISolveReport(GridFunction(op.mesh, y), iters, kkt, kkt <= params.tol)


def solve_vi_projected(op, f: GridFunction, psi: GridFunction, params: VIParams) -> VISolveReport:
    """Former name of solve_vi, kept for callers that bind it (bench/tracer.py)."""
    return solve_vi(op, f, psi, params)


def active_set_candidates(op: LinearEllipticOperator, f: GridFunction, psi: GridFunction):
    """All accepted (active_mask, solution) pairs from exhaustive enumeration."""
    m = op.mesh.dof_count
    if m > _ORACLE_MAX_DOF:
        raise OracleSizeError(f"enumeration limited to {_ORACLE_MAX_DOF} dofs, got {m}")
    A = op.dense()
    fv, pv = f.values, psi.values
    accepted = []
    for mask_bits in range(2**m):
        active = np.array([(mask_bits >> i) & 1 == 1 for i in range(m)])
        inactive = ~active
        y = pv.copy()
        if np.any(inactive):
            Acc = A[np.ix_(inactive, inactive)]
            rhs = fv[inactive] - A[np.ix_(inactive, active)] @ pv[active]
            try:
                y[inactive] = np.linalg.solve(Acc, rhs)
            except np.linalg.LinAlgError:
                continue
        if not np.all(y <= pv + 1e-10):
            continue
        mult = fv - A @ y
        if np.any(active) and not np.all(mult[active] >= -1e-10):
            continue
        accepted.append((tuple(np.nonzero(active)[0]), GridFunction(op.mesh, y)))
    return accepted


def solve_vi_active_set_oracle(
    op: LinearEllipticOperator, f: GridFunction, psi: GridFunction
) -> GridFunction:
    """Brute-force reference solution by active-set enumeration (<= 20 dofs)."""
    accepted = active_set_candidates(op, f, psi)
    if not accepted:
        raise OracleInfeasibleError("no active set accepted; operator is not a valid instance")
    return accepted[0][1]
