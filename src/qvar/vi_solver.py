"""Inner obstacle-problem solvers for S(f, psi), the map the outer iteration uses.

Every operator goes through one projected Newton method on the
complementarity system min(psi - y, f - A(y)) = 0, with one tridiagonal
solve per iteration on the operator's Jacobian bands.  A brute-force
active-set enumeration oracle, which shares no code with it, checks it on
small linear instances.  The complementarity residual

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
    """Inner-solver controls: tol stops on the residual, max_iter caps Newton iterations."""

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
    return float(np.abs(np.minimum(gap, r)).max())


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


def solve_vi(
    op, f: GridFunction, psi: GridFunction, params: VIParams, y0: GridFunction | None = None
) -> VISolveReport:
    """Projected Newton method (Bertsekas, SIAM J. Control Optim. 20, 1982) on
    min(psi - y, f - A(y)) = 0 from the feasible point min(psi, y0), y0 = 0 by
    default.  The solution is unique, so the start moves only the Newton path.

    Each iteration holds the nodes on the obstacle with a positive multiplier
    there, solves one tridiagonal system with the Jacobian bands at y on the
    free rows, and backtracks the projected path min(psi, y + t dy) until the
    energy minus <f, y> does not rise beyond round-off.  When that system is
    singular with no node held, the step is the gap psi - y if it is nonzero.
    A non-finite trial is rejected; a step scaled below 1e-12 raises a
    stagnation error.  The residual is the termination test; a start that
    already meets it is returned after that one check, with no energy
    evaluated.
    """
    if f.mesh != op.mesh or psi.mesh != op.mesh:
        raise GridMismatchError("force/obstacle live on a different mesh")
    if y0 is not None and y0.mesh != op.mesh:
        raise GridMismatchError("start lives on a different mesh")
    fv, pv = f.values, psi.values
    y = np.minimum(pv, 0.0 if y0 is None else y0.values)
    r = fv - op.matvec(y)
    kkt = _kkt(pv - y, r)
    if kkt <= params.tol:
        return VISolveReport(GridFunction(op.mesh, y), 0, kkt, True)
    hwf = op.mesh.hw * fv

    def merit(v):
        return op.energy(v) - float(np.dot(hwf, v))

    e = merit(y)
    iters = 0
    while kkt > params.tol and iters < params.max_iter:
        iters += 1
        gap = pv - y
        held = (gap <= _HOLD_TOL * (1.0 + np.abs(pv))) & (r > 0.0)
        try:
            dy = _newton_step(op.jacobian_bands(y), held, gap, r)
        except SolverError:
            # every proper principal block of a stiffness is nonsingular, so
            # only the all-free system of a singular one (neumann, a0 = 0)
            # fails: step toward the obstacle and let the energy decide, unless
            # y is already on it everywhere and that step is zero
            if held.any() or not gap.any():
                raise
            dy = gap
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


# the deleted projected SOR solver's name, kept because bench/tracer.py looks
# it up with getattr
solve_vi_psor = solve_vi_projected


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
