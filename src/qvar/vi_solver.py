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
from .operators import _BACKWARD_TOL, LinearEllipticOperator, _residual_scale, _tridiag_solve

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


def _merit(op, hwf: np.ndarray, v: np.ndarray, av: np.ndarray) -> float:
    """The line search's merit energy(v) - <f, v>, with hwf = hw f and av =
    A(v).  A linear operator's energy is taken from av by the expression of
    LinearEllipticOperator.energy, which saves its second matvec."""
    if isinstance(op, LinearEllipticOperator):
        energy = float(0.5 * np.dot(v, op.mesh.hw * av))
    else:
        energy = op.energy(v)
    return energy - float(np.dot(hwf, v))


def _newton_step(bands, held: np.ndarray, gap: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J dy = r on free rows and dy = gap on held rows."""
    if not held.any():
        return _tridiag_solve(*bands, r, "singular Newton system")
    lower, diag, upper = bands
    return _tridiag_solve(
        np.where(held[1:], 0.0, lower),
        np.where(held, 1.0, diag),
        np.where(held[:-1], 0.0, upper),
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
    energy minus <f, y> does not rise beyond round-off: by 1e-14 (|e| + 1),
    or by 64 eps sum_i hw_i |y_i| (|J| |y| + |f|)_i, the energy's own
    round-off at the Oettli-Prager scale of the Jacobian J at y, which is
    computed only once a trial fails the first test.  When that system is
    singular with no node held, the step is the gap psi - y if it is nonzero.
    A non-finite trial is rejected; a step scaled below 1e-12 raises a
    stagnation error.  The residual is the termination test; a start that
    already meets it is returned after that one check, with no energy
    evaluated.
    """
    mesh = op.mesh
    if (f.mesh is not mesh and f.mesh != mesh) or (psi.mesh is not mesh and psi.mesh != mesh):
        raise GridMismatchError("force/obstacle live on a different mesh")
    if y0 is not None and y0.mesh is not mesh and y0.mesh != mesh:
        raise GridMismatchError("start lives on a different mesh")
    fv, pv = f.values, psi.values
    y = np.minimum(pv, 0.0 if y0 is None else y0.values)
    ay = op.matvec(y)
    r = fv - ay
    kkt = _kkt(pv - y, r)
    if kkt <= params.tol:
        return VISolveReport(GridFunction._adopt(mesh, y), 0, kkt, True)
    hw = mesh.hw
    hwf = hw * fv
    hold_tol = _HOLD_TOL * (1.0 + np.abs(pv))
    with np.errstate(over="ignore", invalid="ignore"):
        e = _merit(op, hwf, y, ay)
    iters = 0
    while kkt > params.tol and iters < params.max_iter:
        iters += 1
        gap = pv - y
        held = (gap <= hold_tol) & (r > 0.0)
        bands = op.jacobian_bands(y)
        try:
            dy = _newton_step(bands, held, gap, r)
        except SolverError:
            # every proper principal block of a stiffness is nonsingular, so
            # only the all-free system of a singular one (neumann, a0 = 0)
            # fails: step toward the obstacle and let the energy decide, unless
            # y is already on it everywhere and that step is zero
            if held.any() or not gap.any():
                raise
            dy = gap
        t = 1.0
        roundoff = None
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                yt = np.minimum(pv, y + t * dy)
                ayt = op.matvec(yt)
                rt = fv - ayt
                kkt_t = _kkt(pv - yt, rt)
                et = _merit(op, hwf, yt, ayt)
            if math.isfinite(et) and math.isfinite(kkt_t):
                if et <= e + 1e-14 * (abs(e) + 1.0):
                    break
                if roundoff is None:
                    scale = _residual_scale(bands, y, fv)
                    roundoff = _BACKWARD_TOL * float(np.dot(hw * np.abs(y), scale))
                if et <= e + roundoff:
                    break
            t *= 0.5
            if t < _STEP_FLOOR:
                raise StagnationError(f"Newton step underflowed at residual {kkt:.3e}")
        y, r, kkt, e = yt, rt, kkt_t, et
    # an accepted trial is finite: a NaN entry makes kkt_t NaN, and an entry
    # of -inf makes <f, y_t> not finite
    return VISolveReport(GridFunction._adopt(mesh, y), iters, kkt, kkt <= params.tol)


def solve_vi_projected(op, f: GridFunction, psi: GridFunction, params: VIParams) -> VISolveReport:
    """Former name of solve_vi, kept for callers that bind it (bench/tracer.py)."""
    return solve_vi(op, f, psi, params)


# the deleted projected SOR solver's name, kept because bench/tracer.py looks
# it up with getattr
solve_vi_psor = solve_vi_projected


def active_set_candidates(op: LinearEllipticOperator, f: GridFunction, psi: GridFunction):
    """All accepted (active_mask, solution) pairs from exhaustive enumeration.
    A free block singular to working precision (cond * m * eps > 1) is
    skipped: its solve can return a huge vector that passes y <= psi."""
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
            if np.linalg.cond(Acc) * m * np.finfo(float).eps > 1.0:
                continue
            rhs = fv[inactive] - A[np.ix_(inactive, active)] @ pv[active]
            y[inactive] = np.linalg.solve(Acc, rhs)
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
