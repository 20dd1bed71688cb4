"""Discrete elliptic operators on 1-D meshes.

Operators act on nodal values and return nodal representations of dual
elements: <A(u), v> = h * sum_i w_i (Au)_i v_i with the trapezoid weights w.
Under this convention the linear assembly reduces to the familiar 3-point
stencil on interior nodes, neumann boundary rows carry half weights (so the
flux part annihilates constants exactly), and the eps-regularization term is
plain addition of eps*u.

Every operator has a `mesh`, `matvec(u)` (the nodal values of A(u)),
`jacobian_bands(u)` (the tridiagonal Jacobian at u as (lower, diag, upper)
bands) and `energy(u)` (a potential whose gradient in the weighted pairing is
A, the merit that globalizes the inner Newton solver).  Bands are stored as
LAPACK takes them: m diagonal entries, and m - 1 off-diagonal ones with
lower[i] in row i+1 and upper[i] in row i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import EllipticityError, GridMismatchError, MissingRegularizerError, SolverError
from .grid import (
    DIRICHLET,
    GridFunction,
    Mesh,
    _check_finite,
    _cholesky_solve,
    _cholesky_tridiag,
    _norm_gram_bands,
)

# componentwise backward error that a stable tridiagonal solve stays below
_BACKWARD_TOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class OperatorConstants:
    """Strong-monotonicity constant c, Lipschitz constant L and one-sided
    monotonicity defect gamma, all relative to the tagged norm pair.  L is
    +inf for an operator that is not globally Lipschitz.  A defect is at most
    the Lipschitz constant of the part it comes from, so gamma <= L."""

    c: float
    L: float
    gamma: float
    norm_tag: str

    def __post_init__(self):
        if not (np.isfinite(self.c) and np.isfinite(self.gamma) and self.L <= np.inf):
            raise ValueError("c and gamma must be finite and L must not be NaN")
        if self.c < 0 or self.gamma < 0 or self.L < max(self.c, self.gamma):
            raise ValueError("constants must satisfy 0 <= c <= L and 0 <= gamma <= L")


def _tridiag_apply(sub, diag, sup, x):
    """Tridiagonal product with the bands (sub, diag, sup)."""
    y = diag * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def _tridiag_solve(sub, diag, sup, rhs, what: str):
    """Solve the tridiagonal system with bands (sub, diag, sup) by LAPACK
    dgtsv (Gaussian elimination with partial pivoting), the routine
    `scipy.linalg.solve_banded` calls for one band on each side.  A singular
    matrix raises a SolverError prefixed by `what`; an inf or NaN entry
    raises ValueError."""
    _check_finite(sub, diag, sup, rhs)
    if diag.size == 1:
        # the f2py wrapper rejects empty off-diagonals
        if diag[0] == 0.0:
            raise SolverError(f"{what}: singular matrix")
        return rhs / diag
    *_, x, info = dgtsv(sub, diag, sup, rhs)
    if info > 0:
        raise SolverError(f"{what}: singular matrix")
    return x


def _regularized_bands(bands, eps: float, delta: float, R):
    """(lower, diag, upper) bands of A + eps*I + delta*R from those of A."""
    lower, diag, upper = bands
    diag = diag + eps
    if delta > 0.0:
        lower = lower + delta * R.lower
        diag = diag + delta * R.diag
        upper = upper + delta * R.upper
    return lower, diag, upper


class LinearEllipticOperator:
    """Tridiagonal operator (1/h^2 flux stencil + reaction term)."""

    def __init__(self, mesh: Mesh, lower, diag, upper):
        self.mesh = mesh
        m = mesh.dof_count
        self.lower = np.asarray(lower, dtype=np.float64).copy()
        self.diag = np.asarray(diag, dtype=np.float64).copy()
        self.upper = np.asarray(upper, dtype=np.float64).copy()
        if (self.lower.shape, self.diag.shape, self.upper.shape) != ((m - 1,), (m,), (m - 1,)):
            raise GridMismatchError(
                f"tridiagonal bands must have {m} diagonal and {m - 1} off-diagonal entries"
            )

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.lower, self.diag, self.upper, u)

    def jacobian_bands(self, u: np.ndarray):
        """Tridiagonal Jacobian at u as (lower, diag, upper) bands."""
        return self.lower, self.diag, self.upper

    def dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.lower, -1) + np.diag(self.upper, 1)

    def gram_tridiag(self):
        """Symmetric pairing matrix K = W A as (offdiag, diag) bands."""
        hw = self.mesh.hw
        return hw[:-1] * self.upper, hw * self.diag

    def energy(self, u: np.ndarray) -> float:
        """Quadratic potential 0.5 <A u, u> in the weighted pairing."""
        return float(0.5 * np.dot(u, self.mesh.hw * self.matvec(u)))


def _samples(spec, xs) -> np.ndarray:
    if callable(spec):
        return np.array([spec(x) for x in xs], dtype=np.float64)
    arr = np.asarray(spec, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(len(xs), float(arr))
    if arr.shape != (len(xs),):
        raise GridMismatchError(f"coefficient samples must have length {len(xs)}")
    return arr.copy()


def assemble_linear(mesh: Mesh, a, a0) -> LinearEllipticOperator:
    """Assemble -(a u')' + a0 u with the conservative 3-point stencil.

    `a` is sampled at edge midpoints, `a0` at dof nodes; neumann rows use the
    half-weight flux stencil that annihilates constants exactly.
    """
    h = mesh.h
    edge_x = (np.arange(mesh.n) + 0.5) * h
    a_e = _samples(a, edge_x)
    a0_n = _samples(a0, mesh.dof_nodes())
    if np.min(a_e) <= 0:
        raise EllipticityError(f"diffusion coefficient must be positive, min={np.min(a_e)}")
    if np.min(a0_n) < 0:
        raise EllipticityError(f"reaction coefficient must be nonnegative, min={np.min(a0_n)}")

    h2 = h * h
    if mesh.bc == DIRICHLET:
        # dof j sits at node j+1 between edges j and j+1
        diag = (a_e[:-1] + a_e[1:]) / h2 + a0_n
        lower = upper = -a_e[1:-1] / h2
    else:
        # node j sits between edges j-1 and j; a boundary row doubles its one edge
        diag = np.concatenate(([2.0 * a_e[0]], a_e[:-1] + a_e[1:], [2.0 * a_e[-1]])) / h2 + a0_n
        lower = -a_e / h2
        upper = lower.copy()
        lower[-1] *= 2.0
        upper[0] *= 2.0
    return LinearEllipticOperator(mesh, lower, diag, upper)


class PLaplacianOperator:
    """Plain (eps=0) or regularized p-Laplacian with edge-midpoint fluxes."""

    def __init__(self, mesh: Mesh, p: float, eps: float = 0.0):
        if mesh.bc != DIRICHLET:
            raise GridMismatchError("the p-Laplacian is assembled on dirichlet meshes only")
        if p < 2:
            raise ValueError(f"exponent must satisfy p >= 2, got {p}")
        if eps < 0:
            raise ValueError(f"regularization must be nonnegative, got {eps}")
        self.mesh = mesh
        self.p = float(p)
        self.eps = float(eps)

    def _edge_gradients(self, u: np.ndarray) -> np.ndarray:
        full = np.concatenate(([0.0], u, [0.0]))
        return np.diff(full) / self.mesh.h

    def matvec(self, u: np.ndarray) -> np.ndarray:
        g = self._edge_gradients(u)
        s = g * g + self.eps
        with np.errstate(divide="ignore", invalid="ignore"):
            flux = np.where(s > 0.0, s ** ((self.p - 2.0) / 2.0) * g, 0.0)
        return (flux[:-1] - flux[1:]) / self.mesh.h

    def jacobian_bands(self, u: np.ndarray):
        """Tridiagonal Jacobian at u: edge e couples its two end nodes through
        the flux derivative s^{(p-4)/2} ((p-1) g^2 + eps), whose s=0 limit is
        0 for p > 2 and 1 for p = 2."""
        g = self._edge_gradients(u)
        s = g * g + self.eps
        limit = 1.0 if self.p == 2.0 else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            dflux = np.where(
                s > 0.0, s ** ((self.p - 4.0) / 2.0) * ((self.p - 1.0) * g * g + self.eps), limit
            )
        dflux /= self.mesh.h**2
        off = -dflux[1:-1]
        return off, dflux[:-1] + dflux[1:], off

    def energy(self, u: np.ndarray) -> float:
        """Convex potential whose gradient (in the weighted pairing) is the operator."""
        g = self._edge_gradients(u)
        s = g * g + self.eps
        return float(self.mesh.h / self.p * np.sum(s ** (self.p / 2.0)))


class NonMonotoneOperator:
    """Composite A(y) + lam*sin(y) with the bounded nonlinearity lam*sin.

    Its Lipschitz constant and one-sided monotonicity defect both equal
    |lam|, which makes the smallness condition checkable in closed form.
    """

    def __init__(self, base: LinearEllipticOperator, lam: float):
        if not np.isfinite(lam):
            raise ValueError("nonlinearity amplitude must be finite")
        self.base = base
        self.mesh = base.mesh
        self.lam = float(lam)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.base.matvec(u) + self.lam * np.sin(u)

    def jacobian_bands(self, u: np.ndarray):
        """Base bands plus lam*cos(u) on the diagonal."""
        return self.base.lower, self.base.diag + self.lam * np.cos(u), self.base.upper

    def energy(self, u: np.ndarray) -> float:
        """Potential 0.5 <A u, u> - lam <cos(u), 1> of the composite."""
        return self.base.energy(u) - self.lam * float(np.dot(self.mesh.hw, np.cos(u)))


class RegularizedOperator:
    """Wrapper op(u) + eps*u + delta*R(u) for nonlinear inner operators."""

    def __init__(self, inner, eps: float, delta: float = 0.0, R: LinearEllipticOperator | None = None):
        self.inner = inner
        self.mesh = inner.mesh
        self.eps = float(eps)
        self.delta = float(delta)
        self.R = R

    def matvec(self, u: np.ndarray) -> np.ndarray:
        y = self.inner.matvec(u) + self.eps * u
        if self.delta > 0.0:
            y += self.delta * self.R.matvec(u)
        return y

    def jacobian_bands(self, u: np.ndarray):
        """Inner bands plus eps on the diagonal plus delta times the bands of R."""
        return _regularized_bands(self.inner.jacobian_bands(u), self.eps, self.delta, self.R)

    def energy(self, u: np.ndarray) -> float:
        e = self.inner.energy(u) + 0.5 * self.eps * float(np.dot(u, self.mesh.hw * u))
        if self.delta > 0.0:
            e += self.delta * self.R.energy(u)
        return e


def apply(op, u: GridFunction) -> GridFunction:
    """Evaluate the operator on a grid function."""
    if op.mesh != u.mesh:
        raise GridMismatchError("operator and grid function live on different meshes")
    return GridFunction(u.mesh, op.matvec(u.values))


def add_regularization(op, eps: float, delta: float = 0.0, R: LinearEllipticOperator | None = None):
    """Return u -> op(u) + eps*u + delta*R(u).

    The eps term is the trapezoid-weighted identity in the duality pairing,
    i.e. the discrete version of adding eps*y in the pivot-space sense.  For
    linear operators the result is again an assembled tridiagonal operator.
    """
    if eps < 0 or delta < 0:
        raise ValueError("regularization parameters must be nonnegative")
    if delta > 0 and R is None:
        raise MissingRegularizerError("delta > 0 requires a regularization operator R")
    if R is not None and R.mesh != op.mesh:
        raise GridMismatchError("regularizer lives on a different mesh")
    if eps == 0 and delta == 0:
        return op
    if isinstance(op, LinearEllipticOperator):
        return LinearEllipticOperator(
            op.mesh, *_regularized_bands((op.lower, op.diag, op.upper), eps, delta, R)
        )
    return RegularizedOperator(op, eps, delta, R)


def solve_unconstrained(op: LinearEllipticOperator, f: GridFunction) -> GridFunction:
    """Direct tridiagonal solve A u = f, accepted when its componentwise
    backward error is at most 64 * eps."""
    if not isinstance(op, LinearEllipticOperator):
        raise SolverError("direct solve requires a linear (tridiagonal) operator")
    if op.mesh != f.mesh:
        raise GridMismatchError("operator and force live on different meshes")
    u = _tridiag_solve(op.lower, op.diag, op.upper, f.values, "tridiagonal solve failed")
    if not np.all(np.isfinite(u)):
        raise SolverError("tridiagonal solve produced non-finite values")
    berr = _backward_error(op, u, f.values)
    if not berr <= _BACKWARD_TOL:  # a NaN, from A u overflowing, fails too
        raise SolverError(f"componentwise backward error {berr:.3e} exceeds 64 * eps")
    return GridFunction(op.mesh, u)


def _backward_error(op: LinearEllipticOperator, u: np.ndarray, fv: np.ndarray) -> float:
    """Componentwise backward error max_i |A u - f|_i / (|A| |u| + |f|)_i of u
    as a solution of A u = f (Oettli & Prager, 1964).  Unlike max |A u - f|,
    whose round-off grows like 1/h^2, it stays near eps at every mesh size
    for a backward stable solve.  A nonzero residual over a zero denominator
    counts as inf."""
    resid = np.abs(op.matvec(u) - fv)
    scale = _tridiag_apply(*map(np.abs, (op.lower, op.diag, op.upper, u))) + np.abs(fv)
    ratio = np.divide(resid, scale, out=np.where(resid > 0.0, np.inf, 0.0), where=scale > 0.0)
    return float(np.max(ratio))


def _pencil_extremes(K_off, K_diag, G_off, G_diag):
    """Smallest and largest eigenvalue (c, L) of the symmetric tridiagonal
    pencil K x = mu G x with G positive definite.

    Each extreme is bracketed by bisection on whether +-(K - mu G) is
    positive definite (Sylvester's law of inertia), carried to the resolution
    of floating point.  The test is an LDL^T factorization by LAPACK dpttrf,
    which succeeds exactly when every pivot d_i is positive.  Each extreme is
    then refined by three inverse-iteration steps with the last definite
    factor (dpttrs) and a Rayleigh quotient.  c is reported as 0 when K is
    not positive definite or when c is at most m * eps * L, below what the
    factorizations resolve: a singular K can pass the pivot test by rounding
    alone.  A zero K gives (0, 0), where bisection would drive mu into the
    subnormals and inverse iteration would overflow.
    """
    if not (K_diag.any() or K_off.any()):
        return 0.0, 0.0

    def factor(sign, mu):
        return _cholesky_tridiag(sign * (K_off - mu * G_off), sign * (K_diag - mu * G_diag))

    def G_apply(x):
        return _tridiag_apply(G_off, G_diag, G_off, x)

    def bisect(sign, definite, other, fac):
        # `definite` keeps a point where sign * (K - mu G) is positive definite
        while definite != (mid := 0.5 * (definite + other)) != other:
            trial = factor(sign, mid)
            if trial is None:
                other = mid
            else:
                definite, fac = mid, trial
        return definite, fac

    def refine(fac):
        x = np.ones_like(K_diag)
        for _ in range(3):
            x = _cholesky_solve(fac, G_apply(x))
            x /= np.linalg.norm(x)
        kx = _tridiag_apply(K_off, K_diag, K_off, x)
        return float(np.dot(x, kx) / np.dot(x, G_apply(x)))

    # L: mu G - K turns positive definite above the largest eigenvalue
    lo, hi = 0.0, 1.0
    while (fac := factor(-1.0, hi)) is None:
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            raise SolverError("operator spectrum has no finite upper bound")
    hi, fac = bisect(-1.0, hi, lo, fac)
    L = refine(fac)
    # c: K - mu G stays positive definite below the smallest eigenvalue
    fac = factor(1.0, 0.0)
    if fac is None:
        return 0.0, L
    _, fac = bisect(1.0, 0.0, hi, fac)
    c = refine(fac)
    return (c if c > K_diag.size * np.finfo(float).eps * L else 0.0), L


def _linear_split(op):
    """(linear part, gamma, L_rest) of an operator: op minus its linear part
    has one-sided monotonicity defect at most gamma and Lipschitz constant at
    most L_rest in the l2 pairing, hence in both tagged norms.  The constants
    and the maximal mode's supersolution both take the linear part from here.

    The p-Laplacian flux derivative s^{(p-4)/2} ((p-1) g^2 + eps) is at least
    eps^{(p-2)/2} for p >= 2 (Barrett & Liu, Math. Comp. 61, 1993), so
    eps^{(p-2)/2} times the a=1, a0=0 stiffness is a linear part with a
    monotone remainder; the remainder is 0 for p = 2 and not globally
    Lipschitz for p > 2.
    """
    if isinstance(op, LinearEllipticOperator):
        return op, 0.0, 0.0
    if isinstance(op, NonMonotoneOperator):
        lam = abs(op.lam)
        return op.base, lam, lam
    if isinstance(op, PLaplacianOperator):
        stiff = assemble_linear(op.mesh, 1.0, 0.0)
        scale = op.eps ** ((op.p - 2.0) / 2.0)
        linear = LinearEllipticOperator(
            op.mesh, scale * stiff.lower, scale * stiff.diag, scale * stiff.upper
        )
        return linear, 0.0, 0.0 if op.p == 2.0 else np.inf
    if isinstance(op, RegularizedOperator):
        linear, gamma, lip = _linear_split(op.inner)
        return add_regularization(linear, op.eps, op.delta, op.R), gamma, lip
    raise TypeError(f"no structural constants for {type(op).__name__}")


def estimate_constants(op, norm_tag: str) -> OperatorConstants:
    """Structural constants of an operator as proven bounds.

    The operator is split into a linear part and a remainder with closed-form
    bounds (`_linear_split`).  c and L of the linear part are the extreme
    eigenvalues of its tridiagonal pencil; the remainder's defect is gamma
    and its Lipschitz constant is added to L.
    """
    linear, gamma, lip = _linear_split(op)
    c, L = _pencil_extremes(*linear.gram_tridiag(), *_norm_gram_bands(op.mesh, norm_tag))
    c = max(c, 0.0)
    L = max(L, c)
    return OperatorConstants(c=c, L=L + lip, gamma=gamma, norm_tag=norm_tag)
