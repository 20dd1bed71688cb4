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
A, the merit that globalizes the inner Newton solver); `solve_vi` needs only
these three.  Bands are stored as LAPACK takes them: m diagonal entries, and
m - 1 off-diagonal ones with lower[i] in row i+1 and upper[i] in row i.

Each operator class also states its own structure: `regularized(eps)` is
u -> A(u) + eps*u as an operator of the same class, and `linear_split()` is
(linear part, gamma, L_rest), a linear part whose remainder has one-sided
monotonicity defect at most gamma and Lipschitz constant at most L_rest in
the l2 pairing, hence in the h1 norm pair.  The structural constants and the
maximal mode's supersolution both take the linear part from there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import EllipticityError, GridMismatchError, SolverError
from .grid import (
    DIRICHLET,
    GridFunction,
    Mesh,
    _check_finite,
    _cholesky_solve,
    _cholesky_tridiag,
    _h1_gram_banded,
)

# componentwise backward error that a stable tridiagonal solve stays below;
# also the relative round-off that the inner line search allows its energy
_BACKWARD_TOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class OperatorConstants:
    """Strong-monotonicity constant c, Lipschitz constant L and one-sided
    monotonicity defect gamma, all relative to the h1 norm and its dual.  L
    is +inf for an operator that is not globally Lipschitz.  A defect is at
    most the Lipschitz constant of the part it comes from, so gamma <= L."""

    c: float
    L: float
    gamma: float

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

    def regularized(self, eps: float) -> LinearEllipticOperator:
        """The assembled operator with eps added to the diagonal."""
        return LinearEllipticOperator(self.mesh, self.lower, self.diag + eps, self.upper)

    def linear_split(self):
        return self, 0.0, 0.0


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
    if not np.min(a_e) > 0:  # NaN fails too
        raise EllipticityError(f"diffusion coefficient must be positive, min={np.min(a_e)}")
    if not np.min(a0_n) >= 0:
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


def _exponent(p: float) -> float:
    if not p >= 2:  # the p >= 2 of the stability results; NaN fails too
        raise ValueError(f"exponent must satisfy p >= 2, got {p}")
    return float(p)


def _regularization(eps: float) -> float:
    if not eps >= 0:  # NaN fails too
        raise ValueError(f"regularization eps must be nonnegative, got {eps}")
    return float(eps)


class PLaplacianOperator:
    """Plain (eps=0) or regularized p-Laplacian with edge-midpoint fluxes; the
    reaction `shift` that `regularized` sets is added last."""

    def __init__(self, mesh: Mesh, p: float, eps: float = 0.0):
        if mesh.bc != DIRICHLET:
            raise GridMismatchError("the p-Laplacian is assembled on dirichlet meshes only")
        self.mesh, self.p, self.eps = mesh, _exponent(p), _regularization(eps)
        self.shift = 0.0

    def _edge_gradients(self, u: np.ndarray) -> np.ndarray:
        """np.diff([0, u, 0]) / h without the copy; 0.0 - u[-1], not -u[-1], keeps +0."""
        g = np.empty(u.size + 1)
        g[0], g[-1] = u[0], 0.0 - u[-1]
        np.subtract(u[1:], u[:-1], out=g[1:-1])
        g /= self.mesh.h
        return g

    def matvec(self, u: np.ndarray) -> np.ndarray:
        g = self._edge_gradients(u)
        s = g * g + self.eps
        with np.errstate(divide="ignore", invalid="ignore"):
            flux = np.where(s > 0.0, s ** ((self.p - 2.0) / 2.0) * g, 0.0)
        out = (flux[:-1] - flux[1:]) / self.mesh.h
        return out + self.shift * u if self.shift else out

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
        diag = dflux[:-1] + dflux[1:]
        return off, diag + self.shift if self.shift else diag, off

    def energy(self, u: np.ndarray) -> float:
        """Convex potential whose gradient (in the weighted pairing) is the operator."""
        g = self._edge_gradients(u)
        s = g * g + self.eps
        e = float(self.mesh.h / self.p * np.sum(s ** (self.p / 2.0)))
        return e + 0.5 * self.shift * float(np.dot(u, self.mesh.hw * u)) if self.shift else e

    def regularized(self, eps: float) -> PLaplacianOperator:
        reg = copy.copy(self)
        reg.shift = self.shift + eps
        return reg

    def linear_split(self):
        """The flux derivative s^{(p-4)/2} ((p-1) g^2 + eps) is at least
        eps^{(p-2)/2} for p >= 2 (Barrett & Liu, Math. Comp. 61, 1993), so
        eps^{(p-2)/2} times the a=1, a0=0 stiffness, plus the shift, is a
        linear part with a monotone remainder; the remainder is 0 for p = 2
        and not globally Lipschitz for p > 2."""
        stiff = assemble_linear(self.mesh, 1.0, 0.0)
        scale = self.eps ** ((self.p - 2.0) / 2.0)
        linear = LinearEllipticOperator(
            self.mesh, scale * stiff.lower, scale * stiff.diag, scale * stiff.upper
        )
        return add_regularization(linear, self.shift), 0.0, 0.0 if self.p == 2.0 else np.inf


class NonMonotoneOperator:
    """Composite A(y) + lam*sin(y) with the bounded nonlinearity lam*sin.

    Its Lipschitz constant and one-sided monotonicity defect both equal
    |lam|, which makes the smallness condition checkable in closed form.  The
    reaction `shift` that `regularized` sets is added last.
    """

    def __init__(self, base: LinearEllipticOperator, lam: float):
        if not np.isfinite(lam):
            raise ValueError("nonlinearity amplitude must be finite")
        self.base = base
        self.mesh = base.mesh
        self.lam = float(lam)
        self.shift = 0.0

    def matvec(self, u: np.ndarray) -> np.ndarray:
        out = self.base.matvec(u) + self.lam * np.sin(u)
        return out + self.shift * u if self.shift else out

    def jacobian_bands(self, u: np.ndarray):
        """Base bands plus lam*cos(u) and the shift on the diagonal."""
        diag = self.base.diag + self.lam * np.cos(u)
        return self.base.lower, diag + self.shift if self.shift else diag, self.base.upper

    def energy(self, u: np.ndarray) -> float:
        """Potential 0.5 <A u, u> - lam <cos(u), 1> of the composite."""
        e = self.base.energy(u) - self.lam * float(np.dot(self.mesh.hw, np.cos(u)))
        return e + 0.5 * self.shift * float(np.dot(u, self.mesh.hw * u)) if self.shift else e

    def regularized(self, eps: float) -> NonMonotoneOperator:
        reg = copy.copy(self)
        reg.shift = self.shift + eps
        return reg

    def linear_split(self):
        """The shifted base; lam*sin has defect and Lipschitz constant |lam|."""
        lam = abs(self.lam)
        return add_regularization(self.base, self.shift), lam, lam


def apply(op, u: GridFunction) -> GridFunction:
    """Evaluate the operator on a grid function."""
    if op.mesh != u.mesh:
        raise GridMismatchError("operator and grid function live on different meshes")
    return GridFunction(u.mesh, op.matvec(u.values))


def add_regularization(op, eps: float):
    """Return u -> op(u) + eps*u, an operator of op's class (`op.regularized`).

    The eps term is the trapezoid-weighted identity in the duality pairing,
    i.e. the discrete version of adding eps*y in the pivot-space sense.  For
    linear operators the result is again an assembled tridiagonal operator.
    """
    eps = _regularization(eps)
    return op.regularized(eps) if eps else op


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
    scale = _residual_scale((op.lower, op.diag, op.upper), u, fv)
    ratio = np.divide(resid, scale, out=np.where(resid > 0.0, np.inf, 0.0), where=scale > 0.0)
    return float(np.max(ratio))


def _residual_scale(bands, u: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """(|A| |u| + |f|)_i for the tridiagonal bands of A: the size of the terms
    that round-off in A u - f is relative to (Oettli & Prager, 1964)."""
    return _tridiag_apply(*map(np.abs, (*bands, u))) + np.abs(fv)


def _pencil_extremes(K_off, K_diag, G_off, G_diag):
    """Smallest and largest eigenvalue (c, L) of the symmetric tridiagonal
    pencil K x = mu G x with G positive definite.

    Each extreme is bracketed by bisection on whether K - mu G, or mu G - K,
    is positive definite (Sylvester's law of inertia), carried to the
    resolution of floating point.  The test is an LDL^T factorization by
    LAPACK dpttrf, which succeeds exactly when every pivot d_i is positive,
    and which tests the first diagonal entry first: a probe whose first entry
    is <= 0 is decided without the bands or LAPACK.  Each extreme is
    then refined by three inverse-iteration steps with the last definite
    factor (dpttrs) and a Rayleigh quotient.  c is reported as 0 when K is
    not positive definite or when c is at most m * eps * L, below what the
    factorizations resolve: a singular K can pass the pivot test by rounding
    alone.  A zero K gives (0, 0), where bisection would drive mu into the
    subnormals and inverse iteration would overflow.
    """
    if not (K_diag.any() or K_off.any()):
        return 0.0, 0.0

    # both bands in one array, diagonal first, so that a probe is two passes
    m = K_diag.size
    K_bands, G_bands = np.concatenate((K_diag, K_off)), np.concatenate((G_diag, G_off))
    k0, g0 = float(K_diag[0]), float(G_diag[0])

    def factor(sign, mu):
        # sign * (K - mu G), built as K - mu G or as mu G - K in one fresh
        # array that dpttrf factors in place.  mu G - K has the bits of
        # -(K - mu G) but for an exact zero, +0 for -0, which dpttrf treats
        # alike.  dpttrf tests the first diagonal entry first; so does this,
        # and a NaN there is not <= 0 and goes on to dpttrf, which spreads it.
        if (k0 - mu * g0 if sign > 0 else mu * g0 - k0) <= 0.0:
            return None
        bands = mu * G_bands
        if sign > 0:
            np.subtract(K_bands, bands, out=bands)
        else:
            bands -= K_bands
        return _cholesky_tridiag(bands[m:], bands[:m], overwrite=True)

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


def estimate_constants(op) -> OperatorConstants:
    """Structural constants of an operator in the h1 norm pair.

    The operator is split into a linear part and a remainder with closed-form
    bounds (`op.linear_split()`).  c and L of the linear part are the extreme
    eigenvalues of its tridiagonal pencil against the h1 Gram matrix, as
    Rayleigh quotients: their relative error grows like m^2 eps and can fall
    on either side, so they are not proven bounds.  The remainder's defect
    is gamma and its Lipschitz constant is added to L.
    """
    if not hasattr(op, "linear_split"):
        raise TypeError(f"no structural constants for {type(op).__name__}")
    linear, gamma, lip = op.linear_split()
    c, L = _pencil_extremes(*linear.gram_tridiag(), *_h1_gram_banded(op.mesh))
    c = max(c, 0.0)
    L = max(L, c)
    return OperatorConstants(c=c, L=L + lip, gamma=gamma)
