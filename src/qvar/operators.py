"""Discrete elliptic operators on 1-D meshes.

Operators act on nodal values and return nodal representations of dual
elements: <A(u), v> = h * sum_i w_i (Au)_i v_i with the trapezoid weights w.
Under this convention the linear assembly reduces to the familiar 3-point
stencil on interior nodes, neumann boundary rows carry half weights (so the
flux part annihilates constants exactly), and the eps-regularization term is
plain addition of eps*u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, cho_solve_banded, solve_banded

from .errors import EllipticityError, GridMismatchError, MissingRegularizerError, SolverError
from .grid import DIRICHLET, GridFunction, Mesh, dual_norm, _h1_gram_banded, _h1_gram_cholesky

_RAYLEIGH_TOL = 1e-8
_POWER_MAX_IT = 20000


@dataclass(frozen=True)
class OperatorConstants:
    """Strong-monotonicity constant c, Lipschitz constant L and one-sided
    monotonicity defect gamma, all relative to the tagged norm pair."""

    c: float
    L: float
    gamma: float
    norm_tag: str
    method: str  # 'eig' (eigenvalue-accurate) or 'sampled' (empirical bound)

    def __post_init__(self):
        if not (np.isfinite(self.c) and np.isfinite(self.L) and np.isfinite(self.gamma)):
            raise ValueError("operator constants must be finite")
        if self.c < 0 or self.gamma < 0 or self.L < self.c:
            raise ValueError("constants must satisfy 0 <= c <= L and gamma >= 0")

    def csv_row(self) -> str:
        return f"{self.c:.17g},{self.L:.17g},{self.gamma:.17g},{self.norm_tag},{self.method}"


class LinearEllipticOperator:
    """Tridiagonal operator (1/h^2 flux stencil + reaction term)."""

    is_linear = True

    def __init__(self, mesh: Mesh, lower, diag, upper, a=None, a0=None):
        self.mesh = mesh
        m = mesh.dof_count
        self.lower = np.asarray(lower, dtype=np.float64).copy()
        self.diag = np.asarray(diag, dtype=np.float64).copy()
        self.upper = np.asarray(upper, dtype=np.float64).copy()
        for arr in (self.lower, self.diag, self.upper):
            if arr.shape != (m,):
                raise GridMismatchError("tridiagonal rows must have one entry per dof")
        self.a = None if a is None else np.asarray(a, dtype=np.float64).copy()
        self.a0 = None if a0 is None else np.asarray(a0, dtype=np.float64).copy()

    def matvec(self, u: np.ndarray) -> np.ndarray:
        y = self.diag * u
        y[1:] += self.lower[1:] * u[:-1]
        y[:-1] += self.upper[:-1] * u[1:]
        return y

    def jacobian_bands(self, u: np.ndarray):
        """Tridiagonal Jacobian at u as (lower, diag, upper) rows."""
        return self.lower, self.diag, self.upper

    def dense(self) -> np.ndarray:
        m = self.mesh.dof_count
        mat = np.diag(self.diag)
        if m > 1:
            mat += np.diag(self.lower[1:], -1) + np.diag(self.upper[:-1], 1)
        return mat

    def gram_tridiag(self):
        """Symmetric pairing matrix K = W A as (offdiag, diag) bands."""
        hw = self.mesh.h * self.mesh.weights()
        diag = hw * self.diag
        off = np.zeros_like(diag)
        off[1:] = hw[:-1] * self.upper[:-1]
        return off, diag

    def energy(self, u: np.ndarray) -> float:
        """Quadratic potential 0.5 <A u, u> in the weighted pairing."""
        hw = self.mesh.h * self.mesh.weights()
        return float(0.5 * np.dot(u, hw * self.matvec(u)))


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

    m = mesh.dof_count
    lower = np.zeros(m)
    diag = np.zeros(m)
    upper = np.zeros(m)
    h2 = h * h
    if mesh.bc == DIRICHLET:
        # dof j sits at node j+1 between edges j and j+1
        diag[:] = (a_e[:-1] + a_e[1:]) / h2 + a0_n
        lower[1:] = -a_e[1:-1] / h2
        upper[:-1] = -a_e[1:-1] / h2
    else:
        diag[1:-1] = (a_e[:-1] + a_e[1:]) / h2 + a0_n[1:-1]
        lower[1:-1] = -a_e[:-1] / h2
        upper[1:-1] = -a_e[1:] / h2
        diag[0] = 2.0 * a_e[0] / h2 + a0_n[0]
        upper[0] = -2.0 * a_e[0] / h2
        diag[-1] = 2.0 * a_e[-1] / h2 + a0_n[-1]
        lower[-1] = -2.0 * a_e[-1] / h2
    return LinearEllipticOperator(mesh, lower, diag, upper, a=a_e, a0=a0_n)


class PLaplacianOperator:
    """Plain (eps=0) or regularized p-Laplacian with edge-midpoint fluxes."""

    is_linear = False

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
        lower = -dflux[:-1]
        upper = -dflux[1:]
        lower[0] = 0.0
        upper[-1] = 0.0
        return lower, dflux[:-1] + dflux[1:], upper

    def energy(self, u: np.ndarray) -> np.ndarray:
        """Convex potential whose gradient (in the weighted pairing) is the operator."""
        g = self._edge_gradients(u)
        s = g * g + self.eps
        return float(self.mesh.h / self.p * np.sum(s ** (self.p / 2.0)))


class NonMonotoneOperator:
    """Composite A(y) + N(y) with a pointwise bounded nonlinearity.

    The reference nonlinearity is lam*sin(y): its Lipschitz constant and
    one-sided monotonicity defect both equal |lam|, which makes the smallness
    condition checkable in closed form.
    """

    is_linear = False

    def __init__(self, base: LinearEllipticOperator, lam: float, func=np.sin):
        if not np.isfinite(lam):
            raise ValueError("nonlinearity amplitude must be finite")
        self.base = base
        self.mesh = base.mesh
        self.lam = float(lam)
        self.func = func

    @property
    def is_sine(self) -> bool:
        return self.func is np.sin

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.base.matvec(u) + self.lam * self.func(u)

    def jacobian_bands(self, u: np.ndarray):
        """Base bands plus lam*cos(u) on the diagonal for the sine; the base
        bands alone (a chord step) for a custom nonlinearity."""
        if not self.is_sine:
            return self.base.jacobian_bands(u)
        return self.base.lower, self.base.diag + self.lam * np.cos(u), self.base.upper

    def energy(self, u: np.ndarray) -> float:
        """Potential of the composite; only the sine nonlinearity has one here."""
        if not self.is_sine:
            raise NotImplementedError("no potential known for a custom nonlinearity")
        hw = self.mesh.h * self.mesh.weights()
        return self.base.energy(u) - self.lam * float(np.dot(hw, np.cos(u)))


class RegularizedOperator:
    """Wrapper op(u) + eps*u + delta*R(u) for nonlinear inner operators."""

    is_linear = False

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
        lower, diag, upper = self.inner.jacobian_bands(u)
        diag = diag + self.eps
        if self.delta > 0.0:
            lower = lower + self.delta * self.R.lower
            diag = diag + self.delta * self.R.diag
            upper = upper + self.delta * self.R.upper
        return lower, diag, upper

    def energy(self, u: np.ndarray) -> float:
        hw = self.mesh.h * self.mesh.weights()
        e = self.inner.energy(u) + 0.5 * self.eps * float(np.dot(u, hw * u))
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
    if getattr(op, "is_linear", False):
        lower = op.lower.copy()
        diag = op.diag + eps
        upper = op.upper.copy()
        a = op.a
        a0 = None if op.a0 is None else op.a0 + eps
        if delta > 0:
            lower += delta * R.lower
            diag = diag + delta * R.diag
            upper += delta * R.upper
            if a is not None and R.a is not None:
                a = a + delta * R.a
            else:
                a = None
            if a0 is not None and R.a0 is not None:
                a0 = a0 + delta * R.a0
            else:
                a0 = None
        return LinearEllipticOperator(op.mesh, lower, diag, upper, a=a, a0=a0)
    return RegularizedOperator(op, eps, delta, R)


def solve_unconstrained(op: LinearEllipticOperator, f: GridFunction) -> GridFunction:
    """Direct tridiagonal solve A u = f with a residual check."""
    if not getattr(op, "is_linear", False):
        raise SolverError("direct solve requires a linear (tridiagonal) operator")
    if op.mesh != f.mesh:
        raise GridMismatchError("operator and force live on different meshes")
    m = op.mesh.dof_count
    ab = np.zeros((3, m))
    ab[0, 1:] = op.upper[:-1]
    ab[1] = op.diag
    ab[2, :-1] = op.lower[1:]
    try:
        u = solve_banded((1, 1), ab, f.values)
    except LinAlgError as exc:
        raise SolverError(f"tridiagonal solve failed: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("tridiagonal solve produced non-finite values")
    resid = np.max(np.abs(op.matvec(u) - f.values))
    fsup = np.max(np.abs(f.values)) if m else 0.0
    if resid > 1e-10 * max(fsup, 1e-300):
        raise SolverError(f"residual {resid:.3e} exceeds 1e-10 * ||f||_sup")
    return GridFunction(op.mesh, u)


def _norm_gram_apply(mesh: Mesh, norm_tag: str):
    """Return matvec and solve callables for the tagged norm Gram matrix."""
    hw = mesh.h * mesh.weights()
    if norm_tag == "l2":
        return (lambda x: hw * x), (lambda x: x / hw)
    if norm_tag != "h1":
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    off, diag = _h1_gram_banded(mesh)
    factor = _h1_gram_cholesky(mesh)

    def matvec(x):
        y = diag * x
        y[1:] += off[1:] * x[:-1]
        y[:-1] += off[1:] * x[1:]
        return y

    return matvec, (lambda x: cho_solve_banded((factor, False), x))


def _power_extreme(K_off, K_diag, gram_mv, gram_solve, m, rng, largest: bool):
    """Generalized Rayleigh-quotient extreme of K x = mu G x by (inverse)
    power iteration, stopped on relative Rayleigh stagnation."""

    def K_mv(x):
        y = K_diag * x
        y[1:] += K_off[1:] * x[:-1]
        y[:-1] += K_off[1:] * x[1:]
        return y

    if not largest:
        ab = np.vstack([K_off, K_diag])
        try:
            factor = cholesky_banded(ab, lower=False)
        except LinAlgError:
            return 0.0
        K_solve = lambda x: cho_solve_banded((factor, False), x)

    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    q_old = np.inf
    for _ in range(_POWER_MAX_IT):
        if largest:
            x = gram_solve(K_mv(x))
        else:
            x = K_solve(gram_mv(x))
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            return 0.0
        x /= nrm
        kx = K_mv(x)
        gx = gram_mv(x)
        q = float(np.dot(x, kx) / np.dot(x, gx))
        if abs(q - q_old) <= _RAYLEIGH_TOL * max(abs(q), 1e-300):
            return q
        q_old = q
    return q_old


def estimate_constants(op, norm_tag: str = "h1", trials: int = 100, seed: int = 0) -> OperatorConstants:
    """Empirical structural constants of an operator.

    Linear operators get eigenvalue-accurate extremes of the generalized
    Rayleigh quotient <Au,u>/||u||^2 via (inverse) power iteration; nonlinear
    operators get sampled extrema over seeded random pairs, reported as
    empirical bounds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mesh = op.mesh
    m = mesh.dof_count
    rng = np.random.default_rng(seed)
    gram_mv, gram_solve = _norm_gram_apply(mesh, norm_tag)

    if getattr(op, "is_linear", False):
        off, diag = op.gram_tridiag()
        L = _power_extreme(off, diag, gram_mv, gram_solve, m, rng, largest=True)
        c = _power_extreme(off, diag, gram_mv, gram_solve, m, rng, largest=False)
        c = max(c, 0.0)
        L = max(L, c)
        return OperatorConstants(c=c, L=L, gamma=0.0, norm_tag=norm_tag, method="eig")

    hw = mesh.h * mesh.weights()
    mono_min = np.inf
    lip_max = 0.0
    for _ in range(trials):
        u = rng.standard_normal(m)
        v = rng.standard_normal(m)
        du = u - v
        nd = float(np.sqrt(np.dot(du, gram_mv(du))))
        if nd < 1e-14:
            continue
        dop = op.matvec(u) - op.matvec(v)
        mono = float(np.dot(hw * dop, du)) / nd**2
        lip = dual_norm(GridFunction(mesh, dop), norm_tag) / nd
        mono_min = min(mono_min, mono)
        lip_max = max(lip_max, lip)
    if not np.isfinite(mono_min):
        mono_min = 0.0
    c = max(mono_min, 0.0)
    gamma = max(-mono_min, 0.0)
    L = max(lip_max, c)
    return OperatorConstants(c=c, L=L, gamma=gamma, norm_tag=norm_tag, method="sampled")
