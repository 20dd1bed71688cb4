"""Solution-dependent obstacle mappings: the quasi-variational coupling.

One class per kind, each built from exactly the inputs it reads:
  ConstantMeanMap  Phi(y) = c0 + alpha * integral of y        (constant output)
  KernelMap        Phi(y)_i = psi_i + alpha * sum_j w_j h k(|x_i - x_j|) max(y_j, 0)
  FixedMap         Phi(y) = psi  (ordinary obstacle problem)

Kernel evaluation uses the same trapezoid weights as the l2 pairing, so the
reported l2 -> h1 Lipschitz bound is a true bound for the discrete map.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import GridMismatchError
from .grid import DIRICHLET, GridFunction, Mesh, norm, trapezoid_integral, _h1_gram_cholesky


def _coupling(alpha: float) -> float:
    """alpha as a float, rejected unless finite and nonnegative: every monotone
    iteration downstream requires an increasing map."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"coupling weight alpha must be finite and nonnegative, got {alpha}")
    return alpha


class ObstacleMap:
    """Obstacle mapping y -> Phi(y) on a fixed mesh, one subclass per kind.

    Each kind evaluates Phi (`_eval`), bounds its Lipschitz constant
    (`_lipschitz`), says whether Phi is increasing (`_order_preserving`, true
    unless the kind overrides it) and raises its base level (`shifted`).
    """

    mesh: Mesh

    def _order_preserving(self) -> bool:
        return True

    @classmethod
    def constant_mean(cls, mesh: Mesh, c0: float, alpha: float) -> "ObstacleMap":
        return ConstantMeanMap(mesh, c0, alpha)

    @classmethod
    def fixed(cls, mesh: Mesh, psi: GridFunction) -> "ObstacleMap":
        return FixedMap(mesh, psi)

    @classmethod
    def kernel(cls, mesh: Mesh, psi: GridFunction, alpha: float, profile) -> "ObstacleMap":
        """Build a kernel map from a stationary kernel k(x, xi) = profile(|x - xi|).

        profile maps a numpy array of distances d >= 0 to the array of kernel
        values; it is sampled once at the m dof spacings and stored as a
        Toeplitz column.
        """
        return KernelMap(mesh, psi, alpha, profile(np.arange(mesh.dof_count) / mesh.n))


class ConstantMeanMap(ObstacleMap):
    """Phi(y) = c0 + alpha * integral of y, the same level at every node."""

    def __init__(self, mesh: Mesh, c0: float, alpha: float):
        self.mesh, self.c0, self.alpha = mesh, float(c0), _coupling(alpha)
        if not math.isfinite(self.c0):
            raise ValueError(f"base level c0 must be finite, got {self.c0}")

    def shifted(self, delta: float) -> "ConstantMeanMap":
        return ConstantMeanMap(self.mesh, self.c0 + delta, self.alpha)

    def _eval(self, y: GridFunction) -> GridFunction:
        level = self.c0 + self.alpha * trapezoid_integral(y)
        if not math.isfinite(level):
            raise ValueError("grid function values must be finite")
        return GridFunction._adopt(self.mesh, np.full(self.mesh.dof_count, level))

    def _lipschitz(self) -> float:
        """alpha * sqrt(sum hw) * ||1||_h1, exact: |integral of z| is at most
        sqrt(sum hw) ||z||_l2 (Cauchy-Schwarz, equality for constant z), and
        the output is a constant.  On a neumann mesh sum hw = ||1||_h1 = 1,
        and the bound is alpha exactly; on a dirichlet mesh ||1||_h1 counts
        the jumps to the boundary zeros and grows like sqrt(2n)."""
        if self.mesh.bc != DIRICHLET:
            return self.alpha
        one = GridFunction.constant(self.mesh, 1.0)
        return self.alpha * float(np.sqrt(self.mesh.hw.sum())) * norm(one, "h1")


class FixedMap(ObstacleMap):
    """Phi(y) = psi, whatever y: the ordinary obstacle problem."""

    def __init__(self, mesh: Mesh, psi: GridFunction):
        if psi.mesh != mesh:
            raise GridMismatchError("psi_base lives on a different mesh")
        self.mesh, self.psi_base = mesh, psi.copy()

    def shifted(self, delta: float) -> "FixedMap":
        """The map with its obstacle raised by delta; a kernel map shares its
        read-only kernel storage with the original."""
        out = copy.copy(self)
        out.psi_base = GridFunction(self.mesh, self.psi_base.values + delta)
        return out

    def _eval(self, y: GridFunction) -> GridFunction:
        return self.psi_base.copy()

    def _lipschitz(self) -> float:
        return 0.0


class KernelMap(FixedMap):
    """Phi(y) = psi + alpha * K (hw max(y, 0)) for a stationary kernel K: the
    fixed map psi plus a coupling, whose base obstacle and shift it keeps.

    K is stored as the first column of its symmetric Toeplitz matrix
    (`kernel_column`, K_ij = column[|i - j|]) and applied through a circulant
    embedding with a spectrum computed once; both are read-only."""

    def __init__(self, mesh: Mesh, psi: GridFunction, alpha: float, column: np.ndarray):
        super().__init__(mesh, psi)
        self.alpha = _coupling(alpha)
        m = mesh.dof_count
        col = np.asarray(column, dtype=np.float64).copy()
        if col.shape != (m,):
            raise GridMismatchError(f"kernel column must have {m} entries, got {col.shape}")
        if not np.isfinite(col).all():
            raise ValueError("kernel column entries must be finite")
        # symmetric circulant of length 2^k >= 2m - 1 whose leading m x m block
        # is K; its spectrum is real because the circulant is symmetric
        nfft = 1 << (2 * m - 2).bit_length()
        circ = np.zeros(nfft)
        circ[:m] = col
        circ[nfft - m + 1:] = col[:0:-1]
        spectrum = np.fft.rfft(circ).real
        col.setflags(write=False)
        spectrum.setflags(write=False)
        self.kernel_column = col
        self._spectrum = spectrum
        self._nfft = nfft

    def _apply_kernel(self, z: np.ndarray) -> np.ndarray:
        """K z; K is symmetric, so this is also K^T z."""
        return np.fft.irfft(self._spectrum * np.fft.rfft(z, self._nfft), self._nfft)[: z.size]

    def _eval(self, y: GridFunction) -> GridFunction:
        coupled = self._apply_kernel(self.mesh.hw * np.maximum(y.values, 0.0))
        return GridFunction(self.mesh, self.psi_base.values + self.alpha * coupled)

    def _lipschitz(self) -> float:
        """The exact l2 -> h1 operator norm of the linear coupling part.

        sup ||B z||_h1 / ||z||_l2 with B z = alpha * K (hw z).  With the h1
        Gram matrix G1 = U^T U (bidiagonal U) and z = w / sqrt(hw) this is the
        largest singular value of C = alpha U K diag(sqrt(hw)), applied to
        vectors without forming C.  From G1 = L D L^T, U = sqrt(D) L^T has
        the diagonal sqrt(d) and the superdiagonal sqrt(d_i) e_i.
        """
        m = self.mesh.dof_count
        d, e = _h1_gram_cholesky(self.mesh)
        diag = np.sqrt(d)
        upper = diag[:-1] * e
        scale = np.sqrt(self.mesh.hw)  # of C / alpha, so no finite alpha overflows C^T C
        if m == 1:
            return self.alpha * float(abs(diag[0] * self._apply_kernel(scale)[0]))

        def normal_matvec(x):
            # C^T C x, with U and U^T applied from their two bands
            z = self._apply_kernel(scale * x)
            y = diag * z
            y[:-1] += upper * z[1:]
            w = diag * y
            w[1:] += upper * y[:-1]
            return scale * self._apply_kernel(w)

        if m == 2:
            # ARPACK's result on two dofs moves in the last bits from call to
            # call; the top eigenvalue of the formed 2 x 2 normal matrix does not
            normal = np.column_stack([normal_matvec(x) for x in np.eye(2)])
            return self.alpha * float(np.sqrt(max(np.linalg.eigvalsh(normal)[-1], 0.0)))

        # ARPACK is imported here, not at module level: it adds megabytes to
        # every `import qvar` that never asks for an h1 kernel bound
        from scipy.sparse.linalg import LinearOperator, eigsh

        CtC = LinearOperator((m, m), matvec=normal_matvec, dtype=np.float64)
        mu = eigsh(CtC, k=1, which="LA", tol=0, v0=np.ones(m), return_eigenvectors=False)
        return self.alpha * float(np.sqrt(max(mu[0], 0.0)))

    def _order_preserving(self) -> bool:
        """hw > 0 and max(y, 0) is increasing, so the map is exactly when
        alpha = 0 or no entry of K is negative."""
        return self.alpha == 0.0 or bool(self.kernel_column.min() >= 0.0)


def eval_obstacle(omap: ObstacleMap, y: GridFunction) -> GridFunction:
    """Evaluate the constraint level Phi(y)."""
    if y.mesh is not omap.mesh and y.mesh != omap.mesh:
        raise GridMismatchError("input lives on a different mesh than the obstacle map")
    return omap._eval(y)


def lipschitz_bound(omap: ObstacleMap) -> float:
    """Computable bound on ||Phi(u) - Phi(v)||_h1 / ||u - v||_l2 for the
    discrete map, hence also on its h1 -> h1 Lipschitz constant."""
    return omap._lipschitz()


def check_order_preserving(omap: ObstacleMap) -> bool:
    """Whether y1 <= y2 implies Phi(y1) <= Phi(y2)."""
    return omap._order_preserving()
