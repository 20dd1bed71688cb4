"""Solution-dependent obstacle mappings: the quasi-variational coupling.

Three variants:
  constant_mean  Phi(y) = c0 + alpha * integral of y        (constant output)
  kernel         Phi(y)_i = psi_i + alpha * sum_j w_j h k(|x_i - x_j|) max(y_j, 0)
  fixed          Phi(y) = psi  (ordinary obstacle problem)

Kernel evaluation uses the same trapezoid weights as the l2 pairing, so the
reported Lipschitz bound is a true bound for the discrete map.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import GridMismatchError
from .grid import GridFunction, Mesh, trapezoid_integral, _h1_gram_cholesky

CONSTANT_MEAN = "constant_mean"
KERNEL = "kernel"
FIXED = "fixed"

# the inputs each variant reads
_INPUTS = {
    CONSTANT_MEAN: ("c0", "alpha"),
    KERNEL: ("alpha", "psi_base", "kernel_column"),
    FIXED: ("psi_base",),
}


class ObstacleMap:
    """Obstacle mapping y -> Phi(y) on a fixed mesh.

    Negative coupling weights are rejected at construction: every monotone
    iteration downstream requires an increasing map, and a negative alpha
    would break it silently.  So is any input the variant does not read; c0
    and alpha are 0 where it does not read them.

    A kernel map stores its stationary kernel on the uniform mesh as the
    first column of the symmetric Toeplitz matrix K (`kernel_column`,
    K_ij = column[|i - j|]), applied through a circulant embedding whose
    spectrum is computed once.  Both are read-only after construction, so
    `shifted` maps share them.
    """

    def __init__(
        self,
        mesh: Mesh,
        variant: str,
        c0: float | None = None,
        alpha: float | None = None,
        psi_base: GridFunction | None = None,
        kernel_column: np.ndarray | None = None,
    ):
        if variant not in _INPUTS:
            raise ValueError(f"unknown obstacle variant {variant!r}")
        given = {"c0": c0, "alpha": alpha, "psi_base": psi_base, "kernel_column": kernel_column}
        unread = [k for k, v in given.items() if v is not None and k not in _INPUTS[variant]]
        if unread:
            raise ValueError(f"{variant} maps do not read {', '.join(unread)}")
        if alpha is not None and alpha < 0:
            raise ValueError(f"coupling weight alpha must be nonnegative, got {alpha}")
        self.mesh = mesh
        self.variant = variant
        self.c0 = 0.0 if c0 is None else float(c0)
        self.alpha = 0.0 if alpha is None else float(alpha)
        self.psi_base = None
        self.kernel_column = None
        self._spectrum = None
        self._nfft = 0
        m = mesh.dof_count
        if variant in (KERNEL, FIXED):
            if psi_base is None:
                raise ValueError(f"{variant} maps need a base obstacle psi_base")
            if psi_base.mesh != mesh:
                raise GridMismatchError("psi_base lives on a different mesh")
            self.psi_base = psi_base.copy()
        if variant != KERNEL:
            return
        if kernel_column is None:
            raise ValueError("kernel maps need a Toeplitz column k(|x_i - x_j|)")
        col = np.asarray(kernel_column, dtype=np.float64).copy()
        if col.shape != (m,):
            raise GridMismatchError(f"kernel column must have {m} entries, got {col.shape}")
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

    @classmethod
    def constant_mean(cls, mesh: Mesh, c0: float, alpha: float) -> "ObstacleMap":
        return cls(mesh, CONSTANT_MEAN, c0=c0, alpha=alpha)

    @classmethod
    def fixed(cls, mesh: Mesh, psi: GridFunction) -> "ObstacleMap":
        return cls(mesh, FIXED, psi_base=psi)

    @classmethod
    def kernel(cls, mesh: Mesh, psi: GridFunction, alpha: float, profile) -> "ObstacleMap":
        """Build a kernel map from a stationary kernel k(x, xi) = profile(|x - xi|).

        profile maps a numpy array of distances d >= 0 to the array of kernel
        values; it is sampled once at the m dof spacings and stored as a
        Toeplitz column.
        """
        column = profile(np.arange(mesh.dof_count) / mesh.n)
        return cls(mesh, KERNEL, alpha=alpha, psi_base=psi, kernel_column=column)

    def shifted(self, delta: float) -> "ObstacleMap":
        """The map with its base level raised by delta; a kernel map shares
        its read-only kernel storage with the original."""
        out = copy.copy(self)
        if self.variant == CONSTANT_MEAN:
            out.c0 = self.c0 + delta
        else:
            out.psi_base = GridFunction(self.mesh, self.psi_base.values + delta)
        return out

    def _apply_kernel(self, z: np.ndarray) -> np.ndarray:
        """K z for a kernel map; K is symmetric, so this is also K^T z."""
        return np.fft.irfft(self._spectrum * np.fft.rfft(z, self._nfft), self._nfft)[: z.size]


def eval_obstacle(omap: ObstacleMap, y: GridFunction) -> GridFunction:
    """Evaluate the constraint level Phi(y)."""
    if y.mesh != omap.mesh:
        raise GridMismatchError("input lives on a different mesh than the obstacle map")
    if omap.variant == CONSTANT_MEAN:
        level = omap.c0 + omap.alpha * trapezoid_integral(y)
        return GridFunction.constant(omap.mesh, level)
    if omap.variant == FIXED:
        return omap.psi_base.copy()
    coupled = omap._apply_kernel(omap.mesh.hw * np.maximum(y.values, 0.0))
    return GridFunction(omap.mesh, omap.psi_base.values + omap.alpha * coupled)


def lipschitz_bound(omap: ObstacleMap, norm_tag: str) -> float:
    """Computable Lipschitz bound for the discrete map in the tagged norm.

    constant_mean: alpha (Cauchy-Schwarz on the unit-length domain, valid for
    both tags since the output is constant).  kernel in l2: the weighted
    Frobenius bound alpha * sqrt(sum_ij w_i w_j h^2 k_ij^2); kernel in h1: the
    exact l2->h1 operator norm of the linear coupling part.  fixed: 0.
    """
    if norm_tag not in ("l2", "h1"):
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    if omap.variant == FIXED:
        return 0.0
    if omap.variant == CONSTANT_MEAN:
        return omap.alpha
    mesh = omap.mesh
    m = mesh.dof_count
    hw = mesh.hw
    if norm_tag == "l2":
        # a sum over diagonals: sum_d (2 - [d=0]) k_d^2 S_d with the lag
        # sums S_d = sum_i hw_i hw_{i+d}, an autocorrelation taken by FFT
        lags = np.fft.irfft(np.abs(np.fft.rfft(hw, omap._nfft)) ** 2, omap._nfft)[:m]
        terms = omap.kernel_column**2 * lags
        frob_sq = float(2.0 * np.sum(terms[1:]) + terms[0])
        return omap.alpha * float(np.sqrt(frob_sq))
    # h1 tag: sup ||B z||_h1 / ||z||_l2 with B z = alpha * K (hw z).  With the
    # h1 Gram matrix G1 = U^T U (bidiagonal U) and z = w / sqrt(hw) this is the
    # largest singular value of C = alpha U K diag(sqrt(hw)), applied to
    # vectors without forming C.  From G1 = L D L^T, U = sqrt(D) L^T has the
    # diagonal sqrt(d) and the superdiagonal sqrt(d_i) e_i.
    d, e = _h1_gram_cholesky(mesh)
    diag = np.sqrt(d)
    upper = diag[:-1] * e
    scale = omap.alpha * np.sqrt(hw)
    if m == 1:
        return float(abs(diag[0] * omap._apply_kernel(scale)[0]))

    def normal_matvec(x):
        # C^T C x, with U and U^T applied from their two bands
        z = omap._apply_kernel(scale * x)
        y = diag * z
        y[:-1] += upper * z[1:]
        w = diag * y
        w[1:] += upper * y[:-1]
        return scale * omap._apply_kernel(w)

    if m == 2:
        # ARPACK's result on two dofs moves in the last bits from call to
        # call; the top eigenvalue of the formed 2 x 2 normal matrix does not
        normal = np.column_stack([normal_matvec(x) for x in np.eye(2)])
        return float(np.sqrt(max(np.linalg.eigvalsh(normal)[-1], 0.0)))

    # ARPACK is imported here, not at module level: it adds megabytes to
    # every `import qvar` that never asks for an h1 kernel bound
    from scipy.sparse.linalg import LinearOperator, eigsh

    CtC = LinearOperator((m, m), matvec=normal_matvec, dtype=np.float64)
    mu = eigsh(CtC, k=1, which="LA", tol=0, v0=np.ones(m), return_eigenvectors=False)
    return float(np.sqrt(max(mu[0], 0.0)))


def check_order_preserving(omap: ObstacleMap) -> bool:
    """Whether y1 <= y2 implies Phi(y1) <= Phi(y2).

    constant_mean (alpha >= 0) and fixed maps always are.  A kernel map adds
    alpha * K (hw max(y, 0)) with hw > 0 and max(y, 0) increasing, so it is
    exactly when alpha = 0 or no entry of K is negative.
    """
    return omap.variant != KERNEL or omap.alpha == 0.0 or bool(omap.kernel_column.min() >= 0.0)
