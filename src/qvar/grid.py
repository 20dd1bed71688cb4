"""Uniform 1-D meshes on (0,1), nodal grid functions, discrete norms and lattice operations.

Degrees of freedom are interior nodes for dirichlet meshes (boundary values are
implicitly zero) and all nodes for neumann meshes.  The trapezoid end-weights
w_0 = w_n = 1/2 are used consistently for integrals, the l2 norm and duality
pairings, so discrete symmetry statements hold exactly.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConfigError, GridMismatchError, MeshError

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
_BC_TAGS = (DIRICHLET, NEUMANN)


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh with `n` cells on (0,1) and a boundary-condition tag."""

    n: int
    bc: str

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def dof_count(self) -> int:
        return self.n - 1 if self.bc == DIRICHLET else self.n + 1

    def nodes(self) -> np.ndarray:
        """All node coordinates 0, h, ..., 1 (including boundary)."""
        return np.linspace(0.0, 1.0, self.n + 1)

    def dof_nodes(self) -> np.ndarray:
        """Coordinates of the degrees of freedom."""
        nodes = self.nodes()
        return nodes[1:-1] if self.bc == DIRICHLET else nodes

    def weights(self) -> np.ndarray:
        """Trapezoid weights per dof (1/2 at boundary nodes, 1 inside),
        computed once per mesh and read-only."""
        return self._weights

    @cached_property
    def _weights(self) -> np.ndarray:
        w = np.ones(self.dof_count)
        if self.bc == NEUMANN:
            w[0] = 0.5
            w[-1] = 0.5
        w.setflags(write=False)
        return w

    @cached_property
    def hw(self) -> np.ndarray:
        """Pairing weights h * w_i of <g, v> = sum_i hw_i g_i v_i, computed
        once per mesh and read-only."""
        hw = self.h * self.weights()
        hw.setflags(write=False)
        return hw


def make_mesh(n: int, bc: str) -> Mesh:
    if n < 2:
        raise MeshError(f"cell count must be >= 2, got {n}")
    if bc not in _BC_TAGS:
        raise MeshError(f"boundary tag must be one of {_BC_TAGS}, got {bc!r}")
    return Mesh(int(n), bc)


@dataclass
class GridFunction:
    """Nodal values on a mesh, one per degree of freedom."""

    mesh: Mesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.mesh.dof_count,):
            raise GridMismatchError(
                f"expected {self.mesh.dof_count} values, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("grid function values must be finite")
        self.values = v

    @classmethod
    def _adopt(cls, mesh: Mesh, values: np.ndarray) -> "GridFunction":
        """Wrap, without a copy or a check, a float64 array of mesh.dof_count
        finite values that the caller has just made and hands over."""
        u = cls.__new__(cls)
        u.mesh = mesh
        u.values = values
        return u

    @classmethod
    def zeros(cls, mesh: Mesh) -> "GridFunction":
        return cls(mesh, np.zeros(mesh.dof_count))

    @classmethod
    def constant(cls, mesh: Mesh, c: float) -> "GridFunction":
        return cls(mesh, np.full(mesh.dof_count, float(c)))

    def copy(self) -> "GridFunction":
        return GridFunction._adopt(self.mesh, self.values.copy())

    def with_boundary(self) -> np.ndarray:
        """Values at all nodes, zeros filled in at dirichlet boundaries."""
        if self.mesh.bc == NEUMANN:
            return self.values.copy()
        full = np.zeros(self.mesh.n + 1)
        full[1:-1] = self.values
        return full

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_mesh(self, other)
        return GridFunction(self.mesh, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_mesh(self, other)
        return GridFunction(self.mesh, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__


def _check_same_mesh(u: GridFunction, v: GridFunction) -> None:
    if u.mesh is not v.mesh and u.mesh != v.mesh:
        raise GridMismatchError(f"incompatible meshes: {u.mesh} vs {v.mesh}")


def trapezoid_integral(u: GridFunction) -> float:
    """Trapezoid rule over (0,1); dirichlet boundary values count as zero."""
    return float(u.mesh.h * np.dot(u.mesh.weights(), u.values))


def norm(u: GridFunction, kind: str = "l2") -> float:
    """Discrete l2, h1 or sup norm.

    l2 uses trapezoid weights; h1 adds the squared difference quotients over
    all edges, boundary edges included (with implicit zeros for dirichlet).
    """
    mesh = u.mesh
    if kind == "sup":
        return float(np.max(np.abs(u.values))) if u.values.size else 0.0
    l2sq = mesh.h * np.dot(mesh.weights(), u.values**2)
    if kind == "l2":
        return float(np.sqrt(l2sq))
    if kind == "h1":
        full = u.with_boundary()
        grad_sq = np.sum(np.diff(full) ** 2) / mesh.h
        return float(np.sqrt(l2sq + grad_sq))
    raise ValueError(f"unknown norm kind {kind!r}")


def pos_part(u: GridFunction) -> GridFunction:
    return GridFunction(u.mesh, np.maximum(u.values, 0.0))


def lattice_min(u: GridFunction, v: GridFunction) -> GridFunction:
    _check_same_mesh(u, v)
    return GridFunction(u.mesh, np.minimum(u.values, v.values))


def lattice_max(u: GridFunction, v: GridFunction) -> GridFunction:
    _check_same_mesh(u, v)
    return GridFunction(u.mesh, np.maximum(u.values, v.values))


def leq(u: GridFunction, v: GridFunction, tol: float = 0.0) -> bool:
    """Componentwise u <= v + tol."""
    _check_same_mesh(u, v)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return bool(np.all(u.values <= v.values + tol))


def duality_pairing(g: GridFunction, v: GridFunction) -> float:
    """Weighted pairing <g, v> = h * sum_i w_i g_i v_i."""
    _check_same_mesh(g, v)
    return float(g.mesh.h * np.dot(g.mesh.weights() * g.values, v.values))


@lru_cache(maxsize=64)
def _h1_gram_banded(mesh: Mesh):
    """(offdiag, diag) bands of the h1 Gram matrix W + K1 (a=1 stiffness)."""
    h = mesh.h
    off = np.full(mesh.dof_count - 1, -1.0 / h)
    diag = mesh.hw + 2.0 / h
    if mesh.bc == NEUMANN:
        diag[0] -= 1.0 / h
        diag[-1] -= 1.0 / h
    diag.setflags(write=False)
    off.setflags(write=False)
    return off, diag


def _check_finite(*arrays) -> None:
    """Raise ValueError when an array holds an inf or NaN, as scipy.linalg
    does with check_finite=True."""
    if not np.isfinite(np.concatenate(arrays)).all():
        raise ValueError("array must not contain infs or NaNs")


def _cholesky_tridiag(off, diag, overwrite: bool = False):
    """LDL^T factor (d, e) of the symmetric tridiagonal matrix with bands
    (offdiag, diag), offdiag[i] coupling i and i+1, by LAPACK dpttrf:
    D = diag(d) and L unit lower bidiagonal with L[i+1, i] = e[i].  None when
    the matrix is not positive definite: dpttrf stops at the first pivot
    d_i <= 0.  It passes a NaN pivot, as NaN <= 0 is false, but the NaN
    spreads to the last pivot, so a NaN band counts as not definite there.

    With overwrite, dpttrf factors in place, into off and diag, instead of
    into copies.  Pass only arrays made for this call: f2py writes into an
    array even when its write flag is off."""
    if diag.size == 1:
        # the f2py wrapper rejects an empty off-diagonal
        return (diag.copy(), np.zeros(0)) if diag[0] > 0.0 else None
    # overwrite_d and overwrite_e by position, which f2py parses faster
    d, e, info = dpttrf(diag, off, overwrite, overwrite)
    # with info 0 the last pivot is positive or NaN
    if info != 0 or not d[-1] > 0.0:
        return None
    return d, e


def _cholesky_solve(factor, b):
    """Solve A x = b with the factor (d, e) of `_cholesky_tridiag` by LAPACK
    dpttrs; a non-finite factor or right-hand side raises ValueError."""
    d, e = factor
    _check_finite(d, e, b)
    if d.size == 1:
        return b / d
    x, _ = dpttrs(d, e, b)
    return x


@lru_cache(maxsize=64)
def _h1_gram_cholesky(mesh: Mesh):
    """Read-only LDL^T factor (d, e) of the h1 Gram matrix."""
    d, e = _cholesky_tridiag(*_h1_gram_banded(mesh))
    d.setflags(write=False)
    e.setflags(write=False)
    return d, e


def dual_norm(g: GridFunction) -> float:
    """Norm of g as an element of the h1 dual: sup <g,v>/||v||_h1, one
    tridiagonal solve with the h1 Gram matrix."""
    wg = g.mesh.hw * g.values
    z = _cholesky_solve(_h1_gram_cholesky(g.mesh), wg)
    return float(np.sqrt(max(np.dot(wg, z), 0.0)))


def to_csv(u: GridFunction) -> str:
    """Serialize as `x,value` rows, boundary nodes included (zeros for dirichlet)."""
    # x and value interleaved, all rows formatted by one `%`
    rows = np.column_stack((u.mesh.nodes(), u.with_boundary())).ravel().tolist()
    return "x,value\n" + "%.17g,%.17g\n" * (u.mesh.n + 1) % tuple(rows)


# no O_TRUNC: see _write_text; O_BINARY exists, and matters, on Windows only
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_text(path, text: str) -> None:
    """Write text, UTF-8 encoded, to the file at path in place: an existing
    file is overwritten from its start and cut to the new length, so it keeps
    its inode, mode and links; a missing one is made as open(path, "w") makes
    it.  Not truncating to zero first saves the writeback that ext4 starts
    at close for a file truncated to zero and then written.  No fsync.  An
    OSError is raised as a ConfigError naming the path."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:  # os.write may write less than it is given
                view = view[os.write(fd, view):]
            # a device or pipe, such as a link to /dev/null, has no length to cut
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path) -> None:
    """Raise the ConfigError of _write_text for a regular file or directory
    at path that cannot be opened for writing, and change nothing: it is
    opened without being created, cut or written.  A pipe or device is not
    opened, since opening one is seen at its other end."""
    try:
        if stat.S_IFMT(os.stat(path).st_mode) in (stat.S_IFREG, stat.S_IFDIR):
            os.close(os.open(path, _WRITE_FLAGS & ~os.O_CREAT))
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def from_csv(text: str, bc: str) -> GridFunction:
    """Parse the `x,value` format back into a grid function.  Row i of n+1
    must hold two numbers with x within 1e-3 h of the node i/n; a row that
    does not raises a ValueError naming its line."""
    lines = enumerate(text.splitlines(), start=1)
    rows = [(k, ln) for k, ln in lines if ln.strip() and not ln.startswith("#")]
    if rows and rows[0][1].replace(" ", "").lower().startswith("x,value"):
        rows = rows[1:]
    if len(rows) < 3:
        raise ValueError("expected at least three x,value rows")
    n = len(rows) - 1
    vals = np.empty(n + 1)
    for i, (k, ln) in enumerate(rows):
        try:
            x, vals[i] = (float(c) for c in ln.split(","))
        except ValueError:
            raise ValueError(f"line {k}: expected two numbers x,value, got {ln!r}") from None
        if not abs(x - i / n) <= 1e-3 / n:
            raise ValueError(
                f"line {k}: x = {x:g}, but node {i} of a uniform {n + 1}-node mesh "
                f"sits at x = {i / n:g}"
            )
    return GridFunction(make_mesh(n, bc), vals[1:-1] if bc == DIRICHLET else vals)
