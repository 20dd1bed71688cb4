"""Named built-in problems mirroring the worked examples one-to-one.

Every builder accepts the common overrides (n, bc, force level, obstacle
parameters) so studies can rescale a problem without re-deriving it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConfigError
from .grid import GridFunction, from_csv, make_mesh
from .obstacle import ObstacleMap
from .operators import NonMonotoneOperator, PLaplacianOperator, assemble_linear
from .qvi_solver import QVIProblem

BUILTIN_NAMES = ("example1d", "plaplacian", "kernel_qvi", "nonmonotone_sine", "fixed_obstacle")

_DEFAULT_BC = {
    "example1d": "neumann",
    "plaplacian": "dirichlet",
    "kernel_qvi": "dirichlet",
    "nonmonotone_sine": "neumann",
    "fixed_obstacle": "dirichlet",
}


def gauss_kernel(sigma: float):
    """Symmetric nonnegative kernel exp(-(x-xi)^2 / (2 sigma^2)), evaluated
    elementwise on broadcastable numpy arrays.

    It is stationary: its `profile(d)` attribute is exp(-d^2 / (2 sigma^2)),
    so kernel maps store it as one Toeplitz column.  sigma must be finite and
    positive with 2 sigma^2 a finite normal float, so that d^2 / (2 sigma^2) is
    finite for every distance d <= 1 on the unit interval.
    """
    sigma = float(sigma)
    two_s2 = 2.0 * sigma * sigma
    if not (sigma > 0 and math.isfinite(two_s2) and two_s2 >= sys.float_info.min):
        raise ValueError(
            f"gauss kernel width must be positive with 2*sigma^2 finite and >= "
            f"{sys.float_info.min:.3g}, got {sigma}"
        )

    def profile(d):
        return np.exp(-(d**2) / two_s2)

    def k(x, xi):
        return profile(x - xi)

    k.profile = profile
    return k


def one_kernel(x, xi):
    """Constant kernel 1, broadcast to the shape of its arguments.

    It is stationary: its `profile(d)` attribute is 1 at every distance, so
    kernel maps store it as one Toeplitz column.
    """
    return np.ones(np.broadcast(x, xi).shape)


one_kernel.profile = lambda d: np.ones(np.shape(d))


def _resolve_kernel(spec: str):
    if spec == "one":
        return one_kernel
    if isinstance(spec, str) and spec.startswith("gauss(") and spec.endswith(")"):
        return gauss_kernel(float(spec[6:-1]))
    raise ValueError(f"unknown kernel spec {spec!r}; use 'one' or 'gauss(sigma)'")


def builtin_problem(
    name: str,
    n: int | None = None,
    bc: str | None = None,
    p: float = 3.0,
    eps_op: float = 1e-3,
    lam: float = 0.1,
    alpha: float | None = None,
    c0: float | None = None,
    kernel="gauss(0.25)",
    psi_level: float | None = None,
    psi_file: str | None = None,
    f_level: float = 1.0,
    F_level: float | None = None,
) -> QVIProblem:
    """Construct one of the named built-in problems with optional overrides."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from {BUILTIN_NAMES}")
    mesh = make_mesh(n if n is not None else 64, bc if bc is not None else _DEFAULT_BC[name])
    f = GridFunction.constant(mesh, f_level)
    F = GridFunction.constant(mesh, F_level) if F_level is not None else f.copy()

    def psi(default: float) -> GridFunction:
        if psi_file is not None:
            try:
                with open(psi_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read psi_file {psi_file}: {exc}") from exc
            try:
                parsed = from_csv(text, mesh.bc)
            except ValueError as exc:
                raise ConfigError(f"psi_file {psi_file}: {exc}") from exc
            if parsed.mesh.n != mesh.n:
                raise ConfigError(
                    f"psi_file {psi_file} has {parsed.mesh.n + 1} nodes, "
                    f"the mesh has {mesh.n + 1}"
                )
            return parsed
        return GridFunction.constant(mesh, psi_level if psi_level is not None else default)

    if name == "example1d":
        op = assemble_linear(mesh, 1.0, 1.0)
        omap = ObstacleMap.constant_mean(
            mesh, c0 if c0 is not None else 0.5, alpha if alpha is not None else 0.25
        )
        return QVIProblem(op, f, omap, F)

    if name == "plaplacian":
        op = PLaplacianOperator(mesh, p, eps_op)
        omap = ObstacleMap.fixed(mesh, psi(0.05))
        return QVIProblem(op, f, omap, F)

    if name == "kernel_qvi":
        op = assemble_linear(mesh, 1.0, 0.0)
        omap = ObstacleMap.kernel(
            mesh, psi(0.05), alpha if alpha is not None else 0.25, _resolve_kernel(kernel)
        )
        return QVIProblem(op, f, omap, F)

    if name == "nonmonotone_sine":
        base = assemble_linear(mesh, 1.0, 1.0)
        op = NonMonotoneOperator(base, lam)
        omap = ObstacleMap.constant_mean(
            mesh, c0 if c0 is not None else 0.5, alpha if alpha is not None else 0.25
        )
        return QVIProblem(op, f, omap, F)

    # fixed_obstacle
    op = assemble_linear(mesh, 1.0, 0.0)
    omap = ObstacleMap.fixed(mesh, psi(0.05))
    return QVIProblem(op, f, omap, F)
