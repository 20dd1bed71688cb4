"""Named built-in problems mirroring the worked examples one-to-one.

Every problem takes n, bc and its force levels, so studies can rescale it;
its other overrides are its builder's keyword parameters, and only those.
"""

from __future__ import annotations

import inspect
import math
import sys

import numpy as np

from .errors import ConfigError
from .grid import GridFunction, from_csv, make_mesh
from .obstacle import ObstacleMap
from .operators import NonMonotoneOperator, PLaplacianOperator, assemble_linear
from .qvi_solver import QVIProblem


def gauss_kernel(sigma: float):
    """Profile d -> exp(-d^2 / (2 sigma^2)) of the Gaussian kernel, on numpy
    arrays of distances d = |x - xi|.

    sigma must be finite and positive with 2 sigma^2 a finite normal float,
    so that d^2 / (2 sigma^2) is finite for every distance d <= 1 on the unit
    interval.
    """
    sigma = float(sigma)
    two_s2 = 2.0 * sigma * sigma
    if not (sigma > 0 and math.isfinite(two_s2) and two_s2 >= sys.float_info.min):
        raise ValueError(
            f"gauss kernel width must be positive with 2*sigma^2 finite and >= "
            f"{sys.float_info.min:.3g}, got {sigma}"
        )
    return lambda d: np.exp(-(d**2) / two_s2)


def one_kernel(d):
    """Profile d -> 1 of the constant kernel, on numpy arrays of distances."""
    return np.ones(np.shape(d))


def _resolve_kernel(spec: str):
    """The profile of kernel spec 'one' or 'gauss(sigma)'; errors read after "key 'kernel'"."""
    if spec == "one":
        return one_kernel
    if not (isinstance(spec, str) and spec.startswith("gauss(") and spec.endswith(")")):
        raise ValueError(f"must be 'one' or 'gauss(sigma)', got {spec!r}")
    try:
        sigma = float(spec[6:-1])
    except ValueError:
        raise ValueError(f"expects a number as the gauss width, got {spec!r}") from None
    return gauss_kernel(sigma)


def _read_text(path) -> str:
    """The text of the UTF-8 file at path, else ConfigError `cannot read <path>: <reason>`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise ConfigError(f"cannot read {path}: {reason}")


def _psi(mesh, psi_level: float, psi_file: str | None) -> GridFunction:
    """The base obstacle: the rows of psi_file if given, else the constant psi_level."""
    if psi_file is None:
        return GridFunction.constant(mesh, psi_level)
    text = _read_text(psi_file)
    try:
        parsed = from_csv(text, mesh.bc)
    except ValueError as exc:
        raise ConfigError(f"psi_file {psi_file}: {exc}") from exc
    if parsed.mesh.n != mesh.n:
        raise ConfigError(
            f"psi_file {psi_file} has {parsed.mesh.n + 1} nodes, the mesh has {mesh.n + 1}"
        )
    return parsed


def _example1d(mesh, alpha=0.25, c0=0.5):
    return assemble_linear(mesh, 1.0, 1.0), ObstacleMap.constant_mean(mesh, c0, alpha)


def _plaplacian(mesh, p=3.0, eps_op=1e-3, psi_level=0.05, psi_file=None):
    op = PLaplacianOperator(mesh, p, eps_op)
    return op, ObstacleMap.fixed(mesh, _psi(mesh, psi_level, psi_file))


def _kernel_qvi(mesh, alpha=0.25, kernel="gauss(0.25)", psi_level=0.05, psi_file=None):
    psi = _psi(mesh, psi_level, psi_file)
    omap = ObstacleMap.kernel(mesh, psi, alpha, _resolve_kernel(kernel))
    return assemble_linear(mesh, 1.0, 0.0), omap


def _nonmonotone_sine(mesh, lam=0.1, alpha=0.25, c0=0.5):
    base, omap = _example1d(mesh, alpha, c0)
    return NonMonotoneOperator(base, lam), omap


def _fixed_obstacle(mesh, psi_level=0.05, psi_file=None):
    psi = _psi(mesh, psi_level, psi_file)
    return assemble_linear(mesh, 1.0, 0.0), ObstacleMap.fixed(mesh, psi)


# name -> (default boundary condition, builder of (operator, obstacle map))
BUILTINS = {
    "example1d": ("neumann", _example1d),
    "plaplacian": ("dirichlet", _plaplacian),
    "kernel_qvi": ("dirichlet", _kernel_qvi),
    "nonmonotone_sine": ("neumann", _nonmonotone_sine),
    "fixed_obstacle": ("dirichlet", _fixed_obstacle),
}
# name -> the overrides its builder takes: its parameters after the mesh
_TAKES = {name: tuple(inspect.signature(b).parameters)[1:] for name, (_, b) in BUILTINS.items()}


def builtin_problem(
    name: str,
    n: int = 64,
    bc: str | None = None,
    f_level: float = 1.0,
    F_level: float | None = None,
    **overrides,
) -> QVIProblem:
    """Construct one of the named built-in problems on n cells, bc defaulting
    per problem, with force f_level, upper force F_level (f_level when None)
    and the overrides its builder takes; any other override is a ValueError."""
    if name not in BUILTINS:
        raise ValueError(f"unknown problem {name!r}; choose from {tuple(BUILTINS)}")
    default_bc, build = BUILTINS[name]
    unknown = [key for key in overrides if key not in _TAKES[name]]
    if unknown:
        raise ValueError(
            f"problem {name!r} does not take {', '.join(unknown)}; "
            f"its overrides are {', '.join(_TAKES[name])}"
        )
    mesh = make_mesh(n, bc if bc is not None else default_bc)
    f = GridFunction.constant(mesh, f_level)
    F = GridFunction.constant(mesh, F_level) if F_level is not None else f.copy()
    op, omap = build(mesh, **overrides)
    return QVIProblem(op, f, omap, F)
