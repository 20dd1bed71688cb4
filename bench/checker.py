"""Independent checker for qvar outputs.

Restates the discretisation documented in the qvar README in plain numpy:
the 3-point stencil of -(a u')' + a0 u (half-weight neumann rows), the
regularised p-Laplacian flux, the lam*sin composite, the three obstacle maps,
the trapezoid l2 and h1 norms, and the closed-form spectrum of the lumped
dirichlet Laplacian.  Nothing here imports qvar, so a fault in qvar cannot be
hidden by the code that checks it.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# relative round-off allowance on stencil sums: generous against differences
# in summation order, far below any perturbation a wrong solution shows
_ROUND = 64.0 * EPS


class CheckError(Exception):
    """An output of qvar disagrees with the checker."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Mesh:
    """Uniform mesh with n cells on (0,1); dofs are interior nodes on
    dirichlet meshes and all nodes on neumann meshes."""

    def __init__(self, n: int, bc: str):
        if bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.n = int(n)
        self.bc = bc
        self.h = 1.0 / self.n
        nodes = np.arange(self.n + 1) / self.n
        self.x = nodes[1:-1] if bc == "dirichlet" else nodes
        self.w = np.ones(self.x.size)
        if bc == "neumann":
            self.w[0] = self.w[-1] = 0.5
        self.hw = self.h * self.w

    def full(self, v: np.ndarray) -> np.ndarray:
        """Values at every node, dirichlet boundary zeros filled in."""
        if self.bc == "neumann":
            return v
        return np.concatenate(([0.0], v, [0.0]))


def l2(mesh: Mesh, v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(mesh.hw, v * v)))


def h1(mesh: Mesh, v: np.ndarray) -> float:
    """l2 part plus squared difference quotients over every edge, boundary
    edges included (the definition of the h1 norm in qvar.grid)."""
    grad = np.diff(mesh.full(v))
    return math.sqrt(float(np.dot(mesh.hw, v * v)) + float(np.dot(grad, grad)) / mesh.h)


# ----------------------------------------------------------------- operators


class Linear:
    """-(a u')' + a0 u with constant a, a0."""

    def __init__(self, mesh: Mesh, a: float, a0: float):
        self.mesh, self.a, self.a0 = mesh, float(a), float(a0)

    def _stencil(self, u: np.ndarray, sign: float) -> np.ndarray:
        m = self.mesh
        k = self.a / (m.h * m.h)
        full = m.full(u)
        out = np.empty(u.size)
        if m.bc == "dirichlet":
            out[:] = k * (2.0 * full[1:-1] + sign * (full[:-2] + full[2:]))
        else:
            out[1:-1] = k * (2.0 * u[1:-1] + sign * (u[:-2] + u[2:]))
            out[0] = 2.0 * k * (u[0] + sign * u[1])
            out[-1] = 2.0 * k * (u[-1] + sign * u[-2])
        return out + self.a0 * u

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._stencil(u, -1.0)

    def magnitude(self, u: np.ndarray) -> np.ndarray:
        """The stencil applied to |u| with every term counted positive: the
        scale of the round-off in apply(u)."""
        return self._stencil(np.abs(u), 1.0)


class PLaplacian:
    """Regularised p-Laplacian with edge-midpoint fluxes on a dirichlet mesh."""

    def __init__(self, mesh: Mesh, p: float, eps: float):
        if mesh.bc != "dirichlet":
            raise ValueError("the p-Laplacian lives on dirichlet meshes")
        self.mesh, self.p, self.eps = mesh, float(p), float(eps)

    def _flux(self, u: np.ndarray) -> np.ndarray:
        g = np.diff(self.mesh.full(u)) / self.mesh.h
        return (g * g + self.eps) ** ((self.p - 2.0) / 2.0) * g

    def apply(self, u: np.ndarray) -> np.ndarray:
        flux = self._flux(u)
        return (flux[:-1] - flux[1:]) / self.mesh.h

    def magnitude(self, u: np.ndarray) -> np.ndarray:
        flux = np.abs(self._flux(u))
        return (flux[:-1] + flux[1:]) / self.mesh.h


class SineComposite:
    """base(u) + lam*sin(u)."""

    def __init__(self, base: Linear, lam: float):
        self.mesh, self.base, self.lam = base.mesh, base, float(lam)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.base.apply(u) + self.lam * np.sin(u)

    def magnitude(self, u: np.ndarray) -> np.ndarray:
        return self.base.magnitude(u) + abs(self.lam) * np.abs(np.sin(u))


# ------------------------------------------------------------ obstacle maps


class ConstantMean:
    """Phi(y) = c0 + alpha * trapezoid integral of y (a constant)."""

    def __init__(self, mesh: Mesh, c0: float, alpha: float):
        self.mesh, self.c0, self.alpha = mesh, float(c0), float(alpha)
        # |Phi(y1) - Phi(y2)| <= alpha * sum(hw) * sup|y1 - y2|
        self.lip_sup = self.alpha * float(np.sum(mesh.hw))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.full(y.size, self.c0 + self.alpha * float(np.dot(self.mesh.hw, y)))


def gauss_samples(mesh: Mesh, sigma: float) -> np.ndarray:
    """k(x_i, x_j) at every pair of dofs, filled in blocks of rows so that no
    m x m temporary adds to the peak memory of the benchmark process."""
    x = mesh.x
    k = np.empty((x.size, x.size))
    for i in range(0, x.size, 256):
        d = x[i:i + 256, None] - x[None, :]
        k[i:i + 256] = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return k


class Kernel:
    """Phi(y)_i = psi_i + alpha * sum_j h w_j k(x_i, x_j) max(y_j, 0), with the
    gaussian kernel k = exp(-(x - xi)^2 / (2 sigma^2))."""

    def __init__(self, mesh: Mesh, psi: float, alpha: float, sigma: float):
        self.mesh, self.psi, self.alpha = mesh, float(psi), float(alpha)
        self.k = gauss_samples(mesh, sigma)
        self.lip_sup = self.alpha * float(np.max(self.k @ mesh.hw))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.psi + self.alpha * (self.k @ (self.mesh.hw * np.maximum(y, 0.0)))


class Fixed:
    """Phi(y) = psi, the ordinary obstacle problem."""

    def __init__(self, mesh: Mesh, psi: float):
        self.mesh, self.psi = mesh, float(psi)
        self.lip_sup = 0.0

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.full(y.size, self.psi)


# ----------------------------------------------------------------- problems


def builtin(name: str, n: int, params: dict):
    """(operator, force, obstacle map) of a qvar builtin problem.

    The operator coefficients and boundary conditions are those the qvar
    README gives for each named problem; the levels a config can override
    (f, psi, c0, alpha, kernel width, p, eps_op, lambda) come from `params`,
    which the benchmark writes explicitly into every config.
    """
    if name in ("example1d", "nonmonotone_sine"):
        mesh = Mesh(n, "neumann")
        op = Linear(mesh, 1.0, 1.0)
        if name == "nonmonotone_sine":
            op = SineComposite(op, params["lambda"])
        omap = ConstantMean(mesh, params["c0"], params["alpha"])
    elif name == "kernel_qvi":
        mesh = Mesh(n, "dirichlet")
        op = Linear(mesh, 1.0, 0.0)
        omap = Kernel(mesh, params["psi"], params["alpha"], params["sigma"])
    elif name == "fixed_obstacle":
        mesh = Mesh(n, "dirichlet")
        op = Linear(mesh, 1.0, 0.0)
        omap = Fixed(mesh, params["psi"])
    elif name == "plaplacian":
        mesh = Mesh(n, "dirichlet")
        op = PLaplacian(mesh, params["p"], params["eps_op"])
        omap = Fixed(mesh, params["psi"])
    else:
        raise ValueError(f"unknown problem {name!r}")
    f = np.full(mesh.x.size, float(params["f"]))
    return op, f, omap


def check_qvi(op, f: np.ndarray, omap, y: np.ndarray, tol_inner: float, tol_outer: float) -> None:
    """The QVI conditions y <= Phi(y), f - A(y) >= 0 and complementarity.

    The solver stops when an inner KKT residual is below tol_inner and the
    last outer step is below tol_outer (sup norm), so Phi(y) may differ from
    the obstacle of the last inner solve by lip_sup * tol_outer.  Round-off
    is allowed in proportion to the size of the stencil terms, which grow
    like 1/h^2.
    """
    require(y.shape == f.shape, f"solution has {y.size} dofs, expected {f.size}")
    require(bool(np.all(np.isfinite(y))), "solution has non-finite values")
    phi = omap(y)
    gap = phi - y
    res = f - op.apply(y)
    tol_gap = tol_inner + omap.lip_sup * tol_outer + _ROUND * (np.abs(phi) + np.abs(y))
    tol_res = tol_inner + _ROUND * (op.magnitude(y) + np.abs(f))
    _worst(gap < -tol_gap, -gap, "y <= Phi(y) violated")
    _worst(res < -tol_res, -res, "f - A(y) >= 0 violated")
    comp = np.abs(np.minimum(gap, res))
    _worst(comp > np.maximum(tol_gap, tol_res), comp, "complementarity violated")


def _worst(bad: np.ndarray, size: np.ndarray, what: str) -> None:
    if np.any(bad):
        i = int(np.argmax(np.where(bad, size, -np.inf)))
        raise CheckError(f"{what} at dof {i} by {size[i]:.3e} ({int(np.sum(bad))} dofs)")


# -------------------------------------------------------------- certificates


def dirichlet_laplacian_eigenvalues(n: int) -> np.ndarray:
    """lambda_k = (4/h^2) sin^2(k pi h / 2), k = 1..n-1: the spectrum of the
    3-point Laplacian with lumped mass on a dirichlet mesh."""
    k = np.arange(1, n)
    return 4.0 * n * n * np.sin(k * math.pi / (2.0 * n)) ** 2


def h1_constants(name: str, n: int) -> tuple[float, float]:
    """Exact (c, L) of a builtin linear operator in the h1 norm pair.

    For -u'' on a dirichlet mesh <Au,u> is the gradient part of ||u||_h1^2,
    so the Rayleigh quotient is lambda / (1 + lambda) over the lumped
    spectrum.  For -u'' + u on a neumann mesh <Au,u> = ||u||_h1^2: c = L = 1.
    """
    if name == "example1d":
        return 1.0, 1.0
    if name in ("kernel_qvi", "fixed_obstacle"):
        lam = dirichlet_laplacian_eigenvalues(n)
        return float(lam[0] / (1.0 + lam[0])), float(lam[-1] / (1.0 + lam[-1]))
    raise ValueError(f"no closed form for {name!r}")


def lipschitz_samples(omap, rng: np.random.Generator, count: int) -> float:
    """Largest sampled ratio ||Phi(y1) - Phi(y2)||_h1 / ||y1 - y2||_l2.

    Half the pairs are rough (independent normals); half compare a smooth
    positive bump with 0, the direction in which a positive kernel
    stretches most.
    """
    mesh = omap.mesh
    best = 0.0
    for k in range(count):
        if k % 2 == 0:
            y1 = rng.standard_normal(mesh.x.size)
            y2 = rng.standard_normal(mesh.x.size)
        else:
            freq = rng.integers(1, 4)
            y1 = np.abs(np.sin(freq * math.pi * mesh.x + rng.uniform(0, math.pi))) + rng.uniform(0, 1)
            y2 = np.zeros(mesh.x.size)
        d = l2(mesh, y1 - y2)
        if d > 0.0:
            best = max(best, h1(mesh, omap(y1) - omap(y2)) / d)
    return best


# ----------------------------------------------------------------- rate fits


def fit_slope(points) -> tuple[float, float] | None:
    """Least-squares (slope, r2) of log10(error) on log10(parameter) over the
    points with error above 1e-10; None with fewer than three such points."""
    usable = [(x, y) for x, y in points if y > 1e-10]
    if len(usable) < 3:
        return None
    lx = np.log10([x for x, _ in usable])
    ly = np.log10([y for _, y in usable])
    lxc = lx - lx.mean()
    slope = float(np.dot(lxc, ly - ly.mean()) / np.dot(lxc, lxc))
    resid = ly - ly.mean() - slope * lxc
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


# -------------------------------------------------------------- qvar files


def read_grid_csv(path, mesh: Mesh) -> np.ndarray:
    """Dof values of an `x,value` file with boundary nodes included."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == "x,value", f"{path}: missing x,value header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(rows.shape == (mesh.n + 1, 2), f"{path}: expected {mesh.n + 1} rows, got {rows.shape[0]}")
    require(bool(np.allclose(rows[:, 0], np.arange(mesh.n + 1) / mesh.n, rtol=0, atol=1e-15)),
            f"{path}: nodes are not i/n")
    if mesh.bc == "dirichlet":
        require(rows[0, 1] == 0.0 and rows[-1, 1] == 0.0, f"{path}: dirichlet boundary not zero")
        return rows[1:-1, 1]
    return rows[:, 1]


def read_summary(path) -> dict:
    """The `# summary key=value ...` trailer of a solve report."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    require(lines and lines[-1].startswith("# summary "), f"{path}: missing summary trailer")
    return dict(item.split("=", 1) for item in lines[-1][len("# summary "):].split())


def read_study_csv(path) -> dict:
    """Rows, fit trailer and verdicts of a study table."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    require(len(lines) >= 3 and lines[0].startswith("# study="), f"{path}: missing study header")
    out = {"header": dict(kv.split("=", 1) for kv in lines[0][2:].split()),
           "columns": lines[1].split(","), "rows": [], "fit": None, "verdicts": {}}
    for line in lines[2:]:
        if line.startswith("# fit "):
            out["fit"] = {k: float(v) for k, v in (kv.split("=", 1) for kv in line[6:].split())}
        elif line.startswith("# verdict "):
            name, _, value = line[10:].partition("=")
            out["verdicts"][name] = value == "True"
        else:
            out["rows"].append([float(v) for v in line.split(",")])
    require(out["fit"] is not None, f"{path}: missing fit trailer")
    return out
