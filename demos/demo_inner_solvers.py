"""The inner obstacle solver and the enumeration oracle that checks it.

One projected Newton solver handles every operator.  On instances small
enough to enumerate every active set, it is checked against the brute-force
oracle: a linear instance directly, the p-Laplacian through p = 2, where it
is the linear stiffness.
"""

import numpy as np

from qvar import (
    GridFunction,
    PLaplacianOperator,
    VIParams,
    assemble_linear,
    kkt_residual,
    make_mesh,
    solve_vi,
    solve_vi_active_set_oracle,
)

print("== Newton vs exhaustive active-set enumeration (8 dofs) ==")
rng = np.random.default_rng(7)
mesh = make_mesh(9, "dirichlet")
op = assemble_linear(mesh, rng.uniform(0.5, 2.0, mesh.n), rng.uniform(0.0, 1.0, 8))
f = GridFunction(mesh, rng.standard_normal(8))
psi = GridFunction(mesh, rng.uniform(-0.5, 1.0, 8))
oracle = solve_vi_active_set_oracle(op, f, psi)
rep = solve_vi(op, f, psi, VIParams(tol=1e-11))
dev = np.max(np.abs(oracle.values - rep.solution.values))
print(f"Newton : {rep.iterations:4d} iterations, sup deviation {dev:.2e}, "
      f"kkt {kkt_residual(op, f, psi, rep.solution):.2e}")
print(f"active nodes  : {np.flatnonzero(np.isclose(oracle.values, psi.values)).tolist()}")

print("\n== p-Laplacian obstacle problem (p=3, regularized) ==")
mesh = make_mesh(32, "dirichlet")
plap = PLaplacianOperator(mesh, 3.0, 1e-3)
f1 = GridFunction.constant(mesh, 1.0)
low = GridFunction.constant(mesh, 0.05)
rep = solve_vi(plap, f1, low, VIParams())
print(f"converged in {rep.iterations} Newton steps, kkt {rep.kkt_residual:.2e}")
mid = rep.solution.values[len(rep.solution.values) // 2]
print(f"midpoint value {mid:.6f} (capped at the obstacle 0.05)")

print("\n== p = 2 is the linear stiffness, which the oracle takes (12 dofs) ==")
mesh = make_mesh(13, "dirichlet")
f1 = GridFunction.constant(mesh, 1.0)
low = GridFunction.constant(mesh, 0.05)
a = solve_vi(PLaplacianOperator(mesh, 2.0, 0.0), f1, low, VIParams())
b = solve_vi_active_set_oracle(assemble_linear(mesh, 1.0, 0.0), f1, low)
print(f"p=2 Newton vs oracle sup gap: {np.max(np.abs(a.solution.values - b.values)):.2e}")
