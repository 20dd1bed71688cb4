"""Non-monotone composite operator under the smallness condition.

The operator is -u'' + u + lam*sin(u): the sine part is non-monotone with
Lipschitz constant and monotonicity defect both equal to |lam|.  For
lam = 0.1 and the quarter-strength obstacle coupling the certificate
rho = (L_A + L_N) L_phi / (c - gamma) = 1.1 * 0.25 / 0.9 < 1 guarantees a
unique solution, a globally convergent iteration from any start, and a
Lipschitz-stable solution map.
"""

import numpy as np

from qvar import (
    GridFunction,
    builtin_problem,
    problem_certificate,
    run_stability_bound_check,
    solve_qvi_fixed_point,
    unconstrained_supersolution,
)

problem = builtin_problem("nonmonotone_sine", n=32)

cert = problem_certificate(problem)
print("== smallness certificate ==")
print(f"c={cert.c:.4f} L_A={cert.L_A:.4f} L_N={cert.L_N:.4f} gamma={cert.gamma:.4f}")
print(f"L_phi={cert.L_phi:.4f} -> rho={cert.rho:.4f} ({'ok' if cert.smallness_ok else 'FAILS'})")

print("\n== start-point independence ==")
from_zero = solve_qvi_fixed_point(problem)
ybar = unconstrained_supersolution(problem.operator, problem.F)
from_above = solve_qvi_fixed_point(problem, ybar)
gap = np.max(np.abs(from_zero.solution.values - from_above.solution.values))
print(f"solve from 0      : {from_zero.outer_iterations} outer steps, rho_obs {from_zero.rho_observed:.4f}")
print(f"solve from above  : {from_above.outer_iterations} outer steps, rho_obs {from_above.rho_observed:.4f}")
print(f"solution gap      : {gap:.2e} (unique fixed point)")

print("\n== Lipschitz stability of the solution map ==")
rng = np.random.default_rng(5)
mesh = problem.f.mesh
pairs = []
for _ in range(10):
    f1 = GridFunction(mesh, 1.0 + 0.25 * rng.standard_normal(mesh.dof_count))
    f2 = GridFunction(mesh, f1.values + 0.15 * rng.standard_normal(mesh.dof_count))
    pairs.append((f1, f2))
res = run_stability_bound_check(problem, pairs)
print("pair  distance     bound        ratio")
for k, dist, bound, ratio in res.rows:
    print(f"{int(k):<5} {dist:.4e}  {bound:.4e}  {ratio:.3f}")
print(f"bound_holds = {res.verdicts['bound_holds']} (all ratios <= 1.05)")
