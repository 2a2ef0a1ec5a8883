"""Norms and condition numbers of the encoded matrix vs their bounds.

The encoding is useful because the system stays well conditioned:
|C| <= 2 sqrt(k), |C^-1| <= 3 kappa_V sqrt(k) (m+p), and their product
kappa_C <= 6 kappa_V k (m+p). Here both sides are computed for growing
conditioning of the diagonalizing similarity. |C| is bracketed: Lanczos
gives the lower side, and Lemma 3's proof, from the three component norms
read off the proved block layout, the upper side, which the verdicts use.

Run:  python demos/03_conditioning.py
"""

from odeql import (
    GenSpec,
    Problem,
    TaylorParams,
    condition_number_bound,
    decay_profile,
    generate,
    matrix_norm_bounds,
)

params = TaylorParams(m=4, k=6, p=4, h=0.9)
print(f"layout: m = p = {params.m}, k = {params.k}  "
      f"(matrix dimension scales with d+1 = {params.d + 1} blocks)\n")
print(f"{'kappa_V':>8} {'|C| >=':>8} {'|C| <=':>8} {'2 sqrt(k)':>10} {'kappa_C <=':>11} "
      f"{'6 kappa_V k (m+p)':>18} {'ratio':>7}")

for kappa in (1.0, 3.0, 10.0):
    inst = generate(GenSpec(N=6, kappa_V=kappa, b_mode="random", seed=21,
                            unit_norm=True))
    problem = Problem(inst, params, decay_profile(inst, params.T, params.m))
    norm_report = matrix_norm_bounds(problem.system)
    cond_report = condition_number_bound(problem)
    print(f"{kappa:8.1f} {norm_report.details['norm']:8.3f} "
          f"{norm_report.details['norm_upper']:8.3f} "
          f"{norm_report.details['bound']:10.3f} "
          f"{cond_report.details['kappa_C_upper']:11.2f} "
          f"{cond_report.details['bound']:18.2f} "
          f"{cond_report.worst_ratio:7.3f}")

details = norm_report.details
print("\nLemma 3 on the last system: C = C1 + C2 + C3, each norm proved from the")
print("encoded layout (identity, -I collectors on disjoint columns, one block")
print("per block row and column below the diagonal):")
print(f"  |C1| = {details['component_identity']:.6f}   "
      f"|C2| = sqrt(k+1) = {details['component_collector']:.6f}   "
      f"|C3| = max(|Ah|, 1) = {details['component_subdiagonal']:.6f}")
print(f"  {details['norm']:.6f} (Lanczos) <= |C| <= 1 + sqrt(k+1) + |C3| = "
      f"{details['norm_upper']:.6f} <= 2 sqrt(k) = {details['bound']:.6f}")
print("kappa_C <= column: Lemma 3's bound times the Lanczos estimate of |C^-1|, "
      f"so certified = {cond_report.details['certified']}")
