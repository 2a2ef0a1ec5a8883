"""Remainder and magnitude bounds for the truncated exponential polynomials.

On the closed left half-disk the truncations obey factorial remainder
bounds, and the normalized tails stay below sqrt(1.04) once k >= 5. This
script samples the half-disk and prints, for each k, the worst ratio of
observed to bound per bound (a ratio <= 1 means the bound held). The
remainders are read from the Taylor tail instead of a difference that
cancels, so even at k = 20, where 1/(k+1)! is ~2e-20, the ratio shows its
margin below 1.

Run:  python demos/02_taylor_remainders.py
"""

import math

from odeql import truncated_exp, verify_remainder_bounds
from odeql.analysis import REMAINDER_ORDERS

reports = verify_remainder_bounds(samples=5000, seed=1)
names = list(dict.fromkeys(r.bound_name for r in reports))

print(f"5000 half-disk samples + boundary cases, "
      f"k = {REMAINDER_ORDERS[0]}..{REMAINDER_ORDERS[-1]}")
print("worst observed/bound ratio per bound:\n")
print(f"{'k':>3} " + " ".join(f"{name:>15}" for name in names))
# one report per bound and k, k-major
for k, i in zip(REMAINDER_ORDERS, range(0, len(reports), len(names))):
    print(f"{k:>3} " + " ".join(f"{r.worst_ratio:15.6f}" for r in reports[i:i + len(names)]))

worst = max(reports, key=lambda r: r.worst_ratio)
print(f"\nworst ratio {worst.worst_ratio:.6f} ({worst.bound_name} at {worst.argmax_instance})")
print(f"all bounds held: {all(r.passed for r in reports)}")

# the classic scalar data point: T_5 at z = -1
err = abs(truncated_exp(-1.0, 5) - math.exp(-1.0))
print(f"\n|T_5(-1) - e^-1| = {err:.10f} <= 1/6! = {1 / math.factorial(6):.10f}")
