"""Build the block encoding of a small ODE and watch it track the flow.

The system packs m Taylor steps of order k plus p copies of the final state
into one unit-lower-triangular matrix. Forward substitution walks the blocks
in order; the step blocks x_{i,0} then shadow the true trajectory x(ih).

Run:  python demos/01_block_encoding.py
"""

import numpy as np

from odeql import (
    GenSpec,
    TaylorParams,
    encode,
    forward_substitute,
    generate,
    reference_trajectory,
    residual,
)

inst = generate(GenSpec(N=4, kappa_V=3.0, b_mode="random", seed=8,
                        unit_norm=True))
params = TaylorParams(m=6, k=7, p=6, h=0.5)

system = encode(inst.A, inst.x_in, inst.b, params)
print(f"encoded matrix: {system.dim} x {system.dim}, nnz = {system.matrix.nnz} "
      f"(closed form {system.expected_nnz})")
print(f"block layout: d+1 = {params.d + 1} blocks of size {inst.N}\n")

sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
print(f"relative residual of the block solve: {residual(system, sol.vector()):.2e}\n")

trajectory = reference_trajectory(inst, params.T, params.m)
print("  step   t      |x_step - x(t)|   |x(t)|")
for i, (state, truth) in enumerate(zip(sol.step_states(), trajectory)):
    gap = np.linalg.norm(state - truth)
    print(f"  {i:4d}  {i * params.h:5.2f}   {gap:12.3e}    {np.linalg.norm(truth):8.5f}")

final = sol.final_state()
print(f"\nfinal-state error |x_m0 - x(T)| = {np.linalg.norm(final - trajectory[-1]):.3e}")
print(f"padding blocks identical: "
      f"{all(np.array_equal(sol.block(params.m, j), final) for j in range(params.p + 1))}")
