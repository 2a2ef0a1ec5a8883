"""End-to-end emulated run: parameter choice, solve, injection, measurement.

The driver picks (m, k, p, h) from the accuracy target, solves the encoded
system, perturbs the normalized solution by the budgeted delta (standing in
for an inexact linear-systems subroutine; placed on the final-state blocks,
where it moves the output most), and measures the block index with the
seeded draw.
Landing in the padded final-state range flags success; the exact success
probability and the implied amplitude-amplification round count come along.

Run:  python demos/04_measurement.py
"""

import json

import numpy as np

from odeql import GenSpec, RunConfig, generate, run

inst = generate(GenSpec(N=4, kappa_V=3.0, b_mode="random", seed=2,
                        unit_norm=True))
cfg = RunConfig(T=2.5, epsilon=1e-5, seed=31, delta_injection="auto")
report = run(inst, cfg)

p = report.params
print(f"chosen parameters: m = p = {p.m}, k = {p.k}, h = {p.h:.4f} "
      f"(system dimension {(p.d + 1) * inst.N})")
print(f"log Omega = {report.log_omega:.2f}, budgeted delta = {report.delta:.3e}")
print(f"decay ratio g = {report.g_grid:.3f}, input/output ratio beta = "
      f"{report.beta:.3f}\n")

idx = report.sampled_index
print(f"measured block index {idx.flat} -> step {idx.i}, slot {idx.j}")
print(f"success flag: {report.success_flag}")
print(f"exact success probability: {report.success_prob:.4f} "
      f">= 1/(121 g^2) = {1 / (121 * report.g_grid**2):.4f}")
print(f"amplification rounds estimate: {report.est_amplification_rounds}\n")

print(f"sampled-output error  |out - x(T)/|x(T)||  = {report.fidelity_error:.3e}")
print(f"worst success-set error                    = "
      f"{report.success_conditioned_error:.3e}  (target {cfg.epsilon:g})")

# the probability mass over the index register, coarse picture
probs = report.probabilities
success = set(p.success_set())
bar = "".join("#" if i in success else "." for i in range(p.d + 1))
print(f"\nindex register ('#' marks the success set):\n{bar}")
print(f"mass on success set {sum(probs[i] for i in success):.4f}, "
      f"elsewhere {sum(probs[i] for i in range(p.d + 1) if i not in success):.4f}")

print("\nreport JSON keys:", ", ".join(sorted(report.to_json_dict().keys())))
