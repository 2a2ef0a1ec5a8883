"""The three benchmark workloads, each driving odeql's public API.

A workload is built from a seed (its set-up), runs one task with
:meth:`run` and checks the task's output with :meth:`check`, which returns
a failure reason or None.  Calls go through module attributes
(``pipeline.run``, not a name imported into this file), so the traced run
sees them.

Every task does the same work: a task that mixed sizes would put the
median task time inside one size class, or between two, so that a few
slow seconds on the machine or one failed task would move it by a quarter
or more.
"""

from __future__ import annotations

import math

import numpy as np

from odeql import encoder, instances, numerics, pipeline, solver, suites


def _seed_stream(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**31))


class Emulate:
    """pipeline.run on one dense instance, once for each evolution time T."""

    name = "emulate"

    def __init__(self, seed: int, N: int = 64, T_values=(5.0, 10.0, 20.0),
                 epsilon: float = 1e-8):
        # One fixed instance (GenSpec's default seed); the seed drives the
        # runs' perturbation and measurement draws.  The oracle's cost follows
        # the instance (its substep count scales with ||[A b]||_1), so a seeded
        # instance would make task_s_p50 differ by a quarter between seeds.
        self.inst = instances.generate(instances.GenSpec(
            N=N, kappa_V=3.0, b_mode="random", unit_norm=True))
        self.T_values = tuple(T_values)
        self.epsilon = epsilon
        self.seeds = _seed_stream(seed)
        self.size = {"N": N, "kappa_V": 3.0, "T": list(self.T_values),
                     "epsilon": epsilon, "delta_injection": "auto"}

    def run(self):
        return [pipeline.run(self.inst, pipeline.RunConfig(
                    T=T, epsilon=self.epsilon, seed=next(self.seeds),
                    delta_injection="auto"))
                for T in self.T_values]

    def check(self, reports) -> str | None:
        for report in reports:
            fields = report.to_json_dict()
            numbers = [fields["log_omega"], fields["delta"], fields["injected_delta"],
                       fields["g_grid"], fields["beta"], fields["success_prob"],
                       fields["fidelity_error"], fields["success_conditioned_error"]]
            numbers += [x for pair in fields["output_state"] for x in pair]
            if not all(math.isfinite(x) for x in numbers):
                return f"T={report.T}: non-finite report field"
            if not report.success_conditioned_error <= self.epsilon:
                return (f"T={report.T}: success-conditioned error "
                        f"{report.success_conditioned_error:.3g} > {self.epsilon:g}")
        return None


class Solve:
    """Encode and solve one sparse system by block and generic substitution."""

    name = "solve"

    def __init__(self, seed: int, N: int = 1024, sparsity: int = 4, m: int = 40,
                 k: int = 21):
        self.inst = instances.generate(instances.GenSpec(
            N=N, sparsity=sparsity, kappa_V=None, b_mode="random", seed=seed))
        norm_A = numerics.spectral_norm(self.inst.A, tol=1e-6)
        self.params = encoder.TaylorParams(m=m, k=k, p=m, h=0.999 / norm_A)
        self.size = {"N": N, "sparsity": sparsity, "nnz_A": self.inst.A.nnz,
                     "m": m, "k": k, "p": m, "dim": (self.params.d + 1) * N}

    def run(self):
        inst, params = self.inst, self.params
        system = encoder.encode(inst.A, inst.x_in, inst.b, params)
        block = solver.forward_substitute(inst.A, params, inst.x_in, inst.b)
        generic = solver.generic_solve(system)
        res = solver.residual(system, block.vector())
        return system, block.vector(), generic, res

    def check(self, out) -> str | None:
        system, block, generic, res = out
        agree = np.linalg.norm(block - generic) / np.linalg.norm(generic)
        if not agree <= 1e-12:
            return f"block and generic solutions differ by {agree:.3g} relative"
        if not res <= 1e-12:
            return f"residual {res:.3g} > 1e-12"
        if system.matrix.nnz != system.expected_nnz:
            return f"nnz {system.matrix.nnz} != expected {system.expected_nnz}"
        return None


class Verify:
    """suites.run_suite over the bound suites, the family at one fixed seed."""

    name = "verify"

    # The seed of suites.standard_family in every task: run_suite's default.
    # The family's cost follows its seed (power-iteration counts in
    # inverse_norm vary by ~20% between seeds), so a seeded family would make
    # task_s_p50 differ by a quarter between runs of two tasks each.
    FAMILY_SEED = 0

    def __init__(self, seed: int,
                 names=("lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm3")):
        self.names = tuple(names)
        self.seeds = _seed_stream(seed)
        self.size = {"suites": list(self.names), "family_seed": self.FAMILY_SEED}

    def run(self):
        # lemma1 builds no family; the seed stream drives its lambda samples,
        # a fixed number of them, so its cost does not follow the seed.
        seed = next(self.seeds)
        return [suites.run_suite(name, seed=seed if name == "lemma1"
                                 else self.FAMILY_SEED)
                for name in self.names]

    def check(self, reports) -> str | None:
        failed = [name for name, r in zip(self.names, reports) if not r["passed"]]
        return f"suites {failed} did not pass" if failed else None


WORKLOADS = {w.name: w for w in (Emulate, Solve, Verify)}
