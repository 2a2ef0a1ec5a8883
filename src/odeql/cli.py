"""Command line front end: gen, encode, solve, verify, run, sweep.

Exit codes: 0 success, 1 a claimed bound was violated, 2 usage or hypothesis
error. Every JSON report carries the schema version and the exact command
line that reproduces it. ODEQL_SEED, read when the parser is built, provides
the default seed; a value that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from . import fileio, pipeline, suites
from .encoder import TaylorParams, encode
from .errors import DegenerateInputError, OdeqlError
from .instances import GenSpec, generate
from .numerics import make_instance
from .solver import forward_substitute, residual

# kappa_V from which a matrix read from files counts as numerically defective.
DEFECTIVE_KAPPA_V = np.finfo(float).eps ** -0.5


def _write_report(path, payload: dict, argv) -> None:
    payload = dict(payload)
    payload.setdefault("schema", 1)
    payload["command"] = "odeql " + shlex.join(argv)
    text = json.dumps(payload, indent=2, default=float) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        print(text, end="")


_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _parse_gen_inline(text: str) -> GenSpec:
    """Parse 'N=4,kappa=3,profile=boundary,b=random,seed=1,s=2,unit=1'."""
    fields = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    kwargs = {"N": int(fields.pop("N", 4))}
    if "kappa" in fields:
        kwargs["kappa_V"] = float(fields.pop("kappa"))
    if "profile" in fields:
        kwargs["eig_profile"] = fields.pop("profile")
    if "eig" in fields:
        kwargs["eig_value"] = complex(fields.pop("eig"))
        kwargs.setdefault("eig_profile", "scalar")
    if "s" in fields:
        kwargs["sparsity"] = int(fields.pop("s"))
        kwargs.setdefault("kappa_V", None)
    if "b" in fields:
        kwargs["b_mode"] = fields.pop("b")
    if "seed" in fields:
        kwargs["seed"] = int(fields.pop("seed"))
    if "unit" in fields:
        unit = fields.pop("unit")
        if unit not in _TRUE + _FALSE:
            raise OdeqlError(f"unit must be one of {'/'.join(_TRUE)} or "
                             f"{'/'.join(_FALSE)}, got {unit!r}")
        kwargs["unit_norm"] = unit in _TRUE
    if fields:
        raise OdeqlError(f"unknown generation keys: {sorted(fields)}")
    kwargs.setdefault("unit_norm", True)
    return GenSpec(**kwargs)


def _load_problem(args):
    """Resolve (A, x_in, b, instance-or-None) from --instance or file flags."""
    if getattr(args, "instance", None):
        inst = fileio.load_instance(args.instance)
        return inst.A, inst.x_in, inst.b, inst
    if getattr(args, "gen", None):
        inst = generate(_parse_gen_inline(args.gen))
        return inst.A, inst.x_in, inst.b, inst
    A = fileio.load_matrix(args.matrix)
    x_in = fileio.load_vector(args.x_in)
    b = fileio.load_vector(args.b)
    return A, x_in, b, None


def _instance_from_matrix(A, x_in, b):
    """Derive an Instance from raw files via a dense eigendecomposition.

    A defective A is rejected: rounding splits its Jordan pairs by ~sqrt(eps),
    so eig returns kappa_V >= 1/sqrt(eps) and every kappa_V bound is vacuous.
    """
    dense = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    eigvals, V = np.linalg.eig(dense)
    inst = make_instance(V, eigvals, b, x_in, A=A, label="from-files")
    if not inst.kappa_V < DEFECTIVE_KAPPA_V:
        raise DegenerateInputError(
            f"A is numerically defective (kappa_V = {inst.kappa_V:.2g})")
    return inst


def _resolve_params(args, A, x_in, b, inst) -> TaylorParams:
    if args.params:
        blob = fileio.load_manifest(args.params)
        if {"m", "k", "p", "h"} <= set(blob):
            m, k, p = (fileio.manifest_field(blob, key, int, args.params) for key in "mkp")
            return TaylorParams(m=m, k=k, p=p,
                                h=fileio.manifest_field(blob, "h", float, args.params))
        if {"T", "epsilon"} <= set(blob):
            args.T, args.epsilon = (fileio.manifest_field(blob, key, float, args.params)
                                    for key in ("T", "epsilon"))
        else:
            raise OdeqlError("params file needs {m,k,p,h} or {T,epsilon}")
    if args.m is not None:
        return TaylorParams(m=args.m, k=args.k, p=args.p, h=args.h)
    if args.T is None or args.epsilon is None:
        raise OdeqlError("give either --m/--k/--p/--h or --T/--epsilon")
    if inst is None:
        inst = _instance_from_matrix(A, x_in, b)
    return pipeline.plan(inst, pipeline.grid(inst, args.T), args.T, args.epsilon).params


def _add_problem_flags(sub, with_gen=False):
    sub.add_argument("--instance", help="instance directory written by gen")
    if with_gen:
        sub.add_argument("--gen", help="inline generation spec, e.g. 'N=4,kappa=3'")
    sub.add_argument("--matrix", help="A in Matrix Market format")
    sub.add_argument("--x-in", dest="x_in", help="initial state vector file")
    sub.add_argument("--b", help="inhomogeneity vector file")


def _add_params_flags(sub):
    sub.add_argument("--params", help="JSON file with {m,k,p,h} or {T,epsilon}")
    sub.add_argument("--m", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--h", type=float)
    sub.add_argument("--T", type=float)
    sub.add_argument("--epsilon", type=float)


def _cmd_gen(args, argv) -> int:
    spec = GenSpec(
        N=args.N,
        kappa_V=1.0 if args.kappa is None and args.sparsity is None else args.kappa,
        eig_profile="scalar" if args.eig_value is not None else args.profile,
        eig_value=None if args.eig_value is None else complex(args.eig_value),
        sparsity=args.sparsity,
        b_mode=args.b_mode,
        seed=args.seed,
        unit_norm=args.unit_norm,
    )
    inst = generate(spec)
    out = fileio.save_instance(args.out, inst, {"seed": args.seed})
    print(f"wrote instance {inst.label} to {out}")
    return 0


def _cmd_encode(args, argv) -> int:
    A, x_in, b, inst = _load_problem(args)
    params = _resolve_params(args, A, x_in, b, inst)
    system = encode(A, x_in, b, params)
    fileio.save_matrix(args.out_matrix, system.matrix)
    fileio.save_vector(args.out_rhs, system.rhs)
    print(f"wrote {system.dim}x{system.dim} system "
          f"(m={params.m}, k={params.k}, p={params.p}, h={params.h:g}, "
          f"nnz={system.matrix.nnz}) to {args.out_matrix}, {args.out_rhs}")
    return 0


def _cmd_solve(args, argv) -> int:
    A, x_in, b, inst = _load_problem(args)
    params = _resolve_params(args, A, x_in, b, inst)
    system = encode(A, x_in, b, params)  # gates |A| h <= 1 before any solve
    sol = forward_substitute(A, params, x_in, b)
    rel = residual(system, sol.vector())

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.block:
        for spec in args.block:
            i, j = (int(s) for s in spec.split(","))
            path = out_dir / f"block_{i}_{j}.txt"
            fileio.save_vector(path, sol.block(i, j))
            written.append(str(path))
    if args.history:
        for i, state in enumerate(sol.step_states()):
            path = out_dir / f"step_{i:04d}.txt"
            fileio.save_vector(path, state)
            written.append(str(path))
    if not written:
        path = out_dir / "solution.txt"
        fileio.save_vector(path, sol.vector())
        written.append(str(path))

    _write_report(args.report, {
        "residual": rel,
        "params": {"m": params.m, "k": params.k, "p": params.p, "h": params.h,
                   "d": params.d},
        "dim": system.dim,
        "nnz": system.matrix.nnz,
        "files": written,
    }, argv)
    return 0


def _cmd_verify(args, argv) -> int:
    report = suites.run_suite(args.suite, args.trials, args.seed)
    _write_report(args.report, report, argv)
    return 0 if report["passed"] else 1


def _injection(text: str) -> float | str | None:
    """--inject-delta, for run and sweep alike; RunConfig checks a number's range."""
    if text in ("off", "auto"):
        return None if text == "off" else text
    return float(text)


def _cmd_run(args, argv) -> int:
    _, _, _, inst = _load_problem(args)
    if inst is None:
        raise OdeqlError("run needs --instance or --gen")
    cfg = pipeline.RunConfig(T=args.T, epsilon=args.epsilon, seed=args.seed,
                             delta_injection=_injection(args.inject_delta))
    report = pipeline.run(inst, cfg)
    payload = report.to_json_dict()
    payload["instance"] = inst.label
    _write_report(args.report, payload, argv)
    return 0 if report.success_conditioned_error <= args.epsilon else 1


def _cmd_sweep(args, argv) -> int:
    base = _parse_gen_inline(args.gen) if args.gen else GenSpec(N=4, unit_norm=True)
    T_values = [float(s) for s in args.T.split(",")]
    eps_values = [float(s) for s in args.epsilon.split(",")]
    kappa_values = ([float(s) for s in args.kappa.split(",")]
                    if args.kappa else None)
    result = pipeline.sweep_grid(base, T_values, eps_values, kappa_values, args.seed,
                                 delta_injection=_injection(args.inject_delta))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "kappa_V", "T", "epsilon", "k", "d", "success_prob",
                "fidelity_error", "success_conditioned_error", "success_flag",
                "passed"])
            writer.writeheader()
            writer.writerows(result["rows"])
    _write_report(args.report, result, argv)
    return 0 if result["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 2 with one ``error:`` line, like the rest."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="odeql",
        description="Encode, solve and verify truncated-Taylor linear-system "
                    "propagation of linear ODEs.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # a string default goes through type=int, so a bad ODEQL_SEED is a usage error
    seed = os.environ.get("ODEQL_SEED", "0")

    gen = sub.add_parser("gen", help="generate a seeded test instance")
    gen.add_argument("--out", required=True)
    gen.add_argument("--N", type=int, default=4)
    gen.add_argument("--kappa", type=float, help="dense mode only; default 1")
    gen.add_argument("--profile", default="uniform-half-disk")
    gen.add_argument("--eig-value", dest="eig_value")
    gen.add_argument("--sparsity", type=int)
    gen.add_argument("--b-mode", dest="b_mode", default="zero",
                     choices=("zero", "random"))
    gen.add_argument("--seed", type=int, default=seed)
    gen.add_argument("--unit-norm", dest="unit_norm", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    enc = sub.add_parser("encode", help="build the encoded matrix and rhs")
    _add_problem_flags(enc)
    _add_params_flags(enc)
    enc.add_argument("--out-matrix", required=True)
    enc.add_argument("--out-rhs", required=True)
    enc.set_defaults(func=_cmd_encode)

    sol = sub.add_parser("solve", help="solve by block forward substitution")
    _add_problem_flags(sol)
    _add_params_flags(sol)
    sol.add_argument("--block", action="append",
                     help="write block i,j (repeatable)")
    sol.add_argument("--history", action="store_true",
                     help="write all step states x_{i,0}")
    sol.add_argument("--out-dir", required=True)
    sol.add_argument("--report")
    sol.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="run a bound-verification suite")
    ver.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--seed", type=int, default=seed)
    ver.add_argument("--report")
    ver.set_defaults(func=_cmd_verify)

    run = sub.add_parser("run", help="end-to-end emulated run")
    _add_problem_flags(run, with_gen=True)
    run.add_argument("--T", type=float, required=True)
    run.add_argument("--epsilon", type=float, required=True)
    run.add_argument("--seed", type=int, default=seed)
    run.add_argument("--inject-delta", dest="inject_delta", default="off",
                     help="'auto', 'off', or an explicit perturbation norm")
    run.add_argument("--report")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", help="grid of runs over T, epsilon, kappa")
    swp.add_argument("--gen", help="inline generation spec template")
    swp.add_argument("--T", required=True, help="comma list of times")
    swp.add_argument("--epsilon", required=True, help="comma list of targets")
    swp.add_argument("--kappa", help="comma list of condition numbers")
    swp.add_argument("--seed", type=int, default=seed)
    swp.add_argument("--inject-delta", dest="inject_delta", default="auto", help="as for run")
    swp.add_argument("--csv")
    swp.add_argument("--report")
    swp.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (OdeqlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
