"""Command line front end: gen, encode, solve, verify, run, sweep.

Each input has one spelling: gen, run and sweep read a generated problem
from one --gen spec (:func:`_parse_gen_inline`), and run takes exactly one
of --instance or --gen. Exit codes: 0 success, 1 a claimed bound was
violated, 2 usage or hypothesis error. Every JSON report carries the schema
version and the exact command line that reproduces it. ODEQL_SEED, read
when the parser is built, provides the default --seed of verify, run and
sweep; a value that is not an integer is a usage error.
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
    """Parse the --gen spec of gen, run and sweep, e.g.
    'N=4,kappa=3,profile=boundary,eig=-0.5,b=random,seed=1,s=2,unit=1'.

    An omitted key takes GenSpec's default, except N = 4 and unit = 1, so
    the empty spec is GenSpec(N=4, unit_norm=True).
    """
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
    if "sparsity" in kwargs and kwargs.get("unit_norm") is False:
        raise OdeqlError("sparse mode always rescales to ||A|| <= 1; unit=0 applies "
                         "to dense mode only")
    kwargs.setdefault("unit_norm", True)
    return GenSpec(**kwargs)


# The two spellings of each encode/solve input, as argparse dests.
PROBLEM_SOURCES = (("instance",), ("matrix", "x_in", "b"))
LAYOUTS = (("m", "k", "p", "h"), ("T", "epsilon"))


def _one_spelling(args, spellings) -> tuple:
    """The one spelling in spellings that args gives, and gives in full."""
    given = [s for s in spellings if any(getattr(args, d) is not None for d in s)]
    if len(given) != 1 or any(getattr(args, d) is None for d in given[0]):
        names = " or ".join("/".join("--" + d.replace("_", "-") for d in s)
                            for s in spellings)
        raise OdeqlError(f"give exactly one of {names}, in full")
    return given[0]


def _load_problem(args):
    """Resolve (A, x_in, b, instance-or-None) from --instance or file flags."""
    if _one_spelling(args, PROBLEM_SOURCES) == ("instance",):
        inst = fileio.load_instance(args.instance)
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
    if _one_spelling(args, LAYOUTS) == ("m", "k", "p", "h"):
        return TaylorParams(m=args.m, k=args.k, p=args.p, h=args.h)
    if inst is None:
        inst = _instance_from_matrix(A, x_in, b)
    return pipeline.choose_parameters(inst, pipeline.grid(inst, args.T), args.epsilon).params


def _add_problem_flags(sub):
    sub.add_argument("--instance", help="instance directory written by gen")
    sub.add_argument("--matrix", help="A in Matrix Market format")
    sub.add_argument("--x-in", dest="x_in", help="initial state vector file")
    sub.add_argument("--b", help="inhomogeneity vector file")


def _add_params_flags(sub):
    sub.add_argument("--m", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--h", type=float)
    sub.add_argument("--T", type=float)
    sub.add_argument("--epsilon", type=float)


def _cmd_gen(args, argv) -> int:
    spec = _parse_gen_inline(args.gen)
    inst = generate(spec)
    out = fileio.save_instance(args.out, inst, {"seed": spec.seed})
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

    # every requested vector is resolved before anything is written, so a
    # block outside the layout leaves no output directory behind
    vectors = []
    for spec in args.block or ():
        i, j = (int(s) for s in spec.split(","))
        vectors.append((f"block_{i}_{j}.txt", sol.block(i, j)))
    if args.history:
        vectors += [(f"step_{i:04d}.txt", state) for i, state in enumerate(sol.step_states())]
    if not vectors:
        vectors.append(("solution.txt", sol.vector()))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, vector in vectors:
        path = out_dir / name
        fileio.save_vector(path, vector)
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


def _injection(text: str) -> float | str:
    """--inject-delta, for run and sweep alike; RunConfig checks a number's range."""
    if text in ("off", "auto"):
        return 0.0 if text == "off" else text
    return float(text)


def _cmd_run(args, argv) -> int:
    inst = (fileio.load_instance(args.instance) if args.gen is None
            else generate(_parse_gen_inline(args.gen)))
    cfg = pipeline.RunConfig(T=args.T, epsilon=args.epsilon, seed=args.seed,
                             delta_injection=_injection(args.inject_delta))
    report = pipeline.run(inst, cfg)
    payload = report.to_json_dict()
    payload["instance"] = inst.label
    _write_report(args.report, payload, argv)
    return 0 if report.success_conditioned_error <= args.epsilon else 1


def _cmd_sweep(args, argv) -> int:
    base = _parse_gen_inline(args.gen)
    T_values = [float(s) for s in args.T.split(",")]
    eps_values = [float(s) for s in args.epsilon.split(",")]
    kappa_values = ([float(s) for s in args.kappa.split(",")]
                    if args.kappa else None)
    result = pipeline.sweep_grid(base, T_values, eps_values, kappa_values, args.seed,
                                 delta_injection=_injection(args.inject_delta))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(result["rows"][0]))
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
    # --seed and --report, each defined once for the subcommands that take it
    seeded = _Parser(add_help=False)
    # a string default goes through type=int, so a bad ODEQL_SEED is a usage error
    seeded.add_argument("--seed", type=int, default=os.environ.get("ODEQL_SEED", "0"))
    reported = _Parser(add_help=False)
    reported.add_argument("--report", help="JSON report file (default: stdout)")

    gen = sub.add_parser("gen", help="generate a seeded test instance")
    gen.add_argument("--out", required=True)
    gen.add_argument("--gen", default="", help="generation spec, e.g. 'N=4,kappa=3'")
    gen.set_defaults(func=_cmd_gen)

    enc = sub.add_parser("encode", help="build the encoded matrix and rhs")
    _add_problem_flags(enc)
    _add_params_flags(enc)
    enc.add_argument("--out-matrix", required=True)
    enc.add_argument("--out-rhs", required=True)
    enc.set_defaults(func=_cmd_encode)

    sol = sub.add_parser("solve", parents=[reported],
                         help="solve by block forward substitution")
    _add_problem_flags(sol)
    _add_params_flags(sol)
    sol.add_argument("--block", action="append",
                     help="write block i,j (repeatable)")
    sol.add_argument("--history", action="store_true",
                     help="write all step states x_{i,0}")
    sol.add_argument("--out-dir", required=True)
    sol.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", parents=[seeded, reported],
                         help="run a bound-verification suite")
    ver.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    ver.add_argument("--trials", type=int)
    ver.set_defaults(func=_cmd_verify)

    run = sub.add_parser("run", parents=[seeded, reported], help="end-to-end emulated run")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="instance directory written by gen")
    source.add_argument("--gen", help="generation spec, as for gen")
    run.add_argument("--T", type=float, required=True)
    run.add_argument("--epsilon", type=float, required=True)
    run.add_argument("--inject-delta", dest="inject_delta", default="off",
                     help="'auto', 'off', or an explicit perturbation norm")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", parents=[seeded, reported],
                         help="grid of runs over T, epsilon, kappa")
    swp.add_argument("--gen", default="", help="generation spec, as for gen")
    swp.add_argument("--T", required=True, help="comma list of times")
    swp.add_argument("--epsilon", required=True, help="comma list of targets")
    swp.add_argument("--kappa", help="comma list of condition numbers")
    swp.add_argument("--inject-delta", dest="inject_delta", default="auto", help="as for run")
    swp.add_argument("--csv")
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
