"""Command line front end: gen, encode, solve, verify, run, sweep.

Each input has one spelling: gen, run and sweep read a generated problem
from one --gen spec (:func:`_parse_gen_inline`), and run takes exactly one
of --instance or --gen. Exit codes: 0 success, 1 a claimed bound was
violated, 2 usage or hypothesis error. Every JSON report carries the schema
version and the exact command line that reproduces it.
"""

from __future__ import annotations

import argparse
import csv
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from . import fileio, pipeline, suites
from .encoder import encode
from .errors import DegenerateInputError, OdeqlError
from .instances import GenSpec, generate
from .numerics import as_dense, make_instance
from .solver import forward_substitute, residual
from .taylor import TaylorParams

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


# --gen key -> the GenSpec field it sets, its value's parser, and what that accepts.
GEN_KEYS = {
    "N": ("N", int, "an integer"),
    "kappa": ("kappa_V", float, "a number"),
    "profile": ("eig_profile", str, "a profile name"),
    "eig": ("eig_value", complex, "a complex number"),
    "s": ("sparsity", int, "an integer"),
    "b": ("b_mode", str, "zero or random"),
    "seed": ("seed", int, "an integer"),
    "unit": ("unit_norm", {"0": False, "1": True}.__getitem__, "0 or 1"),
}


def _parse_gen_inline(text: str) -> GenSpec:
    """Parse the --gen spec of gen, run and sweep, e.g.
    'N=4,kappa=3,profile=boundary,b=random,seed=1,s=2,unit=1'.

    An omitted key takes GenSpec's default, except N = 4 and unit = 1, so
    the empty spec is GenSpec(N=4, unit_norm=True); eig= implies the scalar
    profile, and s= leaves kappa_V to be measured. A malformed value, or a
    key given twice, is an error that names its key.
    """
    fields = {}
    for part in text.split(","):
        if part.strip():
            key, _, value = map(str.strip, part.partition("="))
            if key in fields:
                raise OdeqlError(f"{key}= is given more than once")
            fields[key] = value
    unknown = sorted(fields.keys() - GEN_KEYS.keys())
    if unknown:
        raise OdeqlError(f"unknown generation keys: {unknown}")
    kwargs = {"N": 4, "unit_norm": True}
    if "eig" in fields:
        kwargs["eig_profile"] = "scalar"
    if "s" in fields:
        kwargs["kappa_V"] = None
    for key, value in fields.items():
        name, parse, expected = GEN_KEYS[key]
        try:
            kwargs[name] = parse(value)
        except (ValueError, KeyError):
            raise OdeqlError(f"{key}= expects {expected}, got {value!r}") from None
    if "s" in fields and not kwargs["unit_norm"]:
        raise OdeqlError("sparse mode always rescales to ||A|| <= 1; unit=0 applies "
                         "to dense mode only")
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
    eigvals, V = np.linalg.eig(as_dense(A))
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


def _numbers(text: str) -> list[float]:
    """A comma list of numbers: sweep's --T, --epsilon and --kappa."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


def _injection(text: str) -> float | str:
    """--inject-delta of run and sweep: auto or a number, whose range RunConfig checks."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected auto or a number, got {text!r}") from None


def _block_index(text: str) -> tuple[int, int]:
    """--block's value 'i,j': a step index and a within-step index."""
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected i,j, two integers, got {text!r}") from None
    return i, j


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
    for i, j in args.block or ():
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


def _cmd_run(args, argv) -> int:
    # checked before the instance is built, which can take seconds
    cfg = pipeline.RunConfig(T=args.T, epsilon=args.epsilon, seed=args.seed,
                             delta_injection=args.inject_delta)
    inst = (fileio.load_instance(args.instance) if args.gen is None
            else generate(_parse_gen_inline(args.gen)))
    report = pipeline.run(inst, cfg)
    payload = report.to_json_dict()
    payload["instance"] = inst.label
    _write_report(args.report, payload, argv)
    return 0 if report.success_conditioned_error <= args.epsilon else 1


def _cmd_sweep(args, argv) -> int:
    result = pipeline.sweep_grid(_parse_gen_inline(args.gen), args.T, args.epsilon,
                                 args.kappa, args.seed, delta_injection=args.inject_delta)
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
    seeded.add_argument("--seed", type=int, default=0)
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
    sol.add_argument("--block", action="append", type=_block_index,
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
    run.add_argument("--inject-delta", dest="inject_delta", type=_injection, default=0.0,
                     help="'auto' or an explicit perturbation norm, placed where it moves "
                          "the success-conditioned output most (default 0: none)")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", parents=[seeded, reported],
                         help="grid of runs over T, epsilon, kappa")
    swp.add_argument("--gen", default="", help="generation spec, as for gen")
    swp.add_argument("--T", type=_numbers, required=True, help="comma list of times")
    swp.add_argument("--epsilon", type=_numbers, required=True, help="comma list of targets")
    swp.add_argument("--kappa", type=_numbers, help="comma list of condition numbers")
    swp.add_argument("--inject-delta", dest="inject_delta", type=_injection, default="auto",
                     help="as for run (default auto)")
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
