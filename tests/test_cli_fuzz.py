"""Hostile input to the command line: every example exits 0, 1 or 2, and an
exit 2 prints exactly one stderr line and no traceback.

Hypothesis draws flag values, ``--gen`` specs and input files from fixed
pools of valid and hostile entries, for every
subcommand. Accepted sizes stay tiny (N <= 8, m, k, p <= 8, at most 4 steps
at unit norm), and the huge requests (N, T, m or k of 1e15) ask for more
memory than any 64-bit address space holds, so they fail at once. verify
runs its family suites on a six-member family and lemma1 on a 2 x 2 (m, p)
box, and always hands the trial suites a count: their defaults run
thousands of trials.
"""

import contextlib
import functools
import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from odeql import suites
from odeql.cli import main
from odeql.fileio import save_instance, save_matrix, save_vector
from odeql.instances import GenSpec, generate

HOSTILE = ["0", "-1", "nan", "inf", "-inf", "seven", ""]


def _mostly(valid, hostile=HOSTILE):
    """One of valid, three times in four; else one of hostile."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(valid if i else hostile))


SIZES = _mostly([str(n) for n in range(1, 9)], HOSTILE + ["1.5", "1000000000000000"])
STEPS = _mostly(["0.05", "0.5", "1"], HOSTILE + ["50"])
TIMES = _mostly(["0.5", "1", "2.5"], HOSTILE + ["1e15", "1e300"])
EPSILONS = _mostly(["0.5", "1e-3", "1e-8"], HOSTILE + ["0.9"])
KAPPAS = _mostly(["1", "3", "10"], HOSTILE + ["1e12"])
SEEDS = _mostly(["0", "1", "5"], HOSTILE + ["1.5"])
INJECTIONS = _mostly(["off", "auto", "0.01"])
GEN_SPECS = _mostly(
    ["", "N=3,kappa=2,b=random,seed=1", "N=4,s=2,seed=3", "N=2,profile=boundary,unit=0",
     "N=2,eig=-0.5+0.5j", "N=8,kappa=10,profile=pure-imaginary"],
    ["foo=1", "N=0", "N=1.5", "kappa=nan", "kappa=1e12", "eig=1", "s=0", "s=9", "seed=-1",
     "seed=1.5", "b=maybe", "N=3,kappa=3,s=2", "N=1,kappa=3", "N", "=,=", "profile=bogus",
     "profile=scalar", "N=1000000000000000", "N=8,s=2,eig=-0.5", "N=8,s=2,profile=boundary",
     "N=8,s=2,unit=0"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid instance and raw problem, hostile variants of each file, and
    name -> path."""
    root = tmp_path_factory.mktemp("fuzz")
    inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=5, unit_norm=True))
    save_instance(root / "inst", inst)
    A = inst.A.toarray()
    paths = {"inst": root / "inst"}

    def matrix(name, M):
        paths[name] = root / f"{name}.mtx"
        save_matrix(paths[name], M)

    def vector(name, v):
        paths[name] = root / f"{name}.txt"
        save_vector(paths[name], v)

    def text(name, content):
        paths[name] = root / name
        paths[name].write_text(content)

    matrix("A", A)
    matrix("A-sparse", sp.csr_matrix(A))
    matrix("A-nan", np.where(np.eye(3) > 0, np.nan, A))
    matrix("A-inf-sparse", sp.csr_matrix(np.where(np.eye(3) > 0, np.inf, A)))
    matrix("A-wide", A[:, :2])
    matrix("A-big", np.eye(4) * -0.5)
    text("A-garbage.mtx", "%%MatrixMarket matrix array complex general\n3 3\nnot a number\n")
    text("A-empty.mtx", "")
    vector("x", inst.x_in)
    vector("b", inst.b)
    vector("x-short", inst.x_in[:2])
    text("x-nan.txt", "nan 0\n1 0\n0 1\n")
    text("x-three-columns.txt", "1 0 0\n0 1 0\n0 0 1\n")
    text("x-ragged.txt", "1 0\n0\n0 1\n")
    text("x-empty.txt", "")
    text("x-words.txt", "one two\n")
    paths["out"] = root / "out"
    paths["out"].mkdir()
    return paths


MATRICES = _mostly(["A", "A-sparse"], ["A-nan", "A-inf-sparse", "A-wide", "A-big",
                                       "A-garbage.mtx", "A-empty.mtx", "missing.mtx"])
BAD_VECTORS = ["x-short", "x-nan.txt", "x-three-columns.txt", "x-ragged.txt", "x-empty.txt",
               "x-words.txt", "missing.txt"]


def _path(files, name):
    return str(files.get(name, files["out"] / name))


@st.composite
def problem_flags(draw, files):
    """Problem-source flags, and whether they name exactly one source: now and
    then both sources (the instance with some file flags) or none."""
    instance = ["--instance", str(files["inst"])]
    raw = [["--matrix", _path(files, draw(MATRICES))],
           ["--x-in", _path(files, draw(_mostly(["x"], BAD_VECTORS)))],
           ["--b", _path(files, draw(_mostly(["b"], BAD_VECTORS)))]]
    source = draw(_mostly(["instance", "files"], ["both", "none"]))
    if source == "both":
        raw = [raw[i] for i in sorted(draw(st.sets(st.sampled_from(range(3)), min_size=1)))]
    flags = {"instance": instance, "files": sum(raw, []), "both": instance + sum(raw, []),
             "none": []}[source]
    return flags, source in ("instance", "files")


@st.composite
def params_flags(draw, files):
    """Layout flags, and whether they use one spelling: now and then both."""
    explicit = [("--m", SIZES), ("--k", SIZES), ("--p", SIZES), ("--h", STEPS)]
    target = [("--T", TIMES), ("--epsilon", EPSILONS)]
    spelling = draw(_mostly(["explicit", "target"], ["both"]))
    flags = {"explicit": explicit, "target": target, "both": explicit + target}[spelling]
    # --flag=value, so that a value such as -1 is not read as a flag; now
    # and then a flag is missing
    kept = [(flag, values) for flag, values in flags if draw(st.integers(0, 7))]
    given = {flag for flag, _ in kept}
    mixed = given & {flag for flag, _ in explicit} and given & {flag for flag, _ in target}
    return [f"{flag}={draw(values)}" for flag, values in kept], not mixed


def _outcome(argv):
    """main's exit code and stderr; a raised exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_clean(argv, usage_error=False):
    """Exit 0, 1 or 2 with no traceback, and 2 with one line; only 2 on a usage error."""
    code, err = _outcome(argv)
    assert code in ((2,) if usage_error else (0, 1, 2)), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_encode_and_solve_survive_hostile_input(files, data):
    command = data.draw(st.sampled_from(["encode", "solve"]))
    out = files["out"]
    outputs = (["--out-matrix", str(out / "C.mtx"), "--out-rhs", str(out / "rhs.txt")]
               if command == "encode" else ["--out-dir", str(out / "solve")])
    source, one_source = data.draw(problem_flags(files))
    layout, one_layout = data.draw(params_flags(files))
    _assert_clean([command] + source + layout + outputs,
                  usage_error=not (one_source and one_layout))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_survives_hostile_input(files, data):
    source = data.draw(st.sampled_from([["--instance", str(files["inst"])],
                                        ["--gen", data.draw(GEN_SPECS)],
                                        ["--instance", _path(files, "missing")],
                                        ["--instance="]]))
    argv = ["run"] + source
    for flag, values in (("--T", TIMES), ("--epsilon", EPSILONS),
                         ("--inject-delta", INJECTIONS)):
        argv.append(f"{flag}={data.draw(values)}")
    _assert_clean(argv)


def _comma_list(values):
    return st.lists(values, min_size=1, max_size=2).map(",".join)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gen_survives_hostile_input(files, data):
    _assert_clean(["gen", f"--gen={data.draw(GEN_SPECS)}", "--out", str(files["out"] / "gen")])


TRIAL_SUITES = (*suites.TRIAL_SUITES, "all")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_survives_hostile_input(files, data):
    suite = data.draw(_mostly(list(suites.SUITE_NAMES), ["lemma99", "ALL"]))
    argv = ["verify", f"--suite={suite}", "--report", str(files["out"] / "verify.json")]
    if data.draw(st.booleans()):
        argv.append(f"--seed={data.draw(SEEDS)}")
    # a family suite given a trial count exits 2
    if suite in TRIAL_SUITES or data.draw(st.booleans()):
        argv.append(f"--trials={data.draw(_mostly(['1', '2', '3'], HOSTILE + ['1.5']))}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "standard_family", functools.partial(
            suites.standard_family, N_values=(1, 2), kappa_values=(1.0, 3.0), m_values=(1, 2)))
        patch.setattr(suites, "LEMMA1_MP", (1, 2))
        _assert_clean(argv)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_survives_hostile_input(files, data):
    argv = ["sweep", f"--gen={data.draw(GEN_SPECS)}",
            f"--T={data.draw(_comma_list(TIMES))}",
            f"--epsilon={data.draw(_comma_list(EPSILONS))}",
            f"--inject-delta={data.draw(INJECTIONS)}",
            "--csv", str(files["out"] / "sweep.csv"),
            "--report", str(files["out"] / "sweep.json")]
    for flag, values in (("--kappa", _comma_list(KAPPAS)), ("--seed", SEEDS)):
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(values)}")
    _assert_clean(argv)


def test_a_run_beyond_any_address_space_exits_2():
    # m = ceil(T |A|) ~ 8e14 steps: the trajectory asks numpy for 45 PiB
    code, err = _outcome(["run", "--gen", "N=4", "--T", "1e15", "--epsilon", "0.1"])
    assert code == 2
    assert err.startswith("error: out of memory") and err.count("\n") == 1
