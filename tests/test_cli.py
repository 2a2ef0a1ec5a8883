"""End-to-end tests of the command line: exit codes, files, reports."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from odeql.cli import _parse_gen_inline, main
from odeql.encoder import TaylorParams, build_matrix
from odeql.fileio import load_instance, load_matrix, load_vector, save_vector
from odeql.instances import GenSpec, generate
from odeql.numerics import as_dense


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    assert main(["gen", "--gen", "N=3,kappa=2,b=random,seed=5", "--out", str(out)]) == 0
    return out


def test_gen_writes_loadable_instance(instance_dir):
    inst = load_instance(instance_dir)
    assert inst.N == 3
    assert inst.kappa_V == pytest.approx(2.0, rel=1e-6)


def test_gen_writes_the_instance_run_reads_from_the_same_spec(tmp_path):
    # one grammar: gen --gen and run --gen build the same problem
    out = tmp_path / "inst"
    assert main(["gen", "--gen", "N=4,kappa=3", "--out", str(out)]) == 0
    written, inline = load_instance(out), generate(_parse_gen_inline("N=4,kappa=3"))
    for name in ("A", "V", "V_inv"):
        a, b = getattr(written, name), getattr(inline, name)
        a, b = (M.toarray() if sp.issparse(M) else M for M in (a, b))
        assert np.array_equal(a, b), name
    for name in ("eigenvalues", "x_in", "b"):
        assert np.array_equal(getattr(written, name), getattr(inline, name)), name


def test_gen_takes_its_seed_and_defaults_from_the_spec(tmp_path):
    # gen has no --seed: its instance's seed is the spec's seed=
    assert main(["gen", "--out", str(tmp_path / "inst")]) == 0
    assert json.loads((tmp_path / "inst" / "meta.json").read_text())["seed"] == 0
    assert main(["gen", "--gen", "seed=7", "--out", str(tmp_path / "seven")]) == 0
    assert json.loads((tmp_path / "seven" / "meta.json").read_text())["seed"] == 7
    inst = load_instance(tmp_path / "inst")
    assert inst.N == 4
    assert inst.kappa_V == pytest.approx(1.0, rel=1e-12)
    assert inst.norm_A <= 1.0


def test_encode_round_trip_entrywise(instance_dir, tmp_path):
    out_matrix = tmp_path / "C.mtx"
    out_rhs = tmp_path / "rhs.txt"
    code = main(["encode", "--instance", str(instance_dir),
                 "--m", "2", "--k", "5", "--p", "2", "--h", "0.9",
                 "--out-matrix", str(out_matrix), "--out-rhs", str(out_rhs)])
    assert code == 0
    inst = load_instance(instance_dir)
    expected = build_matrix(inst.A, TaylorParams(m=2, k=5, p=2, h=0.9), inst.norm_A)
    written = load_matrix(out_matrix)
    assert (expected != written).nnz == 0
    rhs = load_vector(out_rhs)
    np.testing.assert_array_equal(rhs[:3], inst.x_in)


def test_encode_auto_selection(instance_dir, tmp_path):
    code = main(["encode", "--instance", str(instance_dir),
                 "--T", "1.5", "--epsilon", "1e-4",
                 "--out-matrix", str(tmp_path / "C.mtx"),
                 "--out-rhs", str(tmp_path / "rhs.txt")])
    assert code == 0
    C = load_matrix(tmp_path / "C.mtx")
    assert C.shape[0] % 3 == 0


def test_encode_from_raw_files(tmp_path):
    inst = generate(GenSpec(N=2, kappa_V=1.0, b_mode="random", seed=3,
                            unit_norm=True))
    from odeql.fileio import save_matrix
    save_matrix(tmp_path / "A.mtx", inst.A)
    save_vector(tmp_path / "x.txt", inst.x_in)
    save_vector(tmp_path / "b.txt", inst.b)
    code = main(["encode", "--matrix", str(tmp_path / "A.mtx"),
                 "--x-in", str(tmp_path / "x.txt"), "--b", str(tmp_path / "b.txt"),
                 "--m", "1", "--k", "5", "--p", "1", "--h", "0.5",
                 "--out-matrix", str(tmp_path / "C.mtx"),
                 "--out-rhs", str(tmp_path / "r.txt")])
    assert code == 0


def test_solve_reports_residual(instance_dir, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["solve", "--instance", str(instance_dir),
                 "--m", "2", "--k", "6", "--p", "2", "--h", "0.8",
                 "--history", "--block", "2,0",
                 "--out-dir", str(tmp_path / "sol"),
                 "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["residual"] <= 1e-12
    assert report["schema"] == 1
    assert report["command"].startswith("odeql solve")
    assert (tmp_path / "sol" / "step_0000.txt").exists()
    assert (tmp_path / "sol" / "block_2_0.txt").exists()
    # the step-0 file is exactly x_in
    inst = load_instance(instance_dir)
    np.testing.assert_array_equal(load_vector(tmp_path / "sol" / "step_0000.txt"),
                                  inst.x_in)


def test_solve_zero_rhs_exits_2(tmp_path, capsys):
    # x_in = b = 0 leaves the relative residual 0/0: one-line error, no report
    inst = generate(GenSpec(N=2, kappa_V=1.0, seed=3, unit_norm=True))
    from odeql.fileio import save_matrix
    save_matrix(tmp_path / "A.mtx", inst.A)
    save_vector(tmp_path / "x.txt", np.zeros(2, dtype=complex))
    save_vector(tmp_path / "b.txt", np.zeros(2, dtype=complex))
    report_path = tmp_path / "report.json"
    code = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                 "--x-in", str(tmp_path / "x.txt"), "--b", str(tmp_path / "b.txt"),
                 "--m", "2", "--k", "5", "--p", "2", "--h", "0.5",
                 "--out-dir", str(tmp_path / "sol"), "--report", str(report_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not report_path.exists()


def test_solve_defective_matrix_exits_2(tmp_path, capsys):
    # A Jordan block: eig returns kappa_V ~ 9e15, which would make every
    # kappa_V-based bound vacuous; parameter selection must refuse it.
    from odeql.fileio import save_matrix
    save_matrix(tmp_path / "A.mtx", sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, -1.0]])))
    save_vector(tmp_path / "x.txt", np.array([1.0, 0.5 + 0j]))
    save_vector(tmp_path / "b.txt", np.array([0.0, 1.0 + 0j]))
    code = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                 "--x-in", str(tmp_path / "x.txt"), "--b", str(tmp_path / "b.txt"),
                 "--T", "2", "--epsilon", "1e-3", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A is numerically defective") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_solve_from_files_takes_no_condition_number(monkeypatch, tmp_path):
    # the defective-A check reads the kappa_V that make_instance measured
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")

    inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=4,
                            unit_norm=True))
    from odeql.fileio import save_matrix
    save_matrix(tmp_path / "A.mtx", inst.A)
    save_vector(tmp_path / "x.txt", inst.x_in)
    save_vector(tmp_path / "b.txt", inst.b)
    monkeypatch.setattr(np.linalg, "cond", no_cond)
    code = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                 "--x-in", str(tmp_path / "x.txt"), "--b", str(tmp_path / "b.txt"),
                 "--T", "2", "--epsilon", "1e-3", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "solution.txt").exists()


def test_solve_from_files_with_measured_kappa_below_1(tmp_path):
    # a normal A: eig's V is unitary up to rounding, and |V||V^-1| measures
    # 0.9999999999999997 here, which make_instance records as 1
    rng = np.random.default_rng(11)
    N = int(rng.integers(2, 9))
    Q, _ = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    from odeql.fileio import save_matrix
    save_matrix(tmp_path / "A.mtx", (Q * -rng.uniform(0, 1, N)) @ Q.conj().T)
    save_vector(tmp_path / "x.txt", np.ones(N, dtype=complex))
    save_vector(tmp_path / "b.txt", np.zeros(N, dtype=complex))
    code = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                 "--x-in", str(tmp_path / "x.txt"), "--b", str(tmp_path / "b.txt"),
                 "--T", "1", "--epsilon", "1e-3", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "solution.txt").exists()


def test_zero_V_instance_exits_2(tmp_path, capsys):
    # an all-zero V.mtx at N >= 256 (the Lanczos branch of the norm) is a
    # one-line error, not an ARPACK traceback
    from odeql.fileio import save_instance, save_matrix
    from odeql.numerics import DENSE_CUTOFF, make_instance
    N = DENSE_CUTOFF
    inst = make_instance(np.eye(N), -np.ones(N), np.zeros(N), np.ones(N) / 16.0)
    save_instance(tmp_path / "inst", inst)
    save_matrix(tmp_path / "inst" / "V.mtx", np.zeros((N, N)))
    code = main(["run", "--instance", str(tmp_path / "inst"), "--T", "1",
                 "--epsilon", "1e-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_run_instance_with_coordinate_similarity(tmp_path):
    # a V.mtx and V_inv.mtx written in coordinate format load and run
    from odeql.fileio import save_instance, save_matrix
    inst = generate(GenSpec(N=4, kappa_V=2.0, b_mode="random", seed=3,
                            unit_norm=True))
    save_instance(tmp_path / "inst", inst)
    save_matrix(tmp_path / "inst" / "V.mtx", sp.csr_matrix(inst.V))
    save_matrix(tmp_path / "inst" / "V_inv.mtx", sp.csr_matrix(inst.V_inv))
    code = main(["run", "--instance", str(tmp_path / "inst"), "--T", "2",
                 "--epsilon", "1e-3"])
    assert code == 0


def test_solve_missing_matrix_exits_2(tmp_path, capsys):
    save_vector(tmp_path / "x.txt", np.ones(2, dtype=complex))
    save_vector(tmp_path / "b.txt", np.zeros(2, dtype=complex))
    code = main(["solve", "--matrix", str(tmp_path / "missing.mtx"),
                 "--x-in", str(tmp_path / "x.txt"), "--b", str(tmp_path / "b.txt"),
                 "--m", "1", "--k", "5", "--p", "1", "--h", "0.5",
                 "--out-dir", str(tmp_path / "sol")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_run_missing_instance_exits_2(tmp_path, capsys):
    code = main(["run", "--instance", str(tmp_path / "missing"), "--T", "1.0",
                 "--epsilon", "1e-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_run_tampered_matrix_exits_2(tmp_path, capsys):
    # A + 0.5 I has max Re(lambda) = +0.42 while eigenvalues.txt still holds
    # the stable spectrum; loading must catch the mismatch, not report on it.
    from odeql.fileio import save_instance, save_matrix
    inst = generate(GenSpec(N=4, kappa_V=2.0, b_mode="random", seed=3,
                            unit_norm=True))
    save_instance(tmp_path / "inst", inst)
    save_matrix(tmp_path / "inst" / "A.mtx",
                inst.A + 0.5 * sp.eye(4, format="csr"))
    code = main(["run", "--instance", str(tmp_path / "inst"), "--T", "2",
                 "--epsilon", "1e-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: |A V - V diag(eigenvalues)|_max")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("kappa", ["inf", "nan"])
@pytest.mark.parametrize("command", ["gen", "run"])
def test_non_finite_kappa_exits_2(command, kappa, tmp_path, capsys):
    # an infinite or NaN condition number is a bad parameter, not a crash
    target = (["--out", str(tmp_path / "inst")] if command == "gen"
              else ["--T", "1", "--epsilon", "1e-3"])
    assert main([command, "--gen", f"N=2,kappa={kappa}"] + target) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("command", ["gen", "run", "sweep"])
def test_kappa_in_sparse_mode_exits_2(command, tmp_path, capsys):
    # sparse mode measures kappa_V: a requested one is refused, not dropped
    out = tmp_path / "inst"
    target = ["--out", str(out)] if command == "gen" else ["--T", "1", "--epsilon", "1e-3"]
    assert main([command, "--gen", "N=8,kappa=3,s=2"] + target) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sparse mode measures kappa_V instead of prescribing it")
    assert err.count("\n") == 1
    assert not out.exists()


SPECTRUM_ERROR = "error: sparse mode draws its own spectrum; dense-mode fields given: "


@pytest.mark.parametrize("spec, message", [
    ("N=8,s=2,eig=-0.5", SPECTRUM_ERROR + "eig_profile, eig_value\n"),
    ("N=8,s=2,profile=boundary", SPECTRUM_ERROR + "eig_profile\n"),
    ("N=8,s=2,unit=0",
     "error: sparse mode always rescales to ||A|| <= 1; unit=0 applies to dense mode only\n")],
    ids=["eig", "profile", "unit"])
def test_dense_only_keys_in_sparse_mode_exit_2(spec, message, tmp_path, capsys):
    # a key that sparse mode would ignore is refused, not silently dropped
    out = tmp_path / "inst"
    assert main(["gen", "--gen", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_kappa_above_ceiling_exits_2(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen", "--gen", "N=2,kappa=1e12,seed=122", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kappa_V must lie in [1, KAPPA_V_MAX = 1e+10]")
    assert err.count("\n") == 1
    assert not out.exists()


# file (relative to tmp_path, where instance_dir is "inst") -> malformed text
MALFORMED_MANIFESTS = {
    "meta-list": ("inst/meta.json", "[]"),
    "meta-no-kappa": ("inst/meta.json", '{"schema": 1, "N": 3}'),
    "meta-nan-kappa": ("inst/meta.json", '{"schema": 1, "N": 3, "kappa_V": NaN}'),
    "empty-vector": ("inst/x_in.txt", ""),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_exits_2(case, instance_dir, tmp_path, capsys):
    # a hostile manifest is a one-line usage error: no traceback, no warning
    # and no run on a silently truncated value
    name, text = MALFORMED_MANIFESTS[case]
    (tmp_path / name).write_text(text)
    code = main(["encode", "--instance", str(instance_dir),
                 "--m", "1", "--k", "5", "--p", "1", "--h", "0.1",
                 "--out-matrix", str(tmp_path / "C.mtx"),
                 "--out-rhs", str(tmp_path / "rhs.txt")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "C.mtx").exists()


def test_step_bound_violation_exits_2(instance_dir, tmp_path):
    code = main(["encode", "--instance", str(instance_dir),
                 "--m", "1", "--k", "5", "--p", "1", "--h", "50.0",
                 "--out-matrix", str(tmp_path / "C.mtx"),
                 "--out-rhs", str(tmp_path / "rhs.txt")])
    assert code == 2


def test_verify_taylor_suite(tmp_path):
    report_path = tmp_path / "taylor.json"
    code = main(["verify", "--suite", "taylor", "--trials", "50",
                 "--seed", "7", "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"]
    assert report["command"] == "odeql verify --suite taylor --trials 50 " \
                                "--seed 7 --report " + str(report_path)


def test_verify_zero_trials_exits_2(tmp_path, capsys):
    # 0 is a count, not "use the default": the taylor suite has nothing to check
    code = main(["verify", "--suite", "taylor", "--trials", "0",
                 "--report", str(tmp_path / "t.json")])
    assert code == 2
    assert not (tmp_path / "t.json").exists()


def test_verify_negative_trials_exits_2(tmp_path, capsys):
    # lemma1 takes 0 trials (its fixed grid only), but a negative count is
    # a usage error, not numpy's "negative dimensions"
    code = main(["verify", "--suite", "lemma1", "--trials", "-1",
                 "--report", str(tmp_path / "l1.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: need a non-negative trial count, got -1\n"
    assert not (tmp_path / "l1.json").exists()


def test_verify_family_suite_trials_exits_2(tmp_path, capsys):
    # lemma3 sweeps the fixed family: a trial count would be silently dropped
    code = main(["verify", "--suite", "lemma3", "--trials", "1",
                 "--report", str(tmp_path / "l3.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "l3.json").exists()


def test_verify_appendix_b(tmp_path):
    code = main(["verify", "--suite", "appendixB", "--trials", "200",
                 "--seed", "1", "--report", str(tmp_path / "b.json")])
    assert code == 0


def test_run_with_inline_gen(tmp_path):
    report_path = tmp_path / "run.json"
    code = main(["run", "--gen", "N=3,kappa=2,b=random,seed=4", "--T", "1.2",
                 "--epsilon", "1e-4", "--seed", "9", "--inject-delta", "auto",
                 "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["success_prob"] > 0
    assert report["params"]["k"] >= 5
    assert report["success_conditioned_error"] <= 1e-4


@pytest.mark.parametrize("flags", [["--epsilon", "0.1", "--seed", "-1"], ["--epsilon", "0.9"]],
                         ids=["seed", "epsilon"])
def test_run_checks_its_config_before_building_the_instance(flags, monkeypatch, capsys):
    # a sparse N = 1024 instance takes seconds to build; a bad flag costs none of them
    monkeypatch.setattr("odeql.cli.generate", lambda spec: pytest.fail("generate ran"))
    assert main(["run", "--gen", "N=1024,s=4", "--T", "1", *flags]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_run_deterministic(tmp_path):
    args = ["run", "--gen", "N=2,kappa=1,seed=2", "--T", "1.0",
            "--epsilon", "1e-3", "--seed", "21"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("command"), rb.pop("command")
    assert ra == rb


def test_sweep_writes_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--gen", "N=2,kappa=1,seed=3,b=random",
                 "--T", "1.0", "--epsilon", "1e-2,1e-4",
                 "--kappa", "1,3", "--seed", "5",
                 "--csv", str(csv_path), "--report", str(tmp_path / "s.json")])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("kappa_V,T,epsilon,k,d,success_prob")
    assert len(lines) == 1 + 2 * 2  # header + kappa x epsilon grid


def test_sweep_numeric_inject_delta_exits_0(tmp_path):
    # sweep reads --inject-delta as run does: a number is a perturbation norm
    report_path = tmp_path / "s.json"
    code = main(["sweep", "--gen", "N=2,kappa=1,seed=3,b=random", "--T", "1",
                 "--epsilon", "0.1", "--inject-delta", "0.01",
                 "--report", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["all_passed"]


@pytest.mark.parametrize("value", ["nan", "-1", "3", "bogus"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_inject_delta_exits_2(command, value, capsys):
    try:
        code = main([command, "--gen", "N=2,kappa=1,seed=3", "--T", "1",
                     "--epsilon", "0.1", "--inject-delta", value])
    except SystemExit as exc:  # not a number: argparse itself reports it
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "taylor", "--frobnicate"])
    assert exc.value.code == 2


def test_failing_suite_exits_1(monkeypatch, tmp_path):
    from odeql import cli as cli_module

    monkeypatch.setattr(cli_module.suites, "run_suite",
                        lambda *a, **k: {"passed": False, "suite": "stub"})
    code = main(["verify", "--suite", "taylor",
                 "--report", str(tmp_path / "r.json")])
    assert code == 1


def test_gen_sparse_mode(tmp_path):
    out = tmp_path / "sparse"
    code = main(["gen", "--gen", "N=8,s=2,seed=3", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    dense = as_dense(inst.A)
    assert (dense != 0).sum(axis=1).max() <= 2


@pytest.mark.parametrize("value", ["maybe", "", "True", "2", "true", "yes", "false", "no"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_unit_flag_exits_2(command, value, capsys):
    # only 1 and 0 name a unit-norm choice; nothing falls back
    code = main([command, "--gen", f"N=2,kappa=1,seed=3,unit={value}", "--T", "1",
                 "--epsilon", "0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unit= expects 0 or 1, got {value!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("value, unit_norm", [("1", True), ("0", False)])
def test_unit_flag_values(value, unit_norm):
    assert _parse_gen_inline(f"N=2,unit={value}").unit_norm is unit_norm


def test_gen_empty_eig_value_exits_2(tmp_path, capsys):
    # an empty eig= is malformed, not the uniform profile
    out = tmp_path / "inst"
    assert main(["gen", "--gen", "N=2,eig=", "--out", str(out)]) == 2
    assert main(["run", "--gen", "N=2,eig=", "--T", "1", "--epsilon", "0.1"]) == 2
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2 and all(e.startswith("error:") for e in errs)
    assert not out.exists()


UNRECOGNIZED = "error: odeql: unrecognized arguments: "
RETIRED_SPELLINGS = {
    "run-files": (["run", "--matrix", "A.mtx", "--T", "1", "--epsilon", "0.1"],
                  "error: odeql run: one of the arguments --instance --gen is required"),
    "run-files-with-gen": (["run", "--gen", "N=2", "--matrix", "A.mtx", "--x-in", "x.txt",
                            "--T", "1", "--epsilon", "0.1"], UNRECOGNIZED + "--matrix"),
    "run-two-sources": (["run", "--instance", "inst", "--gen", "N=2", "--T", "1",
                         "--epsilon", "0.1"],
                        "error: odeql run: argument --gen: not allowed with argument"),
    "encode-params": (["encode", "--instance", "inst", "--params", "p.json",
                       "--out-matrix", "C.mtx", "--out-rhs", "r.txt"], UNRECOGNIZED + "--params"),
    "solve-params": (["solve", "--instance", "inst", "--params", "p.json", "--out-dir", "sol"],
                     UNRECOGNIZED + "--params"),
    "gen-flags": (["gen", "--out", "inst", "--N", "4", "--kappa", "3", "--unit-norm"],
                  UNRECOGNIZED + "--N 4 --kappa 3 --unit-norm"),
    "run-inject-off": (["run", "--gen", "N=2", "--T", "1", "--epsilon", "0.1",
                        "--inject-delta", "off"],
                       "error: odeql run: argument --inject-delta: expected auto or a "
                       "number, got 'off'"),
    "sweep-inject-off": (["sweep", "--T", "1", "--epsilon", "0.1", "--inject-delta", "off"],
                         "error: odeql sweep: argument --inject-delta: expected auto or a "
                         "number, got 'off'"),
    "gen-unit-word": (["gen", "--gen", "unit=yes", "--out", "inst"],
                      "error: unit= expects 0 or 1, got 'yes'"),
}


EIG_ERROR = "error: eig_value is given exactly when eig_profile is 'scalar', got "
LIST_ERROR = "error: odeql sweep: argument {}: expected a comma list of numbers, got "
RUN = ["--T", "1", "--epsilon", "0.1"]
SEED_ERROR = "error: seed must be a non-negative integer, got -1\n"
# a value that is not what its key or flag takes, or a --gen key given twice
# -> the one error line, naming it
GEN_OUT = ["--out", "inst"]
MALFORMED_VALUES = {
    "gen-N": (["gen", "--gen", "N=abc"] + GEN_OUT, "error: N= expects an integer, got 'abc'\n"),
    "gen-seed": (["gen", "--gen", "seed=1.5"] + GEN_OUT,
                 "error: seed= expects an integer, got '1.5'\n"),
    "gen-kappa": (["gen", "--gen", "kappa=zz"] + GEN_OUT,
                  "error: kappa= expects a number, got 'zz'\n"),
    "gen-s": (["gen", "--gen", "N=8,s=two"] + GEN_OUT, "error: s= expects an integer, got 'two'\n"),
    "gen-eig": (["gen", "--gen", "eig=one"] + GEN_OUT,
                "error: eig= expects a complex number, got 'one'\n"),
    "gen-eig-with-boundary": (["gen", "--gen", "N=2,eig=-0.5,profile=boundary"] + GEN_OUT,
                              EIG_ERROR + "'boundary' and (-0.5+0j)\n"),
    "gen-scalar-without-eig": (["gen", "--gen", "profile=scalar"] + GEN_OUT,
                               EIG_ERROR + "'scalar' and None\n"),
    "run-eig-with-boundary": (["run", "--gen", "N=2,eig=-0.5,profile=boundary", "--T", "1",
                               "--epsilon", "0.1"], EIG_ERROR + "'boundary' and (-0.5+0j)\n"),
    "sweep-T": (["sweep", "--T", "1,,2", "--epsilon", "0.1"],
                LIST_ERROR.format("--T") + "'1,,2'\n"),
    "sweep-epsilon": (["sweep", "--T", "1", "--epsilon", "abc"],
                      LIST_ERROR.format("--epsilon") + "'abc'\n"),
    "sweep-kappa": (["sweep", "--T", "1", "--epsilon", "0.1", "--kappa", "3,"],
                    LIST_ERROR.format("--kappa") + "'3,'\n"),
    "gen-repeated-key": (["gen", "--gen", "N=2,N=4"] + GEN_OUT,
                         "error: N= is given more than once\n"),
    "run-repeated-key": (["run", "--gen", "N=3,b=random,b=zero"] + RUN,
                         "error: b= is given more than once\n"),
    "run-gen-seed-negative": (["run", "--gen", "seed=-1"] + RUN, SEED_ERROR),
    "run-seed-negative": (["run", "--gen", "N=2", "--seed", "-1"] + RUN, SEED_ERROR),
    "sweep-seed-negative": (["sweep", "--seed", "-1"] + RUN, SEED_ERROR),
    "verify-seed-negative": (["verify", "--suite", "lemma1", "--seed", "-1"], SEED_ERROR),
}


@pytest.mark.parametrize("argv, message",
                         [*RETIRED_SPELLINGS.values(), *MALFORMED_VALUES.values()],
                         ids=[*RETIRED_SPELLINGS, *MALFORMED_VALUES])
def test_one_spelling_per_input(argv, message, tmp_path, monkeypatch, capsys):
    # run takes exactly one of --instance or --gen; the retired spellings
    # (run's file flags, --params, gen's per-field flags, --inject-delta off,
    # unit= words) are usage errors, and a malformed value or a repeated
    # --gen key names its key or flag
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error that argparse itself reports
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not any(tmp_path.iterdir())


SOURCE_ERROR = "error: give exactly one of --instance or --matrix/--x-in/--b, in full\n"
LAYOUT_ERROR = "error: give exactly one of --m/--k/--p/--h or --T/--epsilon, in full\n"
LAYOUT = ["--m", "1", "--k", "5", "--p", "1", "--h", "0.5"]
# encode/solve flags (paths relative to tmp_path) -> the one error line
ONE_SOURCE_ONE_LAYOUT = {
    "instance-and-matrix": (["--instance", "inst", "--matrix", "A.mtx"] + LAYOUT, SOURCE_ERROR),
    "instance-and-x-in": (["--instance", "inst", "--x-in", "x.txt"] + LAYOUT, SOURCE_ERROR),
    "instance-and-b": (["--instance", "inst", "--b", "b.txt"] + LAYOUT, SOURCE_ERROR),
    "no-source": (LAYOUT, SOURCE_ERROR),
    "matrix-without-x-in": (["--matrix", "A.mtx", "--b", "b.txt"] + LAYOUT, SOURCE_ERROR),
    "both-layouts": (["--instance", "inst", "--T", "3", "--epsilon", "1e-3"] + LAYOUT,
                     LAYOUT_ERROR),
}
FILES = ["--x-in", "x.txt", "--b", "b.txt"]
TARGET = ["--T", "1", "--epsilon", "1e-3"]
T_ERROR = "error: T must be positive and finite, got "
BLOCK = ["--instance", "inst", "--m", "2", "--k", "5", "--p", "2", "--h", "0.5", "--block"]
BLOCK_ERROR = "error: odeql solve: argument --block: expected i,j, two integers, got "
# inputs given one way but unusable -> the one error line; --block is solve's only
INPUT_GUARDS = {
    "block-outside-layout": (BLOCK + ["9,0"], "error: step index 9 outside 0..2\n"),
    "block-one-index": (BLOCK + ["9"], BLOCK_ERROR + "'9'\n"),
    "block-not-integers": (BLOCK + ["a,b"], BLOCK_ERROR + "'a,b'\n"),
    "block-three-indices": (BLOCK + ["1,0,0"], BLOCK_ERROR + "'1,0,0'\n"),
    "non-square-matrix": (["--matrix", "wide.mtx"] + FILES + LAYOUT,
                          "error: A must be square, got shape (3, 2)\n"),
    "nan-diagonal": (["--matrix", "nan.mtx"] + FILES + LAYOUT,
                     "error: A contains non-finite entries\n"),
    "zero-T": (["--instance", "inst", "--T=0", "--epsilon", "1e-3"], T_ERROR + "0.0\n"),
    "negative-T": (["--instance", "inst", "--T=-1", "--epsilon", "1e-3"], T_ERROR + "-1.0\n"),
    "nan-T": (["--instance", "inst", "--T=nan", "--epsilon", "1e-3"], T_ERROR + "nan\n"),
    "zero-matrix": (["--matrix", "zero.mtx"] + FILES + TARGET,
                    "error: ||A|| must be positive and finite, got 0.0\n"),
    "one-column-x-in": (["--matrix", "A.mtx", "--x-in", "x1.txt", "--b", "b.txt"] + LAYOUT,
                        "error: x1.txt: expected two columns (re, im), got 1\n"),
    "short-x-in": (["--matrix", "A.mtx", "--x-in", "x2.txt", "--b", "b.txt"] + TARGET,
                   "error: V, eigenvalues, b and x_in must share one dimension\n"),
}
USAGE_ERRORS = [pytest.param(command, flags, message, id=f"{case}-{command}")
                for case, (flags, message) in {**ONE_SOURCE_ONE_LAYOUT, **INPUT_GUARDS}.items()
                for command in ("encode", "solve")
                if command == "solve" or "--block" not in flags]


@pytest.mark.parametrize("command, flags, message", USAGE_ERRORS)
def test_one_source_and_one_layout(command, flags, message, instance_dir, tmp_path,
                                   monkeypatch, capsys):
    # each input of encode and solve is given one way, in full: a second
    # spelling is refused, never silently dropped; an input given one way
    # but unusable is refused too; either way nothing is written
    from odeql.fileio import save_matrix
    inst = load_instance(instance_dir)
    save_matrix(tmp_path / "A.mtx", inst.A)
    save_vector(tmp_path / "x.txt", inst.x_in)
    save_vector(tmp_path / "b.txt", inst.b)
    save_matrix(tmp_path / "wide.mtx", np.ones((3, 2)))
    save_matrix(tmp_path / "nan.mtx", np.diag([-0.5, np.nan, -0.5]))
    save_matrix(tmp_path / "zero.mtx", np.zeros((3, 3)))
    (tmp_path / "x1.txt").write_text("1\n0\n0\n")
    save_vector(tmp_path / "x2.txt", inst.x_in[:2])
    monkeypatch.chdir(tmp_path)
    outputs = (["--out-matrix", "C.mtx", "--out-rhs", "rhs.txt"] if command == "encode"
               else ["--out-dir", "sol"])
    try:
        code = main([command] + flags + outputs)
    except SystemExit as exc:  # a usage error that argparse itself reports
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""
    assert not any((tmp_path / name).exists() for name in ("C.mtx", "rhs.txt", "sol"))


def _readme_commands():
    """The odeql command lines of README.md's fenced CLI block, continuations joined."""
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in text.split("```")[1::2] if "\nodeql gen " in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("odeql ")]


def test_readme_examples_run(tmp_path, monkeypatch, small_family):
    # every example in the README exits 0, in order, from one directory;
    # verify runs its family suites on a six-member family, as in the fuzz tests
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [c[0] for c in commands] == ["gen", "encode", "encode", "solve", "verify",
                                        "verify", "run", "sweep"]
    for argv in commands:
        assert main(argv) == 0, argv
