"""End-to-end tests of the command line: exit codes, files, reports."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from odeql.cli import main
from odeql.encoder import TaylorParams, build_matrix
from odeql.fileio import load_instance, load_matrix, load_vector, save_vector
from odeql.instances import GenSpec, generate


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    code = main(["gen", "--out", str(out), "--N", "3", "--kappa", "2",
                 "--b-mode", "random", "--seed", "5", "--unit-norm"])
    assert code == 0
    return out


def test_gen_writes_loadable_instance(instance_dir):
    inst = load_instance(instance_dir)
    assert inst.N == 3
    assert inst.kappa_V == pytest.approx(2.0, rel=1e-6)


def test_encode_round_trip_entrywise(instance_dir, tmp_path):
    out_matrix = tmp_path / "C.mtx"
    out_rhs = tmp_path / "rhs.txt"
    code = main(["encode", "--instance", str(instance_dir),
                 "--m", "2", "--k", "5", "--p", "2", "--h", "0.9",
                 "--out-matrix", str(out_matrix), "--out-rhs", str(out_rhs)])
    assert code == 0
    inst = load_instance(instance_dir)
    expected = build_matrix(inst.A, TaylorParams(m=2, k=5, p=2, h=0.9))
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
    if command == "gen":
        args = ["gen", "--out", str(tmp_path / "inst"), "--N", "2", "--kappa", kappa]
    else:
        args = ["run", "--gen", f"N=2,kappa={kappa}", "--T", "1", "--epsilon", "1e-3"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("command", ["gen", "run", "sweep"])
def test_kappa_in_sparse_mode_exits_2(command, tmp_path, capsys):
    # sparse mode measures kappa_V: a requested one is refused, not dropped
    out = tmp_path / "inst"
    if command == "gen":
        args = ["gen", "--out", str(out), "--N", "8", "--kappa", "3", "--sparsity", "2"]
    else:
        args = [command, "--gen", "N=8,kappa=3,s=2", "--T", "1", "--epsilon", "1e-3"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sparse mode measures kappa_V instead of prescribing it")
    assert err.count("\n") == 1
    assert not out.exists()


def test_gen_defaults_seed_from_odeql_seed_and_kappa_to_1(monkeypatch, tmp_path):
    monkeypatch.setenv("ODEQL_SEED", "7")
    assert main(["gen", "--out", str(tmp_path / "inst"), "--N", "2"]) == 0
    assert json.loads((tmp_path / "inst" / "meta.json").read_text())["seed"] == 7
    assert load_instance(tmp_path / "inst").kappa_V == pytest.approx(1.0, rel=1e-12)


def test_bad_odeql_seed_exits_2(monkeypatch, tmp_path, capsys):
    # read when the parser is built, not at import, and parsed like --seed
    monkeypatch.setenv("ODEQL_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lemma1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "error: odeql verify: argument --seed: invalid int value: 'abc'\n"
    # an explicit --seed never reads the variable
    assert main(["verify", "--suite", "taylor", "--trials", "5", "--seed", "1",
                 "--report", str(tmp_path / "t.json")]) == 0


def test_kappa_above_ceiling_exits_2(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen", "--out", str(out), "--N", "2", "--kappa", "1e12",
                 "--seed", "122"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kappa_V must lie in [1, KAPPA_V_MAX = 1e+10]")
    assert err.count("\n") == 1
    assert not out.exists()


# file (relative to tmp_path, where instance_dir is "inst") -> malformed text
MALFORMED_MANIFESTS = {
    "params-number": ("params.json", "5"),
    "params-string": ("params.json", '"mkph"'),
    "params-null-T": ("params.json", '{"T": null, "epsilon": 1e-3}'),
    "params-float-m": ("params.json", '{"m": 1.5, "k": 5, "p": 1, "h": 0.1}'),
    "params-bool-k": ("params.json", '{"m": 1, "k": true, "p": 1, "h": 0.1}'),
    "params-infinite-epsilon": ("params.json", '{"T": 1, "epsilon": Infinity}'),
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
    (tmp_path / "params.json").write_text('{"m": 1, "k": 5, "p": 1, "h": 0.1}')
    name, text = MALFORMED_MANIFESTS[case]
    (tmp_path / name).write_text(text)
    code = main(["encode", "--instance", str(instance_dir),
                 "--params", str(tmp_path / "params.json"),
                 "--out-matrix", str(tmp_path / "C.mtx"),
                 "--out-rhs", str(tmp_path / "rhs.txt")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "C.mtx").exists()


def test_well_formed_params_manifest_runs(instance_dir, tmp_path):
    # the control for the cases above: integer m, k, p and an integer h run
    (tmp_path / "params.json").write_text('{"m": 2, "k": 5, "p": 1, "h": 1}')
    assert main(["encode", "--instance", str(instance_dir),
                 "--params", str(tmp_path / "params.json"),
                 "--out-matrix", str(tmp_path / "C.mtx"),
                 "--out-rhs", str(tmp_path / "rhs.txt")]) == 0
    assert load_matrix(tmp_path / "C.mtx").shape == (3 * (2 * 6 + 2),) * 2


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
    code = main([command, "--gen", "N=2,kappa=1,seed=3", "--T", "1",
                 "--epsilon", "0.1", "--inject-delta", value])
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
    code = main(["gen", "--out", str(out), "--N", "8", "--sparsity", "2",
                 "--seed", "3"])
    assert code == 0
    inst = load_instance(out)
    dense = inst.A.toarray()
    assert (dense != 0).sum(axis=1).max() <= 2


@pytest.mark.parametrize("value", ["maybe", "", "True", "2"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_unit_flag_exits_2(command, value, capsys):
    # only 1/true/yes and 0/false/no name a unit-norm choice; nothing falls back
    code = main([command, "--gen", f"N=2,kappa=1,seed=3,unit={value}", "--T", "1",
                 "--epsilon", "0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unit must be one of 1/true/yes or 0/false/no")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("value, unit_norm", [("1", True), ("true", True), ("yes", True),
                                              ("0", False), ("false", False), ("no", False)])
def test_unit_flag_values(value, unit_norm):
    from odeql.cli import _parse_gen_inline

    assert _parse_gen_inline(f"N=2,unit={value}").unit_norm is unit_norm


def test_gen_empty_eig_value_exits_2(tmp_path, capsys):
    # an empty --eig-value is malformed, like --gen "eig=", not the uniform profile
    out = tmp_path / "inst"
    assert main(["gen", "--out", str(out), "--N", "2", "--eig-value="]) == 2
    assert main(["run", "--gen", "N=2,eig=", "--T", "1", "--epsilon", "0.1"]) == 2
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2 and all(e.startswith("error:") for e in errs)
    assert not out.exists()
