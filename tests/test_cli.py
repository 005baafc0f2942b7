import json
import math

import numpy as np
import pytest

from dpsynth import cli, dp, models, semdata, tabular


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def simulate(tmp_path, name="sim", d=4, n=120, seed=1, kind="linear"):
    out = tmp_path / name
    assert run_cli("simulate", "--d", d, "--n", n, "--kind", kind, "--seed", seed, "--out", out) == 0
    return out


def train(tmp_path, sim, name="run", *extra):
    out = tmp_path / name
    rc = run_cli(
        "train", "--data", sim / "data.csv", "--steps", 40, "--batch", 20,
        "--t-g", 5, "--sigma", 0, "--seed", 2, "--out", out, *extra,
    )
    assert rc == 0
    return out


def test_version_and_help():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--help")
    assert exc.value.code == 0


def test_simulate_outputs_and_manifest(tmp_path):
    out = simulate(tmp_path)
    table = tabular.read_csv(out / "data.csv")
    assert (table.n, table.d) == (120, 4)
    dag = semdata.load_dag(out / "dag.json")
    assert dag.d == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 1
    assert manifest["version"]
    assert sorted(manifest["outputs"]) == ["dag.json", "data.csv"]
    assert manifest["config"]["kind"] == "linear"
    assert manifest["wall_clock"] >= 0


def test_simulate_rerun_is_byte_identical(tmp_path):
    a = simulate(tmp_path, "a", seed=9)
    b = simulate(tmp_path, "b", seed=9)
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "dag.json").read_bytes() == (b / "dag.json").read_bytes()


def test_simulate_usage_errors(tmp_path):
    assert run_cli("simulate", "--d", 4, "--n", 0, "--out", tmp_path / "x") == 2
    assert run_cli("simulate", "--d", 4, "--n", 10, "--graph", "er", "--attach", 2,
                   "--out", tmp_path / "x") == 2
    assert run_cli("simulate", "--d", 4, "--n", 10, "--graph", "sf", "--edges", 3,
                   "--out", tmp_path / "x") == 2


def test_train_nonprivate_files_and_report(tmp_path, capsys):
    sim = simulate(tmp_path)
    out = train(tmp_path, sim)
    assert "non-private" in capsys.readouterr().out
    for name in ("checkpoint.json", "preprocessor.json", "report.json", "manifest.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["non_private"] is True
    assert report["epsilon"] is None
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sigma"] == 0.0
    assert "data.csv" in manifest["inputs"]
    assert len(manifest["inputs"]["data.csv"]) == 64  # sha256 hex


def test_train_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    sim = simulate(tmp_path)
    a = train(tmp_path, sim, "runa")
    b = train(tmp_path, sim, "runb")
    for name in ("checkpoint.json", "preprocessor.json", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_epsilon_calibration_self_consistent(tmp_path, capsys):
    sim = simulate(tmp_path)
    out = tmp_path / "calib"
    rc = run_cli("train", "--data", sim / "data.csv", "--steps", 50, "--batch", 20,
                 "--epsilon", 1.0, "--delta", 1e-5, "--seed", 0, "--out", out)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["epsilon"] <= 1.0 + 1e-3
    assert report["epsilon"] > 0.9  # lands inside the calibration band, not far below
    assert "epsilon" in capsys.readouterr().out


def test_train_flag_overrides_config_file(tmp_path):
    sim = simulate(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"steps": 30, "batch": 10, "lam": 0.01}))
    out = tmp_path / "cfgrun"
    rc = run_cli("train", "--data", sim / "data.csv", "--config", cfg_file,
                 "--steps", 20, "--sigma", 0, "--out", out)
    assert rc == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["steps"] == 20  # flag wins
    assert config["batch"] == 10  # file wins over default
    assert config["lam"] == 0.01
    report = json.loads((out / "report.json").read_text())
    assert len(report["trace"]) == 20


def test_train_usage_and_config_errors(tmp_path):
    sim = simulate(tmp_path)
    assert run_cli("train", "--data", sim / "data.csv", "--sigma", 1, "--epsilon", 1,
                   "--out", tmp_path / "x") == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stepz": 5}))
    assert run_cli("train", "--data", sim / "data.csv", "--config", bad,
                   "--out", tmp_path / "x") == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert run_cli("train", "--data", sim / "data.csv", "--config", notjson,
                   "--out", tmp_path / "x") == 3


def test_missing_data_file_is_ingestion_exit(tmp_path):
    assert run_cli("train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "x") == 3


def test_divergence_maps_to_numeric_exit(tmp_path):
    sim = simulate(tmp_path, d=3, n=60)
    rc = run_cli("train", "--data", sim / "data.csv", "--steps", 200, "--batch", 20,
                 "--t-g", 1, "--eta-theta", 1e5, "--eta-nu", 0.5, "--clamp", 2.0,
                 "--sigma", 0, "--out", tmp_path / "div")
    assert rc == 4


def test_generate_deterministic_and_inverse_transformed(tmp_path):
    sim = simulate(tmp_path)
    run = train(tmp_path, sim)
    a = tmp_path / "gena"
    b = tmp_path / "genb"
    for out in (a, b):
        rc = run_cli("generate", "--model", run / "checkpoint.json", "--n", 150,
                     "--seed", 7, "--preprocessor", run / "preprocessor.json", "--out", out)
        assert rc == 0
    assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()
    synth = tabular.read_csv(a / "synthetic.csv")
    assert synth.names == tabular.read_csv(sim / "data.csv").names
    assert synth.n == 150


def test_generate_zero_model_gives_constant_columns(tmp_path):
    g = models.new_generator(3, np.random.default_rng(0))
    f = models.new_discriminator(3, 0.5, np.random.default_rng(1))
    models.theta_set(g, np.zeros(models.theta_size(g)))
    ckpt = tmp_path / "zero.json"
    models.save_checkpoint(ckpt, g, f)
    out = tmp_path / "genzero"
    assert run_cli("generate", "--model", ckpt, "--n", 50, "--out", out) == 0
    synth = tabular.read_csv(out / "synthetic.csv")
    assert np.all(synth.values == synth.values[0])


def test_generate_dimension_mismatch(tmp_path):
    sim = simulate(tmp_path)
    run = train(tmp_path, sim)
    other = tabular.Table(("a", "b"), np.arange(10.0).reshape(5, 2) + [[0], [1], [2], [3], [4]])
    pre3 = tabular.fit_preprocessor(other)
    tabular.save_preprocessor(tmp_path / "pre2.json", pre3)
    rc = run_cli("generate", "--model", run / "checkpoint.json", "--n", 10,
                 "--preprocessor", tmp_path / "pre2.json", "--out", tmp_path / "x")
    assert rc == 2


def test_evaluate_identical_files_score_zero(tmp_path):
    sim = simulate(tmp_path)
    out = tmp_path / "eval"
    rc = run_cli("evaluate", "--synthetic", sim / "data.csv", "--test", sim / "data.csv",
                 "--out", out)
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["wd"] == 0.0
    assert report["tvd_1way"] == 0.0
    assert report["tvd_2way"] == 0.0
    assert report["js"] == 0.0
    assert report["downstream"] == []


def test_evaluate_with_target_and_mismatch(tmp_path):
    sim = simulate(tmp_path)
    gen = simulate(tmp_path, "sim2", seed=4)
    out = tmp_path / "eval2"
    rc = run_cli("evaluate", "--synthetic", gen / "data.csv", "--test", sim / "data.csv",
                 "--target", "x1", "--out", out)
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["downstream"][0]["model"] == "ridge"
    assert "r2" in report["downstream"][0]
    other = simulate(tmp_path, "sim3", d=3, seed=5)
    rc = run_cli("evaluate", "--synthetic", other / "data.csv", "--test", sim / "data.csv",
                 "--out", tmp_path / "x")
    assert rc == 2


def test_account_forward_matches_library(tmp_path, capsys):
    assert run_cli("account", "--n", 12384, "--batch", 50, "--sigma", 2.0, "--steps", 7000) == 0
    got = json.loads(capsys.readouterr().out)
    want = dp.account_report(12384, 50, 2.0, 7000, 1e-5)
    assert got["epsilon"] == want["epsilon"]
    assert got["best_order"] == want["best_order"]


def test_account_calibration_and_out_file(tmp_path, capsys):
    out = tmp_path / "acct"
    rc = run_cli("account", "--n", 12384, "--batch", 50, "--steps", 7000,
                 "--epsilon", 0.9, "--out", out)
    assert rc == 0
    report = json.loads((out / "account.json").read_text())
    sigma = report["calibrated_sigma"]
    eps = dp.epsilon_for(50 / 12384, sigma, 7000, 1e-5)
    assert eps <= 0.9 + 1e-12
    assert eps >= 0.9 * (1 - 1e-3)
    assert (out / "manifest.json").exists()


def test_account_usage_and_calibration_errors(tmp_path):
    assert run_cli("account", "--n", 100, "--batch", 10, "--steps", 10) == 2  # neither mode
    assert run_cli("account", "--n", 100, "--batch", 10, "--steps", 10,
                   "--sigma", 1, "--epsilon", 1) == 2
    assert run_cli("account", "--n", 100, "--batch", 10, "--steps", 100_000,
                   "--epsilon", 1e-4) == 5


def test_benchmark_single_point_rows_and_manifest(tmp_path):
    out = tmp_path / "bench"
    rc = run_cli("benchmark", "--sweep", "lambda", "--grid", "0.003", "--sigmas", "0,1.0",
                 "--repeats", 1, "--d", 3, "--n", 100, "--steps", 30, "--batch", 20,
                 "--t-g", 5, "--out", out)
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "param,sigma,seed,wd,tvd,mmd,js"
    assert len(lines) == 3  # one row per sigma
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[0]) == 0.003
        assert all(math.isfinite(float(v)) for v in fields[3:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"] == [0.003]
    assert manifest["config"]["sigmas"] == [0.0, 1.0]
    assert manifest["config"]["repeats"] == 1


def test_benchmark_config_two_step_trains_two_phases(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_step": True}))
    sweeps = {}
    for name, extra in (("one", ()), ("two", ("--config", cfg))):
        out = tmp_path / name
        rc = run_cli("benchmark", "--sweep", "lambda", "--grid", "0.003", "--repeats", 1,
                     "--d", 3, "--n", 100, "--steps", 30, "--batch", 20, "--t-g", 5,
                     "--out", out, *extra)
        assert rc == 0
        sweeps[name] = (out / "sweep.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["two_step"] is (name == "two")
    # the second phase and the prune change the trained model, so its metrics
    assert sweeps["one"] != sweeps["two"]


def test_benchmark_bad_grid(tmp_path):
    assert run_cli("benchmark", "--sweep", "lambda", "--grid", "a,b",
                   "--out", tmp_path / "x") == 2
    assert run_cli("benchmark", "--sweep", "lambda", "--grid", "0.003",
                   "--repeats", 0, "--out", tmp_path / "x") == 2


def test_commands_write_only_inside_out(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    simulate(tmp_path, "simout")
    assert list(workdir.iterdir()) == []
