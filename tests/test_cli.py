import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpsynth import cli, dp, models, semdata, tabular
from dpsynth.errors import UsageError

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def cli_process(*argv):
    """``python -m dpsynth.cli`` in a child process, whose stderr shows any traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dpsynth.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


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


def test_train_times_its_stages_in_the_manifest_only(tmp_path):
    sim = simulate(tmp_path)
    head = ("train", "--data", sim / "data.csv", "--steps", 20, "--batch", 20, "--seed", 0)
    stages = {"--epsilon": {"read", "calibrate", "train"}, "--sigma": {"read", "train"}}
    for flag, want in stages.items():
        outs = [tmp_path / f"{flag[2:]}_{k}" for k in "ab"]
        for out in outs:
            assert run_cli(*head, flag, 1.0, "--out", out) == 0
        timings = json.loads((outs[0] / "manifest.json").read_text())["timings"]
        assert set(timings) == want, flag
        assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
        assert "timings" not in json.loads((outs[0] / "report.json").read_text())
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


def test_train_two_step_epsilon_is_calibrated_for_both_phases(tmp_path):
    sim = simulate(tmp_path)
    out = tmp_path / "twostep"
    rc = run_cli("train", "--data", sim / "data.csv", "--steps", 30, "--batch", 20, "--two-step",
                 "--epsilon", 3.0, "--delta", 1e-5, "--seed", 0, "--out", out)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    sigma = json.loads((out / "manifest.json").read_text())["config"]["sigma"]
    assert report["steps"] == 60  # the ledger composes both phases
    assert 3.0 * (1 - 1e-3) <= report["epsilon"] <= 3.0
    assert report["epsilon"] == dp.account_report(120, 20, sigma, 60, 1e-5)["epsilon"]


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
    assert report["steps"] == 20 and "trace" not in report


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


def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path):
    sim = simulate(tmp_path, d=3, n=60)
    for i, wrong in enumerate(({"steps": "10"}, {"two_step": "no"})):
        cfg = tmp_path / f"wrong{i}.json"
        cfg.write_text(json.dumps(wrong))
        assert run_cli("train", "--data", sim / "data.csv", "--config", cfg, "--batch", 20,
                       "--sigma", 0, "--out", tmp_path / f"train{i}") == 2, wrong
        assert run_cli("benchmark", "--sweep", "lambda", "--grid", "0.003", "--repeats", 1,
                       "--d", 3, "--n", 60, "--batch", 20, "--config", cfg,
                       "--out", tmp_path / f"bench{i}") == 2, wrong
    # ints are floats, sigma may be null
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"lam": 0, "sigma": None, "two_step": False, "steps": 10}))
    assert run_cli("train", "--data", sim / "data.csv", "--config", ok, "--batch", 20,
                   "--out", tmp_path / "okrun") == 0


def test_missing_data_file_is_ingestion_exit(tmp_path):
    assert run_cli("train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "x") == 3


@pytest.mark.parametrize(
    "body,needle",
    [
        (b"a,b\n1,\xff\n", "line 2, column 'b': bytes that are not UTF-8"),
        (b"\xff,b\n1,2\n", "line 1: the header is not UTF-8"),
        (b"a,b\n1," + b"x" * 200_000, "line 2: field larger than field limit"),
    ],
    ids=["cell", "header", "long_cell"],
)
def test_undecodable_or_overlong_csv_is_ingestion_exit(tmp_path, capsys, body, needle):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    good = tmp_path / "good.csv"
    good.write_text("a,b\n1,2\n3,4\n")
    for synthetic, test in ((bad, good), (good, bad)):
        rc = run_cli("evaluate", "--synthetic", synthetic, "--test", test, "--out", tmp_path / "eval")
        assert rc == 3
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_divergence_maps_to_numeric_exit(tmp_path, capsys):
    sim = simulate(tmp_path, d=3, n=60)
    rc = run_cli("train", "--data", sim / "data.csv", "--steps", 200, "--batch", 20,
                 "--t-g", 1, "--eta-theta", 1e5, "--eta-nu", 0.5, "--clamp", 2.0,
                 "--sigma", 0, "--out", tmp_path / "div")
    assert rc == 4
    assert "of phase 1; epsilon spent so far inf" in capsys.readouterr().err  # sigma 0: no privacy


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
    g.theta[:] = 0.0
    ckpt = tmp_path / "zero.json"
    models.save_checkpoint(ckpt, g, f)
    out = tmp_path / "genzero"
    assert run_cli("generate", "--model", ckpt, "--n", 50, "--out", out) == 0
    synth = tabular.read_csv(out / "synthetic.csv")
    assert np.all(synth.values == synth.values[0])


def test_generate_rejects_checkpoints_of_the_wrong_length(tmp_path):
    g = models.new_generator(3, np.random.default_rng(0))
    f = models.new_discriminator(3, 0.5, np.random.default_rng(1))
    payload = models.checkpoint_dict(g, f)
    bad = {
        "short_mask": dict(payload, freeze_mask=payload["freeze_mask"][:-1]),
        "empty_mask": dict(payload, freeze_mask=[]),
        "short_theta": dict(payload, theta=payload["theta"][:-1]),
        "long_nu": dict(payload, nu=payload["nu"] + [0.0]),
        "string_d": dict(payload, d="three"),
        "string_in_theta": dict(payload, theta=["x"] + payload["theta"][1:]),
        "ragged_mask": dict(payload, freeze_mask=[[False], [False, False], [[False], False, False]]),
        "nan_in_theta": dict(payload, theta=[math.nan] + payload["theta"][1:]),
        "inf_in_nu": dict(payload, nu=payload["nu"][:-1] + [math.inf]),
        "top_level_list": [payload],
    }
    for name, broken in bad.items():
        ckpt = tmp_path / f"{name}.json"
        ckpt.write_text(json.dumps(broken))
        assert run_cli("generate", "--model", ckpt, "--n", 5, "--out", tmp_path / name) == 2, name


def test_checkpoint_sizes_are_checked_before_the_model_is_built(tmp_path):
    g = models.new_generator(3, np.random.default_rng(0))
    f = models.new_discriminator(3, 0.5, np.random.default_rng(1))
    ckpt = tmp_path / "huge_d.json"
    ckpt.write_text(json.dumps(dict(models.checkpoint_dict(g, f), d=1500)))
    assert ckpt.stat().st_size < 10_000
    assert run_cli("generate", "--model", ckpt, "--n", 5, "--out", tmp_path / "x") == 2
    tracemalloc.start()
    try:
        with pytest.raises(UsageError):
            models.load_checkpoint(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # building the d = 1500 generator first reached 210 MB


def test_generate_refuses_non_finite_rows(tmp_path):
    g = models.new_generator(3, np.random.default_rng(0))
    f = models.new_discriminator(3, 0.5, np.random.default_rng(1))
    huge = tmp_path / "huge.json"
    g.theta[:] = 1e200  # finite, so it loads, but the rows overflow
    models.save_checkpoint(huge, g, f)
    g.theta[:] = 1.0
    moderate = tmp_path / "moderate.json"
    models.save_checkpoint(moderate, g, f)
    pre = tabular.Preprocessor(("a", "b", "c"), np.zeros(3), np.full(3, 1e308))
    tabular.save_preprocessor(tmp_path / "pre.json", pre)
    cases = {
        "huge_theta": ("--model", huge),
        "overflowing_inverse_transform": ("--model", moderate, "--preprocessor", tmp_path / "pre.json"),
    }
    for name, flags in cases.items():
        out = tmp_path / name
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("generate", *flags, "--n", 5, "--out", out) == 4, name
        assert not (out / "synthetic.csv").exists() and not (out / "manifest.json").exists(), name
    assert run_cli("generate", "--model", moderate, "--n", 5, "--out", tmp_path / "ok") == 0


def _model_files(tmp_path, d, scale=None):
    """A random checkpoint at d columns and a preprocessor for it (shift
    and scale drawn at random unless ``scale`` is given)."""
    rng = np.random.default_rng(d)
    g = models.random_generator(d, rng)
    ckpt = tmp_path / f"model{d}.json"
    models.save_checkpoint(ckpt, g, models.new_discriminator(d, 0.5, rng))
    if scale is None:
        scale = rng.uniform(0.5, 5.0, d)
    pre = tabular.Preprocessor(tuple(f"c{j}" for j in range(d)), rng.normal(0.0, 3.0, d), scale)
    pre_path = tmp_path / f"pre{d}.json"
    tabular.save_preprocessor(pre_path, pre)
    return g, ckpt, pre, pre_path


def _blockwise_rows(g, n, seed, block=1024):
    """sample_batch on consecutive row blocks of one noise draw; a lone
    last row joins the block before it."""
    Z = np.random.default_rng(seed).standard_normal((n, g.d))
    starts = list(range(0, n, block))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return np.concatenate([models.sample_batch(g, Z[i:j]) for i, j in zip(starts, starts[1:] + [n])])


@pytest.mark.parametrize("d", [3, 30])
def test_generate_writes_the_rows_of_1024_row_blocks_of_one_noise_draw(tmp_path, d):
    g, ckpt, pre, pre_path = _model_files(tmp_path, d)
    for n in (1, 1023, 1024, 1025, 3077):
        X = _blockwise_rows(g, n, seed=5)
        expected = {
            "plain": tabular.Table(tuple(f"x{j + 1}" for j in range(d)), X),
            "pre": tabular.inverse_transform(pre, tabular.Table(pre.names, X)),
        }
        for kind, table in expected.items():
            want = tmp_path / f"want_{kind}_{n}.csv"
            tabular.write_csv(table, want)
            out = tmp_path / f"gen_{kind}_{n}"
            flags = ("--preprocessor", pre_path) if kind == "pre" else ()
            assert run_cli("generate", "--model", ckpt, "--n", n, "--seed", 5, *flags, "--out", out) == 0
            assert (out / "synthetic.csv").read_bytes() == want.read_bytes(), (kind, n)


def test_generate_at_d10_writes_the_rows_of_one_sample_batch_call(tmp_path):
    # gemm gives a row the same bits in any number of rows at this width,
    # so blocks leave generate's bytes as one call on the whole draw made them
    g, ckpt, *_ = _model_files(tmp_path, 10)
    for n in (1, 1025, 2049, 3077):
        X = models.sample_batch(g, np.random.default_rng(5).standard_normal((n, 10)))
        want = tmp_path / f"want{n}.csv"
        tabular.write_csv(tabular.Table(tuple(f"x{j + 1}" for j in range(10)), X), want)
        out = tmp_path / f"gen{n}"
        assert run_cli("generate", "--model", ckpt, "--n", n, "--seed", 5, "--out", out) == 0
        assert (out / "synthetic.csv").read_bytes() == want.read_bytes(), n


def test_generate_refuses_a_non_finite_value_in_the_last_block(tmp_path):
    n, d, last = 3072, 4, 2048
    g, *_ = _model_files(tmp_path, d)
    # the first seed whose last block holds some column's largest magnitude
    for seed in range(100):
        X = np.abs(_blockwise_rows(g, n, seed))
        before, after = X[:last].max(axis=0), X[last:].max(axis=0)
        j = int(np.argmax(after / before))
        if after[j] > 1.01 * before[j]:
            break
    else:
        pytest.fail("no seed puts a column's largest magnitude in the last block")
    # a scale that keeps every earlier value of column j finite and overflows that one
    scale = np.ones(d)
    scale[j] = np.finfo(np.float64).max / np.sqrt(before[j] * after[j])
    _, ckpt, _, pre_path = _model_files(tmp_path, d, scale=scale)
    out = tmp_path / "gen"
    with np.errstate(over="ignore"):
        assert run_cli("generate", "--model", ckpt, "--n", n, "--seed", seed,
                       "--preprocessor", pre_path, "--out", out) == 4
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"model{d}.json", f"pre{d}.json"]
    # the blocks before the last are finite
    assert run_cli("generate", "--model", ckpt, "--n", last, "--seed", seed,
                   "--preprocessor", pre_path, "--out", out) == 0


def test_generate_holds_one_table_and_small_blocks(tmp_path):
    n, d = 200_000, 10
    g, _, pre, _ = _model_files(tmp_path, d)
    tracemalloc.start()
    try:
        table = cli._synthesize(g, n, 5, pre)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.shape == (n, d)
    assert peak < n * d * 8 + 2e6  # the 16 MB table plus 2 MB


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


def test_evaluate_runs_in_bounded_memory(tmp_path):
    # 3,000 + 3,000 rows x 10: the dense pairwise tensors needed about 2.9 GB
    rng = np.random.default_rng(31)
    names = tuple(f"x{j + 1}" for j in range(10))
    for name, shift in (("synthetic", 0.1), ("test", 0.0)):
        table = tabular.Table(names, rng.standard_normal((3000, 10)) + shift)
        tabular.write_csv(table, tmp_path / f"{name}.csv")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["evaluate", "--synthetic", tmp_path / "synthetic.csv", "--test", tmp_path / "test.csv",
            "--target", "x10", "--out", tmp_path / "eval"]
    # the child reports its own peak RSS (kilobytes on Linux), unmixed with
    # any other child of the test process
    code = (
        "import resource, sys; from dpsynth.cli import main; rc = main(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)"
    )
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert int(done.stdout.split()[-1]) < 400 * 1024
    assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["mmd"] >= 0.0


def test_evaluate_exits_4_when_a_metric_overflows_on_finite_rows(tmp_path):
    # two cells of 1e308 make wd infinite and the ridge fit NaN; strict JSON
    # cannot write either, so the command must refuse before --out
    rng = np.random.default_rng(37)
    synthetic = rng.standard_normal((40, 3))
    synthetic[[3, 17], 1] = 1e308
    for name, values in (("synthetic", synthetic), ("test", rng.standard_normal((40, 3)))):
        tabular.write_csv(tabular.Table(("a", "b", "c"), values), tmp_path / f"{name}.csv")
    for target in ([], ["--target", "a"]):
        out = tmp_path / f"eval{len(target)}"
        done = cli_process("evaluate", "--synthetic", tmp_path / "synthetic.csv", "--test", tmp_path / "test.csv",
                           "--out", out, *target)
        assert done.returncode == 4, done.stderr[-2000:]
        assert "Traceback" not in done.stderr
        assert "error: wd is inf" in done.stderr
        assert not out.exists()


@pytest.mark.parametrize("top", [1e308, 8.95e307])
def test_evaluate_exits_4_on_a_test_column_past_the_float_range(tmp_path, top):
    # at 1e308 the range overflows; at 8.95e307 the padded edges are finite
    # but lie 1.81e308 apart, so the bins have no finite width
    rng = np.random.default_rng(41)
    test = rng.standard_normal((40, 3))
    test[[5, 9], 1] = -top, top
    for name, values in (("synthetic", rng.standard_normal((40, 3))), ("test", test)):
        tabular.write_csv(tabular.Table(("a", "b", "c"), values), tmp_path / f"{name}.csv")
    out = tmp_path / "eval"
    done = cli_process("evaluate", "--synthetic", tmp_path / "synthetic.csv", "--test", tmp_path / "test.csv",
                       "--out", out)
    assert done.returncode == 4, done.stderr[-2000:]
    assert "Traceback" not in done.stderr and "float range" in done.stderr
    assert not out.exists()


def test_evaluate_refuses_a_bin_count_past_the_address_space(tmp_path):
    rng = np.random.default_rng(43)
    for name in ("synthetic", "test"):
        tabular.write_csv(tabular.Table(("a", "b"), rng.standard_normal((20, 2))), tmp_path / f"{name}.csv")
    out = tmp_path / "eval"
    done = cli_process("evaluate", "--synthetic", tmp_path / "synthetic.csv", "--test", tmp_path / "test.csv",
                       "--bins", 100_000_000_000, "--out", out)
    assert done.returncode == 2, done.stderr[-2000:]
    assert "Traceback" not in done.stderr and "more than memory can hold" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "train --config", "generate", "simulate"])
def test_negative_seeds_exit_2_and_create_no_out(tmp_path, command):
    sim = simulate(tmp_path, d=3, n=60)
    if command == "train":
        argv = ("train", "--data", sim / "data.csv", "--seed", -1)
    elif command == "train --config":
        config = tmp_path / "config.json"
        config.write_text('{"seed": -2}')
        argv = ("train", "--data", sim / "data.csv", "--config", config)
    elif command == "generate":
        argv = ("generate", "--model", train(tmp_path, sim) / "checkpoint.json", "--n", 5, "--seed", -1)
    else:
        argv = ("simulate", "--d", 3, "--n", 10, "--seed", -1)
    out = tmp_path / "out"
    done = cli_process(*argv, "--out", out)
    assert done.returncode == 2, done.stderr[-2000:]
    assert "Traceback" not in done.stderr and "seed must be >= 0" in done.stderr
    assert not out.exists()


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


def test_evaluate_times_each_metric_in_the_manifest_only(tmp_path):
    sim = simulate(tmp_path)
    gen = simulate(tmp_path, "sim2", seed=4)
    outs = [tmp_path / "eval_a", tmp_path / "eval_b"]
    for out in outs:
        rc = run_cli("evaluate", "--synthetic", gen / "data.csv", "--test", sim / "data.csv",
                     "--target", "x4", "--out", out)
        assert rc == 0
    report = json.loads((outs[0] / "metrics.json").read_text())
    timings = json.loads((outs[0] / "manifest.json").read_text())["timings"]
    metric_fields = {"wd", "tvd_2way", "tvd_1way", "mmd", "js"}
    assert metric_fields <= set(report)
    assert set(timings) == metric_fields | {"bandwidth", "downstream.ridge"}
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
    assert "timings" not in report
    assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()


def test_account_forward_matches_library(tmp_path, capsys):
    assert run_cli("account", "--n", 12384, "--batch", 50, "--sigma", 2.0, "--steps", 7000) == 0
    got = json.loads(capsys.readouterr().out)
    want = dp.account_report(12384, 50, 2.0, 7000, 1e-5)
    assert got["epsilon"] == want["epsilon"]
    assert got["best_order"] == want["best_order"]


def test_account_reports_no_epsilon_for_a_vanishing_sigma(capsys):
    assert run_cli("account", "--n", 100, "--batch", 10, "--steps", 10, "--sigma", 1e-155) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["epsilon"] is None and got["best_order"] is None and not got["non_private"]


def test_account_prices_an_overflowing_sigma(capsys):
    # sigma**2 overflows at 1e200: every order's RDP is 0, so epsilon is
    # log(1/delta) / (alpha - 1) at the largest order
    assert run_cli("account", "--n", 100, "--batch", 10, "--steps", 10, "--sigma", 1e200) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["epsilon"] == dp.account_report(100, 10, 1e200, 10, 1e-5)["epsilon"]
    assert got["best_order"] == max(dp.DEFAULT_ORDERS)


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


def test_main_reuses_one_parser_and_carries_no_values_over(capsys):
    head = ("account", "--n", 12384, "--batch", 50, "--steps", 7000)
    assert run_cli(*head, "--sigma", 2.0, "--delta", 1e-6) == 0
    first = json.loads(capsys.readouterr().out)
    # a --sigma kept from the first call would make this one exit 2
    assert run_cli(*head, "--epsilon", 0.9) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["sigma"] == 2.0 and first["delta"] == 1e-6 and "calibrated_sigma" not in first
    assert second["sigma"] == second["calibrated_sigma"] != 2.0 and second["delta"] == 1e-5
    assert cli._parser.cache_info().currsize == 1


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


def test_generate_maps_bad_preprocessor_files_to_usage_exit(tmp_path):
    sim = simulate(tmp_path)
    run = train(tmp_path, sim)
    good = json.loads((run / "preprocessor.json").read_text())
    cases = {"truncated": '{"columns": ['}
    for name, key, value in (("text_shift", "shift", "a"), ("nan_scale", "scale", math.nan)):
        bad = json.loads(json.dumps(good))
        bad["columns"][0][key] = value
        cases[name] = json.dumps(bad)  # a NaN goes out as the token NaN, which json.load reads
    for name, text in cases.items():
        pre = tmp_path / f"{name}.json"
        pre.write_text(text)
        out = tmp_path / f"gen_{name}"
        rc = run_cli("generate", "--model", run / "checkpoint.json", "--n", 10,
                     "--preprocessor", pre, "--out", out)
        assert rc == 2, name
        assert not out.exists() or not any(out.iterdir()), name


def test_account_checks_n_and_batch_before_calibrating(capsys):
    for mode in (("--sigma", 1.0), ("--epsilon", 1.0)):
        assert run_cli("account", "--n", 0, "--batch", 5, "--steps", 10, *mode) == 2
        assert "n and batch must be >= 1, got n=0, batch=5" in capsys.readouterr().err
        assert run_cli("account", "--n", 10, "--batch", 50, "--steps", 10, *mode) == 2
        assert "batch 50 exceeds n 10" in capsys.readouterr().err


def test_evaluate_writes_strict_json_on_one_column_tables(tmp_path):
    rng = np.random.default_rng(3)
    for name in ("synthetic", "test"):
        tabular.write_csv(tabular.Table(("a",), rng.standard_normal((30, 1))), tmp_path / f"{name}.csv")
    out = tmp_path / "eval"
    rc = run_cli("evaluate", "--synthetic", tmp_path / "synthetic.csv", "--test", tmp_path / "test.csv",
                 "--out", out)
    assert rc == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((out / "metrics.json").read_text(), parse_constant=refuse)
    assert report["tvd_2way"] is None and report["tvd_2way_sum"] is None
    assert math.isfinite(report["tvd_1way"])
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["seed"] is None
    with pytest.raises(SystemExit) as exc:  # evaluate is deterministic and takes no seed
        run_cli("evaluate", "--synthetic", tmp_path / "synthetic.csv", "--test", tmp_path / "test.csv",
                "--seed", 1, "--out", tmp_path / "seeded")
    assert exc.value.code == 2


def test_non_finite_settings_are_usage_errors(tmp_path):
    sim = simulate(tmp_path, d=3, n=60)
    for flags in (("--tau", "nan"), ("--clamp", "inf"), ("--clip", "inf"), ("--sigma", "nan")):
        out = tmp_path / f"train{flags[0]}"
        assert run_cli("train", "--data", sim / "data.csv", "--steps", 10, "--batch", 20,
                       *flags, "--out", out) == 2, flags
        assert not out.exists(), flags
    for flags in (("--epsilon", "nan"), ("--epsilon", "inf")):
        out = tmp_path / f"train{flags[1]}"
        assert run_cli("train", "--data", sim / "data.csv", "--steps", 10, "--batch", 20,
                       *flags, "--out", out) == 2, flags
        assert not out.exists(), flags
    account = ("account", "--n", 100, "--batch", 10, "--steps", 10)
    for flags in (("--sigma", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf"),
                  ("--sigma", 1, "--delta", "nan")):
        out = tmp_path / f"account{flags[1]}"
        assert run_cli(*account, *flags, "--out", out) == 2, flags
        assert not out.exists(), flags
    assert run_cli("simulate", "--d", 3, "--n", 10, "--edges", "inf", "--out", tmp_path / "s") == 2
    assert not (tmp_path / "s").exists()


BENCH = ("benchmark", "--sweep", "lambda", "--grid", "0.003", "--repeats", 1, "--d", 3, "--n", 60,
         "--steps", 10, "--batch", 20, "--t-g", 5)


def test_benchmark_checks_its_inputs_before_creating_out(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stepz": 5}))
    cases = {"unknown_key": ("--config", bad), "batch_over_n": ("--batch", 200), "one_column": ("--d", 1)}
    for name, flags in cases.items():
        out = tmp_path / name
        assert run_cli(*BENCH, *flags, "--out", out) == 2, name
        assert not out.exists(), name


def test_benchmark_refuses_the_settings_it_sets(tmp_path):
    for flags in (("--seed", 1), ("--sigma", 1)):  # not offered: argparse exits 2
        out = tmp_path / f"flag{flags[0]}"
        with pytest.raises(SystemExit) as exc:
            run_cli(*BENCH, *flags, "--out", out)
        assert exc.value.code == 2 and not out.exists(), flags
    for key, value in (("seed", 3), ("sigma", 1.0), ("epsilon", 1.0), ("lam", 0.5)):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / f"config_{key}"
        assert run_cli(*BENCH, "--config", cfg, "--out", out) == 2, key
        assert not out.exists(), key
    out = tmp_path / "swept_flag"
    assert run_cli(*BENCH, "--lam", 0.5, "--out", out) == 2  # --sweep lambda sets lam
    assert not out.exists()
    assert run_cli(*BENCH, "--out", tmp_path / "ok") == 0
    config = json.loads((tmp_path / "ok" / "manifest.json").read_text())["config"]
    assert not {"seed", "sigma", "epsilon"} & set(config)  # sweep.csv holds each repeat's seed


def _option_strings(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {s for action in sub.choices[command]._actions for s in action.option_strings}


def test_each_command_accepts_exactly_its_flag_spellings():
    train_flags = (
        "--B --T --batch --clamp --clip --config --delta --eta-nu --eta-theta --eta_nu --eta_theta "
        "--gamma --init-noise-gain --init-out-gain --init_noise_gain --init_out_gain --lam --lambda "
        "--steps --t-g --t_g --tau --two-step --two_step"
    ).split()
    want = {
        "simulate": "--attach --d --edges --graph --kind --n --out --seed",
        "train": "--data --out --seed --sigma --epsilon " + " ".join(train_flags),
        "generate": "--model --n --out --preprocessor --seed",
        "evaluate": "--bins --out --synthetic --target --test",
        "account": "--batch --delta --epsilon --n --out --sigma --steps",
        "benchmark": "--d --grid --kind --n --out --repeats --sigmas --sweep " + " ".join(train_flags),
    }
    for command, flags in want.items():
        assert _option_strings(command) == set(flags.split()) | {"-h", "--help"}, command
    assert len(_option_strings("train")) == 31


def _non_default(default):
    if isinstance(default, bool):
        return True
    if isinstance(default, int):
        return default + 1
    return 0.25 if default is None else 2 * default + 0.25


def test_each_setting_resolves_alike_from_flag_and_config_file(tmp_path):
    parser = cli.build_parser()
    heads = {
        "train": ("train", "--data", "d.csv", "--out", "o"),
        "benchmark": ("benchmark", "--sweep", "gamma", "--grid", "0", "--out", "o"),
    }
    for command, head in heads.items():
        for key, default in cli.SETTINGS.items():
            if command == "benchmark" and key in cli.BENCHMARK_SETS:
                continue
            value = _non_default(default)
            flag = [f"--{key.replace('_', '-')}"] + ([] if value is True else [repr(value)])
            cfg_file = tmp_path / f"{key}.json"
            cfg_file.write_text(json.dumps({key: value}))
            by_flag = cli._settings(parser.parse_args([*head, *flag]))
            by_file = cli._settings(parser.parse_args([*head, "--config", str(cfg_file)]))
            assert by_flag == by_file and by_flag[key] == value != default, (command, key)
            cfgs = [cli._train_config(v) for v in (by_flag, by_file)]
            assert cfgs[0] == cfgs[1], (command, key)
            assert cli._record(cfgs[0]) == cli._record(cfgs[1]), (command, key)
            if key != "epsilon":  # epsilon is calibrated into sigma before it is recorded
                assert cli._record(cfgs[0])[key] == value, (command, key)


def test_simulate_sf_gives_each_node_its_attachments(tmp_path):
    out = tmp_path / "sf"
    assert run_cli("simulate", "--d", 6, "--n", 50, "--graph", "sf", "--attach", 2,
                   "--seed", 3, "--out", out) == 0
    dag = semdata.load_dag(out / "dag.json")
    assert [len(pa) for pa in dag.parents] == [min(2, j) for j in range(6)]
    assert tabular.read_csv(out / "data.csv").values.shape == (50, 6)


def test_train_config_missing_or_not_an_object_creates_no_out(tmp_path):
    sim = simulate(tmp_path)
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([["steps", 5]]))
    for config, code in ((tmp_path / "missing.json", 3), (listed, 2)):
        out = tmp_path / f"out-{code}"
        assert run_cli("train", "--data", sim / "data.csv", "--config", config, "--out", out) == code
        assert not out.exists()


def test_generate_zero_rows_creates_no_out(tmp_path):
    run = train(tmp_path, simulate(tmp_path))
    out = tmp_path / "gen"
    assert run_cli("generate", "--model", run / "checkpoint.json", "--n", 0, "--out", out) == 2
    assert not out.exists()


def test_benchmark_grid_of_only_commas_creates_no_out(tmp_path):
    out = tmp_path / "bench"
    assert run_cli("benchmark", "--sweep", "lambda", "--grid", ",", "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("n", [10**15, 10**18])
def test_tables_past_the_address_space_exit_2_and_create_no_out(tmp_path, capsys, n):
    # 10^15 x 3 numbers (21.3 PiB) fail numpy's allocation, 10^18 x 3 the
    # up-front size check; both lie past a 47-bit address space, so nothing
    # is allocated
    run = train(tmp_path, simulate(tmp_path, d=3))
    capsys.readouterr()
    cases = {
        "big-gen": ("generate", "--model", run / "checkpoint.json", "--n", n),
        "big-sim": ("simulate", "--d", 3, "--n", n),
    }
    for name, argv in cases.items():
        out = tmp_path / name
        assert run_cli(*argv, "--out", out) == 2, name
        assert not out.exists(), name
        assert capsys.readouterr().err.startswith("error: "), name
