"""Command-line pipeline: simulate, train, generate, evaluate, account, benchmark.

Every file-producing command takes --out and writes only inside it, ending with
a manifest.json recording the resolved configuration, seed, tool version, input
hashes, and output names, so any run can be re-derived. Exit codes: 0 success,
2 usage (a table too large to hold in memory included), 3 data ingestion,
4 numeric failure, 5 calibration failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, dp, metrics, models, semdata, tabular, training
from .errors import (
    CalibrationError,
    IngestionError,
    NumericError,
    UsageError,
)

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: an undefined value is written as null, never as a NaN token
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _manifest(
    out: Path, command: str, config: dict, seed, inputs, outputs, t0: float, timings=None
) -> None:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {Path(p).name: _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "wall_clock": time.perf_counter() - t0,
    }
    if timings is not None:
        payload["timings"] = timings
    _write_json(out / "manifest.json", payload)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")


def _check_table_size(n: int, d: int) -> None:
    """Refuse a table of n x d float64 cells larger than any address space."""
    if n * d * 8 > sys.maxsize:
        raise UsageError(
            f"a table of {n} x {d} numbers needs {n * d * 8} bytes, more than memory can hold"
        )


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    _check_seed(args.seed)
    if args.graph == "er" and args.attach is not None:
        raise UsageError("--attach applies to --graph sf only")
    if args.graph == "sf" and args.edges is not None:
        raise UsageError("--edges applies to --graph er only")
    if args.graph == "er":
        dag = semdata.sample_er_dag(args.d, args.edges, seed=args.seed)
    else:
        attach = 1 if args.attach is None else args.attach
        dag = semdata.sample_sf_dag(args.d, attach, seed=args.seed)
    spec = semdata.SemSpec(kind=args.kind)
    weights = semdata.sample_weights(dag, spec, seed=args.seed)
    _check_table_size(args.n, args.d)
    table = semdata.simulate(dag, weights, spec, args.n, seed=args.seed)

    out = _out_dir(args)
    tabular.write_csv(table, out / "data.csv")
    semdata.save_dag(out / "dag.json", dag, args.kind, args.seed)
    config = {
        "d": args.d,
        "n": args.n,
        "graph": args.graph,
        "edges": args.edges,
        "attach": args.attach,
        "kind": args.kind,
    }
    _manifest(out, "simulate", config, args.seed, [], ["data.csv", "dag.json"], t0)
    return 0


# ------------------------------------------------------------------- train


# Every train setting and its default: TrainConfig's fields but dp, then the
# DP release's clip norm and delta, and its noise given either as sigma or as
# a target epsilon (None: not given). The table makes both parsers' flags, the
# config-file keys and their types, and the manifests' record.
SETTINGS = {f.name: f.default for f in fields(training.TrainConfig) if f.name != "dp"}
SETTINGS.update(clip=dp.DpConfig.clip_norm, delta=dp.DpConfig.delta, sigma=None, epsilon=None)
# The DpConfig field each DP setting fills; epsilon is calibrated into sigma.
DP_FIELDS = {"clip": "clip_norm", "delta": "delta", "sigma": "noise_multiplier"}
PAPER_ALIASES = {"steps": "--T", "batch": "--B", "lam": "--lambda"}


def _config_value_ok(value, default) -> bool:
    """Whether a JSON config value fits the type of its field's default:
    bools take only bools, ints only non-bool ints, floats ints or floats,
    and the None-default fields (sigma, epsilon) a float or null."""
    if default is None:
        return value is None or _config_value_ok(value, 0.0)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    return isinstance(value, int if isinstance(default, int) else (int, float))


def _settings(args, refused=()) -> dict:
    """Every setting's value: its default, then the --config file's, then the
    flag's. Giving a setting in ``refused`` either way is a usage error."""
    loaded = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise IngestionError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IngestionError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - set(SETTINGS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if not _config_value_ok(value, SETTINGS[key]):
                raise UsageError(f"config key {key!r} has the wrong type: {value!r}")
    flags = {key: getattr(args, key) for key in SETTINGS if getattr(args, key, None) is not None}
    given = sorted((set(loaded) | set(flags)) & set(refused))
    if given:
        raise UsageError(f"{args.command} sets {given} itself; drop them from flags and config")
    return {**SETTINGS, **loaded, **flags}


def _train_config(values: dict) -> training.TrainConfig:
    """The TrainConfig of resolved settings; sigma is 0 when not given."""
    sigma = 0.0 if values["sigma"] is None else values["sigma"]
    return training.TrainConfig(
        **{key: values[key] for key in SETTINGS if key not in DP_FIELDS and key != "epsilon"},
        dp=dp.DpConfig(clip_norm=values["clip"], noise_multiplier=sigma, delta=values["delta"]),
    )


def _record(cfg: training.TrainConfig, skip=("epsilon",)) -> dict:
    """A manifest's record of a train config: every setting but those in skip,
    read back from cfg (so a calibrated sigma is recorded as run)."""
    return {
        key: getattr(cfg.dp, DP_FIELDS[key]) if key in DP_FIELDS else getattr(cfg, key)
        for key in SETTINGS
        if key not in skip
    }


def _sigma(sigma, epsilon, delta: float, n: int, batch: int, releases: int):
    """The noise multiplier: sigma as given, or calibrated so that ``releases``
    noisy releases at sample rate batch / n spend epsilon at delta."""
    if sigma is not None and epsilon is not None:
        raise UsageError("--epsilon and --sigma are mutually exclusive")
    if epsilon is None:
        return sigma
    return dp.calibrate_sigma(dp.PrivacySpec(epsilon, delta), dp.sample_rate(n, batch), releases)


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    values = _settings(args)
    cfg = _train_config(values)
    clock = time.perf_counter()
    data = tabular.read_csv(args.data)
    timings = {"read": time.perf_counter() - clock}
    clock = time.perf_counter()
    sigma = _sigma(
        values["sigma"], values["epsilon"], cfg.dp.delta, data.n, cfg.batch, cfg.releases
    )
    if values["epsilon"] is not None:
        timings["calibrate"] = time.perf_counter() - clock
    if sigma is not None:
        cfg = replace(cfg, dp=replace(cfg.dp, noise_multiplier=sigma))

    pre = tabular.fit_preprocessor(data)
    standardized = tabular.transform(pre, data)
    g, f, report = training.train(standardized, cfg)
    timings["train"] = report.wall_clock

    out = _out_dir(args)
    models.save_checkpoint(out / "checkpoint.json", g, f)
    tabular.save_preprocessor(out / "preprocessor.json", pre)
    _write_json(out / "report.json", report.to_dict())
    outputs = ["checkpoint.json", "preprocessor.json", "report.json"]
    _manifest(out, "train", _record(cfg), cfg.seed, [args.data], outputs, t0, timings=timings)
    if report.non_private:
        print("non-private run (sigma = 0): epsilon = inf")
    else:
        print(f"epsilon = {report.epsilon:.6g} at delta = {report.delta:g}")
    return 0


# ---------------------------------------------------------------- generate

# Rows per synthesis block. Every temporary of sample_batch and the inverse
# transform then holds at most 1,024 x d floats, 80 KB at d = 10: it stays
# in L2 cache and, up to d = 15, under glibc's 128 KB mmap threshold, so it
# is not mapped and unmapped per call. With one BLAS thread on a 2-CPU Xeon,
# sample_batch on 25,000 x 10 took 62 ms in one call and 16 ms in 1,024-row
# blocks (29 ms in 512-row blocks, 25 ms in 2,048- and 4,096-row ones).
_SYNTH_BLOCK_ROWS = 1024


def _synthesize(g, n: int, seed: int, pre=None) -> tabular.Table:
    """``n`` synthetic rows: the generator run on the noise
    ``default_rng(seed).standard_normal((n, d))``, inverse-transformed by
    ``pre`` if given, then named by ``pre`` or ``x1``, ``x2``, ...

    Each block of rows draws its noise into the preallocated table, runs
    the generator on it and writes the inverse-transformed rows back, so
    the table is the only array of ``n`` rows. Blocks start at row 0, so
    the rows depend only on the model, ``n`` and the seed. Raises
    ``NumericError`` at the first block holding a non-finite value.
    """
    names = pre.names if pre is not None else tuple(f"x{j + 1}" for j in range(g.d))
    rng = np.random.default_rng(seed)
    values = np.empty((n, g.d))
    # A lone last row joins the block before it: numpy multiplies a one-row
    # matrix with gemv, whose last bits differ from gemm's, which computes
    # that row when the table is sampled in one call.
    starts = range(0, max(n - 1, 1), _SYNTH_BLOCK_ROWS)
    for start, stop in zip(starts, [*starts[1:], n]):
        block = values[start:stop]
        rng.standard_normal(out=block)  # the numbers of one (n, d) draw, in row order
        block[:] = models.sample_batch(g, block)
        if pre is not None:
            block[:] = tabular.inverse_transform(pre, tabular.Table(names, block)).values
        # min and max carry any NaN or infinity without a mask the block's size
        if not (math.isfinite(block.min()) and math.isfinite(block.max())):
            raise NumericError("the model generated non-finite values; nothing was written")
    return tabular.Table(names, values)


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    _check_seed(args.seed)
    g, _ = models.load_checkpoint(args.model)
    pre = None
    if args.preprocessor is not None:
        pre = tabular.load_preprocessor(args.preprocessor)
        if len(pre.names) != g.d:
            raise UsageError(
                f"preprocessor covers {len(pre.names)} columns but model has {g.d}"
            )
    _check_table_size(args.n, g.d)

    table = _synthesize(g, args.n, args.seed, pre)
    out = _out_dir(args)
    tabular.write_csv(table, out / "synthetic.csv")
    inputs = [args.model] + ([args.preprocessor] if args.preprocessor else [])
    _manifest(out, "generate", {"n": args.n}, args.seed, inputs, ["synthetic.csv"], t0)
    return 0


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    synthetic = tabular.read_csv(args.synthetic)
    test = tabular.read_csv(args.test)
    if synthetic.names != test.names:
        raise UsageError(
            f"column mismatch: synthetic has {synthetic.names}, test has {test.names}"
        )
    report = metrics.metric_report(synthetic, test, bins=args.bins, target=args.target)
    out = _out_dir(args)
    _write_json(out / "metrics.json", report.to_dict())
    config = {"bins": args.bins, "target": args.target}
    inputs = [args.synthetic, args.test]
    _manifest(out, "evaluate", config, None, inputs, ["metrics.json"], t0, timings=report.timings)
    return 0


# ----------------------------------------------------------------- account


def cmd_account(args) -> int:
    t0 = time.perf_counter()
    if args.epsilon is None and args.sigma is None:
        raise UsageError("one of --sigma (forward) or --epsilon (calibration) is required")
    sigma = _sigma(args.sigma, args.epsilon, args.delta, args.n, args.batch, args.steps)
    report = dp.account_report(args.n, args.batch, sigma, args.steps, args.delta)
    if args.epsilon is not None:
        report["target_epsilon"] = args.epsilon
        report["calibrated_sigma"] = sigma
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out is not None:
        out = _out_dir(args)
        _write_json(out / "account.json", report)
        _manifest(out, "account", report, None, [], ["account.json"], t0)
    return 0


# --------------------------------------------------------------- benchmark

SWEEP_FIELDS = {"d_lr": "eta_nu", "g_lr": "eta_theta", "lambda": "lam", "gamma": "gamma"}
# Settings benchmark sets itself, besides the swept field: the seed per
# repeat and sigma per grid point; it has no epsilon.
BENCHMARK_SETS = ("seed", "sigma", "epsilon")


def cmd_benchmark(args) -> int:
    t0 = time.perf_counter()
    field_name = SWEEP_FIELDS[args.sweep]
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
        sigmas = [float(v) for v in args.sigmas.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"grids must be comma-separated numbers: {exc}") from exc
    if not grid or not sigmas:
        raise UsageError("--grid and --sigmas must be non-empty")
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    if args.d < 2:
        raise UsageError(f"--d must be >= 2 (the two-way TVD needs two columns), got {args.d}")
    _check_table_size(args.n, args.d)
    base = _train_config(_settings(args, refused=BENCHMARK_SETS + (field_name,)))
    rows = []
    for rep in range(args.repeats):
        dag = semdata.sample_er_dag(args.d, args.d, seed=rep)
        spec = semdata.SemSpec(kind=args.kind)
        weights = semdata.sample_weights(dag, spec, seed=rep)
        train_tab = semdata.simulate(dag, weights, spec, args.n, seed=rep)
        test_tab = semdata.simulate(dag, weights, spec, args.n, seed=rep + 100_000)
        pre = tabular.fit_preprocessor(train_tab)
        standardized = tabular.transform(pre, train_tab)
        for sigma in sigmas:
            for value in grid:
                cfg = replace(
                    base,
                    seed=rep,
                    dp=replace(base.dp, noise_multiplier=sigma),
                    **{field_name: value},
                )
                g, _, _ = training.train(standardized, cfg)
                synth = _synthesize(g, args.n, rep + 200_000, pre)
                rep_metrics = metrics.metric_report(synth, test_tab)
                rows.append(
                    {
                        "param": value,
                        "sigma": sigma,
                        "seed": rep,
                        "wd": rep_metrics.wd,
                        "tvd": rep_metrics.tvd_2way,
                        "mmd": rep_metrics.mmd,
                        "js": rep_metrics.js,
                    }
                )

    out = _out_dir(args)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["param", "sigma", "seed", "wd", "tvd", "mmd", "js"])
        writer.writeheader()
        writer.writerows(rows)
    config = _record(base, skip=BENCHMARK_SETS)
    config.update(
        {
            "sweep": args.sweep,
            "field": field_name,
            "grid": grid,
            "sigmas": sigmas,
            "repeats": args.repeats,
            "d": args.d,
            "n": args.n,
            "kind": args.kind,
        }
    )
    _manifest(out, "benchmark", config, None, [], ["sweep.csv"], t0)
    return 0


# ------------------------------------------------------------------ parser


def _add_train_flags(p: argparse.ArgumentParser, skip=()) -> None:
    """One flag per setting but those in skip: its dashed and underscored
    spellings, and its paper alias."""
    p.add_argument("--config", help="JSON file of settings; flags override it")
    for key, default in SETTINGS.items():
        if key in skip:
            continue
        flag = f"--{key}"
        spellings = dict.fromkeys([flag.replace("_", "-"), flag, PAPER_ALIASES.get(key, flag)])
        if isinstance(default, bool):
            p.add_argument(*spellings, dest=key, action="store_true", default=None)
        else:
            p.add_argument(*spellings, dest=key, type=int if isinstance(default, int) else float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsynth",
        description="Differentially private tabular synthesis with sequential GANs.",
    )
    parser.add_argument("--version", action="version", version=f"dpsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a table from a random structural equation model")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", choices=("er", "sf"), default="er")
    p.add_argument("--edges", type=float, help="expected edge count (er graphs)")
    p.add_argument("--attach", type=int, help="attachments per new node (sf graphs)")
    p.add_argument("--kind", choices=("linear", "nonlinear"), default="linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fit the generator on a CSV table")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("generate", help="sample synthetic rows from a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preprocessor", help="undo standardization on the way out")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score a synthetic table against held-out rows")
    p.add_argument("--synthetic", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--target", help="column for downstream-model efficacy")
    p.add_argument("--bins", type=int, default=metrics.DEFAULT_BINS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("account", help="privacy cost of a run, forward or calibrated")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float, default=dp.DEFAULT_DELTA)
    p.add_argument("--out")

    # no abbreviations: --sigma would otherwise be read as --sigmas
    p = sub.add_parser(
        "benchmark", help="sweep one knob over a grid of noise levels", allow_abbrev=False
    )
    p.add_argument("--sweep", choices=sorted(SWEEP_FIELDS), required=True)
    p.add_argument("--grid", required=True, help="comma-separated values for the swept knob")
    p.add_argument("--sigmas", default="0", help="comma-separated noise multipliers")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--kind", choices=("linear", "nonlinear"), default="linear")
    p.add_argument("--out", required=True)
    _add_train_flags(p, skip=BENCHMARK_SETS)

    return parser


# The parser main reuses: building all six subparsers costs about 3 ms, a
# parse about 0.1 ms. Each parse fills a fresh namespace from the defaults.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that a replaced module attribute is the one run
    run = globals()[f"cmd_{args.command}"]
    try:
        return run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
