"""Turn a finished session into the end-to-end or the per-layer metrics.

Per-layer statistics come only from traced iterations. Definitions:

- ``us_per_call`` / ``ms``: mean inclusive span time per call;
- ``self_us_per_call``: mean self time (span minus direct child spans);
- ``self_share``: summed self time over summed command (root span) time;
- ``calls``: calls per loop iteration (every iteration does identical work,
  so these are exact integers and repeat from run to run);
- ``cli.<command>.self_ms``: per command, the time spent in cli code itself,
  i.e. the part of the command not covered by a span of another layer; a
  layer that is not wrapped shows up here as a large remainder.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .tracer import roots, self_times, totals

# name -> (unit, better); the order is the order printed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_steps_per_s": ("steps/s", "higher"),
    "wall_s": ("s", "lower"),
    "generate_rows_per_s": ("rows/s", "higher"),
    "evaluate_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "synth_wd": ("std", "lower"),
}

COMMANDS = ("train", "generate", "evaluate")
EVALUATE_METRICS = (
    "median_bandwidth", "mmd", "tvd_2way", "tvd_1way", "js_divergence", "wd_table", "downstream_efficacy",
)  # fmt: skip


def _median(values):
    return statistics.median(values) if values else 0.0


def _values(samples) -> list:
    return [value for value, _ in samples]


def end_to_end(session) -> dict:
    """Medians over the timed loop of samples brought to nominal host speed
    (``hostspeed``). ``setup_s`` and ``wall_s`` add the medians of one
    iteration's commands: the ``<command>.setup`` and ``<command>.duration``
    samples."""
    samples, reference = session.samples, session.reference

    def nominal(name):
        rate = name.endswith("_per_s")
        scaled = []
        for value, at in samples.get(name, []):
            speed = reference.speed_at(at)
            scaled.append(value / speed if rate else value * speed)
        return _median(scaled)

    values = {
        "setup_s": sum(nominal(n) for n in samples if n.endswith(".setup")),
        "train_steps_per_s": nominal("train_steps_per_s"),
        "wall_s": sum(nominal(n) for n in samples if n.endswith(".duration")),
        "generate_rows_per_s": nominal("generate_rows_per_s"),
        "evaluate_s": nominal("evaluate.duration"),
    }
    values["peak_rss_mb"] = session.peak_rss_mb or 0.0
    values["synth_wd"] = session.synth_wd or 0.0
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def sample_summary(session) -> dict:
    """Sample count, minimum, median and maximum of every sample series and
    of the reference loop, as measured (not scaled to nominal speed)."""
    sampled = {name: _values(v) for name, v in session.samples.items()}
    sampled["reference_s"] = session.reference.durations
    return {
        name: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
        for name, v in sorted(sampled.items())
        if v
    }


def trace_overhead(session) -> float:
    """Slowdown of traced over untraced iterations, as a share: from
    train_steps_per_s where the loop trains, from the iteration's command
    time otherwise. As measured: neighbouring iterations share the host."""
    plain, traced = session.samples, session.traced_samples
    for name, slower in (("train_steps_per_s", False), ("iteration_s", True)):
        if plain.get(name) and traced.get(name):
            ratio = _median(_values(traced[name])) / _median(_values(plain[name]))
            return (ratio if slower else 1.0 / ratio) - 1.0
    return 0.0


def _cli_self(spans, runs) -> dict:
    """Command name -> list of per-command cli self times."""
    runs = set(runs)
    selfs = self_times(spans)
    root_of = roots(spans)
    per_root = defaultdict(float)
    for i, span in enumerate(spans):
        if span.run in runs and span.name.startswith("cli."):
            per_root[root_of[i]] += selfs[i]
    out = defaultdict(list)
    for root, t in per_root.items():
        out[spans[root].name[len("cli.") :]].append(t)
    return out


def per_layer(session) -> dict:
    tracer = session.tracer
    runs = set(session.traced_runs)
    iterations = max(1, len(runs))
    by_name, root_time = totals(tracer.spans, runs)
    counts = tracer.counts
    notes = {name: [v for run, v in pairs if run in runs] for name, pairs in tracer.notes.items()}
    notes = defaultdict(list, notes)

    def calls(name):
        return counts[name] if name in counts else by_name[name].calls

    def per_call(name, scale):
        t = by_name[name]
        return t.total / t.calls * scale if t.calls else 0.0

    def self_per_call(name, scale):
        t = by_name[name]
        return t.self_time / t.calls * scale if t.calls else 0.0

    def share(name):
        return by_name[name].self_time / root_time if root_time else 0.0

    def rate(name):
        t = by_name[name]
        return sum(notes[name]) / t.total if t.total else 0.0

    def mean_note(name, scale=1.0):
        return statistics.fmean(notes[name]) * scale if notes[name] else 0.0

    def ratio(a, b):
        return calls(a) / calls(b) if calls(b) else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("dp.privatize.us_per_call", per_call("dp.privatize", 1e6), "us")
    put("dp.privatize.self_share", share("dp.privatize"), "ratio")
    put("dp.clip_grad.calls", calls("dp.clip_grad") / iterations, "count")
    put("models.sample_batch.us_per_call", per_call("models.sample_batch", 1e6), "us")
    put("models.sample_batch.calls", calls("models.sample_batch") / iterations, "count")
    put("models.sample_batch.rows_per_call", mean_note("models.sample_batch"), "rows")
    put(
        "models.disc_loss_grads_batch.self_us_per_call",
        self_per_call("models.disc_loss_grads_batch", 1e6),
        "us",
    )
    put("models.generator_grad.us_per_call", per_call("models.generator_grad", 1e6), "us")
    put("models.generator_grad.self_share", share("models.generator_grad"), "ratio")
    put("nn.leaky_relu.calls", calls("nn.leaky_relu") / iterations, "count")
    put("nn.act_grad.calls", calls("nn.act_grad") / iterations, "count")
    for pair in ("theta", "nu"):
        put(
            f"models.{pair}_flatten_set.us_per_call",
            per_call(f"models.{pair}_flatten", 1e6) + per_call(f"models.{pair}_set", 1e6),
            "us",
        )
    put("models.clip_weights.us_per_call", per_call("models.clip_weights", 1e6), "us")
    put("training.poisson_batch.us_per_call", per_call("training.poisson_batch", 1e6), "us")
    put("training.run_phase.self_share", share("training.run_phase"), "ratio")
    put("training.gen_updates", sum(_values(session.traced_samples["training.gen_updates"])) / iterations, "count")
    put(
        "training.nonempty_batch_ratio",
        ratio("models.disc_loss_grads_batch", "training.poisson_batch"),
        "ratio",
    )
    put("models.prune.ms", per_call("models.prune", 1e3), "ms")
    put("dp.ledger_compose.us_per_call", per_call("dp.ledger_compose", 1e6), "us")
    put("dp.calibrate_sigma.ms", per_call("dp.calibrate_sigma", 1e3), "ms")
    put("dp.calibrate_sigma.evals", ratio("dp.epsilon_for", "dp.calibrate_sigma"), "count")
    put("dp.rdp_subsampled_gaussian.calls", calls("dp.rdp_subsampled_gaussian") / iterations, "count")
    put("tabular.read_csv.cells_per_s", rate("tabular.read_csv"), "cells/s")
    put("tabular.write_csv.cells_per_s", rate("tabular.write_csv"), "cells/s")
    put("tabular.fit_preprocessor.ms", per_call("tabular.fit_preprocessor", 1e3), "ms")
    put("models.save_checkpoint.ms", per_call("models.save_checkpoint", 1e3), "ms")
    put("models.load_checkpoint.ms", per_call("models.load_checkpoint", 1e3), "ms")
    cli_self = _cli_self(tracer.spans, runs)
    for command in COMMANDS:
        own = cli_self.get(command, [])
        total = by_name[f"cli.{command}"].total
        put(f"cli.{command}.self_ms", statistics.fmean(own) * 1e3 if own else 0.0, "ms")
        put(f"cli.{command}.self_share", sum(own) / total if total else 0.0, "ratio")
    for fn in EVALUATE_METRICS:
        put(f"metrics.{fn}.ms", per_call(f"metrics.{fn}", 1e3), "ms")
    for fn in ("median_bandwidth", "mmd"):
        put(f"metrics.{fn}.peak_alloc_mb", mean_note(f"metrics.{fn}.peak_alloc", 1.0 / 2**20), "MB")
    put("bench.trace_overhead", trace_overhead(session), "ratio")
    return m
