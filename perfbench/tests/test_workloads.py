import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import report, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("dp.clip_grad.calls", "nn.leaky_relu.calls", "training.gen_updates", "dp.rdp_subsampled_gaussian.calls")


def _run(tmp_path, name, trace, seed=3):
    body, _, probes = workloads.WORKLOADS[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    session = workloads.Session(tmp_path, seed, 0.0, trace, probes)
    body(session, workloads.SMOKE_SIZES[name])
    return session


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, name):
    session = _run(tmp_path, name, trace=False)
    assert session.problems == []
    assert session.failed == 0 and session.attempted > 0
    metrics = report.end_to_end(session)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_reports_every_layer_metric_and_seed_free_counts(tmp_path, name):
    first = report.per_layer(_run(tmp_path / "a", name, trace=True))
    assert list(first) == [m["name"] for m in BENCHMARK["per_layer"]]
    second = report.per_layer(_run(tmp_path / "b", name, trace=True, seed=4))
    for count in COUNTS:
        assert first[count] == second[count]
        assert first[count]["value"] == int(first[count]["value"])


def test_units_match_benchmark_json(tmp_path):
    for spec in BENCHMARK["end_to_end"]:
        assert report.END_TO_END[spec["name"]] == (spec["unit"], spec["better"])
    traced = report.per_layer(_run(tmp_path, "release-d10", trace=True))
    assert {k: v["unit"] for k, v in traced.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_flipped_checkpoint_byte_counts_as_failed(tmp_path, monkeypatch):
    from dpsynth import models

    original = models.save_checkpoint
    writes = []

    def corrupting(path, g, f):
        original(path, g, f)
        writes.append(path)
        if len(writes) == 2:  # flip one digit of a weight; the JSON stays valid
            raw = bytearray(Path(path).read_bytes())
            at = raw.index(b".", raw.index(b'"nu": [')) + 1
            raw[at] = ord("7") if raw[at] != ord("7") else ord("3")
            Path(path).write_bytes(bytes(raw))

    monkeypatch.setattr(models, "save_checkpoint", corrupting)
    session = _run(tmp_path, "train-twostep-d30", trace=True)  # tracing forces two repeats
    assert session.failed >= 1
    assert any("checkpoint.json sha256" in p for p in session.problems)


def test_wrong_epsilon_counts_as_failed(tmp_path, monkeypatch):
    from dpsynth import training

    original = training._finish_report

    def nudged(*args, **kwargs):
        r = original(*args, **kwargs)
        r.epsilon *= 1.0 + 1e-9
        return r

    monkeypatch.setattr(training, "_finish_report", nudged)
    session = _run(tmp_path, "train-private-d10", trace=False)
    assert session.failed >= 1
    assert any("account_report" in p for p in session.problems)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, "perfbench/run.py", "--workload", "release-d10", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
