from collections import defaultdict
from types import SimpleNamespace

import pytest

from perfbench import report
from perfbench.hostspeed import NOMINAL_SECONDS, Reference
from perfbench.tracer import Span
from perfbench.workloads import CHUNK_STEPS, STEP_SPAN, step_rates


def _reference(times, durations):
    ref = Reference.__new__(Reference)  # no arrays: only the timings matter here
    ref.times, ref.durations = list(times), list(durations)
    return ref


def test_speed_is_interpolated_between_the_passes_around_a_sample():
    ref = _reference([10.0, 20.0], [NOMINAL_SECONDS, 2 * NOMINAL_SECONDS])
    assert ref.speed_at(10.0) == pytest.approx(1.0)
    assert ref.speed_at(15.0) == pytest.approx(1 / 1.5)
    assert ref.speed_at(99.0) == pytest.approx(0.5)  # past the last pass: the last pass


def test_end_to_end_brings_times_and_rates_to_nominal_speed():
    ref = _reference([0.0, 10.0], [2 * NOMINAL_SECONDS, 2 * NOMINAL_SECONDS])  # host at half speed
    samples = defaultdict(list)
    samples["train.setup"] = [(0.4, 1.0)]
    samples["train.duration"] = [(3.0, 2.0), (5.0, 3.0), (4.0, 4.0)]
    samples["evaluate.duration"] = [(1.0, 5.0)]
    samples["train_steps_per_s"] = [(100.0, 1.0)]
    samples["generate_rows_per_s"] = [(1000.0, 1.0)]
    session = SimpleNamespace(samples=samples, reference=ref, peak_rss_mb=1.0, synth_wd=0.5)
    values = {name: m["value"] for name, m in report.end_to_end(session).items()}
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["wall_s"] == pytest.approx((4.0 + 1.0) / 2)  # sum of per-command medians
    assert values["evaluate_s"] == pytest.approx(0.5)
    assert values["train_steps_per_s"] == pytest.approx(200.0)
    assert values["generate_rows_per_s"] == pytest.approx(2000.0)


def test_step_rates_take_whole_chunks_within_one_phase():
    spans = [Span("training.run_phase", 0.0, 1.0, -1, 0), Span("training.run_phase", 1.0, 2.0, -1, 0)]
    steps = CHUNK_STEPS * 2 + 1
    for phase, (parent, offset) in enumerate(((0, 0.0), (1, 100.0))):
        spans += [Span(STEP_SPAN, offset + 0.01 * (phase + 1) * k, 0.0, parent, 0) for k in range(steps)]
    rates = step_rates(spans)
    assert [r for r, _ in rates] == pytest.approx([100.0, 100.0, 50.0, 50.0])
    assert rates[0][1] == pytest.approx(0.01 * CHUNK_STEPS / 2)
