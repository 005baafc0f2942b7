import copy

import numpy as np

from dpsynth import dp, models
from perfbench import checks


def _report(n=12_384, batch=50, steps=2000, target=1.0):
    q = batch / n
    sigma = dp.calibrate_sigma(dp.PrivacySpec(target, 1e-5), q, steps)
    eps = dp.account_report(n, batch, sigma, steps, 1e-5)["epsilon"]
    return {"epsilon": eps, "batch": batch, "sigma": sigma, "steps": steps, "delta": 1e-5, "gen_updates": steps // 5}


def test_calibrated_epsilon_passes_and_a_wrong_one_fails():
    report = _report()
    assert checks.epsilon(report, 1.0, 12_384, dp.account_report) == []
    nudged = dict(report, epsilon=report["epsilon"] * (1 + 1e-9))
    assert checks.epsilon(nudged, 1.0, 12_384, dp.account_report)
    over = dict(report, epsilon=1.0005)
    assert len(checks.epsilon(over, 1.0, 12_384, dp.account_report)) == 2
    assert checks.epsilon(dict(report, epsilon=None), 1.0, 12_384, dp.account_report)


def test_gen_updates_per_phase():
    assert checks.gen_updates({"gen_updates": 400}, 2000, 5, phases=1) == []
    assert checks.gen_updates({"gen_updates": 200}, 500, 5, phases=2) == []
    assert checks.gen_updates({"gen_updates": 399}, 2000, 5, phases=1)


def _pruned_checkpoint():
    rng = np.random.default_rng(0)
    g = models.random_generator(5, rng)
    g, _ = models.prune(g, tau=0.6)
    f = models.new_discriminator(5, 0.5, rng)
    return models.checkpoint_dict(g, f)


def test_frozen_rows_zero_on_a_pruned_checkpoint():
    payload = _pruned_checkpoint()
    assert any(any(m) for m in payload["freeze_mask"])
    assert checks.frozen_rows_zero(payload) == []


def test_frozen_rows_zero_flags_a_nonzero_frozen_weight():
    payload = _pruned_checkpoint()
    j, slot = next((j, m.index(True)) for j, m in enumerate(payload["freeze_mask"], start=1) if any(m))
    offset = sum(k * 10 + k + 100 + 10 + 10 + 1 for k in range(1, j))  # width 10
    bad = copy.deepcopy(payload)
    bad["theta"][offset + slot * 10] = 1e-3
    assert checks.frozen_rows_zero(bad)
    assert checks.frozen_rows_zero(dict(payload, theta=payload["theta"][:-1]))


def test_flipped_checkpoint_byte_changes_the_digest(tmp_path):
    path = tmp_path / "checkpoint.json"
    rng = np.random.default_rng(0)
    models.save_checkpoint(path, models.random_generator(3, rng), models.new_discriminator(3, 0.5, rng))
    first = checks.sha256(path)
    assert checks.same_digest(first, checks.sha256(path), "checkpoint.json") == []
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    assert checks.same_digest(first, checks.sha256(path), "checkpoint.json")


def test_generated_rows_and_metrics_wd():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
    assert checks.generated_rows(a, 50, 3) == []
    assert checks.generated_rows(a, 49, 3)
    a_bad = a.copy()
    a_bad[3, 1] = np.nan
    assert checks.generated_rows(a_bad, 50, 3)
    from dpsynth import metrics

    wd = metrics.wd_table(a, b)
    assert checks.metrics_wd({"wd": wd}, a, b) == []
    assert checks.metrics_wd({"wd": wd + 1e-9}, a, b)
