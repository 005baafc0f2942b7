import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from dpsynth import dp, models, semdata, tabular, training
from dpsynth.errors import TrainingDiverged, UsageError
from dpsynth.tabular import Table
from naive_models import naive_run_phase


def small_data(seed=0, d=3, n=60, kind="linear"):
    spec = semdata.SemSpec(kind=kind)
    dag = semdata.sample_er_dag(d, d, seed=seed)
    w = semdata.sample_weights(dag, spec, seed=seed)
    t = semdata.simulate(dag, w, spec, n, seed=seed)
    return tabular.transform(tabular.fit_preprocessor(t), t)


def test_lambda_schedule_values():
    def sched(lam, gamma, d):
        cfg = training.TrainConfig(lam=lam, gamma=gamma)
        return models.PenaltySchedule(cfg.lam, cfg.gamma).values(d)

    np.testing.assert_array_equal(sched(0.003, 0.0, 4), [0.003] * 4)
    np.testing.assert_array_equal(sched(0.0, 1.7, 3), np.zeros(3))
    lam20 = sched(0.003, 0.2, 20)[-1]
    assert abs(lam20 - 0.003 * 20**0.2) < 1e-15
    assert abs(lam20 - 0.0054617) < 1e-6


def test_poisson_batch_behaviour():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(training.poisson_batch(7, 1.0, rng), np.arange(7))
    a = training.poisson_batch(100, 0.3, np.random.default_rng(5))
    b = training.poisson_batch(100, 0.3, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(UsageError):
        training.poisson_batch(10, 0.0, rng)
    with pytest.raises(UsageError):
        training.poisson_batch(0, 0.5, rng)


def test_poisson_batch_mean_size_monte_carlo():
    q = 0.004
    n = 12384
    rng = np.random.default_rng(11)
    sizes = [training.poisson_batch(n, q, rng).size for _ in range(10_000)]
    want = q * n  # 49.536
    assert abs(np.mean(sizes) - want) / want < 0.03


def test_config_validation():
    with pytest.raises(UsageError):
        training.TrainConfig(steps=0)
    with pytest.raises(UsageError):
        training.TrainConfig(batch=0)
    with pytest.raises(UsageError):
        training.TrainConfig(t_g=0)
    with pytest.raises(UsageError):
        training.TrainConfig(eta_theta=0.0)
    with pytest.raises(UsageError):
        training.TrainConfig(lam=-1.0)
    with pytest.raises(UsageError):
        training.TrainConfig(clamp=0.0)
    assert training.TrainConfig().t_g == 10


def test_no_generator_step_before_t_g():
    data = small_data()
    cfg = training.TrainConfig(
        steps=1, batch=10, t_g=2, seed=3, dp=dp.DpConfig(noise_multiplier=0.0)
    )
    g, f, rep = training.train(data, cfg)
    assert rep.gen_updates == 0
    # the generator still has its untouched init: re-derive it from the same seed
    rng_init = training._streams(3)[0]
    g0 = models.new_generator(data.d, rng_init)
    np.testing.assert_array_equal(g.theta, g0.theta)


def test_generator_update_count_is_floor_T_over_tg():
    data = small_data()
    for steps, t_g in [(20, 7), (21, 7), (5, 10), (30, 1)]:
        cfg = training.TrainConfig(
            steps=steps, batch=10, t_g=t_g, seed=1, dp=dp.DpConfig(noise_multiplier=0.0)
        )
        _, _, rep = training.train(data, cfg)
        assert rep.gen_updates == steps // t_g


def test_run_is_deterministic():
    data = small_data()
    for sigma in (0.0, 1.5):
        cfg = training.TrainConfig(
            steps=25, batch=10, t_g=5, seed=9, dp=dp.DpConfig(noise_multiplier=sigma)
        )
        g1, f1, r1 = training.train(data, cfg)
        g2, f2, r2 = training.train(data, cfg)
        np.testing.assert_array_equal(g1.theta, g2.theta)
        np.testing.assert_array_equal(f1.nu, f2.nu)
        assert r1.to_dict() == r2.to_dict()


class CountingTable(Table):
    calls = 0
    rows_read = 0

    def rows(self, idx):
        CountingTable.calls += 1
        CountingTable.rows_read += np.asarray(idx).size
        return super().rows(idx)


def test_private_rows_are_read_only_by_the_critic_path():
    base = small_data()
    counts = {}
    for t_g in (1, 40):
        CountingTable.calls = 0
        CountingTable.rows_read = 0
        data = CountingTable(base.names, base.values.copy())
        cfg = training.TrainConfig(
            steps=40, batch=10, t_g=t_g, seed=7, dp=dp.DpConfig(noise_multiplier=0.0)
        )
        training.train(data, cfg)
        counts[t_g] = (CountingTable.calls, CountingTable.rows_read)
        assert CountingTable.calls <= 40  # at most one read per step
    # forty generator updates versus one: not a single extra row read
    assert counts[1] == counts[40]


def test_ledger_matches_from_scratch_recomputation():
    data = small_data()
    cfg = training.TrainConfig(
        steps=30, batch=10, t_g=5, seed=2, dp=dp.DpConfig(noise_multiplier=1.2)
    )
    _, _, rep = training.train(data, cfg)
    q = 10 / data.n
    assert rep.epsilon == dp.account_report(data.n, 10, 1.2, 30, cfg.dp.delta)["epsilon"]
    assert rep.sample_rate == q
    assert not rep.non_private


def test_nonprivate_report_flags():
    data = small_data()
    cfg = training.TrainConfig(steps=10, batch=10, seed=0, dp=dp.DpConfig(noise_multiplier=0.0))
    _, _, rep = training.train(data, cfg)
    assert rep.non_private
    assert rep.epsilon == math.inf
    assert rep.to_dict()["epsilon"] is None  # JSON uses null for infinity
    assert rep.wall_clock > 0


def test_empty_batches_are_skipped_but_accounted():
    rng = np.random.default_rng(0)
    data = Table(("a", "b"), rng.standard_normal((100, 2)))
    cfg = training.TrainConfig(
        steps=60, batch=1, t_g=10, seed=4, dp=dp.DpConfig(noise_multiplier=1.0)
    )
    _, _, rep = training.train(data, cfg)
    assert rep.steps == 60  # every step accounted, empty or not
    rng_batch = training._streams(4)[1]  # replay the run's batch draws
    sizes = [training.poisson_batch(100, 0.01, rng_batch).size for _ in range(60)]
    assert 0 in sizes  # q = 0.01 surely yields empty batches
    assert rep.epsilon == dp.account_report(100, 1, 1.0, 60, cfg.dp.delta)["epsilon"]


def test_divergence_guard_raises():
    data = small_data()
    cfg = training.TrainConfig(
        steps=200,
        batch=20,
        t_g=1,
        eta_theta=1e5,
        eta_nu=0.5,
        clamp=2.0,
        seed=0,
        dp=dp.DpConfig(noise_multiplier=0.0),
    )
    with pytest.raises(TrainingDiverged):
        training.train(data, cfg)


def test_divergence_carries_step_phase_and_epsilon_spent():
    data = small_data()
    cfg = training.TrainConfig(
        steps=200, batch=20, t_g=5, eta_theta=1e5, seed=0, dp=dp.DpConfig(noise_multiplier=1.0)
    )
    with pytest.raises(TrainingDiverged) as info:
        training.train(data, cfg)
    exc = info.value
    assert exc.phase == 1 and exc.step % cfg.t_g == 0 and 0 < exc.step < cfg.steps
    q = dp.sample_rate(data.n, cfg.batch)
    assert exc.epsilon == dp.eps_and_order(exc.step * dp.rdp(q, 1.0, 1), cfg.dp.delta)[0]
    assert 0.0 < exc.epsilon < dp.account_report(data.n, cfg.batch, 1.0, cfg.steps, cfg.dp.delta)["epsilon"]
    assert str(exc).startswith("generator parameters reach max |theta|")
    assert f"at step {exc.step} of phase 1; epsilon spent so far {exc.epsilon:g}" in str(exc)


def test_divergence_in_phase_two_counts_both_phases(monkeypatch):
    privatize, calls = dp.privatize, []

    def nan_at_eighth(grads, cfg, rng):
        calls.append(1)
        release = privatize(grads, cfg, rng)
        return release * np.nan if len(calls) == 8 else release

    monkeypatch.setattr(dp, "privatize", nan_at_eighth)
    # q = 30/60: an empty batch is a 1e-18 event, so call 8 is step 3 of phase 2
    cfg = training.TrainConfig(steps=5, batch=30, seed=0, two_step=True, dp=dp.DpConfig(noise_multiplier=1.0))
    with pytest.raises(TrainingDiverged, match="release at step 3 of phase 2") as info:
        training.train(small_data(), cfg)
    assert (info.value.step, info.value.phase) == (3, 2)
    assert info.value.epsilon == dp.account_report(60, 30, 1.0, 8, cfg.dp.delta)["epsilon"]


def test_divergence_guard_reads_the_noisy_release(monkeypatch):
    monkeypatch.setattr(dp, "privatize", lambda grads, cfg, rng: np.full(grads.shape[1], np.nan))
    cfg = training.TrainConfig(steps=5, batch=10, seed=0, dp=dp.DpConfig(noise_multiplier=1.0))
    with pytest.raises(TrainingDiverged, match="release at step 1"):
        training.train(small_data(), cfg)


def test_batch_larger_than_table_rejected():
    data = small_data(n=20)
    with pytest.raises(UsageError):
        training.train(data, training.TrainConfig(steps=5, batch=21))


def test_two_step_tau_zero_keeps_everything():
    data = small_data()
    cfg = training.TrainConfig(
        steps=15, batch=10, t_g=5, tau=0.0, seed=5, dp=dp.DpConfig(noise_multiplier=0.0)
    )
    g, f, rep = training.train_two_step(data, cfg)
    assert rep.freeze_mask is not None
    # tau = 0 only prunes rows that are exactly zero; random init has none
    assert not any(any(m) for m in rep.freeze_mask)


def test_two_step_huge_tau_freezes_all_prefix_rows():
    data = small_data()
    cfg = training.TrainConfig(
        steps=12, batch=10, t_g=4, tau=1e9, seed=6, dp=dp.DpConfig(noise_multiplier=0.0)
    )
    g, f, rep = training.train_two_step(data, cfg)
    for jj, s in enumerate(g.subs):
        np.testing.assert_array_equal(s.frozen[:-1], np.ones(jj, dtype=bool))
        assert not s.frozen[-1]
        assert np.all(s.w_in[:-1] == 0.0)
        assert np.all(s.skip[:-1] == 0.0)
    # causality probe: with every prefix severed, column k reacts only to Z^k
    Z = np.random.default_rng(0).standard_normal((1, data.d))
    base = models.sample_batch(g, Z)[0]
    for k in range(data.d):
        Z2 = Z.copy()
        Z2[0, k] += 1.0
        moved = models.sample_batch(g, Z2)[0]
        changed = np.flatnonzero(moved != base)
        np.testing.assert_array_equal(changed, [k])


def test_train_with_two_step_set_is_train_two_step():
    data = small_data(seed=3, d=4, n=80)
    cfg = training.TrainConfig(
        steps=20, batch=10, t_g=3, tau=0.12, seed=9, dp=dp.DpConfig(noise_multiplier=1.5)
    )
    g1, f1, rep1 = training.train(data, replace(cfg, two_step=True))
    g2, f2, rep2 = training.train_two_step(data, cfg)
    np.testing.assert_array_equal(g1.theta, g2.theta)
    np.testing.assert_array_equal(f1.nu, f2.nu)
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.steps == 40 and rep1.freeze_mask is not None


def test_two_step_model_rebuilt_from_its_checkpoint_samples_identically():
    # phase two updates the pruned model's theta; its parameter arrays must
    # see those updates, or the checkpoint and the in-memory model part ways
    data = small_data(seed=3, d=4, n=80)
    cfg = training.TrainConfig(steps=20, batch=10, t_g=3, tau=0.12, seed=9)
    g, f, report = training.train_two_step(data, cfg)
    assert report.gen_updates == 12
    g2, _ = models.from_checkpoint_dict(models.checkpoint_dict(g, f))
    Z = np.random.default_rng(4).standard_normal((16, data.d))
    np.testing.assert_array_equal(models.sample_batch(g2, Z), models.sample_batch(g, Z))


def test_two_step_ledger_covers_both_phases():
    data = small_data()
    cfg = training.TrainConfig(
        steps=20, batch=10, t_g=5, seed=8, dp=dp.DpConfig(noise_multiplier=1.5)
    )
    _, _, rep = training.train_two_step(data, cfg)
    assert rep.steps == 40
    assert cfg.releases == 20 and replace(cfg, two_step=True).releases == rep.steps
    assert rep.epsilon_phase1 == dp.account_report(data.n, 10, 1.5, 20, cfg.dp.delta)["epsilon"]
    assert rep.epsilon == dp.account_report(data.n, 10, 1.5, 40, cfg.dp.delta)["epsilon"]
    assert rep.epsilon_phase1 < rep.epsilon


def test_two_step_frozen_rows_stay_zero_through_phase_two():
    data = small_data(seed=3, d=4, n=80)
    cfg = training.TrainConfig(
        steps=30, batch=10, t_g=3, tau=0.12, seed=11, dp=dp.DpConfig(noise_multiplier=0.0)
    )
    g, f, rep = training.train_two_step(data, cfg)
    hit_any = False
    for s, m in zip(g.subs, rep.freeze_mask):
        for k, frozen in enumerate(m[:-1]):
            if frozen:
                hit_any = True
                assert np.all(s.w_in[k] == 0.0)
                assert s.skip[k] == 0.0
    assert hit_any  # tau chosen so the prune actually bites


def test_trace_length_and_report_dict_round_trip():
    data = small_data()
    cfg = training.TrainConfig(steps=18, batch=10, t_g=6, seed=12, dp=dp.DpConfig(noise_multiplier=0.0))
    _, _, rep = training.train(data, cfg)
    d = rep.to_dict()
    assert "trace" not in d  # per-step critic means over real rows are not released
    assert d["gen_updates"] == 3
    assert len(d["row_norm_table"]) == data.d
    assert d["freeze_mask"] is None


@pytest.mark.parametrize(
    "sigma,t_g,batch,two_step",
    [
        (0.0, 1, 10, False),
        (0.0, 5, 10, False),
        (1.5, 7, 10, False),
        (1.5, 5, 1, False),  # q = 1/60: some batches come up empty
        (0.0, 7, 10, True),
        (1.5, 5, 10, True),
    ],
)
def test_windowed_loop_matches_per_step_loop(monkeypatch, sigma, t_g, batch, two_step):
    data = small_data()
    cfg = training.TrainConfig(
        steps=23, batch=batch, t_g=t_g, tau=0.12, seed=13, two_step=two_step,
        dp=dp.DpConfig(noise_multiplier=sigma),
    )
    g, f, rep = training.train(data, cfg)
    monkeypatch.setattr(training, "_run_phase", naive_run_phase)
    g_ref, f_ref, rep_ref = training.train(data, cfg)
    np.testing.assert_allclose(g.theta, g_ref.theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(f.nu, f_ref.nu, rtol=0, atol=1e-12)
    assert rep.gen_updates == rep_ref.gen_updates == (2 if two_step else 1) * (23 // t_g)
    if batch == 1:
        rng_batch = training._streams(13)[1]
        assert any(training.poisson_batch(data.n, 1 / data.n, rng_batch).size == 0 for _ in range(23))


@pytest.mark.parametrize("two_step", [False, True])
def test_one_batch_draw_per_step_and_one_sampling_pass_per_window(monkeypatch, two_step):
    calls = {"poisson_batch": 0, "sample_batch": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(training, "poisson_batch")
    counted(models, "sample_batch")
    cfg = training.TrainConfig(
        steps=23, batch=10, t_g=5, seed=14, two_step=two_step, dp=dp.DpConfig(noise_multiplier=1.0)
    )
    training.train(small_data(), cfg)
    phases = 2 if two_step else 1
    assert calls["poisson_batch"] == phases * 23
    assert 1 <= calls["sample_batch"] <= phases * math.ceil(23 / 5)


class _AuditedTable(Table):
    """A Table that counts ``rows`` calls and records which functions read
    ``values``."""

    def __init__(self, names, values):
        super().__init__(names, values)
        self.rows_calls = 0
        self.readers = set()

    @property
    def values(self):
        if hasattr(self, "readers"):
            self.readers.add(sys._getframe(1).f_code.co_qualname)
        return self._values

    @values.setter
    def values(self, v):
        self._values = v

    def rows(self, idx):
        self.rows_calls += 1
        return super().rows(idx)


@pytest.mark.parametrize("two_step", [False, True])
def test_private_rows_are_read_once_per_nonempty_batch(two_step):
    base = small_data()
    data = _AuditedTable(base.names, base.values)
    cfg = training.TrainConfig(
        steps=40, batch=2, t_g=5, seed=8, two_step=two_step, dp=dp.DpConfig(noise_multiplier=1.0)
    )
    training.train(data, cfg)
    rng_batch = training._streams(cfg.seed)[1]  # replay the run's batch draws
    phases = 2 if two_step else 1
    sizes = [training.poisson_batch(data.n, cfg.batch / data.n, rng_batch).size for _ in range(phases * 40)]
    assert 0 in sizes and any(sizes)
    assert data.rows_calls == sum(1 for size in sizes if size)
    assert "Table.rows" in data.readers
    assert data.readers <= {"Table.n", "Table.d", "Table.rows"}
