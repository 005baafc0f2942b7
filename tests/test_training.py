import math
from dataclasses import replace

import numpy as np
import pytest

from dpsynth import dp, models, semdata, tabular, training
from dpsynth.errors import TrainingDiverged, UsageError
from dpsynth.tabular import Table


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
    np.testing.assert_array_equal(models.theta_flatten(g), models.theta_flatten(g0))


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
        np.testing.assert_array_equal(models.theta_flatten(g1), models.theta_flatten(g2))
        np.testing.assert_array_equal(models.nu_flatten(f1), models.nu_flatten(f2))
        assert r1.trace == r2.trace


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
    fresh = dp.epsilon_for(q, 1.2, 30, cfg.dp.delta)
    assert abs(rep.epsilon - fresh) < 1e-12
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
    assert any(v is None for v in rep.trace)  # q = 0.01 surely yields empty batches
    assert len(rep.trace) == 60
    fresh = dp.epsilon_for(0.01, 1.0, 60, cfg.dp.delta)
    assert abs(rep.epsilon - fresh) < 1e-12


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
    np.testing.assert_array_equal(models.theta_flatten(g1), models.theta_flatten(g2))
    np.testing.assert_array_equal(models.nu_flatten(f1), models.nu_flatten(f2))
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.steps == 40 and rep1.freeze_mask is not None


def test_two_step_ledger_covers_both_phases():
    data = small_data()
    cfg = training.TrainConfig(
        steps=20, batch=10, t_g=5, seed=8, dp=dp.DpConfig(noise_multiplier=1.5)
    )
    _, _, rep = training.train_two_step(data, cfg)
    q = 10 / data.n
    assert rep.steps == 40
    eps1 = dp.epsilon_for(q, 1.5, 20, cfg.dp.delta)
    eps2 = dp.epsilon_for(q, 1.5, 40, cfg.dp.delta)
    assert abs(rep.epsilon_phase1 - eps1) < 1e-12
    assert abs(rep.epsilon - eps2) < 1e-12
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
    assert len(rep.trace) == 18
    d = rep.to_dict()
    assert d["gen_updates"] == 3
    assert len(d["row_norm_table"]) == data.d
    assert d["freeze_mask"] is None
