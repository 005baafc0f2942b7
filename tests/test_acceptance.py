"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``criterion N: PASS`` line on success; a failed
assert leaves the criterion visibly red in the pytest report. Expected values
come from closed forms, independent brute-force implementations (see
``naive_metrics``), or rerun comparisons, never from the code under test.
"""

import json
import math
import time

import numpy as np
import pytest

import naive_metrics as nv
import oracles
from dpsynth import cli, dp, metrics, models, semdata, tabular, training


def _announce(num, text):
    print(f"criterion {num}: PASS ({text})")


def _linear_table(seed, d, n):
    spec = semdata.SemSpec(kind="linear")
    dag = semdata.sample_er_dag(d, d, seed=seed)
    weights = semdata.sample_weights(dag, spec, seed=seed)
    return dag, semdata.simulate(dag, weights, spec, n, seed=seed)


def _standardized(seed, d, n):
    dag, table = _linear_table(seed, d, n)
    return dag, tabular.transform(tabular.fit_preprocessor(table), table)


# ------------------------------------------------------------- criterion 1


def _fd_grad(fun, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.empty_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        dn = x0.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fun(up) - fun(dn)) / (2 * h)
    return out


def _rel_err(analytic, numeric):
    scale = max(float(np.max(np.abs(numeric))), 1.0)
    return float(np.max(np.abs(analytic - numeric))) / scale


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    width = 4
    worst = 0.0
    for d in (2, 3, 5):
        for seed in range(20):
            rng = np.random.default_rng(1000 * d + seed)
            g = models.random_generator(d, rng, width)
            f = models.new_discriminator(d, 0.5, rng)
            m = 6
            Z = rng.standard_normal((m, d))
            lams = 0.01 * np.arange(1, d + 1) ** 0.3

            analytic = models.generator_grad(f, g, Z, lams)
            probe_g, probe_f = models.from_checkpoint_dict(models.checkpoint_dict(g, f))

            def gen_obj(theta_flat):
                probe_g.theta[:] = theta_flat
                fake = models.sample_batch(probe_g, Z)
                vals, _ = models.disc_forward_batch(f, fake)
                pen = sum(
                    lam * oracles.group_lasso(np.column_stack([s.w_in, s.skip]))
                    for lam, s in zip(lams, probe_g.subs)
                )
                return -float(np.mean(vals)) + pen

            numeric = _fd_grad(gen_obj, g.theta)
            worst = max(worst, _rel_err(analytic, numeric))

            x = rng.standard_normal(d)
            z = rng.standard_normal(d)
            per_ex = models.disc_loss_grads_batch(f, x[None], models.sample_batch(g, z[None]))[0]

            def disc_loss(nu_flat):
                probe_f.nu[:] = nu_flat
                fake_row = models.sample_batch(g, z[None])
                return -(
                    models.disc_forward_batch(probe_f, x[None])[0][0]
                    - models.disc_forward_batch(probe_f, fake_row)[0][0]
                )

            numeric_nu = _fd_grad(disc_loss, f.nu)
            worst = max(worst, _rel_err(per_ex, numeric_nu))
    took = time.time() - t0
    assert worst <= 1e-5, f"max relative gradient error {worst:.3g}"
    assert took < 30, f"runtime {took:.1f}s (budget 30s)"
    _announce(1, f"gradients match central differences (max rel err {worst:.2e}, {took:.1f}s)")


# ------------------------------------------------------------- criterion 2


def test_criterion_02_accountant_closed_form():
    t0 = time.time()
    for sigma in (0.5, 1.0, 2.0, 8.0):
        for alpha, got in zip(dp.DEFAULT_ORDERS, dp.rdp(1.0, sigma, 1)):
            want = alpha / (2 * sigma**2)
            assert abs(got - want) <= 1e-12, (sigma, alpha, got, want)

    a = dp.rdp(0.02, 1.1, 3) + dp.rdp(0.02, 1.1, 4)
    b = dp.rdp(0.02, 1.1, 7)
    for ra, rb in zip(a, b):
        assert abs(ra - rb) <= 1e-12

    for target in (0.5, 1.0, 4.0):
        sigma = dp.calibrate_sigma(dp.PrivacySpec(target, 1e-5), q=0.01, steps=3000)
        achieved = dp.epsilon_for(0.01, sigma, 3000, 1e-5)
        assert achieved <= target + 1e-12
        assert achieved >= target * (1 - 1e-3), (target, achieved)
    took = time.time() - t0
    assert took < 5, f"runtime {took:.1f}s (budget 5s)"
    _announce(2, f"q=1 closed form, ledger additivity, calibration round-trip ({took:.1f}s)")


# ------------------------------------------------------------- criterion 3


def test_criterion_03_dp_mechanics():
    t0 = time.time()
    rng = np.random.default_rng(33)
    C = 0.9
    for _ in range(4):
        dim = int(rng.integers(3, 40))
        vecs = rng.standard_normal((2500, dim)) * rng.uniform(0.01, 50)
        for v in vecs:
            assert np.linalg.norm(dp.clip_grad(v, C)) <= C * (1 + 1e-12)

    sigma, B = 1.7, 16
    cfg = dp.DpConfig(clip_norm=C, noise_multiplier=sigma)
    grads = rng.standard_normal((B, 12))
    clipped_mean = np.mean([dp.clip_grad(v, C) for v in grads], axis=0)
    draws = np.array([dp.privatize(grads, cfg, rng) for _ in range(10_000)])
    noise = draws - clipped_mean
    got_std = float(noise.std())
    want_std = sigma * C / B
    assert abs(got_std - want_std) / want_std <= 0.05, (got_std, want_std)
    took = time.time() - t0
    assert took < 10, f"runtime {took:.1f}s (budget 10s)"
    _announce(3, f"clip bound exact, noise std {got_std:.4f} ≈ σC/B = {want_std:.4f} ({took:.1f}s)")


# ------------------------------------------------------------- criterion 4


def test_criterion_04_causality_invariant():
    t0 = time.time()
    for d in (3, 10):
        rng = np.random.default_rng(d)
        gens = [
            models.random_generator(d, rng),
            models.new_generator(d, rng),
        ]
        _, data = _standardized(5, d, 120)
        cfg = training.TrainConfig(
            steps=40, batch=20, t_g=5, seed=0, dp=dp.DpConfig(noise_multiplier=0.0)
        )
        trained, _, _ = training.train(data, cfg)
        gens.append(trained)
        for g in gens:
            for probe in range(100):
                prng = np.random.default_rng(10_000 * d + probe)
                Z = prng.standard_normal(d)
                k = int(prng.integers(0, d))
                Z2 = Z.copy()
                Z2[k] += prng.standard_normal() * 3
                base = models.sample_batch(g, Z[None])[0]
                moved = models.sample_batch(g, Z2[None])[0]
                assert np.array_equal(base[:k], moved[:k]), (d, probe, k)
    took = time.time() - t0
    assert took < 5, f"runtime {took:.1f}s (budget 5s)"
    _announce(4, f"prefix outputs bit-exact under later-noise perturbation ({took:.1f}s)")


# ------------------------------------------------------------- criterion 5


def test_criterion_05_metric_oracles():
    t0 = time.time()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_a = int(rng.integers(2, 11))
        n_b = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        scale = 10.0 ** rng.integers(-2, 2)
        A = rng.standard_normal((n_a, d)) * scale
        B = rng.standard_normal((n_b, d)) * scale
        names = tuple(f"c{j}" for j in range(d))
        ta, tb = tabular.Table(names, A), tabular.Table(names, B)
        bins = metrics.DEFAULT_BINS

        assert abs(metrics.wd_1d(A[:, 0], B[:, 0]) - nv.naive_wd_1d(A[:, 0], B[:, 0])) <= 1e-12
        grid = metrics.fit_grid(tb)
        lo, hi, _ = nv.naive_grid(B, bins)
        np.testing.assert_allclose(grid.lo, lo, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grid.hi, hi, rtol=0, atol=1e-12)
        assert abs(metrics.tvd_1way(ta, tb, grid) - nv.naive_tvd_1way(A, B, lo, hi, bins)) <= 1e-12
        if d >= 2:
            got_mean, got_sum = metrics.tvd_2way(ta, tb, grid)
            want_mean, want_sum = nv.naive_tvd_2way(A, B, lo, hi, bins)
            assert abs(got_mean - want_mean) <= 1e-12
            assert abs(got_sum - want_sum) <= 1e-12
        assert abs(metrics.js_divergence(ta, tb, grid) - nv.naive_js(A, B, lo, hi, bins)) <= 1e-12
        h = metrics.median_bandwidth(ta, tb)
        assert abs(metrics.mmd(ta, tb, h) - nv.naive_mmd(A, B, h)) <= 1e-12
    took = time.time() - t0
    assert took < 10, f"runtime {took:.1f}s (budget 10s)"
    _announce(5, f"all five metrics equal brute-force oracles to 1e-12 ({took:.1f}s)")


# ------------------------------------------------------------- criterion 6


SELECTION_CFG = dict(
    steps=14_000,
    batch=50,
    t_g=5,
    eta_theta=0.01,
    eta_nu=0.2,
    clamp=0.5,
    init_out_gain=2.0,
    init_noise_gain=2.0,
)


def _selection_run(seed, lam):
    spec = semdata.SemSpec(kind="linear")
    dag = semdata.sample_er_dag(10, 10, seed=seed)
    weights = semdata.sample_weights(dag, spec, seed=seed)
    table = semdata.simulate(dag, weights, spec, 2000, seed=seed)
    data = tabular.transform(tabular.fit_preprocessor(table), table)
    cfg = training.TrainConfig(
        seed=seed, lam=lam, gamma=0.0, dp=dp.DpConfig(noise_multiplier=0.0), **SELECTION_CFG
    )
    g, _, _ = training.train(data, cfg)
    norm_table = models.row_norms(g)
    _, off_mean = semdata.split_row_norms(norm_table, dag)
    pooled = np.concatenate([row for row in norm_table if row.size])
    thr = semdata.largest_gap_threshold(pooled)
    f1 = semdata.edge_f1(semdata.edges_above_threshold(norm_table, thr), dag)
    return off_mean, f1


@pytest.mark.slow  # ten 14,000-step trainings; deselect with -m "not slow"
def test_criterion_06_sparsity_recovery():
    t0 = time.time()
    ratios, f1s = [], []
    for seed in range(5):
        off_pen, f1 = _selection_run(seed, lam=0.003)
        off_free, _ = _selection_run(seed, lam=0.0)
        ratios.append(off_pen / off_free)
        f1s.append(f1)
    ratio_med = float(np.median(ratios))
    f1_med = float(np.median(f1s))
    took = time.time() - t0
    print(
        f"criterion 6 detail: off-parent norm ratio median {ratio_med:.3f} "
        f"(per-seed {[f'{r:.2f}' for r in ratios]}), "
        f"gap-threshold F1 median {f1_med:.2f} (per-seed {[f'{v:.2f}' for v in f1s]}), "
        f"{took:.0f}s"
    )
    assert took < 600, f"runtime {took:.1f}s (budget 600s)"
    assert ratio_med <= 0.5, f"penalised/unpenalised off-parent ratio {ratio_med:.3f} > 0.5"
    assert f1_med >= 0.8, f"largest-gap edge recovery F1 median {f1_med:.2f} < 0.8"
    _announce(6, f"group penalty halves off-parent norms and recovers edges ({took:.0f}s)")


# ------------------------------------------------------------- criterion 7


def test_criterion_07_two_step_pipeline():
    t0 = time.time()
    _, data = _standardized(2, 4, 300)
    cfg = training.TrainConfig(
        steps=500, batch=30, t_g=5, tau=0.08, seed=3, dp=dp.DpConfig(noise_multiplier=1.3)
    )
    g, _, report = training.train_two_step(data, cfg)

    for sub, mask in zip(g.subs, report.freeze_mask):
        for k, frozen in enumerate(mask[:-1]):
            if frozen:
                assert np.all(sub.w_in[k] == 0.0)
                assert sub.skip[k] == 0.0

    before = g.theta.copy()
    models.prune(g, cfg.tau)
    np.testing.assert_array_equal(before, g.theta)

    q = cfg.batch / data.n
    eps1 = dp.epsilon_for(q, 1.3, 500, cfg.dp.delta)
    eps2 = dp.epsilon_for(q, 1.3, 1000, cfg.dp.delta)
    assert abs(report.epsilon_phase1 - eps1) <= 1e-12
    assert abs(report.epsilon - eps2) <= 1e-12
    took = time.time() - t0
    assert took < 300, f"runtime {took:.1f}s (budget 300s)"
    _announce(7, f"masked rows zero, prune idempotent, two-phase ε composes ({took:.1f}s)")


# ------------------------------------------------------------- criterion 8


def test_criterion_08_learning_signal():
    t0 = time.time()
    reductions = []
    for seed in range(5):
        _, train_tab = _linear_table(seed, 5, 1000)
        _, held_tab = _linear_table(seed + 500, 5, 1000)
        pre = tabular.fit_preprocessor(train_tab)
        data = tabular.transform(pre, train_tab)
        held = tabular.transform(pre, held_tab)
        cfg = training.TrainConfig(
            steps=2000,
            batch=50,
            t_g=5,
            eta_theta=0.1,
            eta_nu=0.1,
            clamp=0.5,
            seed=seed,
            dp=dp.DpConfig(noise_multiplier=0.0),
        )
        rng_init = training._streams(cfg.seed)[0]
        g0 = models.new_generator(data.d, rng_init)
        zrng = np.random.default_rng(seed + 900)
        Z = zrng.standard_normal((1000, data.d))
        wd_before = metrics.wd_table(tabular.Table(held.names, models.sample_batch(g0, Z)), held)
        g, _, _ = training.train(data, cfg)
        wd_after = metrics.wd_table(tabular.Table(held.names, models.sample_batch(g, Z)), held)
        reductions.append(1.0 - wd_after / wd_before)
    med = float(np.median(reductions))
    took = time.time() - t0
    print(f"criterion 8 detail: wd_table reductions {[f'{r:.2f}' for r in reductions]}, median {med:.2f}")
    assert took < 300, f"runtime {took:.1f}s (budget 300s)"
    assert med >= 0.30, f"median wd_table reduction {med:.2%} < 30%"
    _announce(8, f"training cuts held-out wd_table by {med:.0%} (median, {took:.0f}s)")


# ------------------------------------------------------------- criterion 9


def _run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _tree_bytes(root):
    return {
        p.name: p.read_bytes()
        for p in sorted(root.iterdir())
        if p.name != "manifest.json"
    }


def test_criterion_09_cli_byte_reproducibility(tmp_path):
    t0 = time.time()
    first = tmp_path / "first"
    second = tmp_path / "second"

    def pipeline(base, sim_seed=4):
        sim = base / "sim"
        run = base / "run"
        gen = base / "gen"
        ev = base / "eval"
        acct = base / "acct"
        bench = base / "bench"
        assert _run_cli("simulate", "--d", 4, "--n", 150, "--seed", sim_seed, "--out", sim) == 0
        assert _run_cli(
            "train", "--data", sim / "data.csv", "--steps", 60, "--batch", 20,
            "--t-g", 5, "--sigma", 0, "--seed", 1, "--out", run,
        ) == 0
        assert _run_cli(
            "generate", "--model", run / "checkpoint.json", "--n", 100, "--seed", 2,
            "--preprocessor", run / "preprocessor.json", "--out", gen,
        ) == 0
        assert _run_cli(
            "evaluate", "--synthetic", gen / "synthetic.csv", "--test", sim / "data.csv",
            "--target", "x1", "--out", ev,
        ) == 0
        assert _run_cli(
            "account", "--n", 1000, "--batch", 20, "--steps", 100, "--sigma", 1.0,
            "--out", acct,
        ) == 0
        assert _run_cli(
            "benchmark", "--sweep", "lambda", "--grid", "0,0.003", "--sigmas", "0",
            "--repeats", 1, "--d", 3, "--n", 80, "--steps", 30, "--batch", 20,
            "--t-g", 5, "--out", bench,
        ) == 0
        return [sim, run, gen, ev, acct, bench]

    dirs_a = pipeline(first)
    dirs_b = pipeline(second)
    for da, db in zip(dirs_a, dirs_b):
        assert _tree_bytes(da) == _tree_bytes(db), f"outputs differ under {da.name}"
        manifest = json.loads((da / "manifest.json").read_text())
        for key in ("command", "config", "seed", "version", "inputs", "outputs", "wall_clock"):
            assert key in manifest

    # manifest-driven: rebuild the train command from the recorded config alone
    recorded = json.loads((dirs_a[1] / "manifest.json").read_text())["config"]
    redo = tmp_path / "redo"
    assert _run_cli(
        "train", "--data", dirs_a[0] / "data.csv", "--out", redo,
        "--steps", recorded["steps"], "--batch", recorded["batch"],
        "--t-g", recorded["t_g"], "--eta-theta", recorded["eta_theta"],
        "--eta-nu", recorded["eta_nu"], "--lam", recorded["lam"],
        "--gamma", recorded["gamma"], "--tau", recorded["tau"],
        "--clamp", recorded["clamp"], "--clip", recorded["clip"],
        "--sigma", recorded["sigma"], "--seed", recorded["seed"],
    ) == 0
    assert _tree_bytes(redo) == _tree_bytes(dirs_a[1])
    took = time.time() - t0
    assert took < 120, f"runtime {took:.1f}s (budget 120s)"
    _announce(9, f"all six commands byte-stable across reruns at σ=0 ({took:.1f}s)")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_reference_configuration_echo():
    t0 = time.time()
    report = dp.account_report(n=12384, batch=50, sigma=2.0, steps=7000, delta=1e-5)
    eps = report["epsilon"]
    assert eps is not None and math.isfinite(eps) and eps > 0

    q = 50 / 12384
    sigma_back = dp.calibrate_sigma(dp.PrivacySpec(eps, 1e-5), q, 7000)
    eps_back = dp.epsilon_for(q, sigma_back, 7000, 1e-5)
    assert eps_back <= eps + 1e-12
    assert eps_back >= eps * (1 - 1e-3)
    took = time.time() - t0
    _announce(
        10,
        f"σ=2.0, 7000 steps, B=50, n=12384, δ=1e-5 → ε = {eps:.6f} "
        f"(reported, not asserted; calibration inverts to σ = {sigma_back:.4f}, {took:.1f}s)",
    )
