import math
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsynth import dp
from dpsynth.errors import CalibrationError, UsageError


def rdp_series_oracle(q, sigma, alpha):
    """High-precision evaluation of the binomial RDP bound, term by term."""
    with mp.workdps(60):
        qm, sm = mp.mpf(q), mp.mpf(sigma)
        total = mp.mpf(0)
        for k in range(alpha + 1):
            total += (
                mp.binomial(alpha, k)
                * (1 - qm) ** (alpha - k)
                * qm**k
                * mp.exp(mp.mpf(k * (k - 1)) / (2 * sm**2))
            )
        return float(mp.log(total) / (alpha - 1))


def test_clip_rescales_long_vectors():
    v = np.full(4, 5.0)  # norm 10
    out = dp.clip_grad(v, 1.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    np.testing.assert_allclose(out, v / 10.0)


def test_clip_keeps_short_vectors_bit_exact():
    v = np.array([0.3, -0.4])
    np.testing.assert_array_equal(dp.clip_grad(v, 1.0), v)


@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_clip_norm_never_exceeds_bound(dim, seed, clip):
    v = np.random.default_rng(seed).standard_normal(dim) * 100
    assert np.linalg.norm(dp.clip_grad(v, clip)) <= clip * (1 + 1e-12)


def _clip_by_linalg_norm(grad, clip_norm):
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm or norm == 0.0:
        return grad.copy()
    return grad * (clip_norm / norm)


def test_clip_matches_the_linalg_norm_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    C = 1.0
    at_c = rng.standard_normal(1411)
    at_c /= np.linalg.norm(at_c)
    assert np.linalg.norm(at_c) == C
    rows = [rng.standard_normal(n) * s for n in (1, 7, 1411) for s in (0.1, 1.0, 30.0)]
    rows += [np.zeros(1411), at_c, at_c * 1e-300, at_c * 1e200, rng.standard_normal(1411) * 1e200]
    for row in rows:
        with np.errstate(over="ignore"):  # both formulas overflow the 1e200 rows' squared norm to inf
            got, want = dp.clip_grad(row, C), _clip_by_linalg_norm(row, C)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_privatize_sigma_zero_is_exact_clipped_mean():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal((7, 5)) * 3
    cfg = dp.DpConfig(clip_norm=1.0, noise_multiplier=0.0)
    out = dp.privatize(grads, cfg, rng)
    expected = np.zeros(5)
    for row in grads:
        expected += dp.clip_grad(row, 1.0)
    expected /= 7
    np.testing.assert_array_equal(out, expected)


def test_privatize_noise_scale_monte_carlo():
    cfg = dp.DpConfig(clip_norm=1.0, noise_multiplier=2.0)
    rng = np.random.default_rng(42)
    B = 10
    zeros = np.zeros((B, 3))
    draws = np.array([dp.privatize(zeros, cfg, rng) for _ in range(4000)])
    # zero gradients leave only the noise: std sigma * C / B per coordinate
    assert abs(draws.std() - 2.0 / B) / (2.0 / B) < 0.05


def test_privatize_rejects_empty_batch():
    cfg = dp.DpConfig()
    with pytest.raises(UsageError):
        dp.privatize(np.zeros((0, 3)), cfg, np.random.default_rng(0))


def test_rdp_full_batch_closed_form():
    for sigma in (0.5, 1.0, 2.0, 8.0):
        for alpha in range(2, 65):
            got = dp.rdp_subsampled_gaussian(1.0, sigma, alpha)
            assert abs(got - alpha / (2 * sigma**2)) < 1e-12


def test_rdp_matches_high_precision_series():
    for q, sigma, alpha in [(0.004, 2.0, 32), (0.05, 1.0, 8), (0.3, 4.0, 64), (0.9, 0.7, 3)]:
        got = dp.rdp_subsampled_gaussian(q, sigma, alpha)
        want = rdp_series_oracle(q, sigma, alpha)
        assert abs(got - want) < 1e-10, (q, sigma, alpha)


def rdp_uncached(q, sigma, alpha):
    """The accountant's formula with every term built in full on each call."""
    log_q, log_1mq = math.log(q), math.log1p(-q)
    terms = [
        math.log(math.comb(alpha, k)) + k * log_q + (alpha - k) * log_1mq + (k * k - k) / (2.0 * sigma**2)
        for k in range(alpha + 1)
    ]
    peak = max(terms)
    return max(0.0, (peak + math.log(sum(math.exp(t - peak) for t in terms))) / (alpha - 1))


def test_cached_rdp_terms_match_the_full_formula_bit_for_bit():
    for q in (1e-9, 50 / 12384, 0.004, 0.05, 0.3, 0.9, 1 - 1e-12):
        for sigma in (0.01, 0.3, 0.7, 1.1387463605011234, 2.0, 8.0, 1e3):
            for alpha in (*range(2, 65), 128, 256):
                assert dp.rdp_subsampled_gaussian(q, sigma, alpha) == rdp_uncached(q, sigma, alpha)


def test_calibration_is_unchanged_by_the_term_cache():
    q, steps, delta = 50 / 12384, 500, 1e-5
    dp._sigma_free_terms.cache_clear()
    sigma = dp.calibrate_sigma(dp.PrivacySpec(1.0, delta), q, steps)
    assert sigma == 1.1387463605011234
    assert dp.calibrate_sigma(dp.PrivacySpec(1.0, delta), q, steps) == sigma  # from the cache


def test_rdp_limits_and_monotonicity():
    assert dp.rdp_subsampled_gaussian(0.0, 2.0, 8) == 0.0
    assert dp.rdp_subsampled_gaussian(1e-9, 2.0, 8) < 1e-12
    qs = [0.001, 0.01, 0.1, 0.5, 1.0]
    vals = [dp.rdp_subsampled_gaussian(q, 2.0, 16) for q in qs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    sigmas = [0.5, 1.0, 2.0, 4.0]
    vals = [dp.rdp_subsampled_gaussian(0.01, s, 16) for s in sigmas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert dp.rdp_subsampled_gaussian(0.01, 0.0, 16) == math.inf


@pytest.mark.parametrize("q", [0.1, 1.0])
@pytest.mark.parametrize("sigma", [1e-155, 1e-200])
def test_rdp_is_infinite_once_two_sigma_squared_underflows(q, sigma):
    # 2 sigma^2 is subnormal at 1e-155 and 0.0 at 1e-200: no finite bound, and
    # neither inf - inf (read as 0.0 before) nor a division by zero
    assert all(dp.rdp_subsampled_gaussian(q, sigma, a) == math.inf for a in dp.DEFAULT_ORDERS)
    assert dp.epsilon_for(q, sigma, 10, 1e-5) == math.inf
    assert dp.eps_and_order(dp.rdp(q, sigma, 10), 1e-5) == (math.inf, None)


def test_ledger_composition_is_additive():
    split = dp.rdp(0.02, 1.3, 3) + dp.rdp(0.02, 1.3, 4)
    whole = dp.rdp(0.02, 1.3, 7)
    assert split.shape == whole.shape == (len(dp.DEFAULT_ORDERS),)
    np.testing.assert_allclose(split, whole, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(dp.rdp(0.02, 0.0, 0), np.zeros(len(dp.DEFAULT_ORDERS)))


def test_eps_single_order_hand_value():
    rho = np.full(len(dp.DEFAULT_ORDERS), math.inf)
    rho[0] = 0.0  # only order 2 is finite
    eps, order = dp.eps_and_order(rho, math.exp(-1))
    assert abs(eps - 1.0) < 1e-15 and order == 2
    assert dp.eps_and_order(rho + math.inf, 1e-5) == (math.inf, None)
    assert dp.eps_and_order(dp.rdp(0.1, 0.0, 5), 1e-5) == (math.inf, None)  # sigma = 0


def test_eps_decreases_with_sigma():
    epss = [dp.epsilon_for(0.01, s, 1000, 1e-5) for s in (0.6, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(epss, epss[1:]))


def test_calibrate_round_trip():
    q, steps, delta = 50 / 12384, 7000, 1e-5
    target_eps = dp.epsilon_for(q, 2.0, steps, delta)
    sigma = dp.calibrate_sigma(dp.PrivacySpec(target_eps, delta), q, steps)
    achieved = dp.epsilon_for(q, sigma, steps, delta)
    assert target_eps * (1 - 1e-3) <= achieved <= target_eps
    assert abs(sigma - 2.0) / 2.0 < 0.01


def full_curve_calibration(target, q, steps):
    """``calibrate_sigma``'s bisection written out over full RDP curves: the
    sigma it must return, or the CalibrationError message it must raise."""

    def eps_at(sigma):
        return dp.eps_and_order(dp.rdp(q, sigma, steps), target.delta)[0]

    lo, hi = 1e-2, 1e3
    band_lo = target.epsilon * (1.0 - 1e-3)
    eps_lo, eps_hi = eps_at(lo), eps_at(hi)
    if not eps_lo > eps_hi:
        return f"epsilon not decreasing over the bracket: eps({lo})={eps_lo}, eps({hi})={eps_hi}"
    if eps_hi > target.epsilon:
        return f"target epsilon {target.epsilon} unreachable: even sigma={hi} gives {eps_hi:.6g}"
    if eps_lo < band_lo:
        return f"target epsilon {target.epsilon} unreachable: sigma={lo} already gives {eps_lo:.6g}"
    if eps_lo <= target.epsilon:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        eps_mid = eps_at(mid)
        if band_lo <= eps_mid <= target.epsilon:
            return mid
        if eps_mid > target.epsilon:
            lo = mid
        else:
            hi = mid
    return "bisection failed to land in the target band"


def test_calibration_matches_a_bisection_over_full_curves():
    outcomes = set()
    for q in (1e-4, 50 / 12384, 0.025, 0.3, 1.0):
        for steps in (1, 10, 500, 14000):
            for epsilon in (0.05, 0.5, 1.0, 3.0, 10.0):
                for delta in (1e-5, 1e-8):
                    target = dp.PrivacySpec(epsilon, delta)
                    want = full_curve_calibration(target, q, steps)
                    try:
                        got = dp.calibrate_sigma(target, q, steps)
                    except CalibrationError as err:
                        got = str(err)
                    assert got == want, (q, steps, epsilon, delta)
                    outcomes.add(type(want))
    assert outcomes == {float, str}  # the grid reaches both answers and refusals


def _bits(x):
    return np.float64(x).view(np.uint64)


@given(
    q=st.one_of(st.sampled_from([0.0, 1e-300, 1e-12, 1e-4, 50 / 12384, 0.5, 1.0]), st.floats(0.0, 1.0)),
    sigma=st.one_of(st.sampled_from([0.0, 1e-2, 1.1387463605011234, 1e3]), st.floats(1e-3, 1e3)),
    steps=st.one_of(st.sampled_from([0, 1, 500, 14000]), st.integers(0, 10**6)),
    delta=st.one_of(st.sampled_from([1e-300, 1e-12, 1e-5, 0.5]), st.floats(1e-300, 0.999)),
)
def test_epsilon_for_equals_the_full_curve_conversion_bit_for_bit(q, sigma, steps, delta):
    want = dp.eps_and_order(dp.rdp(q, sigma, steps), delta)[0]
    assert _bits(dp.epsilon_for(q, sigma, steps, delta)) == _bits(want)


def test_epsilon_for_keeps_the_curve_checks():
    for q, sigma, steps, delta in ((0.1, -1.0, 5, 1e-5), (0.1, math.inf, 5, 1e-5), (0.1, 1.0, -1, 1e-5),
                                   (1.5, 1.0, 5, 1e-5), (0.1, 1.0, 5, 1.0), (0.1, 1.0, 5, 0.0)):
        with pytest.raises(UsageError):
            dp.epsilon_for(q, sigma, steps, delta)
    assert dp.epsilon_for(1.5, 1.0, 0, 1e-5) == dp.eps_and_order(dp.rdp(1.5, 1.0, 0), 1e-5)[0]


def test_calibration_reads_a_third_of_the_orders_at_the_benchmark_spec(monkeypatch):
    calls = {"rdp": 0, "evals": 0}
    rdp_one, epsilon_for = dp.rdp_subsampled_gaussian, dp.epsilon_for

    def counted_rdp(*args):
        calls["rdp"] += 1
        return rdp_one(*args)

    def counted_eps(*args):
        calls["evals"] += 1
        return epsilon_for(*args)

    monkeypatch.setattr(dp, "rdp_subsampled_gaussian", counted_rdp)
    monkeypatch.setattr(dp, "epsilon_for", counted_eps)
    sigma = dp.calibrate_sigma(dp.PrivacySpec(1.0, 1e-5), 50 / 12384, 500)
    assert sigma == 1.1387463605011234
    assert calls["evals"] == 17
    assert calls["rdp"] <= len(dp.DEFAULT_ORDERS) * calls["evals"] / 3


def test_calibrate_unreachable_target():
    with pytest.raises(CalibrationError):
        dp.calibrate_sigma(dp.PrivacySpec(1e-9, 1e-5), 0.5, 10000)


def test_account_report_fields():
    rep = dp.account_report(n=12384, batch=50, sigma=2.0, steps=7000, delta=1e-5)
    assert rep["sample_rate"] == 50 / 12384
    assert rep["epsilon"] is not None and 0 < rep["epsilon"] < 2
    assert not rep["non_private"]
    assert len(rep["rho"]) == len(rep["orders"])
    rep0 = dp.account_report(n=100, batch=10, sigma=0.0, steps=5)
    assert rep0["non_private"] and rep0["epsilon"] is None


def test_config_validation():
    with pytest.raises(UsageError):
        dp.DpConfig(clip_norm=0.0)
    with pytest.raises(UsageError):
        dp.DpConfig(noise_multiplier=-1.0)
    with pytest.raises(UsageError):
        dp.DpConfig(delta=1.0)
    assert [f.name for f in fields(dp.DpConfig)] == ["clip_norm", "noise_multiplier", "delta"]
    for sigma in (-1.0, math.inf, math.nan):
        with pytest.raises(UsageError):
            dp.rdp(0.1, sigma, 5)
    with pytest.raises(UsageError):
        dp.rdp(0.1, 1.0, -1)
    with pytest.raises(UsageError):
        dp.rdp(1.5, 1.0, 5)
    for delta in (0.0, 1.0, math.nan):
        with pytest.raises(UsageError):
            dp.eps_and_order(dp.rdp(0.1, 1.0, 5), delta)
    for epsilon in (0.0, math.inf, math.nan):
        with pytest.raises(UsageError):
            dp.PrivacySpec(epsilon)
    with pytest.raises(UsageError):
        dp.rdp_subsampled_gaussian(0.5, 1.0, 1)
