"""Differential-privacy mechanics: per-example clipping, Gaussian noising,
and a Renyi-DP accountant for the Poisson-subsampled Gaussian mechanism.

Accounting uses the integer-order bound

    rho(alpha) = log( sum_{k=0}^{alpha} C(alpha, k) (1-q)^(alpha-k) q^k
                      * exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

evaluated in log space. At q = 1 the sum collapses and rho(alpha) is exactly
alpha / (2 sigma^2), the plain Gaussian-mechanism value. RDP composes by
adding curves, so a run's privacy ledger is one array of rho over
DEFAULT_ORDERS; the (epsilon, delta) conversion is
epsilon = min_alpha [ rho_total(alpha) + log(1/delta) / (alpha - 1) ].

Usage sketch::

    ledger = rdp(q=50 / 12384, sigma=2.0, steps=7000)
    ledger = ledger + rdp(q=50 / 12384, sigma=4.0, steps=1000)  # composition adds
    eps, order = eps_and_order(ledger, delta=1e-5)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, UsageError

DEFAULT_ORDERS = tuple(range(2, 65)) + (128, 256)
_ORDERS = np.array(DEFAULT_ORDERS)
DEFAULT_DELTA = 1e-5

_SIGMA_LO = 1e-2
_SIGMA_HI = 1e3
_CAL_SLACK = 1e-3


@dataclass
class DpConfig:
    """Knobs of the private gradient release."""

    clip_norm: float = 1.0
    noise_multiplier: float = 0.0
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not 0 < self.clip_norm < math.inf:
            raise UsageError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if not 0 <= self.noise_multiplier < math.inf:
            raise UsageError(f"noise_multiplier must be finite and >= 0, got {self.noise_multiplier}")
        _check_delta(self.delta)


@dataclass
class PrivacySpec:
    """A target (epsilon, delta) budget."""

    epsilon: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise UsageError(f"epsilon must be positive and finite, got {self.epsilon}")
        _check_delta(self.delta)


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise UsageError(f"delta must lie in (0, 1), got {delta}")


# ---------------------------------------------------------------------------
# gradient mechanics


def clip_grad(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale the vector down to norm clip_norm if it exceeds it: g * min(1, C/|g|)."""
    if clip_norm <= 0:
        raise UsageError(f"clip_norm must be positive, got {clip_norm}")
    grad = np.asarray(grad, dtype=np.float64)
    flat = grad.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))  # np.linalg.norm's own formula, without its dispatch
    if norm <= clip_norm or norm == 0.0:
        return grad.copy()
    return grad * (clip_norm / norm)


def privatize(grads, cfg: DpConfig, rng: np.random.Generator) -> np.ndarray:
    """Noisy average of clipped per-example gradients.

    Returns (1/B) [ sum_i clip(g_i) + xi ] with xi ~ N(0, sigma^2 C^2 I) and
    B the number of rows handed in. With sigma = 0 this is exactly the
    clipped mean (summed in row order, so it is deterministic bit for bit).
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise UsageError(f"need a non-empty batch of gradient rows, got shape {grads.shape}")
    B = grads.shape[0]
    total = np.zeros(grads.shape[1])
    for i in range(B):
        total += clip_grad(grads[i], cfg.clip_norm)
    if cfg.noise_multiplier > 0.0:
        total += rng.normal(0.0, cfg.noise_multiplier * cfg.clip_norm, size=total.shape)
    return total / B


# ---------------------------------------------------------------------------
# accountant


# Every order's terms k = 0..alpha laid end to end: _STARTS[i] is where order
# i's run begins, and log C(alpha, k) is each term's sigma- and q-free part.
_STARTS = np.concatenate(([0], np.cumsum(_ORDERS + 1)[:-1]))
_ALPHA = np.repeat(_ORDERS, _ORDERS + 1)
_K = np.concatenate([np.arange(a + 1, dtype=np.float64) for a in DEFAULT_ORDERS])
_LOG_BINOM = np.array([math.log(math.comb(a, k)) for a in DEFAULT_ORDERS for k in range(a + 1)])


def rdp(q: float, sigma: float, steps: int) -> np.ndarray:
    """RDP curve over DEFAULT_ORDERS of `steps` releases at sample rate q and
    noise sigma; a run's ledger is the sum of such curves.

    Each order's binomial sum is a log-sum-exp over its run of terms, all
    orders in one pass: ``reduceat`` takes every run's peak and its sum."""
    if not (0.0 <= q <= 1.0):
        raise UsageError(f"sample rate must lie in [0, 1], got {q}")
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    if not 0 <= sigma < math.inf:
        raise UsageError(f"sigma must be finite and >= 0, got {sigma}")
    if steps == 0 or q == 0.0:
        return np.zeros(len(DEFAULT_ORDERS))
    try:  # a Python float overflows with an exception, where a numpy one warns
        two_var = 2.0 * float(sigma) ** 2
    except OverflowError:  # sigma**2 past every float: rho's limit is 0
        return np.zeros(len(DEFAULT_ORDERS))
    if two_var == 0.0:  # no noise, or so little that sigma**2 underflows
        return np.full(len(DEFAULT_ORDERS), math.inf)
    # a subnormal 2 sigma^2 overflows a quotient to inf: that order's bound is
    # past every float and reads inf, not the nan its inf - inf would give
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 1.0:
            return steps * (_ORDERS / two_var)
        terms = (
            _LOG_BINOM + _K * math.log(q) + (_ALPHA - _K) * math.log1p(-q) + (_K * _K - _K) / two_var
        )
        peak = np.maximum.reduceat(terms, _STARTS)
        sums = np.add.reduceat(np.exp(terms - np.repeat(peak, _ORDERS + 1)), _STARTS)
        rho = np.maximum(0.0, (peak + np.log(sums)) / (_ORDERS - 1))
        return steps * np.where(peak == math.inf, math.inf, rho)


def _epsilon(rho, alpha, delta: float):
    """The (epsilon, delta) conversion of RDP rho at order alpha,
    rho + log(1/delta) / (alpha - 1); elementwise over arrays of orders."""
    return rho + math.log(1.0 / delta) / (alpha - 1)


def eps_and_order(rho: np.ndarray, delta: float):
    """Best (epsilon, order) over an RDP curve on DEFAULT_ORDERS; (inf, None)
    when no order is finite."""
    _check_delta(delta)
    eps = _epsilon(rho, _ORDERS, delta)
    best = int(np.argmin(eps))
    if not math.isfinite(eps[best]):
        return math.inf, None
    return eps[best], DEFAULT_ORDERS[best]


def epsilon_for(q: float, sigma: float, steps: int, delta: float) -> float:
    """Epsilon of `steps` subsampled-Gaussian releases from scratch."""
    return eps_and_order(rdp(q, sigma, steps), delta)[0]


def calibrate_sigma(target: PrivacySpec, q: float, steps: int) -> float:
    """Smallest noise multiplier (up to a 0.1% band) meeting the target budget.

    Bisects sigma in [1e-2, 1e3] until epsilon lands in
    [target.epsilon * (1 - 1e-3), target.epsilon]; epsilon is monotone
    decreasing in sigma, which is asserted on the bracket. Each point is one
    ``epsilon_for``, a full RDP curve.
    """
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    if not (0.0 < q <= 1.0):
        raise UsageError(f"sample rate must lie in (0, 1], got {q}")
    lo, hi = _SIGMA_LO, _SIGMA_HI
    band_lo = target.epsilon * (1.0 - _CAL_SLACK)

    def eps_at(sigma: float) -> float:
        return epsilon_for(q, sigma, steps, target.delta)

    eps_lo, eps_hi = eps_at(lo), eps_at(hi)
    if not eps_lo > eps_hi:
        raise CalibrationError(
            f"epsilon not decreasing over the bracket: eps({lo})={eps_lo}, eps({hi})={eps_hi}"
        )
    if eps_hi > target.epsilon:
        raise CalibrationError(
            f"target epsilon {target.epsilon} unreachable: even sigma={hi} gives {eps_hi:.6g}"
        )
    if eps_lo < band_lo:
        raise CalibrationError(
            f"target epsilon {target.epsilon} unreachable: sigma={lo} already gives {eps_lo:.6g}"
        )
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
    raise CalibrationError("bisection failed to land in the target band")


def sample_rate(n: int, batch: int) -> float:
    """Poisson sampling rate batch / n of an expected batch out of n rows."""
    if n < 1 or batch < 1:
        raise UsageError(f"n and batch must be >= 1, got n={n}, batch={batch}")
    if batch > n:
        raise UsageError(f"batch {batch} exceeds n {n}")
    return batch / n


def account_report(n: int, batch: int, sigma: float, steps: int, delta: float = DEFAULT_DELTA) -> dict:
    """JSON-ready accounting summary for a planned or finished run."""
    q = sample_rate(n, batch)
    rho = rdp(q, sigma, steps)
    eps, order = eps_and_order(rho, delta)
    return {
        "n": n,
        "batch": batch,
        "sample_rate": q,
        "sigma": sigma,
        "steps": steps,
        "delta": delta,
        "orders": list(DEFAULT_ORDERS),
        "rho": [None if not math.isfinite(r) else r for r in rho],
        "epsilon": None if not math.isfinite(eps) else eps,
        "best_order": order,
        "non_private": sigma == 0.0,
    }
