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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, UsageError

DEFAULT_ORDERS = tuple(range(2, 65)) + (128, 256)
DEFAULT_DELTA = 1e-5

_SIGMA_LO = 1e-2
_SIGMA_HI = 1e3
_CAL_SLACK = 1e-3
# Relative rise past the best epsilon that ends epsilon_for's scan: far above
# the rounding in one order's value, far below any real rise of the curve.
_SCAN_GUARD = 1e-9


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


def _log_binom(n: int, k: int) -> float:
    return math.log(math.comb(n, k))


# One (q, alpha) per accountant order; calibration bisects sigma over them.
@functools.lru_cache(maxsize=512)
def _sigma_free_terms(q: float, alpha: int) -> tuple:
    """log C(alpha, k) + k log q + (alpha - k) log(1 - q) for k = 0..alpha:
    each term of the RDP sum but its sigma part, summed in the same order."""
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    return tuple(_log_binom(alpha, k) + k * log_q + (alpha - k) * log_1mq for k in range(alpha + 1))


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: int) -> float:
    """One-step RDP of order alpha for Poisson sampling rate q and noise sigma."""
    if not (0.0 <= q <= 1.0):
        raise UsageError(f"sample rate must lie in [0, 1], got {q}")
    if sigma < 0:
        raise UsageError(f"sigma must be >= 0, got {sigma}")
    if int(alpha) != alpha or alpha < 2:
        raise UsageError(f"alpha must be an integer >= 2, got {alpha}")
    alpha = int(alpha)
    if q == 0.0:
        return 0.0
    try:
        two_var = 2.0 * sigma**2
    except OverflowError:  # sigma**2 past every float: rho's limit is 0
        return 0.0
    if two_var == 0.0:  # no noise, or so little that sigma**2 underflows
        return math.inf
    if q == 1.0:
        return alpha / two_var
    terms = [t + (k * k - k) / two_var for k, t in enumerate(_sigma_free_terms(q, alpha))]
    peak = max(terms)
    if peak == math.inf:  # a term overflows: the bound is past every float
        return math.inf
    total = peak + math.log(sum(math.exp(t - peak) for t in terms))
    return max(0.0, total / (alpha - 1))


def _check_curve(sigma: float, steps: int) -> None:
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    if not 0 <= sigma < math.inf:
        raise UsageError(f"sigma must be finite and >= 0, got {sigma}")


def rdp(q: float, sigma: float, steps: int) -> np.ndarray:
    """RDP curve over DEFAULT_ORDERS of `steps` releases at sample rate q and
    noise sigma; a run's ledger is the sum of such curves."""
    _check_curve(sigma, steps)
    if steps == 0:
        return np.zeros(len(DEFAULT_ORDERS))
    return steps * np.array([rdp_subsampled_gaussian(q, sigma, a) for a in DEFAULT_ORDERS])


def _epsilon(rho, alpha, delta: float):
    """The (epsilon, delta) conversion of RDP rho at order alpha,
    rho + log(1/delta) / (alpha - 1); elementwise over arrays of orders."""
    return rho + math.log(1.0 / delta) / (alpha - 1)


def eps_and_order(rho: np.ndarray, delta: float):
    """Best (epsilon, order) over an RDP curve on DEFAULT_ORDERS; (inf, None)
    when no order is finite."""
    _check_delta(delta)
    eps = _epsilon(rho, np.array(DEFAULT_ORDERS), delta)
    best = int(np.argmin(eps))
    if not math.isfinite(eps[best]):
        return math.inf, None
    return eps[best], DEFAULT_ORDERS[best]


def epsilon_for(q: float, sigma: float, steps: int, delta: float) -> float:
    """Epsilon of `steps` subsampled-Gaussian releases from scratch: exactly
    ``eps_and_order(rdp(q, sigma, steps), delta)[0]``, with the same checks,
    read off only the orders up to just past the best one.

    It scans DEFAULT_ORDERS upward, converting each order's ``steps * rho``
    by ``eps_and_order``'s own ``_epsilon``, keeps the first minimum, and
    stops at the first value above the best so far by more than a relative
    ``_SCAN_GUARD``. No later order can then reach the best. Over real
    alpha > 1, ``(alpha - 1) rho(alpha)`` is ``max(0, log A(alpha))``,
    where A(alpha) is the binomial sum, the
    alpha-th moment of the mechanism's likelihood ratio (Mironov, Talwar &
    Zhang 2019). log A is a cumulant generating function, so it is convex,
    and so is ``h(alpha) = steps (alpha - 1) rho(alpha) + log(1/delta)``
    (van Erven & Harremoes 2014 show the same for every Renyi divergence).
    Then epsilon = h(alpha) / (alpha - 1) is quasiconvex: epsilon <= t
    exactly where ``h(alpha) - t (alpha - 1) <= 0``, an interval. Once a
    value exceeds an earlier one, every later order's value is at least as
    high, and the guard leaves room for rounding. The conversion with the
    extra term ``(alpha - 1) log(1 - 1/alpha) - log(alpha)`` in h keeps this
    property, since that term is convex too.
    """
    _check_curve(sigma, steps)
    _check_delta(delta)
    best = math.inf
    for alpha in DEFAULT_ORDERS:
        rho = steps * rdp_subsampled_gaussian(q, sigma, alpha) if steps else 0.0
        eps = _epsilon(rho, alpha, delta)
        if eps < best:
            best = eps
        elif eps > best * (1.0 + _SCAN_GUARD):
            break
    return best


def calibrate_sigma(target: PrivacySpec, q: float, steps: int) -> float:
    """Smallest noise multiplier (up to a 0.1% band) meeting the target budget.

    Bisects sigma in [1e-2, 1e3] until epsilon lands in
    [target.epsilon * (1 - 1e-3), target.epsilon]; epsilon is monotone
    decreasing in sigma, which is asserted on the bracket. Each point is one
    ``epsilon_for``, which stops its scan of the orders just past the best
    one, so a point costs a fraction of a full RDP curve and gives the same
    epsilon bit for bit.
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
