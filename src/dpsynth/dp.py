"""Differential-privacy mechanics: per-example clipping, Gaussian noising,
and a Renyi-DP accountant for the Poisson-subsampled Gaussian mechanism.

Accounting uses the integer-order bound

    rho(alpha) = log( sum_{k=0}^{alpha} C(alpha, k) (1-q)^(alpha-k) q^k
                      * exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

evaluated in log space. At q = 1 the sum collapses and rho(alpha) is exactly
alpha / (2 sigma^2), the plain Gaussian-mechanism value. RDP composes
additively over steps; the (epsilon, delta) conversion is
epsilon = min_alpha [ rho_total(alpha) + log(1/delta) / (alpha - 1) ].

Usage sketch::

    cfg = DpConfig(clip_norm=1.0, noise_multiplier=2.0, sample_rate=50 / 12384)
    ledger = new_ledger(cfg.orders, delta=1e-5)
    ledger = ledger_compose(ledger, cfg, steps=7000)
    eps = eps_from_ledger(ledger)
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


@dataclass
class DpConfig:
    """Knobs of the private gradient release.

    ``sample_rate`` may be left as None and filled in where the data size is
    known (the trainer uses batch / n); accounting requires it to be set.
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 0.0
    sample_rate: float | None = None
    orders: tuple = DEFAULT_ORDERS
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise UsageError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.noise_multiplier < 0:
            raise UsageError(f"noise_multiplier must be >= 0, got {self.noise_multiplier}")
        if self.sample_rate is not None and not (0.0 < self.sample_rate <= 1.0):
            raise UsageError(f"sample_rate must lie in (0, 1], got {self.sample_rate}")
        self.orders = tuple(int(a) for a in self.orders)
        if not self.orders or any(a < 2 for a in self.orders):
            raise UsageError("orders must be integers >= 2")
        if not (0.0 < self.delta < 1.0):
            raise UsageError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass
class PrivacySpec:
    """A target (epsilon, delta) budget."""

    epsilon: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.epsilon <= 0:
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise UsageError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass
class PrivacyLedger:
    """Accumulated RDP per order, plus the step count it covers."""

    orders: tuple
    rho: np.ndarray
    steps: int = 0
    delta: float = DEFAULT_DELTA

    def copy(self) -> "PrivacyLedger":
        return PrivacyLedger(self.orders, self.rho.copy(), self.steps, self.delta)


def new_ledger(orders=DEFAULT_ORDERS, delta: float = DEFAULT_DELTA) -> PrivacyLedger:
    orders = tuple(int(a) for a in orders)
    return PrivacyLedger(orders, np.zeros(len(orders)), 0, delta)


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
    if grads.ndim == 1:
        grads = grads[None, :]
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
    if sigma == 0.0:
        return math.inf
    if q == 1.0:
        return alpha / (2.0 * sigma**2)
    two_var = 2.0 * sigma**2
    terms = [t + (k * k - k) / two_var for k, t in enumerate(_sigma_free_terms(q, alpha))]
    peak = max(terms)
    total = peak + math.log(sum(math.exp(t - peak) for t in terms))
    return max(0.0, total / (alpha - 1))


def ledger_compose(ledger: PrivacyLedger, cfg: DpConfig, steps: int) -> PrivacyLedger:
    """Account for `steps` further releases under cfg; additive in the RDP curve."""
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    if cfg.sample_rate is None:
        raise UsageError("sample_rate must be set before accounting")
    out = ledger.copy()
    if steps == 0:
        return out
    per_step = np.array(
        [rdp_subsampled_gaussian(cfg.sample_rate, cfg.noise_multiplier, a) for a in ledger.orders]
    )
    out.rho = out.rho + steps * per_step
    out.steps += steps
    return out


def eps_and_order(ledger: PrivacyLedger):
    """Best (epsilon, order) over the ledger's RDP curve."""
    if not (0.0 < ledger.delta < 1.0):
        raise UsageError(f"delta must lie in (0, 1), got {ledger.delta}")
    log_term = math.log(1.0 / ledger.delta)
    best_eps = math.inf
    best_order = ledger.orders[0]
    for a, r in zip(ledger.orders, ledger.rho):
        eps = r + log_term / (a - 1)
        if eps < best_eps:
            best_eps = eps
            best_order = a
    return best_eps, best_order


def eps_from_ledger(ledger: PrivacyLedger) -> float:
    return eps_and_order(ledger)[0]


def epsilon_for(q: float, sigma: float, steps: int, delta: float, orders=DEFAULT_ORDERS) -> float:
    """Convenience: epsilon of `steps` subsampled-Gaussian releases from scratch."""
    cfg = DpConfig(clip_norm=1.0, noise_multiplier=sigma, sample_rate=q, orders=orders, delta=delta)
    return eps_from_ledger(ledger_compose(new_ledger(orders, delta), cfg, steps))


def calibrate_sigma(target: PrivacySpec, q: float, steps: int, orders=DEFAULT_ORDERS) -> float:
    """Smallest noise multiplier (up to a 0.1% band) meeting the target budget.

    Bisects sigma in [1e-2, 1e3] until epsilon lands in
    [target.epsilon * (1 - 1e-3), target.epsilon]; epsilon is monotone
    decreasing in sigma, which is asserted on the bracket.
    """
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    if not (0.0 < q <= 1.0):
        raise UsageError(f"sample rate must lie in (0, 1], got {q}")
    lo, hi = _SIGMA_LO, _SIGMA_HI
    band_lo = target.epsilon * (1.0 - _CAL_SLACK)

    def eps_at(sigma: float) -> float:
        return epsilon_for(q, sigma, steps, target.delta, orders)

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


def account_report(
    n: int,
    batch: int,
    sigma: float,
    steps: int,
    delta: float = DEFAULT_DELTA,
    orders=DEFAULT_ORDERS,
) -> dict:
    """JSON-ready accounting summary for a planned or finished run."""
    if n < 1 or batch < 1:
        raise UsageError(f"n and batch must be >= 1, got n={n}, batch={batch}")
    if batch > n:
        raise UsageError(f"batch {batch} exceeds n {n}")
    q = batch / n
    cfg = DpConfig(clip_norm=1.0, noise_multiplier=sigma, sample_rate=q, orders=orders, delta=delta)
    ledger = ledger_compose(new_ledger(orders, delta), cfg, steps)
    non_private = sigma == 0.0
    if non_private:
        eps, order = math.inf, None
    else:
        eps, order = eps_and_order(ledger)
    return {
        "n": n,
        "batch": batch,
        "sample_rate": q,
        "sigma": sigma,
        "steps": steps,
        "delta": delta,
        "orders": list(ledger.orders),
        "rho": [None if not math.isfinite(r) else r for r in ledger.rho],
        "epsilon": None if not math.isfinite(eps) else eps,
        "best_order": order,
        "non_private": non_private,
    }
