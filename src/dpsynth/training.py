"""Minimax training loops: DPSGD critic ascent with weight clipping, plain
SGD generator descent on the penalized objective.

Every step draws a Poisson batch of real rows, takes one privatized critic
step, and clamps the critic weights; every t_g-th step also takes one
generator step. Real rows are read in exactly one place (the per-example
critic gradients feeding the privatized release); everything else runs on
noise. Privacy accounting covers every step, including steps whose Poisson
batch came up empty and were therefore skipped.

With ``TrainConfig.two_step`` the same loop runs a second phase: it trains
penalized, prunes weak prefix rows to exact zero, then re-optimizes without
the penalty while the frozen rows stay pinned; the privacy ledger spans
both phases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dp, models
from .errors import TrainingDiverged, UsageError
from .tabular import Table

DIVERGENCE_LIMIT = 1e6


@dataclass
class TrainConfig:
    steps: int = 2000
    batch: int = 50
    t_g: int = 10
    eta_theta: float = 0.001
    eta_nu: float = 0.01
    lam: float = 0.003
    gamma: float = 0.0
    tau: float = 0.05
    clamp: float = 0.5
    init_out_gain: float = 1.0
    init_noise_gain: float = 1.0
    dp: dp.DpConfig = field(default_factory=dp.DpConfig)
    seed: int = 0
    two_step: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise UsageError(f"steps must be >= 1, got {self.steps}")
        if self.batch < 1:
            raise UsageError(f"batch must be >= 1, got {self.batch}")
        if self.t_g < 1:
            raise UsageError(f"t_g must be >= 1, got {self.t_g}")
        if self.eta_theta <= 0 or self.eta_nu <= 0:
            raise UsageError("learning rates must be positive")
        if self.lam < 0 or self.tau < 0:
            raise UsageError("lam and tau must be >= 0")
        if self.clamp <= 0:
            raise UsageError(f"clamp must be positive, got {self.clamp}")
        if self.init_out_gain <= 0 or self.init_noise_gain <= 0:
            raise UsageError("init gains must be positive")


def poisson_batch(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of an independent-inclusion batch: each row kept with prob q."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if not (0.0 < q <= 1.0):
        raise UsageError(f"sample rate must lie in (0, 1], got {q}")
    return np.flatnonzero(rng.random(n) < q)


@dataclass
class TrainReport:
    seed: int
    steps: int
    gen_updates: int
    batch: int
    t_g: int
    sigma: float
    sample_rate: float
    clip_norm: float
    delta: float
    epsilon: float
    epsilon_phase1: float | None
    non_private: bool
    trace: list
    row_norm_table: list
    freeze_mask: list | None
    wall_clock: float

    def to_dict(self) -> dict:
        def enc(v):
            return None if v is None or not math.isfinite(v) else v

        return {
            "seed": self.seed,
            "steps": self.steps,
            "gen_updates": self.gen_updates,
            "batch": self.batch,
            "t_g": self.t_g,
            "sigma": self.sigma,
            "sample_rate": self.sample_rate,
            "clip_norm": self.clip_norm,
            "delta": self.delta,
            "epsilon": enc(self.epsilon),
            "epsilon_phase1": enc(self.epsilon_phase1),
            "non_private": self.non_private,
            "trace": self.trace,
            "row_norm_table": self.row_norm_table,
            "freeze_mask": self.freeze_mask,
            # wall_clock stays off the dict: serialized reports are part of the
            # byte-reproducibility contract; timing lives in the run manifest
        }


def _streams(seed: int):
    init, batch, noise_z, dp_noise = np.random.SeedSequence(seed).spawn(4)
    return (
        np.random.default_rng(init),
        np.random.default_rng(batch),
        np.random.default_rng(noise_z),
        np.random.default_rng(dp_noise),
    )


def _check_data(data: Table, cfg: TrainConfig) -> float:
    if data.n < 1:
        raise UsageError("training table is empty")
    if cfg.batch > data.n:
        raise UsageError(f"batch {cfg.batch} exceeds the {data.n} available rows")
    return cfg.batch / data.n


def _run_phase(
    data: Table,
    g,
    f,
    cfg: TrainConfig,
    dp_cfg: dp.DpConfig,
    sched: models.PenaltySchedule,
    rngs,
    trace: list,
) -> int:
    """One optimization phase of cfg.steps; returns the generator update count."""
    _, rng_batch, rng_z, rng_noise = rngs
    d = data.d
    gen_updates = 0
    for t in range(1, cfg.steps + 1):
        idx = poisson_batch(data.n, dp_cfg.sample_rate, rng_batch)
        if idx.size > 0:
            X_real = data.rows(idx)
            Zb = rng_z.standard_normal((idx.size, d))
            grads, f_real, f_fake = models.disc_loss_grads_batch(f, g, X_real, Zb)
            release = dp.privatize(grads, dp_cfg, rng_noise)
            models.nu_set(f, models.nu_flatten(f) - cfg.eta_nu * release)
            models.clip_weights(f)
            delta_est = float(f_real.mean() - f_fake.mean())
            if not math.isfinite(delta_est) or abs(delta_est) > DIVERGENCE_LIMIT:
                raise TrainingDiverged(
                    f"objective estimate {delta_est} at step {t} (limit {DIVERGENCE_LIMIT:g})"
                )
            trace.append(delta_est)
        else:
            trace.append(None)
        if t % cfg.t_g == 0:
            Zg = rng_z.standard_normal((cfg.batch, d))
            step_dir = models.generator_grad(f, g, Zg, sched)
            theta = models.theta_flatten(g) - cfg.eta_theta * step_dir
            if not np.all(np.isfinite(theta)):
                raise TrainingDiverged(f"non-finite generator parameters at step {t}")
            models.theta_set(g, theta)
            gen_updates += 1
    return gen_updates


def _epsilon(cfg: TrainConfig, ledger) -> float:
    return math.inf if cfg.dp.noise_multiplier == 0.0 else dp.eps_from_ledger(ledger)


def _finish_report(cfg, q, ledger, gen_updates, trace, g, mask, eps1, t0) -> TrainReport:
    sigma = cfg.dp.noise_multiplier
    return TrainReport(
        seed=cfg.seed,
        steps=ledger.steps,
        gen_updates=gen_updates,
        batch=cfg.batch,
        t_g=cfg.t_g,
        sigma=sigma,
        sample_rate=q,
        clip_norm=cfg.dp.clip_norm,
        delta=cfg.dp.delta,
        epsilon=_epsilon(cfg, ledger),
        epsilon_phase1=eps1,
        non_private=sigma == 0.0,
        trace=trace,
        row_norm_table=[norms.tolist() for norms in models.row_norms(g)],
        freeze_mask=mask,
        wall_clock=time.perf_counter() - t0,
    )


def train(data: Table, cfg: TrainConfig):
    """Train generator and critic; returns (generator, discriminator, report).

    Runs one phase of cfg.steps with the group-lasso penalty active. With
    ``cfg.two_step`` the model is then pruned at ``cfg.tau`` and re-fit for
    another cfg.steps without the penalty; the freeze mask holds through
    phase two (pruned rows stay exactly zero), and the report carries both
    the end-of-phase-one epsilon and the final one.
    """
    t0 = time.perf_counter()
    q = _check_data(data, cfg)
    dp_cfg = replace(cfg.dp, sample_rate=q)
    rngs = _streams(cfg.seed)
    rng_init = rngs[0]
    g = models.new_generator(
        data.d, rng_init, out_gain=cfg.init_out_gain, noise_gain=cfg.init_noise_gain
    )
    f = models.new_discriminator(data.d, cfg.clamp, rng_init)
    ledger = dp.new_ledger(cfg.dp.orders, cfg.dp.delta)
    trace: list = []
    gen_updates = 0
    mask = eps1 = None
    for phase, lam in enumerate([cfg.lam, 0.0] if cfg.two_step else [cfg.lam]):
        if phase == 1:
            eps1 = _epsilon(cfg, ledger)
            g, frozen = models.prune(g, cfg.tau)
            mask = [m.tolist() for m in frozen]
        sched = models.PenaltySchedule(lam, cfg.gamma)
        gen_updates += _run_phase(data, g, f, cfg, dp_cfg, sched, rngs, trace)
        ledger = dp.ledger_compose(ledger, dp_cfg, cfg.steps)
    return g, f, _finish_report(cfg, q, ledger, gen_updates, trace, g, mask, eps1, t0)


def train_two_step(data: Table, cfg: TrainConfig):
    """Penalized phase, hard prune at tau, unpenalized re-fit of equal length:
    ``train`` with ``two_step`` set."""
    return train(data, replace(cfg, two_step=True))
