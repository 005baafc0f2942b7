"""Minimax training loops: DPSGD critic ascent with weight clipping, plain
SGD generator descent on the penalized objective.

Every step draws a Poisson batch of real rows, takes one privatized critic
step, and clamps the critic weights; every t_g-th step also takes one
generator step. The generator only changes at those steps, so the fakes for
a whole window of t_g critic steps are sampled in one pass. Real rows are
read in exactly one place (the per-example critic gradients feeding the
privatized release); everything else runs on noise. Nothing computed from
the real rows is kept except through that release: the divergence guard
reads the release and the generator parameters. Privacy accounting covers
every step, including steps whose Poisson batch came up empty and were
therefore skipped.

With ``TrainConfig.two_step`` the same loop runs a second phase: it trains
penalized, prunes weak prefix rows to exact zero, then re-optimizes without
the penalty while the frozen rows stay pinned; one RDP curve covers both
phases.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

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
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self) if f.name != "dp"):
            raise UsageError("config values must be finite")
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
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.clamp <= 0:
            raise UsageError(f"clamp must be positive, got {self.clamp}")
        if self.init_out_gain <= 0 or self.init_noise_gain <= 0:
            raise UsageError("init gains must be positive")

    def penalties(self, d: int) -> tuple:
        """Each phase's per-column group-lasso strengths over d columns:
        lam * j**gamma for the 1-based column j in the penalized phase, then
        under two_step zeros for the unpenalized refit of the pruned model."""
        lam = self.lam * np.arange(1, d + 1, dtype=np.float64) ** self.gamma
        return (lam, np.zeros(d)) if self.two_step else (lam,)

    @property
    def releases(self) -> int:
        """The run's noisy critic releases, all on one RDP curve: steps per phase."""
        return self.steps * (2 if self.two_step else 1)


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
    row_norm_table: list
    freeze_mask: list | None
    wall_clock: float

    def to_dict(self) -> dict:
        # wall_clock stays off the dict: serialized reports are part of the
        # byte-reproducibility contract; timing lives in the run manifest
        out = asdict(self)
        del out["wall_clock"]
        for key in ("epsilon", "epsilon_phase1"):
            if out[key] is not None and not math.isfinite(out[key]):
                out[key] = None
        return out


def _streams(seed: int):
    init, batch, noise_z, dp_noise = np.random.SeedSequence(seed).spawn(4)
    return (
        np.random.default_rng(init),
        np.random.default_rng(batch),
        np.random.default_rng(noise_z),
        np.random.default_rng(dp_noise),
    )


def _run_phase(
    data: Table,
    g,
    f,
    cfg: TrainConfig,
    q: float,
    lam: np.ndarray,
    rngs,
) -> int:
    """One optimization phase of cfg.steps with the per-column group-lasso
    strengths ``lam``; returns the generator update count.

    Steps run in windows ``[k*t_g + 1, (k+1)*t_g]`` (the last one may be
    short). The generator is fixed inside a window, so the window draws its
    Poisson batches, then its noise in one ``rng_z`` draw (the same numbers,
    in the same order, as one draw per step), and samples every critic
    step's fakes in one ``sample_batch`` pass. A window that ends on a
    multiple of t_g closes with a generator step on the noise's tail rows.
    Every critic step runs its fakes and real rows through the critic as one
    stacked batch, and the 2B per-example gradients of that pass go into one
    (2·cap, P) block, grown only when a window's largest batch exceeds cap.
    """
    _, rng_batch, rng_z, rng_noise = rngs
    gen_updates = 0
    buf = np.empty((0, f.nu.size))
    for start in range(0, cfg.steps, cfg.t_g):
        stop = min(start + cfg.t_g, cfg.steps)
        batches = [poisson_batch(data.n, q, rng_batch) for _ in range(start, stop)]
        ends = np.cumsum([idx.size for idx in batches])
        n_fake = int(ends[-1])
        largest = max(idx.size for idx in batches)
        if 2 * largest > len(buf):
            buf = np.empty((2 * largest, f.nu.size))
        gen_step = stop % cfg.t_g == 0
        Z = rng_z.standard_normal((n_fake + cfg.batch * gen_step, data.d))
        fakes = models.sample_batch(g, Z[:n_fake]) if n_fake else None
        for t, idx, end in zip(range(start + 1, stop + 1), batches, ends):
            if idx.size == 0:
                continue
            grads = models.disc_loss_grads_batch(f, data.rows(idx), fakes[end - idx.size : end], buf)[0]
            release = dp.privatize(grads, cfg.dp, rng_noise)
            if not np.all(np.isfinite(release)):
                raise TrainingDiverged("non-finite critic release", t)
            f.nu -= cfg.eta_nu * release
            models.clip_weights(f)
        if gen_step:
            g.theta -= cfg.eta_theta * models.generator_grad(f, g, Z[n_fake:], lam)
            largest = float(np.max(np.abs(g.theta)))
            if not largest <= DIVERGENCE_LIMIT:  # NaN fails the comparison too
                raise TrainingDiverged(
                    f"generator parameters reach max |theta| = {largest:g} (limit {DIVERGENCE_LIMIT:g})", stop
                )
            gen_updates += 1
    return gen_updates


def _finish_report(cfg, q, eps, gen_updates, g, mask, eps1, t0) -> TrainReport:
    sigma = cfg.dp.noise_multiplier
    return TrainReport(
        seed=cfg.seed,
        steps=cfg.releases,
        gen_updates=gen_updates,
        batch=cfg.batch,
        t_g=cfg.t_g,
        sigma=sigma,
        sample_rate=q,
        clip_norm=cfg.dp.clip_norm,
        delta=cfg.dp.delta,
        epsilon=eps,
        epsilon_phase1=eps1,
        non_private=sigma == 0.0,
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
    the end-of-phase-one epsilon and the final one. A ``TrainingDiverged``
    leaves with its phase and the epsilon of the releases made up to its
    step.
    """
    t0 = time.perf_counter()
    q = dp.sample_rate(data.n, cfg.batch)
    per_step = dp.rdp(q, cfg.dp.noise_multiplier, 1)
    rngs = _streams(cfg.seed)
    rng_init = rngs[0]
    g = models.new_generator(
        data.d, rng_init, out_gain=cfg.init_out_gain, noise_gain=cfg.init_noise_gain
    )
    f = models.new_discriminator(data.d, cfg.clamp, rng_init)
    gen_updates = 0
    mask = eps1 = None
    for phase, lam in enumerate(cfg.penalties(data.d)):
        if phase == 1:
            eps1, _ = dp.eps_and_order(cfg.steps * per_step, cfg.dp.delta)
            g, frozen = models.prune(g, cfg.tau)
            mask = [m.tolist() for m in frozen]
        try:
            gen_updates += _run_phase(data, g, f, cfg, q, lam, rngs)
        except TrainingDiverged as exc:
            exc.phase = phase + 1
            exc.epsilon, _ = dp.eps_and_order((phase * cfg.steps + exc.step) * per_step, cfg.dp.delta)
            raise
    eps, _ = dp.eps_and_order(cfg.releases * per_step, cfg.dp.delta)
    return g, f, _finish_report(cfg, q, eps, gen_updates, g, mask, eps1, t0)


def train_two_step(data: Table, cfg: TrainConfig):
    """``train`` with ``two_step`` set. Nothing in the package calls it; the
    benchmark harness's tracer looks ``training.train_two_step`` up by name."""
    return train(data, replace(cfg, two_step=True))
