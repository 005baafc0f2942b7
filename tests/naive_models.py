"""Slow, loop-based re-implementations used as oracles: the generator and
critic forward passes, and the per-step training loop.

The forward passes deliberately avoid the library's vectorized code paths:
one example at a time, plain Python sums over inputs and units.
"""

from dpsynth import dp, models, training
from dpsynth.nn import LEAKY_RELU


def _layer(layer, x):
    """One dense layer on a list of inputs; returns a list of outputs."""
    out = []
    for o in range(layer.out_dim):
        pre = layer.bias[o] + sum(layer.weight[o, i] * x[i] for i in range(len(x)))
        if layer.activation == LEAKY_RELU and pre < 0:
            pre = layer.slope * pre
        out.append(pre)
    return out


def naive_subgen(s, prefix, z):
    """One sub-generator column from its prefix and its noise coordinate."""
    u = list(prefix) + [z]
    feat = [sum(s.w_in[i, l] * u[i] for i in range(len(u))) for l in range(s.width)]
    y = _layer(s.out, _layer(s.hidden, feat))[0]
    return sum(s.skip[i] * u[i] for i in range(len(u))) + y


def naive_generator(g, z):
    """One synthetic row: each column from the naive prefix built so far."""
    row = []
    for s, zj in zip(g.subs, z):
        row.append(naive_subgen(s, row, zj))
    return row


def naive_discriminator(f, x):
    """The critic's value on one row."""
    h = list(x)
    for layer in f.layers:
        h = _layer(layer, h)
    return h[0]


def naive_run_phase(data, g, f, cfg, dp_cfg, sched, rngs):
    """``training._run_phase`` one step at a time: each step samples its own
    fakes, and every t_g-th step then draws the generator's noise. It keeps
    no divergence guard; it is an arithmetic oracle only."""
    _, rng_batch, rng_z, rng_noise = rngs
    gen_updates = 0
    for t in range(1, cfg.steps + 1):
        idx = training.poisson_batch(data.n, dp_cfg.sample_rate, rng_batch)
        if idx.size > 0:
            Zb = rng_z.standard_normal((idx.size, data.d))
            fakes = models.sample_batch(g, Zb)
            grads = models.disc_loss_grads_batch(f, data.rows(idx), fakes)[0]
            f.nu -= cfg.eta_nu * dp.privatize(grads, dp_cfg, rng_noise)
            models.clip_weights(f)
        if t % cfg.t_g == 0:
            Zg = rng_z.standard_normal((cfg.batch, data.d))
            g.theta -= cfg.eta_theta * models.generator_grad(f, g, Zg, sched)
            gen_updates += 1
    return gen_updates
