"""Slow, loop-based re-implementations used as oracles: the generator and
critic forward passes, the two-pass critic-loss gradients, the per-column
generator gradient, and the per-step training loop.

The forward passes deliberately avoid the library's vectorized code paths:
one example at a time, plain Python sums over inputs and units.
"""

import numpy as np

from dpsynth import dp, models, nn, training
from dpsynth.nn import LEAKY_RELU


def _layer(layer, x):
    """One dense layer on a list of inputs; returns a list of outputs."""
    out = []
    for o in range(layer.out_dim):
        pre = layer.bias[o] + sum(layer.weight[o, i] * x[i] for i in range(len(x)))
        if layer.activation == LEAKY_RELU and pre < 0:
            pre = nn.SLOPE * pre
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


def naive_disc_loss_grads(f, X_real, fakes):
    """``models.disc_loss_grads_batch`` as two passes: the fakes and the real
    rows each take their own critic forward and per-example backward (seeded
    +1 and -1), and the real pass is added into the fake pass."""
    X_real = np.asarray(X_real, dtype=np.float64)
    fakes = np.asarray(fakes, dtype=np.float64)
    _, real_caches = models.disc_forward_batch(f, X_real)
    _, fake_caches = models.disc_forward_batch(f, fakes)
    ones = np.ones((len(fakes), 1))
    grads = nn.backward(f.layers, fake_caches, ones, per_example=True)[1]
    grads += nn.backward(f.layers, real_caches, -ones, per_example=True)[1]
    return grads


def naive_run_phase(data, g, f, cfg, q, lam, rngs):
    """``training._run_phase`` one step at a time: each step samples its own
    fakes, and every t_g-th step then draws the generator's noise. It keeps
    no divergence guard; it is an arithmetic oracle only."""
    _, rng_batch, rng_z, rng_noise = rngs
    gen_updates = 0
    for t in range(1, cfg.steps + 1):
        idx = training.poisson_batch(data.n, q, rng_batch)
        if idx.size > 0:
            Zb = rng_z.standard_normal((idx.size, data.d))
            fakes = models.sample_batch(g, Zb)
            grads = models.disc_loss_grads_batch(f, data.rows(idx), fakes)
            f.nu -= cfg.eta_nu * dp.privatize(grads, cfg.dp, rng_noise)
            models.clip_weights(f)
        if t % cfg.t_g == 0:
            Zg = rng_z.standard_normal((cfg.batch, data.d))
            g.theta -= cfg.eta_theta * models.generator_grad(f, g, Zg, lam)
            gen_updates += 1
    return gen_updates


def naive_generator_grad(f, g, Z_batch, lam):
    """``models.generator_grad`` column by column: each column's dense-pair
    gradient comes back from ``nn.backward`` as a new array and is copied
    into place, and the column's penalty and freeze mask are applied inside
    the loop, from its own ``np.column_stack([w_in, skip])``."""
    Z_batch = np.asarray(Z_batch, dtype=np.float64)
    X, caches = models._generator_forward(g, Z_batch)
    B = X.shape[0]
    _, dcaches = models.disc_forward_batch(f, X)
    dX = -nn.backward(f.layers, dcaches, np.ones((B, 1)))[0] / B

    grad = np.empty_like(g.theta)
    end = grad.size
    for jj in range(g.d - 1, -1, -1):
        s = g.subs[jj]
        xbar = dX[:, jj]
        z = Z_batch[:, jj]
        prefix = X[:, :jj]
        dfeat, dtail = nn.backward((s.hidden, s.out), caches[jj], xbar[:, None])
        start = end - dtail.size - s.skip.size - s.w_in.size
        dW = grad[start : start + s.w_in.size].reshape(s.w_in.shape)
        dskip = grad[start + s.w_in.size : end - dtail.size]
        grad[end - dtail.size : end] = dtail
        dW[:jj] = prefix.T @ dfeat
        dW[jj] = z @ dfeat
        dskip[:jj] = xbar @ prefix
        dskip[jj] = xbar @ z
        if jj > 0:
            dX[:, :jj] += np.outer(xbar, s.skip[:jj]) + dfeat @ s.w_in[:jj].T
        if lam[jj] != 0.0:
            sub = lam[jj] * models.group_lasso_subgrad(np.column_stack([s.w_in, s.skip]))
            dW += sub[:, :-1]
            dskip += sub[:, -1]
        dW[s.frozen] = 0.0
        dskip[s.frozen] = 0.0
        end = start
    return grad
