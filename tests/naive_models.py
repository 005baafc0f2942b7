"""Slow, loop-based re-implementations of the generator and critic forward
passes, used as oracles.

These deliberately avoid the library's vectorized code paths: one example
at a time, plain Python sums over inputs and units.
"""

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
