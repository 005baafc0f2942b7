"""Sequential tabular generator and weight-clipped critic.

The generator factors into one sub-generator per column, applied in a fixed
order: column j is produced from the already-generated prefix plus one fresh
noise coordinate. Each sub-generator is a single-index model: a feature map
``w_in`` projects ``u = [x_prefix, z]`` to a small feature vector, a
one-hidden-layer net maps features to a scalar, and a linear skip path on
``u`` is added. Rows of ``w_in`` (and the matching skip entries) can be
frozen at exact zero, which severs the column's dependence on that input.

Group lasso drives input selection. The group for input k is the whole
dependence of a column on that input, the pair ``(w_in[k], skip[k])``, so
neither path can carry a dependence without paying for it; the noise slot
is never penalized.

Every dense stack here (each sub-generator's ``(hidden, out)`` pair and the
critic's layers) runs through ``nn.forward`` and ``nn.backward``, and each
network's parameters live in one ``nn.gather`` buffer; this module adds the
sub-generators' input map and skip path around those passes.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import ShapeError, UsageError
from .nn import IDENTITY, LEAKY_RELU, DenseLayer, init_dense

HIDDEN_WIDTH = 10

CHECKPOINT_FORMAT = "dpsynth-model-v1"


# ---------------------------------------------------------------------------
# model containers


@dataclass
class SubGenerator:
    """Produces one column from the generated prefix and one noise coordinate.

    ``index`` is 1-based and equals the input length: sub-generator j sees
    ``u = [x_1 .. x_{j-1}, z_j]``. ``w_in`` has one row per input slot (the
    last row belongs to the noise coordinate), ``skip`` is the linear
    residual path on ``u``, and ``frozen`` marks input slots held at zero.
    """

    index: int
    w_in: np.ndarray
    skip: np.ndarray
    hidden: DenseLayer
    out: DenseLayer
    frozen: np.ndarray

    def __post_init__(self):
        j = self.index
        if j < 1:
            raise ShapeError(f"sub-generator index must be >= 1, got {j}")
        self.w_in = np.asarray(self.w_in, dtype=np.float64)
        self.skip = np.asarray(self.skip, dtype=np.float64)
        self.frozen = np.asarray(self.frozen, dtype=bool)
        if self.w_in.ndim != 2 or self.w_in.shape[0] != j:
            raise ShapeError(f"w_in shape {self.w_in.shape}, expected ({j}, L)")
        if self.skip.shape != (j,):
            raise ShapeError(f"skip shape {self.skip.shape}, expected ({j},)")
        if self.frozen.shape != (j,):
            raise ShapeError(f"frozen shape {self.frozen.shape}, expected ({j},)")
        width = self.w_in.shape[1]
        if self.hidden.in_dim != width or self.out.in_dim != self.hidden.out_dim:
            raise ShapeError("feature/hidden/output widths do not chain")
        if self.out.out_dim != 1:
            raise ShapeError("output layer must be scalar")

    @property
    def width(self) -> int:
        return self.w_in.shape[1]


@dataclass
class SequentialGenerator:
    """Sub-generators in column order.

    ``theta`` is the storage, per sub-generator in order: ``w_in`` row-major,
    ``skip``, hidden weight row-major, hidden bias, output weight, output
    bias (the last four are ``nn.backward``'s layout for ``(hidden, out)``);
    the sub-generators' arrays are views into it. Building a generator
    re-homes them, so a sub-generator belongs to one generator at a time.
    All sub-generators share one width, so the layout is fixed by (d, width).
    """

    subs: list
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for pos, s in enumerate(self.subs, start=1):
            if s.index != pos:
                raise ShapeError(f"sub-generator at position {pos} has index {s.index}")
            if s.width != self.subs[0].width:
                raise ShapeError(f"sub-generator {pos} has width {s.width}, sub-generator 1 has {self.subs[0].width}")
        dense = ("weight", "bias")
        self.theta = nn.gather(
            [grp for s in self.subs for grp in ((s, ("w_in", "skip")), (s.hidden, dense), (s.out, dense))]
        )

    @property
    def d(self) -> int:
        return len(self.subs)


@dataclass
class Discriminator:
    """Small dense critic; weights are clamped to [-clamp, clamp] between steps.

    ``nu`` is the storage: layer by layer, weight row-major, then bias, the
    layout ``nn.backward`` returns; the layers' arrays are views into it.
    Building a critic re-homes them.
    """

    layers: list
    clamp: float
    nu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.clamp < math.inf:
            raise UsageError(f"clamp must be positive and finite, got {self.clamp}")
        if not self.layers or self.layers[-1].out_dim != 1:
            raise ShapeError("discriminator must end in a scalar layer")
        self.nu = nn.gather([(layer, ("weight", "bias")) for layer in self.layers])

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim


# ---------------------------------------------------------------------------
# constructors


def new_subgen(
    j: int,
    rng: np.random.Generator,
    width: int = HIDDEN_WIDTH,
    out_gain: float = 1.0,
    noise_gain: float = 1.0,
) -> SubGenerator:
    """Training init: prefix rows and skip start at exact zero.

    Only the noise row of ``w_in`` is random, so every cross-column
    dependence starts switched off and must be pulled in by the data. The
    group-lasso subgradient convention (zero at zero rows) then leaves
    non-signal rows parked at the origin.

    ``noise_gain`` scales the random noise row and ``out_gain`` the output
    layer's weight matrix. Values above 1 make the nonlinear path carry more
    of the signal early on, which sharpens the input-map row norms that
    dependency selection reads; both default to the neutral 1.
    """
    w_in = np.zeros((j, width))
    bound = 1.0 / np.sqrt(j)
    w_in[j - 1] = rng.uniform(-bound, bound, size=width) * noise_gain
    hidden = init_dense(width, width, rng, activation=LEAKY_RELU)
    out = init_dense(1, width, rng, activation=IDENTITY)
    out.weight *= out_gain
    return SubGenerator(j, w_in, np.zeros(j), hidden, out, np.zeros(j, dtype=bool))


def new_generator(
    d: int,
    rng: np.random.Generator,
    width: int = HIDDEN_WIDTH,
    out_gain: float = 1.0,
    noise_gain: float = 1.0,
) -> SequentialGenerator:
    if d < 1:
        raise ShapeError(f"d must be >= 1, got {d}")
    return SequentialGenerator(
        [new_subgen(j, rng, width, out_gain, noise_gain) for j in range(1, d + 1)]
    )


def random_generator(d: int, rng: np.random.Generator, width: int = HIDDEN_WIDTH) -> SequentialGenerator:
    """Fully random parameters everywhere (tests and probes, not training)."""
    if d < 1:
        raise ShapeError(f"d must be >= 1, got {d}")
    subs = []
    for j in range(1, d + 1):
        bound = 1.0 / np.sqrt(j)
        w_in = rng.uniform(-bound, bound, size=(j, width))
        skip = rng.uniform(-bound, bound, size=j)
        hidden = init_dense(width, width, rng, activation=LEAKY_RELU)
        out = init_dense(1, width, rng, activation=IDENTITY)
        subs.append(SubGenerator(j, w_in, skip, hidden, out, np.zeros(j, dtype=bool)))
    return SequentialGenerator(subs)


def new_discriminator(d: int, clamp: float, rng: np.random.Generator) -> Discriminator:
    """Critic with hidden widths (d, d // 2) and a scalar head."""
    if d < 1:
        raise ShapeError(f"d must be >= 1, got {d}")
    h2 = max(1, d // 2)
    layers = [
        init_dense(d, d, rng, activation=LEAKY_RELU),
        init_dense(h2, d, rng, activation=LEAKY_RELU),
        init_dense(1, h2, rng, activation=IDENTITY),
    ]
    return Discriminator(layers, clamp)


# ---------------------------------------------------------------------------
# forward and backward passes, batched: row i of every array is one example


def sample_batch(g: SequentialGenerator, Zb: np.ndarray) -> np.ndarray:
    """Map a (B, d) noise batch to B synthetic rows, column by column."""
    X, _ = _generator_forward(g, Zb, keep_caches=False)
    return X


def _generator_forward(g: SequentialGenerator, Zb: np.ndarray, keep_caches: bool = True):
    """Rows and, with ``keep_caches``, each column's ``nn.forward`` caches.

    ``X`` starts as a copy of the noise: column jj still holds z_jj until
    x_jj overwrites it, so sub-generator jj's input ``u = [x_prefix, z_jj]``
    is the view ``X[:, :jj + 1]``.
    """
    Zb = np.asarray(Zb, dtype=np.float64)
    if Zb.ndim != 2 or Zb.shape[1] != g.d:
        raise ShapeError(f"noise batch shape {Zb.shape}, expected (B, {g.d})")
    X = Zb.copy()
    caches = []
    for jj, s in enumerate(g.subs):
        u = X[:, : jj + 1]
        y, layer_caches = nn.forward((s.hidden, s.out), u @ s.w_in)
        X[:, jj] = u @ s.skip + y[:, 0]
        if keep_caches:
            caches.append(layer_caches)
    return X, caches


def disc_forward_batch(f: Discriminator, Xb: np.ndarray):
    """Critic values for a batch of rows; also returns per-layer caches."""
    Xb = np.asarray(Xb, dtype=np.float64)
    if Xb.ndim != 2 or Xb.shape[1] != f.in_dim:
        raise ShapeError(f"batch shape {Xb.shape}, expected (B, {f.in_dim})")
    out, caches = nn.forward(f.layers, Xb)
    return out[:, 0], caches


# ---------------------------------------------------------------------------
# group lasso


def _prefix_row_norms(W: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a 2-D ``W``, all but the last (noise) row."""
    if W.ndim != 2:
        raise ShapeError(f"W must be 2-D, got ndim={W.ndim}")
    return np.sqrt((W[:-1] ** 2).sum(axis=1))


def group_lasso_subgrad(W: np.ndarray) -> np.ndarray:
    """Subgradient of the group-lasso penalty, the summed norms of W's prefix
    rows (all rows but the last): each prefix row over its norm; exact-zero
    rows and the last row map to zero rows."""
    W = np.asarray(W, dtype=np.float64)
    norms = _prefix_row_norms(W)
    sub = np.zeros_like(W)
    live = norms > 0.0
    sub[:-1][live] = W[:-1][live] / norms[live, None]
    return sub


# ---------------------------------------------------------------------------
# objectives and gradients


def generator_grad(
    f: Discriminator,
    g: SequentialGenerator,
    Z_batch: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """Flat gradient of [-mean critic(fakes) + group-lasso penalty] over all
    generator parameters, in ``g.theta`` order.

    The critic's input gradient is backpropagated column by column, last
    column first: ``nn.backward`` writes each sub-generator's
    ``(hidden, out)`` gradient straight into its slice of the result, then
    the input map and skip path take theirs. Column jj's input
    ``u = [x_prefix, z]`` is read back as the generated prefix plus one noise
    row, and only the prefix columns pass gradient on. The penalty and the
    freeze mask feed no other term, so they are applied once, after the
    loop, to all ``(w_in[k], skip[k])`` groups: prefix group k of column jj
    gains ``lam[jj]`` times its ``group_lasso_subgrad`` row (skipped when
    every lam is 0), and frozen input slots end at exactly zero gradient.
    ``lam`` holds one group-lasso strength per column.
    """
    Z_batch = np.asarray(Z_batch, dtype=np.float64)
    if Z_batch.size == 0:
        raise UsageError("generator gradient needs a non-empty noise batch")
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (g.d,):
        raise ShapeError(f"penalty weights shape {lam.shape}, expected ({g.d},)")
    X, caches = _generator_forward(g, Z_batch)
    B = X.shape[0]
    _, dcaches = disc_forward_batch(f, X)
    dX = -nn.backward(f.layers, dcaches, np.ones((B, 1)))[0] / B

    grad = np.empty_like(g.theta)
    end = grad.size
    for jj in range(g.d - 1, -1, -1):
        s = g.subs[jj]
        xbar = dX[:, jj]
        z = Z_batch[:, jj]
        prefix = X[:, :jj]
        tail = end - (s.width + 1) ** 2  # the (hidden, out) pair's entries
        dfeat, _ = nn.backward((s.hidden, s.out), caches[jj], xbar[:, None], out=grad[tail:end])
        start = tail - s.skip.size - s.w_in.size
        dW = grad[start : start + s.w_in.size].reshape(s.w_in.shape)
        dskip = grad[start + s.w_in.size : tail]
        np.matmul(prefix.T, dfeat, out=dW[:jj])
        np.matmul(z, dfeat, out=dW[jj])
        np.matmul(xbar, prefix, out=dskip[:jj])
        dskip[jj] = xbar @ z
        if jj > 0:
            dX[:, :jj] += xbar[:, None] * s.skip[:jj] + dfeat @ s.w_in[:jj].T
        end = start

    groups = _group_positions(g.d, g.subs[0].width)
    if lam.any():
        sizes = np.arange(1, g.d + 1)  # sub-generator j has j groups, the last one its noise slot
        # group_lasso_subgrad skips only the stack's last row, so the other noise rows are zeroed here
        sub = group_lasso_subgrad(g.theta[groups])
        sub[np.cumsum(sizes) - 1] = 0.0
        grad[groups] += np.repeat(lam, sizes)[:, None] * sub
    grad[groups[np.concatenate([s.frozen for s in g.subs])]] = 0.0
    return grad


@functools.lru_cache(maxsize=8)
def _group_positions(d: int, width: int) -> np.ndarray:
    """θ positions of every input group ``(w_in[k], skip[k])``, sub-generator
    by sub-generator: a read-only (d(d+1)/2, width + 1) index."""
    rows, start = [], 0
    for j in range(1, d + 1):
        w_in = start + np.arange(j * width).reshape(j, width)
        rows.append(np.column_stack([w_in, start + j * width + np.arange(j)]))
        start += (width + 1) * (j + width + 1)
    index = np.concatenate(rows)
    index.flags.writeable = False  # shared by every call through the cache
    return index


def disc_loss_grads_batch(f: Discriminator, X_real: np.ndarray, fakes: np.ndarray, out=None) -> np.ndarray:
    """Per-example critic-loss gradients for real rows paired with fakes.

    Returns the (B, P) block whose row i is the gradient of
    ``-(critic(X_real[i]) - critic(fakes[i]))``, in ``f.nu`` order. The
    stacked rows ``[fakes; X_real]`` take one ``disc_forward_batch`` and one
    per-example ``nn.backward``, seeded +1 for each fake and -1 for each real
    row, and the real half is then added into the fake half. The fakes come
    from ``sample_batch``; the caller draws them, so one sampling pass can
    serve several steps.

    ``out`` is an optional float64 scratch block of at least 2B rows: the
    stacked pass fills its first 2B rows, the sum lands in ``out[:B]``, and
    the result is that view, valid until the next call on the same block. A
    shorter block raises ``ShapeError``; without one a fresh block is used.
    """
    X_real = np.asarray(X_real, dtype=np.float64)
    fakes = np.asarray(fakes, dtype=np.float64)
    if X_real.shape != fakes.shape:
        raise ShapeError(f"real batch {X_real.shape} and fake batch {fakes.shape} must pair up")
    B = len(fakes)
    _, caches = disc_forward_batch(f, np.concatenate((fakes, X_real)))
    delta = np.ones((2 * B, 1))
    delta[B:] = -1.0
    _, rows = nn.backward(f.layers, caches, delta, per_example=True, out=None if out is None else out[: 2 * B])
    grads = rows[:B]
    np.add(grads, rows[B:], out=grads)
    return grads


def clip_weights(f: Discriminator) -> Discriminator:
    """Clamp every critic weight and bias into [-clamp, clamp], in place."""
    np.clip(f.nu, -f.clamp, f.clamp, out=f.nu)
    return f


# ---------------------------------------------------------------------------
# structure diagnostics


def row_norms(g: SequentialGenerator) -> list:
    """Per-column prefix-row norms: entry jj has length jj (one per earlier column)."""
    return [_prefix_row_norms(s.w_in) for s in g.subs]


def prune(g: SequentialGenerator, tau: float):
    """Zero and freeze every prefix row with norm <= tau (skip entry included).

    Returns the pruned copy and the freeze mask (one bool array per
    sub-generator, noise slot always False). Already-frozen slots stay
    frozen, so pruning is idempotent.
    """
    if tau < 0:
        raise UsageError(f"tau must be >= 0, got {tau}")
    # deepcopy detaches views from their buffer; a new generator gathers them again
    g2 = SequentialGenerator(copy.deepcopy(g.subs))
    mask = []
    for s, norms in zip(g2.subs, row_norms(g2)):
        s.frozen = s.frozen | np.append(norms <= tau, False)  # the noise slot is never pruned
        s.w_in[s.frozen] = 0.0
        s.skip[s.frozen] = 0.0
        mask.append(s.frozen.copy())
    return g2, mask


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_dict(g: SequentialGenerator, f: Discriminator) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "d": g.d,
        "hidden_width": g.subs[0].width,
        "clamp": float(f.clamp),
        "disc_widths": [layer.out_dim for layer in f.layers[:-1]],
        "theta": g.theta.tolist(),
        "nu": f.nu.tolist(),
        "freeze_mask": [s.frozen.tolist() for s in g.subs],
    }


def save_checkpoint(path, g: SequentialGenerator, f: Discriminator) -> None:
    """Write the model as JSON. Floats go through repr, so finite values
    round-trip bit-exactly; the flat layouts are the ones documented on
    ``SequentialGenerator`` / ``Discriminator``.
    """
    with open(path, "w") as fh:
        json.dump(checkpoint_dict(g, f), fh)
        fh.write("\n")


# JSON's value types as json.load returns them, by name. Types are compared
# exactly: a JSON boolean loads as a bool, which Python counts as an int.
_JSON_TYPES = {"integer": (int,), "number": (int, float), "boolean": (bool,), "list": (list,)}


def _typed(value, kind: str, what: str):
    """``value`` itself if it is a JSON ``kind``, else ``TypeError``."""
    if type(value) not in _JSON_TYPES[kind]:
        raise TypeError(f"{what} must be a JSON {kind}, got {type(value).__name__}")
    return value


def _typed_list(value, kind: str, what: str) -> list:
    """``value`` itself if it is a list of JSON ``kind`` values, else ``TypeError``."""
    if type(value) is not list or not {type(v) for v in value} <= set(_JSON_TYPES[kind]):
        raise TypeError(f"{what} must be a list of JSON {kind}s")
    return value


def from_checkpoint_dict(payload: dict):
    """Rebuild (generator, discriminator) from a checkpoint payload. A missing
    field, a value of the wrong type, a wrong size or a non-finite parameter
    raises ``UsageError``: d, hidden_width and disc_widths are JSON integers,
    clamp a JSON number, theta and nu flat lists of JSON numbers, and the
    freeze mask one list of JSON booleans per column."""
    try:
        if payload["format"] != CHECKPOINT_FORMAT:
            raise UsageError(f"unrecognized checkpoint format {payload.get('format')!r}")
        d = _typed(payload["d"], "integer", "d")
        width = _typed(payload["hidden_width"], "integer", "hidden_width")
        clamp = float(_typed(payload["clamp"], "number", "clamp"))
        disc_widths = _typed_list(payload["disc_widths"], "integer", "disc_widths")
        theta = np.array(_typed_list(payload["theta"], "number", "theta"), dtype=np.float64)
        nu = np.array(_typed_list(payload["nu"], "number", "nu"), dtype=np.float64)
        rows = _typed_list(payload["freeze_mask"], "list", "freeze_mask")
        mask = [np.array(_typed_list(m, "boolean", "freeze_mask row"), dtype=bool) for m in rows]
    except KeyError as missing:
        raise UsageError(f"checkpoint is missing field {missing}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise UsageError(f"checkpoint field has the wrong type: {err}") from None
    if min([d, width, *disc_widths]) < 1:
        raise UsageError(f"checkpoint d, hidden_width and disc_widths must be >= 1, got {d}, {width}, {disc_widths}")
    # Sizes are checked in closed form before anything is built, so a small
    # file cannot ask for a large model: sub-generator j holds (w + 1) * j
    # input-map and skip entries plus (w + 1) ** 2 in its dense pair.
    fans = [d] + disc_widths + [1]
    theta_size = (width + 1) * (d * (d + 1) // 2 + d * (width + 1))
    nu_size = sum(o * (i + 1) for i, o in zip(fans, fans[1:]))
    if theta.shape != (theta_size,) or nu.shape != (nu_size,):
        raise UsageError(f"checkpoint theta/nu sizes {theta.size}/{nu.size}, expected {theta_size}/{nu_size}")
    g = new_generator(d, np.random.default_rng(0), width)
    acts = [LEAKY_RELU] * len(disc_widths) + [IDENTITY]
    layers = [DenseLayer(np.zeros((o, i)), np.zeros(o), a) for i, o, a in zip(fans, fans[1:], acts)]
    f = Discriminator(layers, clamp)
    if not (np.isfinite(theta).all() and np.isfinite(nu).all()):
        raise UsageError("checkpoint theta/nu hold non-finite values")
    if len(mask) != d:
        raise UsageError(f"freeze mask needs one entry per column ({d})")
    g.theta[:] = theta
    f.nu[:] = nu
    for s, m in zip(g.subs, mask):
        s.frozen = m
        if s.frozen.shape != (s.index,):
            raise UsageError(f"freeze mask for column {s.index} has wrong length")
        s.w_in[s.frozen] = 0.0
        s.skip[s.frozen] = 0.0
    return g, f


def load_checkpoint(path):
    """Read a JSON checkpoint back into (generator, discriminator)."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise UsageError(f"checkpoint is not valid JSON: {err}") from None
    return from_checkpoint_dict(payload)
