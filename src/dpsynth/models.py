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
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

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
    subs: list

    def __post_init__(self):
        for pos, s in enumerate(self.subs, start=1):
            if s.index != pos:
                raise ShapeError(f"sub-generator at position {pos} has index {s.index}")

    @property
    def d(self) -> int:
        return len(self.subs)


@dataclass
class Discriminator:
    """Small dense critic; weights are clamped to [-clamp, clamp] between steps."""

    layers: list
    clamp: float

    def __post_init__(self):
        if self.clamp <= 0:
            raise UsageError(f"clamp must be positive, got {self.clamp}")
        if not self.layers or self.layers[-1].out_dim != 1:
            raise ShapeError("discriminator must end in a scalar layer")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim


@dataclass
class PenaltySchedule:
    """Per-column group-lasso strength lam * j**gamma (j is the 1-based column)."""

    lam: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise UsageError(f"lam must be >= 0, got {self.lam}")

    def values(self, d: int) -> np.ndarray:
        j = np.arange(1, d + 1, dtype=np.float64)
        return self.lam * j**self.gamma


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
    X, _ = _generator_forward_cached(g, Zb)
    return X


def _generator_forward_cached(g: SequentialGenerator, Zb: np.ndarray):
    Zb = np.asarray(Zb, dtype=np.float64)
    if Zb.ndim != 2 or Zb.shape[1] != g.d:
        raise ShapeError(f"noise batch shape {Zb.shape}, expected (B, {g.d})")
    B = Zb.shape[0]
    X = np.empty((B, g.d))
    caches = []
    for jj, s in enumerate(g.subs):
        U = np.concatenate([X[:, :jj], Zb[:, jj : jj + 1]], axis=1)
        feat = U @ s.w_in
        hpre = feat @ s.hidden.weight.T + s.hidden.bias
        h = nn.leaky_relu(hpre, s.hidden.slope) if s.hidden.activation == LEAKY_RELU else hpre
        y = h @ s.out.weight[0] + s.out.bias[0]
        X[:, jj] = U @ s.skip + y
        caches.append((U, feat, hpre, h))
    return X, caches


def disc_forward_batch(f: Discriminator, Xb: np.ndarray):
    """Critic values for a batch of rows; also returns per-layer caches."""
    Xb = np.asarray(Xb, dtype=np.float64)
    if Xb.ndim != 2 or Xb.shape[1] != f.in_dim:
        raise ShapeError(f"batch shape {Xb.shape}, expected (B, {f.in_dim})")
    h = Xb
    caches = []
    for layer in f.layers:
        pre = h @ layer.weight.T + layer.bias
        caches.append((h, pre))
        h = nn.leaky_relu(pre, layer.slope) if layer.activation == LEAKY_RELU else pre
    return h[:, 0], caches


def _disc_input_grad(f: Discriminator, caches) -> np.ndarray:
    """d(critic)/d(input) for every row of the cached batch."""
    B = caches[0][0].shape[0]
    delta = np.ones((B, 1))
    for layer, (_, pre) in zip(reversed(f.layers), reversed(caches)):
        delta = delta * nn.act_grad(layer, pre)
        delta = delta @ layer.weight
    return delta


def _disc_per_example_param_grads(f: Discriminator, caches, sign: float) -> np.ndarray:
    """Per-example gradients of sign * critic(x) in flat parameter layout, (B, P)."""
    B = caches[0][0].shape[0]
    delta = np.full((B, 1), float(sign))
    pieces = [None] * len(f.layers)
    for li in range(len(f.layers) - 1, -1, -1):
        layer = f.layers[li]
        xin, pre = caches[li]
        dpre = delta * nn.act_grad(layer, pre)
        dw = np.einsum("bo,bi->boi", dpre, xin).reshape(B, -1)
        pieces[li] = np.concatenate([dw, dpre], axis=1)
        delta = dpre @ layer.weight
    return np.concatenate(pieces, axis=1)


# ---------------------------------------------------------------------------
# group lasso


def group_lasso(W: np.ndarray) -> float:
    """Sum of Euclidean norms of the prefix rows (all rows but the last).

    The generator penalty applies it to ``np.column_stack([w_in, skip])``, so
    row k is the whole dependence on input k.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeError(f"W must be 2-D, got ndim={W.ndim}")
    if W.shape[0] == 1:
        return 0.0
    return float(np.sqrt((W[:-1] ** 2).sum(axis=1)).sum())


def group_lasso_subgrad(W: np.ndarray) -> np.ndarray:
    """Row-normalized subgradient; exact-zero rows map to zero rows."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeError(f"W must be 2-D, got ndim={W.ndim}")
    sub = np.zeros_like(W)
    for k in range(W.shape[0] - 1):
        norm = float(np.sqrt((W[k] ** 2).sum()))
        if norm > 0.0:
            sub[k] = W[k] / norm
    return sub


# ---------------------------------------------------------------------------
# objectives and gradients


def objective_delta(f: Discriminator, g: SequentialGenerator, X_batch: np.ndarray, Z_batch: np.ndarray) -> float:
    """Critic separation: mean critic on real rows minus mean critic on fakes."""
    X_batch = np.asarray(X_batch, dtype=np.float64)
    Z_batch = np.asarray(Z_batch, dtype=np.float64)
    if X_batch.size == 0 or Z_batch.size == 0:
        raise UsageError("objective needs non-empty real and noise batches")
    real, _ = disc_forward_batch(f, X_batch)
    fake, _ = disc_forward_batch(f, sample_batch(g, Z_batch))
    return float(real.mean() - fake.mean())


def penalized_objective(
    f: Discriminator,
    g: SequentialGenerator,
    X_batch: np.ndarray,
    Z_batch: np.ndarray,
    sched: PenaltySchedule,
) -> float:
    lam = sched.values(g.d)
    penalty = sum(lam[jj] * group_lasso(np.column_stack([s.w_in, s.skip])) for jj, s in enumerate(g.subs))
    return objective_delta(f, g, X_batch, Z_batch) + float(penalty)


def generator_grad(
    f: Discriminator,
    g: SequentialGenerator,
    Z_batch: np.ndarray,
    sched: PenaltySchedule,
) -> np.ndarray:
    """Flat gradient of [-mean critic(fakes) + group-lasso penalty] over all
    generator parameters, in ``theta_flatten`` order. The penalty group for
    input k is ``(w_in[k], skip[k])``, so its subgradient reaches both.
    Frozen input slots receive exactly zero gradient.
    """
    Z_batch = np.asarray(Z_batch, dtype=np.float64)
    if Z_batch.size == 0:
        raise UsageError("generator gradient needs a non-empty noise batch")
    X, caches = _generator_forward_cached(g, Z_batch)
    B = X.shape[0]
    _, dcaches = disc_forward_batch(f, X)
    dX = -_disc_input_grad(f, dcaches) / B
    lam = sched.values(g.d)

    pieces = [None] * g.d
    for jj in range(g.d - 1, -1, -1):
        s = g.subs[jj]
        U, feat, hpre, h = caches[jj]
        xbar = dX[:, jj]
        dc = xbar @ h
        dbo = xbar.sum()
        dh = np.outer(xbar, s.out.weight[0])
        dhpre = dh * nn.act_grad(s.hidden, hpre)
        dA = dhpre.T @ feat
        dbh = dhpre.sum(axis=0)
        dfeat = dhpre @ s.hidden.weight
        dW = U.T @ dfeat
        dskip = xbar @ U
        du = np.outer(xbar, s.skip) + dfeat @ s.w_in.T
        if jj > 0:
            dX[:, :jj] += du[:, :jj]
        sub = lam[jj] * group_lasso_subgrad(np.column_stack([s.w_in, s.skip]))
        dW += sub[:, :-1]
        dskip += sub[:, -1]
        dW[s.frozen] = 0.0
        dskip[s.frozen] = 0.0
        pieces[jj] = np.concatenate(
            [dW.ravel(), dskip, dA.ravel(), dbh, dc.ravel(), np.array([dbo])]
        )
    return np.concatenate(pieces)


def disc_loss_grads_batch(f: Discriminator, g: SequentialGenerator, X_real: np.ndarray, Z_batch: np.ndarray):
    """Per-example critic-loss gradients for a paired batch.

    Returns ``(grads, f_real, f_fake)`` where ``grads[i]`` is the gradient of
    ``-(critic(X_real[i]) - critic(fake_i))`` and the critic values are handed
    back so the caller does not need a second pass over the private rows.
    """
    X_real = np.asarray(X_real, dtype=np.float64)
    Z_batch = np.asarray(Z_batch, dtype=np.float64)
    if X_real.shape[0] != Z_batch.shape[0]:
        raise ShapeError("real batch and noise batch must pair up")
    fakes = sample_batch(g, Z_batch)
    f_real, real_caches = disc_forward_batch(f, X_real)
    f_fake, fake_caches = disc_forward_batch(f, fakes)
    grads = _disc_per_example_param_grads(f, fake_caches, +1.0) + _disc_per_example_param_grads(
        f, real_caches, -1.0
    )
    return grads, f_real, f_fake


def clip_weights(f: Discriminator) -> Discriminator:
    """Clamp every critic weight and bias into [-clamp, clamp], in place."""
    c = f.clamp
    for layer in f.layers:
        np.clip(layer.weight, -c, c, out=layer.weight)
        np.clip(layer.bias, -c, c, out=layer.bias)
    return f


# ---------------------------------------------------------------------------
# structure diagnostics


def row_norms(g: SequentialGenerator) -> list:
    """Per-column prefix-row norms: entry jj has length jj (one per earlier column)."""
    return [np.sqrt((s.w_in[:-1] ** 2).sum(axis=1)) for s in g.subs]


def prune(g: SequentialGenerator, tau: float):
    """Zero and freeze every prefix row with norm <= tau (skip entry included).

    Returns the pruned copy and the freeze mask (one bool array per
    sub-generator, noise slot always False). Already-frozen slots stay
    frozen, so pruning is idempotent.
    """
    if tau < 0:
        raise UsageError(f"tau must be >= 0, got {tau}")
    g2 = copy.deepcopy(g)
    mask = []
    for s in g2.subs:
        norms = np.sqrt((s.w_in[:-1] ** 2).sum(axis=1))
        hit = np.zeros(s.index, dtype=bool)
        hit[:-1] = norms <= tau
        s.frozen = s.frozen | hit
        s.w_in[s.frozen] = 0.0
        s.skip[s.frozen] = 0.0
        mask.append(s.frozen.copy())
    return g2, mask


# ---------------------------------------------------------------------------
# flat parameter views


def theta_size(g: SequentialGenerator) -> int:
    return sum(
        s.w_in.size + s.skip.size + s.hidden.weight.size + s.hidden.bias.size + s.out.weight.size + s.out.bias.size
        for s in g.subs
    )


def theta_flatten(g: SequentialGenerator) -> np.ndarray:
    """Documented layout, per sub-generator in order: w_in row-major, skip,
    hidden weight row-major, hidden bias, output weight, output bias.
    """
    pieces = []
    for s in g.subs:
        pieces.extend(
            [s.w_in.ravel(), s.skip, s.hidden.weight.ravel(), s.hidden.bias, s.out.weight.ravel(), s.out.bias]
        )
    return np.concatenate(pieces)


def theta_set(g: SequentialGenerator, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (theta_size(g),):
        raise ShapeError(f"flat length {flat.size}, expected {theta_size(g)}")
    pos = 0
    for s in g.subs:
        for arr in (s.w_in, s.skip, s.hidden.weight, s.hidden.bias, s.out.weight, s.out.bias):
            arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size


def nu_size(f: Discriminator) -> int:
    return sum(layer.weight.size + layer.bias.size for layer in f.layers)


def nu_flatten(f: Discriminator) -> np.ndarray:
    """Layer by layer: weight row-major, then bias."""
    pieces = []
    for layer in f.layers:
        pieces.extend([layer.weight.ravel(), layer.bias])
    return np.concatenate(pieces)


def nu_set(f: Discriminator, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (nu_size(f),):
        raise ShapeError(f"flat length {flat.size}, expected {nu_size(f)}")
    pos = 0
    for layer in f.layers:
        for arr in (layer.weight, layer.bias):
            arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_dict(g: SequentialGenerator, f: Discriminator) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "d": g.d,
        "hidden_width": g.subs[0].width,
        "clamp": float(f.clamp),
        "disc_widths": [layer.out_dim for layer in f.layers[:-1]],
        "theta": theta_flatten(g).tolist(),
        "nu": nu_flatten(f).tolist(),
        "freeze_mask": [s.frozen.tolist() for s in g.subs],
    }


def save_checkpoint(path, g: SequentialGenerator, f: Discriminator) -> None:
    """Write the model as JSON. Floats go through repr, so finite values
    round-trip bit-exactly; the flat layouts are the ones documented on
    ``theta_flatten`` / ``nu_flatten``.
    """
    with open(path, "w") as fh:
        json.dump(checkpoint_dict(g, f), fh)
        fh.write("\n")


def from_checkpoint_dict(payload: dict):
    try:
        if payload["format"] != CHECKPOINT_FORMAT:
            raise UsageError(f"unrecognized checkpoint format {payload.get('format')!r}")
        d = int(payload["d"])
        width = int(payload["hidden_width"])
        clamp = float(payload["clamp"])
        disc_widths = [int(w) for w in payload["disc_widths"]]
        theta = np.asarray(payload["theta"], dtype=np.float64)
        nu = np.asarray(payload["nu"], dtype=np.float64)
        mask = payload["freeze_mask"]
    except KeyError as missing:
        raise UsageError(f"checkpoint is missing field {missing}") from None
    rng = np.random.default_rng(0)
    g = new_generator(d, rng, width)
    widths = disc_widths + [1]
    layers = []
    fan_in = d
    for pos, fan_out in enumerate(widths):
        act = IDENTITY if pos == len(widths) - 1 else LEAKY_RELU
        layers.append(DenseLayer(np.zeros((fan_out, fan_in)), np.zeros(fan_out), act))
        fan_in = fan_out
    f = Discriminator(layers, clamp)
    theta_set(g, theta)
    nu_set(f, nu)
    for s, m in zip(g.subs, mask):
        s.frozen = np.asarray(m, dtype=bool)
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
