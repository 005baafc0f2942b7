"""Distribution-distance metrics and downstream-task efficacy.

Binned metrics share one equal-width grid fitted on the reference (test)
table with 0.5% padding per side; out-of-range values are clamped into the
edge bins. The two-way total-variation headline number is the mean over
column pairs (the summed variant is reported alongside, since it grows with
the pair count). Jensen-Shannon is summed over columns in natural log.

The pairwise metrics (the median-heuristic bandwidth and MMD) need finite
rows and never build the (n, m, d) difference tensor, so memory stays
bounded at any row count. One walker, ``_gram_tiles``, builds the squared
distances in 256 x 256 tiles (one reused 512 KB buffer) as
|x|^2 + |y|^2 - 2 x.y with one BLAS product, on rows centred at the pool's
mean, and bounds each tile's error against the dense formula; one exact
formula, ``_pair_sq_dists``, recomputes a pair bit for bit as the dense
tensor gives it. MMD recomputes each tile where gamma times the bound is
not below _KERNEL_TOL, so it stays within 4e-13 of the dense formula.

The median is an exact selection, bit-identical to ``np.median`` of all
pairwise distances. Each Gram walk counts exactly the squared distances
below and inside a window: a pair whose Gram value lies more than its
tile's error bound outside the window is counted or passed over, and the
rest are recomputed and kept, or sampled past _GATHER_MAX. The first window
is read off the distances of 2^16 random pairs; one that holds both middle
ranks in at most _GATHER_MAX keys answers in one walk, and any other is
narrowed from its sample or moved by its exact counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import MetricError, ShapeError, UsageError
from .tabular import Table

DEFAULT_BINS = 20
_PAD = 0.005
RIDGE_LAMBDA = 1e-3


def _values(x) -> np.ndarray:
    v = x.values if isinstance(x, Table) else np.asarray(x, dtype=np.float64)
    return np.asarray(v, dtype=np.float64)


def _matrix_pair(a, b):
    A, B = _values(a), _values(b)
    if A.ndim != 2 or B.ndim != 2:
        raise ShapeError("expected 2-D tables")
    if A.shape[1] != B.shape[1]:
        raise UsageError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    if isinstance(a, Table) and isinstance(b, Table) and a.names != b.names:
        raise UsageError(f"column names differ: {a.names} vs {b.names}")
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise UsageError("empty table")
    return A, B


# ---------------------------------------------------------------------------
# Wasserstein


def wd_1d(a, b) -> float:
    """Empirical 1-Wasserstein distance between two samples.

    Both samples are read off at m = max(len(a), len(b)) quantile positions
    (i + 0.5) / m using the inverse empirical CDF, and the absolute
    differences are averaged. For equal sizes this is exactly the mean
    absolute difference of the sorted samples.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise UsageError("wd_1d needs non-empty samples")
    m = max(a.size, b.size)
    ps = (np.arange(m) + 0.5) / m
    qa = a[np.minimum((ps * a.size).astype(np.intp), a.size - 1)]
    qb = b[np.minimum((ps * b.size).astype(np.intp), b.size - 1)]
    return float(np.abs(qa - qb).mean())


def wd_table(a, b) -> float:
    """Mean of wd_1d over columns."""
    A, B = _matrix_pair(a, b)
    return float(np.mean([wd_1d(A[:, j], B[:, j]) for j in range(A.shape[1])]))


# ---------------------------------------------------------------------------
# binned metrics


@dataclass
class BinGrid:
    """Per-column equal-width bin ranges shared by both samples."""

    lo: np.ndarray
    hi: np.ndarray
    bins: int = DEFAULT_BINS

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ShapeError("lo/hi must be matching 1-D arrays")
        if np.any(self.hi <= self.lo):
            raise UsageError("each hi must exceed its lo")
        if self.bins < 2:
            raise UsageError(f"bins must be >= 2, got {self.bins}")

    @property
    def d(self) -> int:
        return self.lo.size


def fit_grid(reference, bins: int = DEFAULT_BINS) -> BinGrid:
    """Column ranges from the reference table, padded by 0.5% of the range
    per side (constant columns get a half-unit pad so the grid stays valid)."""
    R = _values(reference)
    if R.ndim != 2 or R.shape[0] == 0:
        raise UsageError("reference must be a non-empty 2-D table")
    lo = R.min(axis=0)
    hi = R.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, _PAD * span, 0.5)
    return BinGrid(lo - pad, hi + pad, bins)


def bin_indices(grid: BinGrid, X) -> np.ndarray:
    """Bin index per cell; values outside the range land in the edge bins."""
    X = _values(X)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != grid.d:
        raise UsageError(f"grid covers {grid.d} columns, table has {X.shape[1]}")
    width = (grid.hi - grid.lo) / grid.bins
    idx = np.floor((X - grid.lo) / width).astype(np.intp)
    return np.clip(idx, 0, grid.bins - 1)


def _hist_1d(idx_col: np.ndarray, bins: int) -> np.ndarray:
    return np.bincount(idx_col, minlength=bins) / idx_col.size


def _hist_2d(idx_i: np.ndarray, idx_j: np.ndarray, bins: int) -> np.ndarray:
    flat = idx_i * bins + idx_j
    return np.bincount(flat, minlength=bins * bins).reshape(bins, bins) / idx_i.size


def _binned(a, b, grid: BinGrid | None, bins: int):
    """Bin indices of both tables and the bin count, on ``grid`` or else on
    one fitted on b with ``bins`` bins."""
    A, B = _matrix_pair(a, b)
    grid = grid or fit_grid(b, bins)
    return bin_indices(grid, A), bin_indices(grid, B), grid.bins


def tvd_1way(a, b, grid: BinGrid | None = None, bins: int = DEFAULT_BINS) -> float:
    """Mean over columns of the total variation between binned marginals."""
    ia, ib, bins = _binned(a, b, grid, bins)
    vals = [0.5 * np.abs(_hist_1d(ia[:, j], bins) - _hist_1d(ib[:, j], bins)).sum() for j in range(ia.shape[1])]
    return float(np.mean(vals))


def tvd_2way(a, b, grid: BinGrid | None = None, bins: int = DEFAULT_BINS):
    """Total variation between binned pairwise marginals.

    Returns (mean, sum) over the C(d, 2) column pairs; the mean is the
    headline value.
    """
    ia, ib, bins = _binned(a, b, grid, bins)
    d = ia.shape[1]
    if d < 2:
        raise UsageError("tvd_2way needs at least two columns")
    vals = []
    for i in range(d):
        for j in range(i + 1, d):
            pa = _hist_2d(ia[:, i], ia[:, j], bins)
            pb = _hist_2d(ib[:, i], ib[:, j], bins)
            vals.append(0.5 * np.abs(pa - pb).sum())
    return float(np.mean(vals)), float(np.sum(vals))


def js_divergence(a, b, grid: BinGrid | None = None, bins: int = DEFAULT_BINS) -> float:
    """Sum over columns of the Jensen-Shannon divergence between binned
    marginals, in nats (each column contributes at most ln 2)."""
    ia, ib, bins = _binned(a, b, grid, bins)
    total = 0.0
    for j in range(ia.shape[1]):
        p = _hist_1d(ia[:, j], bins)
        q = _hist_1d(ib[:, j], bins)
        m = 0.5 * (p + q)
        total += 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
    return float(total)


def _kl(p: np.ndarray, m: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / m[mask])))


# ---------------------------------------------------------------------------
# MMD

# Gram tiles are _GRAM_TILE square (512 KB, about 3 ns a pair on one BLAS
# thread); the per-pair formula takes _TILE_FLOATS differences (1 MB) at a time.
_GRAM_TILE = 256
_TILE_FLOATS = 1 << 17
# MMD recomputes a Gram tile pair by pair when gamma times its error bound
# is not below _KERNEL_TOL; elsewhere each kernel value moves by less than
# that (plus a few roundings), and MMD, two within-sample means plus twice a
# cross mean, by less than 4 * _KERNEL_TOL. On the benchmark's 2,000 + 2,000
# x 10 evaluate the widest tile's product is about 5e-14: 1e-14 would recompute it.
_KERNEL_TOL = 1e-13
# A selection walk keeps the keys inside its window, a sample past _GATHER_MAX.
_GATHER_MAX = 1 << 20
# Above _SAMPLE_PAIRS pairs, the first window is read off the squared
# distances of _SAMPLE_PAIRS random row pairs (fixed seed). A window's ends
# sit _BRACKET_SDS binomial standard deviations beyond the sample positions
# of its ranks; at 2,000 + 2,000 rows the first holds about 1/64 of the pairs.
_SAMPLE_PAIRS = 1 << 16
_BRACKET_SDS = 4.0
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


def _gram_err(d: int, a, b) -> float:
    """Bound on |G - the dense formula's value| for a Gram distance between
    rows of centred norms at most a and b over d columns (``_gram_tiles``);
    infinite when a + b is 2^500 or more, or NaN, below which G is finite."""
    r = float(a + b)
    if not r < 2.0**500:
        return math.inf
    return 2 * (d + 4) * _UNIT_ROUNDOFF * r * r + (4 * d + 8) * _SMALLEST_SUBNORMAL


def _gram_tiles(X: np.ndarray, Y: np.ndarray, upper: bool = False, *, centre: np.ndarray):
    """Yield (i0, j0, G, err, mask) over square tiles of the squared distances
    between rows of X and rows of Y: G[r, c] stands for the distance between
    X[i0 + r] and Y[j0 + c], built as |x|^2 + |y|^2 - 2 x.y with one matrix
    product per tile, on rows centred at ``centre``.

    ``err`` (``_gram_err``) bounds |G - the dense formula's value| over the
    tile, whatever order the BLAS sums in (FMA included). With u the unit
    roundoff, a, b the tile's largest centred row norms and R = (a + b)^2:
    the norms, the product and the two additions err by at most
    gamma_{d+2} R (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 3.1), the rounding of the centring moves the exact distance by
    at most about 2u R, and the dense formula errs by at most gamma_{d+2}
    times the distance; ``err`` is 2 (d + 4) u R, which covers their sum,
    plus a term for underflow. Where err is finite, so is every G in the
    tile; where a tile's norms could overflow it, err is infinite.

    With ``upper`` (Y is X) only the tiles j0 >= i0 are walked, and the
    diagonal tiles (i0 == j0) come with ``mask``, true at the pairs j > i;
    elsewhere mask is None. G is a view of one 512 KB buffer that the next
    tile overwrites: a consumer may change it in place."""
    if X.shape[1] == 0:  # no columns: every distance is the empty sum, 0.0
        X, Y, centre = np.zeros((X.shape[0], 1)), np.zeros((Y.shape[0], 1)), np.zeros(1)
    d = X.shape[1]
    Xc = X - centre
    Yc = Xc if upper else Y - centre
    x2 = np.einsum("ij,ij->i", Xc, Xc)
    y2 = x2 if upper else np.einsum("ij,ij->i", Yc, Yc)
    YT2 = -2.0 * Yc.T  # exact: a power-of-two scale
    xn, yn = np.sqrt(x2), np.sqrt(y2)
    t = _GRAM_TILE
    buf = np.empty(t * t)
    above = np.triu(np.ones((t, t), dtype=bool), k=1) if upper else None
    for i0 in range(0, X.shape[0], t):
        i1 = min(i0 + t, X.shape[0])
        a = xn[i0:i1].max()
        for j0 in range(i0 if upper else 0, Y.shape[0], t):
            j1 = min(j0 + t, Y.shape[0])
            G = buf[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            np.matmul(Xc[i0:i1], YT2[:, j0:j1], out=G)
            G += x2[i0:i1, None]
            G += y2[None, j0:j1]
            mask = above[: i1 - i0, : j1 - j0] if upper and i0 == j0 else None
            yield i0, j0, G, _gram_err(d, a, yn[j0:j1].max()), mask


def _pair_sq_dists(X: np.ndarray, Y: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances between the rows X[i[k]] and Y[j[k]] by the dense
    per-pair formula ``((X[i] - Y[j]) ** 2).sum(axis=1)``, bit for bit what
    the dense (n, m, d) difference tensor gives, in blocks of at most
    _TILE_FLOATS differences."""
    out = np.empty(i.size)
    step = max(1, _TILE_FLOATS // max(X.shape[1], 1))
    for s in range(0, i.size, step):
        diff = X[i[s : s + step]]
        diff -= Y[j[s : s + step]]
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[s : s + step])
    return out


def _sampled_sq_dists(X: np.ndarray, size: int) -> np.ndarray:
    """Squared distances of ``size`` row pairs i != j of X, drawn uniformly
    at random with a fixed seed, in blocks of at most _TILE_FLOATS floats."""
    n, d = X.shape
    rng = np.random.default_rng(0)
    out = np.empty(size)
    step = max(1, _TILE_FLOATS // max(2 * d, 1))
    for s0 in range(0, size, step):
        m = min(step, size - s0)
        i = rng.integers(0, n, m)
        j = rng.integers(0, n - 1, m)
        j += j >= i
        out[s0 : s0 + m] = _pair_sq_dists(X, X, i, j)
    return out


def _window(sample: np.ndarray, ranks, count: int, lo: float, hi: float):
    """A window within [lo, hi] likely to hold the keys at the given ranks
    among the ``count`` keys in [lo, hi], read off ``sample``, a sorted
    uniform sample of those keys. The sample keys below the rank-r key are
    about binomial with p = r / count, so the ends sit _BRACKET_SDS standard
    deviations beyond the sample positions of the lowest and the highest
    rank; an end that falls off the sample stays at lo or hi."""
    s = sample.size

    def position(rank: int, side: int) -> float:
        p = rank / count
        return s * p + side * _BRACKET_SDS * math.sqrt(s * p * (1.0 - p))

    a, b = math.floor(position(min(ranks), -1)), math.ceil(position(max(ranks) + 1, 1))
    return (float(sample[a]) if 0 <= a < s else lo), (float(sample[b]) if b < s else hi)


def _bracket(X: np.ndarray, ranks, pairs: int):
    """The selection's first window: the whole key range at or below
    _SAMPLE_PAIRS pairs, else one read off the sorted squared distances of
    _SAMPLE_PAIRS random row pairs."""
    if pairs <= _SAMPLE_PAIRS:
        return 0.0, math.inf
    return _window(np.sort(_sampled_sq_dists(X, _SAMPLE_PAIRS)), ranks, pairs, 0.0, math.inf)


def _walk(X: np.ndarray, lo: float, hi: float, centre: np.ndarray, rng):
    """One Gram walk over the row pairs i < j of X for the window [lo, hi]
    of squared distances: the exact numbers of distances below and inside
    it, the exact least and most inside, and the distances inside (all up to
    _GATHER_MAX, past that a Bernoulli sample, thinned by half whenever it
    outgrows _GATHER_MAX). A pair whose Gram value lies more than its tile's
    err below lo is counted below, one more than err above hi is passed
    over, and the rest, every pair of a tile whose G is NaN or err infinite
    included, are recomputed by the dense per-pair formula."""
    below = count = 0
    least, most = math.inf, -math.inf
    kept, size, rate = np.empty(_GRAM_TILE * _GRAM_TILE), 0, 1.0
    for i0, j0, G, err, mask in _gram_tiles(X, X, upper=True, centre=centre):
        # thresholds rounded outwards, so that G < lo - err implies a
        # distance below lo, and G > hi + err one above hi; NaN fails both
        under = G < np.nextafter(lo - err, -math.inf)
        near = ~(under | (G > np.nextafter(hi + err, math.inf)))
        if mask is not None:
            under &= mask
            near &= mask
        below += np.count_nonzero(under)
        i, j = np.divmod(np.flatnonzero(near), G.shape[1])
        keys = _pair_sq_dists(X, X, i + i0, j + j0)
        below += np.count_nonzero(keys < lo)
        keys = keys[(keys >= lo) & (keys <= hi)]
        if keys.size == 0:
            continue
        count += keys.size
        least, most = min(least, keys.min()), max(most, keys.max())
        if rate < 1.0:
            keys = keys[rng.random(keys.size) < rate]
        # kept grows and is thinned in place, so no key is ever held twice
        if size + keys.size > kept.size:
            kept.resize(max(size + keys.size, min(2 * kept.size, _GATHER_MAX + G.size)), refcheck=False)
        kept[size : size + keys.size] = keys
        size += keys.size
        while size > _GATHER_MAX:
            end, size, rate = size, 0, rate / 2
            for s in range(0, end, G.size):
                part = kept[s : min(s + G.size, end)]
                part = part[rng.random(part.size) < 0.5]
                kept[size : size + part.size] = part
                size += part.size
    kept.resize(size, refcheck=False)
    return below, count, float(least), float(most), kept


def _pair_order_statistics(X: np.ndarray, ranks) -> list:
    """Exact values at the given 0-based ranks among the squared distances of
    all row pairs i < j of X, in memory bounded by the tile and gather sizes.

    Each rank's value lies in its hull, at first all keys. Each walk
    (``_walk``; the first window is ``_bracket``'s) places every rank below,
    inside or above its window by exact counts. A rank inside is read off at
    either end of the window, in a window of one key value, or in one kept
    whole (``np.partition``); else its hull becomes [least, most] and the
    next window is read off the sample (``_window``), or, where that leaves
    out no key of the hull, the hull is split at the sample key nearest the
    rank. A rank outside keeps the part of its hull on its side, walked
    whole next. The rows are finite, so every rank has a key, and a hull
    loses a key at least every second walk: the loop ends."""
    n = X.shape[0]
    centre = X.mean(axis=0)
    rng = np.random.default_rng(0)
    hull, found = dict.fromkeys(ranks, (0.0, math.inf)), {}
    lo, hi = _bracket(X, ranks, n * (n - 1) // 2)
    while True:
        kept = None  # the last walk's keys are not held through the next
        below, count, least, most, kept = _walk(X, lo, hi, centre, rng)
        inside = {}
        for r, (a, b) in list(hull.items()):
            k = r - below
            if k < 0:
                hull[r] = (a, min(b, float(np.nextafter(lo, -math.inf))))
            elif k >= count:
                hull[r] = (max(a, float(np.nextafter(hi, math.inf))), b)
            else:
                del hull[r]
                if k == 0 or least == most:
                    found[r] = least
                elif k == count - 1:
                    found[r] = most
                else:
                    inside[r] = k
        if inside and kept.size == count:  # kept whole
            kept.partition(list(inside.values()))
            found.update((r, float(kept[k])) for r, k in inside.items())
        elif inside:
            hull.update(dict.fromkeys(inside, (least, most)))
            kept.sort()
            lo, hi = _window(kept, inside.values(), count, least, most)
            if lo <= least and hi >= most:
                at = min(kept.size - 1, round(kept.size * min(inside.values()) / count))
                split = float(kept[at]) if kept.size else least
                lo, hi = least, min(split, float(np.nextafter(most, -math.inf)))
            continue
        if not hull:
            return [found[r] for r in ranks]
        lo, hi = hull[min(hull)]


def _pooled(a, b):
    """Both tables and their stacked rows, which must be finite: a NaN
    distance has no rank."""
    A, B = _matrix_pair(a, b)
    pool = np.vstack([A, B])
    if not np.isfinite(pool).all():
        raise MetricError("the pairwise metrics need finite rows")
    return A, B, pool


def median_bandwidth(a, b) -> float:
    """Median pairwise Euclidean distance over the pooled rows.

    Exact, and bit-identical to ``np.median`` over all N(N-1)/2 distances,
    without holding them: the two middle squared distances are selected
    tile by tile (``_pair_order_statistics``), in one walk over the pairs
    when the first window holds both ranks, and the result is the mean of
    their square roots, ``np.median``'s rule (sqrt is monotone)."""
    _, _, pool = _pooled(a, b)
    pairs = pool.shape[0] * (pool.shape[0] - 1) // 2
    lo, hi = _pair_order_statistics(pool, ((pairs - 1) // 2, pairs // 2))
    h = (math.sqrt(lo) + math.sqrt(hi)) / 2.0
    if h == 0.0:
        raise MetricError("median pairwise distance is zero; bandwidth undefined")
    return h


def mmd(a, b, bandwidth: float | None = None) -> float:
    """Unbiased squared maximum mean discrepancy (Gretton et al., JMLR 2012)
    with a Gaussian kernel exp(-|x - y|^2 / (2 h^2)); h defaults to the
    median heuristic on the pooled sample and must be positive and finite.
    The estimate is clamped at zero.

    Each Gram block is summed over ``_gram_tiles`` centred at the pooled
    mean (numpy sums a tile, tiles add in row-major order; within a sample
    the pairs j > i, doubled); a tile where gamma times its error bound is
    not below _KERNEL_TOL is recomputed pair by pair, which keeps the result
    within 4 * _KERNEL_TOL of the dense formula's."""
    A, B, pool = _pooled(a, b)
    n, m = A.shape[0], B.shape[0]
    if n < 2 or m < 2:
        raise UsageError("unbiased MMD needs at least two rows per sample")
    h = median_bandwidth(A, B) if bandwidth is None else float(bandwidth)
    if not 0.0 < h < math.inf:
        raise MetricError(f"bandwidth must be positive and finite, got {h}")
    gamma = 1.0 / (2.0 * h * h)
    centre = pool.mean(axis=0)

    def gram_sum(X, Y, upper=False):
        total = 0.0
        for i0, j0, G, err, mask in _gram_tiles(X, Y, upper, centre=centre):
            if not gamma * err < _KERNEL_TOL:
                i, j = np.indices(G.shape).reshape(2, -1)
                G = _pair_sq_dists(X, Y, i + i0, j + j0).reshape(G.shape)
            sq = G if mask is None else G[mask]
            np.multiply(sq, -gamma, out=sq)
            total += float(np.exp(sq, out=sq).sum())
        return total

    term_x = 2.0 * gram_sum(A, A, upper=True) / (n * (n - 1))
    term_y = 2.0 * gram_sum(B, B, upper=True) / (m * (m - 1))
    return float(max(0.0, term_x + term_y - 2.0 * gram_sum(A, B) / (n * m)))


# ---------------------------------------------------------------------------
# downstream efficacy


def _feature_split(table: Table, target: str):
    t = table.column_index(target)
    keep = [j for j in range(table.d) if j != t]
    return table.values[:, keep], table.values[:, t]


def ridge_fit_predict(X_train, y_train, X_test, lam: float = RIDGE_LAMBDA) -> np.ndarray:
    """Closed-form ridge with an unpenalized intercept (centered solve)."""
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    xm = X_train.mean(axis=0)
    ym = y_train.mean()
    Xc = X_train - xm
    beta = np.linalg.solve(Xc.T @ Xc + lam * np.eye(Xc.shape[1]), Xc.T @ (y_train - ym))
    return (np.asarray(X_test, dtype=np.float64) - xm) @ beta + ym


def downstream_efficacy(train: Table, test: Table, target: str) -> dict:
    """Fit ridge on (synthetic) train, score on (real) test; r2 and rmse are
    on the test target's original scale."""
    if train.names != test.names:
        raise UsageError("train/test column names differ")
    Xtr, ytr = _feature_split(train, target)
    Xte, yte = _feature_split(test, target)
    resid = yte - ridge_fit_predict(Xtr, ytr, Xte)
    ss_res = float((resid**2).sum())
    ss_tot = float(((yte - yte.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise MetricError(f"test target {target!r} has zero variance; r2 undefined")
    r2 = 1.0 - ss_res / ss_tot
    rmse = float(np.sqrt((resid**2).mean()))
    return {"model": "ridge", "r2": r2, "rmse": rmse}


# ---------------------------------------------------------------------------
# bundled report


@dataclass
class MetricReport:
    wd: float
    tvd_2way: float
    tvd_2way_sum: float
    tvd_1way: float
    mmd: float
    js: float
    downstream: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # seconds per metric; off the dict, which must reproduce byte for byte
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["timings"]
        for key in ("tvd_2way", "tvd_2way_sum"):  # undefined on one column: JSON null
            if math.isnan(out[key]):
                out[key] = None
        return out


def metric_report(
    synthetic: Table,
    test: Table,
    bins: int = DEFAULT_BINS,
    bandwidth: float | None = None,
    target: str | None = None,
) -> MetricReport:
    """All metrics of the synthetic table against the held-out table, with
    the wall time of each in ``timings`` (the bandwidth's only when it is
    computed here, ``downstream.ridge`` with a target). The two-way TVD
    needs two columns; with one it is NaN here and null in ``to_dict``."""
    timings = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args)
        timings[name] = time.perf_counter() - t0
        return value

    grid = fit_grid(test, bins)
    mean2, sum2 = (
        timed("tvd_2way", tvd_2way, synthetic, test, grid) if test.d >= 2 else (math.nan, math.nan)
    )
    used_bandwidth = (
        bandwidth if bandwidth is not None else timed("bandwidth", median_bandwidth, synthetic, test)
    )
    report = MetricReport(
        wd=timed("wd", wd_table, synthetic, test),
        tvd_2way=mean2,
        tvd_2way_sum=sum2,
        tvd_1way=timed("tvd_1way", tvd_1way, synthetic, test, grid),
        mmd=timed("mmd", mmd, synthetic, test, used_bandwidth),
        js=timed("js", js_divergence, synthetic, test, grid),
        meta={
            "bins": bins,
            "bandwidth": used_bandwidth,
            "n_synthetic": synthetic.n,
            "n_test": test.n,
            "tvd_headline": "mean over pairs",
        },
        timings=timings,
    )
    if target is not None:
        report.downstream.append(timed("downstream.ridge", downstream_efficacy, synthetic, test, target))
    return report
