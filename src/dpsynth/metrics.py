"""Distribution-distance metrics and downstream-task efficacy.

Binned metrics share one equal-width grid fitted on the reference (test)
table with 0.5% padding per side; out-of-range values are clamped into the
edge bins. The two-way total-variation headline number is the mean over
column pairs (the summed variant is reported alongside, since it grows with
the pair count). Jensen-Shannon is summed over columns in natural log.

The pairwise metrics (the median-heuristic bandwidth and MMD) never build
the (n, m, d) difference tensor of whole tables. They walk the distances in
tiles held in one reused buffer, so memory stays bounded at any row count.
Two walkers build the tiles. The Gram walk builds a 256 x 256 tile (512 KB)
as |x|^2 + |y|^2 - 2 x.y with one BLAS product, on rows centred at the
pool's mean, and bounds each tile's error against the dense formula. The exact
slab walk builds a tile column-major in a 1 MB buffer, one slab per column,
and sums its slabs in numpy's own reduction order, so each squared distance
is bit for bit what the dense tensor gives; it costs about ten times more
per pair.

MMD sums exp(-gamma * G) over Gram tiles, unless gamma times the error
bound of the widest tile is not below _KERNEL_TOL: then the whole call
walks slab tiles, so MMD stays within 4e-13 of the dense formula.

The median is an exact selection, bit-identical to ``np.median`` of all
pairwise distances. Above _GATHER_MAX pairs, the squared distances of 2^16
random row pairs bracket the two middle ranks, and one Gram walk counts the
pairs more than a tile's err below the bracket, passes over those more than
err above it, and recomputes the rest by the dense per-pair formula, which
is exact; those are counted or gathered, and the ranks are read off the
gathered keys. The slab walk stays only where every distance must be exact
as built: the whole-pool gather at or below _GATHER_MAX pairs, and the
radix counting passes over the key bits that run when the bracket misses
the ranks, overflows its array, or would hold more than _GATHER_MAX keys
(ties), or when a tile's bound is not finite (rows too large to square);
and MMD whose kernel the Gram bound cannot keep within _KERNEL_TOL.
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


def tvd_1way(a, b, grid: BinGrid | None = None, bins: int = DEFAULT_BINS) -> float:
    """Mean over columns of the total variation between binned marginals."""
    A, B = _matrix_pair(a, b)
    grid = grid or fit_grid(b, bins)
    ia, ib = bin_indices(grid, A), bin_indices(grid, B)
    vals = [
        0.5 * np.abs(_hist_1d(ia[:, j], grid.bins) - _hist_1d(ib[:, j], grid.bins)).sum()
        for j in range(A.shape[1])
    ]
    return float(np.mean(vals))


def tvd_2way(a, b, grid: BinGrid | None = None, bins: int = DEFAULT_BINS):
    """Total variation between binned pairwise marginals.

    Returns (mean, sum) over the C(d, 2) column pairs; the mean is the
    headline value.
    """
    A, B = _matrix_pair(a, b)
    d = A.shape[1]
    if d < 2:
        raise UsageError("tvd_2way needs at least two columns")
    grid = grid or fit_grid(b, bins)
    ia, ib = bin_indices(grid, A), bin_indices(grid, B)
    vals = []
    for i in range(d):
        for j in range(i + 1, d):
            pa = _hist_2d(ia[:, i], ia[:, j], grid.bins)
            pb = _hist_2d(ib[:, i], ib[:, j], grid.bins)
            vals.append(0.5 * np.abs(pa - pb).sum())
    return float(np.mean(vals)), float(np.sum(vals))


def js_divergence(a, b, grid: BinGrid | None = None, bins: int = DEFAULT_BINS) -> float:
    """Sum over columns of the Jensen-Shannon divergence between binned
    marginals, in nats (each column contributes at most ln 2)."""
    A, B = _matrix_pair(a, b)
    grid = grid or fit_grid(b, bins)
    ia, ib = bin_indices(grid, A), bin_indices(grid, B)
    total = 0.0
    for j in range(A.shape[1]):
        p = _hist_1d(ia[:, j], grid.bins)
        q = _hist_1d(ib[:, j], grid.bins)
        m = 0.5 * (p + q)
        total += 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
    return float(total)


def _kl(p: np.ndarray, m: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / m[mask])))


# ---------------------------------------------------------------------------
# MMD

# The slab walk holds one (d, rows, cols) tile buffer per pass, of at most
# _TILE_FLOATS float64 entries (1 MB), and tiles up to _TILE_COLS wide; at
# d = 10 it builds a tile at about 29 ns per pair, and 4 MB, 1,024-column
# buffers ran slower at d = 30. The Gram walk's square tiles are _GRAM_TILE
# wide (512 KB) and cost about 3 ns per pair (one BLAS thread, 2-CPU host).
_TILE_FLOATS = 1 << 17
_TILE_COLS = 128
_GRAM_TILE = 256
# MMD walks the slab tiles instead of the Gram tiles when gamma times the
# error bound of the widest Gram tile (twice the largest centred row norm)
# is not below _KERNEL_TOL. On the Gram tiles each kernel value then moves
# by less than _KERNEL_TOL (plus a few roundings), so MMD, two within-sample
# kernel means plus twice a cross mean, moves by less than 4 * _KERNEL_TOL.
# On the benchmark's 2,000 + 2,000 x 10 evaluate that product is about
# 5e-14: a 1e-14 tolerance would send it to the slow walk.
_KERNEL_TOL = 1e-13
# Exact selection resolves _DIGIT_BITS key bits per counting pass, and
# gathers an order statistic's candidates once at most _GATHER_MAX remain.
_DIGIT_BITS = 16
_GATHER_MAX = 1 << 20
# Above _GATHER_MAX pairs, selection first brackets its ranks from the
# squared distances of _SAMPLE_PAIRS random row pairs (fixed seed), at
# _BRACKET_SDS binomial standard deviations either side. At 2,000 + 2,000
# rows the bracket holds about 1/64 of the pairs.
_SAMPLE_PAIRS = 1 << 16
_BRACKET_SDS = 4.0
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_INF_KEY = np.float64(np.inf).view(np.uint64)


def _sum_slabs(S: np.ndarray) -> np.ndarray:
    """Sum S over its first axis in place and return S[0], the sum.

    The slabs are added in the order numpy's ``add.reduce`` adds a
    contiguous axis of length len(S), so the result is bit for bit
    ``np.moveaxis(S, 0, -1).sum(axis=-1)``: in order below 8; up to 128,
    eight running lanes, their tree ((0+1)+(2+3))+((4+5)+(6+7)), then the
    tail in order; above 128, the two halves split at a multiple of 8."""
    d = S.shape[0]
    if d > 128:
        half = d // 2 - (d // 2) % 8
        return np.add(_sum_slabs(S[:half]), _sum_slabs(S[half:]), out=S[0])
    if d < 8:
        for i in range(1, d):
            S[0] += S[i]
        return S[0]
    tail = d - d % 8
    for i in range(8, tail, 8):
        S[0:8] += S[i : i + 8]
    S[0:8:2] += S[1:8:2]
    S[0:8:4] += S[2:8:4]
    S[0] += S[4]
    for i in range(tail, d):
        S[0] += S[i]
    return S[0]


def _sq_dist_tiles(X: np.ndarray, Y: np.ndarray, upper: bool = False):
    """Yield the squared Euclidean distances between rows of X and rows of Y,
    flat, one row block x column block tile at a time. Every entry is
    ``((x - y) ** 2).sum()`` over the columns, bit for bit what the dense
    ``(n, m, d)`` difference tensor gives: each tile is built column-major,
    one (rows, cols) slab per column, and the slabs are summed in numpy's
    own order (``_sum_slabs``). With ``upper`` (Y is X) only the pairs
    j > i are yielded; only the first tile of each row block reaches the
    diagonal, and only it is masked.

    Unmasked tiles are views of one buffer that the next tile overwrites:
    a consumer may change a tile in place, but must copy what it keeps."""
    XT, YT = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
    if XT.shape[0] == 0:  # no columns: every distance is the empty sum, 0.0
        XT, YT = np.zeros((1, XT.shape[1])), np.zeros((1, YT.shape[1]))
    d = XT.shape[0]
    cols = max(1, min(_TILE_COLS, _TILE_FLOATS // d))
    rows = max(1, min(cols, _TILE_FLOATS // (d * cols)))
    above = np.triu(np.ones((rows, cols), dtype=bool), k=1)
    buf = np.empty(d * rows * cols)
    for i0 in range(0, XT.shape[1], rows):
        i1 = min(i0 + rows, XT.shape[1])
        for j0 in range(i0 if upper else 0, YT.shape[1], cols):
            j1 = min(j0 + cols, YT.shape[1])
            S = buf[: d * (i1 - i0) * (j1 - j0)].reshape(d, i1 - i0, j1 - j0)
            np.subtract(XT[:, i0:i1, None], YT[:, None, j0:j1], out=S)
            np.square(S, out=S)
            sq = _sum_slabs(S)
            yield sq[above[: i1 - i0, : j1 - j0]] if upper and j0 == i0 else sq.ravel()


def _gram_err(d: int, a, b) -> float:
    """Bound on |G - the dense formula's value| for a Gram distance between
    two rows of centred norms at most a and b, over d columns
    (``_gram_tiles``). Infinite when a + b is 2^500 or more, or NaN: only
    below that is every G finite."""
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


def _pair_sq_dists(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances of the row pairs (i[k], j[k]) of X by the dense
    per-pair formula ``((X[i] - X[j]) ** 2).sum(axis=1)``, bit for bit what
    the slab tiles and the dense tensor give."""
    diff = X[i]
    diff -= X[j]
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def _sampled_sq_dists(X: np.ndarray, size: int) -> np.ndarray:
    """Squared distances of ``size`` row pairs i != j of X, drawn uniformly
    at random with a fixed seed, computed in blocks of at most _TILE_FLOATS
    floats."""
    n, d = X.shape
    rng = np.random.default_rng(0)
    out = np.empty(size)
    step = max(1, _TILE_FLOATS // max(2 * d, 1))
    for s0 in range(0, size, step):
        m = min(step, size - s0)
        i = rng.integers(0, n, m)
        j = rng.integers(0, n - 1, m)
        j += j >= i
        out[s0 : s0 + m] = _pair_sq_dists(X, i, j)
    return out


def _bracket(X: np.ndarray, ranks, pairs: int):
    """(lo, hi, capacity): keys that bracket every rank among the ``pairs``
    squared distances of X with high probability, and the number of keys in
    [lo, hi] to make room for, both read off a sorted random sample.

    The number of sample keys below the rank-r distance is binomial with
    p = r / pairs, so lo and hi sit _BRACKET_SDS standard deviations beyond
    the sample positions of the lowest and highest rank. The share of
    distances inside is the sample's share, plus the same margin."""
    keys = _sampled_sq_dists(X, _SAMPLE_PAIRS).view(np.uint64)
    keys.sort()
    s = keys.size

    def position(rank: int, side: int) -> float:
        p = rank / pairs
        return s * p + side * _BRACKET_SDS * math.sqrt(s * p * (1.0 - p))

    a, b = math.floor(position(min(ranks), -1)), math.ceil(position(max(ranks) + 1, 1))
    lo = keys[a] if a >= 0 else np.uint64(0)
    hi = keys[b] if b < s else np.uint64((1 << 64) - 1)
    share = (np.searchsorted(keys, hi, side="right") - np.searchsorted(keys, lo)) / s
    capacity = math.ceil(pairs * (share + _BRACKET_SDS * math.sqrt(share * (1.0 - share) / s)))
    return lo, hi, capacity


def _bracket_select(X: np.ndarray, ranks, pairs: int):
    """Values at ``ranks`` among the squared distances of X's row pairs from
    one Gram walk, or None when the bracket would hold more than _GATHER_MAX
    keys, overflows its array, or misses a rank, or when a tile's error
    bound is not finite (its Gram values could be too).

    A pair whose Gram value lies more than the tile's err below the bracket
    is counted below it, and one more than err above it is passed over; only
    the pairs in between are recomputed by the dense per-pair formula, and
    those exact values are counted or gathered as keys."""
    lo, hi, capacity = _bracket(X, ranks, pairs)
    if capacity > _GATHER_MAX:
        return None
    lo_f = float(lo.view(np.float64))
    hi_f = float(hi.view(np.float64)) if hi < _INF_KEY else math.inf
    step = max(1, _TILE_FLOATS // max(X.shape[1], 1))
    kept = np.empty(capacity, dtype=np.uint64)
    below = filled = 0
    for i0, j0, G, err, mask in _gram_tiles(X, X, upper=True, centre=X.mean(axis=0)):
        if not math.isfinite(err):
            return None
        if mask is not None:
            G[~mask] = np.nan  # fails every comparison: neither below nor near
        # thresholds rounded outwards, so that G < low_t implies a distance
        # below lo, and G > high_t one above hi
        low_t = np.nextafter(lo_f - err, -math.inf)
        high_t = np.nextafter(hi_f + err, math.inf)
        below += np.count_nonzero(G < low_t)
        near = G >= low_t
        near &= G <= high_t
        i, j = np.divmod(np.flatnonzero(near), G.shape[1])
        for s in range(0, i.size, step):
            keys = _pair_sq_dists(X, i[s : s + step] + i0, j[s : s + step] + j0).view(np.uint64)
            below += np.count_nonzero(keys < lo)
            sel = keys[(keys >= lo) & (keys <= hi)]
            if filled + sel.size > capacity:
                return None
            kept[filled : filled + sel.size] = sel
            filled += sel.size
    if below > min(ranks) or max(ranks) >= below + filled:
        return None
    inside = kept[:filled]
    inside.partition(sorted({r - below for r in ranks}))
    return [float(inside.view(np.float64)[r - below]) for r in ranks]


def _pair_order_statistics(X: np.ndarray, ranks) -> list:
    """Exact values at the given 0-based ranks among the squared distances of
    all row pairs i < j of X, in memory bounded by the tile and gather sizes.

    A non-negative float64 sorts like its uint64 bit pattern, its key. Above
    _GATHER_MAX pairs, one Gram walk first gathers the keys inside a sampled
    bracket (``_bracket_select``); when the bracket holds every rank, that
    is the answer. Otherwise, and always at or below _GATHER_MAX pairs, the
    radix passes run over exact slab tiles: each rank is narrowed to a
    group, the keys that share a known top-bit prefix. A counting pass
    histograms the next _DIGIT_BITS bits of the group's keys and keeps the
    bucket that holds the rank. A group whose keys are all equal, or whose
    prefix is all 64 bits, is the value itself, so ties never grow the
    gathered set. A group of at most _GATHER_MAX keys (the whole pool, when
    it is that small) is copied into one array of the group's size in one
    more pass, and the rank is read off with ``np.partition``."""
    n = X.shape[0]
    pairs = n * (n - 1) // 2
    if pairs > _GATHER_MAX:
        found = _bracket_select(X, ranks, pairs)
        if found is not None:
            return found
    # rank -> (prefix, fixed bits, rank within the group, group size)
    todo = {k: (0, 0, k, pairs) for k in ranks}
    found = {}
    while todo:
        groups = {(p, f): size for p, f, _, size in todo.values()}
        gathered = {g: np.empty(size, dtype=np.uint64) for g, size in groups.items() if size <= _GATHER_MAX}
        filled = dict.fromkeys(gathered, 0)
        counts = {g: np.zeros(1 << _DIGIT_BITS, dtype=np.int64) for g in groups if g not in gathered}
        spans = {g: [(1 << 64) - 1, 0] for g in counts}
        for sq in _sq_dist_tiles(X, X, upper=True):
            keys = sq.view(np.uint64)
            for prefix, fixed in groups:
                sel = keys[keys >> (64 - fixed) == prefix] if fixed else keys
                if (prefix, fixed) in gathered:
                    at = filled[prefix, fixed]
                    gathered[prefix, fixed][at : at + sel.size] = sel
                    filled[prefix, fixed] = at + sel.size
                elif sel.size:
                    digit = (sel >> (64 - fixed - _DIGIT_BITS)) & ((1 << _DIGIT_BITS) - 1)
                    counts[prefix, fixed] += np.bincount(digit.astype(np.intp), minlength=1 << _DIGIT_BITS)
                    span = spans[prefix, fixed]
                    span[:] = min(span[0], sel.min()), max(span[1], sel.max())
        for k, (prefix, fixed, r, _) in list(todo.items()):
            g = (prefix, fixed)
            del todo[k]
            if g in gathered:
                gathered[g].partition(r)
                found[k] = gathered[g][r]
            elif spans[g][0] == spans[g][1]:
                found[k] = spans[g][0]
            else:
                cum = np.cumsum(counts[g])
                b = int(np.searchsorted(cum, r, side="right"))
                r -= int(cum[b - 1]) if b else 0
                prefix, fixed = (prefix << _DIGIT_BITS) | b, fixed + _DIGIT_BITS
                if fixed == 64:
                    found[k] = prefix
                else:
                    todo[k] = (prefix, fixed, r, int(counts[g][b]))
    return [float(np.array(found[k], dtype=np.uint64).view(np.float64)) for k in ranks]


def median_bandwidth(a, b) -> float:
    """Median pairwise Euclidean distance over the pooled rows.

    Exact, and bit-identical to ``np.median`` over all N(N-1)/2 distances,
    without holding them: the two middle squared distances are selected
    tile by tile (``_pair_order_statistics``), in one walk over the pairs
    when a sampled bracket holds both ranks and with radix counting passes
    when it does not, and the result is the mean of their square roots,
    ``np.median``'s rule (sqrt is monotone)."""
    A, B = _matrix_pair(a, b)
    pool = np.vstack([A, B])
    pairs = pool.shape[0] * (pool.shape[0] - 1) // 2
    lo, hi = _pair_order_statistics(pool, ((pairs - 1) // 2, pairs // 2))
    h = (math.sqrt(lo) + math.sqrt(hi)) / 2.0
    if h == 0.0:
        raise MetricError("median pairwise distance is zero; bandwidth undefined")
    return h


def mmd(a, b, bandwidth: float | None = None) -> float:
    """Unbiased squared maximum mean discrepancy (Gretton et al., JMLR 2012)
    with a Gaussian kernel exp(-|x - y|^2 / (2 h^2)); h defaults to the
    median heuristic on the pooled sample. The estimate is clamped at zero.

    Each Gram block is summed tile by tile (numpy sums within a tile, tiles
    added in row-major order); the within-sample blocks sum the pairs j > i
    and double them, which leaves out the unit diagonal. The tiles come from
    ``_gram_tiles``, all centred at the pooled mean, unless gamma times the
    error bound of the widest of them is not below _KERNEL_TOL: then every
    tile comes from the exact ``_sq_dist_tiles``. Either way the result stays
    within 4 * _KERNEL_TOL of the dense formula's."""
    A, B = _matrix_pair(a, b)
    n, m = A.shape[0], B.shape[0]
    if n < 2 or m < 2:
        raise UsageError("unbiased MMD needs at least two rows per sample")
    h = median_bandwidth(A, B) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise MetricError(f"bandwidth must be positive, got {h}")
    gamma = 1.0 / (2.0 * h * h)
    pool = np.vstack([A, B])
    centre = pool.mean(axis=0)
    pool -= centre
    r = math.sqrt(np.einsum("ij,ij->i", pool, pool).max())
    exact = not gamma * _gram_err(max(A.shape[1], 1), r, r) < _KERNEL_TOL

    def tiles(X, Y, upper):
        if exact:
            return _sq_dist_tiles(X, Y, upper)
        return (G if mask is None else G[mask] for _, _, G, _, mask in _gram_tiles(X, Y, upper, centre=centre))

    def gram_sum(X, Y, upper=False):
        total = 0.0
        for sq in tiles(X, Y, upper):
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
