"""Distribution-distance metrics and downstream-task efficacy.

Binned metrics share one equal-width grid fitted on the reference (test)
table with 0.5% padding per side; out-of-range values are clamped into the
edge bins. The two-way total-variation headline number is the mean over
column pairs (the summed variant is reported alongside, since it grows with
the pair count). Jensen-Shannon is summed over columns in natural log.

The pairwise metrics (the median-heuristic bandwidth and MMD) never build
the (n, m, d) difference tensor of whole tables. They walk the distances in
tiles held in one reused 1 MB buffer, so memory stays bounded at any row
count. A tile is built column-major, one slab per column, and its slabs are
summed in numpy's own reduction order, so each squared distance is bit for
bit what the dense tensor gives. MMD sums its Gram blocks tile by tile.

The median is an exact selection over the tiles, bit-identical to
``np.median`` of all pairwise distances. A pool with at most _GATHER_MAX
pairs is gathered whole in one walk. Above that, the squared distances of
2^16 random row pairs bracket the two middle ranks, and one walk counts the
distances below the bracket and gathers those inside it; the ranks are read
off the gathered keys. Only when that bracket misses the ranks, overflows
its array, or would hold more than _GATHER_MAX keys (ties) does the
selection fall back to radix counting passes over the key bits.
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

# The pairwise metrics hold one (d, rows, cols) tile buffer per pass, of at
# most _TILE_FLOATS float64 entries (1 MB), and tiles up to _TILE_COLS wide.
# At d = 10 one pass over 4,000 rows took 0.20 s, against 0.49 s with
# row-major (rows, cols, d) tiles summed over their last axis; 4 MB,
# 1,024-column buffers ran slower at d = 30.
_TILE_FLOATS = 1 << 17
_TILE_COLS = 128
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


def _sampled_sq_dists(X: np.ndarray, size: int) -> np.ndarray:
    """Squared distances of ``size`` row pairs i != j of X, drawn uniformly
    at random with a fixed seed, computed in blocks of at most _TILE_FLOATS
    floats. They only place a bracket, so their summation order is free."""
    n, d = X.shape
    rng = np.random.default_rng(0)
    out = np.empty(size)
    step = max(1, _TILE_FLOATS // max(2 * d, 1))
    for s0 in range(0, size, step):
        m = min(step, size - s0)
        i = rng.integers(0, n, m)
        j = rng.integers(0, n - 1, m)
        j += j >= i
        diff = X[i]
        diff -= X[j]
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[s0 : s0 + m])
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
    one walk, or None when the bracket would hold more than _GATHER_MAX keys,
    overflows its array, or misses a rank."""
    lo, hi, capacity = _bracket(X, ranks, pairs)
    if capacity > _GATHER_MAX:
        return None
    kept = np.empty(capacity, dtype=np.uint64)
    below = filled = 0
    for sq in _sq_dist_tiles(X, X, upper=True):
        keys = sq.view(np.uint64)
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
    _GATHER_MAX pairs, one walk first gathers the keys inside a sampled
    bracket (``_bracket_select``); when the bracket holds every rank, that
    is the answer. Otherwise, and always at or below _GATHER_MAX pairs, the
    radix passes run: each rank is narrowed to a group, the keys that share
    a known top-bit prefix. A counting pass histograms the next _DIGIT_BITS
    bits of the group's keys and keeps the bucket that holds the rank. A
    group whose keys are all equal, or whose prefix is all 64 bits, is the
    value itself, so ties never grow the gathered set. A group of at most
    _GATHER_MAX keys (the whole pool, when it is that small) is copied into
    one array of the group's size in one more pass, and the rank is read
    off with ``np.partition``."""
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
    and double them, which leaves out the unit diagonal."""
    A, B = _matrix_pair(a, b)
    n, m = A.shape[0], B.shape[0]
    if n < 2 or m < 2:
        raise UsageError("unbiased MMD needs at least two rows per sample")
    h = median_bandwidth(A, B) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise MetricError(f"bandwidth must be positive, got {h}")
    gamma = 1.0 / (2.0 * h * h)

    def gram_sum(X, Y, upper=False):
        total = 0.0
        for sq in _sq_dist_tiles(X, Y, upper):
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
