"""Distribution-distance metrics and downstream-task efficacy.

Binned metrics share one equal-width grid fitted on the reference (test)
table with 0.5% padding per side; out-of-range values are clamped into the
edge bins. The two-way total-variation headline number is the mean over
column pairs (the summed variant is reported alongside, since it grows with
the pair count). Jensen-Shannon is summed over columns in natural log. Every
metric refuses a table with a NaN or infinite cell.

The pairwise metrics never build the (n, m, d) difference tensor, so
memory stays bounded at any row count. The median-heuristic bandwidth
(Gretton et al., JMLR 2012) is the median distance over every pair of the
pooled rows when there are at most _MEDIAN_PAIRS pairs (181 rows), and over
_MEDIAN_PAIRS pairs of the whole pool drawn with a fixed seed above that;
either way it is ``np.median`` of those pairs' distances by the dense
per-pair formula, ``_pair_sq_dists``, bit for bit. Finiteness is checked
over the whole pool.

MMD sums every pair. Its walker, ``_gram_tiles``, builds the squared
distances in 256 x 256 tiles (one reused 512 KB buffer) as
|x|^2 + |y|^2 - 2 x.y, on rows centred at the pool's mean, with one BLAS
product per tile and nothing else: the squared norms ride in the operands,
[x, |x|^2, 1] against [-2 y, 1, |y|^2]. It bounds each tile's error against
the dense formula. In a tile where gamma times the bound is not below
_KERNEL_TOL, MMD recomputes by ``_pair_sq_dists`` each pair whose own bound
(from its two rows' norms) is not below it either, so it stays within
4e-13 of the dense formula.
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


def _require_finite(*tables) -> None:
    if not all(np.isfinite(T).all() for T in tables):
        raise MetricError("the metrics need finite rows: a NaN or infinity has no bin and no rank")


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
    _require_finite(A, B)
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


# One column pair's two-way TVD holds about 24 bytes a cell of its bins^2
# (both tables' frequencies and their difference; tracemalloc read 24.1-24.2
# at 600 and 1,000 bins): _MAX_BINS keeps that under 1 GiB.
_MAX_BINS = math.isqrt(2**30 // 24)  # 6,688


@dataclass
class BinGrid:
    """Per-column equal-width bin ranges shared by both samples. A grid of
    more than _MAX_BINS bins, or whose width hi - lo overflows, is
    refused."""

    lo: np.ndarray
    hi: np.ndarray
    bins: int = DEFAULT_BINS

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ShapeError("lo/hi must be matching 1-D arrays")
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: not finite either
            finite = np.isfinite(self.hi - self.lo).all()
        if not finite:
            raise UsageError("bin edges and each hi - lo must be finite")
        if np.any(self.hi <= self.lo):
            raise UsageError("each hi must exceed its lo")
        if self.bins < 2:
            raise UsageError(f"bins must be >= 2, got {self.bins}")
        if self.bins > _MAX_BINS:
            raise UsageError(
                f"{self.bins} bins make two-way histograms of {self.bins}^2 cells, more than memory can hold"
                f" (at most {_MAX_BINS} bins)"
            )

    @property
    def d(self) -> int:
        return self.lo.size


def fit_grid(reference, bins: int = DEFAULT_BINS) -> BinGrid:
    """Column ranges from the reference table, padded by 0.5% of the range
    per side (constant columns get a half-unit pad so the grid stays valid).
    A column whose padded range overflows the float range raises
    ``MetricError``: it has no finite bin width."""
    R = _values(reference)
    if R.ndim != 2 or R.shape[0] == 0:
        raise UsageError("reference must be a non-empty 2-D table")
    _require_finite(R)
    lo = R.min(axis=0)
    hi = R.max(axis=0)
    with np.errstate(over="ignore"):  # an overflowing range is refused below
        span = hi - lo
        pad = np.where(span > 0, _PAD * span, 0.5)
        lo, hi = lo - pad, hi + pad
        finite = np.isfinite(hi - lo).all()
    if not finite:
        raise MetricError("a reference column spans more than the float range: its bins have no finite width")
    return BinGrid(lo, hi, bins)


def bin_indices(grid: BinGrid, X) -> np.ndarray:
    """Bin index per cell; values outside the range land in the edge bins."""
    X = _values(X)
    if X.shape[1] != grid.d:
        raise UsageError(f"grid covers {grid.d} columns, table has {X.shape[1]}")
    width = (grid.hi - grid.lo) / grid.bins
    # clamped first, so that a value far out of range cannot overflow into bin 0
    idx = np.floor((np.clip(X, grid.lo, grid.hi) - grid.lo) / width).astype(np.intp)
    return np.minimum(idx, grid.bins - 1)


def _hist_1d(idx_col: np.ndarray, bins: int) -> np.ndarray:
    return np.bincount(idx_col, minlength=bins) / idx_col.size


def _binned(a, b, grid: BinGrid):
    """Bin indices of both tables on ``grid``, and its bin count."""
    A, B = _matrix_pair(a, b)
    return bin_indices(grid, A), bin_indices(grid, B), grid.bins


def tvd_1way(a, b, grid: BinGrid) -> float:
    """Mean over columns of the total variation between binned marginals."""
    ia, ib, bins = _binned(a, b, grid)
    vals = [0.5 * np.abs(_hist_1d(ia[:, j], bins) - _hist_1d(ib[:, j], bins)).sum() for j in range(ia.shape[1])]
    return float(np.mean(vals))


# One two-way bincount holds the joint marginals of one column with as many
# later columns as fit in _HIST_CELLS cells (2 MB of counts), and at least
# one, so its memory does not grow with d: 655 columns at the default 20
# bins, 2 at 300.
_HIST_CELLS = 1 << 18


def _hists_2d(idx: np.ndarray, i: int, cols: slice, bins: int) -> np.ndarray:
    """Binned joint marginals of column i with each column in ``cols``, one
    row of bins^2 frequencies per column, from one bincount: the k-th
    column's cells are offset by k bins^2."""
    later = idx[:, cols]
    k = later.shape[1]
    flat = idx[:, i, None] * bins + later
    flat += np.arange(k) * (bins * bins)
    return np.bincount(flat.ravel(), minlength=k * bins * bins).reshape(k, bins * bins) / idx.shape[0]


def _tvd_pairs(ia: np.ndarray, ib: np.ndarray, i: int, cols: slice, bins: int) -> np.ndarray:
    """Total variation between both tables' binned joint marginals of column
    i with each column in ``cols``."""
    diff = _hists_2d(ia, i, cols, bins) - _hists_2d(ib, i, cols, bins)
    return 0.5 * np.abs(diff, out=diff).sum(axis=1)


def tvd_2way(a, b, grid: BinGrid):
    """Total variation between binned pairwise marginals.

    Returns (mean, sum) over the C(d, 2) column pairs, in the order (0, 1),
    (0, 2), ..., (d - 2, d - 1); the mean is the headline value. Each pair's
    value does not depend on how many pairs share its bincount.
    """
    ia, ib, bins = _binned(a, b, grid)
    d = ia.shape[1]
    if d < 2:
        raise UsageError("tvd_2way needs at least two columns")
    step = max(1, _HIST_CELLS // (bins * bins))
    vals = np.concatenate(
        [_tvd_pairs(ia, ib, i, slice(j, j + step), bins) for i in range(d - 1) for j in range(i + 1, d, step)]
    )
    return float(np.mean(vals)), float(np.sum(vals))


def js_divergence(a, b, grid: BinGrid) -> float:
    """Sum over columns of the Jensen-Shannon divergence between binned
    marginals, in nats (each column contributes at most ln 2)."""
    ia, ib, bins = _binned(a, b, grid)
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

# Gram tiles are _GRAM_TILE square (512 KB, about 0.7 ns a pair on one BLAS
# thread: a 4,000-row pool's 136-tile walk at d=10 took 5.4 ms, against 7.3
# with 128-row tiles and 10.2 with 512); the per-pair formula takes
# _TILE_FLOATS differences (1 MB) at a time.
_GRAM_TILE = 256
_TILE_FLOATS = 1 << 17
# MMD recomputes a pair by the per-pair formula when gamma times its own
# error bound is not below _KERNEL_TOL; elsewhere each kernel value moves by
# less than that (plus a few roundings), and MMD, two within-sample means
# plus twice a cross mean, by less than 4 * _KERNEL_TOL. On release-d10's
# 2,000 + 2,000 x 10 evaluate (workload seeds 1-12) the widest tile's
# product is 3e-14 to 1.5e-13, 0 to 9 of 136 tiles hold a pair past it, and
# 0 to 43 of the 8.0M pairs are recomputed; 1e-14 would recompute more.
_KERNEL_TOL = 1e-13
# The bandwidth's median reads every pair of a pool of at most _MEDIAN_PAIRS
# pairs and _MEDIAN_PAIRS sampled pairs of a larger one (128 KB of keys).
# On 500 + 500 rows (d = 10 and 30) and 2,000 + 2,000 (d = 10), Gaussian or
# with bimodal cells, the sample's median lay within 0.4% of the all-pairs
# median and took 1.2-1.8 ms (one BLAS thread, 2-CPU Xeon). On rows in two
# equal clusters the all-pairs median falls in the gap between the within-
# and across-cluster distances, and the sample's missed it by 10-17%.
_MEDIAN_PAIRS = 1 << 14
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


def _gram_err(d: int, a, b) -> np.ndarray:
    """Bounds on |G - the dense formula's value| for Gram distances between
    rows of centred norms at most a and b over d columns (``_gram_tiles``),
    elementwise over the broadcast arrays a and b; infinite where a + b is
    2^500 or more, or NaN, below which G is finite."""
    r = np.add(a, b)
    s = np.minimum(r, 2.0**500)  # no overflow where the bound is infinite
    err = 2 * (d + 4) * _UNIT_ROUNDOFF * s * s + (4 * d + 8) * _SMALLEST_SUBNORMAL
    return np.where(r < 2.0**500, err, math.inf)


def _sq_norms(Z: np.ndarray) -> np.ndarray:
    """Squared row norms of Z within about 2u of the exact ones (u the unit
    roundoff; plus what underflow loses). Each square is rounded once (u),
    and their sum carries the rounding error of every addition (Sum2 of
    Ogita, Rump and Oishi, *Accurate sum and dot product*, 2005), so it adds
    u + gamma_{d-1}^2 where a plain sum could add gamma_{d-1}."""
    P = np.square(Z.T, order="C")
    s, c = P[0], np.zeros(Z.shape[0])
    for p in P[1:]:
        t = s + p
        z = t - s
        c += (s - (t - z)) + (p - z)  # exactly what t lost (Knuth's TwoSum)
        s = t
    return s + c


def _gram_tiles(X: np.ndarray, Y: np.ndarray, upper: bool = False, *, centre: np.ndarray):
    """Yield (i0, j0, G, err, mask, norms) over square tiles of the squared
    distances between rows of X and rows of Y: G[r, c] stands for the
    distance between X[i0 + r] and Y[j0 + c], on rows x, y centred at
    ``centre``. ``norms`` holds the centred norms of the tile's rows of X
    and of its rows of Y: ``_gram_err`` at a pair's two norms bounds that
    pair alone, err at the tile's largest. The squared
    norms ride in the operands, L = [x, |x|^2, 1] (one row per x) and
    R = [-2 y; 1; |y|^2] (one column per y), built once per walk, so a tile
    is one matrix product of d + 2 terms, x.(-2 y) + |x|^2 + |y|^2.

    ``err`` (``_gram_err``) bounds |G - the dense formula's value| over the
    tile, whatever order the BLAS sums in (FMA included). With u the unit
    roundoff, gamma_k = k u / (1 - k u), a, b the tile's largest centred row
    norms and s = (a + b)^2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, lemma 3.3 and section 3.1):

    - a stored |x|^2 is within about 2u |x|^2 of the exact one
      (``_sq_norms``); the matrix product takes it times 1, exactly, and
      adds it with at most d + 1 roundings, so it enters G within
      gamma_{d+3} |x|^2, and |y|^2 likewise;
    - each term x_k (-2 y_k) (the scale by -2 is exact) enters G within
      gamma_{d+2} of its size, one rounding for the product and at most
      d + 1 for the sum, so those terms err by at most gamma_{d+2} 2ab;
    - so G is within gamma_{d+3} (a^2 + b^2) + gamma_{d+2} 2ab, at most
      gamma_{d+3} s, of the exact distance between the centred rows;
    - the rounding of the centring moves that distance by at most about
      2u s from the distance between the rows themselves;
    - the dense formula errs by at most gamma_{d+2} times that distance
      (one rounding of each difference, counted twice in its square, one of
      the square, at most d - 1 additions), and the distance is at most
      about s.

    The sum is (2d + 7) u s to first order; ``err`` is 2 (d + 4) u s, whose
    extra u s covers the second-order terms for any d below 10^7, plus
    (4d + 8) times the smallest subnormal, which covers the half of it that
    each of the at most 4d + 2 squares, products and fused multiply-adds
    can lose to underflow. (With the norms summed plainly, within
    gamma_d, a BLAS that adds them first would put them within
    gamma_{2d+1}, past this err for d > 3.) Where err is finite, so is
    every G in the tile; where a tile's norms could overflow it, err is
    infinite.

    With ``upper`` (Y is X) only the tiles j0 >= i0 are walked, and the
    diagonal tiles (i0 == j0) come with ``mask``, true at the pairs j > i;
    elsewhere mask is None. G is a view of one 512 KB buffer that the next
    tile overwrites: a consumer may change it in place."""
    if X.shape[1] == 0:  # no columns: every distance is the empty sum, 0.0
        X, Y, centre = np.zeros((X.shape[0], 1)), np.zeros((Y.shape[0], 1)), np.zeros(1)
    d = X.shape[1]
    L = np.empty((X.shape[0], d + 2))
    Xc = np.subtract(X, centre, out=L[:, :d])
    L[:, d] = _sq_norms(Xc)
    L[:, d + 1] = 1.0
    R = np.empty((d + 2, Y.shape[0]))
    if upper:
        np.multiply(Xc.T, -2.0, out=R[:d])  # exact: a power-of-two scale
        R[d + 1] = L[:, d]
    else:
        Yc = Y - centre
        R[d + 1] = _sq_norms(Yc)
        np.multiply(Yc.T, -2.0, out=R[:d])
    R[d] = 1.0
    xn = np.sqrt(L[:, d])
    yn = xn if upper else np.sqrt(R[d + 1])
    t = _GRAM_TILE
    # one bound per tile, from its largest norms (infinite if one is NaN)
    errs = _gram_err(
        d,
        np.maximum.reduceat(xn, np.arange(0, xn.size, t))[:, None],
        np.maximum.reduceat(yn, np.arange(0, yn.size, t)),
    ).tolist()
    buf = np.empty(t * t)
    above = np.triu(np.ones((t, t), dtype=bool), k=1) if upper else None
    for i0 in range(0, X.shape[0], t):
        i1 = min(i0 + t, X.shape[0])
        for j0 in range(i0 if upper else 0, Y.shape[0], t):
            j1 = min(j0 + t, Y.shape[0])
            G = buf[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            np.matmul(L[i0:i1], R[:, j0:j1], out=G)
            mask = above[: i1 - i0, : j1 - j0] if upper and i0 == j0 else None
            yield i0, j0, G, errs[i0 // t][j0 // t], mask, (xn[i0:i1], yn[j0:j1])


def _pair_sq_dists(X: np.ndarray, Y: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances between the rows X[i[k]] and Y[j[k]] by the dense
    per-pair formula ``((X[i] - Y[j]) ** 2).sum(axis=1)``, bit for bit what
    the dense (n, m, d) difference tensor gives, in blocks of at most
    _TILE_FLOATS differences."""
    out = np.empty(i.size)
    step = max(1, _TILE_FLOATS // max(X.shape[1], 1))
    for s in range(0, i.size, step):
        diff = X.take(i[s : s + step], axis=0)  # take gathers rows faster than X[i]
        diff -= Y.take(j[s : s + step], axis=0)
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[s : s + step])
    return out


def median_bandwidth(a, b) -> float:
    """Median pairwise Euclidean distance of the pooled rows, over all
    their pairs i < j up to _MEDIAN_PAIRS of them, else over _MEDIAN_PAIRS
    pairs i != j drawn uniformly with a fixed seed. Every pooled row must
    be finite, those no sampled pair touches too. The mean of the square
    roots of the two middle squared distances (one partition reads both) is
    ``np.median`` of those distances bit for bit: sqrt is monotone."""
    pool = np.vstack(_matrix_pair(a, b))
    n = pool.shape[0]
    if n * (n - 1) // 2 <= _MEDIAN_PAIRS:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, _MEDIAN_PAIRS)
        j = rng.integers(0, n - 1, _MEDIAN_PAIRS)
        j += j >= i  # uniform over the rows other than i
    sq = _pair_sq_dists(pool, pool, i, j)
    k = sq.size // 2
    sq.partition(k)
    lo = sq[:k].max() if sq.size % 2 == 0 else sq[k]
    h = (math.sqrt(lo) + math.sqrt(sq[k])) / 2.0
    if h == 0.0:
        raise MetricError("median pairwise distance is zero; bandwidth undefined")
    return h


def mmd(a, b, bandwidth: float | None = None) -> float:
    """Unbiased squared maximum mean discrepancy (Gretton et al., JMLR 2012)
    with a Gaussian kernel exp(-|x - y|^2 / (2 h^2)); h defaults to the
    median heuristic (``median_bandwidth``) and must be positive and finite.
    The estimate is clamped at zero.

    Each Gram block is summed over ``_gram_tiles`` centred at the pooled
    mean (numpy sums a tile, tiles add in row-major order; within a sample
    the pairs j > i, doubled). In a tile where gamma times its error bound
    is not below _KERNEL_TOL, each pair whose own bound is not below it
    either is recomputed by the per-pair formula, so that every kernel value
    moves by less than _KERNEL_TOL and the result by less than
    4 * _KERNEL_TOL from the dense formula's."""
    A, B = _matrix_pair(a, b)
    pool = np.vstack([A, B])
    n, m = A.shape[0], B.shape[0]
    if n < 2 or m < 2:
        raise UsageError("unbiased MMD needs at least two rows per sample")
    h = median_bandwidth(A, B) if bandwidth is None else float(bandwidth)
    if not 0.0 < h < math.inf:
        raise MetricError(f"bandwidth must be positive and finite, got {h}")
    gamma = 1.0 / (2.0 * h * h)
    centre = pool.mean(axis=0)

    def wide(err):
        return np.logical_not(gamma * err < _KERNEL_TOL)  # so is a NaN or infinite bound

    def gram_sum(X, Y, upper=False):
        total = 0.0
        for i0, j0, G, err, mask, (a, b) in _gram_tiles(X, Y, upper, centre=centre):
            if wide(err):
                # a pair's bound is at most its row's against the tile's
                # largest norm of Y, and its column's against that of X: the
                # pairs' own bounds are needed only where both are wide
                rows = np.flatnonzero(wide(_gram_err(pool.shape[1], a, b.max())))
                cols = np.flatnonzero(wide(_gram_err(pool.shape[1], a.max(), b)))
                at = np.flatnonzero(wide(_gram_err(pool.shape[1], a[rows, None], b[cols])))
                i, j = rows[at // cols.size], cols[at % cols.size]
                G[i, j] = _pair_sq_dists(X, Y, i + i0, j + j0)
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


def ridge_fit_predict(X_train, y_train, X_test) -> np.ndarray:
    """Closed-form ridge of strength RIDGE_LAMBDA with an unpenalized
    intercept (centered solve)."""
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    xm = X_train.mean(axis=0)
    ym = y_train.mean()
    Xc = X_train - xm
    beta = np.linalg.solve(Xc.T @ Xc + RIDGE_LAMBDA * np.eye(Xc.shape[1]), Xc.T @ (y_train - ym))
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
    target: str | None = None,
) -> MetricReport:
    """All metrics of the synthetic table against the held-out table, MMD at
    the median-heuristic bandwidth, with the wall time of each in
    ``timings`` (``downstream.ridge`` only with a target). The two-way TVD
    needs two columns; with one it is NaN here and null in ``to_dict``. Any
    other value that is not finite (one overflowed on finite rows) raises
    ``MetricError`` naming it.

    The held-out rows are treated as private. Every figure here, the grid,
    ``n_test`` and the sampled bandwidth included, is an un-noised statistic
    of them that no epsilon covers."""
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
    bandwidth = timed("bandwidth", median_bandwidth, synthetic, test)
    report = MetricReport(
        wd=timed("wd", wd_table, synthetic, test),
        tvd_2way=mean2,
        tvd_2way_sum=sum2,
        tvd_1way=timed("tvd_1way", tvd_1way, synthetic, test, grid),
        mmd=timed("mmd", mmd, synthetic, test, bandwidth),
        js=timed("js", js_divergence, synthetic, test, grid),
        meta={
            "bins": bins,
            "bandwidth": bandwidth,
            "n_synthetic": synthetic.n,
            "n_test": test.n,
            "tvd_headline": "mean over pairs",
        },
        timings=timings,
    )
    reported = {k: getattr(report, k) for k in ("wd", "tvd_1way", "mmd", "js")}
    if test.d >= 2:
        reported.update(tvd_2way=mean2, tvd_2way_sum=sum2)
    if target is not None:
        report.downstream.append(timed("downstream.ridge", downstream_efficacy, synthetic, test, target))
        reported.update((f"downstream.ridge.{k}", report.downstream[0][k]) for k in ("r2", "rmse"))
    for name, value in reported.items():
        if not math.isfinite(value):
            raise MetricError(f"{name} is {value}: it overflowed on these tables")
    return report
