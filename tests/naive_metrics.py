"""Slow, loop-based re-implementations of every metric, used as oracles.

These deliberately avoid the library's vectorized code paths: plain Python
loops, explicit histogram counting, and term-by-term kernel sums.
"""

import math

import numpy as np


def naive_wd_1d(a, b):
    a = sorted(float(v) for v in np.ravel(a))
    b = sorted(float(v) for v in np.ravel(b))
    m = max(len(a), len(b))
    total = 0.0
    for i in range(m):
        p = (i + 0.5) / m
        qa = a[min(int(p * len(a)), len(a) - 1)]
        qb = b[min(int(p * len(b)), len(b) - 1)]
        total += abs(qa - qb)
    return total / m


def naive_wd_table(A, B):
    A, B = np.asarray(A, float), np.asarray(B, float)
    per_col = [naive_wd_1d(A[:, j], B[:, j]) for j in range(A.shape[1])]
    return float(np.mean(per_col))


def naive_grid(reference, bins):
    """Replicates the library's padding rule: 0.5% of the span per side,
    half-unit pad for constant columns."""
    R = np.asarray(reference, float)
    lo, hi = [], []
    for j in range(R.shape[1]):
        col_lo, col_hi = min(R[:, j]), max(R[:, j])
        span = col_hi - col_lo
        pad = 0.005 * span if span > 0 else 0.5
        lo.append(col_lo - pad)
        hi.append(col_hi + pad)
    return np.array(lo), np.array(hi), bins


def naive_bin(v, lo, hi, bins):
    width = (hi - lo) / bins
    i = math.floor((v - lo) / width)
    return min(max(i, 0), bins - 1)


def naive_hist_1d(col, lo, hi, bins):
    h = [0.0] * bins
    for v in col:
        h[naive_bin(float(v), lo, hi, bins)] += 1.0
    return [c / len(col) for c in h]


def naive_tvd_1way(A, B, lo, hi, bins):
    A, B = np.asarray(A, float), np.asarray(B, float)
    vals = []
    for j in range(A.shape[1]):
        pa = naive_hist_1d(A[:, j], lo[j], hi[j], bins)
        pb = naive_hist_1d(B[:, j], lo[j], hi[j], bins)
        vals.append(0.5 * sum(abs(x - y) for x, y in zip(pa, pb)))
    return float(np.mean(vals))


def naive_hist_2d(ci, cj, lo_i, hi_i, lo_j, hi_j, bins):
    h = [[0.0] * bins for _ in range(bins)]
    for vi, vj in zip(ci, cj):
        h[naive_bin(float(vi), lo_i, hi_i, bins)][naive_bin(float(vj), lo_j, hi_j, bins)] += 1.0
    n = len(ci)
    return [[c / n for c in row] for row in h]


def naive_tvd_2way(A, B, lo, hi, bins):
    A, B = np.asarray(A, float), np.asarray(B, float)
    d = A.shape[1]
    vals = []
    for i in range(d):
        for j in range(i + 1, d):
            pa = naive_hist_2d(A[:, i], A[:, j], lo[i], hi[i], lo[j], hi[j], bins)
            pb = naive_hist_2d(B[:, i], B[:, j], lo[i], hi[i], lo[j], hi[j], bins)
            vals.append(
                0.5 * sum(abs(pa[r][c] - pb[r][c]) for r in range(bins) for c in range(bins))
            )
    return float(np.mean(vals)), float(np.sum(vals))


def loop_tvd_2way(ia, ib, bins):
    """The library's two-way TVD before it took one bincount per first
    column: one bincount per table and column pair, on bin indices."""
    d = ia.shape[1]

    def hist_2d(idx_i, idx_j):
        flat = idx_i * bins + idx_j
        return np.bincount(flat, minlength=bins * bins).reshape(bins, bins) / idx_i.size

    vals = []
    for i in range(d):
        for j in range(i + 1, d):
            pa = hist_2d(ia[:, i], ia[:, j])
            pb = hist_2d(ib[:, i], ib[:, j])
            vals.append(0.5 * np.abs(pa - pb).sum())
    return float(np.mean(vals)), float(np.sum(vals))


def naive_js(A, B, lo, hi, bins):
    A, B = np.asarray(A, float), np.asarray(B, float)
    total = 0.0
    for j in range(A.shape[1]):
        p = naive_hist_1d(A[:, j], lo[j], hi[j], bins)
        q = naive_hist_1d(B[:, j], lo[j], hi[j], bins)
        for pk, qk in zip(p, q):
            mk = 0.5 * (pk + qk)
            if pk > 0:
                total += 0.5 * pk * math.log(pk / mk)
            if qk > 0:
                total += 0.5 * qk * math.log(qk / mk)
    return total


def naive_median_bandwidth(A, B):
    pool = [list(map(float, row)) for row in np.asarray(A, float)]
    pool += [list(map(float, row)) for row in np.asarray(B, float)]
    dists = []
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            dists.append(
                math.sqrt(sum((x - y) ** 2 for x, y in zip(pool[i], pool[j])))
            )
    return float(np.median(dists))


def naive_mmd(A, B, h):
    A, B = np.asarray(A, float), np.asarray(B, float)
    n, m = A.shape[0], B.shape[0]

    def k(x, y):
        sq = sum((xv - yv) ** 2 for xv, yv in zip(x, y))
        return math.exp(-sq / (2.0 * h * h))

    xx = sum(k(A[i], A[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    yy = sum(k(B[i], B[j]) for i in range(m) for j in range(m) if i != j) / (m * (m - 1))
    xy = sum(k(A[i], B[j]) for i in range(n) for j in range(m)) / (n * m)
    return max(0.0, xx + yy - 2.0 * xy)


# The dense formulas the library used before it tiled its pairwise metrics:
# every pairwise distance at once, in (n, m, d) difference tensors.


def dense_median_bandwidth(A, B):
    # the upper triangle of the dense (N, N, d) tensor's sums, one row at a
    # time (the same expression entry for entry, in a 1/N of the memory)
    pool = np.vstack([np.asarray(A, float), np.asarray(B, float)])
    sq = np.concatenate(
        [((pool[i : i + 1, None, :] - pool[None, i + 1 :, :]) ** 2).sum(axis=2).ravel() for i in range(pool.shape[0] - 1)]
    )
    return float(np.median(np.sqrt(sq)))


def sampled_pairs(n, pairs=1 << 14):
    # the row pairs the median bandwidth draws from an n-row pool: i
    # uniform, j uniform over the other n - 1 rows, seed 0
    rng = np.random.default_rng(0)
    i = rng.integers(0, n, pairs)
    j = rng.integers(0, n - 1, pairs)
    return i, np.where(j >= i, j + 1, j)


def sampled_median_bandwidth(A, B, pairs=1 << 14):
    # the median bandwidth's definition: np.median of the distances over
    # every pair of the pooled rows up to `pairs` of them, else over
    # `pairs` fixed-seed pairs (``sampled_pairs``), each by the dense formula
    pool = np.vstack([np.asarray(A, float), np.asarray(B, float)])
    if pool.shape[0] * (pool.shape[0] - 1) // 2 <= pairs:
        return dense_median_bandwidth(pool, pool[:0])
    i, j = sampled_pairs(pool.shape[0], pairs)
    return float(np.median(np.sqrt(((pool[i] - pool[j]) ** 2).sum(axis=1))))


def dense_mmd(A, B, h):
    A, B = np.asarray(A, float), np.asarray(B, float)
    n, m = A.shape[0], B.shape[0]
    gamma = 1.0 / (2.0 * h * h)

    def gram(X, Y):
        sq = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-gamma * sq)

    kxx, kyy, kxy = gram(A, A), gram(B, B), gram(A, B)
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(max(0.0, term_x + term_y - 2.0 * kxy.mean()))
