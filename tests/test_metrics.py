import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import naive_metrics as nm
from dpsynth import metrics
from dpsynth.errors import MetricError, UsageError
from dpsynth.tabular import Table


def test_wd_1d_hand_values():
    assert metrics.wd_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert metrics.wd_1d([0.0], [3.0]) == 3.0
    assert metrics.wd_1d([0.0, 1.0], [1.0, 2.0]) == 1.0
    # unequal sizes: m = 3 quantile positions 1/6, 1/2, 5/6
    got = metrics.wd_1d([0.0, 10.0], [0.0, 10.0, 20.0])
    assert abs(got - 10.0 / 3.0) < 1e-15
    with pytest.raises(UsageError):
        metrics.wd_1d([], [1.0])


def test_wd_table_is_column_mean():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((8, 2)), rng.standard_normal((5, 2))
    want = 0.5 * (metrics.wd_1d(A[:, 0], B[:, 0]) + metrics.wd_1d(A[:, 1], B[:, 1]))
    assert abs(metrics.wd_table(A, B) - want) < 1e-15
    assert metrics.wd_table(A, A) == 0.0
    one = Table(("a",), A[:, :1])
    assert metrics.wd_table(one, one) == metrics.wd_1d(A[:, 0], A[:, 0])


def test_bin_grid_validation_and_clamping():
    with pytest.raises(UsageError):
        metrics.BinGrid([0.0], [0.0])
    with pytest.raises(UsageError):
        metrics.BinGrid([0.0], [1.0], bins=1)
    grid = metrics.BinGrid([0.0], [10.0], bins=5)
    idx = metrics.bin_indices(grid, np.array([[-99.0], [0.1], [9.9], [99.0]]))
    np.testing.assert_array_equal(idx[:, 0], [0, 0, 4, 4])


def test_grids_past_the_float_range_are_refused():
    # -1e308 and 1e308 overflow hi - lo before padding; +-8.95e307 pad to
    # finite edges 1.81e308 apart, whose bins would take negative indices
    for top in (1e308, 8.95e307):
        ref = np.array([[-top, 0.0], [top, 1.0]])
        with pytest.raises(MetricError):
            metrics.fit_grid(ref)
    for lo, hi in (([-1e308], [1e308]), ([0.0, -9e307], [1.0, 9.05e307])):
        with pytest.raises(UsageError):
            metrics.BinGrid(lo, hi)


def test_bin_counts_past_the_address_space_are_refused():
    # 3,037,000,500^2 cells exceed 2^63 - 1; one bin fewer does not
    big = 3_037_000_500
    with pytest.raises(UsageError):
        metrics.BinGrid([0.0], [1.0], bins=big)
    with pytest.raises(UsageError):
        metrics.fit_grid(np.array([[0.0], [1.0]]), bins=10**11)
    assert metrics.BinGrid([0.0], [1.0], bins=big - 1).bins == big - 1


def test_fit_grid_padding():
    t = np.array([[0.0, 5.0], [10.0, 5.0]])
    grid = metrics.fit_grid(t, bins=4)
    np.testing.assert_allclose(grid.lo, [-0.05, 4.5])
    np.testing.assert_allclose(grid.hi, [10.05, 5.5])


def test_tvd_identical_and_disjoint():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 2))
    grid = metrics.fit_grid(A)
    assert metrics.tvd_1way(A, A, grid) == 0.0
    assert metrics.tvd_2way(A, A, grid) == (0.0, 0.0)
    # disjoint by construction: all mass in bin 0 vs all mass in bin 1
    two = metrics.BinGrid([0.0, 0.0], [1.0, 1.0], bins=2)
    low = np.full((6, 2), 0.2)
    high = np.full((4, 2), 0.8)
    assert metrics.tvd_1way(low, high, two) == 1.0
    mean2, sum2 = metrics.tvd_2way(low, high, two)
    assert mean2 == 1.0 and sum2 == 1.0
    with pytest.raises(UsageError):
        metrics.tvd_2way(A[:, :1], A[:, :1], grid)


def test_tvd_2way_hand_enumeration():
    Y = np.array([[0.0, 0.0], [1.0, 1.0]])
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = metrics.fit_grid(Y, bins=2)
    mean2, sum2 = metrics.tvd_2way(X, Y, grid)
    assert mean2 == 1.0 and sum2 == 1.0  # anti-diagonal vs diagonal mass
    X2 = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    mean2, _ = metrics.tvd_2way(X2, Y, grid)
    assert abs(mean2 - 0.5) < 1e-15  # half the mass must move


def _bits(values):
    return [int(np.float64(v).view(np.uint64)) for v in values]


def test_tvd_2way_equals_the_per_pair_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [(2, 1, 2), (2, 1, 20), (3, 7, 2), (34, 299, 29)]
    # above the split: 300 bins share one bincount among 2 later columns,
    # 600 bins give every pair its own
    cases += [(7, 40, 300), (5, 60, 600)]
    cases += [(int(rng.integers(2, 35)), int(rng.integers(1, 300)), int(rng.integers(2, 30))) for _ in range(60)]
    for k, (d, n, bins) in enumerate(cases):
        A = rng.standard_normal((n, d))
        B = 1.3 * rng.standard_normal((int(rng.integers(1, 300)), d)) + 0.2
        if k % 2:  # rounded: heavy ties, some on bin edges
            A, B = np.round(A, 1), np.round(B, 1)
        grid = metrics.fit_grid(B, bins)
        want = nm.loop_tvd_2way(metrics.bin_indices(grid, A), metrics.bin_indices(grid, B), bins)
        assert _bits(metrics.tvd_2way(A, B, grid)) == _bits(want), (d, n, bins)


def test_js_hand_values():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((20, 3))
    grid = metrics.fit_grid(A)
    assert metrics.js_divergence(A, A, grid) == 0.0
    # disjoint supports: each column contributes exactly ln 2
    two = metrics.BinGrid([0.0] * 3, [1.0] * 3, bins=2)
    low = np.full((5, 3), 0.2)
    high = np.full((7, 3), 0.8)
    got = metrics.js_divergence(low, high, two)
    assert abs(got - 3 * math.log(2)) < 1e-12
    assert metrics.js_divergence(A, A + 1000.0, grid) <= 3 * math.log(2) + 1e-12


def test_mmd_identical_two_point_hand_enumeration():
    A = np.array([[0.0], [1.0]])
    h = 1.0
    k01 = math.exp(-1.0 / 2.0)
    # unbiased estimator on identical sets: k(r) + k(r) - 2 * (1 + k(r)) / 2
    raw = 2 * k01 - 1.0 - k01
    assert raw < 0.0
    assert metrics.mmd(A, A, bandwidth=h) == 0.0  # clamped at zero
    assert abs(nm.naive_mmd(A, A, h) - max(0.0, raw)) < 1e-15


def test_mmd_far_clusters_approach_two():
    A = np.zeros((3, 2))
    B = np.full((3, 2), 1000.0)
    got = metrics.mmd(A, B, bandwidth=1.0)
    assert abs(got - 2.0) < 1e-6


def test_mmd_auto_bandwidth_affine_invariant():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 2))
    B = rng.standard_normal((7, 2)) + 0.5
    base = metrics.mmd(A, B)
    scaled = metrics.mmd(3.0 * A + 11.0, 3.0 * B + 11.0)
    assert abs(base - scaled) < 1e-9


def test_mmd_errors():
    A = np.zeros((4, 1))
    with pytest.raises(MetricError):
        metrics.median_bandwidth(A, A)  # all pairwise distances zero
    with pytest.raises(UsageError):
        metrics.mmd(A[:1], A, bandwidth=1.0)
    X = np.arange(4.0).reshape(4, 1)
    for bad in (0.0, math.nan, math.inf):  # NaN must raise, not score a perfect 0.0
        with pytest.raises(MetricError):
            metrics.mmd(X, X, bandwidth=bad)


def test_all_metrics_match_naive_oracles():
    rng = np.random.default_rng(12345)
    for _ in range(10):
        n_a = int(rng.integers(2, 11))
        n_b = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        bins = int(rng.integers(2, 7))
        A = np.round(rng.standard_normal((n_a, d)) * 3, 2)
        B = np.round(rng.standard_normal((n_b, d)) * 3, 2)
        lo, hi, _ = nm.naive_grid(B, bins)
        grid = metrics.BinGrid(lo, hi, bins)

        assert abs(metrics.wd_table(A, B) - nm.naive_wd_table(A, B)) < 1e-12
        assert abs(metrics.tvd_1way(A, B, grid) - nm.naive_tvd_1way(A, B, lo, hi, bins)) < 1e-12
        assert abs(metrics.js_divergence(A, B, grid) - nm.naive_js(A, B, lo, hi, bins)) < 1e-12
        if d >= 2:
            got = metrics.tvd_2way(A, B, grid)
            want = nm.naive_tvd_2way(A, B, lo, hi, bins)
            assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12
        h = metrics.median_bandwidth(A, B)
        assert abs(h - nm.naive_median_bandwidth(A, B)) < 1e-12
        assert abs(metrics.mmd(A, B, h) - nm.naive_mmd(A, B, h)) < 1e-12
        # the library grid matches the naive padding rule
        lib_grid = metrics.fit_grid(B, bins)
        np.testing.assert_allclose(lib_grid.lo, lo, rtol=0, atol=1e-15)
        np.testing.assert_allclose(lib_grid.hi, hi, rtol=0, atol=1e-15)


# The pairwise metrics work tile by tile; the dense formulas they replaced
# are the oracles. Small tiles force partial tiles, and a lowered
# _SAMPLE_PAIRS reads the window off smaller samples (one pair's window
# spans every key), on tie-heavy data too.
_SAMPLE_PAIRSES = [None, 1, 100, 500, 1 << 14]


def _full_pool_median(A, B):
    """The median distance over every pair of the pooled rows, by the
    selector ``median_bandwidth`` runs on at most _BANDWIDTH_ROWS of them."""
    lo, hi = metrics._middle_sq_dists(np.vstack([A, B]))
    return (math.sqrt(lo) + math.sqrt(hi)) / 2.0


def _pool_tiles(A, B):
    pool = np.vstack([A, B])
    return list(metrics._gram_tiles(pool, pool, upper=True, centre=pool.mean(axis=0)))


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize("d", [1, 3, 12])
@pytest.mark.parametrize("n_a", [700, 702])
def test_tiled_median_and_mmd_match_dense_formulas(n_a, d, small, monkeypatch):
    if small:
        monkeypatch.setattr(metrics, "_GRAM_TILE", 100)
    rng = np.random.default_rng(100 + d)
    A = rng.standard_normal((n_a, d))
    B = 1.5 * rng.standard_normal((300, d)) + 0.2
    pairs = (n_a + 300) * (n_a + 299) // 2
    assert pairs % 2 == (n_a == 702)  # both parities of the pair count
    assert len(_pool_tiles(A, B)) >= 2
    # the bandwidth takes a stride of the 1,002-row pool; the selector it
    # runs is checked on every pair of both pools
    h = _full_pool_median(A, B)
    assert h == nm.dense_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12
    auto = metrics.median_bandwidth(A, B)
    assert auto == nm.stride_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B) - nm.dense_mmd(A, B, auto)) <= 1e-12


# _pair_sq_dists sums slabs of at most _TILE_FLOATS pair differences along
# their rows and must give the dense (n, m, d) tensor's sums bit for bit; if
# a numpy release sums the two in different orders, these fail. A slab of
# two pairs here splits the 15 pairs over eight slabs.


@pytest.mark.parametrize("d", [*range(1, 41), 127, 128, 129, 130, 200, 257])
def test_slab_sum_is_numpys_row_major_sum(d, monkeypatch):
    monkeypatch.setattr(metrics, "_TILE_FLOATS", 2 * d)
    rng = np.random.default_rng(d)
    # magnitudes spread over 16 decades make every summation order show
    X = rng.random((3, d)) * 10.0 ** rng.uniform(-8, 8, d)
    Y = rng.random((5, d)) * 10.0 ** rng.uniform(-8, 8, d)
    want = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
    i, j = np.indices(want.shape).reshape(2, -1)
    got = metrics._pair_sq_dists(X, Y, i, j)
    assert got.dtype == want.dtype and np.array_equal(got, want.ravel())


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize("d", [8, 9, 30])
def test_tiled_metrics_match_dense_at_block_widths(d, small, monkeypatch):
    if small:
        monkeypatch.setattr(metrics, "_GRAM_TILE", 100)
    rng = np.random.default_rng(200 + d)
    A = rng.standard_normal((400, d)) * rng.uniform(0.01, 100, d)
    B = 1.5 * rng.standard_normal((300, d)) + 0.2
    assert len(_pool_tiles(A, B)) >= 2
    h = metrics.median_bandwidth(A, B)
    assert h == nm.dense_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12


def test_pairwise_metrics_refuse_non_finite_rows():
    # and so do the binned ones and wd. A NaN distance ranks nowhere: with
    # 200 of 500 pooled rows NaN, 64% of the pairs are, and the middle ranks
    # lie above every comparable key; a NaN cell casts to bin 0, and an
    # infinite one stretches the grid
    rng = np.random.default_rng(25)
    A, B = rng.standard_normal((300, 4)), rng.standard_normal((200, 4))
    A[:200, 1] = math.nan
    B[:10, 2] = math.inf
    grid = metrics.fit_grid(B[10:])
    calls = [metrics.median_bandwidth, lambda a, b: metrics.mmd(a, b, 1.0), metrics.wd_table]
    calls += [lambda a, b, f=f: f(a, b, grid) for f in (metrics.tvd_1way, metrics.tvd_2way, metrics.js_divergence)]
    for a, b in ((A, B[10:]), (A[200:], B), (B[10:], A), (B, A[200:])):
        for call in calls:
            with pytest.raises(MetricError):
                call(a, b)
        with pytest.raises(MetricError):
            metrics.metric_report(Table(tuple("abcd"), a), Table(tuple("abcd"), b))
    for bad in (A, B):
        with pytest.raises(MetricError):
            metrics.fit_grid(bad)
    for lo, hi in (([-math.inf], [1.0]), ([0.0], [math.inf]), ([math.nan], [1.0])):
        with pytest.raises(UsageError):
            metrics.BinGrid(lo, hi)


def test_far_out_of_range_values_land_in_the_edge_bins():
    # (1e308 - lo) / width overflows, and infinity cast to an integer is
    # the most negative one, which clips to bin 0
    grid = metrics.BinGrid([0.0], [1.0], bins=4)
    X = np.array([[-1e308], [0.1], [0.9], [1e308]])
    np.testing.assert_array_equal(metrics.bin_indices(grid, X)[:, 0], [0, 0, 3, 3])


def test_zero_columns_give_zero_distances():
    A, B = np.zeros((5, 0)), np.zeros((4, 0))
    with pytest.raises(MetricError):
        metrics.median_bandwidth(A, B)
    assert metrics.mmd(A, B, 1.0) == 0.0


def _binary(rng):
    return (rng.random((400, 4)) < 0.5) * 1.0, (rng.random((300, 4)) < 0.3) * 1.0


def _duplicate_rows(rng):
    rows = rng.standard_normal((6, 3))
    return rows[rng.integers(0, 6, 400)], rows[rng.integers(0, 4, 300)] + [0.0, 0.0, 1e-9]


def _gaussian(rng):
    return rng.standard_normal((350, 6)), rng.standard_normal((251, 6)) + 0.3


@pytest.mark.parametrize("sample_pairs", _SAMPLE_PAIRSES)
@pytest.mark.parametrize("make", [_binary, _duplicate_rows], ids=["binary", "duplicate_rows"])
def test_tiled_median_is_exact_on_ties(make, sample_pairs, monkeypatch):
    if sample_pairs is not None:
        monkeypatch.setattr(metrics, "_SAMPLE_PAIRS", sample_pairs)
    A, B = make(np.random.default_rng(21))
    assert len(_pool_tiles(A, B)) >= 1
    h = metrics.median_bandwidth(A, B)
    assert h == nm.dense_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12


@pytest.mark.parametrize("sample_pairs", _SAMPLE_PAIRSES)
def test_tiled_median_of_zero_still_raises(sample_pairs, monkeypatch):
    if sample_pairs is not None:
        monkeypatch.setattr(metrics, "_SAMPLE_PAIRS", sample_pairs)
    rng = np.random.default_rng(22)
    A = np.vstack([np.ones((600, 3)), rng.standard_normal((100, 3))])
    B = np.vstack([np.ones((250, 3)), rng.standard_normal((50, 3))])
    assert nm.dense_median_bandwidth(A, B) == 0.0
    with pytest.raises(MetricError):
        metrics.median_bandwidth(A, B)


@pytest.mark.parametrize("kind", ["gaussian", "binary"])
def test_pairwise_metrics_run_in_bounded_memory(kind):
    # the dense formulas need about 720 MB here
    rng = np.random.default_rng(23)
    A, B = rng.standard_normal((1500, 10)), rng.standard_normal((1500, 10)) + 0.1
    if kind == "binary":
        A, B = (A > 0) * 1.0, (B > 0.5) * 1.0
    tracemalloc.start()
    try:
        assert metrics.mmd(A, B, metrics.median_bandwidth(A, B)) >= 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_tvd_2way_peak_memory_at_300_bins():
    # one bincount per column held (d - 1) 300^2 counts: 63 MB at d = 30
    rng = np.random.default_rng(29)
    A, B = rng.standard_normal((500, 30)), rng.standard_normal((500, 30)) + 0.1
    grid = metrics.fit_grid(B, bins=300)
    tracemalloc.start()
    try:
        metrics.tvd_2way(A, B, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# Above _SAMPLE_PAIRS pairs the window is read off a random sample of
# pairs, and one walk answers when it holds both middle ranks.


def _count_walks(monkeypatch) -> list:
    """Record ``upper`` for every pairwise walk over Gram tiles."""
    walks = []
    tiles = metrics._gram_tiles

    def counted(X, Y, upper=False, **kw):
        walks.append(upper)
        return tiles(X, Y, upper, **kw)

    monkeypatch.setattr(metrics, "_gram_tiles", counted)
    return walks


def _count_recomputed(monkeypatch) -> list:
    """Record the number of pairs in every call of the per-pair formula."""
    sizes = []
    pair_sq_dists = metrics._pair_sq_dists

    def counted(X, Y, i, j):
        sizes.append(i.size)
        return pair_sq_dists(X, Y, i, j)

    monkeypatch.setattr(metrics, "_pair_sq_dists", counted)
    return sizes


def _bracket_returning(monkeypatch, change):
    bracket = metrics._bracket
    monkeypatch.setattr(metrics, "_bracket", lambda X, ranks, pairs: change(*bracket(X, ranks, pairs)))


@pytest.mark.parametrize("d", [1, 10, 30])
@pytest.mark.parametrize("n_a", [300, 302])
def test_bracket_median_matches_dense_formula_in_one_walk(n_a, d, monkeypatch):
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(300 + d)
    A = rng.standard_normal((n_a, d)) * rng.uniform(0.5, 2.0, d)
    B = 1.5 * rng.standard_normal((300, d)) + 0.2
    pairs = (n_a + 300) * (n_a + 299) // 2
    assert pairs % 2 == (n_a == 302)  # both parities of the pair count
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert walks == [True]


def _count_sampled(monkeypatch) -> list:
    """Record the number of random pairs every bracket sample draws."""
    sizes = []
    sampled = metrics._sampled_sq_dists

    def counted(X, size):
        sizes.append(size)
        return sampled(X, size)

    monkeypatch.setattr(metrics, "_sampled_sq_dists", counted)
    return sizes


# The train workloads evaluate 500 + 500 rows (499,500 pairs): the first
# window is read off at most (2 pairs)^(2/3) = 9,993 random pairs, not 2^16,
# and still answers in one walk.
@pytest.mark.parametrize("d", [10, 30])
def test_bracket_sample_is_sized_to_the_pair_count(d, monkeypatch):
    walks, sampled = _count_walks(monkeypatch), _count_sampled(monkeypatch)
    rng = np.random.default_rng(500 + d)
    A, B = rng.standard_normal((500, d)), 1.2 * rng.standard_normal((500, d)) + 0.1
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert walks == [True]
    assert len(sampled) == 1 and sampled[0] <= (2 * 499_500) ** (2 / 3)


# 362 rows make 65,341 pairs, at most _SAMPLE_PAIRS: the first window is the
# whole key range. 363 rows make 65,703, read off a sample of 2,585.
@pytest.mark.parametrize("rows", [362, 363])
def test_median_is_exact_either_side_of_the_sampled_bracket(rows, monkeypatch):
    sampled = _count_sampled(monkeypatch)
    pairs = rows * (rows - 1) // 2
    assert (pairs > metrics._SAMPLE_PAIRS) == (rows == 363)
    rng = np.random.default_rng(rows)
    A, B = rng.standard_normal((rows - 150, 6)), rng.standard_normal((150, 6)) + 0.3
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert sampled == ([] if rows == 362 else [metrics._bracket_size(pairs)])


def _empty_bracket(mp):
    _bracket_returning(mp, lambda lo, hi: (lo, lo))


def _bracket_above_the_ranks(mp):
    _bracket_returning(mp, lambda lo, hi: (np.nextafter(hi, np.inf), np.nextafter(hi, np.inf) * 2.0))


def _shifted_sample(mp):
    sample = metrics._sampled_sq_dists
    mp.setattr(metrics, "_sampled_sq_dists", lambda X, size: 4.0 * sample(X, size))


@pytest.mark.parametrize("miss", [_empty_bracket, _bracket_above_the_ranks, _shifted_sample])
def test_bracket_miss_falls_back_to_counting_passes(miss, monkeypatch):
    miss(monkeypatch)
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(31)
    A, B = rng.standard_normal((350, 6)), rng.standard_normal((250, 6)) + 0.3
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert len(walks) == 2  # the missed window, then it stretched past the ranks


def test_bracket_miss_at_the_row_cap_is_exact_in_two_walks(monkeypatch):
    # 1,000 pooled rows, the most the bandwidth selects over: an empty first
    # window sends the second walk over every key above it, about half of
    # the 499,500; it held 6.6 MB at its peak, where the selection that
    # narrowed the missed window's far side by sampling held 6.9 MB
    _empty_bracket(monkeypatch)
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(51)
    A, B = rng.standard_normal((600, 10)), 1.2 * rng.standard_normal((400, 10)) + 0.1
    tracemalloc.start()
    try:
        h = metrics.median_bandwidth(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == nm.dense_median_bandwidth(A, B)
    assert len(walks) == 2
    assert peak < 6.9e6


@pytest.mark.parametrize("make", [_binary, _duplicate_rows], ids=["binary", "duplicate_rows"])
def test_bracket_median_is_exact_on_ties(make, monkeypatch):
    A, B = make(np.random.default_rng(21))
    # a 2^16-pair sample puts the duplicate rows' window on one tied key
    # value, which holds both middle ranks
    monkeypatch.setattr(metrics, "_bracket_size", lambda pairs: 1 << 16)
    walks = _count_walks(monkeypatch)
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert len(walks) == 1


def test_median_takes_one_walk_on_full_pools():
    # 8M pairs of 2,000 + 2,000 rows, and the 499,500 of 500 + 500
    rng = np.random.default_rng(33)
    for rows in (2000, 500):
        A, B = rng.standard_normal((rows, 10)), rng.standard_normal((rows, 10)) + 0.1
        with pytest.MonkeyPatch.context() as mp:
            walks = _count_walks(mp)
            assert _full_pool_median(A, B) > 0.0
        assert walks == [True]


def test_bracket_median_peak_memory():
    rng = np.random.default_rng(34)
    A, B = rng.standard_normal((2000, 10)), rng.standard_normal((2000, 10)) * 1.2 + 0.1
    tracemalloc.start()
    try:
        _full_pool_median(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first window's keys (about 125,000, 1 MB) and one tile; all 8M keys would take 64 MB
    assert peak < 4.0e6


# Above _BANDWIDTH_ROWS pooled rows the bandwidth is the median over the rows
# at a fixed stride. The stride's own pair count is even at the default
# 1,000 rows (499,500) and odd at 999 (498,501); the pools', with unequal
# samples, are even at 1,001 and 3,800 rows and odd at 1,002.
@pytest.mark.parametrize("cap", [None, 999], ids=["default", "999"])
@pytest.mark.parametrize("n_a, n_b", [(700, 301), (702, 300), (2500, 1300)])
def test_bandwidth_is_the_dense_median_over_the_stride_rows(n_a, n_b, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(metrics, "_BANDWIDTH_ROWS", cap)
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(n_a + n_b)
    A, B = rng.standard_normal((n_a, 10)), 1.3 * rng.standard_normal((n_b, 10)) + 0.2
    h = metrics.median_bandwidth(A, B)
    assert h == nm.stride_median_bandwidth(A, B, metrics._BANDWIDTH_ROWS)
    assert metrics._BANDWIDTH_ROWS == (cap or 1000)
    assert walks == [True]  # one walk over the stride rows' pairs


def test_bandwidth_refuses_a_non_finite_row_the_stride_skips():
    rng = np.random.default_rng(26)
    A, B = rng.standard_normal((900, 4)), rng.standard_normal((600, 4))
    stride = np.round(np.linspace(0, 1499, metrics._BANDWIDTH_ROWS)).astype(int)
    skipped = np.setdiff1d(np.arange(1500), stride)
    assert np.unique(stride).size == stride.size and skipped[0] < 900 <= skipped[-1]
    for row in (skipped[0], skipped[-1]):  # one row of A, one of B
        pool = np.vstack([A, B])
        pool[row, 2] = math.nan
        for call in (metrics.median_bandwidth, metrics.mmd):
            with pytest.raises(MetricError):
                call(pool[:900], pool[900:])


# Gram tiles (|x|^2 + |y|^2 - 2 x.y) lose digits to cancellation. The median's
# walks recompute every pair within a tile's error bound of the window, and
# MMD recomputes every tile whose bound is too wide for 1e-12. These inputs
# make the cancellation as bad as it gets.


def _offset_rows(rng):
    return rng.standard_normal((300, 5)) + 1e6, 1.3 * rng.standard_normal((300, 5)) + (1e6 + 0.2)


def _tight_cluster(rng):
    # 30 rows about 1 apart, 1e4 away from the 30 rows of B
    return 1e4 + 0.3 * rng.standard_normal((30, 4)), rng.standard_normal((30, 4))


def _split_cluster(rng):
    # two tight clusters 2e4 apart in one sample, so A's own walk is centred
    # far from both
    A = 0.3 * rng.standard_normal((30, 4))
    A[:15] += 1e4
    A[15:] -= 1e4
    return A, rng.standard_normal((30, 4))


def _column_scales(rng):
    scale = 10.0 ** np.linspace(-8, 8, 6)
    return rng.standard_normal((300, 6)) * scale, (1.5 * rng.standard_normal((300, 6)) + 0.2) * scale


def _near_duplicates(rng):
    # five rows in six within 1e-7 of one point, the rest of another: the
    # median falls among distances far below the Gram tiles' error bound
    base = np.array([[1.0, -2.0, 3.0, 0.5], [-1.0, 2.0, -3.0, 0.5]])

    def rows(k):
        return base[(rng.random(k) < 1 / 6).astype(int)] + 1e-7 * rng.standard_normal((k, 4))

    return rows(300), rows(300)


def _too_large_to_square(rng):
    # 5% of the pooled rows 2e154 away: their centred squared norms
    # overflow, so Gram values there could be NaN; the distances within each
    # group are small and finite, and the median falls among them
    A = rng.standard_normal((300, 5))
    A[:30] += 2e154
    return A, rng.standard_normal((300, 5))


def _all_rows_too_large(rng):
    # every row at least 2^499 from the pooled mean, so every tile's error
    # bound is infinite and every pair is recomputed; the distances across
    # the two samples overflow, those within them are finite, and the
    # median falls among the latter (about 99,700 of 179,700 pairs)
    A = 2.0**500 + 2.0**480 * rng.standard_normal((400, 3))
    return A, -(2.0**500) + 2.0**480 * rng.standard_normal((200, 3))


@pytest.mark.parametrize(
    "make",
    [_offset_rows, _tight_cluster, _split_cluster, _column_scales, _near_duplicates, _too_large_to_square, _all_rows_too_large],
    ids=["offset_1e6", "tight_cluster", "split_cluster", "column_scales", "near_duplicates", "offset_2e154", "all_rows_2e500"],
)
def test_gram_bracket_and_mmd_are_exact_on_adversarial_inputs(make, monkeypatch):
    A, B = make(np.random.default_rng(41))
    rows = A.shape[0] + B.shape[0]
    # the window is read off a sample even of the 60-row clusters
    monkeypatch.setattr(metrics, "_SAMPLE_PAIRS", rows * (rows - 1) // 2 - 1)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        if make is _all_rows_too_large:
            assert all(math.isinf(err) for _, _, _, err, _, _ in _pool_tiles(A, B))
        seen = _count_walks(mp)
        h = metrics.median_bandwidth(A, B)
        assert seen == [True]  # NaN Gram values and infinite bounds are recomputed in the walk
        assert h == nm.dense_median_bandwidth(A, B)
        for bandwidth in (h, 1.0):
            assert abs(metrics.mmd(A, B, bandwidth) - nm.dense_mmd(A, B, bandwidth)) <= 1e-12


# The pooled mean of the tight cluster lies 5e3 from every row, so each of
# the three blocks (one tile each) is recomputed; that of the split cluster
# lies among B's rows, so B's own tile is not.
@pytest.mark.parametrize(
    "make, tiles", [(_tight_cluster, 3), (_split_cluster, 2)], ids=["tight_cluster", "split_cluster"]
)
def test_mmd_guard_fires_on_the_cluster(make, tiles, monkeypatch):
    A, B = make(np.random.default_rng(41))
    recomputed = _count_recomputed(monkeypatch)
    assert abs(metrics.mmd(A, B, 1.0) - nm.dense_mmd(A, B, 1.0)) <= 1e-12
    assert recomputed == [30 * 30] * tiles


def test_mmd_guard_stays_quiet_on_plain_data(monkeypatch):
    rng = np.random.default_rng(42)
    A, B = rng.standard_normal((600, 10)), 1.2 * rng.standard_normal((500, 10)) + 0.1
    h = metrics.median_bandwidth(A, B)
    recomputed = _count_recomputed(monkeypatch)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12
    assert recomputed == []  # every tile from one matrix product


def test_mmd_guard_stays_quiet_at_the_benchmark_size(monkeypatch):
    # release-d10's evaluate: 2,000 + 2,000 rows of 10 columns. A bound
    # grown wide enough to recompute a tile here would send that evaluate
    # down the per-pair formula
    rng = np.random.default_rng(43)
    A, B = rng.standard_normal((2000, 10)), 1.2 * rng.standard_normal((2000, 10)) + 0.1
    h = metrics.median_bandwidth(A, B)
    recomputed = _count_recomputed(monkeypatch)
    assert metrics.mmd(A, B, h) >= 0.0
    assert recomputed == []


def test_mmd_guard_recomputes_only_the_far_rows_pairs(monkeypatch):
    # A Gaussian pool of scale 1e3 with one row 1e6 away. That row widens
    # the bound of every tile it is in, but the other pairs' own bounds stay
    # below _KERNEL_TOL (its pull on the pooled mean is about 1e3), so only
    # its pairs take the per-pair formula: its row and column of A's
    # diagonal tile (2 * 256 - 1 pairs), the rest of its row in A (244) and
    # its row against B's two tiles (256, 244)
    rng = np.random.default_rng(46)
    A, B = 1e3 * rng.standard_normal((500, 10)), 1e3 * rng.standard_normal((500, 10))
    A[0] += 1e6
    h = metrics.median_bandwidth(A, B)
    recomputed = _count_recomputed(monkeypatch)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12
    assert recomputed == [2 * 256 - 1, 244, 256, 244]


@pytest.mark.parametrize("d", [1, 2, 3, 10, 30, 64])
def test_sq_norms_are_within_two_units_of_the_exact_ones(d):
    # the bound counts on this: a plain sum errs by up to gamma_d, which
    # the Gram product can compound with d + 1 more roundings
    rng = np.random.default_rng(45)
    Z = rng.standard_normal((200, d)) * 10.0 ** rng.uniform(-3, 3, (200, d))
    u = Fraction(2) ** -53
    for row, got in zip(Z, metrics._sq_norms(Z)):
        exact = sum(Fraction(float(z)) ** 2 for z in row)
        assert abs(Fraction(float(got)) - exact) <= (2 * u + (d * u) ** 2) * exact


def _offset_scaled(d):
    def make(rng):
        # columns over eight decades, 1e3 from the origin: cancellation in
        # every product, tiles of every width
        scale = 10.0 ** rng.uniform(-4, 4, d)
        A = rng.standard_normal((300, d)) * scale + 1e3
        return A, (1.5 * rng.standard_normal((250, d)) + 0.2) * scale + 1e3

    return make


# Every tile's err must bound |G - the dense formula| at every pair it
# yields (on a diagonal tile, at the pairs its mask keeps), for blocks
# across two samples and for the pool's own upper triangle; so must each
# pair's own bound from the tile's norms, which MMD reads in a tile whose
# err is too wide, and which is at most err.
@pytest.mark.parametrize("upper", [False, True], ids=["blocks", "upper"])
@pytest.mark.parametrize(
    "make",
    [
        *(_offset_scaled(d) for d in (1, 3, 10, 12, 30, 64)),
        _gaussian, _binary, _duplicate_rows, _offset_rows, _tight_cluster, _split_cluster,
        _column_scales, _near_duplicates, _too_large_to_square, _all_rows_too_large,
    ],
    ids=[
        *(f"d{d}" for d in (1, 3, 10, 12, 30, 64)),
        "gaussian", "binary", "duplicate_rows", "offset_1e6", "tight_cluster", "split_cluster",
        "column_scales", "near_duplicates", "offset_2e154", "all_rows_2e500",
    ],
)
def test_gram_tiles_stay_within_their_error_bounds(make, upper, monkeypatch):
    monkeypatch.setattr(metrics, "_GRAM_TILE", 100)  # partial and diagonal tiles
    A, B = make(np.random.default_rng(44))
    pool = np.vstack([A, B])
    X, Y = (pool, pool) if upper else (A, B)
    finite = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, j0, G, err, mask, (a, b) in metrics._gram_tiles(X, Y, upper, centre=pool.mean(axis=0)):
            finite += not math.isinf(err)
            pair_err = metrics._gram_err(X.shape[1], a[:, None], b)
            assert np.all(pair_err <= err), (i0, j0)
            i, j = np.nonzero(np.isfinite(pair_err) if mask is None else np.isfinite(pair_err) & mask)
            exact = metrics._pair_sq_dists(X, Y, i + i0, j + j0)
            assert np.all(np.abs(G[i, j] - exact) <= pair_err[i, j]), (i0, j0)
    # rows 1e153 or more from the pooled mean leave no bound finite
    assert (finite == 0) == (make in (_too_large_to_square, _all_rows_too_large))


def test_tvd_row_permutation_invariant_and_symmetric():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((15, 2))
    B = rng.standard_normal((12, 2))
    grid = metrics.fit_grid(B)
    perm = rng.permutation(15)
    assert metrics.tvd_1way(A, B, grid) == metrics.tvd_1way(A[perm], B, grid)
    assert metrics.tvd_2way(A, B, grid) == metrics.tvd_2way(A[perm], B, grid)
    assert metrics.tvd_1way(A, B, grid) == metrics.tvd_1way(B, A, grid)
    assert metrics.js_divergence(A, B, grid) == metrics.js_divergence(B, A, grid)
    v = metrics.tvd_1way(A, B, grid)
    assert 0.0 <= v <= 1.0


def test_ridge_hand_three_point_regression():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 3.0, 5.0])
    pred = metrics.ridge_fit_predict(X, y, X)
    slope = 4.0 / (2.0 + 1e-3)  # centered normal equations by hand, RIDGE_LAMBDA = 1e-3
    want = 3.0 + slope * (X[:, 0] - 1.0)
    np.testing.assert_allclose(pred, want, rtol=0, atol=1e-12)


def test_downstream_ridge_interpolates_linear_data():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 0.3
    vals = np.column_stack([X, y])
    t = Table(("a", "b", "c", "y"), vals)
    out = metrics.downstream_efficacy(t, t, "y")
    assert out["r2"] >= 0.999
    assert out["rmse"] < 0.05


def test_downstream_constant_train_target_scores_zero():
    X_tr = np.array([[0.0], [1.0], [2.0], [3.0]])
    train = Table(("x", "y"), np.column_stack([X_tr[:, 0], np.full(4, 5.0)]))
    yte = np.array([3.0, 5.0, 7.0, 5.0])  # mean exactly 5
    test = Table(("x", "y"), np.column_stack([X_tr[:, 0], yte]))
    out = metrics.downstream_efficacy(train, test, "y")
    assert abs(out["r2"]) < 1e-12


def test_downstream_errors():
    t = Table(("x", "y"), np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]))
    const = Table(("x", "y"), np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    with pytest.raises(MetricError):
        metrics.downstream_efficacy(t, const, "y")
    with pytest.raises(UsageError):
        metrics.downstream_efficacy(t, t, "z")


def test_metric_report_bundles_everything():
    rng = np.random.default_rng(7)
    syn = Table(("a", "b"), rng.standard_normal((40, 2)))
    test = Table(("a", "b"), rng.standard_normal((30, 2)))
    rep = metrics.metric_report(syn, test, target="b")
    d = rep.to_dict()
    for key in ("wd", "tvd_2way", "tvd_2way_sum", "tvd_1way", "mmd", "js"):
        assert np.isfinite(d[key])
    assert d["meta"]["bins"] == metrics.DEFAULT_BINS
    assert d["meta"]["n_synthetic"] == 40 and d["meta"]["n_test"] == 30
    assert d["downstream"][0]["model"] == "ridge"
    assert set(d["downstream"][0]) == {"model", "r2", "rmse"}


def test_metric_report_single_column_has_nan_pairwise():
    rng = np.random.default_rng(8)
    syn = Table(("a",), rng.standard_normal((20, 1)))
    test = Table(("a",), rng.standard_normal((20, 1)))
    rep = metrics.metric_report(syn, test)
    assert math.isnan(rep.tvd_2way) and math.isnan(rep.tvd_2way_sum)
    assert np.isfinite(rep.wd)
