import math
import tracemalloc

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
    with pytest.raises(MetricError):
        metrics.mmd(np.arange(4.0).reshape(4, 1), np.arange(4.0).reshape(4, 1), bandwidth=0.0)


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
# are the oracles. Small tiles and a small _GATHER_MAX force column tiling
# and the counting passes of the exact selection (and, with ties, its
# refinement) at test sizes.


def _diagonal_tiles(A, B):
    pool = np.vstack([A, B])
    return sum(1 for _ in metrics._sq_dist_tiles(pool, pool, upper=True))


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize("d", [1, 3, 12])
@pytest.mark.parametrize("n_a", [700, 702])
def test_tiled_median_and_mmd_match_dense_formulas(n_a, d, small, monkeypatch):
    if small:
        monkeypatch.setattr(metrics, "_TILE_COLS", 100)
        monkeypatch.setattr(metrics, "_GATHER_MAX", 500)
    rng = np.random.default_rng(100 + d)
    A = rng.standard_normal((n_a, d))
    B = 1.5 * rng.standard_normal((300, d)) + 0.2
    pairs = (n_a + 300) * (n_a + 299) // 2
    assert pairs % 2 == (n_a == 702)  # both parities of the pair count
    assert _diagonal_tiles(A, B) >= 2
    h = metrics.median_bandwidth(A, B)
    assert h == nm.dense_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12
    assert abs(metrics.mmd(A, B) - nm.dense_mmd(A, B, h)) <= 1e-12


# Tiles are built one column slab at a time and summed by _sum_slabs in
# numpy's add.reduce order; if a numpy release changes that order, these fail.


@pytest.mark.parametrize("d", [*range(1, 41), 127, 128, 129, 130, 200, 257])
def test_slab_sum_is_numpys_row_major_sum(d):
    rng = np.random.default_rng(d)
    # magnitudes spread over 16 decades make every summation order show
    S = rng.random((d, 3, 5)) * 10.0 ** rng.uniform(-8, 8, (d, 1, 1))
    want = np.ascontiguousarray(np.moveaxis(S, 0, -1)).sum(axis=-1)
    got = metrics._sum_slabs(S.copy())
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
@pytest.mark.parametrize("d", [8, 9, 30])
def test_tiled_metrics_match_dense_at_block_widths(d, small, monkeypatch):
    if small:
        monkeypatch.setattr(metrics, "_TILE_COLS", 100)
        monkeypatch.setattr(metrics, "_GATHER_MAX", 500)
    rng = np.random.default_rng(200 + d)
    A = rng.standard_normal((400, d)) * rng.uniform(0.01, 100, d)
    B = 1.5 * rng.standard_normal((300, d)) + 0.2
    assert _diagonal_tiles(A, B) >= 2
    h = metrics.median_bandwidth(A, B)
    assert h == nm.dense_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12


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


@pytest.mark.parametrize("gather_max", [None, 1, 100])
@pytest.mark.parametrize("make", [_binary, _duplicate_rows], ids=["binary", "duplicate_rows"])
def test_tiled_median_is_exact_on_ties(make, gather_max, monkeypatch):
    if gather_max is not None:
        monkeypatch.setattr(metrics, "_GATHER_MAX", gather_max)
    A, B = make(np.random.default_rng(21))
    assert _diagonal_tiles(A, B) >= 1
    h = metrics.median_bandwidth(A, B)
    assert h == nm.dense_median_bandwidth(A, B)
    assert abs(metrics.mmd(A, B, h) - nm.dense_mmd(A, B, h)) <= 1e-12


@pytest.mark.parametrize("gather_max", [None, 1, 100])
def test_tiled_median_of_zero_still_raises(gather_max, monkeypatch):
    if gather_max is not None:
        monkeypatch.setattr(metrics, "_GATHER_MAX", gather_max)
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


# Above _GATHER_MAX pairs the median first gathers a sampled bracket in one
# walk and falls back to the counting passes when it misses or overflows.
# A lowered _GATHER_MAX puts 600-row pools (about 180,000 pairs, a bracket of
# about 3,000 keys) on that path.
_BRACKET_GATHER_MAX = 1 << 14


def _count_walks(monkeypatch) -> list:
    walks = []
    tiles = metrics._sq_dist_tiles

    def counted(X, Y, upper=False):
        walks.append(upper)
        return tiles(X, Y, upper)

    monkeypatch.setattr(metrics, "_sq_dist_tiles", counted)
    return walks


def _bracket_returning(monkeypatch, change):
    bracket = metrics._bracket
    monkeypatch.setattr(metrics, "_bracket", lambda X, ranks, pairs: change(*bracket(X, ranks, pairs)))


@pytest.mark.parametrize("d", [1, 10, 30])
@pytest.mark.parametrize("n_a", [300, 302])
def test_bracket_median_matches_dense_formula_in_one_walk(n_a, d, monkeypatch):
    monkeypatch.setattr(metrics, "_GATHER_MAX", _BRACKET_GATHER_MAX)
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(300 + d)
    A = rng.standard_normal((n_a, d)) * rng.uniform(0.5, 2.0, d)
    B = 1.5 * rng.standard_normal((300, d)) + 0.2
    pairs = (n_a + 300) * (n_a + 299) // 2
    assert pairs % 2 == (n_a == 302)  # both parities of the pair count
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert walks == [True]


def _empty_bracket(mp):
    _bracket_returning(mp, lambda lo, hi, cap: (lo, lo, cap))


def _bracket_above_the_ranks(mp):
    _bracket_returning(mp, lambda lo, hi, cap: (hi + np.uint64(1), hi + np.uint64(2), cap))


def _shifted_sample(mp):
    sample = metrics._sampled_sq_dists
    mp.setattr(metrics, "_sampled_sq_dists", lambda X, size: 4.0 * sample(X, size))


@pytest.mark.parametrize("miss", [_empty_bracket, _bracket_above_the_ranks, _shifted_sample])
def test_bracket_miss_falls_back_to_counting_passes(miss, monkeypatch):
    monkeypatch.setattr(metrics, "_GATHER_MAX", _BRACKET_GATHER_MAX)
    miss(monkeypatch)
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(31)
    A, B = rng.standard_normal((350, 6)), rng.standard_normal((250, 6)) + 0.3
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert len(walks) == 3  # the bracket, a counting pass, a gather


@pytest.mark.parametrize("overflow", [False, True], ids=["fits", "overflows"])
@pytest.mark.parametrize("make", [_binary, _duplicate_rows], ids=["binary", "duplicate_rows"])
def test_bracket_median_is_exact_on_ties(make, overflow, monkeypatch):
    A, B = make(np.random.default_rng(21))
    pairs = 700 * 699 // 2
    monkeypatch.setattr(metrics, "_GATHER_MAX", pairs - 1)
    if overflow:
        _bracket_returning(monkeypatch, lambda lo, hi, cap: (lo, hi, cap // 2))
    walks = _count_walks(monkeypatch)
    assert metrics.median_bandwidth(A, B) == nm.dense_median_bandwidth(A, B)
    assert len(walks) == (3 if overflow else 1)  # the bracket, a counting pass, a gather


def test_median_takes_one_walk_above_and_at_most_gather_max():
    rng = np.random.default_rng(33)
    for rows in (2000, 500):
        A, B = rng.standard_normal((rows, 10)), rng.standard_normal((rows, 10)) + 0.1
        pool_pairs = rows * (2 * rows - 1)
        assert (pool_pairs > metrics._GATHER_MAX) == (rows == 2000)
        with pytest.MonkeyPatch.context() as mp:
            walks = _count_walks(mp)
            assert metrics.median_bandwidth(A, B) > 0.0
        assert walks == [True]


def test_bracket_median_peak_memory():
    rng = np.random.default_rng(34)
    A, B = rng.standard_normal((2000, 10)), rng.standard_normal((2000, 10)) * 1.2 + 0.1
    tracemalloc.start()
    try:
        metrics.median_bandwidth(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two counting passes that ran here before the bracket peaked at 5.1 MB
    assert peak < 4.0e6


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
    pred = metrics.ridge_fit_predict(X, y, X, lam=1e-3)
    slope = 4.0 / (2.0 + 1e-3)  # centered normal equations by hand
    want = 3.0 + slope * (X[:, 0] - 1.0)
    np.testing.assert_allclose(pred, want, rtol=0, atol=1e-12)


def test_downstream_ridge_interpolates_linear_data():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 0.3
    vals = np.column_stack([X, y])
    t = Table(("a", "b", "c", "y"), vals)
    out = metrics.downstream_efficacy(t, t, "y", model="ridge")
    assert out["r2"] >= 0.999
    assert out["rmse"] < 0.05


def test_downstream_constant_train_target_scores_zero():
    X_tr = np.array([[0.0], [1.0], [2.0], [3.0]])
    train = Table(("x", "y"), np.column_stack([X_tr[:, 0], np.full(4, 5.0)]))
    yte = np.array([3.0, 5.0, 7.0, 5.0])  # mean exactly 5
    test = Table(("x", "y"), np.column_stack([X_tr[:, 0], yte]))
    out = metrics.downstream_efficacy(train, test, "y", model="ridge")
    assert abs(out["r2"]) < 1e-12


def test_downstream_errors():
    t = Table(("x", "y"), np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]))
    const = Table(("x", "y"), np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    with pytest.raises(MetricError):
        metrics.downstream_efficacy(t, const, "y")
    with pytest.raises(UsageError):
        metrics.downstream_efficacy(t, t, "z")
    with pytest.raises(UsageError):
        metrics.downstream_efficacy(t, t, "y", model="boost")


def test_small_mlp_is_deterministic_and_learns():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((200, 2))
    y = X @ np.array([1.5, -2.0]) + 0.1
    a = metrics.mlp_fit_predict(X, y, X, seed=3)
    b = metrics.mlp_fit_predict(X, y, X, seed=3)
    np.testing.assert_array_equal(a, b)
    ss_res = ((y - a) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    assert 1 - ss_res / ss_tot > 0.9


def test_metric_report_bundles_everything():
    rng = np.random.default_rng(7)
    syn = Table(("a", "b"), rng.standard_normal((40, 2)))
    test = Table(("a", "b"), rng.standard_normal((30, 2)))
    rep = metrics.metric_report(syn, test, target="b", models=("ridge",))
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
