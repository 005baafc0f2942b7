import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsynth import tabular
from dpsynth.errors import FitError, IngestionError, ShapeError, UsageError


def test_table_basics_and_validation():
    t = tabular.Table(("a", "b"), [[1.0, 2.0], [3.0, 4.0]])
    assert t.n == 2 and t.d == 2
    assert t.column_index("b") == 1
    with pytest.raises(UsageError):
        t.column_index("c")
    with pytest.raises(ShapeError):
        tabular.Table(("a",), np.zeros(3))
    with pytest.raises(ShapeError):
        tabular.Table(("a", "b"), np.zeros((2, 3)))
    with pytest.raises(IngestionError):
        tabular.Table(("a", "a"), np.zeros((2, 2)))


def test_table_rows_access_path():
    t = tabular.Table(("a", "b"), np.arange(10.0).reshape(5, 2))
    np.testing.assert_array_equal(t.rows([0, 3]), [[0.0, 1.0], [6.0, 7.0]])
    np.testing.assert_array_equal(t.rows(np.array([], dtype=int)), np.zeros((0, 2)))


def test_read_csv_small_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    t = tabular.read_csv(p)
    assert t.names == ("a", "b")
    np.testing.assert_array_equal(t.values, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "body,needle",
    [
        ("", "empty file"),
        ("a,b\n", "no data rows"),
        ("a,\n1,2\n", "blank column"),
        ("a,a\n1,2\n", "duplicate column"),
        ("a,b\n1\n", "line 2"),
        ("a,b\n1,x\n", "column 'b'"),
        ("a,b\n1,2\n3,NaN\n", "line 3"),
        ("a,b\n1,inf\n", "non-finite"),
        # the first bad cell in file order wins, whatever its kind
        ("a,b\ninf,x\n", "line 2, column 'a': non-finite value 'inf'"),
        ("a,b\nx,inf\n", "line 2, column 'a': not a number: 'x'"),
        ("a,b\n1,2\n1,-inf\nx,2\n", "line 3, column 'b': non-finite value '-inf'"),
        ("a,b\n1,2\n1,x\nnan,2\n", "line 3, column 'b': not a number: 'x'"),
        ("a,b\n" + "1,2\n" * 255 + "1,1e999\nx,2\n", "line 257, column 'b': non-finite"),
        ("a,b\n" + "1,2\n" * 255 + "1,?\nNaN,2\n", "line 257, column 'b': not a number: '?'"),
        # blank lines are skipped but still counted
        ("a,b\n1,2\n\n\n3,x\n", "line 5, column 'b': not a number"),
        ("a,b\r\n\r\n1,2\r\n\r\n3,inf\r\n", "line 5, column 'b': non-finite"),
        ("a,b\n\n1,2,3\n", "line 3 has 3 cells"),
    ],
)
def test_read_csv_locates_errors(tmp_path, body, needle):
    p = tmp_path / "bad.csv"
    p.write_text(body)
    with pytest.raises(IngestionError) as exc:
        tabular.read_csv(p)
    assert needle in str(exc.value)


def test_read_csv_accepts_rows_whose_sum_overflows(tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("a,b\n1e308,1e308\n-1e308,-1.7976931348623157e308\n1e308,-1e308\n")
    t = tabular.read_csv(p)
    np.testing.assert_array_equal(
        t.values, [[1e308, 1e308], [-1e308, -1.7976931348623157e308], [1e308, -1e308]]
    )


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((20, 3)) * np.array([1e-8, 1.0, 1e12])
    t = tabular.Table(("x1", "x2", "x3"), vals)
    p = tmp_path / "rt.csv"
    tabular.write_csv(t, p)
    back = tabular.read_csv(p)
    assert back.names == t.names
    np.testing.assert_array_equal(back.values, t.values)  # repr round-trips bit-exactly


def reference_write_csv(table, path):
    """The csv.writer loop write_csv must reproduce byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for i in range(0, table.n, 1024):
            writer.writerows(table.values[i : i + 1024].tolist())


def _assert_same_bytes(table, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    tabular.write_csv(table, got)
    reference_write_csv(table, want)
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_cells_are_float_reprs(tmp_path):
    # csv writes floats with str; the cells must stay the shortest
    # round-trip repr of every value, edge cases included
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, float(2**53 + 1), 0.1, 1 / 3, 1e16]
    vals = np.vstack([np.reshape(edge, (5, 2)), np.random.default_rng(4).standard_normal((7, 2)) * 1e5])
    t = tabular.Table(("a", "b"), vals)
    p = tmp_path / "t.csv"
    tabular.write_csv(t, p)
    want = "a,b\r\n" + "".join(f"{float(x)!r},{float(y)!r}\r\n" for x, y in vals)
    assert p.read_bytes() == want.encode()
    np.testing.assert_array_equal(tabular.read_csv(p).values, vals)
    # the same bytes as csv.writer, also under names it must quote, and with no columns
    _assert_same_bytes(tabular.Table(("a,b", 'q"'), vals), tmp_path)
    assert (tmp_path / "got.csv").read_bytes().startswith(b'"a,b","q"""\r\n')
    _assert_same_bytes(tabular.Table((" lead", "b"), vals), tmp_path)
    _assert_same_bytes(tabular.Table((), np.empty((3, 0))), tmp_path)


@pytest.mark.parametrize("d", [1, 3, 10, 30])  # blocks of 2560, 853, 256 and 85 rows
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000, 2561])
def test_write_csv_matches_the_csv_writer_byte_for_byte(tmp_path, n, d):
    rng = np.random.default_rng(n * 31 + d)
    names = tuple(f"c{j}" for j in range(d))
    scaled = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))
    _assert_same_bytes(tabular.Table(names, scaled), tmp_path)
    bits = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64)
    _assert_same_bytes(tabular.Table(names, bits.view(np.float64)), tmp_path)  # NaN and inf too


@pytest.mark.parametrize("n,d", [(25_000, 10), (5_000, 30)])
def test_write_csv_memory_stays_bounded(tmp_path, n, d):
    # the block bounds the Python floats and strings alive at once; a
    # larger block shows up as a higher peak RSS in generate
    vals = np.random.default_rng(5).standard_normal((n, d))
    t = tabular.Table(tuple(f"x{j}" for j in range(d)), vals)
    tracemalloc.start()
    try:
        tabular.write_csv(t, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("d", [1, 3, 10, 30])  # blocks of 2560, 853, 256 and 85 rows
@pytest.mark.parametrize("n", [1, 84, 85, 86, 255, 256, 257, 2561])
def test_read_csv_round_trips_across_block_edges(tmp_path, n, d):
    vals = np.random.default_rng(n * 37 + d).standard_normal((n, d)) * 1e3
    t = tabular.Table(tuple(f"x{j}" for j in range(d)), vals)
    p = tmp_path / "t.csv"
    tabular.write_csv(t, p)
    back = tabular.read_csv(p)
    assert back.values.shape == (n, d) and back.values.flags.c_contiguous
    np.testing.assert_array_equal(back.values, vals)


def test_read_csv_runs_in_bounded_memory(tmp_path):
    # a list of Python floats per row peaked at 13.6 MB on this table; its
    # array is 2 MB, and the blocks it is joined from 2 MB more
    vals = np.random.default_rng(6).standard_normal((25_000, 10))
    p = tmp_path / "big.csv"
    tabular.write_csv(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), p)
    tracemalloc.start()
    try:
        back = tabular.read_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.values, vals)
    assert peak <= 6_000_000


def test_fit_preprocessor_hand_values():
    t = tabular.Table(("a",), np.array([[0.0], [2.0]]))
    p = tabular.fit_preprocessor(t)
    assert p.shift[0] == 1.0 and p.scale[0] == 1.0
    const = tabular.Table(("a", "b"), np.array([[1.0, 5.0], [2.0, 5.0]]))
    with pytest.raises(FitError) as exc:
        tabular.fit_preprocessor(const)
    assert "'b'" in str(exc.value)


def test_fit_matches_two_pass_oracle():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((40, 3)) * 7 + 2
    t = tabular.Table(("a", "b", "c"), vals)
    p = tabular.fit_preprocessor(t)
    for j in range(3):
        mean = sum(vals[:, j]) / 40
        var = sum((v - mean) ** 2 for v in vals[:, j]) / 40
        assert abs(p.shift[j] - mean) < 1e-12
        assert abs(p.scale[j] - np.sqrt(var)) < 1e-12


def test_transform_standardizes_and_inverts():
    rng = np.random.default_rng(7)
    t = tabular.Table(("a", "b"), rng.standard_normal((30, 2)) * 3 + 1)
    p = tabular.fit_preprocessor(t)
    z = tabular.transform(p, t)
    assert np.abs(z.values.mean(axis=0)).max() < 1e-9
    assert np.abs(z.values.std(axis=0) - 1).max() < 1e-9
    back = tabular.inverse_transform(p, z)
    np.testing.assert_allclose(back.values, t.values, rtol=1e-9)
    other = tabular.Table(("c", "d"), np.zeros((2, 2)))
    with pytest.raises(UsageError):
        tabular.transform(p, other)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_preprocessor_bijection_property(seed):
    rng = np.random.default_rng(seed)
    t = tabular.Table(("a", "b"), rng.standard_normal((12, 2)) * rng.uniform(0.1, 10) + rng.uniform(-5, 5))
    p = tabular.fit_preprocessor(t)
    back = tabular.inverse_transform(p, tabular.transform(p, t))
    np.testing.assert_allclose(back.values, t.values, rtol=1e-9, atol=1e-9)


def test_preprocessor_json_round_trip(tmp_path):
    p = tabular.Preprocessor(("a", "b"), np.array([1.5, -2.0]), np.array([0.5, 3.0]))
    path = tmp_path / "prep.json"
    tabular.save_preprocessor(path, p)
    q = tabular.load_preprocessor(path)
    assert q.names == p.names
    np.testing.assert_array_equal(q.shift, p.shift)
    np.testing.assert_array_equal(q.scale, p.scale)
    with pytest.raises(UsageError):
        tabular.preprocessor_from_json({"cols": []})
    with pytest.raises(UsageError):
        tabular.Preprocessor(("a",), np.array([0.0]), np.array([0.0]))


def test_split_sizes_and_partition():
    rng = np.random.default_rng(11)
    t = tabular.Table(("a",), rng.standard_normal((10, 1)))
    train, test = tabular.split(t, tabular.SplitSpec(0.6, seed=1))
    assert train.n == 6 and test.n == 4
    merged = sorted(np.concatenate([train.values[:, 0], test.values[:, 0]]).tolist())
    assert merged == sorted(t.values[:, 0].tolist())


def test_split_determinism_and_validation():
    t = tabular.Table(("a",), np.arange(8.0).reshape(8, 1))
    a1, b1 = tabular.split(t, tabular.SplitSpec(0.5, seed=3))
    a2, b2 = tabular.split(t, tabular.SplitSpec(0.5, seed=3))
    np.testing.assert_array_equal(a1.values, a2.values)
    np.testing.assert_array_equal(b1.values, b2.values)
    a3, _ = tabular.split(t, tabular.SplitSpec(0.5, seed=4))
    assert not np.array_equal(a1.values, a3.values)
    with pytest.raises(UsageError):
        tabular.SplitSpec(0.0)
    tiny = tabular.Table(("a",), np.array([[1.0], [2.0]]))
    with pytest.raises(UsageError):
        tabular.split(tiny, tabular.SplitSpec(0.05, seed=0))
