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
    ],
)
def test_read_csv_locates_errors(tmp_path, body, needle):
    p = tmp_path / "bad.csv"
    p.write_text(body)
    with pytest.raises(IngestionError) as exc:
        tabular.read_csv(p)
    assert needle in str(exc.value)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((20, 3)) * np.array([1e-8, 1.0, 1e12])
    t = tabular.Table(("x1", "x2", "x3"), vals)
    p = tmp_path / "rt.csv"
    tabular.write_csv(t, p)
    back = tabular.read_csv(p)
    assert back.names == t.names
    np.testing.assert_array_equal(back.values, t.values)  # repr round-trips bit-exactly


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
