import csv
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpsynth import cli, models, tabular
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
        # bytes that are not UTF-8 (written from lone surrogates), and cells
        # past the csv module's field limit of 131,072 characters
        ("a,b\n1,\udcff\n", "line 2, column 'b': bytes that are not UTF-8"),
        ("a,b\n1,2\n3,4\udcc3\n", "line 3, column 'b': bytes that are not UTF-8"),
        ("\udcff,b\n1,2\n", "line 1: the header is not UTF-8"),
        ("\ufeffa,\udce9\n1,2\n", "line 1: the header is not UTF-8"),
        pytest.param("a,b\n1," + "x" * 200_000 + "\n", "line 2: field larger than field limit", id="long_cell"),
        pytest.param("a,b\n1,2\n3,4\n5," + "1" * 200_000, "line 4: field larger than field limit", id="long_number"),
        pytest.param("a," + "b" * 200_000 + "\n1,2\n", "line 1: field larger than field limit", id="long_name"),
        # a long finite cell: numpy would read it, the strict reader refuses it
        pytest.param("a,b\n1,0." + "0" * 200_000 + "1", "line 2: field larger than field limit", id="long_finite_cell"),
        pytest.param(
            "a,b\n1,0." + "0" * 200_000 + "1\n2,\x1f3\n",
            "line 2: field larger than field limit",
            id="long_finite_cell_then_separator",
        ),
    ],
)
def test_read_csv_locates_errors(tmp_path, body, needle):
    p = tmp_path / "bad.csv"
    p.write_bytes(body.encode("utf-8", "surrogateescape"))
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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.fixture
def strict_reads(monkeypatch):
    """Record the path of every file that reaches read_csv's strict reader."""
    paths = []
    strict = tabular._read_rows_strictly

    def counted(path, fh, names):
        paths.append(path)
        return strict(path, fh, names)

    monkeypatch.setattr(tabular, "_read_rows_strictly", counted)
    return paths


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]
_finite_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1)
    .map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    .filter(math.isfinite),
)


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(_finite_floats, min_size=d, max_size=d), min_size=1, max_size=20)
    )
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_csv_parses_every_finite_float_as_float_does(tmp_path_factory, strict_reads, rows):
    vals = np.array(rows, dtype=np.float64)
    names = tuple(f"x{j}" for j in range(vals.shape[1]))
    p = tmp_path_factory.mktemp("bits") / "t.csv"
    tabular.write_csv(tabular.Table(names, vals), p)
    np.testing.assert_array_equal(_bits(tabular.read_csv(p).values), _bits(vals))
    # long spellings: 41 significant digits, and 25 fixed decimals
    for fmt in ("%.40e", "%.25f"):
        cells = [[fmt % x for x in row] for row in rows]
        p.write_text(",".join(names) + "\n" + "".join(",".join(r) + "\n" for r in cells))
        want = [[float(c) for c in r] for r in cells]
        np.testing.assert_array_equal(_bits(tabular.read_csv(p).values), _bits(want))
    assert strict_reads == []  # numpy parses every one of these files


@pytest.mark.parametrize(
    "body,strict",
    [
        ("a,b\n 1 ,\t2\n3\t, 4 \n", False),  # spaces and tabs around cells
        ('a,b\n"1","2.5"\n"-3",4\n', False),  # quoted cells
        *((f"a,b\n{s},1\n2,{s}\n", False) for s in ("+1", ".5", "5.", "1E+05", "-0")),
        # float reads these and numpy does not
        *((f"a,b\n{s},1\n2,{s}\n", True) for s in ("1_0", "\uff11")),
        ("a,b\n\n1,2\n\n\n3,4\n\n", False),  # blank lines
        ("a,b\r\n1,2\r\n3,4\r\n", False),
        ("a,b\r1,2\r3,4\r", False),
        ("a,b\n1,2\n3,4", False),  # no final newline
        ("a\n1\n-2.5\n3e-7\n", False),  # d = 1
    ],
)
def test_read_csv_reads_unusual_files_as_float_reads_their_cells(tmp_path, strict_reads, body, strict):
    p = tmp_path / "t.csv"
    p.write_bytes(body.encode())
    with open(p, newline="", encoding="utf-8") as fh:
        header, *records = csv.reader(fh)
    t = tabular.read_csv(p)
    assert t.names == tuple(header)
    np.testing.assert_array_equal(_bits(t.values), _bits([[float(c) for c in r] for r in records if r]))
    assert strict_reads == ([p] if strict else [])


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_read_csv_refuses_separators_around_a_number(tmp_path, sep):
    # numpy strips the ASCII separators around a number; float refuses them
    for cell in (sep + "4", "4" + sep):
        p = tmp_path / "sep.csv"
        p.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(IngestionError) as exc:
            tabular.read_csv(p)
        assert f"line 3, column 'b': not a number: {cell!r}" in str(exc.value)


@pytest.mark.parametrize("body", ["a\n", "a\n\n\r\n", "a,b\r\n\r\n"])
def test_read_csv_finds_no_rows_under_a_lone_header(tmp_path, body):
    p = tmp_path / "head.csv"
    p.write_bytes(body.encode())
    with pytest.raises(IngestionError, match="no data rows"):
        tabular.read_csv(p)


def test_read_csv_drops_a_utf8_byte_order_mark(tmp_path):
    # what a spreadsheet saves as "CSV UTF-8"; both readers must drop the mark
    for body, last in ((b"3,4", 4.0), (b"3,4_0", 40.0)):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfa,b\r\n1,2\r\n" + body + b"\r\n")
        t = tabular.read_csv(p)
        assert t.names == ("a", "b") and t.column_index("a") == 0
        np.testing.assert_array_equal(t.values, [[1.0, 2.0], [3.0, last]])


def _run_child(code, env=(), **kwargs):
    """Run ``code`` in a fresh interpreter that imports this dpsynth."""
    env = dict(os.environ, **dict(env))
    src = str(Path(tabular.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60, **kwargs)


def test_csv_files_are_utf8_whatever_the_locale(tmp_path):
    # the child's source stays ASCII: under the C locale its argv is ASCII too
    p = tmp_path / "t.csv"
    code = (
        "import numpy as np; from dpsynth import tabular; "
        "names = ('\\u00e9t\\u00e9', 'b'); "
        f"tabular.write_csv(tabular.Table(names, np.eye(2)), {str(p)!r}); "
        f"assert tabular.read_csv({str(p)!r}).names == names"
    )
    _run_child(code, {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})
    assert p.read_bytes().startswith("été,b\r\n".encode())


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_read_csv_reads_a_pipe():
    # a pipe cannot seek back to its first data line, so only one reader may see it
    code = "from dpsynth import tabular; print(tabular.read_csv('/dev/stdin').values.tolist())"
    done = _run_child(code, input="a,b\n1,2\n3,4\n", capture_output=True, text=True)
    assert done.stdout == "[[1.0, 2.0], [3.0, 4.0]]\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_read_csv_refuses_a_long_finite_cell_in_a_pipe_too():
    code = (
        "from dpsynth import tabular\n"
        "try:\n    tabular.read_csv('/dev/stdin')\n"
        "except tabular.IngestionError as exc:\n    print(exc)\n"
    )
    body = "a,b\n1,0." + "0" * 200_000 + "1"
    done = _run_child(code, input=body, capture_output=True, text=True)
    assert "line 2: field larger than field limit" in done.stdout


@pytest.mark.parametrize("before", [0, 40_000, 70_000])
def test_read_csv_leaves_lines_past_the_field_limit_to_the_strict_reader(tmp_path, strict_reads, before):
    # a line of exactly the limit stays with numpy, one byte more does not;
    # ``before`` bytes of shorter lines move it across the 64 KB scan chunks
    limit = csv.field_size_limit()
    head = "a,b\n" + "1,2\n" * (before // 4)
    for extra, strict in ((0, False), (1, True)):
        p = tmp_path / f"long{extra}.csv"
        long_line = "3,0." + "0" * (limit - 5 + extra) + "1"
        p.write_text(head + long_line + "\n4,5\n")
        t = tabular.read_csv(p)
        assert t.values[-2:].tolist() == [[3.0, 0.0], [4.0, 5.0]]
        assert strict_reads.count(p) == strict


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


@pytest.fixture
def two_cpus(monkeypatch):
    """Count os.fork calls and report two usable CPUs."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return calls


@pytest.fixture
def forks(two_cpus, monkeypatch):
    """As ``two_cpus``, and write_csv splits its blocks with a helper
    whenever there are two or more."""
    monkeypatch.setattr(tabular, "_HELPER_MIN_BLOCKS", 2)
    return two_cpus


@pytest.mark.parametrize("blocks", [tabular._HELPER_MIN_BLOCKS - 1, tabular._HELPER_MIN_BLOCKS])
def test_write_csv_forks_its_helper_from_the_minimum_block_count_on(tmp_path, two_cpus, blocks):
    vals = np.random.default_rng(blocks).standard_normal((blocks * 256, 10))
    _assert_same_bytes(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), tmp_path)
    assert len(two_cpus) == (blocks == tabular._HELPER_MIN_BLOCKS)


@pytest.mark.parametrize("d", [1, 10, 30])  # blocks of 2560, 256 and 85 rows
@pytest.mark.parametrize("blocks", [1, 2, 3, 11])
def test_write_csv_with_the_helper_matches_the_csv_writer(tmp_path, forks, blocks, d):
    rows = tabular._WRITE_BLOCK_CELLS // d
    rng = np.random.default_rng(blocks * 41 + d)
    names = tuple(f"c{j}" for j in range(d))
    for n in ((blocks - 1) * rows + 1, blocks * rows):  # a short last block, then a full one
        scaled = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))
        _assert_same_bytes(tabular.Table(names, scaled), tmp_path)
        bits = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64)
        _assert_same_bytes(tabular.Table(names, bits.view(np.float64)), tmp_path)  # NaN and inf too
    assert len(forks) == (0 if blocks == 1 else 4)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["got.csv", "want.csv"]


def test_write_csv_on_one_cpu_writes_the_same_bytes_alone(tmp_path, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    vals = np.random.default_rng(8).standard_normal((11 * 256, 10))
    _assert_same_bytes(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), tmp_path)
    assert forks == []


def test_write_csv_formats_alone_when_the_fork_fails(tmp_path, forks, monkeypatch):
    def refuse():
        forks.append(1)
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    vals = np.random.default_rng(8).standard_normal((11 * 256, 10))
    _assert_same_bytes(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), tmp_path)
    assert forks == [1]
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe was closed


def _in_helper(parent, act):
    """A block formatter that runs ``act`` in the helper after its first block."""
    real, done = tabular._format_block, []

    def formatter(block):
        if os.getpid() != parent:
            if done:
                act()
            done.append(1)
        return real(block)

    return formatter


def _raise():
    raise RuntimeError("helper failed")


@pytest.mark.parametrize(
    "act",
    [lambda: os.kill(os.getpid(), signal.SIGKILL), _raise, lambda: os._exit(0)],
    ids=["killed", "raised", "exit-0"],
)
def test_a_helper_that_ends_early_fails_the_write_and_leaves_the_old_file(tmp_path, forks, monkeypatch, act):
    monkeypatch.setattr(tabular, "_format_block", _in_helper(os.getpid(), act))
    path = tmp_path / "t.csv"
    path.write_text("old")
    vals = np.random.default_rng(9).standard_normal((11 * 256, 10))
    with pytest.raises(OSError, match="ended before its last block"):
        tabular.write_csv(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), path)
    assert forks and path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_a_helper_that_exits_non_zero_fails_the_write(tmp_path, forks, monkeypatch):
    # every block arrives, but the helper's exit status still counts
    leave = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: leave(7))
    path = tmp_path / "t.csv"
    with pytest.raises(OSError, match="helper process failed"):
        tabular.write_csv(tabular.Table(("a", "b"), np.ones((3000, 2))), path)
    assert forks and list(tmp_path.iterdir()) == []


def test_generate_and_simulate_exit_3_and_write_no_csv_when_the_helper_dies(tmp_path, forks, monkeypatch):
    rng = np.random.default_rng(10)
    model = tmp_path / "checkpoint.json"
    models.save_checkpoint(model, models.random_generator(3, rng), models.new_discriminator(3, 0.1, rng))
    kill = _in_helper(os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(tabular, "_format_block", kill)
    gen, sim = tmp_path / "gen", tmp_path / "sim"
    # 3,000 rows of 3 columns are four blocks of 853 rows at most, two for the helper
    assert cli.main(["generate", "--model", str(model), "--n", "3000", "--out", str(gen)]) == 3
    assert cli.main(["simulate", "--d", "3", "--n", "3000", "--out", str(sim)]) == 3
    assert len(forks) == 2
    assert list(gen.iterdir()) == [] and list(sim.iterdir()) == []


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
    # array is 2 MB, and numpy's parse holds little more than the array
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


def test_read_csv_peaks_near_the_tables_array(tmp_path):
    # reading into float64 blocks and joining them peaked at twice the array
    vals = np.random.default_rng(7).standard_normal((100_000, 10))
    p = tmp_path / "big.csv"
    tabular.write_csv(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), p)
    tracemalloc.start()
    try:
        back = tabular.read_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.values, vals)
    assert peak <= 1.25 * vals.nbytes + 1_000_000


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
    good = tabular.preprocessor_to_json(p)
    for key, value in (("shift", "0.5"), ("scale", True), ("shift", False), ("scale", [3.0])):
        bad = json.loads(json.dumps(good))
        bad["columns"][1][key] = value
        with pytest.raises(UsageError, match="malformed"):
            tabular.preprocessor_from_json(bad)
    with pytest.raises(UsageError):
        tabular.Preprocessor(("a",), np.array([0.0]), np.array([0.0]))


def test_strict_reader_peaks_near_the_tables_array(tmp_path, monkeypatch):
    # the reader that refused and unusual files reach holds little more than
    # the array too
    vals = np.random.default_rng(8).standard_normal((100_000, 10))
    p = tmp_path / "big.csv"
    tabular.write_csv(tabular.Table(tuple(f"x{j}" for j in range(10)), vals), p)
    monkeypatch.setattr(tabular, "_parse_rows", lambda path, fh, d: None)
    tracemalloc.start()
    try:
        back = tabular.read_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.values, vals)
    assert peak <= 1.25 * vals.nbytes + 1_000_000
