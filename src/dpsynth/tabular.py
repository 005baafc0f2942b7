"""Strict numeric-table ingestion and standardization.

CSV files must carry a header row and contain only finite numbers; nothing
is imputed, bad cells are reported with their row and column. Values are
written with shortest round-trip formatting, so write -> read is exact.

``read_csv`` parses every data row in one ``np.loadtxt`` call, which reads a
number to the same float64 as ``float`` and holds little more than the
table's array. A file it refuses, or that parses to a wrong width or to a
non-finite cell, is read again by the strict reader: one ``map(float, ...)``
a record, its finiteness tested with one sum, cells walked one by one only
to report a bad row, and the parsed cells fed to one ``np.fromiter``, which
holds little more than the table's array. That reader alone names the line
and column of a bad cell and reads the spellings ``float`` accepts and numpy
does not (``1_0``, non-ASCII digits), so a file reads the same either way.
Files are read as UTF-8, a leading byte-order mark dropped, and written as
UTF-8; bytes that are not UTF-8, and a cell longer than
``csv.field_size_limit()`` (131,072 characters), raise ``IngestionError``
with their line. A file with a line longer than that limit goes to the
strict reader unparsed, so that a long cell is refused whichever way the
file is read; a row wider than about 6,000 columns of ``write_csv``'s
numbers takes that path too and reads to the same values, only more slowly.

``write_csv`` formats blocks of whole rows, ``_WRITE_BLOCK_CELLS`` cells at
most, with one ``repr`` pass each, producing the bytes ``csv.writer`` would;
``repr`` is most of its time, so on a large table with a second usable CPU a
forked helper formats every other block. It writes to a temporary sibling
and renames it at the end, so a failed write leaves no partial file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FitError, IngestionError, ShapeError, UsageError


@dataclass
class Table:
    """Named float64 columns; values has shape (n, d)."""

    names: tuple
    values: np.ndarray

    def __post_init__(self):
        self.names = tuple(str(c) for c in self.names)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"values must be 2-D, got ndim={self.values.ndim}")
        if self.values.shape[1] != len(self.names):
            raise ShapeError(
                f"{len(self.names)} column names for {self.values.shape[1]} columns"
            )
        if len(set(self.names)) != len(self.names):
            raise IngestionError("duplicate column names")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def rows(self, idx) -> np.ndarray:
        """The designated access path for reading data rows (easy to audit)."""
        return self.values[np.asarray(idx, dtype=np.intp)]

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"no column named {name!r}") from None


def read_csv(path) -> Table:
    # bytes that are not UTF-8 decode to lone surrogates, which no name may
    # hold and no number parses from, so they are refused with their line
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        # readline, not the file's iterator, so that tell and seek still work
        try:
            header = next(csv.reader(iter(fh.readline, "")))
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        except csv.Error as err:
            raise IngestionError(f"{path}: line 1: {err}") from None
        names = tuple(h.strip() for h in header)
        if not _is_utf8(",".join(names)):
            raise IngestionError(f"{path}: line 1: the header is not UTF-8")
        if any(not h for h in names):
            raise IngestionError(f"{path}: blank column name in header")
        if len(set(names)) != len(names):
            raise IngestionError(f"{path}: duplicate column names")
        values = _parse_rows(path, fh, len(names))
        if values is None:
            values = _read_rows_strictly(path, fh, names)
    return Table(names, values)


# ASCII separators 0x1c-0x1f: numpy strips them from around a number as
# whitespace, float refuses them. In UTF-8 their bytes stand for nothing else.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_rows(path, fh, d: int):
    """Parse the data rows with numpy in one call. Return None, with ``fh``
    back at the first data line, unless that gives at least one row of ``d``
    cells, all finite. A file holding a separator byte or a line longer
    than ``csv.field_size_limit()``, or one that cannot seek back (a pipe),
    is left to the strict reader unparsed."""
    if not fh.seekable() or _needs_strict_reader(path):
        return None
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
            values = np.loadtxt(
                fh, dtype=np.float64, delimiter=",", quotechar='"', comments=None, ndmin=2
            )
    except ValueError:
        values = None
    # min and max carry any NaN or infinity without a mask the table's size
    if values is None or values.shape[0] == 0 or values.shape[1] != d or not (
        math.isfinite(values.min()) and math.isfinite(values.max())
    ):
        fh.seek(start)
        return None
    return values


def _needs_strict_reader(path) -> bool:
    """Whether the file holds a separator byte or a line longer than
    ``csv.field_size_limit()``, which may hold a cell the csv module
    refuses and numpy reads. A line that lies inside one chunk is shorter
    than the chunk, which is no longer than the limit, so only the lines
    between one chunk's last line end and a later chunk's first are
    measured. Lengths are in bytes, at least the characters they decode to."""
    limit = csv.field_size_limit()
    with open(path, "rb") as raw:
        line_start = 0  # file offset where the current line begins
        while chunk := raw.read(max(1, min(1 << 16, limit))):
            if any(sep in chunk for sep in _SEPARATORS):
                return True
            offset = raw.tell() - len(chunk)
            ends = [i for i in (chunk.find(b"\n"), chunk.find(b"\r")) if i >= 0]
            if ends:
                if offset + min(ends) - line_start > limit:
                    return True
                line_start = offset + max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
            elif raw.tell() - line_start > limit:
                return True
    return False


def _read_rows_strictly(path, fh, names) -> np.ndarray:
    """Read the data rows one record at a time, naming the line and column
    of the first cell that is not a finite number; a cell longer than
    ``csv.field_size_limit()`` raises ``IngestionError`` with its line."""
    reader = csv.reader(fh)

    def cells():
        try:
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != len(names):
                    raise IngestionError(
                        f"{path}: line {lineno} has {len(record)} cells, expected {len(names)}"
                    )
                try:
                    parsed = list(map(float, record))
                except ValueError:
                    parsed = None
                # a sum of finite cells can still overflow; the walk then passes the row
                if parsed is None or not math.isfinite(sum(parsed)):
                    _raise_first_bad_cell(path, lineno, names, record)
                yield from parsed
        except csv.Error as err:
            raise IngestionError(f"{path}: line {reader.line_num + 1}: {err}") from None

    values = np.fromiter(cells(), dtype=np.float64)
    if values.size == 0:
        raise IngestionError(f"{path}: no data rows")
    return values.reshape(-1, len(names))


def _raise_first_bad_cell(path, lineno, names, record) -> None:
    """Raise for the first cell of the record that is not a finite number."""
    for col, cell in zip(names, record):
        try:
            v = float(cell)
        except ValueError:
            what = f"not a number: {cell!r}" if _is_utf8(cell) else "bytes that are not UTF-8"
            raise IngestionError(f"{path}: line {lineno}, column {col!r}: {what}") from None
        if not math.isfinite(v):
            raise IngestionError(
                f"{path}: line {lineno}, column {col!r}: non-finite value {cell!r}"
            )


def _is_utf8(text: str) -> bool:
    """False if ``text`` holds a lone surrogate, which is what a byte that
    is not UTF-8 decodes to under ``surrogateescape``."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# Cells per block in write_csv (256 rows at d=10, about 50 KB of CSV). This
# bounds memory, it is not a speed knob: a block's floats and strings peak
# near 0.55 MB at d=10 and d=30, while 1,024 rows at d=10, or 256 rows at
# d=30, peaked at 1.6 to 2 MB and raised the process's peak RSS. A pipe
# buffer (64 KB on Linux) holds about one block, so the helper that
# formats every other block runs at most one block ahead of the file.
_WRITE_BLOCK_CELLS = 2560

# Blocks a table needs before write_csv forks its helper (163,840 cells). A
# fork write-protects the parent's pages, and the first write to each one
# afterwards faults, so the work that follows in the same process slows: an
# evaluate run after a helper wrote 500 rows took 1,560 more faults and 20%
# more time. In loops of train, generate and evaluate, a helper for 5,000
# generated rows cost the other commands more than it saved at d=10 (20
# blocks: training 9% slower) and about as much at d=30 (59 blocks: the
# generate 33% faster, set-up 11% and evaluate 7% slower); for 25,000 rows
# at d=10 (98 blocks) it made the whole loop 23% faster.
_HELPER_MIN_BLOCKS = 64


def write_csv(table: Table, path) -> None:
    """Write ``table`` to a temporary sibling of ``path`` and rename it onto
    ``path`` once every row is written; on any failure the sibling is
    removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(table.names)  # names may need quoting
            fh.flush()
            _write_rows(fh.buffer, table.values)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _format_block(block: np.ndarray) -> bytes:
    """Whole rows as the bytes csv.writer would write: it writes a float
    with str, which is repr, never quotes a float's repr and ends each row
    with "\\r\\n", so joining the reprs skips its per-character field loop."""
    d = block.shape[1]
    cells = list(map(float.__repr__, block.ravel().tolist()))
    lines = [",".join(cells[r * d : r * d + d]) + "\r\n" for r in range(len(block))]
    return "".join(lines).encode()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rows(out, values: np.ndarray) -> None:
    """Write the rows to the binary file ``out`` in blocks of whole rows.

    With a second usable CPU, a forked helper formats every other block
    and the parent the rest, and the parent writes every block in file
    order. The helper needs no other Python thread to be running (a fork
    copies only the calling thread, and a lock another thread holds stays
    held in the child; the helper calls no BLAS, so BLAS threads do not
    count) and at least ``_HELPER_MIN_BLOCKS`` blocks; if the fork fails,
    the parent formats every block itself.
    """
    rows = max(1, _WRITE_BLOCK_CELLS // max(values.shape[1], 1))
    starts = range(0, len(values), rows)
    helper = None
    if (
        len(starts) >= _HELPER_MIN_BLOCKS
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and _usable_cpus() > 1
    ):
        helper = _start_helper(values, starts[1::2], rows)
    if helper is None:
        for i in starts:
            out.write(_format_block(values[i : i + rows]))
        return
    r, pid = helper
    try:
        with open(r, "rb") as pipe:
            for k, i in enumerate(starts):
                if k % 2 == 0:
                    out.write(_format_block(values[i : i + rows]))
                    continue
                head = pipe.read(8)
                size = int.from_bytes(head, "little")
                data = pipe.read(size) if len(head) == 8 else b""
                if not data or len(data) != size:
                    raise OSError("the CSV helper process ended before its last block")
                out.write(data)
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise OSError(f"the CSV helper process failed with exit code {code}")


def _start_helper(values: np.ndarray, starts, rows: int):
    """Fork a process that formats the blocks at ``starts`` and sends each
    down a pipe, its length as 8 bytes first; returns the pipe's read end
    and the process id, or None if no process could be forked. The helper
    leaves only through ``os._exit``, so it never flushes the file buffer
    it inherits.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for i in starts:
                data = _format_block(values[i : i + rows])
                view = memoryview(len(data).to_bytes(8, "little") + data)
                while view:
                    view = view[os.write(w, view) :]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return r, pid


@dataclass
class Preprocessor:
    """Per-column affine standardization fitted on a training table.

    The shift and scale are raw column statistics, plain (non-noised) means
    and standard deviations of the fitted data, and the run's epsilon does
    not cover them. They are not kept private: ``generate --preprocessor``
    writes every row as X·scale + shift, so ``synthetic.csv`` carries both.
    """

    names: tuple
    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.names = tuple(self.names)
        self.shift = np.asarray(self.shift, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.shift.shape != (len(self.names),) or self.scale.shape != (len(self.names),):
            raise ShapeError("shift/scale must have one entry per column")
        if not (np.isfinite(self.shift).all() and np.isfinite(self.scale).all()):
            raise UsageError("shifts and scales must be finite")
        if np.any(self.scale <= 0):
            raise UsageError("scales must be positive")


def fit_preprocessor(table: Table) -> Preprocessor:
    shift = table.values.mean(axis=0)
    scale = table.values.std(axis=0)
    for name, s in zip(table.names, scale):
        if s == 0.0:
            raise FitError(f"column {name!r} is constant; cannot standardize")
    return Preprocessor(table.names, shift, scale)


def _check_match(p: Preprocessor, table: Table) -> None:
    if table.names != p.names:
        raise UsageError(
            f"table columns {table.names} do not match preprocessor columns {p.names}"
        )


def transform(p: Preprocessor, table: Table) -> Table:
    _check_match(p, table)
    return Table(table.names, (table.values - p.shift) / p.scale)


def inverse_transform(p: Preprocessor, table: Table) -> Table:
    _check_match(p, table)
    return Table(table.names, table.values * p.scale + p.shift)


def preprocessor_to_json(p: Preprocessor) -> dict:
    return {
        "columns": [
            {"name": n, "shift": float(sh), "scale": float(sc)}
            for n, sh, sc in zip(p.names, p.shift, p.scale)
        ]
    }


def preprocessor_from_json(payload: dict) -> Preprocessor:
    try:
        cols = payload["columns"]
        names = [c["name"] for c in cols]
        shift = [c["shift"] for c in cols]
        scale = [c["scale"] for c in cols]
        # exact types: a JSON boolean loads as a bool, which Python counts as an int
        if not {type(v) for v in shift + scale} <= {int, float}:
            raise TypeError("shifts and scales must be JSON numbers")
        shift, scale = np.array(shift, dtype=np.float64), np.array(scale, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise UsageError(f"malformed preprocessor payload: {err}") from None
    # generate writes these names as synthetic.csv's header: each must read back as itself
    for name in names:
        if not isinstance(name, str) or not name or name != name.strip():
            raise UsageError(
                f"preprocessor column name {name!r} must be a non-blank string without surrounding spaces"
            )
    if len(set(names)) != len(names):
        raise UsageError("duplicate column names in preprocessor")
    return Preprocessor(tuple(names), shift, scale)


def save_preprocessor(path, p: Preprocessor) -> None:
    with open(path, "w") as fh:
        json.dump(preprocessor_to_json(p), fh, indent=2)
        fh.write("\n")


def load_preprocessor(path) -> Preprocessor:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise UsageError(f"preprocessor is not valid JSON: {err}") from None
    return preprocessor_from_json(payload)

