"""Strict numeric-table ingestion, standardization, and splitting.

CSV files must carry a header row and contain only finite numbers; nothing
is imputed, bad cells are reported with their row and column. Values are
written with shortest round-trip formatting, so write -> read is exact.

Both directions run at about the cost of ``float``/``repr`` themselves:
``read_csv`` parses a whole record with one ``map(float, ...)`` and tests
its finiteness with one sum, walking cells one by one only to report a bad
row, and moves the parsed cells into float64 arrays ``_READ_BLOCK_CELLS``
at a time; ``write_csv`` formats blocks of whole rows, ``_WRITE_BLOCK_CELLS``
cells at most, with one ``repr`` pass and one ``write`` each, producing the
bytes ``csv.writer`` would.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

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


# Cells per parsed block in read_csv. Parsed floats wait as Python objects
# (about 32 bytes a cell) only until their block fills and moves into a
# float64 array, so reading holds about twice the table's array at most.
_READ_BLOCK_CELLS = 2560


def read_csv(path) -> Table:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        names = tuple(h.strip() for h in header)
        if any(not h for h in names):
            raise IngestionError(f"{path}: blank column name in header")
        if len(set(names)) != len(names):
            raise IngestionError(f"{path}: duplicate column names")
        blocks, cells = [], []
        block_cells = max(1, _READ_BLOCK_CELLS // max(len(names), 1)) * len(names)
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
            cells += parsed
            if len(cells) == block_cells:
                blocks.append(np.array(cells, dtype=np.float64))
                cells.clear()
    if cells:
        blocks.append(np.array(cells, dtype=np.float64))
    if not blocks:
        raise IngestionError(f"{path}: no data rows")
    return Table(names, np.concatenate(blocks).reshape(-1, len(names)))


def _raise_first_bad_cell(path, lineno, names, record) -> None:
    """Raise for the first cell of the record that is not a finite number."""
    for col, cell in zip(names, record):
        try:
            v = float(cell)
        except ValueError:
            raise IngestionError(
                f"{path}: line {lineno}, column {col!r}: not a number: {cell!r}"
            ) from None
        if not math.isfinite(v):
            raise IngestionError(
                f"{path}: line {lineno}, column {col!r}: non-finite value {cell!r}"
            )


# Cells per repr pass in write_csv (256 rows at d=10). This bounds memory,
# it is not a speed knob: a block's floats and strings peak near 0.55 MB at
# d=10 and d=30, while 1,024 rows at d=10, or 256 rows at d=30, peaked at
# 1.6 to 2 MB and raised the process's peak RSS.
_WRITE_BLOCK_CELLS = 2560


def write_csv(table: Table, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(table.names)  # names may need quoting
        # csv.writer writes a float with str, which is repr, never quotes a
        # float's repr and ends each row with "\r\n", so joining the reprs
        # gives its bytes without its per-character field loop.
        d = table.d
        rows = max(1, _WRITE_BLOCK_CELLS // max(d, 1))
        for i in range(0, table.n, rows):
            block = table.values[i : i + rows]
            cells = list(map(float.__repr__, block.ravel().tolist()))
            lines = [",".join(cells[r * d : r * d + d]) + "\r\n" for r in range(len(block))]
            fh.write("".join(lines))


@dataclass
class Preprocessor:
    """Per-column affine standardization fitted on a training table.

    The statistics are plain (non-noised) column means and standard
    deviations, so they leak information about the fitted data; treat the
    fitted object as private metadata.
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
    except (KeyError, TypeError) as err:
        raise UsageError(f"malformed preprocessor payload: {err}") from None
    return Preprocessor(tuple(names), np.array(shift), np.array(scale))


def save_preprocessor(path, p: Preprocessor) -> None:
    with open(path, "w") as fh:
        json.dump(preprocessor_to_json(p), fh, indent=2)
        fh.write("\n")


def load_preprocessor(path) -> Preprocessor:
    with open(path) as fh:
        return preprocessor_from_json(json.load(fh))


@dataclass
class SplitSpec:
    train_fraction: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise UsageError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")


def split(table: Table, spec: SplitSpec):
    """Seeded row shuffle, then a round(fraction * n) / rest cut."""
    n_train = round(spec.train_fraction * table.n)
    if n_train < 1 or n_train >= table.n:
        raise UsageError(
            f"split of {table.n} rows at fraction {spec.train_fraction} leaves an empty side"
        )
    perm = np.random.default_rng(spec.seed).permutation(table.n)
    train = Table(table.names, table.values[perm[:n_train]].copy())
    test = Table(table.names, table.values[perm[n_train:]].copy())
    return train, test
