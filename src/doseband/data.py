"""Dataset container, train/calibration splitting, and CSV ingestion.

The on-disk schema is a UTF-8 CSV with header ``y,t,x1,...,xp``, comma
delimited, '.' decimal separator. A leading UTF-8 byte-order mark, as
Excel and R write, is skipped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dist import Rng

__all__ = ["Dataset", "SplitIndices", "split", "query_rows", "read_csv"]


def _frozen_array(values, dtype=float, ndim=None) -> np.ndarray:
    """An owned, read-only copy of ``values`` as an array of ``dtype``;
    with ``ndim`` given, any other number of dimensions raises
    ``ValueError``. Datasets, splits and prediction bands hold their
    arrays this way."""
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def query_rows(fn, t, x):
    """Answer a model query at (t, x) by ``fn(t_vec, x_matrix)``.

    A 1-d x is one row, and a scalar t is repeated over the rows. A
    single-point query, a 1-d x with one treatment, gives a Python
    float; any other gives fn's result as a float array.
    """
    x = np.asarray(x, dtype=float)
    x2 = x[None, :] if x.ndim == 1 else x
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or x.ndim not in (1, 2):
        raise ValueError(f"need a scalar or 1-d t and a 1-d or 2-d x, got {t.shape} and {x.shape}")
    if t.ndim == 0:
        t = np.full(x2.shape[0], float(t))
    if t.shape[0] != x2.shape[0]:
        raise ValueError("t and x row counts differ")
    out = np.asarray(fn(t, x2), dtype=float)
    return float(out.reshape(-1)[0]) if x.ndim == 1 and t.shape[0] == 1 else out


@dataclass(frozen=True)
class Dataset:
    """Immutable (response, treatment, covariates) table.

    y and t are length-n vectors; x is an n-by-p matrix. All entries
    must be finite.
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        y = _frozen_array(self.y, ndim=1)
        t = _frozen_array(self.t, ndim=1)
        x = _frozen_array(self.x)
        if x.ndim == 1:
            x = x[:, None]  # a view, read-only as its base
        if x.ndim != 2:
            raise ValueError(f"x must be 2-d, got shape {x.shape}")
        if not (len(y) == len(t) == x.shape[0]):
            raise ValueError("y, t and x must have the same number of rows")
        for name, arr in (("y", y), ("t", t), ("x", x)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in column group '{name}'")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint training / calibration row indices: non-negative, and
    none listed twice within or across the two halves."""

    train: np.ndarray
    cal: np.ndarray

    def __post_init__(self) -> None:
        train = _frozen_array(self.train, dtype=np.intp, ndim=1)
        cal = _frozen_array(self.cal, dtype=np.intp, ndim=1)
        # one sort of both halves finds a negative index and any index
        # listed twice, within a half or across the two
        both = np.concatenate([train, cal])
        both.sort()
        if both.size and (both[0] < 0 or (both[1:] == both[:-1]).any()):
            if np.intersect1d(train, cal).size:
                raise ValueError("train and calibration indices overlap")
            if both[0] < 0:
                raise ValueError(f"split indices must be non-negative, got {both[0]}")
            half = "train" if np.unique(train).size < train.size else "calibration"
            raise ValueError(f"{half} indices repeat a row")
        object.__setattr__(self, "train", train)
        object.__setattr__(self, "cal", cal)


def split(data: Dataset, fraction: float, rng: Rng) -> SplitIndices:
    """Randomly partition rows into training and calibration sets.

    The training size is floor(fraction * n), a deterministic rounding
    rule, and assignment comes from a uniform random permutation, so the
    same seed always produces the same partition.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly inside (0, 1)")
    if data.n < 4:
        raise ValueError(f"need at least 4 rows to split, got {data.n}")
    n_train = int(math.floor(fraction * data.n))
    if n_train == 0 or n_train == data.n:
        raise ValueError("fraction leaves one half of the split empty")
    perm = rng.gen.permutation(data.n)
    return SplitIndices(np.sort(perm[:n_train]), np.sort(perm[n_train:]))


def read_csv(path) -> Dataset:
    """Load a dataset from a ``y,t,x1,...,xp`` CSV.

    Malformed rows are rejected with the offending line number; every
    cell must parse as a finite float.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        p = len(header) - 2
        if p < 1 or header != ["y", "t"] + [f"x{i}" for i in range(1, p + 1)]:
            raise ValueError(
                f"{path}: bad header {','.join(header)!r}; expected y,t,x1,...,xp"
            )
        rows: list[list[float]] = []
        for row in reader:
            if len(row) != p + 2:
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {p + 2} fields, got {len(row)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: non-numeric value {cell!r} in column {name}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: non-finite value {cell!r} in column {name}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(rows)
    return Dataset(arr[:, 0], arr[:, 1], arr[:, 2:])
