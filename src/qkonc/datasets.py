"""Synthetic datasets and CSV I/O.

CSV layout: header ``f1,...,fd`` with an optional trailing ``label`` column;
one row per point; '.' decimal, ',' delimiter, LF line endings, 17
significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True, eq=False)
class Dataset:
    inputs: np.ndarray  # (count, dim)
    labels: np.ndarray | None = None  # (count,) or None

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {inputs.shape}")
        object.__setattr__(self, "inputs", inputs)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.float64)
            if labels.shape != (inputs.shape[0],):
                raise ValueError(
                    f"labels shape {labels.shape} does not match {inputs.shape[0]} points"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def gen_uniform(
    count: int,
    dim: int,
    rng: np.random.Generator,
    low: float = -math.pi,
    high: float = math.pi,
) -> Dataset:
    """Unlabeled points uniform on [low, high]^dim."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be positive")
    return Dataset(rng.uniform(low, high, (count, dim)))


def gen_hypercube(count: int, dim: int, rng: np.random.Generator) -> Dataset:
    """Points uniform on [-pi, pi]^dim labeled +1 inside the centered cube of
    half-width pi * 2^(-1/dim) (so both classes have probability 1/2), else -1."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be positive")
    xs = rng.uniform(-math.pi, math.pi, (count, dim))
    half_width = math.pi * 2.0 ** (-1.0 / dim)
    labels = np.where(np.all(np.abs(xs) < half_width, axis=1), 1.0, -1.0)
    return Dataset(xs, labels)


def save_csv(dataset: Dataset, path) -> None:
    cols = [f"f{k + 1}" for k in range(dataset.dim)]
    if dataset.labels is not None:
        cols.append("label")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(dataset.count):
            row = [f"{v:.17g}" for v in dataset.inputs[i]]
            if dataset.labels is not None:
                row.append(f"{dataset.labels[i]:.17g}")
            fh.write(",".join(row) + "\n")


def load_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    Malformed content raises ValueError with the offending 1-based line number.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    has_label = header[-1] == "label"
    feat_cols = header[:-1] if has_label else header
    if feat_cols != [f"f{k + 1}" for k in range(len(feat_cols))] or not feat_cols:
        raise ValueError(f"line 1: expected header f1,...,fd[,label], got {lines[0]!r}")
    width = len(header)
    rows = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
        if has_label:
            rows.append(vals[:-1])
            labels.append(vals[-1])
        else:
            rows.append(vals)
    if not rows:
        raise ValueError("line 2: no data rows")
    return Dataset(np.array(rows), np.array(labels) if has_label else None)
