"""Deterministic synthetic datasets and a delimited-text loader.

Generators stand in for image benchmarks at desk scale: Gaussian blobs for
the linearly separable case and two concentric rings for a case that needs
the MLP. Everything is seeded; train/test splits are stratified 80/20 so
label balance survives small sample counts.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataFormatError, NonNumericCellError, RaggedRowError
from .tensor import as_labels, as_matrix, normalize

VARIANCE_FLOOR = 1e-12
# Rows formatted at once by the text-table writers, and parsed at once by
# the loader's per-row fallback.
ROW_CHUNK = 1024


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        self.features = as_matrix(self.features)
        self.labels = as_labels(self.labels, self.num_classes)
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError("labels must match the number of feature rows")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


def _stratified_split(features, labels, num_classes, rng, train_fraction=0.8):
    """Per-class seeded permutation split; every class keeps >= 1 sample per side."""
    train_idx, test_idx = [], []
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            continue
        members = members[rng.permutation(members.size)]
        n_train = int(round(train_fraction * members.size))
        n_train = max(1, min(members.size - 1, n_train)) if members.size > 1 else 1
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    train = Dataset(features[train_idx], labels[train_idx], num_classes, "train")
    test = Dataset(features[test_idx], labels[test_idx], num_classes, "test")
    return train, test


def gaussian_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    center_radius: float = 3.0,
    stddev: float = 1.0,
    seed=0,
) -> tuple[Dataset, Dataset]:
    """Isotropic Gaussian clusters around deterministic class centers.

    For dim == 2 the centers sit evenly spaced on a circle of the given
    radius; in higher dimensions each center is a seeded random direction
    scaled to the radius.
    """
    if num_classes < 2 or per_class < 2:
        raise ConfigError("need num_classes >= 2 and per_class >= 2")
    if dim < 1:
        raise ConfigError(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        centers = center_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        directions = rng.normal(size=(num_classes, dim))
        centers = center_radius * normalize(directions, 1)[0]
    features = np.repeat(centers, per_class, axis=0)
    features = features + stddev * rng.normal(size=features.shape)
    labels = np.repeat(np.arange(num_classes), per_class)
    return _stratified_split(features, labels, num_classes, rng)


def two_rings(per_class: int, noise: float = 0.1, seed=0) -> tuple[Dataset, Dataset]:
    """Two concentric 2-d rings (radii 1 and 2) with radial Gaussian noise."""
    if per_class < 2:
        raise ConfigError("need per_class >= 2")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=2 * per_class)
    radii = np.repeat([1.0, 2.0], per_class) + noise * rng.normal(size=2 * per_class)
    features = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    labels = np.repeat([0, 1], per_class)
    return _stratified_split(features, labels, 2, rng)


def split_dataset(dataset: Dataset, seed=0, train_fraction: float = 0.8) -> tuple[Dataset, Dataset]:
    """Stratified 80/20 re-split of a loaded dataset, seeded."""
    rng = np.random.default_rng(seed)
    return _stratified_split(
        dataset.features, dataset.labels, dataset.num_classes, rng, train_fraction
    )


def standardize(features) -> np.ndarray:
    """Per-feature shift/scale to mean 0, variance 1.

    Columns whose variance is at or below the floor (constants) map to all
    zeros instead of blowing up.
    """
    features = np.asarray(features, dtype=np.float64)
    means = features.mean(axis=0)
    variances = features.var(axis=0)
    scale = np.where(variances > VARIANCE_FLOOR, np.sqrt(variances), 1.0)
    out = features - means
    out /= scale
    out[:, variances <= VARIANCE_FLOOR] = 0.0
    return out


def read_text_lines(path, error) -> Iterator[str]:
    """A UTF-8 file's lines one at a time, endings kept; other bytes raise
    `error` naming the path."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _data_rows(path) -> Iterator[str]:
    """The stripped lines of a delimited file that hold data: not blank and
    not a "#" comment."""
    lines = (ln.strip() for ln in read_text_lines(path, DataFormatError))
    return (ln for ln in lines if ln and not ln.startswith("#"))


def _parse_rows(path, rows) -> np.ndarray:
    """The table with one float() a cell, or the typed error of the first
    bad data row, numbered from 1. Rows are parsed ROW_CHUNK at a time into
    float64 blocks, so no whole-table list of floats exists."""
    blocks, parsed, width = [], [], None
    for lineno, row in enumerate(rows, start=1):
        cells = row.split(",")  # float() ignores the whitespace around a cell
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedRowError(
                f"{path}: row {lineno} has {len(cells)} fields, expected {width}"
            )
        try:
            parsed.append([float(c) for c in cells])
        except ValueError as exc:
            raise NonNumericCellError(f"{path}: row {lineno}: {exc}") from exc
        if len(parsed) == ROW_CHUNK:
            blocks.append(np.array(parsed))
            parsed = []
    if parsed:
        blocks.append(np.array(parsed))
    return np.concatenate(blocks)


def load_delimited(path) -> Dataset:
    """Load the table that save_delimited writes: comma-separated rows of
    features, then an integer class id below the number of data rows; no
    header. Blank lines and lines starting with "#" are skipped, whitespace
    around a cell is ignored, and the features are standardized per column.

    Missing file, bytes that are not UTF-8, ragged rows, non-numeric,
    non-finite (nan, inf) or out-of-range label cells, and feature columns
    that overflow float64 when standardized raise distinct errors. One
    np.loadtxt call reads the rows, converting each cell as float() does;
    when numpy refuses the file, it is read again one float() a cell, for
    the typed error of the first bad data row or for cells that only
    float() takes (digit underscores, non-ASCII digits).
    """
    rows = _data_rows(path)
    first = next(rows, None)
    if first is None:
        raise RaggedRowError(f"{path}: no data rows")
    try:
        table = np.loadtxt(chain([first], rows), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = _parse_rows(path, _data_rows(path))
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonNumericCellError(
            f"{path}: row {row + 1}: non-finite value {float(table[row, col])!r} "
            f"in column {col}"
        )
    if table.shape[1] < 2:
        raise RaggedRowError(f"{path}: need at least 2 columns, got {table.shape[1]}")
    labels = table[:, -1]
    if (np.rint(labels) != labels).any():
        raise NonNumericCellError(f"{path}: the label column is not integral")
    if labels.min() < 0:
        raise NonNumericCellError(f"{path}: negative class label {int(labels.min())}")
    if labels.max() >= len(table):
        raise NonNumericCellError(f"{path}: class label {int(labels.max())} is not below "
                                  f"the {len(table)} data rows")
    # A finite variance bounds every step of standardize; an overflowing one
    # turns the column into nan (its sum overflows) or zeros (its squares do).
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = ~np.isfinite(table[:, :-1].var(axis=0))
    if overflowed.any():
        raise NonNumericCellError(f"{path}: column {int(np.argmax(overflowed))} overflows "
                                  f"float64 when standardized")
    return Dataset(standardize(table[:, :-1]), labels, int(labels.max()) + 1)


def write_rows(fh, values, labels) -> None:
    """One comma-separated line per table row: 17 significant digits a value
    (an exact float64 round trip), then the row's integer label. Rows are
    formatted ROW_CHUNK at a time, so no whole-table list of floats exists."""
    line = "%.17g," * values.shape[1] + "%d\n"
    for start in range(0, values.shape[0], ROW_CHUNK):
        rows = zip(values[start:start + ROW_CHUNK].tolist(),
                   labels[start:start + ROW_CHUNK].tolist())
        fh.writelines(line % (*row, label) for row, label in rows)


def save_delimited(dataset: Dataset, path) -> None:
    """Write features plus a final label column, the table load_delimited reads."""
    with open(path, "w") as fh:
        write_rows(fh, dataset.features, dataset.labels)
