"""Dataset ingestion, normalization, fold assignment, and sample clustering."""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


class DatasetError(ValueError):
    """Raised when input data violates a contract (bad file, bad labels, ...)."""


class LabelColumnError(DatasetError):
    """Raised when the label column, by name or by index, is not in the file."""


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with dense integer class labels.

    Attributes:
        features: (n, d) float64 matrix, one row per sample.
        labels: (n,) int64 vector with values in 0..n_classes-1. Every class
            id below n_classes occurs at least once.
        feature_names: d unique column names.
        label_values: original label string for each dense class id, in
            first-appearance order.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_values: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        names = tuple(str(s) for s in self.feature_names)
        values = tuple(str(s) for s in self.label_values)

        if feats.ndim != 2:
            raise DatasetError("features must be a 2-d matrix")
        n, d = feats.shape
        if n < 2:
            raise DatasetError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise DatasetError("need at least 1 feature")
        if not np.all(np.isfinite(feats)):
            raise DatasetError("features contain non-finite values")
        if labels.shape != (n,):
            raise DatasetError("labels must be one value per sample")
        if len(names) != d:
            raise DatasetError(f"expected {d} feature names, got {len(names)}")
        if len(set(names)) != d:
            raise DatasetError("feature names must be unique")
        c = len(values)
        if c < 1:
            raise DatasetError("need at least one class")
        if labels.min() < 0 or labels.max() >= c:
            raise DatasetError("labels must be dense integers in 0..n_classes-1")
        if np.any(np.bincount(labels, minlength=c) == 0):
            raise DatasetError("every class id must occur at least once")

        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "label_values", values)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_values)


@dataclass(frozen=True)
class FoldAssignment:
    """A partition of sample indices into n_folds non-empty folds."""

    fold_of: np.ndarray
    n_folds: int

    def __post_init__(self):
        fold_of = np.asarray(self.fold_of, dtype=np.int64)
        if self.n_folds < 2:
            raise DatasetError("need at least 2 folds")
        if fold_of.ndim != 1 or fold_of.size == 0:
            raise DatasetError("fold_of must be a non-empty vector")
        if fold_of.min() < 0 or fold_of.max() >= self.n_folds:
            raise DatasetError("fold ids out of range")
        if np.any(np.bincount(fold_of, minlength=self.n_folds) == 0):
            raise DatasetError("every fold must be non-empty")
        fold_of.setflags(write=False)
        object.__setattr__(self, "fold_of", fold_of)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


@dataclass(frozen=True)
class ClusterReduction:
    """Result of leader clustering: one representative sample per cluster.

    representative_indices[c] is the sample chosen to stand in for cluster c;
    member_of[i] is the cluster id of sample i.
    """

    representative_indices: tuple[int, ...]
    member_of: np.ndarray

    def __post_init__(self):
        member_of = np.asarray(self.member_of, dtype=np.int64)
        m = len(self.representative_indices)
        if m == 0:
            raise DatasetError("at least one cluster required")
        if member_of.min() < 0 or member_of.max() >= m:
            raise DatasetError("cluster ids out of range")
        member_of.setflags(write=False)
        object.__setattr__(self, "member_of", member_of)
        object.__setattr__(
            self, "representative_indices", tuple(int(i) for i in self.representative_indices)
        )

    @property
    def n_clusters(self) -> int:
        return len(self.representative_indices)


def load_csv(path: str | Path, label_column: str | int) -> Dataset:
    """Load a headered CSV file into a Dataset.

    The label column is selected by header name first; if no header matches
    and the argument looks like an integer, it is taken as a 0-based column
    index. Labels may be arbitrary strings and are encoded as dense integers
    in first-appearance order. All other cells must parse as finite floats.
    A fault names its row by file line, as csv.reader counts them. A ragged
    row or an unparsable cell is reported at its row; the first non-finite
    cell is reported only once the whole file has parsed. A UTF-8 byte-order
    mark before the header is dropped.

    Rows are streamed: each row's feature cells go straight into one growing
    float64 buffer, which becomes the feature matrix without a copy, so no
    per-cell Python object outlives its row.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"dataset file not found: {p}")
    with open(p, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if row)
        first_two = list(itertools.islice(rows, 2))
        if len(first_two) < 2:
            raise DatasetError(f"{p}: need a header row and at least one data row")
        (_, header_row), first_data = first_two

        header = [h.strip() for h in header_row]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DatasetError(f"{p}: duplicate column names {dupes}")
        try:
            label_idx = _column_index(header, label_column)
        except ValueError as exc:
            raise LabelColumnError(f"{p}: {exc}") from None
        feature_names = header[:label_idx] + header[label_idx + 1 :]
        if not feature_names:
            label = header[label_idx]
            raise DatasetError(f"{p}: no feature columns besides the label column {label!r}")

        n_cols = len(header)
        values = array("d")
        codes = array("q")
        code_of: dict[str, int] = {}
        non_finite = None  # the first non-finite cell's message
        for r, row in itertools.chain([first_data], rows):
            if len(row) != n_cols:
                raise DatasetError(f"{p}: row {r} has {len(row)} cells, expected {n_cols}")
            codes.append(code_of.setdefault(row.pop(label_idx).strip(), len(code_of)))
            try:
                cells = list(map(float, row))
            except ValueError:
                j = next(j for j, cell in enumerate(row) if not _parses(cell))
                raise DatasetError(
                    f"{p}: row {r}, column {feature_names[j]!r}: "
                    f"cannot parse {row[j].strip()!r} as a number"
                ) from None
            # a sum is non-finite when a term is, and rarely when none is
            if non_finite is None and not math.isfinite(sum(cells)):
                bad = [j for j, x in enumerate(cells) if not math.isfinite(x)]
                if bad:
                    j = bad[0]
                    non_finite = (
                        f"{p}: row {r}, column {feature_names[j]!r}: "
                        f"non-finite value {row[j].strip()!r}"
                    )
            values.extend(cells)
    if non_finite is not None:
        raise DatasetError(non_finite)
    if len(code_of) < 2:
        raise DatasetError(f"{p}: dataset has a single class {next(iter(code_of))!r}")

    return Dataset(
        features=np.frombuffer(values, dtype=np.float64).reshape(len(codes), len(feature_names)),
        labels=np.frombuffer(codes, dtype=np.int64),
        feature_names=tuple(feature_names),
        label_values=tuple(code_of),
    )


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _column_index(names: Sequence[str], entry: str | int) -> int:
    """Position of the column named entry, or else of the 0-based index entry."""
    entry = str(entry).strip()
    if entry in names:
        return names.index(entry)
    try:
        idx = int(entry)
    except ValueError:
        raise ValueError(f"no column named {entry!r}") from None
    if not 0 <= idx < len(names):
        raise ValueError(f"index {idx} out of range for {len(names)} columns")
    return idx


def zscore_normalize(ds: Dataset) -> Dataset:
    """Standardize each column to zero mean and unit population variance.

    Zero-variance columns become all zeros instead of dividing by zero. The
    first column whose mean or standard deviation overflows is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = ds.features.mean(axis=0), ds.features.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(std))  # a non-finite mean makes std one too
    if bad.size:
        j = bad[0]
        what = "mean" if not np.isfinite(mean[j]) else "standard deviation"
        raise DatasetError(f"column {ds.feature_names[j]!r}: its {what} overflows float64")
    safe = np.where(std == 0.0, 1.0, std)
    out = ds.features - mean
    out /= safe
    out[:, std == 0.0] = 0.0
    return Dataset(out, ds.labels, ds.feature_names, ds.label_values)


def stratified_kfold(ds: Dataset, n_folds: int, rng: np.random.Generator) -> FoldAssignment:
    """Assign samples to folds so per-fold class counts differ by at most 1.

    Within each class the shuffled samples are dealt round-robin starting at
    a random fold, so no fold systematically receives the remainder.
    """
    if n_folds < 2:
        raise DatasetError("need at least 2 folds")
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    small = np.flatnonzero(counts < n_folds)
    if small.size:
        c = int(small[0])
        raise DatasetError(
            f"class {ds.label_values[c]!r} has {int(counts[c])} samples, "
            f"fewer than {n_folds} folds"
        )
    fold_of = np.empty(ds.n, dtype=np.int64)
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == c)
        perm = rng.permutation(idx)
        offset = int(rng.integers(n_folds))
        fold_of[perm] = (np.arange(idx.size) + offset) % n_folds
    return FoldAssignment(fold_of, n_folds)


def leader_cluster(ds: Dataset, delta: float, rng: np.random.Generator) -> ClusterReduction:
    """Single-pass leader clustering of samples under cosine distance.

    Samples are visited in a seeded random order. A sample joins the first
    cluster whose founding leader lies within distance delta, otherwise it
    founds a new cluster. After the pass each cluster's representative is
    drawn uniformly from its final members.
    """
    if not 0.0 < delta <= 2.0:
        raise DatasetError(f"delta must be in (0, 2], got {delta}")
    norms = np.linalg.norm(ds.features, axis=1)
    # a zero row stays the zero vector: dot 0 with every leader, distance 1
    units = ds.features / np.where(norms == 0.0, 1.0, norms)[:, None]

    order = rng.permutation(ds.n)
    leaders = np.empty_like(units)
    members: list[list[int]] = []
    cluster_of = np.empty(ds.n, dtype=np.int64)
    for i in order:
        i = int(i)
        # np.einsum without optimize calls no BLAS, so numpy fixes its sum's
        # order; a BLAS matrix-vector product's varies with the kernel, and
        # a sample near delta could join another cluster
        hits = np.flatnonzero(1.0 - np.einsum("ij,j->i", leaders[: len(members)], units[i]) < delta)
        if hits.size:
            assigned = int(hits[0])
        else:
            assigned = len(members)
            leaders[assigned] = units[i]
            members.append([])
        members[assigned].append(i)
        cluster_of[i] = assigned

    reps = tuple(group[int(rng.integers(len(group)))] for group in members)
    return ClusterReduction(representative_indices=reps, member_of=cluster_of)


def reduce_dataset(ds: Dataset, reduction: ClusterReduction) -> Dataset:
    """Keep only the representative rows chosen by a ClusterReduction."""
    idx = np.asarray(reduction.representative_indices, dtype=np.int64)
    labels = ds.labels[idx]
    missing = np.flatnonzero(np.bincount(labels, minlength=ds.n_classes) == 0)
    if missing.size:
        raise DatasetError(
            f"cluster reduction removed every sample of class {ds.label_values[int(missing[0])]!r}"
        )
    return Dataset(ds.features[idx], labels, ds.feature_names, ds.label_values)


def synth_xor_dataset(n: int, d: int, label_noise: float, rng: np.random.Generator) -> Dataset:
    """Generate the synthetic parity benchmark.

    Columns f0 and f1 are independent uniform bits and the label is their
    XOR, flipped with probability label_noise. The remaining d-2 columns are
    standard normal noise. Neither bit predicts the label alone; the pair
    predicts it perfectly when label_noise is 0.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be a positive even number, got {n}")
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError(f"label_noise must be in [0, 1], got {label_noise}")
    f0 = rng.integers(0, 2, size=n)
    f1 = rng.integers(0, 2, size=n)
    flips = rng.random(n) < label_noise
    labels = (f0 ^ f1) ^ flips
    noise = rng.standard_normal((n, d - 2))
    features = np.column_stack([f0.astype(np.float64), f1.astype(np.float64), noise])
    names = tuple(f"f{i}" for i in range(d))
    return Dataset(features, labels.astype(np.int64), names, ("0", "1"))
