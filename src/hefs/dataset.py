"""Dataset ingestion, normalization, fold assignment, and sample clustering."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """Raised when input data violates a contract (bad file, bad labels, ...)."""


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
    A fault names its row by file line, as csv.reader counts them.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"dataset file not found: {p}")
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if len(rows) < 2:
        raise DatasetError(f"{p}: need a header row and at least one data row")

    header = [h.strip() for h in rows[0][1]]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DatasetError(f"{p}: duplicate column names {dupes}")

    label_idx = _resolve_label_column(header, label_column, p)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]

    n_cols = len(header)
    feature_rows: list[list[float]] = []
    raw_labels: list[str] = []
    for r, row in rows[1:]:
        if len(row) != n_cols:
            raise DatasetError(f"{p}: row {r} has {len(row)} cells, expected {n_cols}")
        vals = []
        for c, cell in enumerate(row):
            if c == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DatasetError(
                    f"{p}: row {r}, column {header[c]!r}: cannot parse {cell.strip()!r} as a number"
                ) from None
        feature_rows.append(vals)
    features = np.asarray(feature_rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        c = [c for c in range(n_cols) if c != label_idx][j]
        r, row = rows[i + 1]
        raise DatasetError(
            f"{p}: row {r}, column {header[c]!r}: non-finite value {row[c].strip()!r}"
        )

    label_values: list[str] = []
    code_of: dict[str, int] = {}
    codes = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        if lab not in code_of:
            code_of[lab] = len(label_values)
            label_values.append(lab)
        codes[i] = code_of[lab]
    if len(label_values) < 2:
        raise DatasetError(f"{p}: dataset has a single class {label_values[0]!r}")

    return Dataset(
        features=features,
        labels=codes,
        feature_names=tuple(feature_names),
        label_values=tuple(label_values),
    )


def _resolve_label_column(header: list[str], label_column: str | int, path: Path) -> int:
    if isinstance(label_column, int):
        idx = label_column
    else:
        name = str(label_column).strip()
        if name in header:
            return header.index(name)
        try:
            idx = int(name)
        except ValueError:
            raise DatasetError(f"{path}: no column named {name!r}") from None
    if not 0 <= idx < len(header):
        raise DatasetError(f"{path}: label column index {idx} out of range for {len(header)} columns")
    return idx


def zscore_normalize(ds: Dataset) -> Dataset:
    """Standardize each column to zero mean and unit population variance.

    Zero-variance columns become all zeros instead of dividing by zero.
    """
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    out = (ds.features - mean) / safe
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
    if np.any(norms == 0.0):
        logger.debug("%d zero-norm rows treated as distance 1 to everything", int((norms == 0).sum()))
    safe = np.where(norms == 0.0, 1.0, norms)
    units = ds.features / safe[:, None]
    # unit vector of a zero row is the zero vector: dot 0 -> distance 1
    units[norms == 0.0] = 0.0

    order = rng.permutation(ds.n)
    leader_units: list[np.ndarray] = []
    members: list[list[int]] = []
    cluster_of = np.empty(ds.n, dtype=np.int64)
    for i in order:
        i = int(i)
        assigned = -1
        if leader_units:
            dots = np.asarray(leader_units) @ units[i]
            if norms[i] == 0.0:
                dots = np.zeros(len(leader_units))
            hits = np.flatnonzero(1.0 - dots < delta)
            if hits.size:
                assigned = int(hits[0])
        if assigned < 0:
            assigned = len(members)
            leader_units.append(units[i])
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
