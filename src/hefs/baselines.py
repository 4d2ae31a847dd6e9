"""Filter baselines that pick the conditional feature set the search builds on."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, DatasetError, _column_index
from .metrics import _column_codes, _mi_from_codes


@dataclass(frozen=True)
class ConditionalSet:
    """An ordered set of pre-selected feature indices plus where it came from."""

    indices: tuple[int, ...]
    source: str

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("conditional set is empty")
        if len(set(idx)) != len(idx):
            raise ValueError("conditional set contains duplicate indices")
        if min(idx) < 0:
            raise ValueError("feature indices must be non-negative")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)


def _check_m(ds: Dataset, m: int) -> None:
    if not 1 <= m <= ds.d:
        raise ValueError(f"m must be in 1..d, got {m} for d={ds.d}")


def mi_rank_select(ds: Dataset, m: int, n_bins: int = 10) -> ConditionalSet:
    """Top-m features by mutual information with the label, ties to lower index.

    Each feature is cut into n_bins equal-width bins; the label is categorical,
    one code per class.
    """
    _check_m(ds, m)
    codes = _column_codes(ds.features, range(ds.d), n_bins)
    scores = _mi_from_codes(codes, ds.labels, n_bins, ds.n_classes)
    order = np.argsort(-scores, kind="stable")[:m]
    return ConditionalSet(indices=tuple(int(j) for j in order), source="mi")


def ttest_rank_select(ds: Dataset, m: int) -> ConditionalSet:
    """Top-m features by absolute Welch t statistic between the two classes.

    Only defined for binary datasets. A feature with zero variance in both
    classes scores 0. Ties go to the lower index.
    """
    if ds.n_classes != 2:
        raise DatasetError(f"t-test ranking needs a binary dataset, got {ds.n_classes} classes")
    _check_m(ds, m)
    mask0 = ds.labels == 0
    x0 = ds.features[mask0]
    x1 = ds.features[~mask0]
    n0, n1 = x0.shape[0], x1.shape[0]
    if n0 < 2 or n1 < 2:
        raise DatasetError("both classes need at least 2 samples for a t statistic")
    var0 = x0.var(axis=0, ddof=1)
    var1 = x1.var(axis=0, ddof=1)
    denom = var0 / n0 + var1 / n1
    diff = x0.mean(axis=0) - x1.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom == 0.0, 0.0, diff / np.sqrt(denom))
    scores = np.abs(t)
    order = np.argsort(-scores, kind="stable")[:m]
    return ConditionalSet(indices=tuple(int(j) for j in order), source="ttest")


def load_conditional(path: str | Path, ds: Dataset) -> ConditionalSet:
    """Read a conditional set from a text file, one feature per line.

    Each line is either a feature name or a 0-based index; names win when a
    line could be both. Text after '#' is a comment, blank lines are skipped.
    Duplicates (after resolution) are rejected.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetError(f"conditional set file not found: {p}")
    indices: list[int] = []
    # utf-8-sig drops a byte-order mark, which would otherwise join the first name
    with open(p, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            try:
                j = _column_index(ds.feature_names, entry)
            except ValueError as exc:
                raise DatasetError(f"{p}: line {lineno}: {exc}") from None
            if j in indices:
                raise DatasetError(f"{p}: line {lineno}: feature {entry!r} listed twice")
            indices.append(j)
    if not indices:
        raise DatasetError(f"{p}: no features listed")
    return ConditionalSet(indices=tuple(indices), source="file")
