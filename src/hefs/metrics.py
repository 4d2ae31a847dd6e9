"""Wrapper accuracy (k-NN under cross-validation) and histogram mutual information."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, FoldAssignment


@dataclass(frozen=True)
class MetricsReport:
    """Cross-validated metrics for one feature subset.

    accuracy is the unweighted mean of per-fold accuracies. The remaining
    fields come from the pooled out-of-fold predictions and are only present
    for binary problems; precision and recall are for class 1.
    """

    accuracy: float
    auc: Optional[float] = None
    precision: Optional[float] = None
    recall: Optional[float] = None

    def __post_init__(self):
        for name in ("accuracy", "auc", "precision", "recall"):
            v = getattr(self, name)
            if v is None:
                continue
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


# distance cells voted at a time: a fold's test rows go through in tiles of
# max(1, _TILE_ELEMENTS // train.size) rows, so a tile's prefix, its copy and
# the partition stay in cache instead of streaming a whole fold matrix
_TILE_ELEMENTS = 32 * 1600


def _sq_distances(queries: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n_queries, n_train).

    Accumulated column by column from explicit differences rather than the
    expanded dot-product form, so identical rows give exactly zero and ties
    stay exact, and so callers that pre-sum per-column distance matrices in
    the same column order reproduce these values bit for bit.
    """
    out = np.zeros((queries.shape[0], train.shape[0]), dtype=np.float64)
    _add_sq_distances(out, queries.T, train.T, range(queries.shape[1]), np.empty_like(out))
    return out


def _add_sq_distances(
    out: np.ndarray,
    queries: np.ndarray,
    train: np.ndarray,
    cols: Sequence[int],
    scratch: np.ndarray,
) -> None:
    """Add the squared differences of each of cols to out, one column at a time
    in order. queries (d, n_queries) and train (d, n_train) hold one feature
    per row; scratch is an out-shaped buffer the caller may reuse."""
    for j in cols:
        np.subtract(queries[j, :, None], train[j], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        out += scratch


def _knn_from_d2(
    d2: np.ndarray, train_y: np.ndarray, k: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vote every query row of a (n_queries, n_train) squared-distance matrix;
    also return each row's class-1 vote fraction.

    Neighbors are the k smallest distances with exact ties broken by training
    row position (lowest index first). Vote ties go to the lowest class id.
    When fewer than k training rows exist, all of them vote.
    """
    k_eff = min(k, d2.shape[1])
    # a copy, so the partitioned matrix is freed at once
    kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1 : k_eff].copy()
    sel = d2 <= kth
    # a query with more training rows at the k-th distance than free slots
    # admits the lowest-index ones only; every other query already selects
    # exactly k_eff rows
    tied = np.flatnonzero(np.count_nonzero(sel, axis=1) > k_eff)
    if tied.size:
        rows, kth_t = d2[tied], kth[tied]
        closer = rows < kth_t
        at_kth = rows == kth_t
        need = k_eff - closer.sum(axis=1, keepdims=True)
        sel[tied] = closer | (at_kth & (np.cumsum(at_kth, axis=1) <= need))
    nq, nt = d2.shape
    hit = np.flatnonzero(sel)
    # every row selects exactly k_eff training rows; count (row, class) pairs
    counts = np.bincount(hit // nt * n_classes + train_y[hit % nt], minlength=nq * n_classes)
    counts = counts.reshape(nq, n_classes)
    preds = np.argmax(counts, axis=1)
    pos_frac = counts[:, 1] / k_eff if n_classes >= 2 else np.zeros(nq)
    return preds, pos_frac


def _check_subset(ds: Dataset, feature_subset: Sequence[int], k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cols = np.asarray(list(feature_subset), dtype=np.int64)
    if cols.size == 0:
        raise ValueError("feature subset is empty")
    if cols.min() < 0 or cols.max() >= ds.d:
        raise ValueError(f"feature index out of range for d={ds.d}")
    if len(set(cols.tolist())) != cols.size:
        raise ValueError("feature subset contains duplicates")
    return cols


def _fold_votes(
    ds: Dataset,
    folds: FoldAssignment,
    k: int,
    base: Sequence[int],
    extra_sets: Sequence[Sequence[int]],
    d2_cache: Optional[dict[int, list[np.ndarray]]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-validated k-NN votes of base plus each extra set of columns:
    out-of-fold predictions and class-1 vote fractions, each (len(extra_sets),
    n), and per-fold accuracies, (len(extra_sets), n_folds).

    Each fold's test rows are voted in tiles of max(1, _TILE_ELEMENTS //
    train.size) rows. Per tile, base's squared distances are summed once into
    a prefix. An empty extra set votes on the prefix itself. The last extra
    set adds its columns to the prefix in place, since no later set needs it;
    an earlier non-empty set adds its columns, in order, to a copy. So every
    voted matrix is a row block of the float64 sum that _sq_distances forms
    over base + extra, in the same order from zero. Correct votes are counted
    per tile and divided once by the fold's test size.

    Given a dict, d2_cache[j] holds column j's per-fold _sq_distances
    matrices, filled before the first fold and valid for this ds and folds
    only, and a tile reads their rows. Without one, each fold gathers its test
    and train rows once, one feature per row, and every tile sums columns from
    that gather.
    """
    pairs = [(folds.test_indices(f), folds.train_indices(f)) for f in range(folds.n_folds)]
    if d2_cache is not None:
        for j in {*base, *(j for extra in extra_sets for j in extra)} - d2_cache.keys():
            col = ds.features[:, j, None]
            d2_cache[j] = [_sq_distances(col[test], col[train]) for test, train in pairs]

    def add(out, cols, f, tile, scratch):
        # uncached, the columns come from fold f's gather, test_x and train_x
        if d2_cache is None:
            _add_sq_distances(out, test_x[:, tile], train_x, cols, scratch)
        else:
            for j in cols:
                out += d2_cache[j][f][tile]

    n_sets = len(extra_sets)
    preds = np.empty((n_sets, ds.n), dtype=np.int64)
    pos_frac = np.empty((n_sets, ds.n), dtype=np.float64)
    fold_acc = np.empty((n_sets, folds.n_folds), dtype=np.float64)
    steps = [max(1, _TILE_ELEMENTS // train.size) for _, train in pairs]
    # one allocation for the whole pass: buffers of slightly different
    # shapes, allocated and freed tile by tile, fragment the heap and raise
    # peak memory from one run to the next
    size = max(min(step, test.size) * train.size for step, (test, train) in zip(steps, pairs))
    copies = any(len(extra) for extra in extra_sets[:-1])
    buffers = np.empty((1 + (d2_cache is None) + copies, size))
    for f, ((test, train), step) in enumerate(zip(pairs, steps)):
        if d2_cache is None:
            test_x, train_x = ds.features[test].T.copy(), ds.features[train].T.copy()
        train_y = ds.labels[train]
        hits = np.zeros(n_sets, dtype=np.int64)
        for lo in range(0, test.size, step):
            tile = slice(lo, lo + step)
            rows = test[tile]
            shape = (rows.size, train.size)
            prefix, *rest = (b[: rows.size * train.size].reshape(shape) for b in buffers)
            scratch = rest[0] if d2_cache is None else None
            prefix.fill(0.0)
            add(prefix, base, f, tile, scratch)
            test_y = ds.labels[rows]
            for s, extra in enumerate(extra_sets):
                d2 = prefix
                if len(extra):
                    if s < n_sets - 1:
                        d2 = rest[-1]
                        np.copyto(d2, prefix)
                    add(d2, extra, f, tile, scratch)
                p, frac = _knn_from_d2(d2, train_y, k, ds.n_classes)
                # per vote, so kept cheap: row-view scatters and an integer count
                preds[s][rows], pos_frac[s][rows] = p, frac
                hits[s] += np.count_nonzero(p == test_y)
        # rounds to np.mean's quotient exactly
        fold_acc[:, f] = hits / test.size
    return preds, pos_frac, fold_acc


def cv_accuracy(ds: Dataset, feature_subset: Sequence[int], folds: FoldAssignment, k: int) -> float:
    """Mean per-fold k-NN accuracy on the given feature columns."""
    cols = _check_subset(ds, feature_subset, k)
    _, _, fold_acc = _fold_votes(ds, folds, k, cols, [()])
    return float(fold_acc[0].mean())


def full_metrics(
    ds: Dataset,
    base: Sequence[int],
    extra_sets: Sequence[Sequence[int]],
    folds: FoldAssignment,
    k: int,
) -> list[MetricsReport]:
    """Metrics of base + each extra set, in one pass: accuracy plus, for
    binary problems, pooled precision, recall and AUC.

    The AUC score for each sample is its class-1 vote fraction among the k
    neighbors; ties are handled by rank averaging. Precision with no
    predicted positives is defined as 0.
    """
    for extra in extra_sets:
        _check_subset(ds, [*base, *extra], k)
    votes = zip(*_fold_votes(ds, folds, k, base, extra_sets))
    if ds.n_classes != 2:
        return [MetricsReport(accuracy=float(fold_acc.mean())) for _, _, fold_acc in votes]
    actual_pos = ds.labels == 1
    reports = []
    for preds, pos_frac, fold_acc in votes:
        pred_pos = preds == 1
        tp = int(np.sum(actual_pos & pred_pos))
        reports.append(
            MetricsReport(
                accuracy=float(fold_acc.mean()),
                auc=_rank_auc(pos_frac, actual_pos),
                precision=tp / int(pred_pos.sum()) if pred_pos.any() else 0.0,
                recall=tp / int(actual_pos.sum()),
            )
        )
    return reports


def _rank_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Probability a positive outranks a negative, with tied scores averaged."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def equal_width_bins(column: np.ndarray, n_bins: int) -> np.ndarray:
    """Discretize a column into n_bins equal-width codes in 0..n_bins-1.

    The maximum value falls in the top bin; a constant column maps to all
    zeros.
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.size == 0:
        raise ValueError("column must be a non-empty vector")
    lo = col.min()
    hi = col.max()
    if hi == lo:
        return np.zeros(col.size, dtype=np.int64)
    width = (hi - lo) / n_bins
    codes = np.floor((col - lo) / width).astype(np.int64)
    return np.clip(codes, 0, n_bins - 1)


def _mi_from_codes(codes_a: np.ndarray, codes_b: np.ndarray, n_a: int, n_b: int) -> float:
    """Plug-in MI in nats of two code vectors with values in 0..n_a-1 and 0..n_b-1."""
    joint = np.bincount(codes_a * n_b + codes_b, minlength=n_a * n_b)
    joint = joint.reshape(n_a, n_b).astype(np.float64)
    total = joint.sum()
    p = joint / total
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    nz = p > 0.0
    outer = pa[:, None] * pb[None, :]
    mi = float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))
    return max(mi, 0.0)


def mutual_information(a: np.ndarray, b: np.ndarray, n_bins: int = 10) -> float:
    """Plug-in mutual information of two columns after equal-width binning.

    Natural log, so the result is in nats; empty joint cells contribute 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be non-empty vectors of equal length")
    codes_a, codes_b = equal_width_bins(a, n_bins), equal_width_bins(b, n_bins)
    return _mi_from_codes(codes_a, codes_b, n_bins, n_bins)
