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
# at most max(1, _TILE_ELEMENTS // train.size) rows, and a tile's sets go to
# k-NN in chunks of max(1, _TILE_ELEMENTS // tile.size), so a tile's buffers
# and the partition stay in cache instead of streaming a whole fold matrix,
# and a small tile votes many sets per call instead of paying dispatch per set
_TILE_ELEMENTS = 32 * 1600
# distance cells a column pass's 1 + sets tile buffers share (2 MB, one core's L2):
# tiles get thinner as a pass votes more sets, so its memory stops growing
# with the population size
_PASS_ELEMENTS = 5 * _TILE_ELEMENTS
# the thinnest tile the pass budget may ask for: thinner tiles pay more
# Python and ufunc dispatch per distance than the memory they save
_MIN_TILE_ROWS = 16
# a pass whose every training fold holds at least this many rows votes
# through the filter-and-refine path. Per pass, on one core: from 512
# training rows on, one matrix product per set beats the column adds up to
# 7x on sets of 31-60 columns, and loses at most 1.4x (30 sets of 4
# columns); at 48-320 rows its per-set, per-tile dispatch costs up to 11x
# more than the adds it saves
_REFINE_MIN_TRAIN = 512
# cells per block of the refine filter's k-th value bound (see _kth_bound):
# one minimum per block is partitioned instead of every cell. Per pass on
# one core, over 512-1600 training rows, blocks of 8 and 16 made the refine
# path 1.31x and 1.30x faster (geometric mean) and 32 1.18x; 16 was the
# fastest at 1600 rows (BENCH_20.json)
_BLOCK = 16


def _tile_rows(train_size: int, n_sets: int) -> int:
    """Test rows per tile of a fold with train_size training rows, in a pass
    that votes n_sets sets."""
    return min(
        max(1, _TILE_ELEMENTS // train_size),
        max(_MIN_TILE_ROWS, _PASS_ELEMENTS // ((1 + n_sets) * train_size)),
    )


def _sq_distances(queries: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n_queries, n_train).

    Accumulated column by column from explicit differences rather than the
    expanded dot-product form, so identical rows give exactly zero and ties
    stay exact, and so a k-NN pass that adds the same columns in the same
    order reproduces these values bit for bit.
    """
    out = np.zeros((queries.shape[0], train.shape[0]), dtype=np.float64)
    adds = [(j, [out]) for j in range(queries.shape[1])]
    _add_sq_distances(queries.T, train.T, adds, np.empty_like(out))
    return out


def _add_sq_distances(
    queries: np.ndarray,
    train: np.ndarray,
    adds: Sequence[tuple[int, Sequence[np.ndarray]]],
    scratch: np.ndarray,
) -> None:
    """For each (j, outs) of adds, in order, form column j's squared
    differences once in scratch and add them to every array of outs.
    queries (d, n_queries) and train (d, n_train) hold one feature per row;
    scratch is an outs-shaped buffer the caller may reuse."""
    for j, outs in adds:
        _form_sq_distances(queries, train, j, scratch)
        for out in outs:
            out += scratch


def _form_sq_distances(queries: np.ndarray, train: np.ndarray, j: int, out: np.ndarray) -> None:
    """Write column j's squared query-train differences into out, whose
    last two axes are (n_queries, n_train)."""
    # a broadcast copy and an in-place subtract cost less than one
    # subtract that broadcasts both operands, and give the same q - t
    np.copyto(out, queries[j, :, None])
    np.subtract(out, train[j], out=out)
    np.multiply(out, out, out=out)


def _knn_from_d2(
    d2: np.ndarray, train_y: np.ndarray, k: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vote every query row of a (n_queries, n_train) squared-distance matrix;
    also return each row's class-1 vote fraction.

    Neighbors are the k smallest distances with exact ties broken by training
    row position (lowest index first). Vote ties go to the lowest class id.
    When fewer than k training rows exist, all of them vote.
    """
    nt = d2.shape[1]
    k_eff = min(k, nt)
    # a copy, so the partitioned matrix is freed at once
    kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1 : k_eff].copy()
    hit = np.flatnonzero(d2 <= kth)
    row = hit // nt
    return _vote(row, train_y[hit - row * nt], d2.reshape(-1), hit, kth[:, 0], k_eff, n_classes)


def _vote(
    row: np.ndarray,
    label: np.ndarray,
    dist: np.ndarray,
    cell: np.ndarray,
    kth: np.ndarray,
    k_eff: int,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The k-NN vote of len(kth) query rows from the cells at or below each
    row's k-th distance kth[r]: cell i lies in query row row[i], its training
    row has class label[i], and its distance is dist[cell[i]]. row is
    ascending, and a query row's cells come in training-row order.

    Every row holds at least k_eff such cells. A row with more, tied at the
    k-th distance, admits the lowest training rows among the tied ones, so
    neighbors are ranked by (distance, training row). Vote ties go to the
    lowest class id. Returns predictions and class-1 vote fractions.
    """
    nq = kth.size
    n_sel = np.bincount(row, minlength=nq)
    # a query with more training rows at the k-th distance than free slots
    # admits the lowest-index ones only; every other query already selects
    # exactly k_eff rows. A tied row's cells at the k-th distance come in
    # training-row order, and their rank is their place after the row's
    # first such cell
    if n_sel.max(initial=0) > k_eff:
        over = np.flatnonzero(n_sel[row] > k_eff)  # the tied rows' cells
        at = over[dist[cell[over]] == kth[row[over]]]
        at_row = row[at]
        rank = np.arange(at.size) - np.searchsorted(at_row, at_row)
        closer = n_sel - np.bincount(at_row, minlength=nq)
        drop = at[rank >= k_eff - closer[at_row]]
        row, label = np.delete(row, drop), np.delete(label, drop)
    # every row selects exactly k_eff training rows; count (row, class) pairs
    counts = np.bincount(row * n_classes + label, minlength=nq * n_classes)
    counts = counts.reshape(nq, n_classes)
    preds = np.argmax(counts, axis=1)
    pos_frac = counts[:, 1] / k_eff if n_classes >= 2 else np.zeros(nq)
    return preds, pos_frac


def _band(scale: np.ndarray, m: int) -> np.ndarray:
    """Per query row, how far past its k-th smallest filter value a cell's
    filter value may lie and the cell still be among the k nearest; scale is
    the row's |q|^2 plus the largest |t|^2 of the fold, over the set's m
    columns.

    With u = 2^-53 and gamma(n) = n u / (1 - n u), Higham's dot-product bound
    (Accuracy and Stability of Numerical Algorithms, 3.1) holds for any
    summation order, so for any BLAS kernel: the filter value |t|^2 - 2 q.t
    lies within 2 gamma(m + 1) (|q|^2 + |t|^2) of the true D - |q|^2, and the
    column path's sum of m rounded squares of rounded differences lies within
    gamma(m + 2) D <= 2 gamma(m + 2) (|q|^2 + |t|^2) of the true distance D.
    Each cell's filter value plus |q|^2 is thus within E = 4 gamma(m + 2) *
    scale of its exact sum, and a cell whose exact sum is at most the k-th
    smallest one has a filter value at most the k-th smallest filter value
    plus 2E, and so at most U + 2E for any U at or above that k-th value.
    The band is 2E with gamma(m + 4) in place of gamma(m + 2), which covers
    the rounding of scale and of the threshold, plus 4 (m + 1) of the
    smallest subnormal for products and squares that underflow.
    """
    u = 2.0**-53
    gamma = (m + 4) * u / (1.0 - (m + 4) * u)
    return 8.0 * gamma * scale + 4 * (m + 1) * 2.0**-1074


def _refine_fold(
    features: np.ndarray,
    test: np.ndarray,
    train: np.ndarray,
    set_cols: Sequence[Sequence[int]],
    k: int,
    train_y: np.ndarray,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """k-NN votes of one fold's test rows for each set of feature columns,
    summed in the given order: predictions and class-1 vote fractions, each
    (len(set_cols), test.size). See _fold_votes for the method.

    A row's candidates are the cells whose filter value is at most U plus
    its band, where U, from _kth_bound, is at or above the row's k_eff-th
    smallest filter value. Any such U serves: a cell whose exact sum is at
    most the row's k_eff-th smallest one has a filter value at most that
    k_eff-th filter value plus the band (see _band), so at most U plus the
    band; and the k_eff cells of the smallest filter values lie at or below
    U, so every row has at least k_eff candidates. Each set holds its tiles'
    candidates, as flat cell indices, and votes them in one _refine_step
    per fold, or in more if they would pass _TILE_ELEMENTS cells: the held
    ones are voted before a tile's candidates take them past it."""
    ntr = train.size
    k_eff = min(k, ntr)
    step = _tile_rows(ntr, 1)
    tile = np.empty((min(step, test.size), ntr))  # filter values, one allocation
    preds = np.empty((len(set_cols), test.size), dtype=np.int64)
    pos_frac = np.empty((len(set_cols), test.size), dtype=np.float64)
    for s, cols in enumerate(set_cols):
        # one row per sample, the set's columns in its summation order
        q, t = features[np.ix_(test, cols)], features[np.ix_(train, cols)]
        t_sq = np.einsum("ij,ij->i", t, t)
        scale = np.einsum("ij,ij->i", q, q) + t_sq.max()
        # no filter value or exact sum exceeds 4 * scale in magnitude, so
        # while that is finite none of them is inf or NaN (a NaN scale fails
        # the test too)
        can_filter = (scale < np.finfo(np.float64).max / 4) & (len(cols) > 0)
        width = _band(scale, len(cols))
        q2 = -2.0 * q
        # the candidates of test rows first.., flat indices into the fold's
        # (test, train) grid, one array per tile, and how many they are
        held, n_held, first = [], 0, 0
        for lo in range(0, test.size, step):
            rows = slice(lo, lo + step)
            g = tile[: width[rows].size]
            if can_filter[rows].all():
                np.matmul(q2[rows], t.T, out=g)
                g += t_sq
            else:  # zero filter values: every cell of the tile is a candidate
                g.fill(0.0)
            near = g <= (_kth_bound(g, k_eff) + width[rows])[:, None]
            n_near = np.count_nonzero(near)
            # vote what is held before these candidates would take it past
            # _TILE_ELEMENTS cells
            if held and n_held + n_near > _TILE_ELEMENTS:
                preds[s, first:lo], pos_frac[s, first:lo] = _refine_step(
                    held, first, lo, q, t, k_eff, train_y, n_classes
                )
                n_held, first = 0, lo
            held.append(np.flatnonzero(near) + lo * ntr)
            n_held += n_near
        hi = test.size
        preds[s, first:hi], pos_frac[s, first:hi] = _refine_step(
            held, first, hi, q, t, k_eff, train_y, n_classes
        )
    return preds, pos_frac


def _kth_bound(g: np.ndarray, k_eff: int) -> np.ndarray:
    """Per row of g, (rows, t), an upper bound on its k_eff-th smallest
    value: the k_eff-th smallest minimum of the row's strided blocks, block
    b holding cells b, b + n, b + 2n, ... for n = t // block blocks of block
    = min(_BLOCK, t // k_eff) cells (a remainder of t mod block cells is in
    none). The blocks are disjoint and there are at least k_eff of them, so
    the k_eff smallest minima are k_eff distinct cells at or below the
    bound. With blocks of one cell the bound is the k_eff-th value itself."""
    rows, t = g.shape
    block = min(_BLOCK, t // k_eff)
    n = t // block
    mins = np.minimum.reduce(g[:, : block * n].reshape(rows, block, n), axis=1)
    return np.partition(mins, k_eff - 1, axis=1)[:, k_eff - 1]


def _refine_step(
    held: list[np.ndarray],
    lo: int,
    hi: int,
    q: np.ndarray,
    t: np.ndarray,
    k_eff: int,
    train_y: np.ndarray,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vote the query rows lo..hi of q from their candidate cells: held's
    arrays, in order, hold flat indices into the (len(q), len(t)) grid,
    ascending. The step empties held. The exact sums of each row's
    candidates go to _vote."""
    cells = held[0] if len(held) == 1 else np.concatenate(held)
    held.clear()
    row, col = np.divmod(cells, t.shape[0])
    del cells
    m = q.shape[1]
    # each candidate's q - t squares, summed from the first column on in one
    # sequential cumsum: the bits of the column path's adds. Chunked so each
    # (candidates, m) block holds at most _TILE_ELEMENTS // 4 cells; a set
    # without columns sums to zero
    dist = np.zeros(row.size)
    if m:
        chunk = max(1, _TILE_ELEMENTS // (4 * m))
        for c in range(0, row.size, chunk):
            sq = q[row[c : c + chunk]]
            sq -= t[col[c : c + chunk]]
            sq *= sq
            dist[c : c + chunk] = np.cumsum(sq, axis=1)[:, -1]
    # each row's k-th smallest exact sum; every row has at least k_eff
    # candidates (see _refine_fold)
    row -= lo
    n_cand = np.bincount(row, minlength=hi - lo)
    kth = dist[np.lexsort((dist, row))[np.cumsum(n_cand) - n_cand + (k_eff - 1)]]
    hit = np.flatnonzero(dist <= kth[row])
    # the hits replace the candidates: an all-candidate step holds what _knn_from_d2 does
    row, label = row[hit], train_y[col[hit]]
    del col
    return _vote(row, label, dist, hit, kth, k_eff, n_classes)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-validated k-NN votes of base plus each extra set of columns:
    out-of-fold predictions and class-1 vote fractions, each (len(extra_sets),
    n), and per-fold accuracies, (len(extra_sets), n_folds).

    Every distance that decides a vote is the float64 sum that _sq_distances
    forms over base + sorted(extra): each column's rounded difference,
    squared, added from zero in that order, so the order of an extra set
    changes no bit. Neighbors rank by (distance, training row), through
    _vote. Two paths reach these votes, and one rule picks one per pass: if
    every training fold holds at least _REFINE_MIN_TRAIN rows the pass
    filters and refines, otherwise it takes the column path. Both give the
    same votes, bit for bit, so the choice changes no report byte.

    Column path. Each fold gathers from ds.features only the columns the pass
    reads, base and the extra sets' union, one feature per row, and votes its
    test rows in tiles of _tile_rows(train.size, len(extra_sets)). Each extra
    set has a tile buffer, and the buffers lie back to back, (len(extra_sets),
    rows, train). Per tile, base's squared distances are summed in the given
    order into the first set's buffer, its first column formed there in place
    (an empty base leaves zeros), and this prefix is copied into every other
    set's. Then each column of the extra sets' union, in ascending order,
    forms its squared differences once and adds them to every set that holds
    it; an empty extra set keeps the prefix. So every voted matrix is a row
    block of _sq_distances' sum. The sets are voted in chunks of max(1,
    _TILE_ELEMENTS // tile.size), one _knn_from_d2 call per chunk on its (sets
    * rows, train) rows; a vote reads its own row only, so neither the tile
    height nor chunking changes a vote. Correct votes are counted per chunk
    and divided once by the fold's test size.

    Filter-and-refine path, the multi-step k-NN search of Seidl and Kriegel
    (SIGMOD 1998). Per fold and set, the set's columns are gathered, and each
    tile of _tile_rows(train.size, 1) test rows makes one matrix product,
    |t|^2 - 2 q.t, a filter that orders a row's cells as the squared
    distance does, up to rounding. _band bounds that rounding, and the
    exact sum's, for any BLAS kernel and thread count. Each row keeps the
    cells whose filter value lies within the band of an upper bound U on
    its k-th smallest filter value: for any such U, a superset of the cells
    at or below its k-th exact distance. U is the k-th smallest of the
    minima of the row's strided blocks of _BLOCK cells (fewer when the row
    is short), so only the block minima are partitioned. A set's tiles hold
    their candidates until one step per fold gives them exact sums, formed
    as the column path forms them, and votes them through _vote; a step
    runs early if the held candidates would pass _TILE_ELEMENTS. A tile with
    a row the filter cannot rank, whose scale is not below float max / 4,
    and a set without columns take zero filter values instead, so every
    cell of the tile is a candidate.

    Memory: on the column path, the 1 + len(extra_sets) tile buffers, a
    scratch one and the sets', share one allocation of at most
    max(_PASS_ELEMENTS, (1 + len(extra_sets)) * _MIN_TILE_ROWS * train)
    float64 cells, so they grow with the number of sets only once the row
    floor binds. Beside them a pass holds one fold's gather of the columns it
    reads, one k-NN chunk's working copies, and the outputs, which grow with
    sets * n. The refine path holds one tile buffer of at most
    _TILE_ELEMENTS cells, whatever the number of sets; beside it one set's
    gathers, at most _TILE_ELEMENTS held candidates (or one tile's, when a
    one-row tile has more cells), one step's exact sums of them (formed
    in blocks of _TILE_ELEMENTS // 4 cells) and working copies the size of
    one _knn_from_d2 call's, and the outputs. Nothing grows with n squared.
    """
    pairs = [(folds.test_indices(f), folds.train_indices(f)) for f in range(folds.n_folds)]
    n_sets = len(extra_sets)
    preds = np.empty((n_sets, ds.n), dtype=np.int64)
    pos_frac = np.empty((n_sets, ds.n), dtype=np.float64)
    fold_acc = np.empty((n_sets, folds.n_folds), dtype=np.float64)
    if min(train.size for _, train in pairs) >= _REFINE_MIN_TRAIN:
        set_cols = [[*map(int, base), *sorted(map(int, extra))] for extra in extra_sets]
        for f, (test, train) in enumerate(pairs):
            labels = ds.labels[train]
            p, frac = _refine_fold(ds.features, test, train, set_cols, k, labels, ds.n_classes)
            preds[:, test], pos_frac[:, test] = p, frac
            fold_acc[:, f] = (p == ds.labels[test]).sum(axis=1) / test.size
        return preds, pos_frac, fold_acc
    # a fold gathers only the columns the pass reads, ascending, so a column
    # is read from its rank there; ranks keep base's given order and the
    # extra sets' ascending one
    used = sorted(set(map(int, base)).union(*(map(int, extra) for extra in extra_sets)))
    rank = {j: i for i, j in enumerate(used)}
    used = np.array(used, dtype=np.intp)
    base = [rank[int(j)] for j in base]
    # each column of the extra sets' union, ascending, with the sets holding it
    holders: dict[int, list[int]] = {}
    for s, extra in enumerate(extra_sets):
        for j in extra:
            holders.setdefault(rank[int(j)], []).append(s)
    columns = sorted(holders.items())
    steps = [_tile_rows(train.size, n_sets) for _, train in pairs]
    # one allocation for the whole pass: buffers of slightly different
    # shapes, allocated and freed tile by tile, fragment the heap and raise
    # peak memory from one run to the next
    size = max(min(step, test.size) * train.size for step, (test, train) in zip(steps, pairs))
    flat = np.empty((1 + n_sets) * size)
    # each tile shape's views, add lists and vote chunks, built on first use;
    # keyed by shape, since tiles of equal cells may differ in shape
    plans: dict[tuple[int, int], tuple] = {}
    for f, ((test, train), step) in enumerate(zip(pairs, steps)):
        test_x, train_x = ds.features.T[used[:, None], test], ds.features.T[used[:, None], train]
        train_y = ds.labels[train]
        hits = np.zeros(n_sets, dtype=np.int64)
        for lo in range(0, test.size, step):
            rows = test[lo : lo + step]
            shape = (rows.size, train.size)
            if shape not in plans:
                cells = rows.size * train.size
                tiles = flat[: (1 + n_sets) * cells].reshape(1 + n_sets, *shape)
                scratch, d2s = tiles[0], tiles[1:]
                # the first set's buffer, none when there are no sets, takes the prefix
                first = d2s[:1]
                views = list(d2s)  # one view per set, not one per (column, holder)
                base_adds = [(j, first) for j in base[1:]]
                adds = [(j, [views[s] for s in held]) for j, held in columns]
                chunk = max(1, _TILE_ELEMENTS // cells)
                sets = [slice(lo_set, lo_set + chunk) for lo_set in range(0, n_sets, chunk)]
                chunks = [(sl, d2s[sl].reshape(-1, train.size)) for sl in sets]
                plans[shape] = (scratch, d2s, first, base_adds, adds, chunks)
            scratch, d2s, first, base_adds, adds, chunks = plans[shape]
            queries = test_x[:, lo : lo + step]
            # 0.0 + x == x for every square, so forming base's first column
            # in place gives the bits of adding it to zeros
            if len(base):
                _form_sq_distances(queries, train_x, base[0], first)
            else:
                first.fill(0.0)
            _add_sq_distances(queries, train_x, base_adds, scratch)
            d2s[1:] = first
            _add_sq_distances(queries, train_x, adds, scratch)
            test_y = ds.labels[rows]
            for sets, block in chunks:
                p, frac = _knn_from_d2(block, train_y, k, ds.n_classes)
                p = p.reshape(-1, rows.size)
                preds[sets, rows], pos_frac[sets, rows] = p, frac.reshape(p.shape)
                hits[sets] += (p == test_y).sum(axis=1)
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

    Distances sum base's columns in the given order, then each extra set's
    columns in ascending order, so the order of an extra set changes no bit;
    cv_accuracy(ds, [*base, *sorted(extra)], ...) gives the same accuracy.
    When every training fold holds at least 512 rows, the pass ranks cells
    by a BLAS matrix product and sums only the candidates within its proven
    error band exactly; otherwise it sums every cell column by column (see
    _fold_votes). Votes are taken on the exact sums either way, so no metric
    depends on the BLAS kernel or its thread count.

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
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a tie group's 1-based average rank: its last rank minus half its width
    # less one, a half-integer and so exact
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
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


def _column_codes(features: np.ndarray, columns: Sequence[int], n_bins: int) -> np.ndarray:
    """equal_width_bins codes of the given columns, one row per column, each
    written straight into the result."""
    rows = (equal_width_bins(features[:, j], n_bins) for j in columns)
    return np.fromiter(rows, dtype=(np.int64, features.shape[0]), count=len(columns))


def _mi_from_codes(codes_a: np.ndarray, codes_b: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Plug-in MI in nats of each row of codes_a, (m, n) in 0..n_a-1, against
    codes_b, (n,) in 0..n_b-1, one bincount per block of max(1, _TILE_ELEMENTS
    // max(n, n_a * n_b)) rows. Each row has the bits of the one-pair formula:
    counts / n is joint / joint.sum(), the marginals are the same axis sums of
    an (n_a, n_b) table, and the nonzero terms are summed as one run per row."""
    (m, n), cells = codes_a.shape, n_a * n_b
    step = max(1, _TILE_ELEMENTS // max(n, cells))
    mi = np.empty(m)
    for lo in range(0, m, step):
        block = codes_a[lo : lo + step] * n_b
        block += codes_b
        block += np.arange(0, len(block) * cells, cells)[:, None]
        p = np.bincount(block.ravel(), minlength=len(block) * cells).reshape(-1, n_a, n_b) / n
        nz = p > 0.0
        outer = p.sum(axis=2)[:, :, None] * p.sum(axis=1)[:, None, :]
        terms = p[nz] * np.log(p[nz] / outer[nz])
        runs = np.split(terms, np.cumsum(nz.sum(axis=(1, 2)))[:-1])
        mi[lo : lo + step] = [run.sum() for run in runs]
    return np.maximum(mi, 0.0)


def mutual_information(a: np.ndarray, b: np.ndarray, n_bins: int = 10) -> float:
    """Plug-in mutual information of two columns after equal-width binning.

    Natural log, so the result is in nats; empty joint cells contribute 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be non-empty vectors of equal length")
    codes_a, codes_b = equal_width_bins(a, n_bins), equal_width_bins(b, n_bins)
    return float(_mi_from_codes(codes_a[None], codes_b, n_bins, n_bins)[0])
