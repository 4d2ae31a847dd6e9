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
# and a small tile votes many sets per call instead of paying dispatch per set.
# The refine path's float32 filter tiles take twice the rows in the same bytes
_TILE_ELEMENTS = 32 * 1600
# distance cells a column fold's 1 + sets tile buffers share (2 MB, one core's L2):
# tiles get thinner as a pass votes more sets, so its memory stops growing
# with the population size
_PASS_ELEMENTS = 5 * _TILE_ELEMENTS
# the thinnest tile the pass budget may ask for: thinner tiles pay more
# Python and ufunc dispatch per distance than the memory they save
_MIN_TILE_ROWS = 16
# a fold whose training side holds at least this many rows votes through
# the filter-and-refine path (see _fold_votes). Per pass, on one core: at
# 512-1600 training rows, the refine path beats the column adds 1.2x (30
# sets of 31 columns at 512 rows) to 9.3x (one set of 31 columns at 1600
# rows) (BENCH_22.json); at 48-320 rows its per-set, per-tile dispatch cost
# up to 11x more than the adds it saves (BENCH_18.json, float64 filter)
_REFINE_MIN_TRAIN = 512
# cells per block of the refine filter's k-th value bound (see _kth_bound):
# one minimum per block is partitioned instead of every cell. Per pass on
# one core, over 512-1600 training rows, blocks of 8 and 16 made the refine
# path 1.31x and 1.30x faster (geometric mean) and 32 1.18x; 16 was the
# fastest at 1600 rows (BENCH_20.json, float64 filter)
_BLOCK = 16
# a refine row is ranked by the float32 filter only while its scale, |q|^2 +
# max |t|^2, lies below this: then no filter operand, partial sum or
# threshold leaves float32 range (see _band)
_FILTER_MAX = float(np.finfo(np.float32).max) / 4


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
    scratch = np.empty_like(out)
    for j in range(queries.shape[1]):
        _form_sq_distances(queries.T, train.T, j, scratch)
        out += scratch
    return out


def _form_sq_distances(queries: np.ndarray, train: np.ndarray, j: int, out: np.ndarray) -> None:
    """Write column j's squared query-train differences into out, whose
    last two axes are (n_queries, n_train); queries (d, n_queries) and train
    (d, n_train) hold one feature per row."""
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


def _column_fold(
    test_x: np.ndarray,
    train_x: np.ndarray,
    base: Sequence[int],
    extras: Sequence[Sequence[int]],
    k: int,
    train_y: np.ndarray,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """k-NN votes of one fold's test rows for base plus each extra set of
    feature columns, summing every cell column by column: predictions and
    class-1 vote fractions, each (len(extras), test rows). test_x and
    train_x hold one feature per row, and each extra set's rows are
    ascending; a set sums base's rows of them in the given order, then its
    extra rows.

    The test rows go through in tiles of _tile_rows(train rows,
    len(extras)). Each extra set has a tile buffer, and the buffers lie back
    to back, (len(extras), rows, train). Per tile, base's squared distances
    are summed in the given order into the first set's buffer, its first
    column formed there in place (an empty base leaves zeros), and this
    prefix is copied into every other set's. Then each column of the extra
    sets' union, in ascending order, forms its squared differences once and
    adds them to every set that holds it; an empty extra set keeps the
    prefix. So every voted matrix is a row block of _sq_distances' sum over
    base + extra. The sets are voted in chunks of max(1, _TILE_ELEMENTS //
    tile.size), one _knn_from_d2 call per chunk on its (sets * rows, train)
    rows; a vote reads its own row only, so neither the tile height nor
    chunking changes a vote.

    Memory: the 1 + len(extras) tile buffers, a scratch one and the sets',
    share one allocation per fold of at most max(_PASS_ELEMENTS, (1 +
    len(extras)) * _MIN_TILE_ROWS * train) float64 cells, so they grow with
    the number of sets only once the row floor binds. Beside them the kernel
    holds one k-NN chunk's working copies and its outputs.
    """
    (_, nq), ntr = test_x.shape, train_x.shape[1]
    n_sets = len(extras)
    step = _tile_rows(ntr, n_sets)
    # each column of the extra sets' union, ascending, with the sets holding it
    holders: dict[int, list[int]] = {}
    for s, extra in enumerate(extras):
        for j in extra:
            holders.setdefault(j, []).append(s)
    columns = sorted(holders.items())
    preds = np.empty((n_sets, nq), dtype=np.int64)
    pos_frac = np.empty((n_sets, nq), dtype=np.float64)
    # one allocation, so a short last tile's buffers also lie back to back
    block = np.empty((1 + n_sets) * min(step, nq) * ntr)
    for lo in range(0, nq, step):
        queries = test_x[:, lo : lo + step]
        rows = queries.shape[1]
        tiles = block[: (1 + n_sets) * rows * ntr].reshape(1 + n_sets, rows, ntr)
        scratch, d2s = tiles[0], tiles[1:]
        views = list(d2s)  # a list's item costs less than an array's
        # the first set's buffer, none when there are no sets, takes the prefix;
        # 0.0 + x == x for every square, so forming base's first column in
        # place gives the bits of adding it to zeros
        first = d2s[:1]
        if len(base):
            _form_sq_distances(queries, train_x, base[0], first)
        else:
            first.fill(0.0)
        for j in base[1:]:
            _form_sq_distances(queries, train_x, j, scratch)
            first += scratch
        d2s[1:] = first
        for j, held in columns:
            _form_sq_distances(queries, train_x, j, scratch)
            for s in held:
                views[s] += scratch
        chunk = max(1, _TILE_ELEMENTS // scratch.size)
        for a in range(0, n_sets, chunk):
            p, frac = _knn_from_d2(d2s[a : a + chunk].reshape(-1, ntr), train_y, k, n_classes)
            preds[a : a + chunk, lo : lo + rows] = p.reshape(-1, rows)
            pos_frac[a : a + chunk, lo : lo + rows] = frac.reshape(-1, rows)
    return preds, pos_frac


def _band(scale: np.ndarray, m: int) -> np.ndarray:
    """Per query row, how far past its k-th smallest filter value a cell's
    filter value may lie and the cell still be among the k nearest; scale is
    the row's |q|^2 plus the largest |t|^2 of the fold, over the set's m
    columns.

    The filter value is the float32 dot product [-2q, 1] . [t, |t|^2] of
    the float32-rounded operands (see _filter_operands). With u = 2^-24,
    lam = 2^-149 (the smallest float32 subnormal) and gamma(n) = n u / (1 -
    n u), and X = |q|^2 + |t|^2 <= scale (up to float64 rounding):
    - rounding the operands moves each by at most u of itself plus lam / 2,
      so, with 2|q_j t_j| <= q_j^2 + t_j^2 and |x| <= (1 + x^2) / 2 for the
      underflow terms, their exact dot product lies within about 3u X + m lam
      of the true |t|^2 - 2 q.t = D - |q|^2, D the exact squared distance;
    - Higham's dot-product bound (Accuracy and Stability of Numerical
      Algorithms, 3.1), which holds for any summation order, with or without
      fused multiply-adds, and so for any BLAS kernel and thread count, puts
      the float32 result within gamma(m + 1) of the operands' absolute
      products, at most 2X, plus lam / 2 per product that underflows;
    - the column path's float64 sum of m rounded squares of rounded
      differences lies within gamma_64(m + 2) D <= 2 gamma_64(m + 2) X of D.
    Together, for m below 2^20, each cell's filter value plus |q|^2 lies
    within E = 2 gamma(m + 4) scale + 2 (m + 1) lam of its exact sum. A cell
    whose exact sum is at most the k-th smallest one then has a filter value
    at most the k-th smallest filter value plus 2E, and so at most U + 2E
    for any U at or above that k-th value. The band is 2E with gamma(m + 5)
    in place of gamma(m + 4), which covers the rounding of the band and of
    U plus the band in float64.
    """
    u = 2.0**-24
    gamma = (m + 5) * u / (1.0 - (m + 5) * u)
    return 4.0 * gamma * scale + 4 * (m + 1) * 2.0**-149


def _filter_operands(
    q: np.ndarray, t: np.ndarray, rows: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float32 operands of the refine filter for the set of columns held
    in the given rows of q (features, queries) and t (features, train), in
    that order: [-2q, 1], (queries, m + 1), and [t, |t|^2] transposed, (m +
    1, train), whose product's cell (i, j) is query i's filter value for
    training row j; and each query's float64 scale, |q|^2 + max |t|^2.
    Values past float32 range become inf, and squares past float64 range
    inf, without a warning; a row whose scale is not below _FILTER_MAX is
    never ranked."""
    m = len(rows)
    lhs = np.empty((q.shape[1], m + 1), dtype=np.float32)
    rhs = np.empty((m + 1, t.shape[1]), dtype=np.float32)
    q_sq, t_sq = np.zeros(q.shape[1]), np.zeros(t.shape[1])
    # the set's columns are copied a block at a time, each of at most
    # _TILE_ELEMENTS // 4 float64 cells, not all at once beside the fold's
    n_cols = max(1, _TILE_ELEMENTS // (4 * (q.shape[1] + t.shape[1])))
    with np.errstate(over="ignore"):
        for c in range(0, m, n_cols):
            block = rows[c : c + n_cols]
            q_block, t_block = q[block], t[block]
            np.multiply(q_block.T, -2.0, out=lhs[:, c : c + len(block)])
            rhs[c : c + len(block)] = t_block
            q_sq += np.einsum("ij,ij->j", q_block, q_block)
            t_sq += np.einsum("ij,ij->j", t_block, t_block)
        rhs[m] = t_sq
    lhs[:, m] = 1.0
    return lhs, rhs, q_sq + t_sq.max()


def _round_up32(x: np.ndarray) -> np.ndarray:
    """The least float32 at or above each float64 of x, all below the float32
    maximum: for a float32 g, g <= x exactly when g <= _round_up32(x)."""
    y = x.astype(np.float32)
    return np.where(y < x, np.nextafter(y, np.float32(np.inf)), y)


def _refine_fold(
    test_x: np.ndarray,
    train_x: np.ndarray,
    base: Sequence[int],
    extras: Sequence[Sequence[int]],
    k: int,
    train_y: np.ndarray,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """k-NN votes of one fold's test rows for base plus each extra set of
    feature columns, by the multi-step k-NN search of Seidl and Kriegel
    (SIGMOD 1998): predictions and class-1 vote fractions, each
    (len(extras), test rows). The arguments are _column_fold's, and a set
    sums the rows [*base, *extra] of test_x and train_x in that order.

    The filter is float32: per set, each tile of max(1, 2 * _TILE_ELEMENTS
    // train rows) test rows makes one float32 matrix product of the set's
    _filter_operands, [-2q, 1] . [t, |t|^2] of float32-rounded operands, a
    filter |t|^2 - 2 q.t that orders a row's cells as the squared distance
    does, up to rounding: twice the rows of a float64 tile in the same
    bytes. _band bounds that rounding, the operands' own and the exact
    sum's, for any BLAS kernel and thread count. A row's candidates are the
    cells whose filter value is at most U plus its band, where U, from
    _kth_bound, is at or above the row's k_eff-th smallest filter value. Any
    such U serves: a cell whose exact sum is at most the row's k_eff-th
    smallest one has a filter value at most that k_eff-th filter value plus
    the band (see _band), so at most U plus the band; and the k_eff cells of
    the smallest filter values lie at or below U, so every row has at least
    k_eff candidates. A tile with a row the filter cannot rank, whose scale
    is not below _FILTER_MAX, a quarter of the float32 maximum, makes every
    cell of the tile a candidate; a set without columns has zero filter
    values, and so every cell a candidate too. Each set holds its tiles'
    candidates, as flat cell indices, and votes them in one float64
    _refine_step per fold, or in more if the step's block of rows by its
    widest row would pass _TILE_ELEMENTS cells: the held ones are voted
    before a tile's candidates take the block past it, and a tile too wide
    for one step is held in slices of rows.

    Memory: one float32 tile of at most 2 * _TILE_ELEMENTS filter values,
    allocated once per fold whatever the number of sets; beside it one
    set's float32 filter operands (copied in blocks of at most
    _TILE_ELEMENTS // 4 float64 cells), the held candidates, one step's
    exact sums of its candidates and its padded block of at most
    _TILE_ELEMENTS cells (or one row's, when a row has more candidates),
    working copies the size of one _knn_from_d2 call's, and the outputs."""
    (_, nq), ntr = test_x.shape, train_x.shape[1]
    k_eff = min(k, ntr)
    step = max(1, 2 * _TILE_ELEMENTS // ntr)
    tile = np.empty((min(step, nq), ntr), dtype=np.float32)  # filter values, one allocation
    preds = np.empty((len(extras), nq), dtype=np.int64)
    pos_frac = np.empty((len(extras), nq), dtype=np.float64)
    for s, extra in enumerate(extras):
        rows = [*base, *extra]
        lhs, rhs, scale = _filter_operands(test_x, train_x, rows)
        # below a quarter of the float32 maximum no operand, partial sum or
        # threshold of the filter leaves float32 range (a NaN scale fails the
        # test too); a set without columns has zero filter values
        can_filter = scale < _FILTER_MAX
        width = _band(scale, len(rows))
        # the exact sums read the set's columns where the fold holds them
        q, t = [test_x[j] for j in rows], [train_x[j] for j in rows]
        # the candidates of test rows first.., flat indices into the fold's
        # (test, train) grid, one array per slice, and the widest row's count
        held, first, widest = [], 0, 0
        for lo in range(0, nq, step):
            g = tile[: nq - lo]
            hi = lo + len(g)
            if can_filter[lo:hi].all():
                np.matmul(lhs[lo:hi], rhs, out=g)
                near = g <= _round_up32(_kth_bound(g, k_eff) + width[lo:hi])[:, None]
            else:  # every cell of the tile is a candidate
                near = np.ones(g.shape, dtype=bool)
            # the widest row's candidates, counted from near's bytes; the
            # tile is held in slices of rows narrow enough for one step
            wide = int(near.view(np.uint8).sum(axis=1, dtype=np.uint32).max())
            n_rows = max(1, _TILE_ELEMENTS // wide)
            for a in range(lo, hi, n_rows):
                b = min(a + n_rows, hi)
                # vote what is held before these rows would take the step's
                # block past _TILE_ELEMENTS cells
                if held and (b - first) * max(widest, wide) > _TILE_ELEMENTS:
                    preds[s, first:a], pos_frac[s, first:a] = _refine_step(
                        held, first, a, q, t, k_eff, train_y, n_classes
                    )
                    first, widest = a, 0
                held.append(np.flatnonzero(near[a - lo : b - lo]) + a * ntr)
                widest = max(widest, wide)
        preds[s, first:], pos_frac[s, first:] = _refine_step(
            held, first, nq, q, t, k_eff, train_y, n_classes
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


def _kth_smallest(dist: np.ndarray, row: np.ndarray, n_rows: int, k_eff: int) -> np.ndarray:
    """Each of n_rows rows' k_eff-th smallest value of dist, whose i-th value
    lies in row row[i]; row is ascending and every row holds at least k_eff
    values. One partition of a (n_rows, widest row) block padded with +inf,
    which sorts no row's values past its k_eff-th."""
    n_vals = np.bincount(row, minlength=n_rows)
    block = np.full((n_rows, n_vals.max()), np.inf)
    # a mask fills in row-major order: each row's values, in order, first
    block[np.arange(block.shape[1]) < n_vals[:, None]] = dist
    block.partition(k_eff - 1, axis=1)
    return block[:, k_eff - 1].copy()


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
    """Vote the query rows lo..hi from their candidate cells: held's arrays,
    in order, hold flat indices into the (query, train_y.size) grid,
    ascending, and q and t hold the set's columns in its summation order,
    one array of query or training rows per column. The step empties held.
    The candidates' exact float64 sums go to _vote."""
    cells = held[0] if len(held) == 1 else np.concatenate(held)
    held.clear()
    row, col = np.divmod(cells, train_y.size)
    del cells
    # each candidate's q - t squares, added from the first column on, one
    # column at a time: the bits of the column path's adds. A set without
    # columns at all sums to zero; 0.0 + x == x for every square
    dist, sq = np.zeros(row.size), np.empty(row.size)
    for q_j, t_j in zip(q, t):
        np.take(q_j, row, out=sq)
        sq -= t_j.take(col)
        sq *= sq
        dist += sq
    del sq
    # every row has at least k_eff candidates (see _refine_fold)
    row -= lo
    kth = _kth_smallest(dist, row, hi - lo, k_eff)
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
    _vote. Each fold gathers from ds.features only the columns the pass
    reads, base and the extra sets' union, one feature per row, and votes
    its test rows against its training rows through one of two kernels
    with the same arguments and results. The fold's own training rows pick
    it: at least _REFINE_MIN_TRAIN of them take _refine_fold, fewer take
    _column_fold, so one pass may run both. Both give the same votes, bit
    for bit, so the choice changes no report byte.

    Memory: beside one fold's gather of its test and training columns, a
    pass holds what that fold's kernel allocates, its tile buffers among it
    (see each kernel), and the outputs, which grow with sets * n.
    Nothing grows with n squared.
    """
    n_sets = len(extra_sets)
    preds = np.empty((n_sets, ds.n), dtype=np.int64)
    pos_frac = np.empty((n_sets, ds.n), dtype=np.float64)
    fold_acc = np.empty((n_sets, folds.n_folds), dtype=np.float64)
    # a fold gathers only the columns the pass reads, ascending, so a column
    # is read from its rank there; ranks keep base's given order and the
    # extra sets' ascending one
    used = sorted(set(map(int, base)).union(*(map(int, extra) for extra in extra_sets)))
    rank = {j: i for i, j in enumerate(used)}
    used = np.array(used, dtype=np.intp)
    base = [rank[int(j)] for j in base]
    extras = [sorted(rank[int(j)] for j in extra) for extra in extra_sets]
    for f in range(folds.n_folds):
        test, train = folds.test_indices(f), folds.train_indices(f)
        # a row gather, then one column gather per side: far faster than
        # one two-axis gather. The row gather is dropped before the kernel
        # runs: held through the pass, it raised the peak by its own bytes,
        # and spambase-shaped refine passes ran slower
        x = ds.features.T[used]
        test_x, train_x = x[:, test], x[:, train]
        del x
        kernel = _refine_fold if train.size >= _REFINE_MIN_TRAIN else _column_fold
        p, frac = kernel(test_x, train_x, base, extras, k, ds.labels[train], ds.n_classes)
        preds[:, test], pos_frac[:, test] = p, frac
        fold_acc[:, f] = (p == ds.labels[test]).sum(axis=1) / test.size
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

    The order of an extra set changes no bit, and cv_accuracy(ds, [*base,
    *sorted(extra)], ...) gives the same accuracy. No metric depends on
    the k-NN path or the BLAS kernel; _fold_votes gives the votes and owns
    their summation order and the choice of path.

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
