import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hefs.metrics
from hefs import (
    FoldAssignment,
    MetricsReport,
    cv_accuracy,
    full_metrics,
    mutual_information,
    stratified_kfold,
    synth_xor_dataset,
    zscore_normalize,
)
from hefs.metrics import (
    _fold_votes,
    _knn_from_d2,
    _mi_from_codes,
    _rank_auc,
    _sq_distances,
    equal_width_bins,
)
from conftest import (
    force_tile_rows,
    kth_oracle,
    make_dataset,
    mi_oracle,
    pass_rows,
    record_votes,
    tie_heavy_datasets,
)


# --- reference implementations used as oracles ------------------------------


def oracle_votes(d2, train_y, k, n_classes):
    """Per row of a distance matrix: neighbors sorted by (distance, column),
    the first k vote, and a vote tie goes to the lowest class id. Returns
    (preds, class-1 shares)."""
    k_eff = min(k, d2.shape[1])
    preds, shares = [], []
    for row in d2.tolist():
        order = sorted(range(len(row)), key=lambda c: (row[c], c))[:k_eff]
        counts = [0] * n_classes
        for c in order:
            counts[int(train_y[c])] += 1
        preds.append(max(range(n_classes), key=lambda c: (counts[c], -c)))
        shares.append(counts[1] / k_eff if n_classes >= 2 else 0.0)
    return preds, shares


def oracle_knn(train_x, train_y, query, k, n_classes):
    """Slow nearest-neighbor vote with the documented tie rules.

    Distances accumulate per column in the same order as production code so
    exact ties agree, then oracle_votes votes them. Returns (prediction,
    class-1 share).
    """
    d2 = []
    for row in train_x:
        acc = 0.0
        for a, b in zip(query, row):
            diff = float(a) - float(b)
            acc += diff * diff
        d2.append(acc)
    [pred], [share] = oracle_votes(np.array([d2]), train_y, k, n_classes)
    return pred, share


def oracle_fold_scores(ds, cols, folds, k):
    preds = np.empty(ds.n, dtype=np.int64)
    shares = np.empty(ds.n, dtype=np.float64)
    fold_acc = []
    for f in range(folds.n_folds):
        test, train = folds.test_indices(f), folds.train_indices(f)
        hits = 0
        for t in test:
            p, s = oracle_knn(
                ds.features[np.ix_(train, cols)],
                ds.labels[train],
                ds.features[t, cols],
                k,
                ds.n_classes,
            )
            preds[t], shares[t] = p, s
            hits += p == ds.labels[t]
        fold_acc.append(hits / test.size)
    return preds, shares, float(np.mean(fold_acc))


# --- MetricsReport -----------------------------------------------------------


def test_metrics_report_accepts_optional_fields():
    m = MetricsReport(accuracy=0.5)
    assert (m.auc, m.precision, m.recall) == (None, None, None)


@pytest.mark.parametrize("bad", [-0.1, 1.2, float("nan"), float("inf")])
def test_metrics_report_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        MetricsReport(accuracy=bad)
    with pytest.raises(ValueError):
        MetricsReport(accuracy=0.5, auc=bad)


# --- k-NN prediction ----------------------------------------------------------


def knn_predict(train, labels, query, k, n_classes=None):
    """The production vote for one query row."""
    train = np.asarray(train, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    preds, _ = _knn_from_d2(_sq_distances(query, train), labels, k, n_classes)
    return int(preds[0])


def test_knn_predict_plain_nearest():
    train = np.array([[0.0], [1.0], [2.0]])
    assert knn_predict(train, [0, 1, 1], [0.9], k=1) == 1
    assert knn_predict(train, [0, 1, 1], [0.1], k=1) == 0
    assert knn_predict(train, [0, 1, 1], [0.9], k=3) == 1


def test_knn_distance_tie_goes_to_lowest_training_index():
    # all rows identical: the single neighbor slot is training row 0
    train = np.zeros((3, 2))
    assert knn_predict(train, [2, 0, 1], [0.0, 0.0], k=1) == 2


def test_knn_vote_tie_goes_to_lowest_class():
    train = np.zeros((2, 1))
    assert knn_predict(train, [1, 0], [0.0], k=2) == 0
    assert knn_predict(train, [0, 1], [0.0], k=2) == 0


def test_knn_uses_all_rows_when_k_exceeds_them():
    train = np.array([[0.0], [5.0], [6.0]])
    assert knn_predict(train, [1, 1, 0], [100.0], k=99) == 1


def test_knn_matches_oracle_on_tie_heavy_data():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n_classes = int(rng.integers(2, 4))
        train = rng.integers(0, 3, size=(12, 3)).astype(float)
        labels = rng.integers(0, n_classes, size=12)
        labels[:n_classes] = np.arange(n_classes)  # every class occurs
        query = rng.integers(0, 3, size=3).astype(float)
        for k in (1, 2, 3, 7, 20):
            got = knn_predict(train, labels, query, k, n_classes=n_classes)
            want, _ = oracle_knn(train, labels, query, k, n_classes)
            assert got == want, (trial, k)


def test_knn_scale_invariance_on_exact_values():
    # integer coordinates scaled by 2.5 keep every distance comparison exact
    rng = np.random.default_rng(1)
    train = rng.integers(0, 5, size=(20, 4)).astype(float)
    labels = rng.integers(0, 2, size=20)
    labels[:2] = [0, 1]
    for _ in range(50):
        query = rng.integers(0, 5, size=4).astype(float)
        assert knn_predict(train, labels, query, 5) == knn_predict(
            2.5 * train, labels, 2.5 * query, 5
        )


@st.composite
def vote_matrices(draw):
    """(d2, train_y, k, n_classes): integer-valued rows of three kinds in one
    matrix, tied at small levels, tied across the whole row, or all distinct;
    2-4 classes and k from 1 to past the training rows."""
    n_train = draw(st.integers(1, 12))
    n_classes = draw(st.integers(2, 4))
    kinds = st.lists(st.sampled_from(["levels", "whole", "distinct"]), min_size=1, max_size=8)
    rows = []
    for kind in draw(kinds):
        if kind == "levels":
            top = draw(st.integers(1, 3))
            rows.append(draw(st.lists(st.integers(0, top), min_size=n_train, max_size=n_train)))
        elif kind == "whole":
            rows.append([draw(st.integers(0, 5))] * n_train)
        else:
            rows.append(draw(st.permutations(range(n_train))))
    train_y = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_train, max_size=n_train))
    k = draw(st.integers(1, n_train + 3))
    return np.array(rows, dtype=np.float64), np.array(train_y), k, n_classes


@settings(max_examples=300, deadline=None)
@given(case=vote_matrices())
def test_knn_from_d2_matches_per_row_sort(case):
    # tied and untied rows share one call, so a tie-break that leaks from one
    # row into another would show
    d2, train_y, k, n_classes = case
    preds, pos_frac = _knn_from_d2(d2, train_y, k, n_classes)
    want_preds, want_shares = oracle_votes(d2, train_y, k, n_classes)
    assert preds.tolist() == want_preds
    assert pos_frac.tolist() == want_shares


# --- squared distances -----------------------------------------------------------


def oracle_sq_distances(queries, train):
    """Squared distances from zeros, one column at a time, with numpy's own
    broadcast subtract: independent of the production column kernel."""
    acc = np.zeros((queries.shape[0], train.shape[0]))
    for j in range(queries.shape[1]):
        d = queries[:, None, j] - train[None, :, j]
        acc = acc + d * d
    return acc


@st.composite
def distance_inputs(draw):
    """(queries, train) over a small pool of values, so rows and cells repeat:
    signed zeros, inexact scales, and magnitudes from 1e-150 to 1e150."""
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    value = st.builds(
        lambda sign, m, e: sign * m * scale * 10.0**e,
        st.sampled_from([1.0, -1.0]),
        st.integers(0, 7),
        st.one_of(st.sampled_from([-150, 0, 150]), st.integers(-150, 150)),
    )
    pool = draw(st.lists(value, min_size=1, max_size=5))
    d = draw(st.integers(1, 6))
    n_q, n_t = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    size = (n_q + n_t) * d
    x = np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    x = x.reshape(n_q + n_t, d)
    return x[:n_q], x[n_q:]


@settings(max_examples=300, deadline=None)
@given(case=distance_inputs())
def test_sq_distances_equal_a_column_by_column_oracle(case):
    # every k-NN pass test takes its reference rows from _sq_distances, so
    # this pins the kernel they share to a sum that does not use it
    queries, train = case
    got = _sq_distances(queries, train)
    assert got.tobytes() == oracle_sq_distances(queries, train).tobytes()


# --- cross-validated accuracy ---------------------------------------------------


def _random_int_dataset(rng, n=40, d=4, n_classes=3):
    feats = rng.integers(0, 4, size=(n, d)).astype(float)
    labels = rng.integers(0, n_classes, size=n)
    labels[: 2 * n_classes] = np.tile(np.arange(n_classes), 2)
    return make_dataset(feats, labels)


def test_cv_accuracy_matches_oracle_exactly():
    rng = np.random.default_rng(7)
    for trial in range(8):
        ds = _random_int_dataset(rng)
        folds = stratified_kfold(ds, 4, rng)
        for cols in ([0], [2, 3], [0, 1, 2, 3]):
            got = cv_accuracy(ds, cols, folds, k=5)
            _, _, want = oracle_fold_scores(ds, np.asarray(cols), folds, 5)
            assert got == want, (trial, cols)


@settings(max_examples=60, deadline=None)
@given(case=tie_heavy_datasets(), k=st.integers(1, 30), n_cols=st.integers(1, 6))
def test_cv_accuracy_matches_oracle_on_tie_heavy_folds(case, k, n_cols):
    # many query rows per fold, some tied at the k-th distance and some not;
    # k may reach past the training fold
    ds, folds = case
    cols = np.arange(min(n_cols, ds.d))
    want_preds, want_shares, want = oracle_fold_scores(ds, cols, folds, k)
    assert cv_accuracy(ds, cols, folds, k) == want
    # the pooled votes behind full_metrics, element for element
    preds, shares, _ = _fold_votes(ds, folds, k, cols, [()])
    assert preds[0].tolist() == want_preds.tolist()
    assert shares[0].tolist() == want_shares.tolist()


def test_cv_accuracy_perfect_feature_is_exactly_one(perfect_ds):
    folds = stratified_kfold(perfect_ds, 5, np.random.default_rng(0))
    assert cv_accuracy(perfect_ds, [0], folds, k=5) == 1.0
    # adding pure-constant columns cannot disturb the distances
    assert cv_accuracy(perfect_ds, [0, 1, 2], folds, k=5) == 1.0


def test_cv_accuracy_constant_features_complementary_folds():
    # all-zero features, folds arranged so the training side is always the
    # other class: every vote is wrong
    ds = make_dataset(np.zeros((8, 2)), [0, 0, 1, 1, 0, 0, 1, 1])
    folds = FoldAssignment(np.array([0, 0, 1, 1, 0, 0, 1, 1]), 2)
    assert cv_accuracy(ds, [0, 1], folds, k=3) == 0.0


def test_cv_accuracy_k_is_capped_by_train_size():
    ds = _random_int_dataset(np.random.default_rng(3), n=12, d=3, n_classes=2)
    folds = stratified_kfold(ds, 3, np.random.default_rng(1))
    assert cv_accuracy(ds, [0, 1], folds, k=50) == cv_accuracy(ds, [0, 1], folds, k=8)


def test_cv_accuracy_validates_subset():
    ds = _random_int_dataset(np.random.default_rng(0))
    folds = stratified_kfold(ds, 4, np.random.default_rng(0))
    for bad in ([], [0, 0], [99], [-1]):
        with pytest.raises(ValueError):
            cv_accuracy(ds, bad, folds, k=5)
    with pytest.raises(ValueError):
        cv_accuracy(ds, [0], folds, k=0)


# --- full metrics -----------------------------------------------------------------


def test_full_metrics_perfect_binary(perfect_ds):
    folds = stratified_kfold(perfect_ds, 5, np.random.default_rng(0))
    [m] = full_metrics(perfect_ds, [0], [()], folds, k=5)
    assert m == MetricsReport(accuracy=1.0, auc=1.0, precision=1.0, recall=1.0)


def test_full_metrics_degenerate_all_negative_predictions():
    # constant features, minority ones at the tail: the k nearest by the
    # index tie rule are always zeros, so nothing is ever predicted positive
    ds = make_dataset(np.zeros((20, 2)), [0] * 16 + [1] * 4)
    folds = FoldAssignment(np.array([i % 4 for i in range(20)]), 4)
    [m] = full_metrics(ds, [0], [()], folds, k=5)
    assert m.accuracy == pytest.approx(0.8)
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.auc == 0.5  # every score ties, rank averaging gives exactly half


def test_full_metrics_multiclass_only_reports_accuracy():
    ds = _random_int_dataset(np.random.default_rng(2), n_classes=3)
    folds = stratified_kfold(ds, 4, np.random.default_rng(2))
    [m] = full_metrics(ds, [0, 1], [()], folds, k=3)
    assert m.accuracy == cv_accuracy(ds, [0, 1], folds, k=3)
    assert (m.auc, m.precision, m.recall) == (None, None, None)


def test_full_metrics_against_scipy_and_hand_counts():
    rng = np.random.default_rng(11)
    shift = np.repeat([0.0, 1.5], 20)[:, None]
    feats = rng.normal(size=(40, 3)) + shift
    ds = make_dataset(feats, np.repeat([0, 1], 20))
    folds = stratified_kfold(ds, 4, rng)
    cols = np.array([0, 1, 2])
    [m] = full_metrics(ds, cols, [()], folds, k=5)

    preds, shares, acc = oracle_fold_scores(ds, cols, folds, 5)
    assert m.accuracy == acc
    tp = int(np.sum((preds == 1) & (ds.labels == 1)))
    assert m.precision == pytest.approx(tp / int(np.sum(preds == 1)), abs=1e-15)
    assert m.recall == pytest.approx(tp / 20, abs=1e-15)

    pos, neg = shares[ds.labels == 1], shares[ds.labels == 0]
    u = scipy.stats.mannwhitneyu(pos, neg).statistic
    assert m.auc == pytest.approx(u / (20 * 20), abs=1e-12)


def oracle_rank_auc(scores, positive):
    """AUC from average ranks found by walking each group of tied scores."""
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


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 30), n=st.integers(2, 400), data=st.data())
def test_rank_auc_equals_tie_group_loop(k, n, data):
    # scores are class-1 vote fractions, so ties are everywhere
    votes = data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    positive = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positive[:2] = [True, False]
    scores, positive = np.array(votes) / k, np.array(positive)
    assert _rank_auc(scores, positive) == oracle_rank_auc(scores, positive)


@settings(max_examples=60, deadline=None)
@given(case=tie_heavy_datasets(), k=st.integers(1, 30), rows=st.integers(1, 3), data=st.data())
def test_full_metrics_one_pass_equals_one_pass_per_set(case, k, rows, data):
    # 2-4 classes, duplicate rows, k that may reach past the training fold,
    # and tiles of 1..rows test rows against untiled references
    ds, folds = case
    columns = st.integers(0, ds.d - 1)
    base = data.draw(st.lists(columns, min_size=1, max_size=ds.d - 1, unique=True))
    rest = st.sampled_from([j for j in range(ds.d) if j not in base])
    h1 = data.draw(st.lists(rest, min_size=1, unique=True))
    h2 = data.draw(st.lists(rest, unique=True))
    sets = [(), h1, h2]
    # base sums in the given order, then each extra set in ascending order;
    # the references vote untiled: these folds fit in one tile at the default size
    summed = [[*base, *sorted(extra)] for extra in sets]
    want = [full_metrics(ds, cols, [()], folds, k)[0] for cols in summed]
    want_votes = _fold_votes(ds, folds, k, base, sets)
    with pytest.MonkeyPatch.context() as mp:
        force_tile_rows(mp, folds, rows)
        voted = record_votes(mp)
        got = full_metrics(ds, base, sets, folds, k)
        tiled = _fold_votes(ds, folds, k, base, sets)
        per_pass = pass_rows(ds, folds, summed)
    for cols, m, w in zip(summed, got, want):
        assert m == w
        assert m.accuracy == cv_accuracy(ds, cols, folds, k)
    for got_votes, want_arr in zip(tiled, want_votes):
        np.testing.assert_array_equal(got_votes, want_arr)
    # both passes vote fold by fold, tile by tile, set by set, each row on
    # the row of _sq_distances over base + sorted(extra), bit for bit
    assert voted == per_pass * 2


@settings(max_examples=100, deadline=None)
@given(case=tie_heavy_datasets(), k=st.integers(1, 30), rows=st.integers(1, 3), data=st.data())
def test_extra_set_order_changes_no_bit(case, k, rows, data):
    ds, folds = case
    columns = st.integers(0, ds.d - 1)
    base = data.draw(st.lists(columns, max_size=ds.d - 2, unique=True))
    rest = st.sampled_from([j for j in range(ds.d) if j not in base])
    h = data.draw(st.lists(rest, min_size=2, unique=True))
    with pytest.MonkeyPatch.context() as mp:
        force_tile_rows(mp, folds, rows)
        voted = record_votes(mp)
        votes = _fold_votes(ds, folds, k, base, [h, h[::-1], sorted(h)])
        per_pass = pass_rows(ds, folds, [[*base, *sorted(h)]] * 3)
    for arr in votes:
        np.testing.assert_array_equal(arr[0], arr[1])
        np.testing.assert_array_equal(arr[0], arr[2])
    # each tile votes the three orders on the same distances, bit for bit:
    # the rows of _sq_distances over base + sorted(h)
    assert voted == per_pass


@settings(max_examples=100, deadline=None)
@given(case=tie_heavy_datasets(), rows=st.integers(1, 3), data=st.data())
def test_chunked_pass_equals_one_untiled_pass_per_set(case, rows, data):
    # folds of 1..rows test rows, the last one short, each voted as one tile;
    # the tile constant lets the largest fold vote per_call sets per k-NN call
    # and smaller folds as many or more
    ds, _ = case
    k = data.draw(st.integers(1, ds.n))
    order = data.draw(st.permutations(range(ds.n)))
    fold_of = np.empty(ds.n, dtype=np.int64)
    fold_of[order] = np.arange(ds.n) // min(rows, ds.n - 1)
    folds = FoldAssignment(fold_of, int(fold_of.max()) + 1)
    columns = st.integers(0, ds.d - 1)
    base = data.draw(st.lists(columns, min_size=1, max_size=ds.d - 1, unique=True))
    rest = st.sampled_from([j for j in range(ds.d) if j not in base])
    sets = data.draw(st.lists(st.lists(rest, unique=True), min_size=1, max_size=4))
    sets.insert(data.draw(st.integers(0, len(sets))), [])
    sets.append(data.draw(st.sampled_from(sets)))
    per_call = data.draw(st.integers(1, len(sets)))
    summed = [[*base, *sorted(extra)] for extra in sets]
    # references: one set per pass, each fold one tile at the default size
    want = [_fold_votes(ds, folds, k, cols, [()]) for cols in summed]
    tiles = [(folds.test_indices(f).size, folds.train_indices(f).size) for f in range(folds.n_folds)]
    cells = max(test * train for test, train in tiles)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hefs.metrics, "_TILE_ELEMENTS", per_call * cells)
        voted = record_votes(mp)
        knn = hefs.metrics._knn_from_d2

        def counting_knn(d2, *args):
            calls.append(d2.shape[0])
            return knn(d2, *args)

        mp.setattr(hefs.metrics, "_knn_from_d2", counting_knn)
        got = _fold_votes(ds, folds, k, base, sets)
        per_pass = pass_rows(ds, folds, summed)
    for s, (cols, ref) in enumerate(zip(summed, want)):
        for got_arr, want_arr in zip(got, ref):
            np.testing.assert_array_equal(got_arr[s], want_arr[0])
        assert float(got[2][s].mean()) == cv_accuracy(ds, cols, folds, k)
    assert voted == per_pass
    # each fold votes its sets in chunks of cap // tile size, one call each
    want_calls = []
    for test, train in tiles:
        per_fold = per_call * cells // (test * train)
        want_calls += [min(per_fold, len(sets) - lo) * test for lo in range(0, len(sets), per_fold)]
    assert calls == want_calls


@settings(max_examples=100, deadline=None)
@given(case=tie_heavy_datasets(), rows=st.integers(1, 3), data=st.data())
def test_budgeted_pass_equals_one_untiled_pass_per_set(case, rows, data):
    # the pass budget, not the tile constant, cuts the tiles: with the budget
    # and the row floor patched down, each fold votes 2-8 sets in tiles of
    # 1..rows test rows, exactly rows where the training side is smallest
    ds, folds = case
    k = data.draw(st.integers(1, ds.n))
    columns = st.integers(0, ds.d - 1)
    base = data.draw(st.lists(columns, max_size=ds.d - 1, unique=True))
    rest = st.sampled_from([j for j in range(ds.d) if j not in base])
    sets = data.draw(st.lists(st.lists(rest, unique=True), min_size=2, max_size=8))
    summed = [[*base, *sorted(extra)] for extra in sets]
    # references: one set per pass, each fold one tile at the default sizes
    want = [_fold_votes(ds, folds, k, cols, [()]) for cols in summed]
    min_train = min(folds.train_indices(f).size for f in range(folds.n_folds))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hefs.metrics, "_MIN_TILE_ROWS", 1)
        mp.setattr(hefs.metrics, "_PASS_ELEMENTS", rows * (1 + len(sets)) * min_train)
        assert hefs.metrics._tile_rows(min_train, len(sets)) == rows
        voted = record_votes(mp)
        got = _fold_votes(ds, folds, k, base, sets)
        per_pass = pass_rows(ds, folds, summed)
    for s, ref in enumerate(want):
        for got_arr, want_arr in zip(got, ref):
            np.testing.assert_array_equal(got_arr[s], want_arr[0])
    # every row voted is the row of _sq_distances over base + sorted(extra),
    # bit for bit, in fold, tile, set order
    assert voted == per_pass


@settings(max_examples=60, deadline=None)
@given(case=tie_heavy_datasets(), data=st.data())
def test_pass_reads_only_its_columns(case, data):
    # every column outside base and the extra sets is NaN: a read of one
    # would change votes, and any arithmetic on it would raise a warning
    ds, folds = case
    k = data.draw(st.integers(1, ds.n))
    columns = st.integers(0, ds.d - 1)
    base = data.draw(st.lists(columns, max_size=ds.d - 1, unique=True))
    sets = data.draw(st.lists(st.lists(columns, unique=True), min_size=1, max_size=4))
    want = _fold_votes(ds, folds, k, base, sets)
    unused = sorted(set(range(ds.d)) - set(base).union(*sets))
    poisoned = make_dataset(ds.features, ds.labels)
    features = poisoned.features.copy()
    features[:, unused] = np.nan
    object.__setattr__(poisoned, "features", features)
    for got_arr, want_arr in zip(_fold_votes(poisoned, folds, k, base, sets), want):
        np.testing.assert_array_equal(got_arr, want_arr)


def test_cv_accuracy_pass_holds_less_than_one_fold_matrix():
    # the pass keeps tile-sized buffers, so its peak stays under a single
    # fold's distance matrix however large n grows
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(3000, 4)), rng.integers(0, 2, 3000))
    folds = stratified_kfold(ds, 5, rng)
    fold_bytes = min(
        folds.test_indices(f).size * folds.train_indices(f).size * 8 for f in range(5)
    )
    tracemalloc.start()
    try:
        cv_accuracy(ds, [0, 1, 2, 3], folds, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fold_bytes


def test_full_metrics_on_wide_data_peaks_below_one_full_width_gather():
    # a pass gathers only the columns it reads: two 3-column sets of 2000
    # columns stay under what one fold's test and train rows take at full width
    rng = np.random.default_rng(0)
    n, d = 300, 2000
    ds = make_dataset(rng.normal(size=(n, d)), rng.integers(0, 2, n))
    folds = stratified_kfold(ds, 5, rng)
    tracemalloc.start()
    try:
        full_metrics(ds, (), [(5, 900, 1999), (3, 17, 1200)], folds, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8


# --- filter and refine ------------------------------------------------------------


def take_path(mp, refine):
    """Patch the refine threshold so every pass votes on the filter-and-refine
    path (refine=True) or on the column path."""
    mp.setattr(hefs.metrics, "_REFINE_MIN_TRAIN", 1 if refine else 2**62)


def scale_band(mp, factor):
    """Patch the refine band to factor times its width."""
    band = hefs.metrics._band
    mp.setattr(hefs.metrics, "_band", lambda scale, m: factor * band(scale, m))


def record_refined(mp):
    """Patch hefs.metrics._refine_step to count its calls, one per exact-sum
    and vote step of a refine pass: the list holds each call's query-row count."""
    refine, refined = hefs.metrics._refine_step, []

    def recording_refine(held, lo, hi, *args):
        refined.append(hi - lo)
        return refine(held, lo, hi, *args)

    mp.setattr(hefs.metrics, "_refine_step", recording_refine)
    return refined


def record_kernels(mp):
    """Patch hefs.metrics' two fold kernels to log the name of each one
    called, in order; returns the list of names."""
    called = []

    def recording(name):
        kernel = getattr(hefs.metrics, name)

        def recording_kernel(*args):
            called.append(name)
            return kernel(*args)

        return recording_kernel

    for name in ("_column_fold", "_refine_fold"):
        mp.setattr(hefs.metrics, name, recording(name))
    return called


@st.composite
def near_tie_datasets(draw):
    """(dataset, folds) whose rows copy a few prototypes of integer levels,
    some cells nudged by one ulp, each column scaled by a power of ten from
    1e-150 to 1e150, so sums stay finite. Exact duplicates, exact ties and
    near-ties one ulp apart are everywhere, and a level 0 nudged by one ulp
    is subnormal. 2-3 classes, 2-4 folds of any class mix."""
    n_classes = draw(st.integers(2, 3))
    n_folds = draw(st.integers(2, 4))
    n = draw(st.integers(max(n_classes, n_folds), 30))
    # past 8 columns a pairwise sum would differ from the sequential one
    d = draw(st.integers(1, 12))
    levels = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    power = st.one_of(st.sampled_from([-150, -75, 0, 75, 150]), st.integers(-150, 150))
    if draw(st.booleans()):
        protos = draw(st.lists(levels, min_size=1, max_size=n))
        powers = draw(st.lists(power, min_size=d, max_size=d))
    else:
        # permutations of one level vector under one power: rows whose exact
        # distances tie in real numbers, and whose rounded sums differ with
        # the order of the columns
        protos = draw(st.lists(st.permutations(draw(levels)), min_size=1, max_size=n))
        powers = [draw(power)] * d
    rows = np.array(draw(st.lists(st.sampled_from(protos), min_size=n, max_size=n)), dtype=float)
    x = rows * 10.0 ** np.array(powers, dtype=float)
    nudge = np.array(draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=n * d, max_size=n * d)))
    nudge = nudge.reshape(n, d)
    x[nudge != 0] = np.nextafter(x[nudge != 0], nudge[nudge != 0] * np.inf)
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    labels[:n_classes] = range(n_classes)  # every class occurs
    fold_of = draw(st.permutations([i % n_folds for i in range(n)]))
    return make_dataset(x, labels), FoldAssignment(np.array(fold_of), n_folds)


@settings(max_examples=300, deadline=None)
@given(case=near_tie_datasets(), band=st.sampled_from([1.0, 2.0**20, np.inf]), data=st.data())
def test_refine_pass_equals_column_pass(case, band, data):
    # k may reach past the training fold; an inflated band, up to every cell
    # a candidate, only adds candidates and changes no vote
    ds, folds = case
    k = data.draw(st.integers(1, ds.n + 2))
    base = data.draw(st.lists(st.integers(0, ds.d - 1), max_size=ds.d, unique=True))
    rest = [j for j in range(ds.d) if j not in base]
    extra = st.lists(st.sampled_from(rest), unique=True) if rest else st.just([])
    sets = data.draw(st.lists(extra, min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        take_path(mp, refine=False)
        want = _fold_votes(ds, folds, k, base, sets)
        take_path(mp, refine=True)
        scale_band(mp, band)
        refined = record_refined(mp)
        got = _fold_votes(ds, folds, k, base, sets)
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()
    # each fold is one tile here, whose candidates fit one step, so every
    # set votes each fold in one step, a set without columns included
    assert len(refined) == folds.n_folds * len(sets)


@st.composite
def wide_datasets(draw):
    """(dataset, folds) of 20-60 or 100-700 columns whose rows copy a few
    prototypes of Gaussian values, each column scaled by a power of ten from
    1e-3 to 1e3, some cells nudged by one ulp: duplicate rows, exact ties
    and near-ties. 2-4 classes, 2-4 folds of any class mix."""
    n_classes = draw(st.integers(2, 4))
    n_folds = draw(st.integers(2, 4))
    n = draw(st.integers(max(n_classes, n_folds), 40))
    d = draw(st.integers(20, 60) | st.integers(100, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    protos = rng.normal(size=(draw(st.integers(1, n)), d)) * 10.0 ** rng.integers(-3, 4, size=d)
    x = protos[rng.integers(0, len(protos), n)]
    nudge = rng.random(x.shape) < 0.1
    x[nudge] = np.nextafter(x[nudge], np.inf)
    labels = rng.integers(0, n_classes, n)
    labels[:n_classes] = range(n_classes)  # every class occurs
    fold_of = rng.permutation(np.arange(n) % n_folds)
    return make_dataset(x, labels), FoldAssignment(fold_of, n_folds)


@settings(max_examples=200, deadline=None)
@given(
    case=st.one_of(tie_heavy_datasets(), wide_datasets()),
    rows=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_refine_fold_equals_column_fold(case, rows, data):
    # both kernels called on one fold's gather: the same predictions and
    # vote fractions, bit for bit. base may be empty and so may an extra
    # set; on data of 100 columns or more the first set holds 100-600 of
    # them, the helper-set width of the paper's data, and any set may. k
    # reaches past the training rows, and tiles of 1..rows test rows (or of
    # the default size) cut the fold
    ds, folds = case
    f = data.draw(st.integers(0, folds.n_folds - 1))
    test, train = folds.test_indices(f), folds.train_indices(f)
    k = data.draw(st.integers(1, train.size + 2))
    base = data.draw(st.lists(st.integers(0, ds.d - 1), max_size=min(ds.d - 1, 8), unique=True))
    rest = [j for j in range(ds.d) if j not in base]
    extra = st.lists(st.sampled_from(rest), max_size=12, unique=True).map(sorted)
    extras = []
    if len(rest) >= 100:
        widths = st.integers(100, 600) | st.sampled_from([320, 600])
        seeds = st.integers(0, 2**32 - 1)

        def pick(case):
            width, seed = case
            cols = np.random.default_rng(seed).choice(rest, min(width, len(rest)), replace=False)
            return sorted(cols.tolist())

        wide = st.tuples(widths, seeds).map(pick)
        extras, extra = [data.draw(wide)], extra | wide
    extras += data.draw(st.lists(extra, min_size=1 - len(extras), max_size=4 - len(extras)))
    x = ds.features.T
    args = (x[:, test], x[:, train], base, extras, k, ds.labels[train], ds.n_classes)
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            mp.setattr(hefs.metrics, "_TILE_ELEMENTS", rows * train.size)
        want = hefs.metrics._column_fold(*args)
        got = hefs.metrics._refine_fold(*args)
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


def test_band_is_load_bearing():
    # one column and q = 1, so -2q t is exact in float32 and each filter
    # value is one rounding of -2 fl32(t) + fl32(t^2) whatever the BLAS: t1
    # lies 4e-7 above q and t2 5e-7 below it, so t1 is the nearest, but the
    # float32 filter ranks t2 first
    q, t1, t2 = 1.0, 1.0 + 4e-7, 1.0 - 5e-7
    assert (q - t1) ** 2 < (q - t2) ** 2

    def filter_value(t):
        return np.float32(-2.0) * np.float32(t) + np.float32(t * t)

    assert filter_value(t1) > filter_value(t2)
    ds = make_dataset([[q], [t1], [t2]], [0, 0, 1])
    folds = FoldAssignment(np.array([0, 1, 1]), 2)
    for factor, want in ((1.0, 0), (2.0**20, 0), (0.0, 1)):
        with pytest.MonkeyPatch.context() as mp:
            take_path(mp, refine=True)
            scale_band(mp, factor)
            preds, _, _ = _fold_votes(ds, folds, 1, [0], [()])
        assert preds[0, 0] == want, factor


# float64 values for the filter's operands: zeros, float32 subnormals, and
# values of any float64 bits from below the float32 subnormals up to
# 2^top, so the operands round on the way to float32
def operand_values(top):
    exponents = st.integers(top - 40, top)
    return st.one_of(
        st.just(0.0),
        st.builds(lambda k: k * 2.0**-149, st.integers(-(2**23) + 1, 2**23 - 1)),
        st.builds(lambda f, e: math.ldexp(f, e), st.floats(-2.0, 2.0), exponents),
    )


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), top=st.integers(-170, 60), data=st.data())
def test_band_covers_the_float32_filter_error(m, top, data):
    # each cell's float32 filter value plus |q|^2 lies within half the band
    # of its exact squared distance and of the column path's float64 sum
    # (the E of _band), whatever the rows. A training row may copy a query
    # row with a few columns moved, so the distance cancels to almost nothing
    nq, ntr = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    values = operand_values(top)
    q = np.array(data.draw(st.lists(values, min_size=m * nq, max_size=m * nq))).reshape(m, nq)
    t = np.array(data.draw(st.lists(values, min_size=m * ntr, max_size=m * ntr))).reshape(m, ntr)
    for j in range(ntr):
        if data.draw(st.booleans()):
            moved = data.draw(st.lists(st.integers(0, m - 1), max_size=3))
            t[:, j] = q[:, data.draw(st.integers(0, nq - 1))]
            t[moved, j] = data.draw(st.lists(values, min_size=len(moved), max_size=len(moved)))
    lhs, rhs, scale = hefs.metrics._filter_operands(q, t, range(m))
    assume((scale < hefs.metrics._FILTER_MAX).all())
    g = lhs @ rhs
    assert g.dtype == np.float32
    sums = _sq_distances(q.T, t.T)
    half_band = hefs.metrics._band(scale, m) / 2
    for i in range(nq):
        q_sq = sum(Fraction(v) ** 2 for v in q[:, i])
        for j in range(ntr):
            exact = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(q[:, i], t[:, j]))
            filtered = Fraction(float(g[i, j])) + q_sq
            assert abs(filtered - exact) <= Fraction(half_band[i]), (i, j)
            assert abs(filtered - Fraction(sums[i, j])) <= Fraction(half_band[i]), (i, j)


@pytest.mark.parametrize("kind", ["gaussian", "prototypes"])
def test_refine_pass_equals_column_pass_at_scale(kind):
    # matrices large enough to use the BLAS's blocked kernels and threads:
    # offset Gaussian columns make the filter cancel to a few digits, and
    # duplicated prototypes tie whole groups at the k-th distance
    rng = np.random.default_rng(3)
    n, d = 1200, 24
    if kind == "gaussian":
        x = rng.normal(size=(n, d)) + rng.uniform(-1e3, 1e3, size=d)
    else:
        x = rng.integers(0, 10, size=(40, d)).astype(float)[rng.integers(0, 40, n)]
    ds = make_dataset(x, rng.integers(0, 3, n))
    folds = stratified_kfold(ds, 5, rng)
    base = [3, 0, 7]
    sets = [sorted(rng.choice(range(8, d), size, replace=False)) for size in (1, 6, 16)]
    with pytest.MonkeyPatch.context() as mp:
        take_path(mp, refine=False)
        want = _fold_votes(ds, folds, 5, base, sets)
    with pytest.MonkeyPatch.context() as mp:
        refined = record_refined(mp)
        got = _fold_votes(ds, folds, 5, base, sets)  # 960 training rows: the refine path
    for got_arr, want_arr in zip(got, want):
        assert got_arr.tobytes() == want_arr.tobytes()
    assert sum(refined) == len(sets) * ds.n


@pytest.mark.parametrize("k", [1, 5])
def test_refine_pass_on_overflowing_scale_equals_column_pass(k):
    # columns at 1e200 overflow the scale |q|^2 + max|t|^2, so the filter
    # cannot rank their rows and every cell of their tiles is a candidate;
    # their squares overflow to inf on both paths. Rows copy a few integer
    # prototypes, so whole groups tie, and one-ulp nudges make near-ties. A
    # base on the 1e100 and unit columns alone still filters
    rng = np.random.default_rng(5)
    n = 90
    protos = rng.integers(0, 4, size=(6, 4)).astype(float)
    x = protos[rng.integers(0, 6, n)] * np.array([1e200, 1e200, 1e100, 1.0])
    nudge = rng.random(x.shape) < 0.2
    x[nudge] = np.nextafter(x[nudge], np.inf)
    ds = make_dataset(x, rng.integers(0, 3, n))
    folds = stratified_kfold(ds, 3, rng)
    sets = [[], [1], [3], [1, 2, 3]]
    for base in ([0], [2, 3], []):
        with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
            take_path(mp, refine=False)
            want = _fold_votes(ds, folds, k, base, sets)
            take_path(mp, refine=True)
            got = _fold_votes(ds, folds, k, base, sets)
        for got_arr, want_arr in zip(got, want):
            assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


def test_refine_pass_on_scale_past_a_quarter_of_the_float_maximum_equals_column_pass():
    # one column: test row a, training rows far, mid and near. The scale
    # a^2 + far^2 is 0.9 of the float maximum: finite, but not below a
    # quarter of it. far's filter value far^2 - 2 a far overflows to inf and
    # mid's does not, yet both exact sums overflow, so after near they tie at
    # inf and the column path admits far, the lower training row: at k = 2,
    # near and far vote class 1. A filter that ranked this row would keep
    # mid, not far, and near and mid would tie the vote to class 0
    big = np.finfo(np.float64).max
    root = np.sqrt(big)
    a, far, mid, near = np.sqrt(0.3) * root, -np.sqrt(0.6) * root, -0.5 * root, 0.9 * np.sqrt(0.3) * root
    ds = make_dataset([[a], [far], [mid], [near]], [0, 1, 0, 1])
    folds = FoldAssignment(np.array([0, 1, 1, 1]), 2)
    with np.errstate(over="ignore"):
        assert big / 4 <= a * a + far * far < big
        assert far * far - 2.0 * a * far == np.inf and np.isfinite(mid * mid - 2.0 * a * mid)
        assert (a - far) ** 2 == (a - mid) ** 2 == np.inf and np.isfinite((a - near) ** 2)
        with pytest.MonkeyPatch.context() as mp:
            take_path(mp, refine=False)
            want = _fold_votes(ds, folds, 2, [0], [()])
            take_path(mp, refine=True)
            got = _fold_votes(ds, folds, 2, [0], [()])
    assert want[0][0, 0] == 1
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


def test_refine_pass_on_scale_past_a_quarter_of_the_float32_maximum_equals_column_pass():
    # two columns, in units of r = 2^64, whose square is just past the
    # float32 maximum: test row q = (0.3, 0.43) r, training rows a = (-0.6,
    # 0.6) r and b = (-0.52, 0) r. The scale |q|^2 + |a|^2 = 0.995 r^2 lies
    # below the float32 maximum but not below the refine threshold. a is the
    # nearest; its filter value, 0.56 r^2, is finite, yet a kernel that adds
    # the |t|^2 column first overflows on the partial sum 0.72 r^2 + 0.36
    # r^2, while every partial sum of b's stays finite. Ranking this row on
    # such a kernel would keep b alone at k = 1 and vote class 0; the column
    # path votes a's class 1
    f32_max = float(np.finfo(np.float32).max)
    r = 2.0**64
    q, a, b = np.array([0.3, 0.43]) * r, np.array([-0.6, 0.6]) * r, np.array([-0.52, 0.0]) * r
    scale = q @ q + max(a @ a, b @ b)
    assert hefs.metrics._FILTER_MAX <= scale < f32_max
    assert (q - a) @ (q - a) < (q - b) @ (q - b)
    lhs, rhs, _ = hefs.metrics._filter_operands(q[:, None], np.column_stack([a, b]), range(2))
    terms = lhs[0] * rhs.T  # each training row's products, its |t|^2 last
    with np.errstate(over="ignore"):
        assert terms[0, 2] + terms[0, 0] == np.inf
    assert np.isfinite(terms[0].astype(np.float64).sum())
    # no partial sum of b's, in any order and with rounding, reaches past this
    assert np.abs(terms[1]).astype(np.float64).sum() < 0.9 * f32_max
    ds = make_dataset([q, a, b], [0, 1, 0])
    folds = FoldAssignment(np.array([0, 1, 1]), 2)
    with pytest.MonkeyPatch.context() as mp:
        take_path(mp, refine=False)
        want = _fold_votes(ds, folds, 1, [0, 1], [()])
        take_path(mp, refine=True)
        got = _fold_votes(ds, folds, 1, [0, 1], [()])
    assert want[0][0, 0] == 1
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


@pytest.mark.parametrize("k", [1, 5])
def test_refine_pass_on_rows_past_the_float32_range_equals_column_pass(k):
    # columns at 1e39 lie past the float32 maximum, so their float32 casts
    # overflow, and columns at 1e20 stay in range but their squares do not:
    # the filter cannot rank their rows, and no cast may warn. In float64
    # every sum is finite. Rows copy a few integer prototypes, so whole
    # groups tie, and one-ulp nudges make near-ties. A base on the unit
    # columns alone still filters
    rng = np.random.default_rng(7)
    n = 90
    protos = rng.integers(0, 4, size=(6, 4)).astype(float)
    x = protos[rng.integers(0, 6, n)] * np.array([1e39, 1e20, 1.0, 1.0])
    nudge = rng.random(x.shape) < 0.2
    x[nudge] = np.nextafter(x[nudge], np.inf)
    ds = make_dataset(x, rng.integers(0, 3, n))
    folds = stratified_kfold(ds, 3, rng)
    sets = [[], [1], [3], [1, 2, 3]]
    for base in ([0], [2, 3], []):
        with pytest.MonkeyPatch.context() as mp:
            take_path(mp, refine=False)
            want = _fold_votes(ds, folds, k, base, sets)
            take_path(mp, refine=True)
            got = _fold_votes(ds, folds, k, base, sets)
        for got_arr, want_arr in zip(got, want):
            assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


@pytest.mark.parametrize("k", [1, 5])
def test_refine_pass_on_float32_underflow_equals_column_pass(k):
    # a column at 1e-40, a float32 subnormal, and one at 1e-50, which
    # float32 flushes to zero, beside unit columns of a few integer
    # prototypes: their squares vanish from the float32 filter, and only the
    # exact sums see them, so they alone break the unit columns' ties. Sets
    # of the tiny columns alone have all-zero filter values
    rng = np.random.default_rng(9)
    n = 90
    protos = rng.integers(0, 3, size=(5, 3)).astype(float)
    tiny = rng.integers(0, 50, size=(n, 2)) * np.array([1e-40, 1e-50])
    x = np.column_stack([protos[rng.integers(0, 5, n)], tiny])
    ds = make_dataset(x, rng.integers(0, 3, n))
    folds = stratified_kfold(ds, 3, rng)
    sets = [[], [3], [4], [3, 4], [0, 3]]
    for base in ([0, 1, 2], [1], []):
        with pytest.MonkeyPatch.context() as mp:
            take_path(mp, refine=False)
            want = _fold_votes(ds, folds, k, base, sets)
            take_path(mp, refine=True)
            got = _fold_votes(ds, folds, k, base, sets)
        for got_arr, want_arr in zip(got, want):
            assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


# filter values with exact ties, repeats, both zeros and magnitudes from
# 1e-150 to 1e150 of either sign; float32 tiles draw from 1e-45 to 1e37
bound_values = {
    np.float64: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-150, -1e-150, 1e150, -1e150]),
        st.builds(lambda m, p: m * 10.0**p, st.integers(-9, 9), st.integers(-150, 150)),
    ),
    np.float32: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-45, -1e-45, 1e37, -1e37]),
        st.builds(lambda m, p: m * 10.0**p, st.integers(-9, 9), st.integers(-45, 37)),
    ),
}


@settings(max_examples=200, deadline=None)
@given(
    block=st.sampled_from([1, 2, 3, 5, 8, 16, 32]),
    dtype=st.sampled_from([np.float64, np.float32]),
    data=st.data(),
)
def test_refine_block_bound_is_at_or_above_the_kth_filter_value(block, dtype, data):
    # rows of t cells from a pool of a few values; t need not be a multiple
    # of the block, and a large k_eff shrinks the block to t // k_eff cells,
    # down to one, where the bound is the k_eff-th value itself
    t = data.draw(st.integers(1, 70))
    n_rows = data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(bound_values[dtype], min_size=1, max_size=8))
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=n_rows * t, max_size=n_rows * t))
    g = np.array(cells, dtype=dtype).reshape(n_rows, t)
    before = g.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hefs.metrics, "_BLOCK", block)
        for k_eff in range(1, t + 1):
            bound = hefs.metrics._kth_bound(g, k_eff)
            kth = np.sort(g, axis=1)[:, k_eff - 1]
            assert bound.dtype == dtype
            assert (bound >= kth).all(), k_eff
            if min(block, t // k_eff) == 1:
                assert (bound == kth).all(), k_eff
    assert g.tobytes() == before


@settings(max_examples=300, deadline=None)
@given(t=st.integers(1, 40), data=st.data())
def test_refine_kth_smallest_equals_the_lexsort_oracle(t, data):
    # rows of 1 to t values from a pool of a few, so exact ties are
    # everywhere, +inf among them; k_eff up to the fewest values of a row
    counts = data.draw(st.lists(st.integers(1, t), min_size=1, max_size=6))
    pool = data.draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 1e300, np.inf]) | st.floats(0.0, 10.0),
            min_size=1,
            max_size=6,
        )
    )
    size = sum(counts)
    dist = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    row = np.repeat(np.arange(len(counts)), counts)
    k_eff = data.draw(st.integers(1, min(counts)))
    before = dist.tobytes(), row.tobytes()
    got = hefs.metrics._kth_smallest(dist, row, len(counts), k_eff)
    assert got.tobytes() == kth_oracle(dist, row, len(counts), k_eff).tobytes()
    assert (dist.tobytes(), row.tobytes()) == before


@pytest.mark.parametrize("tile_rows", [None, 3])
def test_refine_pass_with_k_past_the_block_count_equals_column_pass(tile_rows):
    # rows copy 30 prototypes, so whole groups tie at the k-th distance, with
    # 3 classes. 360 training rows make 22 blocks of 16 cells, so k = 30 and
    # 200 shrink the block to t // k cells (12 and 1), and k = 400 reaches
    # past the training fold. Tiles of 3 float64 rows (6 float32 filter
    # rows), with a step's block cut to match, make each set vote a fold in
    # several steps
    rng = np.random.default_rng(11)
    n, d = 540, 8
    protos = rng.integers(0, 4, size=(30, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    ds = make_dataset(protos[rng.integers(0, 30, n)], rng.integers(0, 3, n))
    folds = stratified_kfold(ds, 3, rng)
    base = [2, 0]
    sets = [[], [1], [3, 5, 7], [1, 3, 4, 5, 6, 7]]
    for k in (1, 5, 30, 200, 400):
        with pytest.MonkeyPatch.context() as mp:
            if tile_rows:
                force_tile_rows(mp, folds, tile_rows)
            take_path(mp, refine=False)
            want = _fold_votes(ds, folds, k, base, sets)
            take_path(mp, refine=True)
            refined = record_refined(mp)
            got = _fold_votes(ds, folds, k, base, sets)
        for got_arr, want_arr in zip(got, want):
            assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()
        assert sum(refined) == len(sets) * ds.n
        if tile_rows and k >= 30:
            assert len(refined) > folds.n_folds * len(sets)


def test_one_pass_runs_refine_and_column_folds():
    # folds of 130, 129, 128, 127 and 127 test rows leave 511-514 training
    # rows, so each fold's own size picks its kernel: the first fold takes
    # the column path, the others filter and refine. Rows copy 40 integer
    # prototypes, so whole groups tie, with 3 classes
    rng = np.random.default_rng(7)
    n, d = 641, 8
    protos = rng.integers(0, 4, size=(40, d)).astype(float)
    ds = make_dataset(protos[rng.integers(0, 40, n)], rng.integers(0, 3, n))
    fold_of = np.repeat(np.arange(5), [130, 129, 128, 127, 127])
    folds = FoldAssignment(rng.permutation(fold_of), 5)
    assert [folds.train_indices(f).size for f in range(5)] == [511, 512, 513, 514, 514]
    base = [2, 0]
    sets = [[], [1], [3, 5, 7], [1, 3, 4, 5, 6, 7]]
    for k in (1, 5, 30):
        with pytest.MonkeyPatch.context() as mp:
            take_path(mp, refine=False)
            want = _fold_votes(ds, folds, k, base, sets)
        with pytest.MonkeyPatch.context() as mp:
            kernels = record_kernels(mp)
            got = _fold_votes(ds, folds, k, base, sets)
        assert kernels == ["_column_fold"] + ["_refine_fold"] * 4
        for got_arr, want_arr in zip(got, want):
            assert got_arr.dtype == want_arr.dtype and got_arr.tobytes() == want_arr.tobytes()


@pytest.mark.parametrize("base", [[], [0], [5, 0]])
def test_refine_and_column_folds_sum_in_sequential_order(base):
    # one query row of zeros against two training rows of 31 columns, whose
    # squares are exact. Row 0's are 2^54 and thirty 1s: added in order, each
    # 1 rounds away and the sum is 2^54, but numpy's pairwise order sums the
    # 1s apart and keeps some of them. Row 1's are 2^54, 4 and zeros, 2^54 + 4
    # in either order. So at k = 1 the sequential sums of _sq_distances vote
    # row 0's class and pairwise sums row 1's, and each kernel must vote
    # with _sq_distances. A base reorders the columns it holds
    m = 31
    t = np.zeros((2, m))
    t[:, 0] = 2.0**27
    t[0, 1:] = 1.0
    t[1, 1] = 2.0
    q = np.zeros((1, m))
    train_y = np.array([0, 1])
    extras = [sorted(set(range(m)) - set(base))]
    order = [*base, *extras[0]]
    d2 = _sq_distances(q[:, order], t[:, order])
    want = _knn_from_d2(d2, train_y, 1, 2)
    # np.add.reduce sums a contiguous vector pairwise
    squares = (q[0, order] - t[:, order]) ** 2
    pairwise = [np.add.reduce(np.ascontiguousarray(row)) for row in squares]
    assert d2[0, 0] < d2[0, 1] and pairwise[0] > pairwise[1]
    assert want[0].tolist() == [0]
    for kernel in (hefs.metrics._column_fold, hefs.metrics._refine_fold):
        got = kernel(q.T, t.T, base, extras, 1, train_y, 2)
        for got_arr, want_arr in zip(got, want):
            assert got_arr[0].tobytes() == want_arr.tobytes(), kernel.__name__


@pytest.mark.parametrize("n_sets", [1, 4])
def test_refine_pass_on_all_duplicate_rows_stays_inside_the_pass_budget(n_sets):
    # every row is one row, so every cell of every tile ties at the k-th
    # distance: each tile's candidates are all its cells, over a step's worth,
    # so the tile is held in slices of rows and each slice is voted before
    # the next joins it. The pass then holds its float32 tile and a step's
    # exact sums and padded block, two float64 tiles inside the pass budget,
    # one k-NN vote's working copies of a tile, its gathers and outputs
    rng = np.random.default_rng(0)
    n, d = 2000, 30
    ds = make_dataset(np.ones((n, d)), rng.integers(0, 2, n))
    folds = stratified_kfold(ds, 5, rng)
    train = max(folds.train_indices(f).size for f in range(5))
    rows = hefs.metrics._TILE_ELEMENTS // train
    assert 2 * rows * train <= hefs.metrics._PASS_ELEMENTS
    tile = np.zeros((rows, train))
    tracemalloc.start()
    try:
        hefs.metrics._knn_from_d2(tile, ds.labels[:train], 5, 2)
        _, knn_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sets = [list(range(d))] * n_sets
    with pytest.MonkeyPatch.context() as mp:
        refined = record_refined(mp)
        tracemalloc.start()
        try:
            preds, _, _ = _fold_votes(ds, folds, 5, [], sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sum(refined) == n_sets * n  # every row of every set is voted
    # every training row ties, so each query takes the first k training rows
    for f in range(5):
        test, train_rows = folds.test_indices(f), folds.train_indices(f)
        want = int(np.bincount(ds.labels[train_rows[:5]], minlength=2).argmax())
        assert (preds[:, test] == want).all()
    # the fold's gathers of every column, a set's transient copies and its
    # float32 filter operands, with n-long norms and masks; the outputs:
    # predictions and fractions, each fold's and the pass's
    gathers = 3 * ds.features.nbytes + 8 * 8 * n
    outputs = 2 * 16 * n_sets * n
    assert peak <= 8 * 2 * rows * train + knn_peak + gathers + outputs


# --- equal-width binning --------------------------------------------------------


def test_equal_width_bins_frozen_examples():
    np.testing.assert_array_equal(
        equal_width_bins(np.arange(10.0), 10), np.arange(10)
    )
    np.testing.assert_array_equal(equal_width_bins(np.array([0.0, 10.0]), 2), [0, 1])
    np.testing.assert_array_equal(equal_width_bins(np.array([0.0, 5.0, 10.0]), 2), [0, 1, 1])
    np.testing.assert_array_equal(equal_width_bins(np.array([3.0, 3.0, 3.0]), 5), [0, 0, 0])


def test_equal_width_bins_rejects_bad_input():
    with pytest.raises(ValueError):
        equal_width_bins(np.array([1.0, 2.0]), 1)
    with pytest.raises(ValueError):
        equal_width_bins(np.array([]), 4)
    with pytest.raises(ValueError):
        equal_width_bins(np.zeros((2, 2)), 4)


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=60),
    st.integers(min_value=2, max_value=12),
)
def test_equal_width_bins_range_and_monotonic(values, n_bins):
    col = np.asarray(values, dtype=np.float64)
    codes = equal_width_bins(col, n_bins)
    assert codes.min() >= 0 and codes.max() <= n_bins - 1
    order = np.argsort(col, kind="stable")
    assert np.all(np.diff(codes[order]) >= 0)
    if np.ptp(col) > 0:
        assert codes[np.argmin(col)] == 0
        assert codes[np.argmax(col)] == n_bins - 1


# --- mutual information -----------------------------------------------------------


def test_mi_of_identical_balanced_bits_is_ln2():
    a = np.array([0.0, 1.0] * 50)
    assert mutual_information(a, a) == pytest.approx(math.log(2.0), rel=1e-12)
    assert mutual_information(a, 1.0 - a) == pytest.approx(math.log(2.0), rel=1e-12)


def test_mi_with_constant_is_zero():
    a = np.arange(30.0)
    # marginals of 1/30 leave float residue, so only near-zero is guaranteed
    assert mutual_information(a, np.full(30, 3.3)) == pytest.approx(0.0, abs=1e-12)


def test_mi_of_exactly_independent_bits_is_zero():
    a = np.array([0.0, 0.0, 1.0, 1.0] * 25)
    b = np.array([0.0, 1.0, 0.0, 1.0] * 25)
    assert mutual_information(a, b) == 0.0


def test_mi_self_information_equals_entropy():
    rng = np.random.default_rng(4)
    col = rng.normal(size=200)
    codes = equal_width_bins(col, 10)
    p = np.bincount(codes, minlength=10) / codes.size
    entropy = -sum(pi * math.log(pi) for pi in p if pi > 0)
    assert mutual_information(col, col) == pytest.approx(entropy, rel=1e-12)


def test_mi_invariant_under_positive_affine_maps():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 50, size=150).astype(float)
    b = rng.integers(0, 50, size=150).astype(float)
    np.testing.assert_array_equal(equal_width_bins(3.0 * a + 7.0, 10), equal_width_bins(a, 10))
    assert mutual_information(3.0 * a + 7.0, b) == mutual_information(a, b)


def test_mi_small_sample_bias_is_bounded():
    # independent draws: population MI is 0, the plug-in estimate must stay
    # within a few times the (bins-1)^2 / 2n bias term
    rng = np.random.default_rng(15)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    assert mutual_information(a, b, n_bins=5) < 0.02


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=50),
    st.integers(min_value=0, max_value=10**6),
)
def test_mi_symmetric_and_nonnegative(values, seed):
    a = np.asarray(values, dtype=np.float64)
    b = np.random.default_rng(seed).permutation(a)
    m = mutual_information(a, b, n_bins=4)
    assert m >= 0.0
    assert m == pytest.approx(mutual_information(b, a, n_bins=4), abs=1e-12)


def test_mi_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        mutual_information(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError):
        mutual_information(np.array([]), np.array([]))


def test_mi_on_parity_data_joint_beats_either_bit():
    ds = synth_xor_dataset(400, 4, 0.0, np.random.default_rng(0))
    f0, f1 = ds.features[:, 0], ds.features[:, 1]
    y = ds.labels.astype(float)
    joint = f0 * 2.0 + f1
    h_label = -sum(
        p * math.log(p) for p in np.bincount(ds.labels) / ds.n if p > 0
    )
    # the label is a deterministic function of the bit pair
    assert mutual_information(joint, y, n_bins=4) == pytest.approx(h_label, rel=1e-12)
    assert mutual_information(f0, y) < 0.05
    assert mutual_information(f1, y) < 0.05


def test_mi_survives_zscore_normalization_of_bits():
    raw = synth_xor_dataset(200, 4, 0.0, np.random.default_rng(1))
    norm = zscore_normalize(raw)
    y = raw.labels.astype(float)
    assert mutual_information(norm.features[:, 0], y) == pytest.approx(
        mutual_information(raw.features[:, 0], y), abs=1e-12
    )


# --- batched mutual information --------------------------------------------------


@st.composite
def code_tables(draw):
    """(codes_a, codes_b, n_a, n_b): 1-40 rows of n codes against one target.
    Each row and the target draw from a random run of their bins, so a joint
    table holds anything from one nonzero cell to all of them; about one row
    in five is constant."""
    n = draw(st.integers(1, 300))
    n_a, n_b = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def codes(size, n_bins):
        lo, hi = np.sort(rng.integers(0, n_bins, 2))
        return rng.integers(lo, hi + 1, size=size)

    codes_a = np.array([codes(n, n_a) for _ in range(m)])
    codes_a[rng.random(m) < 0.2] = rng.integers(n_a)
    return codes_a, codes(n, n_b), n_a, n_b


def assert_batched_mi_is_the_one_pair_formula(codes_a, codes_b, n_a, n_b, rows):
    """_mi_from_codes gives each row the oracle's bits, in one block and in
    blocks of rows rows."""
    want = np.array([mi_oracle(row, codes_b, n_a, n_b) for row in codes_a]).tobytes()
    assert _mi_from_codes(codes_a, codes_b, n_a, n_b).tobytes() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hefs.metrics, "_TILE_ELEMENTS", rows * max(codes_a.shape[1], n_a * n_b))
        assert _mi_from_codes(codes_a, codes_b, n_a, n_b).tobytes() == want


@settings(max_examples=200, deadline=None)
@given(table=code_tables(), rows=st.integers(1, 3))
# 5 rows in blocks of 2: the last block holds one row
@example(table=(np.arange(20).reshape(5, 4) % 3, np.array([0, 1, 1, 0]), 3, 2), rows=2)
def test_batched_mi_equals_the_one_pair_formula(table, rows):
    assert_batched_mi_is_the_one_pair_formula(*table, rows)


def staircase_rows(codes_b, n_a):
    """Code rows whose joint tables against codes_b hold every count of
    nonzero cells a row can reach: the first row puts every sample in bin 0,
    and each next one moves one more sample into a bin its target value has
    not met yet."""
    row = np.zeros(codes_b.size, dtype=np.int64)
    rows, bins_of = [row.copy()], {}
    for i, b in enumerate(codes_b.tolist()):
        if b not in bins_of:
            bins_of[b] = 1  # this value's first sample stays in bin 0
        elif bins_of[b] < n_a:
            row[i] = bins_of[b]
            bins_of[b] += 1
            rows.append(row.copy())
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 300),
    n_a=st.integers(2, 12),
    n_b=st.integers(2, 12),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_mi_equals_the_one_pair_formula_at_every_nonzero_count(n, n_a, n_b, rows, seed):
    rng = np.random.default_rng(seed)
    codes_b = rng.integers(0, rng.integers(1, n_b + 1), size=n)
    codes_a = staircase_rows(codes_b, n_a)
    nonzero = [np.unique(row * n_b + codes_b).size for row in codes_a]
    fewest = np.unique(codes_b).size
    most = sum(min(n_a, c) for c in np.bincount(codes_b))
    assert nonzero == list(range(fewest, most + 1))
    assert_batched_mi_is_the_one_pair_formula(codes_a, codes_b, n_a, n_b, rows)
