import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hefs.metrics import _fold_votes, _knn_from_d2, _sq_distances, equal_width_bins
from conftest import (
    force_tile_rows,
    make_dataset,
    record_votes,
    tie_heavy_datasets,
    tile_blocks,
)


# --- reference implementations used as oracles ------------------------------


def oracle_knn(train_x, train_y, query, k, n_classes):
    """Slow nearest-neighbor vote with the documented tie rules.

    Distances accumulate per column in the same order as production code so
    exact ties agree; neighbors sort by (distance, training position) and a
    vote tie goes to the lowest class id. Returns (prediction, class-1 share).
    """
    k_eff = min(k, len(train_x))
    d2 = []
    for pos, row in enumerate(train_x):
        acc = 0.0
        for a, b in zip(query, row):
            diff = float(a) - float(b)
            acc += diff * diff
        d2.append((acc, pos))
    neighbors = [pos for _, pos in sorted(d2)[:k_eff]]
    counts = [0] * n_classes
    for pos in neighbors:
        counts[int(train_y[pos])] += 1
    pred = max(range(n_classes), key=lambda c: (counts[c], -c))
    share = counts[1] / k_eff if n_classes >= 2 else 0.0
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
    # the references vote untiled: these folds fit in one tile at the default size
    want = [full_metrics(ds, [*base, *extra], [()], folds, k)[0] for extra in sets]
    want_votes = _fold_votes(ds, folds, k, base, sets)
    with pytest.MonkeyPatch.context() as mp:
        force_tile_rows(mp, folds, rows)
        voted = record_votes(mp)
        got = full_metrics(ds, base, sets, folds, k)
        cache = {}
        cached = _fold_votes(ds, folds, k, base, sets, d2_cache=cache)
        blocks = [tile_blocks(ds, [*base, *extra], folds) for extra in sets]
    for extra, m, w in zip(sets, got, want):
        assert m == w
        assert m.accuracy == cv_accuracy(ds, [*base, *extra], folds, k)
    assert sorted(cache) == sorted({*base, *h1, *h2})
    for got_votes, want_arr in zip(cached, want_votes):
        np.testing.assert_array_equal(got_votes, want_arr)
    # both passes vote fold by fold, tile by tile, set by set, each time on
    # the row block of _sq_distances over base + extra, bit for bit
    per_pass = [tiles[t].tobytes() for t in range(len(blocks[0])) for tiles in blocks]
    assert voted == per_pass * 2


def test_uncached_pass_holds_less_than_one_fold_matrix():
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
