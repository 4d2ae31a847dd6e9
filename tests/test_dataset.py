import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hefs import (
    ClusterReduction,
    Dataset,
    DatasetError,
    FoldAssignment,
    leader_cluster,
    load_csv,
    reduce_dataset,
    stratified_kfold,
    synth_xor_dataset,
    zscore_normalize,
)
from conftest import make_dataset


# --- Dataset construction -------------------------------------------------


def test_dataset_basic_properties():
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0, 1, 0])
    assert (ds.n, ds.d, ds.n_classes) == (3, 2, 2)
    assert ds.features.dtype == np.float64
    assert ds.labels.dtype == np.int64
    assert ds.feature_names == ("f0", "f1")
    assert ds.label_values == ("0", "1")


def test_dataset_is_immutable():
    ds = make_dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


@pytest.mark.parametrize(
    "features,labels,names,values",
    [
        ([[1.0]], [0], ("a",), ("0",)),  # single sample
        ([[1.0], [np.nan]], [0, 1], ("a",), ("0", "1")),  # non-finite
        ([[1.0], [2.0]], [0], ("a",), ("0",)),  # label count mismatch
        ([[1.0, 2.0], [3.0, 4.0]], [0, 1], ("a",), ("0", "1")),  # name count
        ([[1.0, 2.0], [3.0, 4.0]], [0, 1], ("a", "a"), ("0", "1")),  # dup names
        ([[1.0], [2.0]], [0, 2], ("a",), ("0", "1")),  # label out of range
        ([[1.0], [2.0]], [0, 0], ("a",), ("0", "1")),  # class 1 never occurs
    ],
)
def test_dataset_rejects_bad_input(features, labels, names, values):
    with pytest.raises(DatasetError):
        Dataset(np.asarray(features, float), np.asarray(labels), names, values)


# --- CSV loading ----------------------------------------------------------


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_by_name(tmp_path):
    p = _write(tmp_path, "a,b,y\n1,2,yes\n3,4,no\n5,6,yes\n")
    ds = load_csv(p, "y")
    assert ds.feature_names == ("a", "b")
    assert ds.label_values == ("yes", "no")
    assert ds.labels.tolist() == [0, 1, 0]
    np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_by_index(tmp_path):
    p = _write(tmp_path, "a,b,c\n1,0,2\n3,1,4\n")
    ds = load_csv(p, 1)
    assert ds.feature_names == ("a", "c")
    np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])
    assert ds.label_values == ("0", "1")


def test_load_csv_name_wins_over_index(tmp_path):
    # a column literally named "0" must resolve by name, not position
    p = _write(tmp_path, "x,0\n1,p\n2,q\n")
    ds = load_csv(p, "0")
    assert ds.feature_names == ("x",)
    assert ds.label_values == ("p", "q")


def test_load_csv_numeric_string_label_column(tmp_path):
    # no header named "2", so the string falls back to a column index
    p = _write(tmp_path, "a,b,c\n1,2,u\n3,4,v\n")
    ds = load_csv(p, "2")
    assert ds.label_values == ("u", "v")


def test_load_csv_label_codes_follow_first_appearance(tmp_path):
    p = _write(tmp_path, "a,y\n1,z\n2,m\n3,z\n4,q\n")
    ds = load_csv(p, "y")
    assert ds.label_values == ("z", "m", "q")
    assert ds.labels.tolist() == [0, 1, 0, 2]


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        load_csv(tmp_path / "nope.csv", "y")


def test_load_csv_unknown_label_column(tmp_path):
    p = _write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(DatasetError, match="no column named 'z'"):
        load_csv(p, "z")


def test_load_csv_label_index_out_of_range(tmp_path):
    p = _write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(DatasetError, match="out of range"):
        load_csv(p, 5)


def test_load_csv_duplicate_header(tmp_path):
    p = _write(tmp_path, "a,a,y\n1,2,u\n3,4,v\n")
    with pytest.raises(DatasetError, match="duplicate column names"):
        load_csv(p, "y")


def test_load_csv_ragged_row(tmp_path):
    p = _write(tmp_path, "a,b,y\n1,2,u\n3,4\n")
    with pytest.raises(DatasetError, match="row 3 has 2 cells, expected 3"):
        load_csv(p, "y")


def test_load_csv_unparsable_cell_names_row_and_column(tmp_path):
    p = _write(tmp_path, "a,b,y\n1,2,u\n1,oops,v\n")
    with pytest.raises(DatasetError, match=r"row 3, column 'b'.*'oops'"):
        load_csv(p, "y")


@pytest.mark.parametrize(
    "bad_row, fault",
    [("3,4", "row 4 has 2 cells, expected 3"),
     ("3,oops,v", "row 4, column 'b': cannot parse 'oops'"),
     ("3,nan,v", "row 4, column 'b': non-finite value 'nan'")],
)
def test_load_csv_names_the_file_line_below_a_blank_line(tmp_path, bad_row, fault):
    p = _write(tmp_path, f"a,b,y\n1,2,u\n\n{bad_row}\n5,6,v\n")
    with pytest.raises(DatasetError, match=re.escape(f"{p}: {fault}")):
        load_csv(p, "y")


def test_load_csv_single_class(tmp_path):
    p = _write(tmp_path, "a,y\n1,u\n2,u\n")
    with pytest.raises(DatasetError, match="single class"):
        load_csv(p, "y")


def test_load_csv_header_only(tmp_path):
    p = _write(tmp_path, "a,b,y\n")
    with pytest.raises(DatasetError, match="header row and at least one data row"):
        load_csv(p, "y")


# --- z-score normalization -------------------------------------------------


def test_zscore_frozen_example():
    # column (1, 2, 3): mean 2, population std sqrt(2/3)
    ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
    out = zscore_normalize(ds)
    expected = math.sqrt(1.5)  # (3 - 2) / sqrt(2/3)
    np.testing.assert_allclose(out.features[:, 0], [-expected, 0.0, expected], atol=1e-15)


def test_zscore_constant_column_becomes_zero():
    ds = make_dataset([[5.0, 1.0], [5.0, 3.0]], [0, 1])
    out = zscore_normalize(ds)
    np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0])


@given(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=2, max_size=40))
def test_zscore_mean_zero_unit_variance(values):
    col = np.asarray(values, dtype=np.float64)
    ds = make_dataset(col[:, None], [i % 2 for i in range(col.size)])
    out = zscore_normalize(ds).features[:, 0]
    if np.ptp(col) > 0:
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9
    else:
        np.testing.assert_array_equal(out, 0.0)


# --- stratified folds -------------------------------------------------------


def test_stratified_kfold_balanced_classes_land_one_per_fold():
    labels = [0, 1, 2, 3, 4] * 5
    ds = make_dataset(np.arange(25, dtype=float)[:, None], labels)
    folds = stratified_kfold(ds, 5, np.random.default_rng(0))
    for f in range(5):
        test_labels = ds.labels[folds.test_indices(f)]
        assert sorted(test_labels.tolist()) == [0, 1, 2, 3, 4]


def test_stratified_kfold_counts_differ_by_at_most_one():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=53)
    while np.bincount(labels, minlength=3).min() < 4:
        labels = rng.integers(0, 3, size=53)
    ds = make_dataset(rng.normal(size=(53, 2)), labels)
    folds = stratified_kfold(ds, 4, rng)
    for c in range(3):
        per_fold = [
            int(np.sum(ds.labels[folds.test_indices(f)] == c)) for f in range(4)
        ]
        assert max(per_fold) - min(per_fold) <= 1


def test_stratified_kfold_is_a_partition():
    ds = make_dataset(np.random.default_rng(1).normal(size=(30, 2)), [0, 1] * 15)
    folds = stratified_kfold(ds, 3, np.random.default_rng(2))
    seen = np.concatenate([folds.test_indices(f) for f in range(3)])
    assert sorted(seen.tolist()) == list(range(30))
    train = folds.train_indices(0)
    test = folds.test_indices(0)
    assert np.intersect1d(train, test).size == 0
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)


def test_stratified_kfold_small_class_is_an_error():
    ds = make_dataset(np.arange(6, dtype=float)[:, None], [0, 0, 0, 0, 0, 1])
    with pytest.raises(DatasetError, match="class '1' has 1 samples"):
        stratified_kfold(ds, 2, np.random.default_rng(0))


def test_fold_assignment_rejects_empty_fold():
    with pytest.raises(DatasetError, match="non-empty"):
        FoldAssignment(np.array([0, 0, 0]), 2)


def test_stratified_kfold_seeded_determinism():
    ds = make_dataset(np.random.default_rng(5).normal(size=(40, 3)), [0, 1] * 20)
    a = stratified_kfold(ds, 5, np.random.default_rng(9))
    b = stratified_kfold(ds, 5, np.random.default_rng(9))
    np.testing.assert_array_equal(a.fold_of, b.fold_of)


# --- cosine distance ---------------------------------------------------------


def cosine_distance(x, y):
    """Scalar oracle for the distance leader_cluster vectorises: 1 minus the
    cosine of the angle between x and y, in [0, 2]. A zero-norm vector has no
    direction; its distance to anything is the neutral value 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = math.sqrt(float(x @ x))
    ny = math.sqrt(float(y @ y))
    if nx == 0.0 or ny == 0.0:
        return 1.0
    cos = float(x @ y) / (nx * ny)
    return 1.0 - min(1.0, max(-1.0, cos))


def test_cosine_distance_frozen_values():
    assert cosine_distance([1.0, 0.0], [2.0, 0.0]) == 0.0
    assert cosine_distance([1.0, 0.0], [0.0, 3.0]) == 1.0
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0
    assert cosine_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
        1.0 - 1.0 / math.sqrt(2.0), rel=1e-15
    )


def test_cosine_distance_zero_vector_is_neutral():
    assert cosine_distance([0.0, 0.0], [1.0, 2.0]) == 1.0
    assert cosine_distance([1.0, 2.0], [0.0, 0.0]) == 1.0
    assert cosine_distance([0.0], [0.0]) == 1.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=6),
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=6),
)
def test_cosine_distance_symmetric_and_bounded(xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.asarray(xs[:n]), np.asarray(ys[:n])
    d = cosine_distance(x, y)
    assert d == cosine_distance(y, x)
    assert 0.0 <= d <= 2.0


def test_cosine_distance_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert cosine_distance(x, y) == pytest.approx(cosine_distance(3.0 * x, 0.5 * y), abs=1e-12)


# --- leader clustering --------------------------------------------------------


def _direction_blobs(rng, n_per, dirs, jitter=0.01):
    rows, labels = [], []
    for c, base in enumerate(dirs):
        base = np.asarray(base, float)
        for _ in range(n_per):
            rows.append(base + rng.normal(scale=jitter, size=base.size))
            labels.append(c % 2)
    return np.asarray(rows), labels


def test_leader_cluster_two_tight_directions():
    rng = np.random.default_rng(0)
    rows, labels = _direction_blobs(rng, 20, [(5.0, 0.0), (0.0, 5.0)])
    ds = make_dataset(rows, labels)
    red = leader_cluster(ds, 0.1, np.random.default_rng(1))
    assert red.n_clusters == 2
    # members of one cluster all share a direction
    for c in range(2):
        members = np.flatnonzero(red.member_of == c)
        dominant = np.argmax(np.abs(rows[members]), axis=1)
        assert len(set(dominant.tolist())) == 1


def test_leader_cluster_every_member_within_delta_of_some_representative():
    # the guarantee is against the founding leader; with tight blobs the
    # representative inherits it, which is what reduction consumers rely on
    rng = np.random.default_rng(42)
    dirs = [tuple(3.0 * np.eye(6)[c]) for c in range(5)]
    rows, labels = _direction_blobs(rng, 100, dirs, jitter=0.001)
    ds = make_dataset(rows, labels)
    delta = 0.1
    red = leader_cluster(ds, delta, np.random.default_rng(7))
    assert red.member_of.size == ds.n
    for c, rep in enumerate(red.representative_indices):
        members = np.flatnonzero(red.member_of == c)
        assert rep in members
        for i in members:
            assert cosine_distance(ds.features[i], ds.features[rep]) < delta


def test_leader_cluster_delta_two_is_one_cluster():
    ds = make_dataset(np.random.default_rng(0).normal(size=(12, 3)), [0, 1] * 6)
    red = leader_cluster(ds, 2.0, np.random.default_rng(0))
    # joining needs distance strictly below 2; only exactly opposite
    # directions miss that, and random normals never are
    assert red.n_clusters == 1


def test_leader_cluster_rejects_bad_delta():
    ds = make_dataset([[1.0], [2.0]], [0, 1])
    for delta in (0.0, -1.0, 2.5):
        with pytest.raises(DatasetError):
            leader_cluster(ds, delta, np.random.default_rng(0))


def test_leader_cluster_deterministic_under_seed():
    ds = make_dataset(np.random.default_rng(3).normal(size=(40, 4)), [0, 1] * 20)
    a = leader_cluster(ds, 0.3, np.random.default_rng(11))
    b = leader_cluster(ds, 0.3, np.random.default_rng(11))
    assert a.representative_indices == b.representative_indices
    np.testing.assert_array_equal(a.member_of, b.member_of)


def test_reduce_dataset_keeps_representatives():
    rng = np.random.default_rng(0)
    rows, _ = _direction_blobs(rng, 10, [(3.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 0.0, 3.0)])
    # one blob per class id keeps every class alive however reps are drawn
    labels = [0] * 10 + [1] * 10 + [0] * 10
    ds = make_dataset(rows, labels)
    red = leader_cluster(ds, 0.1, np.random.default_rng(2))
    small = reduce_dataset(ds, red)
    assert small.n == red.n_clusters
    for row_out, rep in zip(small.features, red.representative_indices):
        np.testing.assert_array_equal(row_out, ds.features[rep])
    assert small.feature_names == ds.feature_names


def test_reduce_dataset_refuses_to_drop_a_class():
    # both samples share a direction, so delta=2 gives one cluster and the
    # surviving representative can only carry one of the two classes
    ds = make_dataset([[1.0, 0.0], [2.0, 0.0], [1.5, 0.0]], [0, 0, 1])
    red = leader_cluster(ds, 1.5, np.random.default_rng(0))
    assert red.n_clusters == 1
    with pytest.raises(DatasetError, match="removed every sample of class"):
        reduce_dataset(ds, red)


def test_cluster_reduction_validates_ids():
    with pytest.raises(DatasetError):
        ClusterReduction(representative_indices=(0,), member_of=np.array([0, 1]))


# --- synthetic parity dataset ---------------------------------------------------


def test_synth_xor_labels_follow_the_two_bits():
    ds = synth_xor_dataset(200, 8, 0.0, np.random.default_rng(0))
    f0 = ds.features[:, 0].astype(int)
    f1 = ds.features[:, 1].astype(int)
    np.testing.assert_array_equal(ds.labels, f0 ^ f1)
    assert ds.d == 8
    assert ds.feature_names == tuple(f"f{i}" for i in range(8))


def test_synth_xor_noise_flips_labels():
    rng0 = np.random.default_rng(5)
    clean = synth_xor_dataset(300, 4, 0.0, np.random.default_rng(5))
    noisy = synth_xor_dataset(300, 4, 0.2, rng0)
    f0 = noisy.features[:, 0].astype(int)
    f1 = noisy.features[:, 1].astype(int)
    flipped = int(np.sum((f0 ^ f1) != noisy.labels))
    assert 0 < flipped < 300
    np.testing.assert_array_equal(clean.features[:, :2], noisy.features[:, :2])


def test_synth_xor_deterministic_per_seed():
    a = synth_xor_dataset(100, 6, 0.1, np.random.default_rng(9))
    b = synth_xor_dataset(100, 6, 0.1, np.random.default_rng(9))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.parametrize("n,d,noise", [(0, 4, 0.0), (9, 4, 0.0), (10, 1, 0.0), (10, 4, 1.5)])
def test_synth_xor_rejects_bad_arguments(n, d, noise):
    with pytest.raises(ValueError):
        synth_xor_dataset(n, d, noise, np.random.default_rng(0))
