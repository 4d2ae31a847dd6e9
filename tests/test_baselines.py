import math

import numpy as np
import pytest
import scipy.stats

from hefs import (
    ConditionalSet,
    DatasetError,
    load_conditional,
    mi_rank_select,
    mutual_information,
    ttest_rank_select,
)
from conftest import make_dataset


# --- ConditionalSet ---------------------------------------------------------


def test_conditional_set_basics():
    cs = ConditionalSet((3, 1, 2), "file")
    assert cs.indices == (3, 1, 2)
    assert cs.size == 3
    assert cs.source == "file"


@pytest.mark.parametrize("indices", [(), (1, 1), (-1,), (0, 2, 0)])
def test_conditional_set_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        ConditionalSet(indices, "file")


# --- mutual-information ranking -----------------------------------------------


def test_mi_rank_orders_by_label_information():
    rng = np.random.default_rng(0)
    labels = np.array([0, 1] * 30)
    exact = labels.astype(float)
    noisy = exact.copy()
    flip = rng.permutation(60)[:12]
    noisy[flip] = 1.0 - noisy[flip]
    constant = np.zeros(60)
    ds = make_dataset(np.column_stack([noisy, exact, constant]), labels)
    cs = mi_rank_select(ds, 3)
    assert cs.indices == (1, 0, 2)
    assert cs.source == "mi"
    assert mi_rank_select(ds, 1).indices == (1,)


def test_mi_rank_breaks_exact_ties_by_lower_index():
    labels = np.array([0, 1] * 20)
    col = labels.astype(float)
    noise = np.zeros(40)
    # columns 1 and 3 are identical, hence exactly tied
    ds = make_dataset(np.column_stack([noise, col, noise + 0.0, col.copy()]), labels)
    assert mi_rank_select(ds, 2).indices == (1, 3)


def test_mi_rank_scores_come_from_the_public_mi():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(80, 5))
    labels = (feats[:, 2] > 0).astype(int)
    ds = make_dataset(feats, labels)
    cs = mi_rank_select(ds, 5, n_bins=6)
    scores = [
        mutual_information(ds.features[:, j], ds.labels.astype(float), 6) for j in range(5)
    ]
    assert list(cs.indices) == sorted(range(5), key=lambda j: (-scores[j], j))


def test_mi_rank_keeps_every_class_apart_with_fewer_bins_than_classes():
    # with 2 bins, binning the 3 class ids would merge classes 1 and 2
    labels = np.array([0, 1, 2] * 20)
    exact = (labels == 2).astype(float)
    noisy = (labels == 0).astype(float)
    flip = np.random.default_rng(0).permutation(60)[:6]
    noisy[flip] = 1.0 - noisy[flip]
    ds = make_dataset(np.column_stack([noisy, exact]), labels)
    assert mi_rank_select(ds, 2, n_bins=2).indices == (1, 0)


def test_mi_rank_validates_m():
    ds = make_dataset(np.zeros((4, 2)), [0, 1, 0, 1])
    for m in (0, 3):
        with pytest.raises(ValueError):
            mi_rank_select(ds, m)


# --- Welch t ranking ------------------------------------------------------------


def test_ttest_rank_frozen_example():
    # class 0: (1, 3) mean 2 var 2; class 1: (7, 7, 9, 9) mean 8 var 4/3
    # t = -6 / sqrt(2/2 + (4/3)/4) = -3 * sqrt(3)
    feats = np.column_stack([[1.0, 3.0, 7.0, 7.0, 9.0, 9.0], np.full(6, 2.0)])
    ds = make_dataset(feats, [0, 0, 1, 1, 1, 1])
    cs = ttest_rank_select(ds, 2)
    assert cs.indices == (0, 1)
    assert cs.source == "ttest"
    t = scipy.stats.ttest_ind([1.0, 3.0], [7.0, 7.0, 9.0, 9.0], equal_var=False).statistic
    assert abs(t) == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-12)


def test_ttest_rank_matches_scipy_ordering():
    rng = np.random.default_rng(9)
    labels = np.repeat([0, 1], 25)
    feats = rng.normal(size=(50, 6))
    feats[:, 1] += labels * 2.0
    feats[:, 4] += labels * 0.7
    ds = make_dataset(feats, labels)
    t = scipy.stats.ttest_ind(
        feats[labels == 0], feats[labels == 1], equal_var=False, axis=0
    ).statistic
    want = tuple(sorted(range(6), key=lambda j: (-abs(t[j]), j)))
    assert ttest_rank_select(ds, 6).indices == want


def test_ttest_rank_zero_variance_scores_zero():
    feats = np.column_stack([np.full(6, 4.0), [0.0, 0.1, 0.2, 1.0, 1.1, 1.2]])
    ds = make_dataset(feats, [0, 0, 0, 1, 1, 1])
    assert ttest_rank_select(ds, 2).indices == (1, 0)


def test_ttest_rank_needs_binary_and_two_per_class():
    three = make_dataset(np.zeros((6, 2)), [0, 1, 2, 0, 1, 2])
    with pytest.raises(DatasetError, match="binary"):
        ttest_rank_select(three, 1)
    thin = make_dataset(np.arange(6, dtype=float)[:, None], [0, 0, 0, 0, 0, 1])
    with pytest.raises(DatasetError, match="at least 2 samples"):
        ttest_rank_select(thin, 1)


# --- conditional set files ---------------------------------------------------------


@pytest.fixture
def named_ds():
    return make_dataset(
        np.zeros((4, 4)),
        [0, 1, 0, 1],
        names=("alpha", "beta", "0", "gamma"),
    )


def _write(tmp_path, text):
    p = tmp_path / "cond.txt"
    p.write_text(text)
    return p


def test_load_conditional_names_indices_and_comments(tmp_path, named_ds):
    p = _write(tmp_path, "# chosen by hand\nbeta\n3  # gamma, by index\n\nalpha\n")
    cs = load_conditional(p, named_ds)
    assert cs.indices == (1, 3, 0)
    assert cs.source == "file"


def test_load_conditional_name_wins_over_index(tmp_path, named_ds):
    # "0" is a feature name here, so it must resolve to column 2, not 0
    p = _write(tmp_path, "0\n")
    assert load_conditional(p, named_ds).indices == (2,)


def test_load_conditional_duplicate_rejected(tmp_path, named_ds):
    p = _write(tmp_path, "alpha\n0\nbeta\n2\n")
    # line 4 resolves "2" by index to the same column as the name "0"
    with pytest.raises(DatasetError, match="line 4.*listed twice"):
        load_conditional(p, named_ds)


def test_load_conditional_unknown_entry(tmp_path, named_ds):
    p = _write(tmp_path, "alpha\nnope\n")
    with pytest.raises(DatasetError, match="line 2: no column named 'nope'"):
        load_conditional(p, named_ds)


def test_load_conditional_index_out_of_range(tmp_path, named_ds):
    p = _write(tmp_path, "9\n")
    with pytest.raises(DatasetError, match="out of range"):
        load_conditional(p, named_ds)


def test_load_conditional_empty_file(tmp_path, named_ds):
    p = _write(tmp_path, "# only comments\n\n")
    with pytest.raises(DatasetError, match="no features listed"):
        load_conditional(p, named_ds)


def test_load_conditional_missing_file(tmp_path, named_ds):
    with pytest.raises(DatasetError, match="not found"):
        load_conditional(tmp_path / "missing.txt", named_ds)
