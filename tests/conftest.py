import numpy as np
import pytest
from hypothesis import strategies as st

import hefs.metrics
from hefs import ConditionalSet, Dataset, FoldAssignment, synth_xor_dataset, zscore_normalize
from hefs.metrics import _sq_distances


def make_dataset(features, labels, names=None, label_values=None) -> Dataset:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if names is None:
        names = tuple(f"f{j}" for j in range(features.shape[1]))
    if label_values is None:
        label_values = tuple(str(v) for v in range(int(labels.max()) + 1))
    return Dataset(features, labels, tuple(names), tuple(label_values))


@st.composite
def tie_heavy_datasets(draw):
    """(dataset, folds) whose rows copy a few prototypes over small levels.

    Exact distance ties and duplicate rows are everywhere; the level scale
    makes some sums inexact, so a change in summation order would show. 2-4
    classes, 2-4 folds of any class mix.
    """
    n_classes = draw(st.integers(2, 4))
    n_folds = draw(st.integers(2, 4))
    n = draw(st.integers(max(n_classes, n_folds), 24))
    d = draw(st.integers(2, 6))
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    levels = st.integers(0, draw(st.integers(1, 3)))
    protos = draw(st.lists(st.lists(levels, min_size=d, max_size=d), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(protos), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    labels[:n_classes] = range(n_classes)  # every class occurs
    fold_of = draw(st.permutations([i % n_folds for i in range(n)]))
    ds = make_dataset(np.array(rows) * scale, labels)
    return ds, FoldAssignment(np.array(fold_of), n_folds)


def force_tile_rows(mp, folds, rows):
    """Patch the tile constant so every fold votes in tiles of 1..rows test
    rows: exactly rows where the training side is smallest."""
    min_train = min(folds.train_indices(f).size for f in range(folds.n_folds))
    mp.setattr(hefs.metrics, "_TILE_ELEMENTS", rows * min_train)


def tile_blocks(ds, cols, folds):
    """Each fold's _sq_distances(x[test], x[train]) over cols, cut into the row
    blocks of the current tile constant: the matrices a k-NN pass votes on."""
    x = ds.features[:, cols]
    blocks = []
    for f in range(folds.n_folds):
        test, train = folds.test_indices(f), folds.train_indices(f)
        full = _sq_distances(x[test], x[train])
        step = max(1, hefs.metrics._TILE_ELEMENTS // train.size)
        blocks += [full[lo : lo + step] for lo in range(0, test.size, step)]
    return blocks


def record_votes(mp):
    """Patch hefs.metrics._knn_from_d2 to keep the bytes of every matrix it
    votes on; returns the list they are appended to."""
    knn, voted = hefs.metrics._knn_from_d2, []

    def recording_knn(d2, *args):
        voted.append(d2.tobytes())
        return knn(d2, *args)

    mp.setattr(hefs.metrics, "_knn_from_d2", recording_knn)
    return voted


@pytest.fixture
def dataset_factory():
    return make_dataset


@pytest.fixture(scope="session")
def xor_ds() -> Dataset:
    # 400 x 20, noise-free: f0 xor f1 decides the label, f2.. are coin flips
    return zscore_normalize(synth_xor_dataset(400, 20, 0.0, np.random.default_rng(0)))


@pytest.fixture(scope="session")
def cond_f0() -> ConditionalSet:
    return ConditionalSet((0,), "file")


@pytest.fixture(scope="session")
def perfect_ds() -> Dataset:
    # column 0 equals the label; everything else is constant and therefore
    # contributes nothing to distances after normalization
    rows = 30
    labels = np.array([i % 2 for i in range(rows)], dtype=np.int64)
    features = np.zeros((rows, 5))
    features[:, 0] = labels
    features[:, 1:] = 7.5
    return zscore_normalize(make_dataset(features, labels))
