import os

import numpy as np
import pytest
from hypothesis import strategies as st

import hefs.metrics
from hefs import ConditionalSet, Dataset, FoldAssignment, synth_xor_dataset, zscore_normalize
from hefs.metrics import _sq_distances

# as in hefs.ga, a platform without os.sched_getaffinity counts as one CPU
MULTI_CPU = len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2


def make_dataset(features, labels, names=None, label_values=None) -> Dataset:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if names is None:
        names = tuple(f"f{j}" for j in range(features.shape[1]))
    if label_values is None:
        label_values = tuple(str(v) for v in range(int(labels.max()) + 1))
    return Dataset(features, labels, tuple(names), tuple(label_values))


def write_prototype_csv(path, rng, n, d, n_prototypes):
    """Small-integer rows, each a copy of one of n_prototypes prototypes,
    three string classes: duplicate rows and exact distance ties everywhere."""
    protos = rng.integers(0, 4, size=(n_prototypes, d))
    proto_class = np.arange(n_prototypes) % 3
    which = rng.permutation(np.arange(n) % n_prototypes)
    lines = [",".join([f"c{j}" for j in range(d)] + ["kind"])]
    lines += [",".join(map(str, protos[i])) + f",{'abc'[proto_class[i]]}" for i in which]
    path.write_text("\n".join(lines) + "\n")


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
    rows: exactly rows where the training side is smallest. The pass budget
    never cuts below its row floor, so any number of sets keeps these tiles."""
    min_train = min(folds.train_indices(f).size for f in range(folds.n_folds))
    mp.setattr(hefs.metrics, "_TILE_ELEMENTS", rows * min_train)
    assert rows <= hefs.metrics._MIN_TILE_ROWS
    assert hefs.metrics._tile_rows(min_train, 1) == rows


def tile_blocks(ds, cols, folds, n_sets):
    """Each fold's _sq_distances(x[test], x[train]) over cols, cut into the row
    blocks the library's tile rule gives a pass of n_sets sets: the matrices a
    k-NN pass votes on."""
    x = ds.features[:, cols]
    blocks = []
    for f in range(folds.n_folds):
        test, train = folds.test_indices(f), folds.train_indices(f)
        full = _sq_distances(x[test], x[train])
        step = hefs.metrics._tile_rows(train.size, n_sets)
        blocks += [full[lo : lo + step] for lo in range(0, test.size, step)]
    return blocks


def pass_rows(ds, folds, col_sets):
    """The bytes of every distance row a k-NN pass over col_sets votes on, in
    its order: fold by fold, tile by tile, set by set, row by row."""
    blocks = [tile_blocks(ds, cols, folds, len(col_sets)) for cols in col_sets]
    return [row.tobytes() for t in range(len(blocks[0])) for tiles in blocks for row in tiles[t]]


def record_votes(mp):
    """Patch hefs.metrics._knn_from_d2 to keep the bytes of every distance row
    it votes on, in order; returns the list they are appended to. A call may
    vote several sets' rows at once, so rows are what a pass is checked by."""
    knn, voted = hefs.metrics._knn_from_d2, []

    def recording_knn(d2, *args):
        voted.extend(row.tobytes() for row in d2)
        return knn(d2, *args)

    mp.setattr(hefs.metrics, "_knn_from_d2", recording_knn)
    return voted


def mi_oracle(codes_a, codes_b, n_a, n_b):
    """Plug-in MI in nats of one pair of code vectors, computed on its own
    (n_a, n_b) table: the per-pair formula a batched MI must match bit for bit."""
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


def kth_oracle(dist, row, n_rows, k_eff):
    """Each of n_rows rows' k_eff-th smallest value of dist, whose i-th value
    lies in row row[i] (ascending, at least k_eff values per row), from one
    sort of every value by (row, value): the form a padded partition must
    match bit for bit."""
    n_vals = np.bincount(row, minlength=n_rows)
    return dist[np.lexsort((dist, row))[np.cumsum(n_vals) - n_vals + (k_eff - 1)]]


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
