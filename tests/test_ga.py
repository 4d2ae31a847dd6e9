import importlib.util
import json
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hefs.ga
import hefs.metrics
from hefs import (
    ConditionalSet,
    ConfigError,
    FitnessEvaluator,
    GAConfig,
    Individual,
    best_helper_set,
    cv_accuracy,
    hefs_run,
    mi_rank_select,
    mutual_information,
    ratio_guided_mutation,
    run_fold_assignment,
    selection,
    selective_activation_init,
    single_point_crossover,
    synth_xor_dataset,
    zscore_normalize,
)
from hefs.ga import (
    biased_ratio,
    complementarity_score,
    residual_feature_indices,
)
from hefs.cli import report_canonical_bytes, run
from hefs.metrics import equal_width_bins
from hefs.moo import FitnessPair
from conftest import (
    MULTI_CPU,
    force_tile_rows,
    make_dataset,
    mi_oracle,
    pass_rows,
    record_votes,
    tie_heavy_datasets,
    write_prototype_csv,
)


def small_xor(seed=3, n=80, d=6):
    return zscore_normalize(synth_xor_dataset(n, d, 0.0, np.random.default_rng(seed)))


FAST = dict(pop_size=6, generations=5)


# --- configuration ------------------------------------------------------------


def test_config_defaults_are_the_tuned_values():
    cfg = GAConfig()
    assert (cfg.r_min, cfg.r_max, cfg.scaler) == (0.05, 0.3, 5.0)
    assert (cfg.pop_size, cfg.generations) == (30, 100)
    assert (cfg.knn_k, cfg.n_folds, cfg.n_bins) == (5, 5, 10)
    assert (cfg.crossover_prob, cfg.ratio_eps, cfg.cluster_delta) == (0.9, 0.01, 0.1)
    assert not cfg.constant_bias and not cfg.merge_initial_front


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r_min=0.0),
        dict(r_min=0.4, r_max=0.3),
        dict(r_max=1.5),
        dict(scaler=0.0),
        dict(pop_size=1),
        dict(generations=0),
        dict(ratio_eps=0.0),
        dict(ratio_eps=1.0),
        dict(cluster_delta=0.0),
        dict(cluster_delta=2.5),
        dict(knn_k=0),
        dict(n_folds=1),
        dict(n_bins=1),
        dict(crossover_prob=1.5),
        dict(seed=-1),
    ],
)
def test_config_validate_rejects(kwargs):
    # the message starts with the fields at fault
    with pytest.raises(ConfigError, match=rf"^[a-z_ ]*\b{next(iter(kwargs))} "):
        GAConfig(**kwargs)


def test_residual_indices_skip_the_conditional_set():
    cond = ConditionalSet((4, 1), "file")
    assert residual_feature_indices(6, cond) == (0, 2, 3, 5)
    with pytest.raises(ConfigError, match="references feature"):
        residual_feature_indices(4, ConditionalSet((9,), "file"))
    with pytest.raises(ConfigError, match="nothing to search"):
        residual_feature_indices(2, ConditionalSet((0, 1), "file"))


# --- biased ratio sampling -------------------------------------------------------


def test_biased_ratio_stays_in_bounds_and_leans_low():
    cfg = GAConfig()
    rng = np.random.default_rng(0)
    draws = np.array([biased_ratio(cfg, rng) for _ in range(2000)])
    assert draws.min() >= cfg.r_min
    assert draws.max() <= cfg.r_max
    assert draws.mean() < (cfg.r_min + cfg.r_max) / 2.0
    assert np.unique(draws).size > 1000  # a live distribution, not a constant


def test_biased_ratio_constant_variant_is_the_fixed_point():
    cfg = GAConfig(constant_bias=True)
    expected = cfg.r_min + (cfg.r_max - cfg.r_min) * math.exp(-cfg.scaler)
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert biased_ratio(cfg, rng) == expected
    assert expected == pytest.approx(0.051684486749771365, rel=1e-15)


def test_biased_ratio_constant_variant_still_consumes_one_draw():
    cfg = GAConfig(constant_bias=True)
    rng_a = np.random.default_rng(42)
    biased_ratio(cfg, rng_a)
    rng_b = np.random.default_rng(42)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_biased_ratio_degenerate_interval():
    cfg = GAConfig(r_min=0.2, r_max=0.2)
    assert biased_ratio(cfg, np.random.default_rng(0)) == 0.2


# --- complementarity -----------------------------------------------------------


def test_complementarity_frozen_example():
    assert complementarity_score([0.2, 0.4]) == pytest.approx(0.25, rel=1e-12)


def test_complementarity_edge_cases():
    assert complementarity_score([0.0, 0.0, 0.0]) == 1.0
    assert complementarity_score([0.7]) == 0.0  # mean equals max
    assert complementarity_score([0.5, 0.5]) == 0.0
    with pytest.raises(ValueError):
        complementarity_score([])


def test_complementarity_rewards_spread():
    tight = complementarity_score([0.39, 0.4, 0.41])
    spread = complementarity_score([0.01, 0.02, 0.41])
    assert 0.0 <= tight < spread <= 1.0


# --- genomes and initialization ----------------------------------------------------


def test_individual_popcount_and_copy():
    ind = Individual(np.array([True, False, True]))
    assert ind.popcount == 2
    assert ind.fitness is None
    with pytest.raises(ValueError):
        Individual(np.zeros(0, dtype=bool))


def test_selective_activation_init_shapes_and_bounds():
    cfg = GAConfig(pop_size=40)
    pop = selective_activation_init(25, cfg, np.random.default_rng(0))
    assert len(pop) == 40
    cap = max(1, math.floor(25 * cfg.r_max))
    for ind in pop:
        assert ind.mask.size == 25
        assert 1 <= ind.popcount <= cap
        assert ind.fitness is None


def test_selective_activation_init_single_position():
    pop = selective_activation_init(1, GAConfig(pop_size=5), np.random.default_rng(0))
    assert all(ind.mask.tolist() == [True] for ind in pop)


def test_selective_activation_init_is_seeded():
    cfg = GAConfig(pop_size=10)
    a = selective_activation_init(12, cfg, np.random.default_rng(7))
    b = selective_activation_init(12, cfg, np.random.default_rng(7))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.mask, y.mask)
    with pytest.raises(ConfigError):
        selective_activation_init(0, cfg, np.random.default_rng(0))


# --- fitness evaluation --------------------------------------------------------------


def test_evaluator_composes_public_accuracy_and_mi():
    ds = small_xor()
    cond = ConditionalSet((0, 2), "file")
    cfg = GAConfig(**FAST)
    folds = run_fold_assignment(ds, cfg)
    ev = FitnessEvaluator(ds, cond, folds, cfg)
    residual = residual_feature_indices(ds.d, cond)

    mask = np.zeros(len(residual), dtype=bool)
    mask[[0, 2]] = True
    helpers = [residual[0], residual[2]]
    fit = ev.evaluate(Individual(mask))

    assert fit.accuracy == cv_accuracy(ds, [*cond.indices, *helpers], folds, cfg.knn_k)
    cross = [
        mutual_information(ds.features[:, h], ds.features[:, c], cfg.n_bins)
        for h in helpers
        for c in cond.indices
    ]
    assert fit.complementarity == complementarity_score(cross)


def test_evaluator_memoizes_by_mask():
    ds = small_xor()
    cfg = GAConfig(**FAST)
    ev = FitnessEvaluator(ds, ConditionalSet((0,), "file"), run_fold_assignment(ds, cfg), cfg)
    a = Individual(np.array([True, False, True, False, False]))
    b = Individual(a.mask.copy())
    assert ev.evaluate(a) is ev.evaluate(b)
    assert b.fitness is a.fitness


def test_evaluator_accuracy_equals_cv_accuracy_bit_for_bit():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng.normal(size=(60, 8)), rng.integers(0, 2, size=60))
    cond = ConditionalSet((1, 4), "file")
    cfg = GAConfig(**FAST)
    folds = run_fold_assignment(ds, cfg)
    ev = FitnessEvaluator(ds, cond, folds, cfg)
    residual = residual_feature_indices(ds.d, cond)
    for _ in range(20):
        mask = rng.random(len(residual)) < 0.4
        if not mask.any():
            mask[0] = True
        fit = ev.evaluate(Individual(mask))
        helpers = [residual[i] for i in np.flatnonzero(mask)]
        cols = [*cond.indices, *helpers]
        assert fit.accuracy == cv_accuracy(ds, cols, folds, cfg.knn_k)


def test_evaluator_pass_holds_tile_buffers_only():
    # a generation's pass keeps tile-sized buffers for its sets and nothing
    # that grows with n squared, whatever columns the genomes hold
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(1500, 6)), rng.integers(0, 2, 1500))
    cfg = GAConfig()
    folds = run_fold_assignment(ds, cfg)
    ev = FitnessEvaluator(ds, ConditionalSet((0, 1), "file"), folds, cfg)
    masks = [[1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]]
    population = [Individual(np.array(m, dtype=bool)) for m in masks]
    fold_bytes = min(
        folds.test_indices(f).size * folds.train_indices(f).size * 8 for f in range(folds.n_folds)
    )
    tracemalloc.start()
    try:
        ev.evaluate_population(population)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(ind.fitness is not None for ind in population)
    assert peak < 2 * fold_bytes


@pytest.mark.parametrize("n_genomes", [8, 64])
def test_evaluator_pass_stays_within_its_memory_bound(n_genomes):
    # the tile buffers share the pass budget until the row floor binds; the
    # rest is one k-NN chunk's working copies, the fold gathers of the columns
    # read and the (sets, n) outputs
    rng = np.random.default_rng(0)
    n, d = 1500, 12
    ds = make_dataset(rng.normal(size=(n, d)), rng.integers(0, 2, n))
    cfg = GAConfig()
    folds = run_fold_assignment(ds, cfg)
    ev = FitnessEvaluator(ds, ConditionalSet((0, 1), "file"), folds, cfg)
    masks = {}
    while len(masks) < n_genomes:
        m = rng.random(d - 2) < 0.5
        if m.any():
            masks[m.tobytes()] = m
    population = [Individual(m) for m in masks.values()]
    train = max(folds.train_indices(f).size for f in range(folds.n_folds))
    floor = hefs.metrics._MIN_TILE_ROWS
    tiles = 8 * max(hefs.metrics._PASS_ELEMENTS, (1 + n_genomes) * floor * train)
    knn = 2 * 8 * max(hefs.metrics._TILE_ELEMENTS, train)
    gathers, outputs = 8 * n * d, 16 * n_genomes * n
    tracemalloc.start()
    try:
        ev.evaluate_population(population)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(ind.fitness is not None for ind in population)
    assert peak < tiles + knn + gathers + outputs


def per_pair_mi_table(ds, residual, conditional, n_bins):
    """Residual x conditional MI, one oracle call per column pair."""
    codes = [equal_width_bins(col, n_bins) for col in ds.features.T]
    return np.array(
        [[mi_oracle(codes[h], codes[s], n_bins, n_bins) for s in conditional] for h in residual]
    )


@settings(max_examples=60, deadline=None)
@given(case=tie_heavy_datasets(), n_bins=st.integers(2, 12), data=st.data())
def test_cross_mi_table_equals_the_per_pair_formula(case, n_bins, data):
    ds, folds = case
    order = data.draw(st.permutations(range(ds.d)))
    cond = ConditionalSet(tuple(order[: data.draw(st.integers(1, ds.d - 1))]), "file")
    ev = FitnessEvaluator(ds, cond, folds, GAConfig(n_bins=n_bins))
    want = per_pair_mi_table(ds, ev.residual, cond.indices, n_bins)
    assert ev._cross_mi.tobytes() == want.tobytes()


@pytest.mark.parametrize("indices", [(0,), (1, 0), (5, 0, 19, 1)])
def test_cross_mi_table_on_xor_data_equals_the_per_pair_formula(xor_ds, indices):
    cfg = GAConfig()
    cond = ConditionalSet(indices, "file")
    ev = FitnessEvaluator(xor_ds, cond, run_fold_assignment(xor_ds, cfg), cfg)
    want = per_pair_mi_table(xor_ds, ev.residual, indices, cfg.n_bins)
    assert ev._cross_mi.tobytes() == want.tobytes()


def traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, over one call of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mi_tables_peak_within_three_feature_matrices():
    # the paper-shaped proxy: 200 x 2000 Gaussian rows, the label the sign of
    # the first 10 columns' sum plus noise, an MI conditional set of 20. Codes
    # are binned into one array and counted in blocks, so neither the MI
    # ranking nor the evaluator's residual x conditional table holds more than
    # a few copies of the feature matrix
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2000))
    ds = make_dataset(x, (x[:, :10].sum(axis=1) + rng.normal(size=200) > 0).astype(int))
    cfg = GAConfig()
    folds = run_fold_assignment(ds, cfg)
    cond = mi_rank_select(ds, 20)
    assert traced_peak(mi_rank_select, ds, 20) <= 3 * ds.features.nbytes
    assert traced_peak(FitnessEvaluator, ds, cond, folds, cfg) <= 3 * ds.features.nbytes


@st.composite
def evaluation_cases(draw):
    """A tie-heavy dataset, a conditional set, k up to n, and a batch of
    helper masks holding a single-column mask and a repeated mask."""
    ds, folds = draw(tie_heavy_datasets())
    order = draw(st.permutations(range(ds.d)))
    cond = ConditionalSet(tuple(order[: draw(st.integers(1, ds.d - 1))]), "file")
    r = ds.d - cond.size
    masks = draw(
        st.lists(st.lists(st.booleans(), min_size=r, max_size=r).filter(any), min_size=1, max_size=4)
    )
    single = [False] * r
    single[draw(st.integers(0, r - 1))] = True
    masks = masks + [single, draw(st.sampled_from(masks))]
    cfg = GAConfig(knn_k=draw(st.integers(1, ds.n)), n_folds=folds.n_folds)
    return ds, cond, folds, cfg, [np.array(m) for m in masks]


@pytest.mark.parametrize("tiled", [True, False])
@settings(max_examples=60, deadline=None)
@given(case=evaluation_cases(), rows=st.integers(1, 3))
def test_batched_and_lone_evaluation_equal_cv_accuracy(tiled, case, rows):
    # tiled: tiles of `rows` test rows; otherwise the default tile size
    ds, cond, folds, cfg, masks = case
    residual = residual_feature_indices(ds.d, cond)
    batch = [Individual(m.copy()) for m in masks]
    with pytest.MonkeyPatch.context() as mp:
        if tiled:
            force_tile_rows(mp, folds, rows)
        voted = record_votes(mp)
        ev = FitnessEvaluator(ds, cond, folds, cfg)
        ev.evaluate_population(batch)
        batch_votes = len(voted)
        lone = [FitnessEvaluator(ds, cond, folds, cfg).evaluate(Individual(m.copy())) for m in masks]
        # each distinct mask's columns, in the order the batch first meets it
        columns = {}
        for m in masks:
            columns.setdefault(m.tobytes(), [*cond.indices, *(residual[i] for i in np.flatnonzero(m))])
        batch_rows = pass_rows(ds, folds, list(columns.values()))
        lone_rows = [row for m in masks for row in pass_rows(ds, folds, [columns[m.tobytes()]])]

    for ind, alone in zip(batch, lone):
        # untiled here: these folds fit in one tile at the default size
        assert ind.fitness.accuracy == cv_accuracy(ds, columns[ind.mask.tobytes()], folds, cfg.knn_k)
        assert alone == ind.fitness
    # a repeated mask is scored once per batch, each of its rows once, and
    # every distance row voted on is the matching row of the matrix
    # cv_accuracy forms, bit for bit, in fold, tile, set order
    assert batch_votes == len(columns) * ds.n
    assert voted == batch_rows + lone_rows


# --- crossover -------------------------------------------------------------------


class ScriptedRng:
    """Feeds predetermined uniform and integer draws to code under test."""

    def __init__(self, randoms=(), integers=()):
        self._r = list(randoms)
        self._i = list(integers)

    def random(self):
        return self._r.pop(0)

    def integers(self, *args, **kwargs):
        return self._i.pop(0)


def test_crossover_frozen_cut_and_repair():
    a = Individual(np.array([True, True, False, False]))
    b = Individual(np.array([False, False, True, True]))
    # u=0.0 triggers crossover, cut=2 swaps tails; child b goes empty and the
    # repair draw sets its bit 1
    rng = ScriptedRng(randoms=[0.0], integers=[2, 1])
    child_a, child_b = single_point_crossover(a, b, 0.9, rng)
    assert child_a.mask.tolist() == [True, True, True, True]
    assert child_b.mask.tolist() == [False, True, False, False]


def test_crossover_prob_zero_copies_parents():
    a = Individual(np.array([True, False, True]))
    b = Individual(np.array([False, True, True]))
    child_a, child_b = single_point_crossover(a, b, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(child_a.mask, a.mask)
    np.testing.assert_array_equal(child_b.mask, b.mask)
    assert child_a.mask is not a.mask


def test_crossover_single_bit_genomes_copy():
    a, b = Individual(np.array([True])), Individual(np.array([True]))
    child_a, child_b = single_point_crossover(a, b, 1.0, np.random.default_rng(0))
    assert child_a.mask.tolist() == [True]
    assert child_b.mask.tolist() == [True]


def test_crossover_rejects_length_mismatch():
    with pytest.raises(ValueError):
        single_point_crossover(
            Individual(np.array([True])),
            Individual(np.array([True, False])),
            1.0,
            np.random.default_rng(0),
        )


def test_crossover_swaps_complementary_tails():
    r = 12
    ones = Individual(np.ones(r, dtype=bool))
    guard = np.zeros(r, dtype=bool)
    guard[0] = True  # keeps child b non-empty, so repair never fires
    rng = np.random.default_rng(4)
    for _ in range(200):
        ca, cb = single_point_crossover(ones, Individual(guard), 1.0, rng)
        # cut at c: child a = c leading ones + guard tail, child b = the rest
        cut = ca.popcount
        assert 1 <= cut <= r - 1
        np.testing.assert_array_equal(np.flatnonzero(ca.mask), np.arange(cut))
        want_b = np.zeros(r, dtype=bool)
        want_b[0] = True
        want_b[cut:] = True
        np.testing.assert_array_equal(cb.mask, want_b)


# --- mutation ----------------------------------------------------------------------


def test_mutation_swap_preserves_popcount_and_moves_two_bits():
    cfg = GAConfig(r_min=0.3, r_max=0.3)  # target 0.3 fixed
    rng = np.random.default_rng(0)
    start = np.zeros(10, dtype=bool)
    start[:5] = True  # ratio 0.5 > target: swap branch
    for _ in range(300):
        out = ratio_guided_mutation(Individual(start.copy()), cfg, rng)
        assert out.popcount == 5
        assert int(np.sum(out.mask != start)) == 2


def test_mutation_all_ones_passes_through():
    cfg = GAConfig(r_min=0.3, r_max=0.3)
    out = ratio_guided_mutation(Individual(np.ones(6, dtype=bool)), cfg, np.random.default_rng(0))
    assert out.mask.all() and out.popcount == 6


def test_mutation_dead_zone_swaps_instead_of_growing():
    # current ratio 0.3 equals the fixed target: inside ratio_eps
    cfg = GAConfig(r_min=0.3, r_max=0.3, ratio_eps=0.01)
    start = np.zeros(10, dtype=bool)
    start[[1, 5, 8]] = True
    out = ratio_guided_mutation(Individual(start.copy()), cfg, np.random.default_rng(2))
    assert out.popcount == 3
    assert int(np.sum(out.mask != start)) == 2


def test_mutation_growth_never_shrinks_and_respects_cap():
    cfg = GAConfig(r_min=0.3, r_max=0.3)
    rng = np.random.default_rng(1)
    start = np.zeros(20, dtype=bool)
    start[[3, 11]] = True  # ratio 0.1 well under target 0.3
    finals = []
    for _ in range(2000):
        out = ratio_guided_mutation(Individual(start.copy()), cfg, rng)
        assert np.all(out.mask[start])  # existing bits survive
        finals.append(out.popcount)
    finals = np.array(finals)
    assert finals.min() >= 2
    assert finals.max() <= 6  # floor(20 * 0.3)
    assert 2.0 < finals.mean() <= 6.0


def test_mutation_is_seeded():
    cfg = GAConfig()
    start = Individual(np.array([True, False] * 8))
    a = ratio_guided_mutation(start, cfg, np.random.default_rng(3))
    b = ratio_guided_mutation(start, cfg, np.random.default_rng(3))
    np.testing.assert_array_equal(a.mask, b.mask)
    # the mutant owns a copy: hefs_run hands an unpaired parent over as is
    assert start.mask.tolist() == [True, False] * 8


# --- selection ------------------------------------------------------------------------


def _evaluated(mask_bits, acc, comp):
    ind = Individual(np.array(mask_bits, dtype=bool))
    ind.fitness = FitnessPair(acc, comp)
    return ind


def test_selection_takes_whole_fronts_then_niches_the_split_one():
    top = [
        _evaluated([1, 0, 0, 0], 0.9, 0.6),
        _evaluated([0, 1, 0, 0], 0.6, 0.9),
    ]
    lower = [
        _evaluated([1, 1, 0, 0], 0.55 - 0.05 * i, 0.10 + 0.04 * i) for i in range(10)
    ]
    got = selection(top + lower, 5, np.random.default_rng(0))
    got_ids = {id(ind) for ind in got}
    assert len(got) == 5
    assert id(top[0]) in got_ids and id(top[1]) in got_ids
    assert len(got_ids & {id(ind) for ind in lower}) == 3


def test_selection_quota_equals_population_returns_everyone():
    pop = [
        _evaluated([1, 0], 0.2, 0.8),
        _evaluated([0, 1], 0.8, 0.2),
        _evaluated([1, 1], 0.1, 0.1),
    ]
    got = selection(pop, 3, np.random.default_rng(0))
    assert set(id(i) for i in got) == set(id(i) for i in pop)


def test_selection_requires_fitness_and_valid_quota():
    pop = [Individual(np.array([True]))]
    with pytest.raises(ValueError, match="evaluated"):
        selection(pop, 1, np.random.default_rng(0))
    evaluated = [_evaluated([1], 0.5, 0.5)]
    for quota in (0, 2):
        with pytest.raises(ValueError):
            selection(evaluated, quota, np.random.default_rng(0))
    with pytest.raises(ValueError):
        selection([], 1, np.random.default_rng(0))


# --- final choice ---------------------------------------------------------------------


def test_best_helper_set_rescores_on_full_data():
    ds = small_xor(seed=9)
    cond = ConditionalSet((0,), "file")
    cfg = GAConfig(**FAST)
    folds = run_fold_assignment(ds, cfg)
    residual = residual_feature_indices(ds.d, cond)
    f1_pos = residual.index(1)

    def one_hot(pos):
        m = np.zeros(len(residual), dtype=bool)
        m[pos] = True
        return Individual(m)

    candidates = [one_hot(p) for p in range(len(residual))]
    best, acc = best_helper_set(candidates, cond, ds, folds, cfg)
    assert best is candidates[f1_pos]
    assert acc == cv_accuracy(ds, [0, 1], folds, cfg.knn_k)
    assert acc == 1.0


def test_best_helper_set_first_of_ties_wins():
    ds = small_xor(seed=9)
    cond = ConditionalSet((0,), "file")
    cfg = GAConfig(**FAST)
    folds = run_fold_assignment(ds, cfg)
    first = Individual(np.array([True, False, False, False, False]))
    twin = Individual(first.mask.copy())
    best, _ = best_helper_set([first, twin], cond, ds, folds, cfg)
    assert best is first
    with pytest.raises(ValueError):
        best_helper_set([], cond, ds, folds, cfg)


# --- whole runs --------------------------------------------------------------------------


def _payload_without_time(result):
    return replace(result, elapsed_seconds=0.0)


def test_hefs_run_finds_the_partner_bit_and_rescoring_matches():
    ds = small_xor(seed=3, n=120, d=8)
    cond = ConditionalSet((0,), "file")
    cfg = GAConfig(pop_size=10, generations=12, seed=4)
    result = hefs_run(ds, cond, cfg)

    assert 1 in result.helper_indices
    assert result.accuracy == 1.0
    assert list(result.helper_indices) == sorted(result.helper_indices)
    assert not set(result.helper_indices) & set(cond.indices)

    folds = run_fold_assignment(ds, cfg)
    cols = [*cond.indices, *result.helper_indices]
    assert result.accuracy == cv_accuracy(ds, cols, folds, cfg.knn_k)


def test_hefs_run_trace_is_elitist_and_complete():
    ds = small_xor(seed=6, n=80, d=7)
    cfg = GAConfig(pop_size=8, generations=10, seed=2)
    result = hefs_run(ds, ConditionalSet((0,), "file"), cfg)

    assert [rec.generation for rec in result.trace] == list(range(cfg.generations + 1))
    best = [rec.best_accuracy for rec in result.trace]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    for rec in result.trace:
        assert rec.front_size >= 1
        assert 0.0 <= rec.best_accuracy <= 1.0
        assert 0.0 <= rec.best_complementarity <= 1.0


def test_hefs_run_front_entries_are_unique_and_disjoint_from_conditional():
    ds = small_xor(seed=1, n=80, d=7)
    cond = ConditionalSet((2, 0), "file")
    result = hefs_run(ds, cond, GAConfig(pop_size=8, generations=6, seed=0))
    seen = set()
    for indices, fit in result.final_front:
        assert indices == tuple(sorted(indices))
        assert not set(indices) & set(cond.indices)
        assert indices not in seen
        seen.add(indices)
        assert 0.0 <= fit.accuracy <= 1.0
    assert result.helper_indices in seen


def test_hefs_run_is_deterministic_per_seed():
    ds = small_xor(seed=2)
    cfg = GAConfig(pop_size=6, generations=6, seed=11)
    a = hefs_run(ds, ConditionalSet((0,), "file"), cfg)
    b = hefs_run(ds, ConditionalSet((0,), "file"), cfg)
    assert _payload_without_time(a) == _payload_without_time(b)
    c = hefs_run(ds, ConditionalSet((0,), "file"), GAConfig(pop_size=6, generations=6, seed=12))
    assert _payload_without_time(a) != _payload_without_time(c) or a.helper_indices == c.helper_indices


def test_hefs_run_perfect_conditional_scores_one(perfect_ds):
    result = hefs_run(perfect_ds, ConditionalSet((0,), "file"), GAConfig(pop_size=4, generations=3))
    assert result.accuracy == 1.0


def test_hefs_run_variant_switches_still_produce_valid_results():
    ds = small_xor(seed=10, n=80, d=6)
    cond = ConditionalSet((0,), "file")
    for cfg in (
        GAConfig(pop_size=6, generations=5, merge_initial_front=True),
        GAConfig(pop_size=6, generations=5, constant_bias=True),
        GAConfig(pop_size=6, generations=5, use_cluster_reduction=True, cluster_delta=0.4),
    ):
        result = hefs_run(ds, cond, cfg)
        assert result.helper_indices
        folds = run_fold_assignment(ds, cfg)
        cols = [*cond.indices, *result.helper_indices]
        assert result.accuracy == cv_accuracy(ds, cols, folds, cfg.knn_k)


def test_hefs_run_rejects_nothing_to_search(perfect_ds):
    with pytest.raises(ConfigError):
        hefs_run(
            perfect_ds,
            ConditionalSet(tuple(range(perfect_ds.d)), "file"),
            GAConfig(pop_size=4, generations=2),
        )


def test_run_fold_assignment_is_stable_per_seed(perfect_ds):
    cfg = GAConfig(seed=21)
    a = run_fold_assignment(perfect_ds, cfg)
    b = run_fold_assignment(perfect_ds, cfg)
    np.testing.assert_array_equal(a.fold_of, b.fold_of)


# --- the vote worker ----------------------------------------------------------------------
# Under a one-CPU affinity mask (CI runs these tests under `taskset -c 0` too)
# no search starts a worker, and each test checks the serial branch instead.

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workers(monkeypatch):
    """Record every worker handle a search opens. Each opens at its search's
    first pass and waits once for the ready byte, so every later pass of two
    or more sets is split. With kill_at set, the process is killed once it
    holds that pass's sets: stopped before they are sent, so it cannot
    answer. Returns the class, whose `made` lists the handles; each records
    its process (`proc`) and the answers it gave (`passes`)."""

    class Spy(hefs.ga._Worker):
        made = []
        kill_at = None

        def __init__(self, *args):
            super().__init__(*args)
            self.passes, self.proc = 0, self._proc
            self.made.append(self)

        def ready(self):
            if self._proc is not None and not self._ready:
                select.select([self._proc.stdout], [], [], 60)
            return super().ready()

        def send(self, data, item):
            if self.passes != self.kill_at:
                return super().send(data, item)
            os.kill(self.proc.pid, signal.SIGSTOP)
            super().send(data, item)
            os.kill(self.proc.pid, signal.SIGKILL)

        def receive(self):
            answer = super().receive()
            self.passes += answer is not None
            return answer

    monkeypatch.setattr(hefs.ga, "_Worker", Spy)
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", 0.0)
    return Spy


def _canonical(args, out):
    assert run([*map(str, args), "--out", str(out)]) == 0
    return report_canonical_bytes(json.loads(out.read_text()))


def _split_and_serial(workers, monkeypatch, tmp_path, args):
    """Canonical report bytes of one command with every pass split, then
    voted serially; checks that the split run did split its passes."""
    split = _canonical(args, tmp_path / "split.json")
    assert len(workers.made) >= 1
    for worker in workers.made:
        assert (worker.passes > 0) == MULTI_CPU
        assert worker.proc is None or worker.proc.returncode == 0
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", math.inf)
    serial = _canonical(args, tmp_path / "serial.json")
    return split, serial


def test_vote_worker_split_passes_equal_serial_on_xor_parity(workers, monkeypatch, tmp_path):
    (tmp_path / "cond.txt").write_text("f0\n")
    args = ["--synth", "xor", "--n", "200", "--d", "12", "--pop", "10", "--iters", "12",
            "--seed", "3", "--baseline", f"file:{tmp_path / 'cond.txt'}"]
    split, serial = _split_and_serial(workers, monkeypatch, tmp_path, args)
    assert split == serial


def test_vote_worker_split_passes_equal_serial_on_tied_duplicate_rows(
    workers, monkeypatch, tmp_path
):
    # 3 classes of duplicated integer rows, the loop on their leader clusters
    path = tmp_path / "protos.csv"
    write_prototype_csv(path, np.random.default_rng(0), 300, 12, 45)
    args = ["--dataset", path, "--label-col", "kind", "--baseline", "mi", "--cond-size", "3",
            "--cluster-reduce", "--delta", "0.5", "--pop", "8", "--iters", "8", "--seed", "1"]
    split, serial = _split_and_serial(workers, monkeypatch, tmp_path, args)
    assert split == serial


def test_vote_worker_split_passes_equal_serial_on_the_refine_path(workers, monkeypatch, tmp_path):
    # 5 folds of 700 rows leave 560 training rows per fold: every pass refines
    assert 700 * 4 // 5 >= hefs.metrics._REFINE_MIN_TRAIN
    (tmp_path / "cond.txt").write_text("f0\n")
    args = ["--synth", "xor", "--n", "700", "--d", "10", "--pop", "6", "--iters", "3",
            "--seed", "2", "--baseline", f"file:{tmp_path / 'cond.txt'}"]
    split, serial = _split_and_serial(workers, monkeypatch, tmp_path, args)
    assert split == serial


def test_vote_worker_split_passes_equal_serial_with_an_odd_population(
    workers, monkeypatch, tmp_path
):
    (tmp_path / "cond.txt").write_text("f0\nf3\n")
    args = ["--synth", "xor", "--n", "160", "--d", "14", "--pop", "7", "--iters", "10",
            "--seed", "8", "--baseline", f"file:{tmp_path / 'cond.txt'}"]
    split, serial = _split_and_serial(workers, monkeypatch, tmp_path, args)
    assert split == serial


def test_vote_worker_killed_mid_search_leaves_the_report_unchanged(
    workers, monkeypatch, tmp_path
):
    # the killed worker's pass is voted here, and so is every later one
    workers.kill_at = 3
    (tmp_path / "cond.txt").write_text("f0\n")
    args = ["--synth", "xor", "--n", "200", "--d", "12", "--pop", "10", "--iters", "12",
            "--seed", "5", "--baseline", f"file:{tmp_path / 'cond.txt'}"]
    killed = _canonical(args, tmp_path / "killed.json")
    (worker,) = workers.made
    if MULTI_CPU:
        assert worker.passes == workers.kill_at
        assert worker.proc.returncode == -signal.SIGKILL
    else:
        assert worker.proc is None
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", math.inf)
    assert killed == _canonical(args, tmp_path / "serial.json")


def _no_process(*args, **kwargs):
    raise AssertionError("the search started a process")


def test_vote_worker_one_cpu_starts_no_process(monkeypatch, xor_ds, cond_f0):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", 0.0)
    assert hefs_run(xor_ds, cond_f0, GAConfig(pop_size=6, generations=4)).helper_indices


@pytest.mark.parametrize("executable", [None, ""])
def test_vote_worker_without_an_interpreter_path_stays_serial(monkeypatch, tmp_path, executable):
    # Python sets sys.executable to None or "" when it cannot tell its own path
    (tmp_path / "cond.txt").write_text("f0\n")
    args = ["--synth", "xor", "--n", "120", "--d", "8", "--pop", "6", "--iters", "4",
            "--seed", "4", "--baseline", f"file:{tmp_path / 'cond.txt'}"]
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", math.inf)
    serial = _canonical(args, tmp_path / "serial.json")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    monkeypatch.setattr(sys, "executable", executable)
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", 0.0)
    assert _canonical(args, tmp_path / "no_path.json") == serial


def test_vote_worker_short_searches_start_no_process(monkeypatch, tmp_path):
    # searches like the benchmark's spambase_shape and cli_batch ones vote
    # for less than the default _PARALLEL_AFTER_S, so none of them pays for
    # a vote worker's start; a batch starts its run worker and nothing else
    real_popen = subprocess.Popen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    spam = tmp_path / "spam.csv"
    workloads.write_spambase_shape(spam, np.random.default_rng(0), 500, 57)
    _canonical(["--dataset", spam, "--label-col", "spam", "--baseline", "mi", "--cond-size", "20",
                "--pop", "4", "--iters", "2", "--seed", "0"], tmp_path / "spam.json")
    programs = []

    def recording_popen(argv, *args, **kwargs):
        programs.append(argv[-1])
        return real_popen(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    protos = tmp_path / "protos.csv"
    write_prototype_csv(protos, np.random.default_rng(1), 300, 12, 45)
    args = ["--dataset", protos, "--label-col", "kind", "--baseline", "mi", "--cond-size", "3",
            "--cluster-reduce", "--runs", "2", "--pop", "8", "--iters", "8", "--seed", "0"]
    assert run([*map(str, args), "--out", str(tmp_path / "batch")]) == 0
    assert len(programs) == 1
    assert "_run_worker" in programs[0] and "_vote_worker" not in programs[0]


def test_vote_worker_imports_the_parents_hefs(tmp_path):
    # a decoy hefs in the working directory and on PYTHONPATH loses to the
    # directory the worker's program puts first
    decoy = tmp_path / "hefs"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("")
    (decoy / "ga.py").write_text("def _vote_worker():\n    print('decoy')\n")
    source = hefs.ga._WORKER_SOURCE.format(
        root=hefs.ga._HEFS_ROOT, module="ga", loop="_vote_worker"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", source], cwd=tmp_path, env=env, input=b"", capture_output=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, hefs.ga._READY, b"")


@pytest.mark.parametrize("sent", ["nothing", "the loop data", "a cut pass"])
def test_vote_worker_exits_quietly_on_end_of_input(xor_ds, sent):
    folds = run_fold_assignment(xor_ds, GAConfig())
    data = {
        "nothing": b"",
        "the loop data": pickle.dumps((xor_ds, folds, 5, (0,))),
        "a cut pass": pickle.dumps((xor_ds, folds, 5, (0,))) + pickle.dumps([(1, 2)])[:-3],
    }[sent]
    source = hefs.ga._WORKER_SOURCE.format(
        root=hefs.ga._HEFS_ROOT, module="ga", loop="_vote_worker"
    )
    proc = subprocess.run([sys.executable, "-c", source], input=data, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, hefs.ga._READY, b"")


def test_vote_worker_starts_no_process_inside_a_worker():
    # a worker process holds the other CPU, so a handle opened there, as a
    # search in a batch's run worker opens one, starts no process
    program = (
        f"import os, sys; sys.path.insert(0, {hefs.ga._HEFS_ROOT!r}); import hefs.ga as ga; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        "ga._serve(lambda data, item: ga._Worker('ga', '_vote_worker')._proc is None)"
    )
    sent = pickle.dumps(None) + pickle.dumps("a pass")
    proc = subprocess.run([sys.executable, "-c", program], input=sent, capture_output=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout[:1], proc.stderr) == (0, hefs.ga._READY, b"")
    assert pickle.loads(proc.stdout[9:]) is True  # after the ready byte and the length


def test_vote_worker_closed_before_it_is_ready_is_terminated():
    worker = hefs.ga._Worker("ga", "_vote_worker")
    assert not worker.ready()  # started, but its imports take far longer than this call
    proc = worker._proc
    assert (proc is not None) == MULTI_CPU
    worker.close()
    if MULTI_CPU:
        assert proc.returncode == -signal.SIGTERM  # not waited on through its imports
    assert not worker.ready()
    assert hefs.ga._Worker._cpu_free


def test_vote_worker_with_a_pass_in_flight_is_reaped(monkeypatch, xor_ds, cond_f0):
    # the parent raises between send and receive while the worker is stopped:
    # closing must not wait for the answer the worker owes
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", 0.0)
    folds = run_fold_assignment(xor_ds, GAConfig())
    worker = hefs.ga._VoteWorker(xor_ds, folds, 5, cond_f0.indices)

    def zeros(helper_sets):
        return np.zeros((len(helper_sets), folds.n_folds))

    worker.fold_acc([(1,)], zeros)  # opens the worker
    proc = worker._worker._proc
    assert (proc is not None) == MULTI_CPU
    if MULTI_CPU:
        select.select([proc.stdout], [], [], 60)
        worker.fold_acc([(1,), (2,)], zeros)  # a split pass, which sends the loop data
        assert worker._worker.ready()
        os.kill(proc.pid, signal.SIGSTOP)

    def failing_vote(helper_sets):
        raise RuntimeError("vote failed")

    with pytest.raises(RuntimeError, match="vote failed"):
        worker.fold_acc([(1,), (2,), (3,), (4,)], failing_vote)
    closer = threading.Thread(target=worker.close, daemon=True)
    closer.start()
    closer.join(10)
    if closer.is_alive():  # the bug: close() waits on a stopped worker
        proc.kill()
        closer.join()
        pytest.fail("close() blocked on a worker that owes an answer")
    if MULTI_CPU:
        assert proc.returncode == -signal.SIGKILL


@pytest.mark.parametrize("how", ["never started", "closed", "lost"])
def test_vote_worker_closed_handle_answers_none(monkeypatch, xor_ds, how):
    # a handle closed by its owner, or by the fault of losing its process,
    # is never ready again and answers None; one that never started is alike
    if how == "never started":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    worker = hefs.ga._Worker("ga", "_vote_worker")
    proc = worker._proc
    assert (proc is None) == (how == "never started" or not MULTI_CPU)
    loop = (xor_ds, run_fold_assignment(xor_ds, GAConfig()), 5, (0,))
    if how == "closed":
        worker.close()
    elif how == "lost" and proc is not None:
        select.select([proc.stdout], [], [], 60)
        assert worker.ready()
        proc.kill()
        proc.wait()
        worker.send(loop, [(1,), (2,)])  # the data may still fit the pipe
        assert worker.receive() is None
    assert worker._proc is None and hefs.ga._Worker._cpu_free
    assert not worker.ready()
    worker.send(loop, [(1,), (2,)])
    assert not worker.answered()
    assert worker.receive() is None


def test_vote_worker_is_gone_once_hefs_run_returns_or_raises(workers, monkeypatch, xor_ds, cond_f0):
    cfg = GAConfig(pop_size=8, generations=6)
    hefs_run(xor_ds, cond_f0, cfg)
    selections = []

    def failing_selection(*args):
        selections.append(None)
        if len(selections) == 3:
            raise RuntimeError("selection failed")
        return selection(*args)

    monkeypatch.setattr(hefs.ga, "selection", failing_selection)
    with pytest.raises(RuntimeError, match="selection failed"):
        hefs_run(xor_ds, cond_f0, cfg)
    assert len(workers.made) == 2
    for worker in workers.made:
        assert (worker.proc is not None) == MULTI_CPU
        assert worker.proc is None or worker.proc.returncode == 0
