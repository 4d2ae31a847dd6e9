import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hefs.ga
from hefs import (
    ConditionalSet,
    ConfigError,
    FitnessEvaluator,
    GAConfig,
    Individual,
    best_helper_set,
    cv_accuracy,
    hefs_run,
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
    evaluation_columns,
    residual_feature_indices,
)
from hefs.moo import FitnessPair
from conftest import (
    force_tile_rows,
    make_dataset,
    record_votes,
    tie_heavy_datasets,
    tile_blocks,
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
    cfg.validate()


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
    ],
)
def test_config_validate_rejects(kwargs):
    with pytest.raises(ConfigError):
        GAConfig(**kwargs).validate()


def test_residual_indices_skip_the_conditional_set():
    cond = ConditionalSet((4, 1), "file")
    assert residual_feature_indices(6, cond) == (0, 2, 3, 5)
    with pytest.raises(ConfigError, match="references feature"):
        residual_feature_indices(4, ConditionalSet((9,), "file"))
    with pytest.raises(ConfigError, match="nothing to search"):
        residual_feature_indices(2, ConditionalSet((0, 1), "file"))


def test_evaluation_columns_keep_conditional_order_first():
    cond = ConditionalSet((5, 2), "file")
    assert evaluation_columns(cond, [7, 0]) == [5, 2, 7, 0]


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
    dup = ind.copy()
    dup.mask[0] = False
    assert ind.mask[0]
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

    assert fit.accuracy == cv_accuracy(ds, evaluation_columns(cond, helpers), folds, cfg.knn_k)
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


def test_evaluator_distance_cache_is_bit_exact():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng.normal(size=(60, 8)), rng.integers(0, 2, size=60))
    cond = ConditionalSet((1, 4), "file")
    cfg = GAConfig(**FAST)
    folds = run_fold_assignment(ds, cfg)
    ev = FitnessEvaluator(ds, cond, folds, cfg)
    assert ev._d2_cache is not None  # small data, the cache must engage
    residual = residual_feature_indices(ds.d, cond)
    for _ in range(20):
        mask = rng.random(len(residual)) < 0.4
        if not mask.any():
            mask[0] = True
        fit = ev.evaluate(Individual(mask))
        helpers = [residual[i] for i in np.flatnonzero(mask)]
        cols = evaluation_columns(cond, helpers)
        assert fit.accuracy == cv_accuracy(ds, cols, folds, cfg.knn_k)


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


@pytest.mark.parametrize("cached", [True, False])
@settings(max_examples=60, deadline=None)
@given(case=evaluation_cases(), rows=st.one_of(st.none(), st.integers(1, 3)))
def test_batched_and_lone_evaluation_equal_cv_accuracy(cached, case, rows):
    # rows: tiles of 1..rows test rows, or the default tile size when None
    ds, cond, folds, cfg, masks = case
    residual = residual_feature_indices(ds.d, cond)
    batch = [Individual(m.copy()) for m in masks]
    with pytest.MonkeyPatch.context() as mp:
        if not cached:
            mp.setattr(hefs.ga, "_D2_CACHE_BYTES", 0)
        if rows is not None:
            force_tile_rows(mp, folds, rows)
        voted = record_votes(mp)
        ev = FitnessEvaluator(ds, cond, folds, cfg)
        assert (ev._d2_cache is not None) == cached
        ev.evaluate_population(batch)
        batch_votes = len(voted)
        lone = [FitnessEvaluator(ds, cond, folds, cfg).evaluate(Individual(m.copy())) for m in masks]
        blocks = {}
        for ind in batch:
            cols = evaluation_columns(cond, [residual[i] for i in np.flatnonzero(ind.mask)])
            blocks[ind.mask.tobytes()] = [b.tobytes() for b in tile_blocks(ds, cols, folds)]

    for ind, alone in zip(batch, lone):
        cols = evaluation_columns(cond, [residual[i] for i in np.flatnonzero(ind.mask)])
        # untiled here: these folds fit in one tile at the default size
        assert ind.fitness.accuracy == cv_accuracy(ds, cols, folds, cfg.knn_k)
        assert alone == ind.fitness
    # a repeated mask is scored once per batch, once per tile, and every
    # distance matrix voted on is a row block of the one cv_accuracy forms,
    # bit for bit
    n_tiles = len(next(iter(blocks.values())))
    assert batch_votes == len({m.tobytes() for m in masks}) * n_tiles
    assert set(voted) == {b for tiles in blocks.values() for b in tiles}


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
    a = ratio_guided_mutation(start.copy(), cfg, np.random.default_rng(3))
    b = ratio_guided_mutation(start.copy(), cfg, np.random.default_rng(3))
    np.testing.assert_array_equal(a.mask, b.mask)


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
    payload = result.to_payload()
    payload.pop("elapsed_seconds")
    return payload


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
    cols = evaluation_columns(cond, result.helper_indices)
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
        cols = evaluation_columns(cond, result.helper_indices)
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
