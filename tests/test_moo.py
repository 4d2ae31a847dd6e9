import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefs import FitnessPair, dominates, niche_select, nondominated_sort, pareto_solutions
from hefs.moo import (
    ReferencePointSet,
    adaptive_partitions,
    generate_reference_points,
    normalize_front,
)

quantized = st.integers(min_value=0, max_value=5).map(lambda v: v / 5.0)
pairs = st.builds(FitnessPair, accuracy=quantized, complementarity=quantized)


def brute_front(fitnesses, indices):
    return [
        i
        for i in indices
        if not any(dominates(fitnesses[j], fitnesses[i]) for j in indices)
    ]


def brute_sort(fitnesses):
    remaining = list(range(len(fitnesses)))
    fronts = []
    while remaining:
        front = brute_front(fitnesses, remaining)
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


# --- FitnessPair and dominance ------------------------------------------------


@pytest.mark.parametrize("acc,comp", [(-0.1, 0.5), (0.5, 1.1), (float("nan"), 0.5)])
def test_fitness_pair_rejects_out_of_range(acc, comp):
    with pytest.raises(ValueError):
        FitnessPair(acc, comp)


def test_dominates_truth_table():
    a = FitnessPair(0.6, 0.6)
    assert dominates(a, FitnessPair(0.5, 0.5))
    assert dominates(a, FitnessPair(0.6, 0.5))
    assert dominates(a, FitnessPair(0.5, 0.6))
    assert not dominates(a, FitnessPair(0.6, 0.6))
    assert not dominates(a, FitnessPair(0.7, 0.5))  # trade-off
    assert not dominates(FitnessPair(0.5, 0.5), a)


@given(pairs, pairs)
def test_dominates_is_asymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))
    assert not dominates(a, a)


@given(pairs, pairs, pairs)
def test_dominates_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


# --- non-dominated sorting --------------------------------------------------------


def test_nondominated_sort_hand_example():
    fits = [
        FitnessPair(0.9, 0.1),  # front 0
        FitnessPair(0.1, 0.9),  # front 0
        FitnessPair(0.5, 0.5),  # front 0
        FitnessPair(0.5, 0.4),  # front 1, under 2
        FitnessPair(0.1, 0.1),  # front 2
    ]
    assert nondominated_sort(fits) == [[0, 1, 2], [3], [4]]


def test_nondominated_sort_all_equal_is_one_front():
    fits = [FitnessPair(0.3, 0.3)] * 4
    assert nondominated_sort(fits) == [[0, 1, 2, 3]]


def test_nondominated_sort_rejects_empty():
    with pytest.raises(ValueError):
        nondominated_sort([])


@settings(max_examples=150)
@given(st.lists(pairs, min_size=1, max_size=24))
def test_nondominated_sort_matches_peeling_oracle(fits):
    assert nondominated_sort(fits) == brute_sort(fits)


@given(st.lists(pairs, min_size=1, max_size=24))
def test_nondominated_sort_fronts_partition_and_chain(fits):
    fronts = nondominated_sort(fits)
    flat = [i for front in fronts for i in front]
    assert sorted(flat) == list(range(len(fits)))
    for j in range(1, len(fronts)):
        for i in fronts[j]:
            assert any(dominates(fits[p], fits[i]) for p in fronts[j - 1])


# --- partition counts and reference points ------------------------------------------


def test_adaptive_partitions_frozen_values():
    assert adaptive_partitions(1) == 1
    assert adaptive_partitions(10) == 8
    assert adaptive_partitions(30) == 19


def test_adaptive_partitions_matches_formula_and_grows():
    last = 0
    for size in range(1, 500):
        got = adaptive_partitions(size)
        assert got == max(1, math.ceil(math.log(size + 1) * math.sqrt(size)))
        assert got >= last
        last = got


def test_adaptive_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        adaptive_partitions(0)


def test_reference_points_frozen_for_four_partitions():
    pts = generate_reference_points(4).points
    np.testing.assert_array_equal(
        pts,
        [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]],
    )


def test_reference_points_sum_to_one_exactly():
    for p in range(1, 200):
        pts = generate_reference_points(p).points
        assert pts.shape == (p + 1, 2)
        assert np.all(pts.sum(axis=1) == 1.0)
        assert np.all(np.diff(pts[:, 0]) > 0)


def test_reference_points_reject_bad_input():
    with pytest.raises(ValueError):
        generate_reference_points(0)
    with pytest.raises(ValueError):
        ReferencePointSet(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        ReferencePointSet(np.zeros((3, 3)))


# --- front normalization -------------------------------------------------------------


def test_normalize_front_hand_example():
    fits = [FitnessPair(0.2, 0.5), FitnessPair(0.6, 0.9), FitnessPair(0.4, 0.7)]
    out = normalize_front(fits)
    np.testing.assert_allclose(out, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]], atol=1e-15)


def test_normalize_front_constant_objective_maps_to_zero():
    fits = [FitnessPair(0.4, 0.1), FitnessPair(0.4, 0.9)]
    out = normalize_front(fits)
    np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])
    np.testing.assert_array_equal(out[:, 1], [0.0, 1.0])


@given(st.lists(pairs, min_size=1, max_size=20))
def test_normalize_front_stays_in_unit_square(fits):
    out = normalize_front(fits)
    assert out.min() >= 0.0 and out.max() <= 1.0


# --- niche selection ------------------------------------------------------------------


def test_niche_select_respects_quota_bounds():
    fits = [FitnessPair(0.1, 0.9), FitnessPair(0.9, 0.1)]
    with pytest.raises(ValueError):
        niche_select([0, 1], fits, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        niche_select([0, 1], fits, 3, np.random.default_rng(0))


def test_niche_select_full_quota_returns_whole_front():
    fits = [FitnessPair(v, 1.0 - v) for v in (0.1, 0.4, 0.7, 0.9)]
    got = niche_select([0, 1, 2, 3], fits, 4, np.random.default_rng(0))
    assert sorted(got) == [0, 1, 2, 3]


def test_niche_select_always_keeps_the_lonely_extreme():
    # three clones crowd one corner; the single opposite corner sits alone in
    # its niche and must be picked whenever quota >= 2
    fits = [
        FitnessPair(0.2, 0.8),
        FitnessPair(0.2, 0.8),
        FitnessPair(0.2, 0.8),
        FitnessPair(0.8, 0.2),
    ]
    for trial in range(300):
        got = niche_select([0, 1, 2, 3], fits, 2, np.random.default_rng(trial))
        assert 3 in got


def test_niche_select_spreads_evenly_across_two_corners():
    fits = [FitnessPair(0.1, 0.9)] * 6 + [FitnessPair(0.9, 0.1)] * 6
    for trial in range(50):
        got = niche_select(list(range(12)), fits, 6, np.random.default_rng(trial))
        low = sum(1 for i in got if i < 6)
        assert low == 3


def test_niche_select_is_seed_deterministic():
    rng_fits = np.random.default_rng(1)
    fits = [
        FitnessPair(float(a), float(c))
        for a, c in rng_fits.integers(0, 10, size=(15, 2)) / 10.0
    ]
    a = niche_select(list(range(15)), fits, 7, np.random.default_rng(5))
    b = niche_select(list(range(15)), fits, 7, np.random.default_rng(5))
    assert a == b


# --- deduplicated first front -----------------------------------------------------------


def _mask(bits):
    return np.array(bits, dtype=bool)


def test_pareto_solutions_dedups_before_sorting():
    masks = [_mask(b) for b in ([1, 0], [0, 1], [1, 0], [1, 1])]
    fits = [
        FitnessPair(0.5, 0.5),
        FitnessPair(0.6, 0.4),
        FitnessPair(0.9, 0.9),  # duplicate mask: ignored despite dominating
        FitnessPair(0.4, 0.45),
    ]
    assert pareto_solutions(masks, fits) == [0, 1]


def test_pareto_solutions_preserves_input_order():
    masks = [_mask(b) for b in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    fits = [FitnessPair(0.3, 0.7), FitnessPair(0.7, 0.3), FitnessPair(0.5, 0.5)]
    assert pareto_solutions(masks, fits) == [0, 1, 2]


def test_pareto_solutions_validates_input():
    with pytest.raises(ValueError):
        pareto_solutions([], [])
    with pytest.raises(ValueError):
        pareto_solutions([_mask([1])], [])


@settings(max_examples=150)
@given(st.data())
def test_pareto_solutions_matches_brute_filter(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    width = data.draw(st.integers(min_value=1, max_value=4))
    masks = [
        _mask(data.draw(st.lists(st.booleans(), min_size=width, max_size=width)))
        for _ in range(n)
    ]
    fits = [data.draw(pairs) for _ in range(n)]

    kept, seen = [], set()
    for i, m in enumerate(masks):
        key = m.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(i)
    want = brute_front(fits, kept)

    got = pareto_solutions(masks, fits)
    assert got == sorted(got)
    assert got == want
