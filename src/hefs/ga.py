"""Genetic search over residual features for a helper set that complements
a fixed conditional set.

Genomes are bitmasks over the residual feature space (every feature not in
the conditional set, in ascending original index). The two maximized
objectives are cross-validated k-NN accuracy of conditional + helper columns
and a complementarity score derived from mutual information between helper
and conditional features. An elitist archive keeps the running Pareto front.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .baselines import ConditionalSet
from .dataset import (
    Dataset,
    DatasetError,
    FoldAssignment,
    leader_cluster,
    reduce_dataset,
    stratified_kfold,
)
from .metrics import (
    cv_accuracy,
    equal_width_bins,
    _fold_votes,
    _knn_from_d2,  # unused here; bench/tracing.py patches it under this module
    _mi_from_codes,
)
from .moo import FitnessPair, nondominated_sort, niche_select, pareto_solutions

__all__ = [
    "ConfigError",
    "GAConfig",
    "Individual",
    "GenerationRecord",
    "HelperResult",
    "biased_ratio",
    "complementarity_score",
    "selective_activation_init",
    "FitnessEvaluator",
    "selection",
    "single_point_crossover",
    "ratio_guided_mutation",
    "best_helper_set",
    "residual_feature_indices",
    "evaluation_columns",
    "run_fold_assignment",
    "hefs_run",
]


class ConfigError(ValueError):
    """Raised when a GAConfig or conditional set cannot be used as given."""


@dataclass(frozen=True)
class GAConfig:
    """Tuning knobs for one search run.

    r_min and r_max bound the activation ratio (fraction of residual bits
    set) that the biased sampler draws; scaler controls how strongly the
    sampler leans toward r_min. ratio_eps is the dead zone within which a
    genome's ratio counts as on-target.
    """

    r_min: float = 0.05
    r_max: float = 0.3
    scaler: float = 5.0
    pop_size: int = 30
    generations: int = 100
    ratio_eps: float = 0.01
    cluster_delta: float = 0.1
    knn_k: int = 5
    n_folds: int = 5
    n_bins: int = 10
    crossover_prob: float = 0.9
    seed: int = 0
    use_cluster_reduction: bool = False
    # variant switches: keep the published formulas byte for byte
    constant_bias: bool = False
    merge_initial_front: bool = False

    def validate(self) -> None:
        if not 0.0 < self.r_min <= self.r_max <= 1.0:
            raise ConfigError(f"need 0 < r_min <= r_max <= 1, got {self.r_min}, {self.r_max}")
        if self.scaler <= 0.0:
            raise ConfigError(f"scaler must be positive, got {self.scaler}")
        if self.pop_size < 2:
            raise ConfigError(f"population size must be >= 2, got {self.pop_size}")
        if self.generations < 1:
            raise ConfigError(f"need at least 1 generation, got {self.generations}")
        if not 0.0 < self.ratio_eps < 1.0:
            raise ConfigError(f"ratio_eps must be in (0, 1), got {self.ratio_eps}")
        if not 0.0 < self.cluster_delta <= 2.0:
            raise ConfigError(f"cluster_delta must be in (0, 2], got {self.cluster_delta}")
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError(f"crossover_prob must be in [0, 1], got {self.crossover_prob}")


@dataclass
class Individual:
    """One genome: a boolean mask over residual feature positions."""

    mask: np.ndarray
    fitness: Optional[FitnessPair] = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 1 or self.mask.size == 0:
            raise ValueError("mask must be a non-empty boolean vector")

    @property
    def popcount(self) -> int:
        return int(self.mask.sum())

    def copy(self) -> "Individual":
        return Individual(self.mask.copy(), self.fitness)


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_accuracy: float
    front_size: int
    best_complementarity: float

    def to_payload(self) -> dict:
        return {
            "generation": self.generation,
            "best_accuracy": self.best_accuracy,
            "front_size": self.front_size,
            "best_complementarity": self.best_complementarity,
        }


@dataclass(frozen=True)
class HelperResult:
    """Outcome of one search run.

    helper_indices are original feature indices (ascending); accuracy is the
    full-dataset cross-validated accuracy of conditional + helper columns.
    final_front pairs each archived helper set (as original indices) with its
    loop-time fitness.
    """

    helper_indices: tuple[int, ...]
    accuracy: float
    trace: tuple[GenerationRecord, ...]
    final_front: tuple[tuple[tuple[int, ...], FitnessPair], ...]
    elapsed_seconds: float

    def to_payload(self) -> dict:
        """Plain-dict form; everything except elapsed_seconds is deterministic."""
        return {
            "helper_indices": list(self.helper_indices),
            "accuracy": self.accuracy,
            "trace": [rec.to_payload() for rec in self.trace],
            "final_front": [
                {
                    "indices": list(idx),
                    "accuracy": fit.accuracy,
                    "complementarity": fit.complementarity,
                }
                for idx, fit in self.final_front
            ],
            "elapsed_seconds": self.elapsed_seconds,
        }


def residual_feature_indices(d: int, conditional: ConditionalSet) -> tuple[int, ...]:
    """Original indices outside the conditional set, ascending. Bit i of a
    genome refers to the i-th entry."""
    held = set(conditional.indices)
    if max(conditional.indices) >= d:
        raise ConfigError(f"conditional set references feature {max(conditional.indices)}, d={d}")
    residual = tuple(j for j in range(d) if j not in held)
    if not residual:
        raise ConfigError("conditional set covers every feature, nothing to search")
    return residual


def evaluation_columns(conditional: ConditionalSet, helper_indices: Sequence[int]) -> list[int]:
    """Column order used everywhere a conditional + helper subset is scored."""
    return list(conditional.indices) + [int(j) for j in helper_indices]


def biased_ratio(cfg: GAConfig, rng: np.random.Generator) -> float:
    """Draw an activation ratio in [r_min, r_max], biased toward r_min.

    The exponent scales with a fresh uniform draw, so the ratio actually
    varies call to call; with constant_bias the draw is ignored and every
    call returns the same fixed point of the formula.
    """
    u = float(rng.random())
    exponent = cfg.scaler if cfg.constant_bias else cfg.scaler * u
    s = cfg.r_min + (cfg.r_max - cfg.r_min) * math.exp(-exponent)
    return min(cfg.r_max, max(cfg.r_min, s))


def complementarity_score(cross_mi: Sequence[float]) -> float:
    """Redundancy penalty turned into a maximized score.

    Takes the mutual-information values between each helper feature and each
    conditional feature, pooled; returns 1 - mean/max of the pool, clamped to
    [0, 1]. An all-zero pool means no shared information at all, scored 1.0.
    """
    values = np.asarray(cross_mi, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one cross mutual-information value")
    top = float(values.max())
    if top == 0.0:
        return 1.0
    score = 1.0 - float(values.mean()) / top
    return min(1.0, max(0.0, score))


def _repair(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Force at least one set bit; empty genomes are not valid helpers."""
    if not mask.any():
        mask[int(rng.integers(mask.size))] = True
    return mask


def selective_activation_init(r: int, cfg: GAConfig, rng: np.random.Generator) -> list[Individual]:
    """Seed a population of sparse genomes over r residual positions.

    Each genome activates floor(r * ratio) uniformly placed bits, ratio drawn
    by biased_ratio, repaired up to one bit minimum.
    """
    if r < 1:
        raise ConfigError("residual space is empty")
    population = []
    for _ in range(cfg.pop_size):
        ratio = biased_ratio(cfg, rng)
        n_active = max(1, math.floor(r * ratio))
        mask = np.zeros(r, dtype=bool)
        mask[:n_active] = True
        mask = mask[rng.permutation(r)]
        population.append(Individual(_repair(mask, rng)))
    return population


# per-feature, per-fold distance matrices are kept only while n * n * 8 * d
# bytes stay within this many
_D2_CACHE_BYTES = 256 * 1024 * 1024


class FitnessEvaluator:
    """Scores genomes against one dataset; memoizes by bitmask.

    Accuracy is cv_accuracy over conditional + helper columns: both vote
    through metrics._fold_votes, which sums the same distances in the same
    order whether a column comes from the per-feature cache or not. The
    complementarity objective is 1 - mean/max over the mutual information of
    every (helper, conditional) column pair; when every such MI is zero the
    helpers share nothing with the conditional set and the score is 1.
    """

    def __init__(
        self,
        ds: Dataset,
        conditional: ConditionalSet,
        folds: FoldAssignment,
        cfg: GAConfig,
    ):
        self.ds = ds
        self.conditional = conditional
        self.folds = folds
        self.cfg = cfg
        self.residual = residual_feature_indices(ds.d, conditional)
        self._memo: dict[bytes, FitnessPair] = {}
        self._codes: dict[int, np.ndarray] = {}
        self._cross_mi: dict[int, np.ndarray] = {}
        self._d2_cache: Optional[dict[int, list[np.ndarray]]] = (
            {} if ds.n * ds.n * 8 * ds.d <= _D2_CACHE_BYTES else None
        )

    def _codes_for(self, j: int) -> np.ndarray:
        codes = self._codes.get(j)
        if codes is None:
            codes = equal_width_bins(self.ds.features[:, j], self.cfg.n_bins)
            self._codes[j] = codes
        return codes

    def _cross_mi_for(self, helper: int) -> np.ndarray:
        """MI of one helper column against every conditional column."""
        row = self._cross_mi.get(helper)
        if row is None:
            h_codes = self._codes_for(helper)
            row = np.array(
                [
                    _mi_from_codes(h_codes, self._codes_for(s), self.cfg.n_bins)
                    for s in self.conditional.indices
                ]
            )
            self._cross_mi[helper] = row
        return row

    def _accuracies(self, helper_sets: Sequence[Sequence[int]]) -> list[float]:
        """cv_accuracy of conditional + each helper set, all sets in one pass
        per fold."""
        cond, k = self.conditional.indices, self.cfg.knn_k
        _, _, fold_acc = _fold_votes(self.ds, self.folds, k, cond, helper_sets, self._d2_cache)
        return [float(row.mean()) for row in fold_acc]

    def _complementarity(self, helper_indices: Sequence[int]) -> float:
        values = np.concatenate([self._cross_mi_for(h) for h in helper_indices])
        return complementarity_score(values)

    def _score(self, masks: dict[bytes, np.ndarray]) -> None:
        """Memoize the fitness of every mask, keyed by its bytes, in one pass."""
        if not masks:
            return
        helper_sets = [[self.residual[i] for i in np.flatnonzero(m)] for m in masks.values()]
        for key, helpers, acc in zip(masks, helper_sets, self._accuracies(helper_sets)):
            self._memo[key] = FitnessPair(
                accuracy=acc, complementarity=self._complementarity(helpers)
            )

    def evaluate(self, individual: Individual) -> FitnessPair:
        key = individual.mask.tobytes()
        if key not in self._memo:
            self._score({key: individual.mask})
        fitness = self._memo[key]
        individual.fitness = fitness
        return fitness

    def evaluate_population(self, population: Sequence[Individual]) -> None:
        """Score the population's unseen genomes together, then set every fitness."""
        unseen: dict[bytes, np.ndarray] = {}
        for ind in population:
            key = ind.mask.tobytes()
            if key not in self._memo:
                unseen.setdefault(key, ind.mask)
        self._score(unseen)
        for ind in population:
            self.evaluate(ind)


def selection(
    population: Sequence[Individual], quota: int, rng: np.random.Generator
) -> list[Individual]:
    """Pick quota individuals by Pareto rank, niche-filtering the split front."""
    if len(population) == 0:
        raise ValueError("empty population")
    if not 1 <= quota <= len(population):
        raise ValueError(f"quota must be in 1..{len(population)}, got {quota}")
    fitnesses = []
    for ind in population:
        if ind.fitness is None:
            raise ValueError("selection requires an evaluated population")
        fitnesses.append(ind.fitness)
    chosen: list[int] = []
    for front in nondominated_sort(fitnesses):
        if len(chosen) + len(front) <= quota:
            chosen.extend(front)
            if len(chosen) == quota:
                break
        else:
            chosen.extend(niche_select(front, fitnesses, quota - len(chosen), rng))
            break
    return [population[i] for i in chosen]


def single_point_crossover(
    parent_a: Individual,
    parent_b: Individual,
    crossover_prob: float,
    rng: np.random.Generator,
) -> tuple[Individual, Individual]:
    """Exchange genome tails at one random cut point.

    With probability 1 - crossover_prob, or when genomes are too short to
    cut, the children are plain copies. Children are repaired to at least
    one set bit.
    """
    a, b = parent_a.mask, parent_b.mask
    if a.size != b.size:
        raise ValueError("parents must share genome length")
    r = a.size
    if r < 2:
        return Individual(a.copy()), Individual(b.copy())
    if float(rng.random()) < crossover_prob:
        cut = int(rng.integers(1, r))
        child_a = np.concatenate([a[:cut], b[cut:]])
        child_b = np.concatenate([b[:cut], a[cut:]])
    else:
        child_a, child_b = a.copy(), b.copy()
    return (
        Individual(_repair(child_a, rng)),
        Individual(_repair(child_b, rng)),
    )


def ratio_guided_mutation(
    individual: Individual, cfg: GAConfig, rng: np.random.Generator
) -> Individual:
    """Nudge a genome's activation ratio toward a freshly drawn target.

    On-target or overweight genomes swap one set bit with one clear bit,
    preserving popcount (an all-ones genome has nothing to swap and passes
    through). Underweight genomes scan their clear bits in random order,
    setting each with probability min(1, max(0, target - current ratio)),
    recomputed after every flip, stopping once it reaches 0.
    """
    mask = individual.mask.copy()
    r = mask.size
    target = biased_ratio(cfg, rng)
    current = mask.sum() / r
    if abs(current - target) < cfg.ratio_eps or current > target:
        ones = np.flatnonzero(mask)
        zeros = np.flatnonzero(~mask)
        if zeros.size == 0:
            return Individual(mask)
        drop = ones[int(rng.integers(ones.size))]
        raise_ = zeros[int(rng.integers(zeros.size))]
        mask[drop] = False
        mask[raise_] = True
        return Individual(mask)

    zeros = np.flatnonzero(~mask)
    scan = zeros[rng.permutation(zeros.size)]
    count = int(mask.sum())
    for pos in scan:
        p_adjust = min(1.0, max(0.0, target - count / r))
        if p_adjust <= 0.0:
            break
        if float(rng.random()) < p_adjust:
            mask[pos] = True
            count += 1
    return Individual(mask)


def best_helper_set(
    population: Sequence[Individual],
    conditional: ConditionalSet,
    ds: Dataset,
    folds: FoldAssignment,
    cfg: GAConfig,
) -> tuple[Individual, float]:
    """Linear scan for the candidate with the best full-dataset accuracy.

    Every candidate is rescored with cv_accuracy on the full dataset; a later
    candidate must be strictly better to displace an earlier one, so the
    first of any tie wins.
    """
    if len(population) == 0:
        raise ValueError("empty population")
    residual = residual_feature_indices(ds.d, conditional)
    best_ind = None
    best_acc = -1.0
    for ind in population:
        helpers = [residual[i] for i in np.flatnonzero(ind.mask)]
        acc = cv_accuracy(ds, evaluation_columns(conditional, helpers), folds, cfg.knn_k)
        if acc > best_acc:
            best_ind, best_acc = ind, acc
    return best_ind, best_acc


def run_fold_assignment(ds: Dataset, cfg: GAConfig) -> FoldAssignment:
    """The exact fold assignment hefs_run derives from cfg.seed.

    Exposed so callers can rescore subsets on the same folds a run used.
    """
    fold_seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    return stratified_kfold(ds, cfg.n_folds, np.random.default_rng(fold_seed))


def _trace_record(generation: int, archive: Sequence[Individual]) -> GenerationRecord:
    return GenerationRecord(
        generation=generation,
        best_accuracy=max(ind.fitness.accuracy for ind in archive),
        front_size=len(archive),
        best_complementarity=max(ind.fitness.complementarity for ind in archive),
    )


def _front_of(population: Sequence[Individual]) -> list[Individual]:
    idx = pareto_solutions([ind.mask for ind in population], [ind.fitness for ind in population])
    return [population[i] for i in idx]


def hefs_run(ds: Dataset, conditional: ConditionalSet, cfg: GAConfig) -> HelperResult:
    """Run the full helper-set search and return the best archived subset.

    The archive holds the running Pareto front; each generation's offspring
    are merged into it (or, with merge_initial_front, into the initial front
    only). With use_cluster_reduction the loop scores genomes on a
    leader-clustered reduction of the dataset and the final winner is
    rescored on the full dataset; otherwise the loop's accuracies already are
    full-dataset ones and pick the winner directly.
    """
    cfg.validate()
    started = time.perf_counter()
    residual = residual_feature_indices(ds.d, conditional)
    r = len(residual)

    # the fold stream is spawn key (0,), which run_fold_assignment draws
    _, cluster_ss, ga_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    folds_full = run_fold_assignment(ds, cfg)

    ds_loop, folds_loop = ds, folds_full
    if cfg.use_cluster_reduction:
        cluster_rng = np.random.default_rng(cluster_ss)
        reduction = leader_cluster(ds, cfg.cluster_delta, cluster_rng)
        try:
            ds_loop = reduce_dataset(ds, reduction)
            folds_loop = stratified_kfold(ds_loop, cfg.n_folds, cluster_rng)
        except DatasetError as exc:
            raise DatasetError(
                f"cluster reduction with delta={cfg.cluster_delta} reduced "
                f"{ds.n} rows to {reduction.n_clusters} clusters: {exc}"
            ) from exc

    rng = np.random.default_rng(ga_ss)
    evaluator = FitnessEvaluator(ds_loop, conditional, folds_loop, cfg)

    population = selective_activation_init(r, cfg, rng)
    evaluator.evaluate_population(population)
    archive = _front_of(population)
    initial_front = list(archive)
    trace = [_trace_record(0, archive)]

    for generation in range(1, cfg.generations + 1):
        parents = selection(list(archive) + list(population), cfg.pop_size, rng)
        order = rng.permutation(len(parents))
        offspring: list[Individual] = []
        for i in range(0, len(parents) - 1, 2):
            child_a, child_b = single_point_crossover(
                parents[order[i]], parents[order[i + 1]], cfg.crossover_prob, rng
            )
            offspring.extend((child_a, child_b))
        if len(parents) % 2:
            offspring.append(parents[order[-1]].copy())
        offspring = [ratio_guided_mutation(child, cfg, rng) for child in offspring]
        evaluator.evaluate_population(offspring)

        merge_base = initial_front if cfg.merge_initial_front else archive
        archive = _front_of(offspring + merge_base)
        population = offspring
        trace.append(_trace_record(generation, archive))

    if cfg.use_cluster_reduction:
        best_ind, best_acc = best_helper_set(archive, conditional, ds, folds_full, cfg)
    else:
        # max keeps the first of any tie, as best_helper_set does
        best_ind = max(archive, key=lambda ind: ind.fitness.accuracy)
        best_acc = best_ind.fitness.accuracy
    helper_indices = tuple(residual[i] for i in np.flatnonzero(best_ind.mask))
    front_dump = tuple(
        (tuple(residual[i] for i in np.flatnonzero(ind.mask)), ind.fitness) for ind in archive
    )
    return HelperResult(
        helper_indices=helper_indices,
        accuracy=best_acc,
        trace=tuple(trace),
        final_front=front_dump,
        elapsed_seconds=time.perf_counter() - started,
    )
