"""Two-objective Pareto machinery: dominance, front sorting, niche selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FitnessPair:
    """The two maximized objectives: wrapper accuracy and complementarity."""

    accuracy: float
    complementarity: float

    def __post_init__(self):
        for name in ("accuracy", "complementarity"):
            v = getattr(self, name)
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a finite value in [0, 1], got {v}")


def dominates(a: FitnessPair, b: FitnessPair) -> bool:
    """True when a is at least as good in both objectives and better in one."""
    return (
        a.accuracy >= b.accuracy
        and a.complementarity >= b.complementarity
        and (a.accuracy > b.accuracy or a.complementarity > b.complementarity)
    )


def _as_matrix(fitnesses: Sequence[FitnessPair]) -> np.ndarray:
    return np.array([[f.accuracy, f.complementarity] for f in fitnesses], dtype=np.float64)


def nondominated_sort(fitnesses: Sequence[FitnessPair]) -> list[list[int]]:
    """Partition indices into Pareto fronts, best front first."""
    if len(fitnesses) == 0:
        raise ValueError("cannot sort an empty population")
    f = _as_matrix(fitnesses)
    ge = (f[:, None, :] >= f[None, :, :]).all(axis=-1)
    gt = (f[:, None, :] > f[None, :, :]).any(axis=-1)
    dom = ge & gt  # dom[i, j]: i dominates j
    counts = dom.sum(axis=0)
    remaining = np.ones(len(fitnesses), dtype=bool)
    fronts: list[list[int]] = []
    while remaining.any():
        current = np.flatnonzero(remaining & (counts == 0))
        fronts.append([int(i) for i in current])
        remaining[current] = False
        counts = counts - dom[current].sum(axis=0)
    return fronts


def adaptive_partitions(front_size: int) -> int:
    """Partition count that grows with front size, never below 1."""
    if front_size < 1:
        raise ValueError(f"front size must be >= 1, got {front_size}")
    return max(1, math.ceil(math.log(front_size + 1) * math.sqrt(front_size)))


def generate_reference_points(n_partitions: int) -> np.ndarray:
    """The (P + 1, 2) array of points (i/P, 1 - i/P) on the unit simplex
    u + v = 1, for P = n_partitions."""
    if n_partitions < 1:
        raise ValueError(f"need at least 1 partition, got {n_partitions}")
    u = np.arange(n_partitions + 1, dtype=np.float64) / n_partitions
    return np.column_stack([u, 1.0 - u])


def normalize_front(fitnesses: Sequence[FitnessPair]) -> np.ndarray:
    """Min-max rescale a front to the unit square, per objective.

    An objective that is constant across the front maps to 0 for everyone.
    """
    if len(fitnesses) == 0:
        raise ValueError("cannot normalize an empty front")
    f = _as_matrix(fitnesses)
    lo = f.min(axis=0)
    span = f.max(axis=0) - lo
    safe = np.where(span == 0.0, 1.0, span)
    # a constant objective's f - lo is exactly 0
    return (f - lo) / safe


def niche_select(
    front: Sequence[int],
    fitnesses: Sequence[FitnessPair],
    quota: int,
    rng: np.random.Generator,
) -> list[int]:
    """Pick quota members of one front, spread across reference-point niches.

    Members are assigned to their nearest reference point (ties to the lower
    point index). Picks repeatedly go to the niche with the fewest selections
    so far that still has members, drawing uniformly within it.
    """
    front = [int(i) for i in front]
    if not 1 <= quota <= len(front):
        raise ValueError(f"quota must be in 1..{len(front)}, got {quota}")
    coords = normalize_front([fitnesses[i] for i in front])
    refs = generate_reference_points(adaptive_partitions(len(front)))
    d2 = ((coords[:, None, :] - refs[None, :, :]) ** 2).sum(axis=-1)
    niche_of = np.argmin(d2, axis=1)

    members: dict[int, list[int]] = {}
    for pos, idx in enumerate(front):
        members.setdefault(int(niche_of[pos]), []).append(idx)
    picked_count = {niche: 0 for niche in members}

    chosen: list[int] = []
    while len(chosen) < quota:
        open_niches = [p for p, bucket in members.items() if bucket]
        target = min(open_niches, key=lambda p: (picked_count[p], p))
        bucket = members[target]
        chosen.append(bucket.pop(int(rng.integers(len(bucket)))))
        picked_count[target] += 1
    return chosen


def pareto_solutions(
    masks: Sequence[np.ndarray], fitnesses: Sequence[FitnessPair]
) -> list[int]:
    """Indices of the first Pareto front after deduplicating equal masks.

    Only the first occurrence of each bitmask competes; the result preserves
    input order.
    """
    if len(masks) == 0:
        raise ValueError("empty population")
    if len(masks) != len(fitnesses):
        raise ValueError("masks and fitnesses must align")
    kept: list[int] = []
    seen: set[bytes] = set()
    for i, mask in enumerate(masks):
        key = np.asarray(mask, dtype=bool).tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(i)
    fronts = nondominated_sort([fitnesses[i] for i in kept])
    return [kept[j] for j in fronts[0]]
