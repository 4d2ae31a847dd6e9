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
import os
import pickle
import select
import sys
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
    _column_codes,
    _fold_votes,
    _knn_from_d2,  # unused here; bench/tracing.py patches it under this module
    _mi_from_codes,
)
from .moo import FitnessPair, nondominated_sort, niche_select, pareto_solutions


class ConfigError(ValueError):
    """Raised when a GAConfig or conditional set cannot be used as given."""


@dataclass(frozen=True)
class GAConfig:
    """Tuning knobs for one search run.

    r_min and r_max bound the activation ratio (fraction of residual bits
    set) that the biased sampler draws; scaler controls how strongly the
    sampler leans toward r_min. ratio_eps is the dead zone within which a
    genome's ratio counts as on-target. Building a config validates it, so an
    invalid one raises ConfigError and never exists.
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

    def __post_init__(self):
        # each message starts with the fields at fault, so a caller can name its own flags
        if not 0.0 < self.r_min <= self.r_max <= 1.0:
            raise ConfigError(
                f"r_min and r_max need 0 < r_min <= r_max <= 1, got {self.r_min}, {self.r_max}"
            )
        if self.scaler <= 0.0:
            raise ConfigError(f"scaler must be positive, got {self.scaler}")
        if self.pop_size < 2:
            raise ConfigError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_accuracy: float
    front_size: int
    best_complementarity: float


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


def residual_feature_indices(d: int, conditional: ConditionalSet) -> tuple[int, ...]:
    """Original indices outside the conditional set, ascending. Bit i of a
    genome refers to the i-th entry."""
    held = set(conditional.indices)
    if max(conditional.indices) >= d:
        raise ConfigError(f"conditional set references feature {max(conditional.indices)}, d={d}")
    residual = tuple(j for j in range(d) if j not in held)
    if not residual:
        raise ConfigError(f"conditional set covers every feature, nothing to search (d={d})")
    return residual


def _columns(residual: Sequence[int], mask: np.ndarray) -> tuple[int, ...]:
    """The original feature indices a genome's set bits stand for, ascending."""
    return tuple(residual[i] for i in np.flatnonzero(mask))


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


# a search's _VoteWorker starts its process once it has spent this long
# voting passes alone, so a short search never pays the worker's start (an
# interpreter and numpy, about 150 ms of CPU) or its copy of the loop data.
# On a 2-core VM, a bench/run.py `spambase_shape` search votes for 0.12-0.16 s
# in all and a `cli_batch` one for about 0.06 s, so neither starts it. Median
# `parity` command time over 6 inputs: 2.22 s at 0.1 s, 2.22 s at 0.25 s,
# 2.37 s at 0.5 s, and 3.32 s never started
_PARALLEL_AFTER_S = 0.25
# the program of a worker process, which runs the loop hefs.<module>.<loop>.
# The directory that holds this hefs goes first on its path, so it imports
# this source whatever its working directory or PYTHONPATH; a Ctrl-C reaches
# only the parent, which closes it
_WORKER_SOURCE = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "sys.path.insert(0, {root!r}); from hefs.{module} import {loop}; {loop}()"
)
_HEFS_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the one byte a worker process writes once it has imported hefs
_READY = b"\x01"
# the size asked for the pipe to a worker: 1 MB, the most an unprivileged
# process may ask for under Linux's default /proc/sys/fs/pipe-max-size
_PIPE_BYTES = 1 << 20


class _Worker:
    """A handle on one worker process: a second interpreter that runs the
    loop hefs.<module>.<loop>() (see _serve) on two pipes. It owns every
    rule about the process; what to hand it is its user's choice, a search's
    _VoteWorker or a batch's hefs.cli._execute.

    Start: the process starts only where this process may run on 2 CPUs or
    more (os.sched_getaffinity), Python knows its interpreter's path, and
    the second CPU is free: no handle here has an open worker, and this
    process is not itself a worker. So there is never more than one worker.

    Protocol: ready awaits the ready byte without blocking. send hands over
    an item, with the loop data sent once, before the first. It may come
    before the ready byte, or while the worker owes answers; then it waits
    only while the pipe, enlarged to _PIPE_BYTES where the OS allows, is
    full, until the worker has started and reads it. Each item gets one
    answer, in the order sent: answered tells without blocking whether the
    next has come, and receive reads it.

    Close: a worker that owes an answer is killed, since it may be stopped
    or far from done; one that is not ready yet is terminated, so no one
    waits out its imports. Then both pipes close, so an idle worker exits on
    the end of its input, and the process is reaped. Any fault closes the
    handle. A closed handle is never ready, ignores what it is sent, and
    answers None.
    """

    # False while a handle in this process has an open worker, and for good
    # in a worker process (_serve)
    _cpu_free = True

    def __init__(self, module: str, loop: str):
        self._proc = None
        self._ready = self._data_sent = False
        self._owes = 0  # answers not yet received
        affinity = getattr(os, "sched_getaffinity", lambda pid: ())
        if not (_Worker._cpu_free and sys.executable and len(affinity(0)) >= 2):
            return
        import subprocess

        source = _WORKER_SOURCE.format(root=_HEFS_ROOT, module=module, loop=loop)
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", source], stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError:
            return
        _Worker._cpu_free = False
        try:  # Linux: room for a batch's loop data, so its first send need not wait
            import fcntl

            fcntl.fcntl(self._proc.stdin, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (ImportError, AttributeError, OSError):  # another OS, or the user's pipe quota
            pass

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _readable(self) -> bool:
        return bool(select.select([self._proc.stdout], [], [], 0)[0])

    def _read(self, n: int) -> bytes:
        """The next n bytes of the worker's output, waiting for them. They
        are read from the pipe with no buffer, so _readable sees every byte
        not yet read."""
        fd, chunks = self._proc.stdout.fileno(), []
        while n:
            chunk = os.read(fd, n)
            if not chunk:
                raise EOFError("the worker's output ended")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def _started(self, wait: bool) -> bool:
        """Whether the ready byte has come, reading it the first time; it
        waits for the byte only with wait."""
        if not self._ready:
            if not (wait or self._readable()):
                return False
            if self._read(1) != _READY:
                raise EOFError("the worker wrote no ready byte")
            self._ready = True
        return True

    def ready(self) -> bool:
        """Whether the worker can take an item now: its ready byte has
        arrived and it owes no answer. Never waits."""
        if self._proc is None or self._owes:
            return False
        try:
            return self._started(wait=False)
        except (EOFError, OSError):
            self.close()
            return False

    def send(self, data, item) -> None:
        """Hand the worker an item; data, its loop data, goes first the first
        time."""
        if self._proc is None:
            return
        self._owes += 1
        try:
            if not self._data_sent:
                pickle.dump(data, self._proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                self._data_sent = True
            pickle.dump(item, self._proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
        except OSError:
            self.close()

    def answered(self) -> bool:
        """Whether receive can read the next answer at once."""
        try:
            return bool(self._owes) and self._started(wait=False) and self._readable()
        except (EOFError, OSError):
            self.close()
            return False

    def receive(self):
        """The next answer, to the oldest item not yet answered, waiting for
        it; None if the handle is closed or the worker is lost."""
        if not self._owes:
            return None
        try:
            self._started(wait=True)
            answer = pickle.loads(self._read(int.from_bytes(self._read(8), "little")))
        except (EOFError, OSError, pickle.UnpicklingError):
            self.close()
            return None
        self._owes -= 1
        return answer

    def close(self) -> None:
        """End the worker by the close rule; the handle stays closed."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if self._owes:
                proc.kill()
            elif not self._ready:
                proc.terminate()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:  # a broken pipe's unsent bytes
                    pass
            proc.wait()
        finally:
            self._owes = 0
            _Worker._cpu_free = True


def _serve(answer) -> None:
    """A worker process's loop, on its standard input and output: mark this
    process as a worker, write the ready byte, read the loop data, then
    answer each item it reads with answer(data, item) and write the answer
    back, after its length in 8 bytes. An end of input at any point, or a
    closed output, ends it quietly."""
    _Worker._cpu_free = False
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    try:
        sink.write(_READY)
        sink.flush()
        data = pickle.load(source)
        while True:
            blob = pickle.dumps(answer(data, pickle.load(source)), protocol=pickle.HIGHEST_PROTOCOL)
            sink.write(len(blob).to_bytes(8, "little") + blob)
            sink.flush()
    except (EOFError, OSError, pickle.UnpicklingError):
        os._exit(0)  # skips the exit-time flush of a closed output


def _vote_worker() -> None:
    """The vote worker's loop: its data is (ds, folds, k, base), and it
    answers each list of extra sets with their per-fold accuracies from
    _fold_votes."""
    _serve(lambda loop, extra_sets: _fold_votes(*loop, extra_sets)[2])


class _VoteWorker:
    """A search's policy for voting its passes in two processes; the
    process itself is a _Worker, whose rules decide whether it starts.

    It times the passes it votes alone, and once they have taken
    _PARALLEL_AFTER_S it opens its _Worker. It never waits for the start:
    passes stay serial until the worker is ready. From then on each pass of
    two or more sets sends its second half to the worker and votes the first
    half here meanwhile. A set's votes do not depend on the other sets in its
    pass, so no vote changes with the split. A half the worker does not
    answer is voted here, and so is every later pass once the handle has
    closed. hefs_run builds one per search and closes it. In a batch, the
    run worker holds the second CPU, so no vote worker starts; which process
    runs a whole run is hefs.cli._execute's choice.
    """

    def __init__(self, ds: Dataset, folds: FoldAssignment, k: int, base: Sequence[int]):
        self._loop = (ds, folds, k, tuple(base))
        self._worker: Optional[_Worker] = None  # opened after _PARALLEL_AFTER_S
        self._vote_s = 0.0  # time spent voting alone so far

    def fold_acc(self, helper_sets: Sequence[Sequence[int]], vote) -> np.ndarray:
        """Per-fold accuracies of each helper set, (sets, n_folds), as
        vote(helper_sets) gives them: the worker votes the second half of the
        pass when it is ready, and vote the rest."""
        if self._worker is None and self._vote_s >= _PARALLEL_AFTER_S:
            self._worker = _Worker("ga", "_vote_worker")
        if len(helper_sets) >= 2 and self._worker is not None and self._worker.ready():
            half = (len(helper_sets) + 1) // 2
            self._worker.send(self._loop, helper_sets[half:])
            first = vote(helper_sets[:half])
            second = self._worker.receive()
            if second is None:
                second = vote(helper_sets[half:])
            return np.concatenate([first, second])
        started = time.perf_counter()
        fold_acc = vote(helper_sets)
        self._vote_s += time.perf_counter() - started
        return fold_acc

    def close(self) -> None:
        if self._worker is not None:
            self._worker.close()


class FitnessEvaluator:
    """Scores genomes against one dataset; memoizes by bitmask.

    Accuracy is cv_accuracy over conditional + helper columns, bit for bit,
    whichever k-NN path votes: both vote through metrics._fold_votes, which
    owns the summation order and the choice of path. Each pass goes to the
    vote worker that hefs_run gives the evaluator, which decides whether
    and how to split it (see _VoteWorker); without one it votes alone. The
    complementarity objective is 1 - mean/max over the mutual information of every
    (helper, conditional) column pair, read from a residual x conditional
    table built once; when every such MI is zero the helpers share nothing
    with the conditional set and the score is 1.
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
        self._worker: Optional[_VoteWorker] = None  # set by hefs_run only
        n, r = cfg.n_bins, len(self.residual)
        codes = _column_codes(ds.features, self.residual + conditional.indices, n)
        # row i: MI of residual i against each conditional column, in order
        self._cross_mi = np.column_stack([_mi_from_codes(codes[:r], c, n, n) for c in codes[r:]])

    def _score(self, masks: dict[bytes, np.ndarray]) -> None:
        """Memoize the fitness of every mask, keyed by its bytes, with every
        mask's cv_accuracy from one pass."""
        if not masks:
            return
        helper_sets = [_columns(self.residual, m) for m in masks.values()]
        if self._worker is None:
            fold_acc = self._vote(helper_sets)
        else:
            fold_acc = self._worker.fold_acc(helper_sets, self._vote)
        for (key, mask), row in zip(masks.items(), fold_acc):
            mi = self._cross_mi[mask].ravel()
            self._memo[key] = FitnessPair(float(row.mean()), complementarity_score(mi))

    def _vote(self, helper_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Per-fold accuracies of each helper set, (sets, n_folds)."""
        cond, k = self.conditional.indices, self.cfg.knn_k
        return _fold_votes(self.ds, self.folds, k, cond, helper_sets)[2]

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
        acc = cv_accuracy(ds, conditional.indices + _columns(residual, ind.mask), folds, cfg.knn_k)
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

    A long search votes part of its passes in a second process, with the
    same result byte for byte; the run's _VoteWorker says when and how, and
    its process is gone when this function returns or raises.
    """
    started = time.perf_counter()
    residual = residual_feature_indices(ds.d, conditional)

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
    evaluator._worker = _VoteWorker(ds_loop, folds_loop, cfg.knn_k, conditional.indices)
    try:
        population = selective_activation_init(len(residual), cfg, rng)
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
                offspring.append(parents[order[-1]])  # mutation copies the mask
            offspring = [ratio_guided_mutation(child, cfg, rng) for child in offspring]
            evaluator.evaluate_population(offspring)

            merge_base = initial_front if cfg.merge_initial_front else archive
            archive = _front_of(offspring + merge_base)
            population = offspring
            trace.append(_trace_record(generation, archive))
    finally:
        evaluator._worker.close()

    if cfg.use_cluster_reduction:
        best_ind, best_acc = best_helper_set(archive, conditional, ds, folds_full, cfg)
    else:
        # max keeps the first of any tie, as best_helper_set does
        best_ind = max(archive, key=lambda ind: ind.fitness.accuracy)
        best_acc = best_ind.fitness.accuracy
    return HelperResult(
        helper_indices=_columns(residual, best_ind.mask),
        accuracy=best_acc,
        trace=tuple(trace),
        final_front=tuple((_columns(residual, ind.mask), ind.fitness) for ind in archive),
        elapsed_seconds=time.perf_counter() - started,
    )
