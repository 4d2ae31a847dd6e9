"""Probes around the calls into each hefs layer, installed from outside.

The hefs modules use ``from ... import``, so each probe replaces the name the
*caller* looks up (``hefs.ga.cv_accuracy``, not ``hefs.metrics.cv_accuracy``).
Two kinds of probe exist:

* base probes, always on: time each ``hefs_run`` call and count the unique
  genomes handed to ``FitnessEvaluator.evaluate_population``, the entry
  point of every evaluation in the GA loop. They cost a few microseconds per
  search or generation and feed the end-to-end metrics.
* spans, on only in traced commands: name, start, end, parent and search id
  for every call of a wrapped name, kept in memory. Counters that need extra
  work (k-NN ties) run after the span closes, inside a ``trace.counters``
  span. Their time is taken out of every enclosing span too, so no layer's
  time, inclusive or self, contains counter work.

A wrapped name that no longer exists is recorded as absent; the metrics that
depend on it are reported as null instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter

import numpy as np

# (span name, module the caller looks the name up in, attribute path)
SPAN_TARGETS = (
    ("dataset.load", "hefs.cli", "load_csv"),
    ("dataset.load", "hefs.cli", "synth_xor_dataset"),
    ("dataset.zscore", "hefs.cli", "zscore_normalize"),
    ("baselines.select", "hefs.cli", "mi_rank_select"),
    ("baselines.select", "hefs.cli", "ttest_rank_select"),
    ("baselines.select", "hefs.cli", "load_conditional"),
    ("ga.search", "hefs.cli", "hefs_run"),
    ("dataset.folds", "hefs.ga", "stratified_kfold"),
    ("dataset.leader_cluster", "hefs.ga", "leader_cluster"),
    ("dataset.reduce", "hefs.ga", "reduce_dataset"),
    ("ga.init", "hefs.ga", "selective_activation_init"),
    ("ga.evaluate", "hefs.ga", "FitnessEvaluator.evaluate"),
    ("ga.selection", "hefs.ga", "selection"),
    ("ga.variation", "hefs.ga", "single_point_crossover"),
    ("ga.variation", "hefs.ga", "ratio_guided_mutation"),
    ("ga.rescore", "hefs.ga", "best_helper_set"),
    ("moo.nondominated_sort", "hefs.ga", "nondominated_sort"),
    ("moo.niche_select", "hefs.ga", "niche_select"),
    ("moo.pareto_solutions", "hefs.ga", "pareto_solutions"),
    ("metrics.cv_accuracy", "hefs.ga", "cv_accuracy"),
    ("metrics.knn", "hefs.ga", "_knn_from_d2"),
    ("metrics.knn", "hefs.metrics", "_knn_from_d2"),
    ("metrics.sq_distances", "hefs.metrics", "_sq_distances"),
    ("metrics.mi", "hefs.ga", "_mi_from_codes"),
    ("metrics.full_metrics", "hefs.cli", "full_metrics"),
    ("cli.report_write", "hefs.cli", "write_report"),
    ("cli.aggregate", "hefs.cli", "aggregate"),
)
ROOT_SPAN = "cli.run"
COUNTER_SPAN = "trace.counters"

# per-layer metrics, in the order printed: (name, unit, better)
LAYER_METRICS = (
    ("dataset.load_s", "s", "lower"),
    ("dataset.zscore_s", "s", "lower"),
    ("dataset.folds_s", "s", "lower"),
    ("dataset.leader_cluster_s", "s", "lower"),
    ("dataset.cluster_ratio", "ratio", "lower"),
    ("baselines.select_s", "s", "lower"),
    ("ga.search_s", "s", "lower"),
    ("ga.init_s", "s", "lower"),
    ("ga.evaluate_s", "s", "lower"),
    ("ga.evaluate_self_s", "s", "lower"),
    ("ga.eval_calls", "count", "lower"),
    ("ga.evals", "count", "lower"),
    ("ga.memo_hit_ratio", "ratio", "higher"),
    ("ga.eval_ms_p50", "ms", "lower"),
    ("ga.eval_ms_tail", "ms", "lower"),
    ("ga.uncached_eval_ratio", "ratio", "lower"),
    ("ga.cols_per_eval", "count", "lower"),
    ("ga.selection_s", "s", "lower"),
    ("ga.variation_s", "s", "lower"),
    ("ga.rescore_s", "s", "lower"),
    ("ga.rescore_calls", "count", "lower"),
    ("moo.nondominated_sort_s", "s", "lower"),
    ("moo.niche_select_s", "s", "lower"),
    ("moo.pareto_solutions_s", "s", "lower"),
    ("metrics.knn_s", "s", "lower"),
    ("metrics.knn_calls", "count", "lower"),
    ("metrics.knn_tie_rows_ratio", "ratio", "lower"),
    ("metrics.sq_distances_s", "s", "lower"),
    ("metrics.cv_accuracy_s", "s", "lower"),
    ("metrics.cv_accuracy_calls", "count", "lower"),
    ("metrics.mi_s", "s", "lower"),
    ("metrics.mi_calls", "count", "lower"),
    ("metrics.full_metrics_s", "s", "lower"),
    ("cli.report_write_s", "s", "lower"),
    ("cli.aggregate_s", "s", "lower"),
    ("trace.counters_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.untraced_share", "ratio", "lower"),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module.path``, or None if gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def tail_percentile(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that still
    leaves at least 10 samples above it; with 10 or fewer samples there is
    none, and the maximum is returned as the 100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    pos = n - 11  # exactly 10 samples lie above ordered[pos]
    return ordered[pos], 100.0 * (pos + 1) / n, n


class Probe:
    """Records searches, evaluations and (when tracing) spans for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, search id]
        self._stack: list[int] = []
        self.search_id = -1
        self.searches: list[dict] = []  # per hefs_run call: start, end, evals
        self._seen: set[bytes] = set()  # genomes handed to evaluate_population
        self._evaluated: set[bytes] = set()  # genomes seen by the ga.evaluate spans
        self.counting = False  # whether the evaluate_population probe is installed
        self.absent: set[str] = set()
        self.windows: list[tuple[float, float]] = []  # traced wall-clock windows
        self.eval_cols: dict[int, int] = {}  # unique-evaluation span -> columns scored
        self.tie_rows = 0
        self.query_rows = 0
        self.loop_rows: list[tuple[int, int]] = []  # (rows scored in the loop, n)

    # ---- base probes -------------------------------------------------------

    def _timed_search(self, fn):
        def hefs_run(*args, **kwargs):
            self.search_id += 1
            self._seen = set()
            self._evaluated = set()
            record = {"start": perf_counter()}
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                # None when the counting probe's target is gone: the rate is
                # then absent, not zero
                record["evals"] = len(self._seen) if self.counting else None
                self.searches.append(record)

        return hefs_run

    def _counted_population(self, fn):
        def evaluate_population(evaluator, population, *args, **kwargs):
            self._seen.update(ind.mask.tobytes() for ind in population)
            return fn(evaluator, population, *args, **kwargs)

        return evaluate_population

    # ---- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.search_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _spanned(self, name: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.call(COUNTER_SPAN, counter, index, args, result)
            return result

        return wrapper

    def _count_evaluation(self, index, args, result) -> None:
        evaluator, individual = args[0], args[1]
        key = individual.mask.tobytes()
        if key not in self._evaluated:  # first time this search scores the genome
            self._evaluated.add(key)
            self.eval_cols[index] = len(evaluator.conditional.indices) + int(individual.mask.sum())

    def _count_ties(self, index, args, result) -> None:
        """Query rows with more training rows at the k-th distance than free slots."""
        d2, k = args[0], args[2]
        k_eff = min(k, d2.shape[1])
        kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1 : k_eff]
        free = k_eff - (d2 < kth).sum(axis=1)
        self.tie_rows += int(np.count_nonzero((d2 == kth).sum(axis=1) > free))
        self.query_rows += d2.shape[0]

    def _count_clusters(self, index, args, result) -> None:
        self.loop_rows.append((result.n_clusters, args[0].n))

    _COUNTERS = {
        "ga.evaluate": "_count_evaluation",
        "metrics.knn": "_count_ties",
        "dataset.leader_cluster": "_count_clusters",
    }

    # ---- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, trace: bool):
        """Patch hefs for one command: base probes always, spans if ``trace``."""
        # the search timer sits over the search span, so a search's spans
        # carry its id
        patches = [("hefs.ga", "FitnessEvaluator.evaluate_population", self._counted_population)]
        if trace:
            for name, module, path in SPAN_TARGETS:
                counter = self._COUNTERS.get(name)
                counter = getattr(self, counter) if counter else None
                patches.append(
                    (module, path, lambda fn, n=name, c=counter: self._spanned(n, fn, c))
                )
        patches.append(("hefs.cli", "hefs_run", self._timed_search))
        undo = []
        try:
            for module, path, make in patches:
                target = _resolve(module, path)
                if target is None:
                    self.absent.add(f"{module}.{path}")
                    continue
                owner, attr = target
                original = getattr(owner, attr)
                setattr(owner, attr, make(original))
                undo.append((owner, attr, original))
            self.counting = "hefs.ga.FitnessEvaluator.evaluate_population" not in self.absent
            started = perf_counter()
            try:
                yield
            finally:
                if trace:
                    self.windows.append((started, perf_counter()))
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ---- summary -----------------------------------------------------------

    def durations(self) -> list[float]:
        """Each span's duration minus the counter spans anywhere beneath it."""
        counted = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if name == COUNTER_SPAN:
                while parent >= 0:
                    counted[parent] += end - start
                    parent = self.spans[parent][3]
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, counted)]

    def span_totals(self) -> dict[str, dict]:
        """Per span name: inclusive seconds and self seconds, both without
        counter work, and call count."""
        duration = self.durations()
        child_time = [0.0] * len(self.spans)
        for (name, _, _, parent, _), d in zip(self.spans, duration):
            if parent >= 0 and name != COUNTER_SPAN:
                child_time[parent] += d
        totals: dict[str, dict] = {}
        for i, (name, _, _, _, _) in enumerate(self.spans):
            t = totals.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            t["total"] += duration[i]
            t["self"] += duration[i] - child_time[i]
            t["calls"] += 1
        return totals

    def traced_wall(self) -> float:
        return sum(end - start for start, end in self.windows)

    def layer_metrics(self, n_commands: int, overheads: list[float]) -> dict[str, float | None]:
        """Per-layer metrics of the traced commands, per command where additive."""
        totals = self.span_totals()
        absent_spans = {
            name
            for name in {n for n, _, _ in SPAN_TARGETS}
            if all(f"{m}.{p}" in self.absent for n, m, p in SPAN_TARGETS if n == name)
        }
        per = max(n_commands, 1)

        def seconds(span: str, key: str = "total"):
            if span in absent_spans:
                return None
            return totals.get(span, {}).get(key, 0.0) / per

        def calls(span: str):
            if span in absent_spans:
                return None
            return totals.get(span, {}).get("calls", 0) / per

        out: dict[str, float | None] = {}
        evaluate_spans = [i for i, s in enumerate(self.spans) if s[0] == "ga.evaluate"]
        unique = [i for i in evaluate_spans if i in self.eval_cols]
        uncached = {self.spans[i][3] for i, s in enumerate(self.spans) if s[0] == "metrics.cv_accuracy"}
        rescores = {i for i, s in enumerate(self.spans) if s[0] == "ga.rescore"}
        duration = self.durations()
        eval_ms = [1000.0 * duration[i] for i in unique]
        if "ga.evaluate" in absent_spans:
            for name in ("ga.eval_calls", "ga.evals", "ga.memo_hit_ratio", "ga.eval_ms_p50",
                         "ga.eval_ms_tail", "ga.uncached_eval_ratio", "ga.cols_per_eval"):
                out[name] = None
        else:
            out["ga.eval_calls"] = len(evaluate_spans) / per
            out["ga.evals"] = len(unique) / per
            out["ga.memo_hit_ratio"] = (
                1.0 - len(unique) / len(evaluate_spans) if evaluate_spans else 0.0
            )
            out["ga.eval_ms_p50"] = statistics.median(eval_ms) if eval_ms else 0.0
            out["ga.eval_ms_tail"] = tail_percentile(eval_ms)[0]
            out["ga.uncached_eval_ratio"] = (
                sum(i in uncached for i in unique) / len(unique) if unique else 0.0
            )
            out["ga.cols_per_eval"] = (
                statistics.fmean(self.eval_cols[i] for i in unique) if unique else 0.0
            )
        out["ga.rescore_calls"] = (
            None
            if "ga.rescore" in absent_spans or "metrics.cv_accuracy" in absent_spans
            else sum(s[0] == "metrics.cv_accuracy" and s[3] in rescores for s in self.spans) / per
        )
        out["metrics.knn_tie_rows_ratio"] = (
            None
            if "metrics.knn" in absent_spans
            else (self.tie_rows / self.query_rows if self.query_rows else 0.0)
        )
        if "dataset.leader_cluster" in absent_spans:
            out["dataset.cluster_ratio"] = None
        else:
            # searches without cluster reduction score every row in the loop
            n_plain = max(len(self.searches_traced()) - len(self.loop_rows), 0)
            ratios = [m / n for m, n in self.loop_rows] + [1.0] * n_plain
            out["dataset.cluster_ratio"] = statistics.fmean(ratios) if ratios else 1.0
        out["trace.counters_s"] = totals.get(COUNTER_SPAN, {}).get("total", 0.0) / per
        out["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
        # the root span's self time is hefs code that no layer's span covers:
        # it counts as untraced
        wall = self.traced_wall()
        covered = sum(t["self"] for name, t in totals.items() if name != ROOT_SPAN)
        out["trace.untraced_share"] = (wall - covered) / wall if wall > 0 else 0.0
        # the rest are plain span figures: <span>_self_s, <span>_calls, <span>_s
        for name, _, _ in LAYER_METRICS:
            if name in out:
                continue
            if name.endswith("_self_s"):
                out[name] = seconds(name[: -len("_self_s")], "self")
            elif name.endswith("_calls"):
                out[name] = calls(name[: -len("_calls")])
            else:
                out[name] = seconds(name[: -len("_s")])
        return {name: out[name] for name, _, _ in LAYER_METRICS}

    def searches_traced(self) -> list[dict]:
        """Searches that ran inside a traced window."""
        return [
            s for s in self.searches
            if any(start <= s["start"] and s["end"] <= end for start, end in self.windows)
        ]

    def eval_tail(self) -> tuple[float, float, int]:
        duration = self.durations()
        return tail_percentile([1000.0 * duration[i] for i in self.eval_cols])
