"""The names the benchmark's probes patch must stay where it looks them up.

bench/tracing.py wraps each (module, attribute path) in SPAN_TARGETS; a name
that moves or disappears silently turns its per-layer metrics into nulls.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from hefs import (
    ConditionalSet,
    FitnessEvaluator,
    GAConfig,
    hefs_run,
    synth_xor_dataset,
    zscore_normalize,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPAN_TARGETS


@pytest.mark.parametrize("span,module,path", _span_targets())
def test_span_target_resolves(span, module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr)), f"{span}: {module}.{path}"


@pytest.mark.parametrize("module", ["hefs.ga", "hefs.metrics"])
def test_knn_vote_keeps_its_positional_form(module):
    params = list(inspect.signature(importlib.import_module(module)._knn_from_d2).parameters)
    assert params == ["d2", "train_y", "k", "n_classes"]


def test_every_genome_handed_to_evaluate_population_passes_through_evaluate(monkeypatch):
    handed, evaluated = set(), set()
    batch, single = FitnessEvaluator.evaluate_population, FitnessEvaluator.evaluate

    def counting_batch(self, population):
        handed.update(ind.mask.tobytes() for ind in population)
        return batch(self, population)

    def counting_single(self, individual):
        evaluated.add(individual.mask.tobytes())
        return single(self, individual)

    monkeypatch.setattr(FitnessEvaluator, "evaluate_population", counting_batch)
    monkeypatch.setattr(FitnessEvaluator, "evaluate", counting_single)
    ds = zscore_normalize(synth_xor_dataset(60, 6, 0.0, np.random.default_rng(1)))
    hefs_run(ds, ConditionalSet((0,), "file"), GAConfig(pop_size=6, generations=3))
    assert handed and evaluated == handed
