"""Tests of the benchmark itself, on tiny versions of every workload.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import COUNTER_SPAN, ROOT_SPAN  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "parity": Workload("parity", {"n": 40, "d": 6, "pop": 4, "iters": 2}),
    "spambase_shape": Workload("spambase_shape", {"n": 200, "d": 12, "cond": 4, "pop": 2, "iters": 1}),
    "cli_batch": Workload(
        "cli_batch",
        {"n": 240, "d": 10, "prototypes": 24, "cond": 3, "pop": 4, "iters": 2, "runs": 2},
    ),
}


def bench_main(argv: list[str], digests: Path) -> tuple[int, dict | None, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads=TINY, digests_path=digests)
    lines = out.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if code == 0 else None), out.getvalue()


def test_tiny_workloads_mirror_the_real_ones():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name, w in WORKLOADS.items():
        assert set(TINY[name].sizes) == set(w.sizes)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_emits_every_metric(workload, trace, tmp_path):
    code, line, text = bench_main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        tmp_path / "digests.json",
    )
    assert code == 0, text
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, text
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        metric = line["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
        if not trace:
            assert metric["value"] > 0, m["name"]


def test_tampered_digest_fails_the_search(tmp_path):
    digests = tmp_path / "digests.json"
    argv = ["--workload", "parity", "--seed", "0", "--seconds", "1", "--trace", "0"]
    code, line, text = bench_main(argv + ["--record-digests"], digests)
    assert code == 0 and line["correct"], text
    stored = json.loads(digests.read_text())
    assert stored["parity"], "no digest recorded"

    code, line, text = bench_main(argv, digests)
    assert code == 0 and line["correct"] and line["failed"] == 0, text

    seed = next(iter(stored["parity"]))
    stored["parity"][seed] = "0" * 64
    digests.write_text(json.dumps(stored))
    code, line, text = bench_main(argv, digests)
    assert code == 0
    assert not line["correct"] and line["failed"] == 1, text
    assert "outcome digest differs" in text


def test_layer_self_times_and_untraced_share_add_up_to_traced_wall(tmp_path):
    summary = run.run_workload(
        TINY["cli_batch"], 5, 1.0, True, {}, out=io.StringIO()
    )
    work = Path(summary["work"])
    spans = json.loads((work / "spans.json").read_text())["spans"]
    n = summary["traced_commands"]
    wall = summary["traced_wall_s"]
    totals = summary["span_totals"]
    # independent of the probe's bookkeeping: self time is a span's duration
    # minus its direct children's
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    layer_self = sum(t for t, (name, *_) in zip(own, spans) if name != ROOT_SPAN)
    root_self = sum(t for t, (name, *_) in zip(own, spans) if name == ROOT_SPAN)
    share = summary["layers"]["trace.untraced_share"]
    assert sum(t["self"] for name, t in totals.items() if name != ROOT_SPAN) == pytest.approx(
        layer_self, rel=1e-9
    )
    # the root span's self time is hefs code outside every layer: untraced
    assert layer_self + share * wall == pytest.approx(wall, rel=1e-9)
    assert root_self > 0 and root_self / wall <= share < 1.0
    assert all(t["self"] >= -1e-9 for t in totals.values())
    # per-command layer times are the span totals divided by the traced commands
    assert summary["layers"]["ga.evaluate_self_s"] * n == pytest.approx(totals["ga.evaluate"]["self"])


def test_counter_work_is_outside_every_layer_time(tmp_path):
    summary = run.run_workload(TINY["cli_batch"], 5, 1.0, True, {}, out=io.StringIO())
    spans = json.loads((Path(summary["work"]) / "spans.json").read_text())["spans"]
    totals = summary["span_totals"]
    counted = {}  # span index -> counter seconds beneath it
    for name, start, end, parent, _ in spans:
        if name == COUNTER_SPAN:
            while parent >= 0:
                counted[parent] = counted.get(parent, 0.0) + end - start
                parent = spans[parent][3]
    assert counted, "no counter ran"
    for layer in ("ga.evaluate", "metrics.cv_accuracy", "ga.search", ROOT_SPAN):
        raw = sum(end - start - counted.get(i, 0.0)
                  for i, (name, start, end, _, _) in enumerate(spans) if name == layer)
        assert totals[layer]["total"] == pytest.approx(raw, rel=1e-9), layer
    assert totals[ROOT_SPAN]["total"] < sum(e - s for name, s, e, _, _ in spans if name == ROOT_SPAN)


def test_removed_name_is_absent_not_a_failure(monkeypatch, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import hefs.cli
    from tracing import Probe

    monkeypatch.delattr(hefs.cli, "aggregate")  # a single-run command never calls it
    probe = Probe()
    inputs = TINY["parity"].prepare(tmp_path, 0, 1)
    with probe.installed(trace=True), contextlib.redirect_stdout(io.StringIO()):
        assert probe.call("cli.run", hefs.cli.run, list(inputs.command(0).argv)) == 0
    layers = probe.layer_metrics(1, [])
    assert probe.absent == {"hefs.cli.aggregate"}
    assert layers["cli.aggregate_s"] is None
    assert layers["ga.evals"] > 0 and layers["metrics.knn_s"] > 0
    # genomes counted at evaluate_population are the unique evaluations
    assert probe.searches[0]["evals"] == layers["ga.evals"]
    assert hefs.cli.run.__module__ == "hefs.cli" and hefs.ga.cv_accuracy.__module__ == "hefs.metrics"


def test_uncounted_evaluations_give_no_rate():
    command = {"traced": False, "rc": 0, "start": 0.0, "end": 3.0,
               "searches": [{"start": 0.5, "end": 2.5, "evals": None}]}
    result = {"commands": [command], "imports": [0.1], "setups": [0.2], "peak_rss_mb": 50.0}
    e2e = run.end_to_end(result)
    assert e2e["evals_per_s"] == (None, 0)
    assert e2e["search_s"] == (2.0, 1) and e2e["setup_s"] == (0.2, 1)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "parity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
