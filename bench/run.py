"""hefs benchmark: run one workload end to end and check every output.

    python3 bench/run.py --workload parity --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced then traced

Run from the repository root. The workload's inputs are generated from
--seed into .bench_work/, then a fresh Python process (BLAS pinned to one
thread, HEFS_THREADS removed) imports hefs from src/ and runs the workload's
hefs commands through ``hefs.cli.run`` for --seconds. Afterwards every report
is checked (see checks.py). Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from checks import ReportChecker, outcome_digest  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
DIGESTS = BENCH / "digests.json"
DEADLINE_S = 170.0  # the whole run, child and checks included, must end by 180 s
SETUP_SAMPLES = 12  # fresh processes whose set-up time makes up setup_s

END_TO_END = (
    ("setup_s", "s"),
    ("search_s", "s"),
    ("report_s", "s"),
    ("total_s", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# printed, but not in the result line: parity's report phase lasts ~10 ms,
# too short to hold any bound on this class of machine
UNGATED = ("report_s",)


def child_env() -> dict[str, str]:
    """The environment every workload process runs with."""
    env = {k: v for k, v in os.environ.items() if k != "HEFS_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def machine_stamp() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "child_env": {k: env[k] for k in (*THREAD_VARS, "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE")}
        | {"PYTHONPATH": str(SRC.relative_to(ROOT))},
        "child_env_removed": ["HEFS_THREADS"],
    }


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(result: dict) -> dict[str, tuple[float | None, int]]:
    """(median, sample count) of each end-to-end metric over untraced commands."""
    cmds = [c for c in result["commands"] if not c["traced"] and c["rc"] == 0]
    searches, reports, rates = [], [], []
    for c in cmds:
        runs = c["searches"]
        for j, s in enumerate(runs):
            seconds = s["end"] - s["start"]
            searches.append(seconds)
            if s["evals"]:  # None when the counting probe is absent
                rates.append(s["evals"] / seconds)
            done = runs[j + 1]["start"] if j + 1 < len(runs) else c["end"]
            reports.append(done - s["end"])
    totals = [c["end"] - c["start"] for c in cmds]
    imp = statistics.median(result["imports"])
    total = _median(totals)
    return {
        "setup_s": (_median(result["setups"]), len(result["setups"])),
        "search_s": (_median(searches), len(searches)),
        "report_s": (_median(reports), len(reports)),
        "total_s": (None if total is None else imp + total, len(totals)),
        "evals_per_s": (_median(rates), len(rates)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    digests: dict[str, str],
    out=None,
) -> dict:
    """Run one workload; return {correct, attempted, failed, metrics, ...}."""
    started = perf_counter()
    work = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    count = workload.commands_per_run(seconds)
    if trace:
        # each traced step runs its command twice, so halve the count to keep
        # a traced run about as long as an untraced one
        count = max(1, count // 2)
    inputs = workload.prepare(work, seed, count)
    if trace:
        steps = [[(inputs.command(i), False), (inputs.command(i, "_traced"), True)]
                 for i in range(count)]
    else:
        steps = [[(inputs.command(i), False)] for i in range(count)]
    job = {
        "steps": [[(list(cmd.argv), traced) for cmd, traced in step] for step in steps],
        "trace": trace,
        "results": str(work / "results.json"),
        "spans": str(work / "spans.json"),
        # set-up is short and noisy: besides the workload process's own, it is
        # sampled in fresh processes spread over the run (not needed when tracing)
        "setup_probes": 0 if trace else SETUP_SAMPLES - 1,
    }
    (work / "job.json").write_text(json.dumps(job))

    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(work / "job.json"), repr(perf_counter())],
        env=child_env(),
        cwd=str(BENCH),
    )
    try:
        code = proc.wait(timeout=max(1.0, DEADLINE_S - (perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload.name}: workload process overran the {DEADLINE_S:.0f} s deadline")
    if code != 0:
        raise RuntimeError(f"{workload.name}: workload process exited with {code}")
    result = json.loads((work / "results.json").read_text())

    checker = ReportChecker(SRC / "hefs" / "report_schema.json", digests)
    attempted = failed = 0
    problems: list[str] = []
    found: dict[str, str] = {}
    for record, (cmd, traced) in zip(result["commands"], (s for step in steps for s in step)):
        attempted += len(cmd.seeds)
        if record["rc"] != 0:
            failed += len(cmd.seeds)
            problems.append(f"{' '.join(cmd.argv)}: exit code {record['rc']}"
                            + (f"\n{record['error']}" if "error" in record else ""))
            continue
        bad = 0
        runs = record["searches"]
        for j, (path, hseed) in enumerate(zip(cmd.reports, cmd.seeds)):
            found_problems = checker.check(path)
            if j < len(runs) and runs[j]["evals"] == 0:
                found_problems.append(f"{path.name}: the search scored no genomes")
            if not found_problems and path.is_file():
                digest = outcome_digest(json.loads(path.read_text()))
                # a traced run must not change the outcome of the same command
                if found.setdefault(str(hseed), digest) != digest:
                    found_problems.append(f"{path.name}: traced outcome differs from untraced")
            if found_problems:
                bad += 1
                problems.extend(found_problems)
        if cmd.aggregate is not None and not cmd.aggregate.is_file():
            problems.append(f"{cmd.aggregate}: aggregate missing")
            bad = len(cmd.seeds)
        failed += bad
    for f in inputs.files:
        f.unlink(missing_ok=True)

    e2e = end_to_end(result)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "work": str(work),
        "machine": machine_stamp(),
        "imports": result["imports"],
        "setups": result["setups"],
        "commands": sum(not c["traced"] for c in result["commands"]),
        "absent": result["absent"],
        "problems": problems,
        "digests": found,
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "end_to_end": {k: {"value": e2e[k][0], "n": e2e[k][1], "unit": u} for k, u in END_TO_END},
    }
    if trace:
        summary["layers"] = result["layers"]
        summary["eval_tail"] = result["eval_tail"]
        summary["traced_wall_s"] = result["traced_wall_s"]
        summary["span_totals"] = result["span_totals"]
        summary["traced_commands"] = sum(c["traced"] for c in result["commands"])
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    print_summary(summary, out or sys.stdout)
    return summary


def print_summary(s: dict, out) -> None:
    w = lambda line="": print(line, file=out)  # noqa: E731
    w(f"== {s['workload']}  seed {s['seed']}  trace {int(s['trace'])}  "
      f"commands {s['commands']}  searches attempted {s['attempted']}  failed {s['failed']}")
    w(f"machine {json.dumps(s['machine'], sort_keys=True)}")
    for problem in s["problems"]:
        w(f"FAILED {problem}")
    if s["absent"]:
        w(f"absent wrapped names: {', '.join(s['absent'])}")
    w(f"  {'failed_ratio':<28} {s['failed_ratio']:>12.4g} ratio  ({s['attempted']} searches)")
    if not s["trace"]:
        for name, m in s["end_to_end"].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.4f}"
            note = f"median of {m['n']}"
            if name == "setup_s":
                note += " fresh processes"
            if name == "total_s":
                note += f" commands, plus the median import of {len(s['imports'])} processes"
            w(f"  {name:<28} {value:>12} {m['unit']:<5} ({note})")
        return
    n = s["traced_commands"]
    for name, unit, _ in LAYER_METRICS:
        v = s["layers"][name]
        value = "absent" if v is None else f"{v:.6g}"
        note = ""
        if name == "ga.eval_ms_tail":
            _, pct, count = s["eval_tail"]
            note = f" p{pct:.2f} of {count} evaluations"
        w(f"  {name:<28} {value:>12} {unit:<5} (per command, {n} traced){note}")
    selfs = sorted(((t["self"], name) for name, t in s["span_totals"].items()), reverse=True)
    w("  largest self times: " + ", ".join(f"{name} {t / max(n, 1):.4g}s" for t, name in selfs[:5]))


def result_line(summaries: list[dict]) -> dict:
    """The last output line; metric names get a workload prefix when several ran."""
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    several = len({s["workload"] for s in summaries}) > 1
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if several else ""
        if s["trace"]:
            for name, value in s["layers"].items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
        else:
            for name, m in s["end_to_end"].items():
                if name not in UNGATED:
                    metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None, workloads=WORKLOADS, digests_path: Path = DIGESTS) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store the outcome digests of this run (seed {DEFAULT_SEED} only) in {DIGESTS.name}",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "hefs" / "__init__.py").is_file():
        print(f"error: no hefs sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        p.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    sys.path.insert(0, str(SRC))

    stored = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    names = list(workloads) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    use_stored = args.seed == DEFAULT_SEED and not args.record_digests
    summaries = []
    try:
        for name in names:
            for trace in modes:
                digests = stored.get(name, {}) if use_stored else {}
                summaries.append(run_workload(workloads[name], args.seed, args.seconds, trace, digests))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record_digests:
        for s in summaries:
            stored.setdefault(s["workload"], {}).update(s["digests"])
        digests_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result_line(summaries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
