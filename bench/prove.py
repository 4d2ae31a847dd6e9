"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --seeds 1-10                      # every workload
    python3 bench/prove.py --workloads parity --seeds 1-5
    python3 bench/prove.py --seeds 1-10 --write bench/baseline.json

Each run is a separate ``bench/run.py`` process, exactly as BENCHMARK.json's
command runs it, with BENCHMARK.json's run_seconds. For each end-to-end
metric it prints the median, the quartiles and the spread, (q3 - q1) /
median with ``statistics.quantiles(values, n=4)``, next to the metric's
bound. With --trace-seed it also makes one traced run per workload and
keeps its per-layer metrics. --write saves all of it, with the machine
stamp, as a baseline entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--trace-seed", type=int, default=None, help="also make one traced run")
    p.add_argument("--write", type=Path, help="save the results as a baseline entry")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    worst = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            line, human = run_once(spec, workload, seed, 0)
            if "machine" not in entry:
                entry["machine"] = json.loads(next(h for h in human if h.startswith("machine "))[8:])
            results.append(line)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {values}", flush=True)
        stats = {
            name: spread([r["metrics"][name]["value"] for r in results]) for name in bounds
        }
        record = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": stats,
        }
        print(f"-- {workload}: failed {record['failed']}/{record['attempted']}")
        for name, s in stats.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"   {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
            worst[f"{workload}.{name}"] = s["spread"] / bounds[name]
        if args.trace_seed is not None:
            line, _ = run_once(spec, workload, args.trace_seed, 1)
            record["traced"] = {"seed": args.trace_seed, "correct": line["correct"],
                                "layers": {k: v["value"] for k, v in line["metrics"].items()}}
        entry["workloads"][workload] = record
    if worst:
        name = max(worst, key=worst.get)
        print(f"largest spread relative to its bound: {name} at {worst[name]:.2f} of the bound")
    if args.write:
        args.write.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
