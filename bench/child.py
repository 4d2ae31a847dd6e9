"""One workload run in a fresh process: import hefs, run the prepared hefs
commands in-process through ``hefs.cli.run``, and write the raw timings
(and, when tracing, the per-layer metrics and spans) as JSON.

Usage: python3 child.py JOB.json SPAWN_TIME
       python3 child.py JOB.json SPAWN_TIME --setup-only I

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is shared between processes, so the
import and set-up times below include interpreter start-up. With
--setup-only the process runs the set-up of the job's I-th step (input
load, z-score, conditional set), stops where the search would start, and
prints its import and set-up times as JSON. The workload process starts
such set-up probes after each of its steps, so that set-up is sampled
across the whole run; it waits for each, and times no command while one
runs.
"""

import sys
from time import perf_counter

import contextlib
import io
import json
import resource
import subprocess
import traceback


def peak_rss_mb() -> float:
    """Peak RSS of this process image. ru_maxrss would also count the parent's
    RSS at fork time, which Linux carries across exec; VmHWM does not."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupDone(BaseException):
    """Raised where the search would start; hefs.cli catches only Exception."""


def setup_only(job: dict, step: int, spawn_time: float, import_s: float) -> int:
    import hefs.cli

    def stop(*args, **kwargs):
        raise SetupDone(perf_counter())

    hefs.cli.hefs_run = stop
    argv = job["steps"][step][0][0]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hefs.cli.run(argv)
    except SetupDone as done:
        print(json.dumps({"import_s": import_s, "setup_s": done.args[0] - spawn_time}))
        return 0
    print(f"{' '.join(argv)}: exited {rc} before its search", file=sys.stderr)
    return 1


def setup_probe(job_path: str, step: int) -> dict:
    """Import and set-up time of the given step's command in a fresh process."""
    argv = [sys.executable, __file__, job_path, repr(perf_counter()), "--setup-only", str(step)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe of step {step} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    job_path, spawn_time = sys.argv[1], float(sys.argv[2])
    import hefs.cli  # timed: part of the set-up a user pays

    import_s = perf_counter() - spawn_time
    with open(job_path) as fh:
        job = json.load(fh)
    if sys.argv[3:4] == ["--setup-only"]:
        return setup_only(job, int(sys.argv[4]), spawn_time, import_s)

    from tracing import ROOT_SPAN, Probe

    probe = Probe()
    commands: list[dict] = []
    overheads: list[float] = []

    def run_command(argv: list[str], traced: bool) -> dict:
        record = {"argv": argv, "traced": traced, "first_search": len(probe.searches)}
        sink = io.StringIO()  # hefs prints one "wrote ..." line per file
        with probe.installed(trace=traced), contextlib.redirect_stdout(sink):
            record["start"] = perf_counter()
            try:
                if traced:
                    record["rc"] = probe.call(ROOT_SPAN, hefs.cli.run, argv)
                else:
                    record["rc"] = hefs.cli.run(argv)
            except Exception:  # a crashing command counts as failed; keep going
                record["rc"] = None
                record["error"] = traceback.format_exc()
            record["end"] = perf_counter()
        record["searches"] = probe.searches[record["first_search"] :]
        commands.append(record)
        return record

    # Trace runs execute each command twice, untraced then traced on the same
    # inputs, so the difference is the tracing overhead of that command.
    samples = []
    n_steps = len(job["steps"])
    for i, step in enumerate(job["steps"]):
        records = [run_command(argv, traced) for argv, traced in step]
        samples += [setup_probe(job_path, i) for _ in range(i, job["setup_probes"], n_steps)]
        if len(records) == 2:
            overheads.append(
                (records[1]["end"] - records[1]["start"]) - (records[0]["end"] - records[0]["start"])
            )

    # this process's set-up: its start to its first search, as a probe's
    first = [probe.searches[0]["start"] - spawn_time] if probe.searches else []
    result = {
        "imports": [s["import_s"] for s in samples] + [import_s],
        "setups": [s["setup_s"] for s in samples] + first,
        "peak_rss_mb": peak_rss_mb(),
        "commands": commands,
        "absent": sorted(probe.absent),
    }
    if job["trace"]:
        n_traced = sum(c["traced"] for c in commands)
        result["layers"] = probe.layer_metrics(n_traced, overheads)
        result["eval_tail"] = probe.eval_tail()
        result["traced_wall_s"] = probe.traced_wall()
        result["span_totals"] = probe.span_totals()
        with open(job["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "search"],
                       "spans": probe.spans}, fh)
    with open(job["results"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
