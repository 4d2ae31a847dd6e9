"""Command line front end: load or synthesize a dataset, pick a conditional
set, search for helpers, and write a JSON report per run.

Exit codes: 0 success, 1 data errors (bad files, bad labels), 2 config
errors (bad flags, impossible settings, an --out path that cannot be
written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import ConditionalSet, load_conditional, mi_rank_select, ttest_rank_select
from .dataset import Dataset, DatasetError, LabelColumnError
from .dataset import load_csv, synth_xor_dataset, zscore_normalize
from . import ga
from .ga import ConfigError, GAConfig, hefs_run, residual_feature_indices, run_fold_assignment
from .metrics import full_metrics

SCHEMA_VERSION = "1"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hefs",
        description="Search residual features for a helper set that lifts "
        "cross-validated k-NN accuracy of a fixed conditional feature set.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", metavar="PATH", help="headered CSV file")
    src.add_argument("--synth", choices=["xor"], help="generate a synthetic dataset")
    p.add_argument("--label-col", metavar="NAME", help="label column name or index (CSV only)")
    p.add_argument("--n", type=int, default=400, help="synthetic sample count (even)")
    p.add_argument("--d", type=int, default=20, help="synthetic feature count (>= 2)")
    p.add_argument("--noise", type=float, default=0.0, help="synthetic label flip probability")
    p.add_argument(
        "--baseline",
        default="mi",
        metavar="{mi,ttest,file:PATH}",
        help="how to pick the conditional set (default mi)",
    )
    p.add_argument("--cond-size", type=int, default=20, help="conditional set size for mi/ttest")
    # each search flag's dest is a GAConfig field, which also gives its default
    p.add_argument("--pop", dest="pop_size", type=int, help="population size")
    p.add_argument("--iters", dest="generations", type=int, help="generations")
    p.add_argument("--rmin", dest="r_min", type=float, help="lower activation ratio bound")
    p.add_argument("--rmax", dest="r_max", type=float, help="upper activation ratio bound")
    p.add_argument("--scaler", type=float, help="bias strength toward rmin")
    p.add_argument("--eps", dest="ratio_eps", type=float, help="on-target ratio dead zone")
    p.add_argument(
        "--delta", dest="cluster_delta", type=float, help="leader clustering distance threshold"
    )
    p.add_argument("--knn-k", type=int, help="neighbor count")
    p.add_argument("--folds", dest="n_folds", type=int, help="cross-validation folds")
    p.add_argument("--bins", dest="n_bins", type=int, help="histogram bins for mutual information")
    p.add_argument("--pc", dest="crossover_prob", type=float, help="crossover probability")
    p.add_argument("--seed", type=int, help="base random seed")
    p.add_argument(
        "--runs",
        type=int,
        default=1,
        help="independent runs with seeds seed..seed+runs-1; with 2 or more, a second "
        "process runs some of them, with the same reports",
    )
    p.add_argument(
        "--cluster-reduce",
        dest="use_cluster_reduction",
        action="store_true",
        help="score the search loop on a leader-clustered row reduction",
    )
    p.add_argument(
        "--literal-eq5",
        dest="constant_bias",
        action="store_true",
        help="bias sampler ignores its uniform draw (constant-ratio variant)",
    )
    p.add_argument(
        "--literal-merge-p0",
        dest="merge_initial_front",
        action="store_true",
        help="merge offspring with the initial front instead of the running archive",
    )
    p.add_argument("--out", metavar="PATH", help="report file (single run) or directory (batch)")
    p.set_defaults(**asdict(GAConfig()))
    return p


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> GAConfig:
    """Refuse bad or ignored flags; return the run's search settings."""
    if args.dataset is not None and args.label_col is None:
        parser.error("--label-col is required with --dataset")
    if args.baseline not in ("mi", "ttest") and not args.baseline.startswith("file:"):
        parser.error(f"--baseline must be mi, ttest, or file:PATH, got {args.baseline!r}")
    if args.synth is not None:
        ignored = [("--label-col", "--dataset")]
    else:
        ignored = [(flag, "--synth") for flag in ("--n", "--d", "--noise")]
    if args.baseline.startswith("file:"):
        ignored.append(("--cond-size", "--baseline mi or ttest"))
    if not args.use_cluster_reduction:
        ignored.append(("--delta", "--cluster-reduce"))
    dest_of = {a.option_strings[0]: a.dest for a in parser._actions if a.option_strings}
    for flag, owner in ignored:
        dest = dest_of[flag]
        if getattr(args, dest) != parser.get_default(dest):
            parser.error(f"{flag} applies only to {owner}")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    args.out = args.out or ("hefs_report.json" if args.runs == 1 else "hefs_runs")
    out = Path(args.out)
    if args.runs == 1 and out.is_dir():
        parser.error(f"--out {out} is a directory; a single run writes one report file")
    if args.runs > 1 and out.exists() and not out.is_dir():
        parser.error(f"--out {out} is a file; a batch writes its reports into a directory")
    above = next(a for a in out.parents if a.exists())
    if not above.is_dir():
        parser.error(f"--out {out} lies below {above}, which is a file")
    names = [f.name for f in fields(GAConfig)]
    try:
        return GAConfig(**{name: getattr(args, name) for name in names})
    except ConfigError as exc:
        flag_of = {a.dest: a.option_strings[0] for a in parser._actions if a.dest in names}
        parser.error(re.sub(r"\w+", lambda m: flag_of.get(m[0], m[0]), str(exc)))


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute the requested runs, and return an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _validate_args(parser, args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return _execute(args, cfg)
    except ValueError as exc:  # a ConfigError, a DatasetError or other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def main() -> None:
    sys.exit(run())


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, dict]:
    if args.synth is not None:
        try:
            raw = synth_xor_dataset(args.n, args.d, args.noise, np.random.default_rng(args.seed))
        except ValueError as exc:
            flags = f"--synth {args.synth} --n {args.n} --d {args.d} --noise {args.noise}"
            raise ConfigError(f"{flags}: {exc}") from exc
        source, noise = f"synth:{args.synth}", args.noise
    else:
        try:
            raw = load_csv(args.dataset, args.label_col)
        except LabelColumnError as exc:
            raise ConfigError(f"--label-col {args.label_col}: {exc}") from exc
        source, noise = f"csv:{args.dataset}", None
    try:
        ds = zscore_normalize(raw)
    except DatasetError as exc:  # synthetic values are bounded, so this is a file's
        raise DatasetError(f"{args.dataset}: {exc}") from exc
    # _validate_args refuses --label-col beside --synth, so it is None there
    info = {"source": source, "label_column": args.label_col, "label_noise": noise}
    info.update({"n": ds.n, "d": ds.d, "n_classes": ds.n_classes, "normalized": True})
    return ds, info


def _build_conditional(args: argparse.Namespace, ds: Dataset) -> ConditionalSet:
    if args.baseline.startswith("file:"):
        flags = f"--baseline {args.baseline}"
        conditional = load_conditional(args.baseline.split(":", 1)[1], ds)
    else:
        flags = f"--baseline {args.baseline} --cond-size {args.cond_size}"
    # ds and a set file are valid by now, so a fault here is flags that do not fit them
    try:
        if args.baseline == "mi":
            conditional = mi_rank_select(ds, args.cond_size, args.n_bins)
        elif args.baseline == "ttest":
            conditional = ttest_rank_select(ds, args.cond_size)
        residual_feature_indices(ds.d, conditional)
    except ValueError as exc:
        raise ConfigError(f"{flags}: {exc}") from exc
    return conditional


def _execute(args: argparse.Namespace, cfg: GAConfig) -> int:
    """Load the data, run every run, and write the reports and the aggregate.

    A batch hands some of its runs to a run worker, a hefs.ga._Worker whose
    rules decide whether it starts; this function owns which runs it gets.
    It opens the worker first, so the worker's imports overlap loading. Then,
    before each of its own runs, in seed order, this process takes the
    worker's reports that have come, waiting for them if the worker holds
    the run now due, and hands the worker the last runs no one has claimed
    until it holds two; before the first run, only one. It never waits for
    the worker to start or to be free, since the worker answers its runs in
    turn. The second run keeps the worker busy when it ends one while this
    process is inside another. Only one goes before the first run, because
    the worker has yet to start: two would leave a 3-run batch waiting at
    its end for the worker's second run. So this process runs the first run,
    and the worker takes runs from the back. A run whose report does not
    come, because it raised in the worker or the worker was lost, is run
    here when its turn comes, where it raises the same. Runs are seeded and
    independent, and this process writes every report, `wrote` line and
    aggregate file in seed order, so the output is a serial batch's. Within
    a run, hefs.ga._VoteWorker owns parallel voting.
    """
    # None for a single run, which hands out nothing
    with ga._Worker("cli", "_run_worker") if args.runs > 1 else nullcontext() as worker:
        ds, dataset_info = _load_dataset(args)
        conditional = _build_conditional(args, ds)
        shared = (ds, dataset_info, conditional)  # _single_run's leading arguments
        configs = [replace(cfg, seed=cfg.seed + i) for i in range(args.runs)]

        out = Path(args.out)
        paths = []
        last = args.runs - 1  # the last unclaimed run
        held: list[int] = []  # the worker's runs, in the order it answers them
        reports: dict[int, Optional[dict]] = {}  # the worker's reports by run
        for i, run_cfg in enumerate(configs):
            while held and (i in held or worker.answered()):
                reports[held.pop(0)] = worker.receive()
            while i < last and len(held) < min(i + 1, 2):
                worker.send(shared, configs[last])
                held.append(last)
                last -= 1
            path = out if args.runs == 1 else out / f"run_seed_{run_cfg.seed}.json"
            # None: this process runs it
            report = reports.pop(i, None) or _single_run(*shared, run_cfg)
            write_report(report, path)
            print(f"wrote {path}")
            paths.append(path)
    if args.runs > 1:
        summary = aggregate(paths)
        _write_text_atomic(out / "aggregate.json", _dump_json(summary))
        _write_text_atomic(out / "aggregate.csv", _aggregate_csv(summary))
        print(f"wrote {out / 'aggregate.json'}")
    return 0


def _run_worker() -> None:
    """The run worker's loop (see _execute): its data is _single_run's
    leading arguments, and it answers each config with that run's report,
    or None where the run raised."""
    ga._serve(_worker_run)


def _worker_run(shared: tuple, cfg: GAConfig) -> Optional[dict]:
    try:
        return _single_run(*shared, cfg)
    except Exception:  # the parent runs it again, and raises there in seed order
        return None


def _single_run(
    ds: Dataset, dataset_info: dict, conditional: ConditionalSet, cfg: GAConfig
) -> dict:
    """Search once, score the baseline and combined sets, and assemble the
    full report dict for the run."""
    try:
        folds = run_fold_assignment(ds, cfg)
    except DatasetError as exc:  # ds is valid, so the fold count does not fit it
        raise ConfigError(f"--folds {cfg.n_folds}: {exc}") from exc
    try:
        result = hefs_run(ds, conditional, cfg)
    except DatasetError as exc:  # only cluster reduction raises one here
        raise ConfigError(f"--delta {cfg.cluster_delta} --folds {cfg.n_folds}: {exc}") from exc
    baseline_m, combined_m = full_metrics(
        ds, conditional.indices, [(), result.helper_indices], folds, cfg.knn_k
    )
    helper_fit = dict(result.final_front)[result.helper_indices]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "dataset": dict(dataset_info),
        "conditional_set": {
            "source": conditional.source,
            "size": conditional.size,
            "indices": list(conditional.indices),
            "names": [ds.feature_names[j] for j in conditional.indices],
        },
        "baseline_metrics": asdict(baseline_m),
        "combined_metrics": asdict(combined_m),
        "helper": {
            "indices": result.helper_indices,
            "names": [ds.feature_names[j] for j in result.helper_indices],
            "count": len(result.helper_indices),
            "complementarity": helper_fit.complementarity,
        },
        "final_accuracy": result.accuracy,
        "trace": [asdict(rec) for rec in result.trace],
        "final_front": [{"indices": idx, **asdict(fit)} for idx, fit in result.final_front],
        "elapsed_seconds": result.elapsed_seconds,
    }


def _round_floats(obj):
    """Round every float to 12 significant digits so output bytes are stable."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(obj: dict) -> str:
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n"


def report_canonical_bytes(report: dict) -> bytes:
    """Serialized report minus the wall-clock field; equal bytes mean equal runs."""
    trimmed = {k: v for k, v in report.items() if k != "elapsed_seconds"}
    return _dump_json(trimmed).encode()


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text_atomic(path, _dump_json(report))


def _write_text_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def aggregate(paths: Sequence[str | Path]) -> dict:
    """Summarize a batch of run reports: mean and population std per metric."""
    if not paths:
        raise ValueError("no report files to aggregate")
    reports = [json.loads(Path(p).read_text()) for p in paths]
    versions = {r.get("schema_version") for r in reports}
    if versions != {SCHEMA_VERSION}:
        raise ValueError(f"schema version mismatch: {sorted(map(str, versions))}")
    metrics = {
        "accuracy": [r["combined_metrics"]["accuracy"] for r in reports],
        "helper_count": [r["helper"]["count"] for r in reports],
        "complementarity": [r["helper"]["complementarity"] for r in reports],
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "n_runs": len(reports),
        "seeds": [r["config"]["seed"] for r in reports],
        "metrics": {
            name: {
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
            }
            for name, vals in metrics.items()
        },
    }


def _aggregate_csv(summary: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "mean", "std"])
    for name, entry in summary["metrics"].items():
        writer.writerow([name, f"{entry['mean']:.12g}", f"{entry['std']:.12g}"])
    return buf.getvalue()


if __name__ == "__main__":
    main()
