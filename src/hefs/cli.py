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
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import ConditionalSet, load_conditional, mi_rank_select, ttest_rank_select
from .dataset import Dataset, DatasetError, load_csv, synth_xor_dataset, zscore_normalize
from .ga import (
    ConfigError,
    GAConfig,
    HelperResult,
    hefs_run,
    run_fold_assignment,
)
from .metrics import MetricsReport, full_metrics

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
    p.add_argument("--pop", type=int, default=30, help="population size")
    p.add_argument("--iters", type=int, default=100, help="generations")
    p.add_argument("--rmin", type=float, default=0.05, help="lower activation ratio bound")
    p.add_argument("--rmax", type=float, default=0.3, help="upper activation ratio bound")
    p.add_argument("--scaler", type=float, default=5.0, help="bias strength toward rmin")
    p.add_argument("--eps", type=float, default=0.01, help="on-target ratio dead zone")
    p.add_argument("--delta", type=float, default=0.1, help="leader clustering distance threshold")
    p.add_argument("--knn-k", type=int, default=5, help="neighbor count")
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.add_argument("--bins", type=int, default=10, help="histogram bins for mutual information")
    p.add_argument("--pc", type=float, default=0.9, help="crossover probability")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--runs", type=int, default=1, help="independent runs with seeds seed..seed+runs-1")
    p.add_argument(
        "--cluster-reduce",
        action="store_true",
        help="score the search loop on a leader-clustered row reduction",
    )
    p.add_argument(
        "--literal-eq5",
        action="store_true",
        help="bias sampler ignores its uniform draw (constant-ratio variant)",
    )
    p.add_argument(
        "--literal-merge-p0",
        action="store_true",
        help="merge offspring with the initial front instead of the running archive",
    )
    p.add_argument("--out", metavar="PATH", help="report file (single run) or directory (batch)")
    return p


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.dataset is not None and args.label_col is None:
        parser.error("--label-col is required with --dataset")
    if args.synth is not None:
        if args.d < 2:
            parser.error("--d must be >= 2")
        if args.n < 2 or args.n % 2:
            parser.error("--n must be a positive even number")
        if not 0.0 <= args.noise <= 1.0:
            parser.error("--noise must be in [0, 1]")
    if args.baseline not in ("mi", "ttest") and not args.baseline.startswith("file:"):
        parser.error(f"--baseline must be mi, ttest, or file:PATH, got {args.baseline!r}")
    if args.cond_size < 1:
        parser.error("--cond-size must be >= 1")
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


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute the requested runs, and return an exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_args(parser, args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return _execute(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, dict]:
    if args.synth is not None:
        raw = synth_xor_dataset(args.n, args.d, args.noise, np.random.default_rng(args.seed))
        info = {
            "source": f"synth:{args.synth}",
            "label_column": None,
            "label_noise": args.noise,
        }
    else:
        raw = load_csv(args.dataset, args.label_col)
        info = {
            "source": f"csv:{args.dataset}",
            "label_column": args.label_col,
            "label_noise": None,
        }
    ds = zscore_normalize(raw)
    info.update({"n": ds.n, "d": ds.d, "n_classes": ds.n_classes, "normalized": True})
    return ds, info


def _build_conditional(args: argparse.Namespace, ds: Dataset) -> ConditionalSet:
    if args.baseline in ("mi", "ttest") and args.cond_size > ds.d:
        raise ConfigError(f"--cond-size {args.cond_size} exceeds the dataset's d={ds.d} features")
    if args.baseline == "mi":
        return mi_rank_select(ds, args.cond_size, args.bins)
    if args.baseline == "ttest":
        return ttest_rank_select(ds, args.cond_size)
    return load_conditional(args.baseline.split(":", 1)[1], ds)


def _build_config(args: argparse.Namespace) -> GAConfig:
    cfg = GAConfig(
        r_min=args.rmin,
        r_max=args.rmax,
        scaler=args.scaler,
        pop_size=args.pop,
        generations=args.iters,
        ratio_eps=args.eps,
        cluster_delta=args.delta,
        knn_k=args.knn_k,
        n_folds=args.folds,
        n_bins=args.bins,
        crossover_prob=args.pc,
        seed=args.seed,
        use_cluster_reduction=args.cluster_reduce,
        constant_bias=args.literal_eq5,
        merge_initial_front=args.literal_merge_p0,
    )
    cfg.validate()
    return cfg


def _execute(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    ds, dataset_info = _load_dataset(args)
    conditional = _build_conditional(args, ds)

    if args.runs == 1:
        out_path = Path(args.out)
        report = _single_run(ds, dataset_info, conditional, cfg)
        write_report(report, out_path)
        print(f"wrote {out_path}")
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(args.runs):
        run_cfg = replace(cfg, seed=cfg.seed + i)
        report = _single_run(ds, dataset_info, conditional, run_cfg)
        path = out_dir / f"run_seed_{run_cfg.seed}.json"
        write_report(report, path)
        print(f"wrote {path}")
        paths.append(path)
    summary = aggregate(paths)
    _write_text_atomic(out_dir / "aggregate.json", _dump_json(summary))
    _write_text_atomic(out_dir / "aggregate.csv", _aggregate_csv(summary))
    print(f"wrote {out_dir / 'aggregate.json'}")
    return 0


def _single_run(
    ds: Dataset, dataset_info: dict, conditional: ConditionalSet, cfg: GAConfig
) -> dict:
    result = hefs_run(ds, conditional, cfg)
    folds = run_fold_assignment(ds, cfg)
    baseline_m, combined_m = full_metrics(
        ds, conditional.indices, [(), result.helper_indices], folds, cfg.knn_k
    )
    return build_report(ds, dataset_info, conditional, cfg, result, baseline_m, combined_m)


def _metrics_payload(m: MetricsReport) -> dict:
    return {"accuracy": m.accuracy, "auc": m.auc, "precision": m.precision, "recall": m.recall}


def build_report(
    ds: Dataset,
    dataset_info: dict,
    conditional: ConditionalSet,
    cfg: GAConfig,
    result: HelperResult,
    baseline_m: MetricsReport,
    combined_m: MetricsReport,
) -> dict:
    """Assemble the full report dict for one run."""
    payload = result.to_payload()
    helper_complementarity = next(
        entry["complementarity"]
        for entry in payload["final_front"]
        if tuple(entry["indices"]) == result.helper_indices
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "r_min": cfg.r_min,
            "r_max": cfg.r_max,
            "scaler": cfg.scaler,
            "pop_size": cfg.pop_size,
            "generations": cfg.generations,
            "ratio_eps": cfg.ratio_eps,
            "cluster_delta": cfg.cluster_delta,
            "knn_k": cfg.knn_k,
            "n_folds": cfg.n_folds,
            "n_bins": cfg.n_bins,
            "crossover_prob": cfg.crossover_prob,
            "seed": cfg.seed,
            "use_cluster_reduction": cfg.use_cluster_reduction,
            "constant_bias": cfg.constant_bias,
            "merge_initial_front": cfg.merge_initial_front,
        },
        "dataset": dict(dataset_info),
        "conditional_set": {
            "source": conditional.source,
            "size": conditional.size,
            "indices": list(conditional.indices),
            "names": [ds.feature_names[j] for j in conditional.indices],
        },
        "baseline_metrics": _metrics_payload(baseline_m),
        "combined_metrics": _metrics_payload(combined_m),
        "helper": {
            "indices": payload["helper_indices"],
            "names": [ds.feature_names[j] for j in result.helper_indices],
            "count": len(result.helper_indices),
            "complementarity": helper_complementarity,
        },
        "final_accuracy": result.accuracy,
        "trace": payload["trace"],
        "final_front": payload["final_front"],
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
    reports = []
    for p in paths:
        reports.append(json.loads(Path(p).read_text()))
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
    for name in ("accuracy", "helper_count", "complementarity"):
        entry = summary["metrics"][name]
        writer.writerow([name, f"{entry['mean']:.12g}", f"{entry['std']:.12g}"])
    return buf.getvalue()


if __name__ == "__main__":
    main()
