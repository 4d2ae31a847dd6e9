"""Output checks for every search a run made, done after timing ends.

A search passes when its command exited 0, its report validates against
``src/hefs/report_schema.json``, its ``final_accuracy`` equals a fresh
``cv_accuracy`` on the ``run_fold_assignment`` folds, and, where a digest is
stored for its hefs seed (the default benchmark seed), the SHA-256 of its
outcome fields matches.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

OUTCOME_FIELDS = ("helper", "final_accuracy", "final_front", "trace", "combined_metrics")


def outcome_digest(report: dict) -> str:
    """SHA-256 over the outcome fields, as rounded in the written report."""
    outcome = {key: report[key] for key in OUTCOME_FIELDS}
    outcome["helper"] = outcome["helper"]["indices"]
    blob = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ReportChecker:
    """Checks reports of one workload; caches the datasets it rebuilds."""

    def __init__(self, schema_path: Path, digests: dict[str, str]):
        import jsonschema

        import hefs

        self.hefs = hefs
        self.validator = jsonschema.Draft7Validator(json.loads(schema_path.read_text()))
        self.digests = digests
        self._datasets: dict[tuple, object] = {}

    def _dataset(self, report: dict):
        """The normalized dataset the report was computed on, rebuilt like the CLI does."""
        info, cfg = report["dataset"], report["config"]
        source = info["source"]
        if source.startswith("synth:"):
            key = (source, info["n"], info["d"], info["label_noise"], cfg["seed"])
        else:
            key = (source, info["label_column"])
        ds = self._datasets.get(key)
        if ds is None:
            h = self.hefs
            if source == "synth:xor":
                raw = h.synth_xor_dataset(
                    info["n"], info["d"], info["label_noise"], np.random.default_rng(cfg["seed"])
                )
            else:
                raw = h.load_csv(source.split(":", 1)[1], info["label_column"])
            ds = h.zscore_normalize(raw)
            self._datasets[key] = ds
        return ds

    def check(self, path: Path) -> list[str]:
        """Problems found with one report; empty when it passes."""
        if not path.is_file():
            return [f"{path.name}: report missing"]
        try:
            report = json.loads(path.read_text())
        except ValueError as exc:
            return [f"{path.name}: not JSON: {exc}"]
        problems = [
            f"{path.name}: schema: {err.message}" for err in self.validator.iter_errors(report)
        ]
        if problems:
            return problems
        h = self.hefs
        try:
            cfg = h.GAConfig(**report["config"])
            ds = self._dataset(report)
            cols = report["conditional_set"]["indices"] + report["helper"]["indices"]
            fresh = h.cv_accuracy(ds, cols, h.run_fold_assignment(ds, cfg), cfg.knn_k)
        except ValueError as exc:  # DatasetError and ConfigError included
            return [f"{path.name}: cannot rescore the reported helper set: {exc}"]
        if float(f"{fresh:.12g}") != report["final_accuracy"]:
            problems.append(
                f"{path.name}: final_accuracy {report['final_accuracy']} != fresh cv_accuracy {fresh!r}"
            )
        expected = self.digests.get(str(cfg.seed))
        if expected is not None and outcome_digest(report) != expected:
            problems.append(f"{path.name}: outcome digest differs from the stored one")
        return problems
