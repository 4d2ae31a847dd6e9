import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hefs
from hefs.cli import aggregate, report_canonical_bytes, run

SCHEMA = json.loads(
    importlib.resources.files("hefs").joinpath("report_schema.json").read_text()
)

SMALL_SYNTH = [
    "--synth", "xor", "--n", "120", "--d", "8",
    "--pop", "10", "--iters", "12", "--seed", "4",
]


@pytest.fixture
def cond_file(tmp_path):
    p = tmp_path / "cond.txt"
    p.write_text("f0\n")
    return str(p)


def run_cli(args, capsys=None):
    code = run([str(a) for a in args])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


# --- argument validation ------------------------------------------------------


def test_cli_requires_a_data_source(capsys):
    assert run([]) == 2


def test_cli_dataset_needs_label_col(tmp_path, capsys):
    p = tmp_path / "x.csv"
    p.write_text("a,y\n1,u\n2,v\n")
    assert run(["--dataset", str(p)]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--n", "7"],
        ["--n", "0"],
        ["--d", "1"],
        ["--noise", "1.5"],
        ["--baseline", "nonsense"],
        ["--cond-size", "0"],
        ["--runs", "0"],
    ],
)
def test_cli_rejects_bad_flag_values(extra, capsys):
    assert run(["--synth", "xor"] + extra) == 2


def test_cli_config_errors_exit_2(tmp_path, cond_file, capsys):
    out = tmp_path / "r.json"
    base = SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--out", str(out)]
    assert run(base + ["--rmin", "0.4", "--rmax", "0.3"]) == 2
    assert "error:" in capsys.readouterr().err
    # conditional set covering every feature leaves nothing to search
    assert run(["--synth", "xor", "--d", "4", "--n", "40", "--cond-size", "4",
                "--pop", "4", "--iters", "2", "--out", str(out)]) == 2
    # a ranked conditional set larger than d names the flag
    capsys.readouterr()
    assert run(["--synth", "xor", "--d", "4", "--n", "40", "--cond-size", "5",
                "--pop", "4", "--iters", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--cond-size 5" in err and "d=4" in err
    # an --out that does not fit the run count is refused before any search
    assert run(SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--out", str(tmp_path)]) == 2
    assert f"--out {tmp_path} is a directory" in capsys.readouterr().err
    assert run(SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--runs", "2",
                              "--out", str(cond_file)]) == 2
    assert f"--out {cond_file} is a file" in capsys.readouterr().err
    below = f"{cond_file}/sub/r.json"
    assert run(SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--out", below]) == 2
    assert f"--out {below} lies below {cond_file}, which is a file" in capsys.readouterr().err


def test_cli_data_errors_exit_1(tmp_path, capsys):
    assert run(["--dataset", str(tmp_path / "none.csv"), "--label-col", "y"]) == 1
    assert "error:" in capsys.readouterr().err

    single = tmp_path / "single.csv"
    single.write_text("a,y\n1,u\n2,u\n")
    assert run(["--dataset", str(single), "--label-col", "y"]) == 1

    assert run(SMALL_SYNTH + ["--baseline", f"file:{tmp_path / 'no.txt'}"]) == 1
    capsys.readouterr()

    # clustering this coarse leaves too few rows of a class for the folds
    assert run(["--synth", "xor", "--n", "60", "--d", "6", "--cond-size", "2",
                "--cluster-reduce", "--delta", "1.0", "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert "delta=1.0" in err and "60 rows to" in err and "clusters" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_cli_non_finite_cell_names_file_row_and_column(tmp_path, capsys, cell):
    data = tmp_path / "bad.csv"
    data.write_text(f"a,b,y\n1,2,u\n3,{cell},v\n5,6,u\n")
    assert run(["--dataset", str(data), "--label-col", "y"]) == 1
    err = capsys.readouterr().err
    assert f"{data}: row 3, column 'b': non-finite value '{cell}'" in err


def test_cli_module_runs_as_a_script(tmp_path):
    out = tmp_path / "y.json"
    env = dict(os.environ, PYTHONPATH=str(Path(hefs.__file__).resolve().parents[1]))
    args = ["--synth", "xor", "--n", "40", "--d", "4", "--cond-size", "1",
            "--pop", "4", "--iters", "2", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "hefs.cli", *args], env=env, cwd=tmp_path, timeout=120
    )
    assert done.returncode == 0
    assert json.loads(out.read_text())["schema_version"] == "1"


# --- single-run reports ----------------------------------------------------------


def single_report(tmp_path, cond_file, name="report.json", extra=()):
    out = tmp_path / name
    args = SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--out", str(out), *extra]
    assert run_cli(args) == 0
    return json.loads(out.read_text()), out


def test_cli_single_run_report_is_valid_and_consistent(tmp_path, cond_file, capsys):
    report, out = single_report(tmp_path, cond_file)
    assert f"wrote {out}" in capsys.readouterr().out

    jsonschema.validate(report, SCHEMA)
    assert report["schema_version"] == "1"
    assert report["dataset"] == {
        "source": "synth:xor",
        "label_column": None,
        "label_noise": 0.0,
        "n": 120,
        "d": 8,
        "n_classes": 2,
        "normalized": True,
    }
    assert report["conditional_set"]["indices"] == [0]
    assert report["conditional_set"]["names"] == ["f0"]
    assert report["conditional_set"]["source"] == "file"

    # the parity benchmark: one bit alone is chance, the pair is perfect
    assert 0.40 <= report["baseline_metrics"]["accuracy"] <= 0.60
    assert 1 in report["helper"]["indices"]
    assert report["final_accuracy"] == 1.0
    assert report["final_accuracy"] == report["combined_metrics"]["accuracy"]
    assert report["helper"]["count"] == len(report["helper"]["indices"])
    assert report["helper"]["names"] == [f"f{j}" for j in report["helper"]["indices"]]

    assert len(report["trace"]) == 12 + 1
    best = [rec["best_accuracy"] for rec in report["trace"]]
    assert best == sorted(best)

    front_sets = [tuple(e["indices"]) for e in report["final_front"]]
    assert tuple(report["helper"]["indices"]) in front_sets
    chosen = front_sets.index(tuple(report["helper"]["indices"]))
    assert report["helper"]["complementarity"] == report["final_front"][chosen]["complementarity"]


def test_cli_reports_are_deterministic_and_roundtrip_stable(tmp_path, cond_file):
    report_a, path_a = single_report(tmp_path, cond_file, "a.json")
    report_b, _ = single_report(tmp_path, cond_file, "b.json")
    assert report_canonical_bytes(report_a) == report_canonical_bytes(report_b)
    # serialize(parse(file)) reproduces the file: rounding is idempotent
    from hefs.cli import _dump_json

    assert _dump_json(report_a) == path_a.read_text()


def test_cli_variant_flags_are_echoed_in_config(tmp_path, cond_file):
    report, _ = single_report(
        tmp_path, cond_file, extra=["--literal-eq5", "--literal-merge-p0"]
    )
    assert report["config"]["constant_bias"] is True
    assert report["config"]["merge_initial_front"] is True
    jsonschema.validate(report, SCHEMA)


def test_cli_default_output_name(tmp_path, cond_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(SMALL_SYNTH + ["--baseline", f"file:{cond_file}"]) == 0
    assert (tmp_path / "hefs_report.json").is_file()


def test_cli_csv_dataset_with_builtin_baselines(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["x0,x1,x2,target"]
    labels = rng.integers(0, 2, size=40)
    for i in range(40):
        vals = rng.normal(size=3)
        vals[0] += 2.0 * labels[i]
        rows.append(",".join(f"{v:.6f}" for v in vals) + f",c{labels[i]}")
    p = tmp_path / "toy.csv"
    p.write_text("\n".join(rows) + "\n")

    out = tmp_path / "mi.json"
    args = ["--dataset", str(p), "--label-col", "target", "--baseline", "mi",
            "--cond-size", "2", "--pop", "6", "--iters", "3", "--folds", "4",
            "--out", str(out)]
    assert run_cli(args) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["dataset"]["source"] == f"csv:{p}"
    assert report["conditional_set"]["source"] == "mi"
    assert 0 in report["conditional_set"]["indices"]  # the informative column

    out2 = tmp_path / "tt.json"
    args = ["--dataset", str(p), "--label-col", "target", "--baseline", "ttest",
            "--cond-size", "2", "--pop", "6", "--iters", "3", "--folds", "4",
            "--out", str(out2)]
    assert run_cli(args) == 0
    assert json.loads(out2.read_text())["conditional_set"]["source"] == "ttest"


def test_cli_cluster_reduction_flag_runs(tmp_path, cond_file):
    report, _ = single_report(tmp_path, cond_file, extra=["--cluster-reduce", "--delta", "0.5"])
    assert report["config"]["use_cluster_reduction"] is True
    jsonschema.validate(report, SCHEMA)


# --- batch runs and aggregation -----------------------------------------------------


def test_cli_batch_writes_runs_and_aggregate(tmp_path, cond_file, capsys):
    out_dir = tmp_path / "batch"
    args = ["--synth", "xor", "--n", "80", "--d", "6", "--pop", "6", "--iters", "4",
            "--seed", "5", "--runs", "3", "--baseline", f"file:{cond_file}",
            "--out", str(out_dir)]
    assert run_cli(args) == 0

    reports = []
    for seed in (5, 6, 7):
        path = out_dir / f"run_seed_{seed}.json"
        assert path.is_file()
        rep = json.loads(path.read_text())
        jsonschema.validate(rep, SCHEMA)
        assert rep["config"]["seed"] == seed
        reports.append(rep)
    # batch runs share one dataset: the synth draw uses the base seed
    assert len({r["dataset"]["n"] for r in reports}) == 1

    summary = json.loads((out_dir / "aggregate.json").read_text())
    assert summary["n_runs"] == 3
    assert summary["seeds"] == [5, 6, 7]
    accs = [r["combined_metrics"]["accuracy"] for r in reports]
    assert summary["metrics"]["accuracy"]["mean"] == pytest.approx(np.mean(accs), rel=1e-9)
    assert summary["metrics"]["accuracy"]["std"] == pytest.approx(np.std(accs), abs=1e-9)

    csv_text = (out_dir / "aggregate.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "metric,mean,std"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "accuracy", "helper_count", "complementarity"
    ]


def _fake_report(path, seed, acc):
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "config": {"seed": seed},
                "combined_metrics": {"accuracy": acc},
                "helper": {"count": 2, "complementarity": 0.5},
            }
        )
    )


def test_aggregate_frozen_mean_and_population_std(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _fake_report(a, 0, 0.8)
    _fake_report(b, 1, 0.9)
    summary = aggregate([a, b])
    assert summary["metrics"]["accuracy"]["mean"] == pytest.approx(0.85, rel=1e-12)
    # population std, not the sample flavor: sqrt(((.05)^2 + (.05)^2) / 2)
    assert summary["metrics"]["accuracy"]["std"] == pytest.approx(0.05, rel=1e-9)
    assert summary["metrics"]["helper_count"]["std"] == 0.0


def test_aggregate_rejects_mixed_versions_and_empty(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _fake_report(a, 0, 0.8)
    _fake_report(b, 1, 0.9)
    data = json.loads(b.read_text())
    data["schema_version"] = "0"
    b.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="schema version mismatch"):
        aggregate([a, b])
    with pytest.raises(ValueError, match="no report files"):
        aggregate([])


# --- golden report ---------------------------------------------------------------------


def test_golden_report_bytes(tmp_path):
    golden_path = Path(__file__).parent / "data" / "golden_report.json"
    cond = tmp_path / "cond.txt"
    cond.write_text("f0\n")
    out = tmp_path / "fresh.json"
    args = ["--synth", "xor", "--n", "80", "--d", "6", "--pop", "6", "--iters", "4",
            "--seed", "11", "--baseline", f"file:{cond}", "--out", str(out)]
    assert run_cli(args) == 0
    fresh = json.loads(out.read_text())
    golden = json.loads(golden_path.read_text())
    assert report_canonical_bytes(fresh) == report_canonical_bytes(golden)
