import importlib.resources
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hefs
import hefs.cli
import hefs.ga
from hefs import GAConfig
from hefs.cli import aggregate, build_parser, report_canonical_bytes, run
from conftest import MULTI_CPU, write_prototype_csv

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


@pytest.mark.parametrize(
    "extra, fault",
    [
        (["--n", "7"], "--n 7 --d 20 --noise 0.0: n must be a positive even number, got 7"),
        (["--n", "0"], "--n 0 --d 20 --noise 0.0: n must be a positive even number, got 0"),
        (["--d", "1"], "--n 400 --d 1 --noise 0.0: need d >= 2, got 1"),
        (["--noise", "1.5"], "--n 400 --d 20 --noise 1.5: label_noise must be in [0, 1], got 1.5"),
    ],
)
def test_cli_bad_synthetic_data_names_the_synth_flags(tmp_path, extra, fault, capsys):
    out = tmp_path / "r.json"
    assert run(["--synth", "xor", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"error: --synth xor {fault}"
    assert not out.exists()


# an invalid value for every non-boolean GAConfig field
INVALID = {
    "r_min": 0.0,
    "r_max": 1.5,
    "scaler": 0.0,
    "pop_size": 1,
    "generations": 0,
    "ratio_eps": 1.0,
    "cluster_delta": 3.0,
    "knn_k": 0,
    "n_folds": 1,
    "n_bins": 1,
    "crossover_prob": 1.5,
    "seed": -1,
}


# --delta applies only beside --cluster-reduce: the flags it needs, and the
# fields they set
WITH = {"cluster_delta": (["--cluster-reduce"], {"use_cluster_reduction": True})}


def _error_line(capsys):
    return capsys.readouterr().err.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "field", [f.name for f in fields(GAConfig) if not isinstance(f.default, bool)]
)
def test_cli_bad_search_setting_names_its_flag(field, capsys):
    (flag,) = [a.option_strings[0] for a in build_parser()._actions if a.dest == field]
    assert run(["--synth", "xor", flag, str(INVALID[field]), *WITH.get(field, ([], {}))[0]]) == 2
    line = _error_line(capsys)
    assert line.startswith("hefs: error: ") and flag in line
    assert not re.search(rf"(?<![\w-]){field}\b", line)  # no field name is left


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--synth", "xor", "--label-col", "nope"], "--label-col"),
        (["--dataset", "x.csv", "--label-col", "y", "--n", "7"], "--n"),
        (["--dataset", "x.csv", "--label-col", "y", "--d", "3"], "--d"),
        (["--dataset", "x.csv", "--label-col", "y", "--noise", "5"], "--noise"),
        (["--synth", "xor", "--baseline", "file:c.txt", "--cond-size", "3"], "--cond-size"),
        (["--synth", "xor", "--delta", "0.7"], "--delta"),
    ],
)
def test_cli_refuses_flags_the_source_ignores(extra, flag, capsys):
    assert run(extra) == 2
    assert _error_line(capsys).startswith(f"hefs: error: {flag} applies only to")


def test_cli_config_errors_exit_2(tmp_path, cond_file, capsys):
    out = tmp_path / "r.json"
    base = SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--out", str(out)]
    assert run(base + ["--rmin", "0.4", "--rmax", "0.3"]) == 2
    assert "error:" in capsys.readouterr().err
    # conditional set covering every feature leaves nothing to search, and
    # the flags that chose it are named
    assert run(["--synth", "xor", "--d", "4", "--n", "40", "--cond-size", "4",
                "--pop", "4", "--iters", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: --baseline mi --cond-size 4: conditional set covers every feature" in err
    assert "(d=4)" in err
    every = tmp_path / "every.txt"
    every.write_text("f0\nf1\nf2\nf3\n")
    assert run(["--synth", "xor", "--d", "4", "--n", "40", "--baseline", f"file:{every}",
                "--pop", "4", "--iters", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: --baseline file:{every}: conditional set covers every feature" in err
    assert "(d=4)" in err
    assert not out.exists()
    # a ranked conditional set larger than d names the flag
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
    # flags the loaded data cannot meet are named before any search
    three = tmp_path / "three.csv"
    three.write_text("a,b,y\n" + "".join(f"{i},{i % 4},{'uvw'[i % 3]}\n" for i in range(15)))
    data = ["--dataset", str(three), "--label-col", "y", "--cond-size", "1", "--out", str(out)]
    assert run(data + ["--baseline", "ttest"]) == 2
    err = capsys.readouterr().err
    assert "--baseline ttest" in err and "binary" in err and "got 3 classes" in err
    assert run(data + ["--folds", "6"]) == 2
    err = capsys.readouterr().err
    assert "--folds 6" in err and "class 'u' has 5" in err
    # a --delta that clusters too few rows per class for --folds names both
    assert run(["--synth", "xor", "--n", "40", "--d", "4", "--cond-size", "1", "--pop", "4",
                "--iters", "1", "--delta", "0.7", "--cluster-reduce", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--delta 0.7 --folds 5:" in err and "reduced 40 rows to 6 clusters" in err
    # a label column the file does not have, by name or by index
    missing = ["--dataset", str(three), "--cond-size", "1", "--out", str(out), "--label-col"]
    assert run(missing + ["z"]) == 2
    err = capsys.readouterr().err
    assert "--label-col z" in err and "no column named 'z'" in err
    assert run(missing + ["7"]) == 2
    err = capsys.readouterr().err
    assert "--label-col 7" in err and "index 7 out of range for 3 columns" in err
    # a negative seed is refused before any data is loaded
    assert run(SMALL_SYNTH + ["--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_cli_data_errors_exit_1(tmp_path, capsys):
    assert run(["--dataset", str(tmp_path / "none.csv"), "--label-col", "y"]) == 1
    assert "error:" in capsys.readouterr().err

    single = tmp_path / "single.csv"
    single.write_text("a,y\n1,u\n2,u\n")
    assert run(["--dataset", str(single), "--label-col", "y"]) == 1

    assert run(SMALL_SYNTH + ["--baseline", f"file:{tmp_path / 'no.txt'}"]) == 1
    capsys.readouterr()

    # finite cells whose column mean overflows float64 cannot be z-scored
    huge = tmp_path / "huge.csv"
    huge.write_text("a,b,y\n1,1e308,u\n2,1.5e308,v\n3,1.7e308,u\n4,1e308,v\n")
    assert run(["--dataset", str(huge), "--label-col", "y"]) == 1
    err = capsys.readouterr().err
    assert f"error: {huge}: column 'b': its mean overflows float64" in err


def test_cli_conditional_file_with_byte_order_mark(tmp_path):
    # a file saved as UTF-8 with a byte-order mark: the mark must not join
    # the first name
    cond = tmp_path / "cond.txt"
    cond.write_bytes("f0\nf3\n".encode("utf-8-sig"))
    out = tmp_path / "r.json"
    assert run(SMALL_SYNTH + ["--baseline", f"file:{cond}", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["conditional_set"]["names"] == ["f0", "f3"]


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


def test_cli_search_defaults_are_gaconfig_defaults():
    args = build_parser().parse_args(["--synth", "xor"])
    assert GAConfig(**{f.name: getattr(args, f.name) for f in fields(GAConfig)}) == GAConfig()


# a valid value other than the default and SMALL_SYNTH's for every GAConfig field
NON_DEFAULT = {
    "r_min": 0.1,
    "r_max": 0.4,
    "scaler": 4.0,
    "pop_size": 8,
    "generations": 5,
    "ratio_eps": 0.02,
    "cluster_delta": 0.2,
    "knn_k": 3,
    "n_folds": 4,
    "n_bins": 8,
    "crossover_prob": 0.8,
    "seed": 7,
    "use_cluster_reduction": True,
    "constant_bias": True,
    "merge_initial_front": True,
}


@pytest.mark.parametrize("field", [f.name for f in fields(GAConfig)])
def test_cli_variant_flags_are_echoed_in_config(tmp_path, cond_file, field):
    (flag,) = [a.option_strings[0] for a in build_parser()._actions if a.dest == field]
    value = NON_DEFAULT[field]
    extra = [flag] if value is True else [flag, value]
    needed, needed_fields = WITH.get(field, ([], {}))
    report, _ = single_report(tmp_path, cond_file, extra=extra + needed)
    expected = replace(GAConfig(pop_size=10, generations=12, seed=4), **{field: value}, **needed_fields)
    assert report["config"] == asdict(expected)
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


def test_cli_batch_run_equals_single_run_of_its_seed(tmp_path, cond_file):
    # a batch's run_seed_S.json is the report a single run with --seed S
    # writes, and a single run writes no aggregate files
    args = ["--synth", "xor", "--n", "80", "--d", "6", "--pop", "6", "--iters", "4",
            "--seed", "5", "--baseline", f"file:{cond_file}"]
    single_dir = tmp_path / "single"
    assert run_cli(args + ["--out", single_dir / "r.json"]) == 0
    assert run_cli(args + ["--runs", "2", "--out", tmp_path / "batch"]) == 0
    single = json.loads((single_dir / "r.json").read_text())
    batch = json.loads((tmp_path / "batch" / "run_seed_5.json").read_text())
    assert report_canonical_bytes(batch) == report_canonical_bytes(single)
    assert sorted(p.name for p in single_dir.iterdir()) == ["r.json"]


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


# --- the run worker ---------------------------------------------------------------------
# Under a one-CPU affinity mask (CI runs these tests under `taskset -c 0` too)
# the equality tests check the serial branch; the others patch a 2-CPU mask,
# so they meet a run worker on any machine.


@pytest.fixture
def pools(monkeypatch):
    """Record every run pool _execute builds. Before this process claims
    its first run it waits (at most 60 s) for the worker to claim one, so
    the worker runs at least one run wherever it starts. on_claim(pool), if
    set, is then called with the worker on that run. Returns the class,
    whose `made` lists the pools; each records the runs this process ran
    (`here`) and those whose report came from the worker (`sent`)."""

    class Spy(hefs.cli._RunPool):
        made = []
        on_claim = None

        def __init__(self, n_runs):
            super().__init__(n_runs)
            self.proc, self.here, self.sent = self._proc, [], []
            self.made.append(self)

        def report(self, i):
            if i == 0 and self.proc is not None:
                deadline = time.monotonic() + 60
                while self._owes is None and not self._results and time.monotonic() < deadline:
                    time.sleep(0.005)
                if Spy.on_claim is not None:
                    Spy.on_claim(self)
            report = super().report(i)
            (self.here if report is None else self.sent).append(i)
            return report

    monkeypatch.setattr(hefs.cli, "_RunPool", Spy)
    return Spy


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _batch_output(monkeypatch, capsys, where, args):
    """Exit code, stdout, stderr and files of a batch run in directory
    where, writing to the relative --out batch: each report as its canonical
    bytes, and every other file as it is."""
    where.mkdir()
    monkeypatch.chdir(where)
    code = run([*map(str, args), "--out", "batch"])
    out, err = capsys.readouterr()
    files = {}
    for path in sorted((where / "batch").glob("*")):
        text = path.read_bytes()
        if path.name.startswith("run_seed_"):
            text = report_canonical_bytes(json.loads(text))
        files[path.name] = text
    return code, out, err, files


def _serial_output(monkeypatch, capsys, where, args):
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return _batch_output(mp, capsys, where, args)


def _prototype_batch(tmp_path):
    path = tmp_path / "protos.csv"
    write_prototype_csv(path, np.random.default_rng(2), 300, 12, 45)
    return ["--dataset", path, "--label-col", "kind", "--baseline", "mi", "--cond-size", "3",
            "--cluster-reduce", "--delta", "0.5", "--pop", "8", "--iters", "8", "--seed", "4",
            "--runs", "3"]


@pytest.mark.parametrize("data", ["xor", "prototype rows", "many tiny runs"])
def test_run_worker_batch_equals_serial(pools, monkeypatch, capsys, tmp_path, cond_file, data):
    xor = ["--synth", "xor", "--baseline", f"file:{cond_file}", "--seed", "3"]
    args = {
        "xor": xor + ["--n", "200", "--d", "12", "--pop", "10", "--iters", "12", "--runs", "4"],
        "prototype rows": _prototype_batch(tmp_path),
        "many tiny runs": xor + ["--n", "40", "--d", "6", "--pop", "4", "--iters", "1",
                                 "--runs", "12"],
    }[data]
    n_runs = int(args[args.index("--runs") + 1])
    switch = sys.getswitchinterval()
    if data == "many tiny runs":  # the two threads trade the claims as often as they can
        sys.setswitchinterval(1e-6)
    try:
        parallel = _batch_output(monkeypatch, capsys, tmp_path / "parallel", args)
    finally:
        sys.setswitchinterval(switch)
    (pool,) = pools.made
    assert (pool.proc is not None) == MULTI_CPU
    assert pool.here[0] == 0  # this process always runs the first run
    assert sorted(pool.here + pool.sent) == list(range(n_runs))  # each run once
    if MULTI_CPU:
        assert pool.sent  # the worker ran at least one run
        assert pool.proc.returncode == 0
    else:
        assert pool.here == list(range(n_runs))
    serial = _serial_output(monkeypatch, capsys, tmp_path / "serial", args)
    assert pools.made[1].proc is None
    assert parallel[0] == 0 and len(parallel[3]) == n_runs + 2
    assert parallel == serial


@pytest.mark.parametrize("seed, runs", [(1, 2), (2, 4)])
def test_run_worker_failing_run_stops_the_batch_as_a_serial_one_does(
    pools, monkeypatch, capsys, tmp_path, seed, runs
):
    # clustering with --delta 0.4 leaves too few rows for 5 folds at seed 2
    # of the 60 rows and at seed 3 of the 80 rows: in (1, 2) the failing run
    # is the worker's; in (2, 4) it is this process's second run, while the
    # worker is on seed 5
    _two_cpus(monkeypatch)
    args = ["--synth", "xor", "--n", "60" if seed == 1 else "80", "--d", "4", "--cond-size", "1",
            "--pop", "4", "--iters", "2", "--delta", "0.4", "--cluster-reduce",
            "--seed", seed, "--runs", runs]
    parallel = _batch_output(monkeypatch, capsys, tmp_path / "parallel", args)
    (pool,) = pools.made
    assert pool.proc is not None and pool.proc.returncode is not None
    serial = _serial_output(monkeypatch, capsys, tmp_path / "serial", args)
    assert parallel[0] == 2 and "cluster reduction with delta=0.4" in parallel[2]
    assert list(parallel[3]) == [f"run_seed_{seed}.json"]
    assert parallel == serial


def test_run_worker_killed_mid_run_leaves_the_reports_unchanged(
    pools, monkeypatch, capsys, tmp_path
):
    # the worker is killed with a run claimed: this process runs that run too
    _two_cpus(monkeypatch)
    pools.on_claim = lambda pool: os.kill(pool.proc.pid, signal.SIGKILL)
    args = _prototype_batch(tmp_path)
    killed = _batch_output(monkeypatch, capsys, tmp_path / "killed", args)
    (pool,) = pools.made
    assert pool.proc.returncode == -signal.SIGKILL
    assert pool.here == [0, 1, 2]
    assert killed == _serial_output(monkeypatch, capsys, tmp_path / "serial", args)


def test_run_worker_is_reaped_when_the_parent_raises(pools, monkeypatch, tmp_path, cond_file):
    # the worker is stopped with a run claimed, and this process's first run
    # raises a BaseException: closing must kill the worker, not wait for it
    _two_cpus(monkeypatch)
    pools.on_claim = lambda pool: os.kill(pool.proc.pid, signal.SIGSTOP)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(hefs.cli, "_single_run", interrupted)
    args = ["--synth", "xor", "--n", "120", "--d", "8", "--pop", "6", "--iters", "4",
            "--runs", "3", "--baseline", f"file:{cond_file}", "--out", tmp_path / "batch"]
    raised = []

    def batch():
        try:
            run(list(map(str, args)))
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=batch, daemon=True)
    caller.start()
    caller.join(30)
    (pool,) = pools.made
    if caller.is_alive():
        pool.proc.kill()
        caller.join()
        pytest.fail("the batch waited on a stopped run worker")
    assert [type(exc) for exc in raised] == [KeyboardInterrupt]
    assert pool.proc.returncode == -signal.SIGKILL
    assert not pool._thread.is_alive()
    assert not hefs.ga._second_cpu_taken
    assert not (tmp_path / "batch").exists()


def test_run_worker_batch_builds_no_vote_worker(monkeypatch, tmp_path, cond_file):
    # with both CPUs taken by the batch, no search builds a vote worker, even
    # one that would start at its first pass; a single run still builds one
    _two_cpus(monkeypatch)
    built = []

    class Recorded(hefs.ga._VoteWorker):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(hefs.ga, "_VoteWorker", Recorded)
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", 0.0)
    args = ["--synth", "xor", "--n", "120", "--d", "8", "--pop", "6", "--iters", "4",
            "--baseline", f"file:{cond_file}"]
    assert run_cli(args + ["--runs", "3", "--out", tmp_path / "batch"]) == 0
    assert built == []
    assert not hefs.ga._second_cpu_taken
    assert run_cli(args + ["--out", tmp_path / "single.json"]) == 0
    assert len(built) == 1


def test_run_worker_single_run_starts_no_process(monkeypatch, tmp_path, cond_file):
    _two_cpus(monkeypatch)

    def no_process(*args, **kwargs):
        raise AssertionError("a single run started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(hefs.ga, "_PARALLEL_AFTER_S", math.inf)
    args = SMALL_SYNTH + ["--baseline", f"file:{cond_file}", "--out", tmp_path / "r.json"]
    assert run_cli(args) == 0


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
