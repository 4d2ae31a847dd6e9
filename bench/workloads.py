"""The benchmark's workloads: seeded input generators and the hefs commands
that run on them.

Every input is made from the benchmark seed before any timing starts; hefs
itself only sees the generated files and its command-line flags. A run
executes a fixed number of the workload's commands one after another
(command i gets hefs seed ``seed * 1000 + i * runs_per_command``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Command:
    """One ``hefs`` invocation and the reports it should leave behind."""

    argv: tuple[str, ...]
    reports: tuple[Path, ...]
    seeds: tuple[int, ...]
    aggregate: Path | None = None


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why it is in the benchmark. The
    name picks the input generator and flags; sizes scale them."""

    name: str
    sizes: dict = field(default_factory=dict)
    # run seconds budgeted per command: a run of S seconds executes
    # round(S / budget_s) commands, at least one, so that the parent and a
    # change always do identical work whatever their speed
    budget_s: float = 1.0

    def commands_per_run(self, seconds: float) -> int:
        return max(1, round(seconds / self.budget_s))

    @property
    def runs_per_command(self) -> int:
        return int(self.sizes.get("runs", 1))

    def prepare(self, work: Path, seed: int, count: int) -> "Inputs":
        """Write the inputs of ``count`` commands for ``seed`` into ``work``.

        Each CSV command gets its own generated file, so one run averages over
        several datasets, as parity does through its per-command hefs seed.
        """
        work.mkdir(parents=True, exist_ok=True)
        s = self.sizes
        flags, files = [], []
        for i in range(count):
            rng = np.random.default_rng([seed, _TAG[self.name], i])
            if self.name == "parity":
                path = work / "cond.txt"
                path.write_text("f0\n")
                f = ["--synth", "xor", "--n", str(s["n"]), "--d", str(s["d"]),
                     "--baseline", f"file:{path}"]
            elif self.name == "spambase_shape":
                path = work / f"spambase_shape_{i}.csv"
                write_spambase_shape(path, rng, s["n"], s["d"])
                f = ["--dataset", str(path), "--label-col", "spam", "--baseline", "mi",
                     "--cond-size", str(s["cond"])]
            elif self.name == "cli_batch":
                path = work / f"prototypes_{i}.csv"
                write_prototype_rows(path, rng, s["n"], s["d"], s["prototypes"])
                f = ["--dataset", str(path), "--label-col", "kind", "--baseline", "mi",
                     "--cond-size", str(s["cond"]), "--cluster-reduce",
                     "--runs", str(self.runs_per_command)]
            else:
                raise ValueError(f"unknown workload {self.name!r}")
            flags.append((*f, "--pop", str(s["pop"]), "--iters", str(s["iters"])))
            files.append(path)
        return Inputs(self, work, seed, tuple(flags), tuple(dict.fromkeys(files)))


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    work: Path
    seed: int
    flags: tuple[tuple[str, ...], ...]  # per command, without --seed and --out
    files: tuple[Path, ...]

    def command(self, i: int, tag: str = "") -> Command:
        """The i-th command of a run; ``tag`` keeps repeated outputs apart."""
        runs = self.workload.runs_per_command
        first = self.seed * 1000 + i * runs
        seeds = tuple(range(first, first + runs))
        flags = self.flags[i]
        if runs == 1:
            out = self.work / f"report_{i}{tag}.json"
            return Command((*flags, "--seed", str(first), "--out", str(out)), (out,), seeds)
        out_dir = self.work / f"batch_{i}{tag}"
        reports = tuple(out_dir / f"run_seed_{s}.json" for s in seeds)
        return Command(
            (*flags, "--seed", str(first), "--out", str(out_dir)),
            reports,
            seeds,
            aggregate=out_dir / "aggregate.json",
        )


_TAG = {"parity": 1, "spambase_shape": 2, "cli_batch": 3}


def write_spambase_shape(path: Path, rng: np.random.Generator, n: int, d: int) -> None:
    """Sparse, non-negative, class-dependent columns shaped like Spambase.

    About 39% positives. The first d-3 columns are word/char frequencies:
    zero in most rows, exponential where present, with a per-class rate and
    scale. The last three are capital-run lengths: integers >= 1, heavy
    tailed, larger for the positive class.
    """
    y = (rng.random(n) < 0.394).astype(np.int64)
    n_freq = d - 3
    p_present = rng.uniform(0.05, 0.6, size=(2, n_freq))
    scale = rng.lognormal(-1.0, 1.0, size=(2, n_freq))
    present = rng.random((n, n_freq)) < p_present[y]
    freq = np.where(present, rng.exponential(1.0, (n, n_freq)) * scale[y], 0.0)
    runs = np.floor(1.0 + rng.lognormal(1.0 + 0.5 * y[:, None], 1.0, (n, 3)))
    x = np.column_stack([np.round(freq, 2), runs])
    header = [f"w{j}" for j in range(n_freq)] + ["cap_avg", "cap_longest", "cap_total", "spam"]
    lines = [",".join(header)]
    lines += [",".join(f"{v:g}" for v in row) + f",{label}" for row, label in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")


def write_prototype_rows(path: Path, rng: np.random.Generator, n: int, d: int, n_prototypes: int) -> None:
    """Small-integer rows, each an exact copy of one of ``n_prototypes``
    prototypes, three string classes.

    Every column holds the same multiset of levels 0..9 across prototypes and
    every prototype is copied equally often, so all columns share one mean and
    one standard deviation. Copies are duplicate rows: k-NN on the full data
    meets many exact ties at the k-th distance, while leader clustering keeps
    one row per prototype. 5% of labels are redrawn at random.
    """
    names = np.array(["alpha", "beta", "gamma"])
    levels = np.arange(n_prototypes) % 10
    protos = np.column_stack([rng.permutation(levels) for _ in range(d)])
    proto_class = rng.permutation(np.arange(n_prototypes) % 3)
    which = rng.permutation(np.arange(n) % n_prototypes)
    y = np.where(rng.random(n) < 0.05, rng.integers(0, 3, size=n), proto_class[which])
    lines = [",".join([f"c{j}" for j in range(d)] + ["kind"])]
    lines += [",".join(map(str, row)) + f",{names[label]}"
              for row, label in zip(protos[which].tolist(), y)]
    path.write_text("\n".join(lines) + "\n")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parity",
            {"n": 400, "d": 20, "pop": 30, "iters": 100},
            budget_s=18.0,
        ),
        Workload(
            "spambase_shape",
            {"n": 2000, "d": 57, "cond": 20, "pop": 4, "iters": 2},
            budget_s=7.2,
        ),
        Workload(
            "cli_batch",
            {"n": 1200, "d": 40, "prototypes": 60, "cond": 10,
             "pop": 20, "iters": 30, "runs": 3},
            budget_s=5.0,
        ),
    )
}
