"""The benchmark's workloads, their reference outputs and the output check.

A workload is a list of ``losstomo run`` configs; one sweep runs each of
them once through ``cli.main``.  The workload seed picks the experiment
seed (``--seed`` of ``losstomo run``) from REFERENCE_SEEDS, so every run
can be checked against a reference CSV committed under
``bench/reference/<workload>/seed<experiment seed>/``.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path

from ladder import check_rung, ladder

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# 42 is the experiment seed of scripts/run_tables.py
REFERENCE_SEEDS = (42, 1, 2, 3, 4)
METHODS = ("mle", "tree-baseline", "mvwa-oracle", "mvwa-plugin", "rbmvwa", "mrbmvwa")
TOLERANCE = 1e-12
FLOAT_COLUMNS = frozenset({"mean_loss", "var_loss", "true_loss", "crlb_var"})

# the 25-node two-source network of the test suite: two binary trees whose
# subtrees below node 2 coincide
BIG_NETWORK = """\
node 16
node 0
node 17
node 1
node 18
node 2
node 3
node 19
node 20
node 4
node 5
node 6
node 7
node 21
node 22
node 23
node 24
node 8
node 9
node 10
node 11
node 12
node 13
node 14
node 15
link 0 16 17 0.01
link 1 0 1 0.01
link 2 17 18 0.01
link 3 17 2 0.01
link 4 1 2 0.01
link 5 1 3 0.01
link 6 18 19 0.01
link 7 18 20 0.01
link 8 2 4 0.01
link 9 2 5 0.01
link 10 3 6 0.01
link 11 3 7 0.01
link 12 19 21 0.01
link 13 19 22 0.01
link 14 20 23 0.01
link 15 20 24 0.01
link 16 4 8 0.01
link 17 4 9 0.01
link 18 5 10 0.01
link 19 5 11 0.01
link 20 6 12 0.01
link 21 6 13 0.01
link 22 7 14 0.01
link 23 7 15 0.01
source 16
source 0
receiver 21
receiver 22
receiver 23
receiver 24
receiver 8
receiver 9
receiver 10
receiver 11
receiver 12
receiver 13
receiver 14
receiver 15
"""


@dataclass(frozen=True)
class Config:
    """One ``losstomo run`` invocation of a sweep."""

    name: str
    topology: str
    probes: tuple[int, ...]
    reps: int
    compressed: bool = False  # reference stored gzipped

    @property
    def calls(self) -> int:
        """Estimator calls one run of this config attempts."""
        return len(self.probes) * self.reps * len(METHODS)

    def argv(self, seed: int, topology_file: Path, out: Path) -> list[str]:
        return [
            "run", "--topology", str(topology_file),
            "--probes", ",".join(map(str, self.probes)),
            "--reps", str(self.reps),
            "--seed", str(seed),
            "--estimators", ",".join(METHODS),
            "--out", str(out),
        ]

    def reference_path(self, workload: str, seed: int) -> Path:
        suffix = ".csv.gz" if self.compressed else ".csv"
        return REFERENCE_DIR / workload / f"seed{seed}" / f"{self.name}{suffix}"

    def read_reference(self, workload: str, seed: int) -> str:
        data = self.reference_path(workload, seed).read_bytes()
        return (gzip.decompress(data) if self.compressed else data).decode()

    def write_reference(self, workload: str, seed: int, text: str) -> None:
        path = self.reference_path(workload, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode()
        path.write_bytes(gzip.compress(data, 9, mtime=0) if self.compressed else data)


def workloads() -> dict[str, tuple[Config, ...]]:
    from losstomo.harness import SETTINGS

    ladder_text = ladder(8, 7)
    check_rung(8, 7, ladder_text)
    return {
        # scripts/run_tables.py: the three star settings, all six estimators
        "desk-stars": tuple(
            Config(name, SETTINGS[name], (100, 500, 1000), 20) for name in sorted(SETTINGS)
        ),
        "ladder-8x7": (Config("ladder-8x7", ladder_text, (1000,), 1, compressed=True),),
        "probes-1e7": (Config("big-network", BIG_NETWORK, (10_000_000,), 1),),
    }


def compare_csv(got: str, want: str) -> float | None:
    """Largest per-value difference between two CSV tables.

    None when they differ in shape or in any column other than the float
    columns; those are compared as numbers.
    """
    if got == want:
        return 0.0
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got_lines[0] != want_lines[0]:
        return None
    header = want_lines[0].split(",")
    worst = 0.0
    for g, w in zip(got_lines[1:], want_lines[1:]):
        g_vals, w_vals = g.split(","), w.split(",")
        if len(g_vals) != len(w_vals):
            return None
        for column, a, b in zip(header, g_vals, w_vals):
            if a == b:
                continue
            if column not in FLOAT_COLUMNS or not a or not b:
                return None
            try:
                diff = abs(float(a) - float(b))
            except ValueError:
                return None
            worst = max(worst, math.inf if math.isnan(diff) else diff)
    return worst


def failed_calls(csv_text: str) -> int:
    """Failed estimator calls, from the errors column (one count per estimator and probe count)."""
    errors: dict[tuple[str, str], int] = {}
    for line in csv_text.splitlines()[1:]:
        v = line.split(",")
        errors[(v[1], v[3])] = int(v[10])
    return sum(errors.values())
