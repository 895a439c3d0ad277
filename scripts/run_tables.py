#!/usr/bin/env python3
"""Reproduce the desk-scale replication tables for the built-in settings.

Runs every estimator over the three star settings (two sources, one joint
node, two or three receivers) at the harness's default probe counts
(100/500/1000) and replications (20), and writes one markdown and one CSV
report per setting.

Usage:
    python3 scripts/run_tables.py [--out-dir results] [--reps N] [--seed 42]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from losstomo.estimators import METHODS
from losstomo.harness import DEFAULT_REPS, SETTINGS, ExperimentConfig, emit, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    ap.add_argument("--reps", type=int, default=DEFAULT_REPS)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(SETTINGS.items()):
        cfg = ExperimentConfig(
            topology_text=text,
            reps=args.reps,
            seed=args.seed,
            estimators=METHODS,
        )
        table = run_experiment(cfg)
        md = args.out_dir / f"{name}.md"
        csv = args.out_dir / f"{name}.csv"
        md.write_text(f"# setting {name}\n\n" + emit(table, "markdown"))
        csv.write_text(emit(table, "csv"))
        print(f"{name}: {len(table.rows)} rows -> {md} / {csv}")
        for msg in table.messages:
            print(f"  note: {msg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
