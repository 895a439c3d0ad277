#!/usr/bin/env python3
"""Write the reference CSVs the benchmark checks its sweeps against.

For every workload and every seed in REFERENCE_SEEDS, runs each config once
through ``cli.main`` and stores the CSV under ``bench/reference/``.  Run it
only on a commit whose output is the accepted one:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from losstomo import cli
    from workloads import REFERENCE_SEEDS, failed_calls, workloads

    status = 0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name, configs in workloads().items():
            for seed in REFERENCE_SEEDS:
                for cfg in configs:
                    topo, out = Path(tmp) / "topology.txt", Path(tmp) / "out.csv"
                    topo.write_text(cfg.topology)
                    if cli.main(cfg.argv(seed, topo, out)) != 0:
                        print(f"{name} seed {seed} {cfg.name}: losstomo run failed", file=sys.stderr)
                        status = 1
                        continue
                    text = out.read_text()
                    failed = failed_calls(text)
                    if failed:
                        print(f"{name} seed {seed} {cfg.name}: {failed} failed estimator calls",
                              file=sys.stderr)
                        status = 1
                    cfg.write_reference(name, seed, text)
                    print(f"{cfg.reference_path(name, seed).relative_to(ROOT)}: "
                          f"{len(text.splitlines()) - 1} rows, {failed} failed calls")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
