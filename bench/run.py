#!/usr/bin/env python3
"""losstomo benchmark: sweeps of ``losstomo run`` through ``cli.main``.

Usage:
    python3 bench/run.py --workload desk-stars --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all [--trace 1]

One sweep runs every config of the workload once through ``cli.main`` with
``--out`` to a file, and every CSV written is checked against the committed
reference of the experiment seed the workload seed selects.  Sweeps repeat
while the next one is expected to end within ``--seconds``.

--trace 0 prints the end-to-end metrics: sweep_s (median wall time of a
sweep), setup_s (median of parse_topology + decompose over the workload's
topologies, timed on its own in bursts between the sweeps), peak_rss_mb of this
process, and failed_frac.  --trace 1 alternates untraced and traced sweeps,
checks that the traced CSVs are byte-identical to the untraced ones, prints
the per-layer metrics (low medians over traced sweeps), the tracing overhead,
and writes the spans of the first traced sweep to
``.bench_out/trace-<workload>-seed<seed>.json``.  ``--workload all`` runs
every workload in a fresh process.

The last line of standard output is one JSON object with the keys correct,
attempted and failed (estimator calls, summed over sweeps) and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import METRICS, Tracer
from workloads import REFERENCE_SEEDS, TOLERANCE, compare_csv, failed_calls, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("desk-stars", "ladder-8x7", "probes-1e7")
MIN_SWEEPS = 2
SETUP_SHARE = 0.1
MIN_SETUPS = 5


def environment(seed: int, experiment_seed: int) -> dict:
    import numpy

    sources = sorted((SRC / "losstomo").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "workload_seed": seed,
        "experiment_seed": experiment_seed,
    }


def time_setup(configs) -> float:
    """Wall time of parse_topology + decompose over the configs' topologies."""
    from losstomo.decompose import decompose
    from losstomo.topology import parse_topology

    t0 = time.perf_counter()
    for cfg in configs:
        decompose(parse_topology(cfg.topology))
    return time.perf_counter() - t0


class Sweeper:
    """Runs sweeps of one workload and checks each against the references."""

    def __init__(self, name, configs, experiment_seed, tmp: Path):
        from losstomo import cli

        self.cli = cli
        self.configs = configs
        self.seed = experiment_seed
        self.tmp = tmp
        self.references = [cfg.read_reference(name, experiment_seed) for cfg in configs]
        self.attempted = self.failed = 0
        self.sweeps = self.mismatches = self.byte_identical = 0
        self.worst_diff = 0.0
        for cfg in configs:
            (tmp / f"{cfg.name}.topo").write_text(cfg.topology)

    def sweep(self) -> tuple[float, list[str | None]]:
        """Wall time of one sweep and the CSVs it wrote (None where a run failed)."""
        outs = [self.tmp / f"{cfg.name}.csv" for cfg in self.configs]
        for out in outs:
            out.unlink(missing_ok=True)
        argvs = [
            cfg.argv(self.seed, self.tmp / f"{cfg.name}.topo", out)
            for cfg, out in zip(self.configs, outs)
        ]
        gc.collect()
        t0 = time.perf_counter()
        codes = [self.cli.main(argv) for argv in argvs]
        elapsed = time.perf_counter() - t0
        return elapsed, [out.read_text() if code == 0 else None for code, out in zip(codes, outs)]

    def check(self, texts) -> None:
        """Compare one sweep's CSVs with the references and count its estimator calls."""
        calls = sum(cfg.calls for cfg in self.configs)
        self.attempted += calls
        self.sweeps += 1
        self.byte_identical += texts == self.references
        diffs = [None if t is None else compare_csv(t, ref) for t, ref in zip(texts, self.references)]
        self.worst_diff = max([self.worst_diff, *(d for d in diffs if d is not None)])
        if any(d is None or d > TOLERANCE for d in diffs):
            self.mismatches += 1
            self.failed += calls
        else:
            self.failed += sum(failed_calls(t) for t in texts)


def summarize(samples: list[float]) -> str:
    """Median, the highest whole percentile with at least ten samples above it, and the count."""
    text = f"median {statistics.median(samples)!r} of {len(samples)} sweeps"
    if len(samples) >= 20:
        q = int(100 * (1 - 10 / len(samples)))
        text += f", p{q} {statistics.quantiles(samples, n=100)[q - 1]!r}"
    return text + f", min {min(samples)!r}, max {max(samples)!r}"


def plain_run(sweeper: Sweeper, configs, seconds: float):
    times, setups = [], []
    sweep_total = setup_total = 0.0
    start = time.perf_counter()
    # stop before a sweep that would end past the deadline, so runs last about `seconds`
    while len(times) < MIN_SWEEPS or time.perf_counter() - start + times[-1] <= seconds:
        # set-ups are interleaved with the sweeps, at about SETUP_SHARE of
        # their time, so that both sample the same spells of machine speed
        while len(setups) < MIN_SETUPS or setup_total < SETUP_SHARE * sweep_total:
            setups.append(time_setup(configs))
            setup_total += setups[-1]
        elapsed, texts = sweeper.sweep()
        times.append(elapsed)
        sweep_total += elapsed
        sweeper.check(texts)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"sweep_s      {summarize(times)}")
    setup_s = statistics.median(setups)
    print(f"setup_s      median {setup_s!r} of {len(setups)} set-ups")
    print(f"peak_rss_mb  {peak_mb!r} (ru_maxrss of this process)")
    metrics = {
        "sweep_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    return metrics


def traced_run(sweeper: Sweeper, seconds: float, trace_file: Path, env: dict):
    plain, traced, layers = [], [], []
    first_spans = None
    identical = True
    tracer = Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        # alternate which sweep of a pair runs first, so warm-up falls on both sides
        pair = {}
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                tracer.reset()
                with tracer:
                    pair[with_trace] = sweeper.sweep()
            else:
                pair[with_trace] = sweeper.sweep()
            sweeper.check(pair[with_trace][1])
        (elapsed, texts), (traced_elapsed, traced_texts) = pair[False], pair[True]
        plain.append(elapsed)
        traced.append(traced_elapsed)
        identical &= traced_texts == texts and None not in texts
        layers.append(tracer.metrics())
        if first_spans is None:
            first_spans = list(tracer.spans)
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"untraced sweep_s {summarize(plain)}")
    print(f"traced sweep_s   {summarize(traced)}")
    print(f"tracing overhead {overhead!r} s per sweep (traced minus untraced median)")
    print(f"traced CSVs byte-identical to untraced: {identical}")
    metrics = {
        name: (statistics.median_low(sample[name] for sample in layers), unit)
        for name, unit in METRICS.items()
    }
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    trace_file.write_text(json.dumps({
        "env": env,
        "fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": first_spans,
        "overhead_s": overhead,
    }))
    print(f"spans of the first traced sweep: {trace_file.relative_to(ROOT)}")
    return metrics, identical


def run_all(args) -> int:
    """Every workload in a fresh process; returns the worst exit code."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0, help="how long to sweep (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "losstomo" / "__init__.py").is_file():
        print(f"error: no losstomo package under {SRC}; run from a losstomo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    configs = workloads()[args.workload]
    experiment_seed = REFERENCE_SEEDS[args.seed % len(REFERENCE_SEEDS)]
    try:
        env = environment(args.seed, experiment_seed)
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            sweeper = Sweeper(args.workload, configs, experiment_seed, Path(tmp))
            print(f"workload {args.workload}, seed {args.seed} -> experiment seed {experiment_seed}")
            print(f"env {json.dumps(env)}")
            identical = True
            if args.trace:
                trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                metrics, identical = traced_run(sweeper, args.seconds, trace_file, env)
            else:
                metrics = plain_run(sweeper, configs, args.seconds)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    frac = sweeper.failed / sweeper.attempted
    print(f"failed_frac  {frac!r} ({sweeper.failed} of {sweeper.attempted} estimator calls)")
    print(
        f"reference    {sweeper.mismatches} of {sweeper.sweeps} sweeps mismatch, "
        f"{sweeper.byte_identical} byte-identical; "
        f"largest per-value difference {sweeper.worst_diff!r} (tolerance {TOLERANCE})"
    )
    print(json.dumps({
        "correct": sweeper.mismatches == 0 and identical,
        "attempted": sweeper.attempted,
        "failed": sweeper.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
