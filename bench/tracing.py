"""Per-layer spans for the benchmark, recorded from outside the package.

``Tracer`` rebinds each function in TRACED to a timing wrapper, in its own
module and in every loaded losstomo module that bound it with
``from .x import f``, so every call site is seen; leaving the ``with``
block restores the originals.  Spans are kept in memory as [name, start_ns, end_ns, parent]
and turned into per-layer metrics once a sweep has ended.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from workloads import METHODS

TRACED = (
    ("topology", "parse_topology"),
    ("topology", "toposort"),
    ("decompose", "decompose"),
    ("probes", "simulate"),
    ("probes", "count_pass"),
    ("estimators", "estimate_network"),
    ("solvers", "subtree_root"),
    ("solvers", "path_root"),
    ("solvers", "_refine"),
    ("fusion", "fused_estimate"),
    ("analysis", "empirical_moments"),
    ("harness", "run_experiment"),
    ("harness", "emit"),
    ("cli", "main"),
)
ROOT_SOLVERS = ("solvers.subtree_root", "solvers.path_root")
ERROR_TYPES = ("NoDataError", "UnidentifiableError", "RootBracketError", "EstimationError")

# every per-layer metric a traced sweep reports, with its unit
METRICS = {
    "topology.parse_topology.s": "s",
    "topology.toposort.calls": "count",
    "topology.toposort.s": "s",
    "decompose.decompose.self_s": "s",
    "probes.simulate.calls": "count",
    "probes.simulate.s": "s",
    "probes.simulate.draws": "count",
    "probes.simulate.bits_bytes": "bytes",
    "probes.count_pass.calls": "count",
    "probes.count_pass.calls_per_rep": "calls/rep",
    "probes.count_pass.s": "s",
    "probes.count_pass.rows_ored": "count",
    **{f"estimators.estimate_network.{m}.s": "s" for m in METHODS},
    "estimators.estimate_network.self_s": "s",
    "solvers.subtree_root.calls": "count",
    "solvers.subtree_root.s": "s",
    "solvers.path_root.calls": "count",
    "solvers.path_root.s": "s",
    "solvers.fevals_per_root": "evals/root",
    "solvers.boundary_returns": "count",
    **{f"solvers.errors.{e}": "count" for e in ERROR_TYPES},
    "solvers.errors.other": "count",
    "fusion.fused_estimate.self_s": "s",
    "analysis.empirical_moments.calls": "count",
    "analysis.empirical_moments.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.emit.s": "s",
    "harness.emit.bytes": "bytes",
    "cli.main.self_s": "s",
}


def _ored_rows(t) -> dict[int, int]:
    """Per source s: sum over nodes of T^s of |R(node) & R^s|, the rows count_pass ORs per probe."""
    out = {}
    for s in t.sources:
        members = t.tree_nodes[s]
        out[s] = sum(
            sum(1 for r in t.receivers_under(node) if r in members) for node in members
        )
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous sweep."""
        self.spans.clear()
        self.refines = 0
        self.fevals = 0
        self.boundary = 0
        self.errors: Counter[str] = Counter()
        self.simulated: list[tuple] = []  # (topology, probes) per simulate call
        self.counted: list[tuple] = []  # (topology, probes) per count_pass call
        self.bits_bytes = 0
        self.emit_bytes = 0

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module, name in TRACED:
            fn = getattr(importlib.import_module(f"losstomo.{module}"), name)
            wrappers[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        mods = [m for n, m in sys.modules.items() if n == "losstomo" or n.startswith("losstomo.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _span(self, name, fn, args, kwargs):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        if name == "estimators.estimate_network":
            def wrapper(*args, **kwargs):
                method = args[2] if len(args) > 2 else kwargs["method"]
                return self._span(f"{name}.{method}", fn, args, kwargs)
        elif name == "solvers._refine":
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    self.fevals += 1
                    return f(x)
                self.refines += 1
                return self._span(name, fn, (counted, *args), kwargs)
        elif name in ROOT_SOLVERS:
            def wrapper(*args, **kwargs):
                refines = self.refines
                try:
                    root = self._span(name, fn, args, kwargs)
                except Exception as exc:
                    kind = type(exc).__name__
                    self.errors[kind if kind in ERROR_TYPES else "other"] += 1
                    raise
                if self.refines == refines:
                    self.boundary += 1
                return root
        elif name == "probes.simulate":
            def wrapper(*args, **kwargs):
                obs = self._span(name, fn, args, kwargs)
                self.simulated.append((args[0], obs.probes))
                self.bits_bytes += sum(b.nbytes for b in obs.bits.values())
                return obs
        elif name == "probes.count_pass":
            def wrapper(*args, **kwargs):
                self.counted.append((args[1], args[0].probes))
                return self._span(name, fn, args, kwargs)
        elif name == "harness.emit":
            def wrapper(*args, **kwargs):
                text = self._span(name, fn, args, kwargs)
                self.emit_bytes += len(text.encode())
                return text
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since the last reset."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for k, (name, start, end, _) in enumerate(self.spans):
            total[name] += (end - start) / 1e9
            self_s[name] += (end - start - child[k]) / 1e9
            calls[name] += 1
        estimate = [f"estimators.estimate_network.{m}" for m in METHODS]
        topologies = {id(t): t for t, _ in self.counted}
        ored = {key: _ored_rows(t) for key, t in topologies.items()}
        m = {
            "topology.parse_topology.s": total["topology.parse_topology"],
            "topology.toposort.calls": calls["topology.toposort"],
            "topology.toposort.s": total["topology.toposort"],
            "decompose.decompose.self_s": self_s["decompose.decompose"],
            "probes.simulate.calls": calls["probes.simulate"],
            "probes.simulate.s": total["probes.simulate"],
            "probes.simulate.draws": sum(
                len(t.tree_links[s]) * n for t, probes in self.simulated for s, n in probes.items()
            ),
            "probes.simulate.bits_bytes": self.bits_bytes,
            "probes.count_pass.calls": calls["probes.count_pass"],
            "probes.count_pass.calls_per_rep": (
                calls["probes.count_pass"] / calls["probes.simulate"] if self.simulated else 0
            ),
            "probes.count_pass.s": total["probes.count_pass"],
            "probes.count_pass.rows_ored": sum(
                ored[id(t)][s] * n for t, probes in self.counted for s, n in probes.items()
            ),
            **{f"{e}.s": total[e] for e in estimate},
            "estimators.estimate_network.self_s": sum(self_s[e] for e in estimate),
            "solvers.subtree_root.calls": calls["solvers.subtree_root"],
            "solvers.subtree_root.s": total["solvers.subtree_root"],
            "solvers.path_root.calls": calls["solvers.path_root"],
            "solvers.path_root.s": total["solvers.path_root"],
            "solvers.fevals_per_root": self.fevals / self.refines if self.refines else 0,
            "solvers.boundary_returns": self.boundary,
            **{f"solvers.errors.{e}": self.errors[e] for e in ERROR_TYPES},
            "solvers.errors.other": self.errors["other"],
            "fusion.fused_estimate.self_s": self_s["fusion.fused_estimate"],
            "analysis.empirical_moments.calls": calls["analysis.empirical_moments"],
            "analysis.empirical_moments.s": total["analysis.empirical_moments"],
            "harness.run_experiment.self_s": self_s["harness.run_experiment"],
            "harness.emit.s": total["harness.emit"],
            "harness.emit.bytes": self.emit_bytes,
            "cli.main.self_s": self_s["cli.main"],
        }
        return m
