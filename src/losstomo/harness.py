"""Replication experiments: seeded runs, aggregation, CSV/markdown output.

A run sweeps probe counts x replications x estimators over one topology.
Replication r of a run draws its simulation seed from the master seed with
a fixed splitting function, so a config maps to byte-identical output no
matter how cells are scheduled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .analysis import _defined, csv_text, empirical_moments, var_upstream
from .decompose import DTreePlan, decompose
from .estimators import METHODS, FUSION_METHODS, estimate_network
from .probes import integral, simulate_runs
from .solvers import EstimationError
from .topology import parse_topology

# the three settings used for the desk-scale statistical checks:
# two sources feeding one joint node with 2 or 3 receivers
def _star_setting(source_losses, receiver_losses) -> str:
    lines = []
    n_src = len(source_losses)
    joint = n_src
    recv0 = n_src + 1
    for nid in range(n_src + 1 + len(receiver_losses)):
        lines.append(f"node {nid}")
    for k, loss in enumerate(source_losses):
        lines.append(f"link {k + 1} {k} {joint} {loss}")
    for k, loss in enumerate(receiver_losses):
        lines.append(f"link {n_src + k + 1} {joint} {recv0 + k} {loss}")
    for k in range(n_src):
        lines.append(f"source {k}")
    for k in range(len(receiver_losses)):
        lines.append(f"receiver {recv0 + k}")
    return "\n".join(lines) + "\n"


SETTINGS = {
    "2x2-equal": _star_setting((0.01, 0.01), (0.01, 0.01)),
    "2x2-unequal": _star_setting((0.01, 0.03), (0.01, 0.03)),
    "2x3-equal": _star_setting((0.01, 0.01), (0.01, 0.01, 0.01)),
}


def replication_seed(master_seed: int, rep: int) -> int:
    """Stable per-replication seed derivation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    topology_text: str
    probe_counts: tuple[int, ...] = (100, 500, 1000)
    reps: int = 20
    seed: int = 42
    estimators: tuple[str, ...] = ("mle",)

    def validate(self) -> None:
        counts = self.probe_counts
        for name, values, kind in (("probe_counts", counts, "integers"),
                                   ("estimators", self.estimators, "names")):
            if not isinstance(values, (tuple, list)):
                raise ValueError(f"{name} must be a tuple of {kind}, got {values!r}")
        for name, value in (("reps", self.reps), ("seed", self.seed), *(("probe count", n) for n in counts)):
            if not integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.reps < 1:
            raise ValueError("replication count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not counts or any(n < 1 for n in counts):
            raise ValueError("probe counts must be positive")
        if not self.estimators:
            raise ValueError("estimator list must be non-empty")
        for what, values in (("probe count", self.probe_counts), ("estimator", self.estimators)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{what} listed more than once: {', '.join(map(str, repeated))}")
        for e in self.estimators:
            if e not in METHODS:
                raise ValueError(f"unknown estimator {e!r}; expected one of {METHODS}")


class TableRow(NamedTuple):
    link: str
    estimator: str
    source: int | None
    probes: int
    reps: int  # successful replications
    mean_loss: float | None
    var_loss: float | None
    true_loss: float
    crlb_var: float | None
    clamped: int
    errors: int


@dataclass
class ReplicationTable:
    rows: list[TableRow] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)


def _expected_keys(plan: DTreePlan, estimator: str):
    """Row keys (link label, source attribution) an estimator must produce."""
    if estimator == "tree-baseline":  # every logical link of each source's tree
        return [(l.label, s) for s, tree in plan.topology.trees.items()
                for n in tree.row for l in plan.children.get(n, ())]
    if estimator in FUSION_METHODS:
        return [(l.label, None) for mt in plan.msource_trees for l in mt.links]
    return [(l.label, None) for l in plan.logical_links]


def run_experiment(cfg: ExperimentConfig) -> ReplicationTable:
    cfg.validate()
    plan = decompose(parse_topology(cfg.topology_text))
    keys = {e: _expected_keys(plan, e) for e in cfg.estimators}
    if empty := [e for e in cfg.estimators if not keys[e]]:  # only a fusion scheme's can be empty
        raise ValueError(f"fusion needs an intersection link and the topology has none: {', '.join(empty)}")
    true_loss = {l.label: 1.0 - l.pass_rate for l in plan.logical_links}
    # label -> (A, beta) of each link with a closed-form variance: a source's own link into a joint
    joint_set = set(plan.joint_nodes)
    crlb = {
        l.label: (l.pass_rate, plan.topology.subtree_rate[l.tail])
        for s in plan.topology.sources for l in plan.children[s] if l.tail in joint_set
    }

    table = ReplicationTable()
    seeds = [replication_seed(cfg.seed, rep) for rep in range(cfg.reps)]
    for n in cfg.probe_counts:
        crlb_var = {label: _defined(var_upstream, a, beta, n) for label, (a, beta) in crlb.items()}
        # per estimator: one list of losses, in keys[e] order, per successful replication
        runs = {e: [] for e in cfg.estimators}
        clamped = {e: Counter() for e in cfg.estimators}
        for rep, counts in enumerate(simulate_runs(plan.topology, n, seeds)):
            for e in cfg.estimators:
                try:
                    est = estimate_network(counts, plan, e)
                except EstimationError as exc:
                    table.messages.append(f"probes={n} rep={rep} {e}: {exc}")
                    continue
                runs[e].append([1.0 - est.links[k] for k in keys[e]])
                if est.clamped:  # most replications clamp nothing; Counter.update is slow even when empty
                    clamped[e].update(est.clamped)
        for e in cfg.estimators:
            ok = len(runs[e])
            for (label, src), vals in zip(keys[e], zip(*runs[e]) if ok else repeat(())):
                mean, var = empirical_moments(vals) if ok >= 2 else (vals[0] if ok else None, None)
                table.rows.append(TableRow(
                    label, e, src, n, ok, mean, var, true_loss[label],
                    crlb_var.get(label), clamped[e].get((label, src), 0), cfg.reps - ok,
                ))
    return table


def emit(table: ReplicationTable, format: str = "csv") -> str:
    if not table.rows:
        raise ValueError("empty table")
    rows = sorted(
        table.rows,
        key=lambda r: (r.estimator, r.link, r.source if r.source is not None else -1, r.probes),
    )
    if format == "csv":
        return csv_text(TableRow, rows)
    if format == "markdown":
        return _emit_markdown(rows)
    raise ValueError(f"unknown format {format!r}")


def _emit_markdown(rows: list[TableRow]) -> str:
    """One table per estimator from ``emit``'s sorted rows: links as rows, probe counts as
    column groups."""
    out = []
    for est, est_rows in groupby(rows, attrgetter("estimator")):
        est_rows = list(est_rows)
        probes = sorted({r.probes for r in est_rows})
        header = ["link", *(f"{q}@{n}" for n in probes for q in ("mean", "var"))]
        out.append(f"## {est}\n")
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        for (label, src), key_rows in groupby(est_rows, attrgetter("link", "source")):
            cols = [label if src is None else f"{label} (source {src})", *[""] * 2 * len(probes)]
            for r in key_rows:
                if r.mean_loss is not None:
                    k = 1 + 2 * probes.index(r.probes)  # the probe count's mean column
                    cols[k] = f"{r.mean_loss:.7f}"
                    cols[k + 1] = "" if r.var_loss is None else f"{r.var_loss:.3g}"
            out.append("| " + " | ".join(cols) + " |")
        out.append("")
    return "\n".join(out) + "\n"
