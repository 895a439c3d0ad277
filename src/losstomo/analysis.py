"""Information-theoretic quantities and replication moments.

All closed forms take pass rates: A is a source-to-node path rate, beta a
subtree rate.  ``info_report`` evaluates them at the simulation ground truth.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decompose import DTreePlan


def fisher_information(A: float, beta: float, n: int = 1) -> float:
    """Information about the subtree rate carried by n probes from one source."""
    if not 0.0 < A <= 1.0:
        raise ValueError(f"path rate {A} outside (0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"subtree rate {beta} outside (0, 1): information undefined")
    if n < 1:
        raise ValueError("probe count must be positive")
    return n * A / (beta * (1.0 - A * beta))


def crlb_beta(per_source, beta: float) -> float:
    """Reciprocal of the summed information; also the weighted-average low bound.

    ``per_source`` is a sequence of (A, n) pairs, one per contributing source.
    """
    pairs = list(per_source)
    if not pairs:
        raise ValueError("at least one source is required")
    return 1.0 / sum(fisher_information(a, beta, n) for a, n in pairs)


def var_upstream(A: float, beta: float, n: int) -> float:
    """Variance of a source-to-node path estimate from n probes."""
    if not 0.0 < A <= 1.0:
        raise ValueError(f"path rate {A} outside (0, 1]")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"subtree rate {beta} outside (0, 1]")
    if n < 1:
        raise ValueError("probe count must be positive")
    return A * (1.0 - A * beta) / (n * beta)


def empirical_moments(values) -> tuple[float, float]:
    """Mean and unbiased (n-1 denominator) sample variance."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least 2 replications for moments")
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, var


class InfoRow(NamedTuple):
    node: int
    source: int | None  # None for pooled quantities
    quantity: str
    value: float | None  # None where the quantity is undefined


def info_report(plan: DTreePlan, probes: int) -> list[InfoRow]:
    """Per-joint-node information and variance bounds at the true rates,
    with ``probes`` probes from every source.

    A quantity undefined at the given rates (information at a lossless
    subtree, beta = 1) is reported with value None rather than raising.
    """
    if probes < 1:
        raise ValueError(f"probe count must be >= 1, got {probes}")
    t = plan.topology
    rows: list[InfoRow] = []
    for mt in plan.msource_trees:
        i = mt.joint
        beta = t.subtree_rate[i]
        pairs = []
        for s in mt.sources:
            a = t.path_rate(s, i)
            pairs.append((a, probes))
            rows.append(InfoRow(i, s, "per_probe_information", _defined(fisher_information, a, beta)))
            rows.append(InfoRow(i, s, "var_path_estimate", _defined(var_upstream, a, beta, probes)))
        total = _defined(lambda: sum(fisher_information(a, beta, n) for a, n in pairs))
        rows.append(InfoRow(i, None, "total_information", total))
        rows.append(InfoRow(i, None, "crlb_var_beta", _defined(crlb_beta, pairs, beta)))
    return rows


def _defined(f, *args) -> float | None:
    """``f(*args)``, or None where the closed form is undefined (e.g. a lossless subtree)."""
    try:
        return f(*args)
    except ValueError:
        return None


def csv_text(row_type, rows) -> str:
    """CSV of named-tuple rows under a ``row_type._fields`` header (written even with no rows).

    None is written as an empty cell and any other value as its str: a str as is, an int
    or a float as its repr (a float's str is its shortest round-trip repr)."""
    lines = [",".join(row_type._fields)]
    for r in rows:
        lines.append(",".join(["" if v is None else str(v) for v in r]))
    return "\n".join(lines) + "\n"
