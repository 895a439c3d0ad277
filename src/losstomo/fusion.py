"""Weighted-average fusion of per-source intersection estimates.

Fusion is the pooled MLE's walk with another beta rule: at every internal
intersection node each source's counts alone give a subtree estimate (the
subtree root on the counts n_i(s) and n_c(s)), kept in source order, and the
rule returns a convex combination of them.  These estimates and the sources'
gammas at the node are the per-source part of the replication's
``estimators.IntersectionRecord``, filled for the first scheme to reach the node
and read by the other three, so each source's solve runs once per replication;
the schemes differ only in the per-source scores, which one normalisation
turns into weights.  Both MVWA schemes score by the inverse of one per-source
variance, beta(1 - A beta)/(nA): ``mvwa-oracle`` takes the true beta and A
(the topology's ``subtree_rate`` and ``path_rate``), ``mvwa-plugin`` the
source's own estimate beta(s) and A = gamma(s)/beta(s) with the miss
probability floored at 1/(n+1).  ``rbmvwa`` scores by end-to-end odds and
``mrbmvwa`` by plain end-to-end proportions.
Joint paths and link rates then come from ``estimators.solve_intersection``
exactly as for the pooled MLE, from the same record's count-only part.
"""

from __future__ import annotations

from functools import partial

from .decompose import DTreePlan
from .probes import PooledCounts
from .solvers import FusionWeightError, NoDataError, subtree_root
from .estimators import FUSION_METHODS, EstimateSet, IntersectionRecord, solve_intersection


def _normalised(scores) -> tuple[float, ...]:
    total = sum(scores)
    if total <= 0.0:
        raise ValueError("all end-to-end rates are zero")
    return tuple(v / total for v in scores)


def mvwa_weights(variances) -> tuple[float, ...]:
    """Inverse-variance weights; minimize the combined variance."""
    if not variances:
        raise ValueError("at least one variance is required")
    for v in variances:
        if v <= 0.0:
            raise ValueError(f"variance must be strictly positive, got {v}")
    return _normalised([1.0 / v for v in variances])


def rbmvwa_weights(gammas) -> tuple[float, ...]:
    """Odds-proportional weights gamma/(1-gamma), normalized."""
    g = [float(v) for v in gammas]
    for v in g:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"pass rate {v} outside [0, 1]")
    if 1.0 in g:
        # limit of the odds formula: all weight on the saturated sources
        return _normalised([float(v == 1.0) for v in g])
    return _normalised([v / (1.0 - v) for v in g])


def mrbmvwa_weights(gammas) -> tuple[float, ...]:
    """Linearly proportional weights; robust when rates approach 1."""
    return _normalised([float(v) for v in gammas])


def fuse_node(counts: PooledCounts, rec: IntersectionRecord, node: int, children, scheme: str,
              plan: DTreePlan) -> float:
    """Fused subtree rate at ``node`` of ``rec``'s intersection: the weighted sum of the
    per-source estimates, held at or below the largest of them, which rounding can carry
    the sum past.  ``mvwa-oracle`` reads its true rates from ``plan.topology``."""
    entry = rec.fused.get(node)
    if entry is None:
        per_source, gammas = {}, []
        for s in rec.mt.sources:
            n_i = counts.count(node, s)
            if n_i:  # a source none of whose probes reached node has no estimate there
                per_source[s] = subtree_root(n_i, tuple(counts.count(c, s) for c in children))
                gammas.append(n_i / counts.probes[s])
        if not per_source:
            raise NoDataError(f"no source observed anything below node {node}")
        entry = rec.fused[node] = per_source, gammas
    per_source, gammas = entry
    try:
        if scheme == "rbmvwa":
            weights = rbmvwa_weights(gammas)
        elif scheme == "mrbmvwa":
            weights = mrbmvwa_weights(gammas)
        else:  # MVWA: each source's variance b(1 - ab)/(na), at the true rates or at plug-in ones
            variances, t = [], plan.topology
            for (s, b), g in zip(per_source.items(), gammas):
                n = counts.probes[s]
                if scheme == "mvwa-oracle":
                    b, a, floor = t.subtree_rate[node], t.path_rate(s, node), 0.0
                    if a == 0.0:  # observed bits may pass where the declared rates do not
                        raise ValueError(f"source {s} reaches the node at true path rate 0")
                else:
                    # a lossless sample would give a zero plug-in variance; floor the
                    # miss probability at 1/(n+1) to keep the weight finite
                    a, floor = min(g / b, 1.0), 1.0 / (n + 1)
                variances.append(b * max(1.0 - a * b, floor) / (n * a))
            weights = mvwa_weights(variances)
    except ValueError as exc:
        raise FusionWeightError(f"{scheme} weights at node {node}: {exc}") from exc
    fused = sum(w * b for w, b in zip(weights, per_source.values()))
    return min(fused, max(per_source.values()))


def fused_estimate(counts: PooledCounts, plan: DTreePlan, scheme: str) -> EstimateSet:
    """Estimate intersection link rates with fused subtree estimates.

    Per-source subtree estimates are fused at every internal intersection
    node; the fused betas then go through the same intersection solve as the
    pooled ones.
    """
    if scheme not in FUSION_METHODS:
        raise ValueError(f"unknown fusion scheme {scheme!r}")
    est = EstimateSet(method=scheme)
    rule = partial(fuse_node, scheme=scheme, plan=plan)
    for mt in plan.msource_trees:
        solve_intersection(est, counts, mt, rule)
    return est
