"""Weighted-average fusion of per-source intersection estimates.

Fusion is the pooled MLE's walk with another beta rule: at every internal
intersection node each source's counts alone give a subtree estimate (the
pooled solve over that one source), kept in source order, and the rule
returns a convex combination of them.  The schemes differ only in the
per-source scores, which one normalisation turns into weights.  Both MVWA
schemes score by the inverse of one per-source variance, beta(1 - A beta)/(nA):
``mvwa-oracle`` takes the true beta and A, ``mvwa-plugin`` the source's own
estimate beta(s) and A = gamma(s)/beta(s) with the miss probability floored
at 1/(n+1).  ``rbmvwa`` scores by end-to-end odds and ``mrbmvwa`` by plain
end-to-end proportions.  Joint paths and link rates then come from
``estimators.solve_intersection`` exactly as for the pooled MLE.
"""

from __future__ import annotations

from functools import partial

from .decompose import DTreePlan
from .probes import PooledCounts, gamma_hat
from .solvers import FusionWeightError, NoDataError
from .estimators import FUSION_METHODS, EstimateSet, solve_intersection, solve_multisource_beta


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


def per_tree_estimates(counts: PooledCounts, node: int, children, sources) -> dict[int, float]:
    """Per-source subtree estimates beta_i(s), each source's own pooled solve, in ``sources`` order."""
    out = {}
    for s in sources:
        if counts.count(node, s):  # no probe of s reached node, so s has no estimate there
            out[s] = solve_multisource_beta(counts, node, children, (s,))
    if not out:
        raise NoDataError(f"no source observed anything below node {node}")
    return out


def fuse_node(counts, node, children, sources, t, scheme) -> float:
    """Fused subtree rate at ``node``: the weighted sum of the per-source estimates,
    held at or below the largest of them, which rounding can carry the sum past.
    ``mvwa-oracle`` reads its true rates from the topology ``t``."""
    per_source = per_tree_estimates(counts, node, children, sources)
    gammas = [gamma_hat(counts, node, s) for s in per_source]
    try:
        if scheme == "rbmvwa":
            weights = rbmvwa_weights(gammas)
        elif scheme == "mrbmvwa":
            weights = mrbmvwa_weights(gammas)
        else:  # MVWA: each source's variance b(1 - ab)/(na), at the true rates or at plug-in ones
            variances = []
            for (s, b), g in zip(per_source.items(), gammas):
                n = counts.probes[s]
                if scheme == "mvwa-oracle":
                    b, a, floor = t.subtree_rate[node], t.path_rate(s, node), 0.0
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
    for mt in plan.msource_trees:
        solve_intersection(est, counts, plan, mt, partial(fuse_node, t=plan.topology, scheme=scheme))
    return est
