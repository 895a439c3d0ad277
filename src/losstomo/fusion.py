"""Weighted-average fusion of per-source intersection estimates.

Every scheme produces convex weights over the sources reaching a joint
node and combines the per-source subtree estimates; they differ only in
where the weights come from: known variances (oracle), plugged-in variance
formulas, end-to-end odds, or plain end-to-end proportions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .decompose import DTreePlan, LogicalLink
from .probes import PooledCounts, gamma_hat
from .solvers import EstimationError, NoDataError, subtree_root
from .estimators import EstimateSet, estimate_source_paths, extract_link_rates

log = logging.getLogger(__name__)

WEIGHT_TAGS = {
    "mvwa-oracle": "oracle-variance",
    "mvwa-plugin": "plug-in-variance",
    "rbmvwa": "odds",
    "mrbmvwa": "linear",
}


@dataclass(frozen=True)
class WeightedFusion:
    sources: tuple[int, ...]
    estimates: tuple[float, ...]
    weights: tuple[float, ...]
    tag: str

    @property
    def combined(self) -> float:
        return sum(w * b for w, b in zip(self.weights, self.estimates))


def mvwa_combine(estimates, variances, tag="oracle-variance") -> WeightedFusion:
    """Inverse-variance weights; minimizes the combined variance."""
    if not estimates or len(estimates) != len(variances):
        raise ValueError("estimates and variances must be aligned and non-empty")
    for v in variances:
        if v <= 0.0:
            raise ValueError(f"variance must be strictly positive, got {v}")
    inv = [1.0 / v for v in variances]
    total = sum(inv)
    sources = tuple(range(len(estimates)))
    return WeightedFusion(
        sources=sources,
        estimates=tuple(float(b) for b in estimates),
        weights=tuple(w / total for w in inv),
        tag=tag,
    )


def rbmvwa_weights(gammas) -> tuple[float, ...]:
    """Odds-proportional weights gamma/(1-gamma), normalized."""
    g = [float(v) for v in gammas]
    for v in g:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"pass rate {v} outside [0, 1]")
    saturated = [k for k, v in enumerate(g) if v == 1.0]
    if saturated:
        # limit of the odds formula: all weight on the saturated sources
        w = [0.0] * len(g)
        for k in saturated:
            w[k] = 1.0 / len(saturated)
        return tuple(w)
    odds = [v / (1.0 - v) for v in g]
    total = sum(odds)
    if total == 0.0:
        raise ValueError("all end-to-end rates are zero")
    return tuple(o / total for o in odds)


def mrbmvwa_weights(gammas) -> tuple[float, ...]:
    """Linearly proportional weights; robust when rates approach 1."""
    g = [float(v) for v in gammas]
    total = sum(g)
    if total <= 0.0:
        raise ValueError("all end-to-end rates are zero")
    return tuple(v / total for v in g)


def _single_source_beta(counts: PooledCounts, node: int, children, source: int) -> float:
    """Subtree rate from one source's counts alone (beta form of the tree MLE)."""
    n_i = counts.count(node, source)
    if n_i == 0:
        raise NoDataError(f"source {source} observed nothing below node {node}")
    ratios = []
    for c in children:
        n_c = counts.count(c, source)
        if n_c > 0:
            ratios.append(n_c / n_i)
    return subtree_root(ratios)


def per_tree_estimates(counts: PooledCounts, plan: DTreePlan, joint: int) -> dict[int, float]:
    """Per-source subtree estimates beta_i(s) at a joint node."""
    mt = plan.msource_tree(joint)
    children = [l.tail for l in mt.links if l.head == joint]
    return _node_per_source(counts, joint, children, mt.sources)


def _node_per_source(counts, node, children, sources) -> dict[int, float]:
    out = {}
    for s in sources:
        if counts.count(node, s) == 0:
            log.warning("excluding source %s at node %s: zero count", s, node)
            continue
        out[s] = _single_source_beta(counts, node, children, s)
    if not out:
        raise NoDataError(f"no source observed anything below node {node}")
    return out


def _weights_for(scheme, counts, plan, node, per_source) -> tuple[float, ...]:
    sources = sorted(per_source)
    gammas = [gamma_hat(counts, node, s) for s in sources]
    t = plan.topology
    if scheme == "mvwa-oracle":
        beta = t.subtree_rate[node]
        variances = []
        for s in sources:
            a = t.path_rate(s, node)
            variances.append(beta * (1.0 - a * beta) / (counts.probes[s] * a))
    elif scheme == "mvwa-plugin":
        variances = []
        for s, g in zip(sources, gammas):
            b = per_source[s]
            a = min(g / b, 1.0)
            n = counts.probes[s]
            # a lossless sample would give a zero plug-in variance; floor the
            # miss probability at 1/(n+1) to keep the weight finite
            v = b * max(1.0 - a * b, 1.0 / (n + 1)) / (n * a)
            variances.append(v)
    try:
        if scheme == "rbmvwa":
            return rbmvwa_weights(gammas)
        if scheme == "mrbmvwa":
            return mrbmvwa_weights(gammas)
        return mvwa_combine([per_source[s] for s in sources], variances).weights
    except ValueError as exc:
        raise EstimationError(f"{scheme} weights at node {node}: {exc}") from exc


def fuse_node(counts, plan, node, children, sources, scheme) -> WeightedFusion:
    per_source = _node_per_source(counts, node, children, sources)
    ordered = sorted(per_source)
    weights = _weights_for(scheme, counts, plan, node, per_source)
    return WeightedFusion(
        sources=tuple(ordered),
        estimates=tuple(per_source[s] for s in ordered),
        weights=weights,
        tag=WEIGHT_TAGS[scheme],
    )


def fused_estimate(counts: PooledCounts, plan: DTreePlan, scheme: str) -> EstimateSet:
    """Estimate intersection link rates with fused subtree estimates.

    Per-source subtree estimates are fused at every internal intersection
    node; link rates then come from the usual ratio-identity extraction with
    the fused betas substituted for the pooled ones.
    """
    if scheme not in WEIGHT_TAGS:
        raise ValueError(f"unknown fusion scheme {scheme!r}")
    betas: dict[int, float] = {}
    paths: dict[tuple[int, int], float] = {}
    fusions: dict[int, WeightedFusion] = {}
    for mt in plan.msource_trees:
        kids: dict[int, list[LogicalLink]] = {}
        for l in mt.links:
            kids.setdefault(l.head, []).append(l)
        for node in mt.nodes:
            links = kids.get(node, [])
            if not links:
                betas[node] = 1.0
                continue
            fusion = fuse_node(
                counts, plan, node, [l.tail for l in links], mt.sources, scheme
            )
            fusions[node] = fusion
            betas[node] = fusion.combined
        gammas = {s: gamma_hat(counts, mt.joint, s) for s in mt.sources}
        joint_paths, _ = estimate_source_paths(betas[mt.joint], gammas)
        for s, a in joint_paths.items():
            paths[(s, mt.joint)] = a
    est = extract_link_rates(plan, counts, betas, paths)
    est.method = scheme
    est.meta["fusions"] = fusions
    return est
