"""Link-rate estimation over a decomposed topology.

Estimators read only the OR-rule pass counts n_i(s), the sufficient
statistic.  Two complete pipelines are provided: the pooled multi-source
MLE, which solves each intersection from the combined counts of all its
sources and then walks the upstream fragments with the intersection
estimate embedded, and the per-tree baseline that treats every multicast
tree independently and therefore produces one estimate per covering source
for shared links.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .decompose import DTreePlan, LogicalLink, MultiSourceTree
from .probes import PooledCounts, gamma_hat
from .solvers import (
    EstimationError,
    NoDataError,
    UnidentifiableError,
    path_root,
    subtree_root,
)

log = logging.getLogger(__name__)

METHODS = ("mle", "tree-baseline", "mvwa-oracle", "mvwa-plugin", "rbmvwa", "mrbmvwa")
FUSION_METHODS = METHODS[2:]


@dataclass(frozen=True)
class BetaEstimate:
    """Estimate of a subtree pass rate at a joint node, with per-source paths."""

    joint: int
    beta: float
    path_rates: dict[int, float]  # source -> A-hat(s, joint), clamped to 1
    clamped: tuple[int, ...]  # sources whose raw ratio exceeded 1
    counts: dict[int, int]  # source -> n_i(s) used


@dataclass(frozen=True)
class LinkEstimate:
    label: str
    pass_rate: float
    source: int | None  # attribution; None for pooled/fused estimates
    clamped: bool = False

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.pass_rate


@dataclass
class EstimateSet:
    method: str
    links: dict[tuple[str, int | None], LinkEstimate] = field(default_factory=dict)
    paths: dict[tuple[int, int], float] = field(default_factory=dict)  # (source, node)
    betas: dict[int, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add_link(self, label, pass_rate, source=None):
        clamped = pass_rate > 1.0
        rate = min(pass_rate, 1.0)
        self.links[(label, source)] = LinkEstimate(label, rate, source, clamped)


def _step(node, what):
    """Context wrapper so solver failures name the estimation step."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, EstimationError):
                raise type(exc)(f"{what} at node {node}: {exc}") from exc
            return False

    return _Ctx()


def solve_multisource_beta(counts: PooledCounts, node: int, children, sources) -> float:
    """Pooled-count MLE of the subtree pass rate at ``node``.

    ``children`` are the direct descendants inside the intersection; counts
    from every source in ``sources`` are pooled before forming the ratios.
    """
    n_i = counts.pooled(node, sources)
    if n_i == 0:
        raise NoDataError(f"no probes observed below node {node}")
    ratios = []
    for c in children:
        n_c = counts.pooled(c, sources)
        if n_c == 0:
            log.warning("dropping descendant %s of node %s: zero pooled count", c, node)
            continue
        ratios.append(n_c / n_i)
    if len(ratios) < 2:
        raise UnidentifiableError(
            f"node {node}: fewer than 2 descendants with positive counts"
        )
    return subtree_root(ratios)


def beta_sample_mean(counts: PooledCounts, node: int, sources, path_rates) -> float:
    """Sample-mean form of the subtree estimate: n_i over the expected
    number of probes reaching the node.

    Requires the true path rates, so this is a simulation-side diagnostic
    only; it is the form whose variance the information bounds describe.
    """
    n_star = sum(counts.probes[s] * path_rates[s] for s in sources)
    if n_star <= 0:
        raise NoDataError(f"no probes expected to reach node {node}")
    return counts.pooled(node, sources) / n_star


def estimate_source_paths(beta: float, gammas: dict[int, float]):
    """A-hat(s, i) = gamma_i(s) / beta_i, clamped to 1 with a flag."""
    if beta <= 0.0:
        raise EstimationError("subtree pass rate estimate is zero")
    paths = {}
    clamped = []
    for s, g in gammas.items():
        a = g / beta
        if a > 1.0:
            clamped.append(s)
            a = 1.0
        paths[s] = a
    return paths, tuple(clamped)


def solve_tree_pass_rate(gamma_parent: float, child_gammas) -> float:
    """Classic single-source (tree-topology) path MLE."""
    return path_root(gamma_parent, child_gammas)


def solve_upstream_pass_rate(gamma_parent: float, embedded, ordinary) -> float:
    """Path MLE with intersection estimates substituted for their raw rates."""
    terms = list(embedded) + list(ordinary)
    return path_root(gamma_parent, terms)


def _msource_solve(counts: PooledCounts, mt: MultiSourceTree):
    """Recursive pooled solve of an intersection; returns per-node betas."""
    kids: dict[int, list[LogicalLink]] = {}
    for l in mt.links:
        kids.setdefault(l.head, []).append(l)
    betas: dict[int, float] = {}

    def rec(node: int) -> float:
        links = kids.get(node, [])
        if not links:
            betas[node] = 1.0
            return 1.0
        for l in links:
            rec(l.tail)
        with _step(node, "multi-source subtree solve"):
            betas[node] = solve_multisource_beta(
                counts, node, [l.tail for l in links], mt.sources
            )
        return betas[node]

    rec(mt.joint)
    return betas, kids


def joint_estimate(counts: PooledCounts, mt: MultiSourceTree) -> BetaEstimate:
    """Pooled MLE of the joint node's subtree rate plus per-source paths."""
    betas, _ = _msource_solve(counts, mt)
    gammas = {s: gamma_hat(counts, mt.joint, s) for s in mt.sources}
    paths, clamped = estimate_source_paths(betas[mt.joint], gammas)
    return BetaEstimate(
        joint=mt.joint,
        beta=betas[mt.joint],
        path_rates=paths,
        clamped=clamped,
        counts={s: counts.count(mt.joint, s) for s in mt.sources},
    )


def _extract_intersection_links(est: EstimateSet, counts, mt, betas, kids):
    """Ratio identity: alpha_c = (n_c / n_parent) * beta_parent / beta_c."""
    for head, links in kids.items():
        n_head = counts.pooled(head, mt.sources)
        for l in links:
            n_c = counts.pooled(l.tail, mt.sources)
            rate = (n_c / n_head) * betas[head] / betas[l.tail]
            est.add_link(l.label, rate)


def _upstream_solve(counts: PooledCounts, plan: DTreePlan, source: int, joint_paths):
    """Path estimates A-hat(source, f) for every internal fragment node."""
    frag = next(f for f in plan.fragments if f.source == source)
    kids: dict[int, list[LogicalLink]] = {}
    for l in frag.links:
        kids.setdefault(l.head, []).append(l)
    joint_set = set(plan.joint_nodes)
    paths: dict[int, float] = {source: 1.0}

    def term(child: int) -> float:
        if child in joint_set:
            return joint_paths[(source, child)]
        return gamma_hat(counts, child, source)

    for node in frag.solve_order:
        links = kids[node]
        embedded = [term(l.tail) for l in links if l.tail in joint_set]
        ordinary = [term(l.tail) for l in links if l.tail not in joint_set]
        with _step(node, f"upstream path solve for source {source}"):
            paths[node] = solve_upstream_pass_rate(
                gamma_hat(counts, node, source), embedded, ordinary
            )
    return paths, kids, joint_set


def _extract_fragment_links(est, counts, plan, source, paths, kids, joint_set):
    t = plan.topology
    recv = set(t.receivers)
    for head, links in kids.items():
        a_head = paths[head]
        for l in links:
            c = l.tail
            if c in joint_set:
                top = est.paths[(source, c)]
            elif c in recv:
                top = gamma_hat(counts, c, source)
            else:
                top = paths[c]
            est.add_link(l.label, top / a_head)


def _mle(counts: PooledCounts, plan: DTreePlan) -> EstimateSet:
    est = EstimateSet(method="mle")
    for mt in plan.msource_trees:
        betas, kids = _msource_solve(counts, mt)
        gammas = {s: gamma_hat(counts, mt.joint, s) for s in mt.sources}
        with _step(mt.joint, "source path extraction"):
            paths, clamped = estimate_source_paths(betas[mt.joint], gammas)
        est.betas.update(betas)
        for s, a in paths.items():
            est.paths[(s, mt.joint)] = a
        for s in clamped:
            est.meta.setdefault("clamped_paths", []).append((s, mt.joint))
        _extract_intersection_links(est, counts, mt, betas, kids)
    for frag in plan.fragments:
        paths, kids, joint_set = _upstream_solve(counts, plan, frag.source, est.paths)
        for node, a in paths.items():
            if node != frag.source:
                est.paths[(frag.source, node)] = a
        _extract_fragment_links(est, counts, plan, frag.source, paths, kids, joint_set)
    return est


def _tree_children(plan: DTreePlan, source: int) -> dict[int, list[LogicalLink]]:
    """Collapsed child map of one multicast tree, intersections included."""
    kids: dict[int, list[LogicalLink]] = {}
    frag = next(f for f in plan.fragments if f.source == source)
    for l in frag.links:
        kids.setdefault(l.head, []).append(l)
    for mt in plan.msource_trees:
        if source in mt.sources:
            for l in mt.links:
                kids.setdefault(l.head, []).append(l)
    return kids


def _tree_baseline(counts: PooledCounts, plan: DTreePlan) -> EstimateSet:
    est = EstimateSet(method="tree-baseline")
    t = plan.topology
    recv = set(t.receivers)
    for source in t.sources:
        kids = _tree_children(plan, source)
        paths: dict[int, float] = {source: 1.0}

        def solve(node: int) -> float:
            if node in paths:
                return paths[node]
            with _step(node, f"tree solve for source {source}"):
                paths[node] = solve_tree_pass_rate(
                    gamma_hat(counts, node, source),
                    [gamma_hat(counts, l.tail, source) for l in kids[node]],
                )
            return paths[node]

        for head, links in kids.items():
            a_head = solve(head) if head != source else 1.0
            for l in links:
                c = l.tail
                top = gamma_hat(counts, c, source) if c in recv or c not in kids else solve(c)
                est.add_link(l.label, top / a_head, source=source)
        for node, a in paths.items():
            if node != source:
                est.paths[(source, node)] = a
    return est


def extract_link_rates(plan: DTreePlan, counts: PooledCounts, betas, paths) -> EstimateSet:
    """Assemble per-link rates from already-solved subtree and path estimates.

    ``betas`` maps intersection nodes to subtree rates (fused or pooled);
    ``paths`` maps (source, node) to path estimates for fragment internals
    and joints.  Used by the fusion schemes, which only replace the betas.
    """
    est = EstimateSet(method="custom")
    est.betas.update(betas)
    est.paths.update(paths)
    for mt in plan.msource_trees:
        kids: dict[int, list[LogicalLink]] = {}
        for l in mt.links:
            kids.setdefault(l.head, []).append(l)
        _extract_intersection_links(est, counts, mt, betas, kids)
    return est


def estimate_network(counts: PooledCounts, plan: DTreePlan, method: str) -> EstimateSet:
    """Run one estimator over ``count_pass(obs, plan.topology)``, in estimation order.

    The pass counts are the sufficient statistic, so one count serves every method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "mle":
        est = _mle(counts, plan)
    elif method == "tree-baseline":
        est = _tree_baseline(counts, plan)
    else:
        from .fusion import fused_estimate

        est = fused_estimate(counts, plan, method)
    est.meta["probes"] = dict(counts.probes)
    return est
