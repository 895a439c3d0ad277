"""Link-rate estimation over a decomposed topology.

Estimators read only the OR-rule pass counts n_i(s), the sufficient
statistic, and share two steps.  ``solve_intersection`` sets the subtree
rate beta at every node of an intersection through a pluggable rule, then
derives the per-source joint paths and the intersection link rates; the
pooled MLE plugs in ``solve_multisource_beta`` and the fusion schemes a
weighted average of per-source estimates.  ``_solve_paths`` is the path MLE
walk, one per source along ``DTreePlan.path_walk``, for both path methods:
the pooled MLE skips the intersection nodes it has already solved and embeds
their joints' path estimates, and the per-tree baseline walks each source's
whole tree with nothing embedded, so it gives one estimate per covering
source for shared links.

Count-only work that methods share is memoised in ``PooledCounts.memo`` under
its kind and exact inputs: ``_solve_paths`` stores each successful
``path_root`` return under its rates, as the per-tree baseline repeats every
path solve of the pooled MLE with no embedded term, and
``solve_intersection``, after its betas, each source's gamma-hat at the joint
and each link's ratio n_c/n_head, read by the pooled MLE and the four fusion
schemes.  Subtree solves are shared only in ``fusion.fuse_node``'s own entry.
Only the beta rule, the weights and ``ratio * beta_head / beta_tail`` are per
method, so results are bit-identical.  A failing computation is not stored:
it runs again and raises afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decompose import DTreePlan, MultiSourceTree
from .probes import PooledCounts, gamma_hat
from .solvers import EstimationError, NoDataError, path_root, subtree_root

METHODS = ("mle", "tree-baseline", "mvwa-oracle", "mvwa-plugin", "rbmvwa", "mrbmvwa")
FUSION_METHODS = METHODS[2:]


@dataclass
class EstimateSet:
    method: str
    # (label, source attribution) -> pass rate; the source is None for pooled/fused estimates
    links: dict[tuple[str, int | None], float] = field(default_factory=dict)
    paths: dict[tuple[int, int], float] = field(default_factory=dict)  # (source, node)
    betas: dict[int, float] = field(default_factory=dict)
    # the link keys whose raw estimate was above 1 and is stored as 1.0
    clamped: set[tuple[str, int | None]] = field(default_factory=set)

    def add_link(self, label, pass_rate, source=None):
        if pass_rate > 1.0:
            self.clamped.add((label, source))
            pass_rate = 1.0
        self.links[(label, source)] = pass_rate


def solve_multisource_beta(counts: PooledCounts, node: int, children, sources) -> float:
    """Pooled-count MLE of the subtree pass rate at ``node``.

    ``children`` are the direct descendants inside the intersection; counts
    from every source in ``sources`` are pooled before the solve.
    """
    return subtree_root(counts.pooled(node, sources), tuple(counts.pooled(c, sources) for c in children))


def beta_sample_mean(counts: PooledCounts, node: int, sources, true_paths) -> float:
    """Sample-mean form of the subtree estimate: n_i over the expected
    number of probes reaching the node.

    Requires the true path rates, so this is a simulation-side diagnostic
    only; it is the form whose variance the information bounds describe.
    """
    n_star = sum(counts.probes[s] * true_paths[s] for s in sources)
    if n_star <= 0:
        raise NoDataError(f"no probes expected to reach node {node}")
    return counts.pooled(node, sources) / n_star


def solve_intersection(est: EstimateSet, counts: PooledCounts, plan: DTreePlan,
                       mt: MultiSourceTree, beta_rule) -> None:
    """Solve one intersection into ``est``: betas, joint paths, link rates.

    ``beta_rule(counts, node, children, sources)`` gives the subtree rate at
    every internal intersection node (pooled MLE or a fused average).  Link
    rates follow from the ratio identity
    alpha_c = (n_c / n_parent) * beta_parent / beta_c.
    """
    betas: dict[int, float] = {}
    try:
        for node in mt.nodes:
            kids = [l.tail for l in plan.children[node]]
            betas[node] = beta_rule(counts, node, kids, mt.sources) if kids else 1.0
    except EstimationError as exc:
        raise type(exc)(f"multi-source subtree solve at node {node}: {exc}") from exc
    est.betas.update(betas)
    # memoised under mt and its links: each source's gamma-hat at the joint, each link's n_tail / n_head
    links = tuple(l for node in mt.nodes for l in plan.children[node])
    key = ("intersection", mt, links)
    entry = counts.memo.get(key)
    if entry is None:
        gammas = tuple((s, gamma_hat(counts, mt.joint, s)) for s in mt.sources)
        pooled = {node: counts.pooled(node, mt.sources) for node in mt.nodes}
        entry = counts.memo[key] = gammas, tuple((l, pooled[l.tail] / pooled[l.head]) for l in links)
    gammas, ratios = entry
    # A-hat(s, joint) = gamma_joint(s) / beta_joint, clamped to 1; every beta rule gives beta_joint > 0
    for s, gamma in gammas:
        est.paths[(s, mt.joint)] = min(gamma / betas[mt.joint], 1.0)
    for l, ratio in ratios:
        est.add_link(l.label, ratio * betas[l.head] / betas[l.tail])


def _solve_paths(est: EstimateSet, counts: PooledCounts, plan: DTreePlan, source: int,
                 attribution: int | None) -> None:
    """Path MLE A-hat(source, node) along ``plan.path_walk(source, est.betas)``, then its link rates.

    A child already in ``est.betas`` is an intersection joint: its path
    estimate stands in for the raw end-to-end rate and comes first among a
    node's terms.
    """
    paths: dict[int, float] = {source: 1.0}

    def term(child: int) -> float:
        if child in est.betas:
            return est.paths[(source, child)]
        return gamma_hat(counts, child, source)

    try:
        for node in plan.path_walk(source, est.betas):
            links = plan.children[node]
            if est.betas:  # with none, every key is equal and the stable sort keeps the order
                links = sorted(links, key=lambda l: l.tail not in est.betas)
            key = ("path", gamma_hat(counts, node, source), tuple(term(l.tail) for l in links))
            if (root := counts.memo.get(key)) is None:  # only a return is stored
                root = counts.memo[key] = path_root(*key[1:])
            paths[node] = root
    except EstimationError as exc:
        raise type(exc)(f"path solve for source {source} at node {node}: {exc}") from exc
    for head, a_head in paths.items():
        if head != source:
            est.paths[(source, head)] = a_head
        for l in plan.children[head]:
            rate = paths[l.tail] if l.tail in paths else term(l.tail)
            est.add_link(l.label, rate / a_head, source=attribution)


def estimate_network(counts: PooledCounts, plan: DTreePlan, method: str) -> EstimateSet:
    """Run one estimator over the pass counts of one replication.

    The counts (from ``simulate_counts``, or ``count_pass`` of receiver bits)
    are the sufficient statistic, so one count serves every method.  ``mle``
    solves the multi-source trees first; it and ``tree-baseline`` then walk
    each source's tree, ``mle`` past the nodes already solved."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in FUSION_METHODS:
        from .fusion import fused_estimate

        return fused_estimate(counts, plan, method)
    est = EstimateSet(method=method)
    if method == "mle":
        for mt in plan.msource_trees:
            solve_intersection(est, counts, plan, mt, solve_multisource_beta)
    for s in plan.topology.sources:
        _solve_paths(est, counts, plan, s, s if method == "tree-baseline" else None)
    return est
