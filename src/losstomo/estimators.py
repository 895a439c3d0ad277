"""Link-rate estimation over a decomposed topology.

Estimators read only the OR-rule pass counts n_i(s), the sufficient
statistic, and share two steps.  ``solve_intersection`` sets the subtree
rate beta at every node of an intersection through a pluggable rule, then
derives the per-source joint paths and the intersection link rates; the
pooled MLE plugs in the subtree root on counts pooled over the sources and
the fusion schemes a weighted average of per-source estimates.
``_solve_paths`` is the path MLE walk, one per source along
``DTreePlan.walks``, for both path methods: the pooled MLE skips the
intersection nodes it has already solved and embeds their joints' path
estimates, and the per-tree baseline walks each source's whole tree with
nothing embedded, so it gives one estimate per covering source for shared
links.  Each intersection's nodes, children and links come with its
``MultiSourceTree`` from ``decompose``; each source's two walks are built once
per plan, on first use.

Count-only work that methods share is kept in ``PooledCounts.memo``: each
successful ``path_root`` return under its rates, as the per-tree baseline
repeats every path solve of the pooled MLE with no embedded term, and one
``IntersectionRecord`` per intersection under its joint:
pooled counts, each source's gamma-hat at the joint and each link's ratio
n_c/n_head, read by the pooled MLE and the four fusion schemes, and each
source's subtree estimate at a node, solved for the first scheme to reach
it.  Only the beta rule, the weights and ``ratio * beta_head / beta_tail``
are per method, so results are bit-identical.  A failing computation is not
stored: it runs again and raises afresh.
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


class IntersectionRecord:
    """One replication's count-only work on one ``MultiSourceTree``, kept in
    ``PooledCounts.memo`` under its joint and shared by ``mle`` and the fusion schemes.  Each
    part is filled on its first use and kept only once it has succeeded: ``pooled``, every
    node's count pooled over the sources; ``gammas``, each source's gamma-hat at the joint,
    and ``ratios``, each link's n_tail / n_head, in ``mt.links`` order; ``fused``, node ->
    each source's subtree estimate and gamma there (``fusion.fuse_node``)."""

    __slots__ = ("mt", "pooled", "gammas", "ratios", "fused")

    def __init__(self, mt: MultiSourceTree):
        self.mt, self.pooled, self.gammas, self.ratios, self.fused = mt, None, None, None, {}

    def pool(self, counts: PooledCounts) -> dict[int, int]:
        if self.pooled is None:
            self.pooled = {n: counts.pooled(n, self.mt.sources) for n in self.mt.nodes}
        return self.pooled


def _pooled_beta(counts: PooledCounts, rec: IntersectionRecord, node: int, children) -> float:
    """``mle``'s beta rule: the subtree root on the record's pooled counts."""
    pooled = rec.pool(counts)
    return subtree_root(pooled[node], tuple(pooled[c] for c in children))


def solve_intersection(est: EstimateSet, counts: PooledCounts, mt: MultiSourceTree, beta_rule) -> None:
    """Solve one intersection into ``est``: betas, joint paths, link rates.

    ``beta_rule(counts, record, node, children)`` gives the subtree rate at every
    internal intersection node (pooled MLE or a fused average) from the replication's
    ``IntersectionRecord`` of ``mt``.  Link rates follow from the ratio identity
    alpha_c = (n_c / n_parent) * beta_parent / beta_c.
    """
    joint = mt.joint
    rec = counts.memo.get(joint)
    if rec is None:
        rec = counts.memo[joint] = IntersectionRecord(mt)
    betas: dict[int, float] = {}
    try:
        for node, kids in zip(mt.nodes, mt.kids):
            betas[node] = beta_rule(counts, rec, node, kids) if kids else 1.0
    except EstimationError as exc:
        raise type(exc)(f"multi-source subtree solve at node {node}: {exc}") from exc
    est.betas.update(betas)
    if rec.ratios is None:  # every beta rule has succeeded, so no link's head count is 0
        gammas = tuple(gamma_hat(counts, joint, s) for s in mt.sources)
        pooled = rec.pool(counts)
        rec.gammas, rec.ratios = gammas, tuple(pooled[l.tail] / pooled[l.head] for l in mt.links)
    # A-hat(s, joint) = gamma_joint(s) / beta_joint, clamped to 1; every beta rule gives beta_joint > 0
    for s, gamma in zip(mt.sources, rec.gammas):
        est.paths[(s, joint)] = min(gamma / betas[joint], 1.0)
    for l, ratio in zip(mt.links, rec.ratios):
        est.add_link(l.label, ratio * betas[l.head] / betas[l.tail])


def _solve_paths(est: EstimateSet, counts: PooledCounts, source: int, walk, children,
                 attribution: int | None) -> None:
    """Path MLE A-hat(source, node) along ``walk``, one of ``DTreePlan.walks``, and the
    rates of the links out of each node it solves and out of the source.

    A child already in ``est.betas`` is an intersection joint: its path
    estimate stands in for the raw end-to-end rate.  The walk visits children
    first, so a child's path rate is known before its parent's links are.
    """
    paths: dict[int, float] = {}

    def term(child: int) -> float:
        if child in est.betas:
            return est.paths[(source, child)]
        return gamma_hat(counts, child, source)

    try:
        for node, links in walk:
            terms = tuple(term(l.tail) for l in links)
            key = ("path", gamma_hat(counts, node, source), terms)
            if (root := counts.memo.get(key)) is None:  # only a return is stored
                root = counts.memo[key] = path_root(*key[1:])
            paths[node] = est.paths[(source, node)] = root
            for l, rate in zip(links, terms):
                est.add_link(l.label, paths.get(l.tail, rate) / root, source=attribution)
    except EstimationError as exc:
        raise type(exc)(f"path solve for source {source} at node {node}: {exc}") from exc
    for l in children[source]:
        est.add_link(l.label, paths[l.tail] if l.tail in paths else term(l.tail), source=attribution)


def estimate_network(counts: PooledCounts, plan: DTreePlan, method: str) -> EstimateSet:
    """Run one estimator over the pass counts of one replication.

    The counts (from ``simulate_counts``, or ``count_pass`` of receiver bits)
    are the sufficient statistic, so one count serves every method.  ``mle``
    solves the multi-source trees first; it and ``tree-baseline`` then walk
    each source's tree, ``mle`` past the nodes already solved."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in FUSION_METHODS:
        return fused_estimate(counts, plan, method)
    est = EstimateSet(method=method)
    baseline = method == "tree-baseline"
    if not baseline:
        for mt in plan.msource_trees:
            solve_intersection(est, counts, mt, _pooled_beta)
    for s, walks in plan.walks.items():
        _solve_paths(est, counts, s, walks[baseline], plan.children, s if baseline else None)
    return est


from .fusion import fused_estimate  # noqa: E402  (fusion imports this module's names)
