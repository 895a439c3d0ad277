import contextlib
import io
import math

import numpy as np
import pytest
from conftest import (
    BIG_NETWORK,
    BIT_MODES,
    CHAIN_TREE,
    SINGLE_TREE,
    expected_counts,
    lossy_multi_source_dags,
    multi_source_dags,
    path_bisection_oracle,
    pooled_beta,
    random_bits,
    receiver_joint_dags,
    sample_counts,
)
from hypothesis import given, seed, settings, strategies as st

from losstomo import estimators, fusion
from losstomo.cli import main
from losstomo.decompose import decompose
from losstomo.estimators import (
    FUSION_METHODS,
    METHODS,
    EstimateSet,
    IntersectionRecord,
    beta_sample_mean,
    estimate_network,
    solve_intersection,
)
from losstomo.harness import SETTINGS, _expected_keys, _star_setting
from losstomo.probes import (
    PooledCounts,
    count_pass,
    gamma_hat,
    simulate,
    simulate_counts,
)
from losstomo.solvers import (
    EstimationError,
    FusionWeightError,
    NoDataError,
    RootBracketError,
    UnidentifiableError,
    path_root,
)
from losstomo.topology import parse_topology


def make_counts(parent, children, probes):
    counts = {}
    for (node, s), n in parent.items():
        counts[(node, s)] = n
    for (node, s), n in children.items():
        counts[(node, s)] = n
    return PooledCounts(probes=probes, counts=counts)


def test_solve_multisource_beta_example():
    # pooled ratios 0.9 and 0.8
    counts = make_counts(
        {(2, 0): 500, (2, 1): 500},
        {(3, 0): 450, (3, 1): 450, (4, 0): 400, (4, 1): 400},
        {0: 520, 1: 520},
    )
    beta = pooled_beta(counts, 2, [3, 4], [0, 1])
    assert beta == pytest.approx(0.7 / 0.72, abs=1e-12)


def test_solve_multisource_beta_no_data():
    counts = make_counts({(2, 0): 0}, {(3, 0): 0, (4, 0): 0}, {0: 100})
    with pytest.raises(NoDataError):
        pooled_beta(counts, 2, [3, 4], [0])


def test_zero_count_child_dropped():
    counts = make_counts(
        {(2, 0): 500},
        {(3, 0): 450, (4, 0): 400, (5, 0): 0},
        {0: 520},
    )
    beta = pooled_beta(counts, 2, [3, 4, 5], [0])
    assert beta == pytest.approx(0.7 / 0.72, abs=1e-12)
    counts2 = make_counts({(2, 0): 500}, {(3, 0): 450, (4, 0): 0}, {0: 520})
    with pytest.raises(UnidentifiableError):
        pooled_beta(counts2, 2, [3, 4], [0])


def test_children_splitting_the_parent_count_have_no_root():
    # 5 probes seen below node 2, of which its children saw 4 and 1, none both: the
    # likelihood has no root in (0, 1], though the ratios 0.8 + 0.2 round above 1
    counts = make_counts({(2, 0): 5}, {(3, 0): 4, (4, 0): 1}, {0: 10})
    with pytest.raises(RootBracketError, match=r"ratios \[0.8, 0.2\]"):
        pooled_beta(counts, 2, [3, 4], [0])


def _splits(n, k, top=None):
    """Every way of writing n as a sum of k counts of at least 1 and at most ``top``,
    largest first: the children's order, which no sum sees, is left out."""
    if k == 1:
        if n <= (top or n):
            yield (n,)
        return
    for first in range(min(n - k + 1, top or n), 0, -1):
        for rest in _splits(n - first, k - 1, first):
            yield (first, *rest)


def test_no_root_exactly_when_no_probe_was_seen_below_two_children():
    # sum(n_c) - n_i counts the probes seen below more than one child, once for each
    # child past the first: every split of n_i fails, and one probe more below the
    # largest child solves.  Two children up to n_i = 399, three up to n_i = 59.  A
    # pooled solve stores nothing in the memo, so one set of counts, rewritten in
    # place, serves every case.
    wrong = []
    for k, top in ((2, 400), (3, 60)):
        children = list(range(3, 3 + k))
        counts = PooledCounts(probes={0: top}, counts={})
        for n_i in range(k, top):
            counts.counts[(2, 0)] = n_i
            for kids in _splits(n_i, k):
                counts.counts.update(zip([(c, 0) for c in children], kids))
                for more in (0, 1):
                    counts.counts[(3, 0)] = kids[0] + more
                    try:
                        pooled_beta(counts, 2, children, [0])
                    except RootBracketError:
                        failed = True
                    else:
                        failed = False
                    if failed != (more == 0):
                        wrong.append((n_i, kids, more))
    assert not wrong, f"{len(wrong)} wrong, e.g. {wrong[:5]}"


def test_solve_intersection_joint_paths(star22_plan):
    # A-hat(s, joint) = gamma_joint(s) / beta_joint, clamped to 1, under a fixed beta rule
    (mt,) = star22_plan.msource_trees
    for beta, joint_counts, expected in [
        (0.7 / 0.72, (875, 875), (pytest.approx(0.9, abs=1e-12),) * 2),  # gamma / beta = 0.9
        (0.9, (0, 950), (0.0, 1.0)),  # gamma = 0 gives 0; 0.95 / 0.9 is clamped to 1
        (0.9, (900, 900), (1.0, 1.0)),  # gamma = beta
    ]:
        counts = {(2, s): n for s, n in enumerate(joint_counts)}
        counts.update({(c, s): n * 9 // 10 for c in (3, 4) for s, n in enumerate(joint_counts)})
        est = EstimateSet(method="stub")
        solve_intersection(est, PooledCounts(probes={0: 1000, 1: 1000}, counts=counts), mt,
                           lambda counts, rec, node, children: beta)
        assert est.betas == {2: beta, 3: 1.0, 4: 1.0}
        assert (est.paths[(0, 2)], est.paths[(1, 2)]) == expected


def test_solve_tree_pass_rate_example():
    assert path_root(0.9, [0.84, 0.78]) == pytest.approx(0.91, abs=1e-12)
    assert path_root(0.9, [0.9, 0.5]) == 0.9


def test_upstream_solver_examples():
    # an embedded term (0.9) listed first, then an ordinary one
    a = path_root(0.93, [0.9, 0.88])
    assert a == pytest.approx(0.792 / 0.85, abs=1e-10)
    # three to six terms against bisection in A; 0.62 and 0.95 are embedded
    # terms above their parent rate, which put the root on the boundary max(terms)
    for g, terms in [
        (0.6, [0.45, 0.4, 0.35]),
        (0.7, [0.5, 0.3, 0.45, 0.4]),
        (0.8, [0.6, 0.55, 0.5, 0.45, 0.4]),
        (0.75, [0.3, 0.35, 0.4, 0.45, 0.5, 0.55]),
        (0.6, [0.62, 0.3, 0.2, 0.4]),
        (0.93, [0.95, 0.9, 0.88]),
    ]:
        assert path_root(g, terms) == pytest.approx(path_bisection_oracle(g, terms), abs=1e-12)


def test_upstream_two_embedded_matches_bisection_oracle():
    gp, e1, e2 = 0.9, 0.88, 0.86
    root = path_root(gp, [e1, e2])
    # expanded quadratic in A: A^2 - (e1 + e2 - gp + e1 e2 / A ... solve by
    # brute bisection on the expanded polynomial A(1 - gp/A - prod)
    def h(a):
        return a - gp - (a - e1) * (a - e2) / a

    lo, hi = max(e1, e2), 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if h(lo) * h(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert root == pytest.approx((lo + hi) / 2, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(400, 2000),
    data=st.data(),
)
def test_single_source_route_reduction(n, data):
    # the multi-source route (beta polynomial + gamma/beta) must agree with
    # the tree-topology route (A polynomial) on one-source count tables
    n_i = data.draw(st.integers(int(0.6 * n), n))
    k = data.draw(st.integers(2, 4))
    kids = [data.draw(st.integers(int(0.55 * n_i), n_i)) for _ in range(k)]
    if sum(kids) <= n_i:
        return
    prod = 1.0
    for c in kids:
        prod *= 1.0 - c / n
    if 1.0 - n_i / n <= prod:
        # implied shared rate would exceed 1: not a solvable instance
        return
    counts = make_counts(
        {(1, 0): n_i},
        {(10 + j, 0): c for j, c in enumerate(kids)},
        {0: n},
    )
    beta = pooled_beta(counts, 1, [10 + j for j in range(k)], [0])
    a_ms = (n_i / n) / beta
    a_tree = path_root(n_i / n, [c / n for c in kids])
    assert abs(a_ms - a_tree) <= 1e-12


def test_extract_leaf_link_from_ratio_identity(star22_plan):
    counts = make_counts(
        {(2, 0): 500, (2, 1): 500},
        {(3, 0): 450, (3, 1): 450, (4, 0): 400, (4, 1): 400},
        {0: 520, 1: 520},
    )
    est = estimate_network(counts, star22_plan, "mle")
    beta = 0.7 / 0.72
    assert est.links[("3", None)] == pytest.approx(0.9 * beta, abs=1e-12)
    assert est.links[("4", None)] == pytest.approx(0.8 * beta, abs=1e-12)


def test_lossless_gives_zero_loss(star22_plan):
    t = parse_topology(
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\n"
        "link 1 0 2 0\nlink 2 1 2 0\nlink 3 2 3 0\nlink 4 2 4 0\n"
        "source 0\nsource 1\nreceiver 3\nreceiver 4\n"
    )
    plan = decompose(t)
    obs = simulate(t, 100, seed=1)
    for method in ("mle", "tree-baseline", "rbmvwa", "mrbmvwa"):
        est = estimate_network(count_pass(obs, plan.topology), plan, method)
        for rate in est.links.values():
            assert rate == 1.0


def test_single_source_tree_mle_equals_baseline(single_tree):
    plan = decompose(single_tree)
    obs = simulate(single_tree, 2000, seed=17)
    mle = estimate_network(count_pass(obs, plan.topology), plan, "mle")
    base = estimate_network(count_pass(obs, plan.topology), plan, "tree-baseline")
    for (label, _), rate in base.links.items():
        assert mle.links[(label, None)] == pytest.approx(rate, abs=1e-12)


def test_add_link_stores_at_most_one_and_records_each_clamp():
    est = EstimateSet(method="mle")
    est.add_link("1", 1.25)
    est.add_link("2", 1.0)
    est.add_link("3", 0.9, source=0)
    assert est.links == {("1", None): 1.0, ("2", None): 1.0, ("3", 0): 0.9}
    assert all(type(rate) is float for rate in est.links.values())
    assert est.clamped == {("1", None)}  # the boundary is strict: exactly 1.0 is not a clamp
    unclamped = EstimateSet(method="mle", links=dict(est.links))
    assert unclamped != est
    unclamped.clamped.add(("1", None))
    assert unclamped == est


def test_tree_baseline_shared_links_per_source(star22_plan):
    obs = simulate(star22_plan.topology, 500, seed=9)
    est = estimate_network(count_pass(obs, star22_plan.topology), star22_plan, "tree-baseline")
    assert ("3", 0) in est.links and ("3", 1) in est.links
    assert ("1", 0) in est.links and ("2", 1) in est.links


def test_sufficiency_shuffling_probes(star22_plan):
    t = star22_plan.topology
    rng = np.random.default_rng(4)
    obs = simulate(t, 400, seed=21)
    shuffled = {s: m[:, rng.permutation(m.shape[1])] for s, m in obs.items()}
    for method in ("mle", "tree-baseline", "rbmvwa", "mrbmvwa", "mvwa-plugin"):
        a = estimate_network(count_pass(obs, star22_plan.topology), star22_plan, method)
        b = estimate_network(count_pass(shuffled, star22_plan.topology), star22_plan, method)
        assert a.links == b.links
        assert a.clamped == b.clamped
        assert a.paths == b.paths


def test_unknown_method_rejected(star22_plan):
    counts = simulate_counts(star22_plan.topology, 10, seed=1)
    with pytest.raises(ValueError, match="unknown method 'em'"):
        estimate_network(counts, star22_plan, "em")


@pytest.mark.parametrize("method", METHODS)
def test_counts_without_a_source_raise_no_data_naming_it(star22_plan, method):
    # counts of source 0 alone: every method also reads source 1, whose tree holds joint 2
    t = star22_plan.topology
    obs = simulate(t, 100, seed=5)
    alone = {0: obs[0]}
    with pytest.raises(NoDataError, match="no counts of source 1"):
        estimate_network(count_pass(alone, t), star22_plan, method)


def test_big_network_end_to_end(big_plan):
    obs = simulate(big_plan.topology, 5000, seed=33)
    est = estimate_network(count_pass(obs, big_plan.topology), big_plan, "mle")
    assert len(est.links) == len(big_plan.logical_links)
    for rate in est.links.values():
        assert abs((1.0 - rate) - 0.01) < 0.02


def test_beta_sample_mean(star22_plan):
    t = star22_plan.topology
    obs = simulate(t, 1000, seed=2)
    counts = count_pass(obs, t)
    rates = {s: t.path_rate(s, 2) for s in t.sources}
    val = beta_sample_mean(counts, 2, t.sources, rates)
    assert val == pytest.approx(counts.pooled(2, t.sources) / 1980.0)


def test_pooled_beta_unbiased_statistically(star22_plan):
    # replication mean of the polynomial root stays within 3 standard errors
    t = star22_plan.topology
    vals = []
    for rep in range(1000):
        obs = simulate(t, 1000, seed=10_000 + rep)
        est = estimate_network(count_pass(obs, star22_plan.topology), star22_plan, "mle")
        vals.append(est.betas[2])
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - t.subtree_rate[2]) <= 3 * se


def test_joint_estimate_consistency(star22_plan):
    t = star22_plan.topology
    obs = simulate(t, 1000, seed=6)
    counts = count_pass(obs, t)
    be = estimate_network(counts, star22_plan, "mle")
    for s in t.sources:
        gamma = counts.count(2, s) / 1000
        assert be.paths[(s, 2)] * be.betas[2] == pytest.approx(gamma, abs=1e-12)


@pytest.mark.parametrize("plan_fixture", ["star22_plan", "big_plan", "serial_plan"])
@pytest.mark.parametrize("method", METHODS)
def test_link_keys_per_method(plan_fixture, method, request):
    # a key the walk drops would otherwise only show as a reps=0 table row
    plan = request.getfixturevalue(plan_fixture)
    counts = count_pass(simulate(plan.topology, 2000, seed=5), plan.topology)
    est = estimate_network(counts, plan, method)
    assert set(est.links) == set(_expected_keys(plan, method))


# source 0 reaches node 2, whose children are two receivers and the joint 5,
# which source 1 also feeds: node 2 is a fragment node with three terms
EMBEDDED_FRAGMENT = (
    "node 0\nnode 1\nnode 2\nnode 3\nnode 4\nnode 5\nnode 6\nnode 7\n"
    "link 1 0 2 0.05\nlink 2 2 3 0.5\nlink 3 2 4 0.2\nlink 4 2 5 0.4\nlink 5 1 5 0.05\n"
    "link 6 5 6 0.2\nlink 7 5 7 0.2\n"
    "source 0\nsource 1\nreceiver 3\nreceiver 4\nreceiver 6\nreceiver 7\n"
)


def test_path_solve_lists_embedded_term_first(monkeypatch):
    # a product of two terms commutes, so only a node with three or more terms
    # has an order; record the terms the path solve at node 2 is given
    t = parse_topology(EMBEDDED_FRAGMENT)
    plan = decompose(t)
    assert plan.joint_nodes == (5,)
    assert [l.tail for l in plan.children[2]] == [3, 4, 5]
    solved = []

    def recording(gamma_parent, terms):
        solved.append((gamma_parent, terms))
        return path_root(gamma_parent, terms)

    monkeypatch.setattr(estimators, "path_root", recording)
    counts = count_pass(simulate(t, 1234, seed=0), t)
    est = estimate_network(counts, plan, "mle")
    embedded = est.paths[(0, 5)]
    ordinary = (gamma_hat(counts, 3, 0), gamma_hat(counts, 4, 0))
    assert embedded not in ordinary
    assert solved == [(gamma_hat(counts, 2, 0), (embedded, *ordinary))]
    assert est.paths[(0, 2)] == path_root(*solved[0])


FUZZ_LOSSES = st.sampled_from((0.0, 1e-3, 0.5, 1.0))


def _relossed(text, loss):
    """``text`` with every link's loss replaced by ``loss(link_id, old_loss)``."""
    lines = []
    for line in text.strip().splitlines():
        if line.startswith("link "):
            head, old = line.rsplit(" ", 1)
            line = f"{head} {loss(line.split()[1], old)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@st.composite
def lossy_topologies(draw):
    """A star setting, BIG_NETWORK or the serial-chain tree, each link's loss drawn anew."""
    base = draw(st.sampled_from(("star", BIG_NETWORK, CHAIN_TREE)))
    if base == "star":
        return _star_setting(draw(st.lists(FUZZ_LOSSES, min_size=2, max_size=3)),
                             draw(st.lists(FUZZ_LOSSES, min_size=2, max_size=4)))
    return _relossed(base, lambda i, old: draw(FUZZ_LOSSES))


@settings(max_examples=150, deadline=None)
@given(text=lossy_topologies(), probes=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_every_method_gives_valid_rates_or_a_typed_error(text, probes, seed):
    # dead links and few probes leave zero counts, lossless links zero variances
    t = parse_topology(text)
    plan = decompose(t)
    counts = count_pass(simulate(t, probes, seed), t)
    for method in METHODS:
        try:
            est = estimate_network(counts, plan, method)
        except EstimationError as exc:
            assert type(exc) is not EstimationError, f"{method}: untyped failure: {exc}"
            continue
        assert set(est.links) == set(_expected_keys(plan, method))
        for rate in est.links.values():
            assert math.isfinite(rate) and 0.0 <= rate <= 1.0


def _dead_ends(text):
    """Loss 1 on the first and last link: a source without probes and a dead descendant."""
    ids = [line.split()[1] for line in text.splitlines() if line.startswith("link ")]
    return _relossed(text, lambda i, old: 1.0 if i in (ids[0], ids[-1]) else old)


SHARED_BASES = {**SETTINGS, "big": BIG_NETWORK, "chain": CHAIN_TREE, "single": SINGLE_TREE}
SHARED_CASES = {
    f"{name}-{case}": make(text)
    for name, text in SHARED_BASES.items()
    for case, make in (("given", lambda x: x),
                       ("lossless", lambda x: _relossed(x, lambda i, old: 0.0)),
                       ("dead", _dead_ends))
}


def _outcome(counts, plan, method):
    try:
        est = estimate_network(counts, plan, method)
    except EstimationError as exc:
        return type(exc), str(exc)
    return est.links, est.clamped, est.paths, est.betas


def _methods(plan):
    return METHODS if plan.msource_trees else ("mle", "tree-baseline")


def test_shared_counts_give_the_same_outcomes_as_fresh_counts():
    # every method on one PooledCounts, in either order, equals that method on fresh
    # counts: the intersection records and path roots it keeps change no bit and no failure
    failures = set()
    for name, text in SHARED_CASES.items():
        t = parse_topology(text)
        plan = decompose(t)
        counts = simulate_counts(t, 300, seed=11)
        fresh = {m: _outcome(PooledCounts(probes=dict(counts.probes), counts=dict(counts.counts)),
                             plan, m)
                 for m in _methods(plan)}
        failures.update(o[0] for o in fresh.values() if isinstance(o[0], type))
        for order in (_methods(plan), _methods(plan)[::-1]):
            shared = PooledCounts(probes=dict(counts.probes), counts=dict(counts.counts))
            for m in order:
                assert _outcome(shared, plan, m) == fresh[m], f"{name}: {m} after {order}"
    assert {FusionWeightError, NoDataError, UnidentifiableError} <= failures


@seed(4104)
@settings(max_examples=100, deadline=None)
@given(text=multi_source_dags(), probes=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_generated_dags_give_the_same_outcomes_on_shared_counts_in_either_order(text, probes, seed):
    # the memo's path roots and intersection records change no bit and no failure
    t = parse_topology(text)
    plan = decompose(t)
    counts = simulate_counts(t, probes, seed)

    def copy():
        return PooledCounts(probes=dict(counts.probes), counts=dict(counts.counts))

    fresh = {m: _outcome(copy(), plan, m) for m in METHODS}
    for order in (METHODS, METHODS[::-1]):
        shared = copy()
        for m in order:
            assert _outcome(shared, plan, m) == fresh[m], f"{m} after {order}"


def _records(counts):
    return [v for v in counts.memo.values() if isinstance(v, IntersectionRecord)]


def _counting(monkeypatch, name, owner=estimators):
    calls = []
    solver = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return solver(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fusion_schemes_share_their_per_source_solves(monkeypatch, big_plan):
    calls = _counting(monkeypatch, "subtree_root", fusion)
    t = big_plan.topology
    estimate_network(simulate_counts(t, 500, seed=3), big_plan, "rbmvwa")
    alone = len(calls)
    assert alone > 0
    calls.clear()
    counts = simulate_counts(t, 500, seed=3)
    for m in FUSION_METHODS:
        estimate_network(counts, big_plan, m)
    assert len(calls) == alone
    # each inner node's per-source part sits in its intersection's record, kept under its joint
    for mt in big_plan.msource_trees:
        assert counts.memo[mt.joint].mt is mt
        assert set(counts.memo[mt.joint].fused) == {n for n, kids in zip(mt.nodes, mt.kids) if kids}


def test_methods_on_one_counts_pool_each_intersection_once(monkeypatch, big_plan):
    # the four fusion schemes read the counts no more than one scheme, and after mle
    # they pool nothing: each intersection's record is shared, and mle pools each of
    # its nodes once
    calls = {name: _counting(monkeypatch, name, PooledCounts) for name in ("count", "pooled")}

    def work(methods):
        counts = simulate_counts(big_plan.topology, 500, seed=3)
        for c in calls.values():
            c.clear()
        for m in methods:
            estimate_network(counts, big_plan, m)
        return {name: len(c) for name, c in calls.items()}

    alone = work(("rbmvwa",))
    assert alone["pooled"] > 0
    assert work(FUSION_METHODS) == alone
    nodes = sum(len(mt.nodes) for mt in big_plan.msource_trees)
    assert work(("mle", *FUSION_METHODS))["pooled"] == work(("mle",))["pooled"] == nodes


def test_tree_baseline_reuses_the_path_solves_of_mle(monkeypatch, big_plan):
    calls = _counting(monkeypatch, "path_root")
    t = big_plan.topology
    estimate_network(simulate_counts(t, 500, seed=3), big_plan, "tree-baseline")
    alone = len(calls)
    counts = simulate_counts(t, 500, seed=3)
    estimate_network(counts, big_plan, "mle")
    calls.clear()
    estimate_network(counts, big_plan, "tree-baseline")
    assert 0 < len(calls) < alone


@pytest.mark.parametrize("solver, owner, text, methods", [
    # one dead receiver below the star's joint: every per-source subtree solve fails
    ("subtree_root", fusion, _relossed(SETTINGS["2x2-equal"], lambda i, old: 1.0 if i == "4" else old),
     ("rbmvwa", "mrbmvwa")),
    # link 7 -> 15 dead: source 0's path solve at node 7 fails in both walks
    ("path_root", estimators, _relossed(BIG_NETWORK, lambda i, old: 1.0 if i == "23" else old),
     ("mle", "tree-baseline")),
], ids=["subtree", "path"])
def test_a_failing_solve_runs_again_on_the_next_method(monkeypatch, solver, owner, text, methods):
    t = parse_topology(text)
    plan = decompose(t)
    counts = simulate_counts(t, 300, seed=2)
    calls = _counting(monkeypatch, solver, owner)
    first, second = (_outcome(counts, plan, m) for m in methods)
    assert first[0] is UnidentifiableError
    assert first == second
    failed = [args for args in calls if args == calls[-1]]
    assert len(failed) == 2
    # neither a failing path root nor a failing node's per-source part is kept
    assert ("path", *calls[-1]) not in counts.memo
    assert not any(rec.fused for rec in _records(counts))


def test_root_memo_leaves_counts_equal_and_out_of_repr(big_plan):
    t = big_plan.topology
    counts = simulate_counts(t, 400, seed=8)
    for m in METHODS:
        estimate_network(counts, big_plan, m)
    # one record per intersection, under its joint, beside the path roots
    assert [rec.mt for rec in _records(counts)] == list(big_plan.msource_trees)
    assert all(counts.memo[rec.mt.joint] is rec for rec in _records(counts))
    assert len(counts.memo) > len(big_plan.msource_trees)
    fresh = count_pass(simulate(t, 400, seed=8), t)
    assert not fresh.memo
    assert counts == fresh
    assert repr(counts) == repr(fresh)
    assert "memo" not in repr(counts)


@seed(46)
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(multi_source_dags(), receiver_joint_dags()), probes=st.integers(1, 300),
       count_seed=st.integers(0, 2**32 - 1))
def test_method_orders_on_sampled_counts_give_the_same_outcomes_as_fresh_counts(text, probes, count_seed):
    # counts drawn at the count level, not from probe bits: on one PooledCounts, every
    # method in each order equals that method on fresh counts, bit for bit or failure
    # for failure, whichever method first fills each part of a record
    t = parse_topology(text)
    plan = decompose(t)
    counts = sample_counts(t, probes, np.random.default_rng(count_seed))

    def copy():
        return PooledCounts(probes=dict(counts.probes), counts=dict(counts.counts))

    fresh = {m: _outcome(copy(), plan, m) for m in METHODS}
    for order in (METHODS, METHODS[::-1], ("mle",), FUSION_METHODS):
        shared = copy()
        for m in order:
            assert _outcome(shared, plan, m) == fresh[m], f"{m} after {order}"


@seed(47)
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(multi_source_dags(), receiver_joint_dags()), probes=st.integers(1, 300),
       count_seed=st.integers(0, 2**32 - 1))
def test_each_multi_source_tree_holds_its_children_and_links_and_one_record(text, probes, count_seed):
    # decompose gives each multi-source tree the children and links that plan.children
    # gives its nodes, the fusion schemes' row keys are those links, and the methods keep
    # one record per intersection they reach, each under its joint
    t = parse_topology(text)
    plan = decompose(t)
    for mt in plan.msource_trees:
        assert mt.kids == tuple(tuple(l.tail for l in plan.children[n]) for n in mt.nodes)
        assert mt.links == tuple(l for n in mt.nodes for l in plan.children[n])
    assert _expected_keys(plan, "rbmvwa") == [(l.label, None) for mt in plan.msource_trees for l in mt.links]
    counts = sample_counts(t, probes, np.random.default_rng(count_seed))
    failed = [isinstance(_outcome(counts, plan, m)[0], type) for m in METHODS]
    records = _records(counts)
    # each method makes the records in plan order up to the intersection it fails at
    assert [rec.mt for rec in records] == list(plan.msource_trees[:len(records)])
    assert all(counts.memo[rec.mt.joint] is rec for rec in records)
    if not failed[0]:  # mle reached every intersection
        assert len(records) == len(plan.msource_trees)


def test_only_fusion_solves_per_source_subtrees_once_per_node_and_source_reaching_it(monkeypatch, big_plan):
    per_source = _counting(monkeypatch, "subtree_root", fusion)
    counts = simulate_counts(big_plan.topology, 500, seed=3)
    for m in ("mle", "tree-baseline"):
        estimate_network(counts, big_plan, m)
    assert per_source == []
    for m in FUSION_METHODS:
        estimate_network(counts, big_plan, m)
    reached = [(n, s) for mt in big_plan.msource_trees for n, kids in zip(mt.nodes, mt.kids) if kids
               for s in mt.sources if counts.count(n, s)]
    assert len(reached) > len(big_plan.msource_trees)
    assert len(per_source) == len(reached)


@settings(max_examples=100, deadline=None)
@given(text=multi_source_dags(), probes=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
def test_generated_dags_give_valid_estimates_or_an_error_naming_the_node(text, probes, seed):
    t = parse_topology(text)
    _assert_valid_or_an_error_naming_the_node(simulate_counts(t, probes, seed), decompose(t))


@seed(39)
@settings(max_examples=100, deadline=None)
@given(text=receiver_joint_dags(), probes=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
def test_receiver_joint_dags_give_valid_estimates_or_an_error_naming_the_node(text, probes, seed):
    test_generated_dags_give_valid_estimates_or_an_error_naming_the_node.hypothesis.inner_test(text, probes, seed)


def _assert_valid_or_an_error_naming_the_node(counts, plan):
    """Each method gives finite values in [0, 1] with exactly its expected link keys, or
    raises an ``EstimationError`` subclass whose message names the step and node."""
    for method in _methods(plan):
        try:
            est = estimate_network(counts, plan, method)
        except EstimationError as exc:
            assert type(exc) is not EstimationError, f"{method}: untyped failure: {exc}"
            assert " at node " in str(exc), f"{method}: no step or node in {exc}"
            continue
        assert set(est.links) == set(_expected_keys(plan, method))
        assert est.clamped <= set(est.links)
        assert all(est.links[key] == 1.0 for key in est.clamped)
        values = [*est.links.values(), *est.paths.values(), *est.betas.values()]
        for v in values:
            assert math.isfinite(v) and 0.0 <= v <= 1.0, f"{method}: {v}"


@seed(26)
@settings(max_examples=200, deadline=None)
@given(text=multi_source_dags(), probes=st.integers(1, 3000), mode=st.sampled_from(sorted(BIT_MODES)),
       bits_seed=st.integers(0, 2**32 - 1))
def test_observed_bits_give_valid_estimates_or_an_error_naming_the_node(text, probes, mode, bits_seed):
    # observed bits need not follow the declared rates: a source may reach a node whose
    # declared path rate is 0, or pass every probe where the declared loss is high
    t = parse_topology(text)
    bits = random_bits(t, probes, mode, np.random.default_rng(bits_seed))
    _assert_valid_or_an_error_naming_the_node(count_pass(bits, t), decompose(t))


@seed(40)
@settings(max_examples=100, deadline=None)
@given(text=receiver_joint_dags(), probes=st.integers(1, 3000), mode=st.sampled_from(sorted(BIT_MODES)),
       bits_seed=st.integers(0, 2**32 - 1))
def test_observed_bits_on_receiver_joint_dags_give_valid_estimates_or_an_error_naming_the_node(
        text, probes, mode, bits_seed):
    test_observed_bits_give_valid_estimates_or_an_error_naming_the_node.hypothesis.inner_test(
        text, probes, mode, bits_seed)


def _true_rate_misses(counts, plan, methods):
    """The largest distance of each method's link rates from the true ones."""
    true = {l.label: l.pass_rate for l in plan.logical_links}
    return {m: max(abs(rate - true[label]) for (label, _), rate in estimate_network(counts, plan, m).links.items())
            for m in methods}


@seed(2026)
@settings(max_examples=400, deadline=None)
@given(text=lossy_multi_source_dags())
def test_expected_counts_give_the_true_link_rates(text):
    # the estimators are consistent: at the expected counts they return the true rates
    t = parse_topology(text)
    misses = _true_rate_misses(expected_counts(t, 10**6), decompose(t), ("tree-baseline", *FUSION_METHODS))
    assert max(misses.values()) <= 1e-12, misses


@seed(41)
@settings(max_examples=100, deadline=None)
@given(text=lossy_multi_source_dags(receiver_joint_dags()))
def test_expected_counts_give_the_true_link_rates_on_receiver_joint_dags(text):
    # a receiver joint's subtree rate is 1, so its path rates are its end-to-end rates.
    # mle is left out: the new receiver's links make a fragment branch above the other
    # joints, where mle misses (ROADMAP item 1)
    test_expected_counts_give_the_true_link_rates.hypothesis.inner_test(text)


@seed(42)
@settings(max_examples=100, deadline=None)
@given(text=lossy_multi_source_dags(receiver_joint_dags(multi_source_dags(joints=st.just(0)))))
def test_expected_counts_give_mle_the_true_link_rates_where_every_joint_is_a_receiver(text):
    # with no intersection link, mle embeds each receiver joint's end-to-end rate where its
    # path rate belongs, and the two are equal: its walk is the per-tree one
    t = parse_topology(text)
    plan = decompose(t)
    assert plan.joint_nodes and not any(plan.children[j] for j in plan.joint_nodes)
    misses = _true_rate_misses(expected_counts(t, 10**6), plan, ("mle", "tree-baseline"))
    assert max(misses.values()) <= 1e-12, misses


@seed(33)
@settings(max_examples=200, deadline=None)
@given(text=multi_source_dags())
def test_printed_estimation_order_is_the_solve_order(tmp_path_factory, text):
    # `losstomo decompose` prints the path walk mle runs after the intersections, and
    # tree-baseline runs the same walk over each whole tree: est.paths takes each source's
    # path estimates in solve order
    t = parse_topology(text)
    plan = decompose(t)
    path = tmp_path_factory.mktemp("dag") / "topology.txt"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["decompose", "--topology", str(path)]) == 0
    printed = [line.split() for line in out.getvalue().split("estimation order:\n")[1].splitlines()]
    solved = {n for mt in plan.msource_trees for n in mt.nodes}
    for s in t.sources:
        assert [int(w[-1]) for w in printed if w[1] == "upstream" and int(w[5]) == s] == plan.path_walk(s, solved)
    counts = expected_counts(t, 10**6)
    for method, skip in (("mle", solved), ("tree-baseline", ())):
        try:
            est = estimate_network(counts, plan, method)
        except EstimationError:
            continue
        for s in t.sources:
            assert [n for (src, n) in est.paths if src == s and n not in skip] == plan.path_walk(s, skip), (method, s)


# source 0 -> 2 -> joint 4; source 1 -> 3 -> {4, receiver 7}; 4 -> receivers 5 and 6:
# source 1's fragment branches at node 3, above the joint
BRANCH_ABOVE_JOINT = (
    "node 0\nnode 1\nnode 2\nnode 3\nnode 4\nnode 5\nnode 6\nnode 7\n"
    "link 1 0 2 0.2\nlink 2 1 3 0.2\nlink 3 2 4 0.2\nlink 4 3 4 0.2\nlink 5 3 7 0.2\n"
    "link 6 4 5 0.2\nlink 7 4 6 0.2\n"
    "source 0\nsource 1\nreceiver 5\nreceiver 6\nreceiver 7\n"
)


@pytest.mark.parametrize("method", [
    pytest.param("mle", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: mle embeds the "
                                                "joint's path estimate where its end-to-end rate belongs")),
    "tree-baseline", *FUSION_METHODS,
])
def test_expected_counts_give_the_true_link_rates_where_a_fragment_branches_above_a_joint(method):
    t = parse_topology(BRANCH_ABOVE_JOINT)
    misses = _true_rate_misses(expected_counts(t, 10**6), decompose(t), (method,))
    assert misses[method] <= 1e-12, misses


@pytest.mark.parametrize("method", METHODS)
def test_expected_counts_below_a_dead_link_are_unidentifiable(method):
    # link 4 (joint 2 -> receiver 4) loses every probe, so the joint keeps one nonzero
    # descendant; float rounding puts the other's ratio at 1 + 2^-52, which the zero-count
    # rule must meet before the range check, as it does on exact counts
    t = parse_topology(_star_setting((0.2, 0.2), (0.2, 1.0)))
    with pytest.raises(UnidentifiableError):
        estimate_network(expected_counts(t, 10**6), decompose(t), method)
