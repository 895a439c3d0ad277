"""Metamorphic invariants: the estimates are the right function of the counts.

Each test runs every method on one replication's counts and on a transform of
those counts that must leave the estimates where they are, over generated
multi-source DAGs at a few and at many probes, and again, through its
``inner_test``, over the same DAGs with a receiver joint added.  The hypothesis
seeds and the tolerances were fixed before any result was looked at."""

import math

from conftest import (
    multi_source_dags, pooled_beta, receiver_joint_dags, relabelled_counts, relabelled_topology, scaled_counts,
    split_counts, split_link,
)
from hypothesis import given, seed, settings, strategies as st

from losstomo.decompose import decompose
from losstomo.estimators import METHODS, EstimateSet, estimate_network
from losstomo.probes import gamma_hat, simulate_counts
from losstomo.solvers import EstimationError
from losstomo.topology import parse_topology

PROBES = (10, 300)


def _methods(plan):
    return METHODS if plan.msource_trees else ("mle", "tree-baseline")


def _outcome(counts, plan, method):
    """The method's EstimateSet, or the class of the EstimationError it raised."""
    try:
        return estimate_network(counts, plan, method)
    except EstimationError as exc:
        return type(exc)


def _plugin_floor_binds(counts, plan) -> bool:
    """Whether mvwa-plugin's miss-probability floor 1/(n+1) decides any of its variances.

    Where 1 - A beta is above 1/(n+1) it is above 1/(2n+1) too, so the floor binds
    at neither scale of a count-doubling comparison."""
    for mt in plan.msource_trees:
        for node in mt.nodes:
            kids = [l.tail for l in plan.children[node]]
            if not kids:
                continue
            try:
                per_source = {s: pooled_beta(counts, node, kids, (s,))
                              for s in mt.sources if counts.count(node, s)}
            except EstimationError:
                continue
            for s, b in per_source.items():
                a = min(gamma_hat(counts, node, s) / b, 1.0)
                if 1.0 - a * b <= 1.0 / (counts.probes[s] + 1):
                    return True
    return False


@seed(22)
@settings(max_examples=200, deadline=None)
@given(text=multi_source_dags(), rep_seed=st.integers(0, 2**32 - 1))
def test_doubling_every_count_changes_no_estimate(text, rep_seed):
    # every method reads the counts through ratios n_i(s)/n^s and n_c/n_i, and the MVWA
    # variances scale by 1/2 alike, so doubling n_i(s) and n^s must change no bit and no
    # failure class.  mvwa-plugin's floor 1/(n+1) moves with n, so where it binds the
    # doubled counts may give other weights: it is compared only where the floor is free.
    t = parse_topology(text)
    plan = decompose(t)
    for probes in PROBES:
        counts = simulate_counts(t, probes, rep_seed)
        doubled = scaled_counts(counts, 2)
        for method in _methods(plan):
            if method == "mvwa-plugin" and _plugin_floor_binds(counts, plan):
                continue
            assert _outcome(counts, plan, method) == _outcome(doubled, plan, method), method


def _assert_within_ulp(got: dict, want: dict, what: str, ulps: int) -> None:
    assert got.keys() == want.keys(), what
    for key, x in got.items():
        y = want[key]
        assert abs(x - y) <= ulps * math.ulp(max(abs(x), abs(y))), (what, key, x, y)


@seed(23)
@settings(max_examples=200, deadline=None)
@given(text=multi_source_dags(), rep_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabelling_nodes_and_links_moves_no_estimate(text, rep_seed, data):
    # new ids change every order the labels decide (sources, children, solve order), so
    # sums and root solves may round differently: values agree within 2 ulp.  The same
    # replications fail; which failure comes first follows the solve order, so its class
    # is not compared.
    t = parse_topology(text)
    nodes, ids = sorted(t.nodes), [l.id for l in t.links]
    node_map = dict(zip(nodes, data.draw(st.permutations(nodes))))
    link_map = dict(zip(ids, data.draw(st.permutations(ids))))
    plan = decompose(t)
    relabelled = decompose(parse_topology(relabelled_topology(text, node_map, link_map)))
    label = {l.label: "+".join(str(link_map[i]) for i in l.link_ids)
             for kids in plan.children.values() for l in kids}
    for probes in PROBES:
        counts = simulate_counts(t, probes, rep_seed)
        mapped = relabelled_counts(counts, node_map)
        for method in _methods(plan):
            est, other = _outcome(counts, plan, method), _outcome(mapped, relabelled, method)
            assert isinstance(est, type) == isinstance(other, type), (method, est, other)
            if isinstance(est, type):
                continue
            links = {(label[l], None if s is None else node_map[s]): v for (l, s), v in est.links.items()}
            _assert_within_ulp(links, other.links, f"{method} links", 2)
            paths = {(node_map[s], node_map[n]): v for (s, n), v in est.paths.items()}
            _assert_within_ulp(paths, other.paths, f"{method} paths", 2)
            betas = {node_map[n]: v for n, v in est.betas.items()}
            _assert_within_ulp(betas, other.betas, f"{method} betas", 2)


def _walk(plan, method):
    """The part of a method's node order that a serial split may change, which decides its
    first failing node: tree-baseline walks each source's whole tree, mle the same walk past
    the intersections' nodes, and every method those nodes, which the split leaves."""
    if method not in ("mle", "tree-baseline"):
        return []
    solved = {n for mt in plan.msource_trees for n in mt.nodes} if method == "mle" else ()
    return [plan.path_walk(s, solved) for s in plan.topology.sources]


@seed(24)
@settings(max_examples=200, deadline=None)
@given(text=multi_source_dags(), rep_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_splitting_a_link_in_two_moves_no_estimate(text, rep_seed, data):
    # a link h->u split into h->m (the same pass rate) and a lossless m->u collapses into
    # the old chain under a new label, and n_m(s) = n_u(s), so the plan and every estimate
    # stay.  mvwa-oracle also reads the true subtree rates, where beta_m = 1 - (1 - beta_u)
    # may round off beta_u: its values agree within 16 ulp.  The split moves u's tree row
    # after h's other children, so a source's path walk may change order (its nodes do not),
    # and with it the walk order of tree-baseline or mle.  The same replications fail; the
    # class of the first failure is compared where the method's walk order is unchanged.
    t = parse_topology(text)
    link = data.draw(st.sampled_from(t.links))
    split_text, m, new = split_link(text, link.id)
    plan, split = decompose(t), decompose(parse_topology(split_text))

    def relabel(l):
        if link.id not in l.link_ids:
            return l
        k = l.link_ids.index(link.id) + 1
        ids = (*l.link_ids[:k], new, *l.link_ids[k:])
        return l._replace(link_ids=ids, label="+".join(map(str, ids)))

    assert split.joint_nodes == plan.joint_nodes
    assert [mt[:4] for mt in split.msource_trees] == [mt[:4] for mt in plan.msource_trees]
    assert [mt.links for mt in split.msource_trees] == [tuple(map(relabel, mt.links)) for mt in plan.msource_trees]
    for method in ("mle", "tree-baseline"):
        assert list(map(sorted, _walk(split, method))) == list(map(sorted, _walk(plan, method))), method
    assert split.children == {n: tuple(map(relabel, kids)) for n, kids in plan.children.items()}
    label = {l.label: relabel(l).label for kids in plan.children.values() for l in kids}
    for probes in PROBES:
        counts = simulate_counts(t, probes, rep_seed)
        mapped = split_counts(counts, link.tail, m)
        for method in _methods(plan):
            est, other = _outcome(counts, plan, method), _outcome(mapped, split, method)
            if isinstance(est, type) or isinstance(other, type):
                assert isinstance(est, type) == isinstance(other, type), (method, est, other)
                if _walk(plan, method) == _walk(split, method):
                    assert est == other, (method, est, other)
                continue
            want = EstimateSet(method, {(label[l], s): v for (l, s), v in est.links.items()},
                               est.paths, est.betas, {(label[l], s) for l, s in est.clamped})
            if method != "mvwa-oracle":
                assert other == want, method
                continue
            assert other.clamped == want.clamped, method
            for what in ("links", "paths", "betas"):
                _assert_within_ulp(getattr(other, what), getattr(want, what), f"{method} {what}", 16)


@seed(43)
@settings(max_examples=100, deadline=None)
@given(text=receiver_joint_dags(), rep_seed=st.integers(0, 2**32 - 1))
def test_doubling_every_count_changes_no_estimate_on_receiver_joint_dags(text, rep_seed):
    test_doubling_every_count_changes_no_estimate.hypothesis.inner_test(text, rep_seed)


@seed(44)
@settings(max_examples=100, deadline=None)
@given(text=receiver_joint_dags(), rep_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabelling_nodes_and_links_moves_no_estimate_on_receiver_joint_dags(text, rep_seed, data):
    test_relabelling_nodes_and_links_moves_no_estimate.hypothesis.inner_test(text, rep_seed, data)


@seed(45)
@settings(max_examples=100, deadline=None)
@given(text=receiver_joint_dags(), rep_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_splitting_a_link_in_two_moves_no_estimate_on_receiver_joint_dags(text, rep_seed, data):
    test_splitting_a_link_in_two_moves_no_estimate.hypothesis.inner_test(text, rep_seed, data)
