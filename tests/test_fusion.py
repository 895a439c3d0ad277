import pytest
from conftest import multi_source_dags, pooled_beta
from hypothesis import given, seed, settings, strategies as st

from losstomo.decompose import decompose
from losstomo.estimators import FUSION_METHODS, IntersectionRecord, estimate_network
from losstomo.fusion import (
    fuse_node,
    fused_estimate,
    mrbmvwa_weights,
    mvwa_weights,
    rbmvwa_weights,
)
from losstomo.harness import SETTINGS, _star_setting
from losstomo.probes import PooledCounts, count_pass, gamma_hat, simulate, simulate_counts
from losstomo.solvers import EstimationError, FusionWeightError, NoDataError, RootBracketError
from losstomo.topology import parse_topology


def test_rbmvwa_weight_examples():
    assert rbmvwa_weights([0.75, 0.5]) == pytest.approx((0.75, 0.25), abs=1e-12)
    w = rbmvwa_weights([0.9, 0.8])
    assert w == pytest.approx((9 / 13, 4 / 13), abs=1e-12)
    assert w == pytest.approx((0.692308, 0.307692), abs=1e-6)


def test_mrbmvwa_weight_examples():
    w = mrbmvwa_weights([0.9, 0.8])
    assert w == pytest.approx((9 / 17, 8 / 17), abs=1e-12)
    assert w == pytest.approx((0.529412, 0.470588), abs=1e-6)


def test_saturated_rates():
    # odds diverge at 1: the limit puts all weight on the saturated sources
    assert rbmvwa_weights([1.0, 0.8]) == (1.0, 0.0)
    assert rbmvwa_weights([1.0, 1.0]) == (0.5, 0.5)
    assert rbmvwa_weights([1.0, 0.0, 1.0]) == (0.5, 0.0, 0.5)
    # the linear scheme needs no special casing
    assert mrbmvwa_weights([1.0, 0.5]) == pytest.approx((2 / 3, 1 / 3), abs=1e-12)


def test_degenerate_rates_rejected():
    with pytest.raises(ValueError):
        rbmvwa_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        mrbmvwa_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        rbmvwa_weights([1.2])
    with pytest.raises(ValueError):
        rbmvwa_weights([])
    with pytest.raises(ValueError):
        mrbmvwa_weights([])


def test_mvwa_combine_inverse_variance():
    w = mvwa_weights([1.0, 3.0])
    assert w == pytest.approx((0.75, 0.25), abs=1e-12)
    assert sum(v * b for v, b in zip(w, [0.9, 0.8])) == pytest.approx(0.875, abs=1e-12)
    with pytest.raises(ValueError):
        mvwa_weights([0.0])
    with pytest.raises(ValueError):
        mvwa_weights([])


def test_rbmvwa_matches_oracle_mvwa_with_equal_samples():
    # with equal probe counts the oracle variance is b^2 (1-g)/(n g) per
    # source, so inverse-variance weights reduce exactly to the odds weights
    beta, n = 0.95, 700
    gammas = [0.91, 0.84, 0.77]
    variances = [beta * beta * (1.0 - g) / (n * g) for g in gammas]
    oracle = mvwa_weights(variances)
    odds = rbmvwa_weights(gammas)
    for wo, wr in zip(oracle, odds):
        assert abs(wo - wr) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    gammas=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    data=st.data(),
)
def test_weights_are_convex(gammas, data):
    variances = [data.draw(st.floats(1e-6, 1.0)) for _ in gammas]
    for w in (rbmvwa_weights(gammas), mrbmvwa_weights(gammas), mvwa_weights(variances)):
        assert len(w) == len(gammas)
        assert all(0.0 <= v <= 1.0 for v in w)
        assert sum(w) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    estimates=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=5),
    data=st.data(),
)
def test_combined_estimate_is_convex_mean(estimates, data):
    # the fused beta is sum(w * b): with convex weights it stays within the estimates' range
    variances = [data.draw(st.floats(1e-6, 1.0)) for _ in estimates]
    gammas = [data.draw(st.floats(0.01, 1.0)) for _ in estimates]
    for w in (rbmvwa_weights(gammas), mrbmvwa_weights(gammas), mvwa_weights(variances)):
        combined = sum(v * b for v, b in zip(w, estimates))
        assert min(estimates) - 1e-12 <= combined <= max(estimates) + 1e-12


def _fuse(counts, plan, node, scheme):
    """``fuse_node`` at ``node`` of the intersection holding it, on a record of its own."""
    (mt,) = [mt for mt in plan.msource_trees if node in mt.nodes]
    return fuse_node(counts, IntersectionRecord(mt), node, mt.kids[mt.nodes.index(node)], scheme, plan)


def test_fuse_node_star(star22_plan):
    t = star22_plan.topology
    counts = count_pass(simulate(t, 2000, seed=8), t)
    per_source = [pooled_beta(counts, 2, [3, 4], (s,)) for s in (0, 1)]
    lo, hi = min(per_source), max(per_source)
    assert lo < hi
    for scheme in FUSION_METHODS:
        beta = _fuse(counts, star22_plan, 2, scheme)
        assert lo <= beta <= hi


def test_fused_beta_never_exceeds_the_largest_per_source_estimate(star22_plan):
    # receiver 3 saw every probe that reached the joint 2 from either source,
    # so both per-source betas are exactly 1; the weights 264/591 and 327/591
    # sum to 1 + 1 ulp when each multiplies 1.0
    counts = PooledCounts(probes={0: 500, 1: 500}, counts={
        (0, 0): 500, (1, 1): 500, (2, 0): 264, (2, 1): 327,
        (3, 0): 264, (3, 1): 327, (4, 0): 200, (4, 1): 250,
    })
    assert {s: pooled_beta(counts, 2, [3, 4], (s,)) for s in (0, 1)} == {0: 1.0, 1: 1.0}
    for scheme in FUSION_METHODS:
        assert _fuse(counts, star22_plan, 2, scheme) <= 1.0
        assert all(0.0 <= b <= 1.0 for b in fused_estimate(counts, star22_plan, scheme).betas.values())


@pytest.mark.parametrize("scheme", FUSION_METHODS)
def test_a_source_whose_children_split_its_probes_fails_every_scheme(star22_plan, scheme):
    # source 0 saw 5 probes at the joint 2 and its receivers 3 and 4 saw 4 and 1 of
    # them, none both: its subtree likelihood has no root, though 0.8 + 0.2 rounds
    # above 1, so no per-source estimate of it may enter the fused average
    counts = PooledCounts(probes={0: 10, 1: 10}, counts={
        (0, 0): 10, (1, 1): 10, (2, 0): 5, (2, 1): 8,
        (3, 0): 4, (3, 1): 7, (4, 0): 1, (4, 1): 6,
    })
    with pytest.raises(RootBracketError, match=r"ratios \[0.8, 0.2\]"):
        _fuse(counts, star22_plan, 2, scheme)


def test_fused_estimate_covers_intersection_links(star22_plan):
    t = star22_plan.topology
    counts = count_pass(simulate(t, 1000, seed=3), t)
    for scheme in FUSION_METHODS:
        est = fused_estimate(counts, star22_plan, scheme)
        assert sorted(est.links) == [("3", None), ("4", None)]
        assert sorted(est.paths) == [(0, 2), (1, 2)]
        assert est.method == scheme
        for rate in est.links.values():
            assert 0.0 <= rate <= 1.0


def test_unknown_scheme_rejected(star22_plan):
    t = star22_plan.topology
    counts = count_pass(simulate(t, 100, seed=1), t)
    with pytest.raises(ValueError, match="unknown fusion scheme"):
        fused_estimate(counts, star22_plan, "midpoint")


def test_estimate_network_dispatches_fusion(star22_plan):
    t = star22_plan.topology
    obs = simulate(t, 1000, seed=12)
    counts = count_pass(obs, t)
    for scheme in FUSION_METHODS:
        via_network = estimate_network(counts, star22_plan, scheme)
        direct = fused_estimate(counts, star22_plan, scheme)
        assert via_network.links == direct.links
        assert via_network.clamped == direct.clamped


def test_fused_close_to_pooled_at_scale(star22_plan):
    # all schemes estimate the same subtree rate; at 5000 probes they should
    # sit well within a percent of the pooled-likelihood estimate
    t = star22_plan.topology
    obs = simulate(t, 5000, seed=44)
    mle = estimate_network(count_pass(obs, star22_plan.topology), star22_plan, "mle")
    for scheme in FUSION_METHODS:
        est = estimate_network(count_pass(obs, star22_plan.topology), star22_plan, scheme)
        for key, rate in est.links.items():
            assert abs(rate - mle.links[key]) < 0.01


def test_weight_failure_is_an_estimation_error_naming_scheme_and_node():
    t = parse_topology(SETTINGS["2x2-equal"].replace(" 0.01\n", " 0\n"))
    counts = count_pass(simulate(t, 100, seed=1), t)
    with pytest.raises(
        FusionWeightError,
        match="multi-source subtree solve at node 2: mvwa-oracle weights at node 2",
    ):
        fused_estimate(counts, decompose(t), "mvwa-oracle")


def test_oracle_weight_at_a_zero_true_path_rate_is_a_fusion_weight_error():
    # link 2 is declared dead, yet the observed bits show source 1's probes at the joint,
    # so the oracle variance b(1 - ab)/(na) would divide by A(1, 2) = 0
    t = parse_topology(_star_setting((0.01, 1.0), (0.01, 0.01)))
    bits = {0: [[1, 1, 0, 1], [1, 0, 1, 1]], 1: [[1, 0, 1, 0], [0, 1, 1, 0]]}
    with pytest.raises(FusionWeightError, match="mvwa-oracle weights at node 2: source 1 reaches"
                                                " the node at true path rate 0"):
        estimate_network(count_pass(bits, t), decompose(t), "mvwa-oracle")


def _reference_fuse(counts, node, kids, sources, t, scheme):
    """fuse_node as the README and the module docstring describe it, from public pieces."""
    per_source = {s: pooled_beta(counts, node, kids, (s,)) for s in sources if counts.count(node, s)}
    if not per_source:
        raise NoDataError(f"no source observed anything below node {node}")
    gammas = [gamma_hat(counts, node, s) for s in per_source]
    try:
        if scheme == "rbmvwa":
            weights = rbmvwa_weights(gammas)
        elif scheme == "mrbmvwa":
            weights = mrbmvwa_weights(gammas)
        elif scheme == "mvwa-oracle":  # beta(1 - A beta)/(nA) at the true rates
            variances = []
            for s in per_source:
                b, a = t.subtree_rate[node], t.path_rate(s, node)
                if a == 0.0:
                    raise ValueError(f"source {s} reaches the node at true path rate 0")
                variances.append(b * (1.0 - a * b) / (counts.probes[s] * a))
            weights = mvwa_weights(variances)
        else:  # plug-in: beta(s), A = min(gamma(s)/beta(s), 1), miss probability floored at 1/(n+1)
            variances = []
            for (s, b), g in zip(per_source.items(), gammas):
                n, a = counts.probes[s], min(g / b, 1.0)
                variances.append(b * max(1.0 - a * b, 1.0 / (n + 1)) / (n * a))
            weights = mvwa_weights(variances)
    except ValueError as exc:
        raise FusionWeightError(f"{scheme} weights at node {node}: {exc}") from exc
    return min(sum(w * b for w, b in zip(weights, per_source.values())), max(per_source.values()))


@seed(28)
@settings(max_examples=100, deadline=None)
@given(text=multi_source_dags(), rep_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_fuse_node_equals_a_reference_built_from_public_pieces(text, rep_seed, data):
    # 1-30 probes per source and links that drop everything leave some sources without
    # a probe at some nodes; each side solves on its own copy of the counts, so neither
    # reads a root the other recorded
    t = parse_topology(text)
    plan = decompose(t)
    counts = simulate_counts(t, {s: data.draw(st.integers(1, 30)) for s in t.sources}, rep_seed)
    for mt in plan.msource_trees:
        for node in mt.nodes:
            kids = [l.tail for l in plan.children[node]]
            if not kids:
                continue
            for scheme in FUSION_METHODS:
                try:
                    want = _reference_fuse(PooledCounts(counts.probes, counts.counts),
                                           node, kids, mt.sources, t, scheme)
                except EstimationError as exc:
                    with pytest.raises(type(exc)) as got:
                        _fuse(PooledCounts(counts.probes, counts.counts), plan, node, scheme)
                    assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                    continue
                assert _fuse(PooledCounts(counts.probes, counts.counts), plan, node, scheme) == want, (node, scheme)
