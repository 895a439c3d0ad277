import pytest
from hypothesis import given, settings, strategies as st

from losstomo.decompose import decompose
from losstomo.estimators import FUSION_METHODS, estimate_network
from losstomo.fusion import (
    fuse_node,
    fused_estimate,
    mrbmvwa_weights,
    mvwa_weights,
    per_tree_estimates,
    rbmvwa_weights,
)
from losstomo.harness import SETTINGS
from losstomo.probes import PooledCounts, count_pass, simulate
from losstomo.solvers import FusionWeightError
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


def test_fuse_node_star(star22_plan):
    t = star22_plan.topology
    counts = count_pass(simulate(t, 2000, seed=8), t)
    per_source = per_tree_estimates(counts, 2, [3, 4], (0, 1))
    assert set(per_source) == {0, 1}
    lo, hi = min(per_source.values()), max(per_source.values())
    assert lo < hi
    for scheme in FUSION_METHODS:
        beta = fuse_node(counts, 2, [3, 4], (0, 1), star22_plan.topology, scheme)
        assert lo <= beta <= hi


def test_fused_beta_never_exceeds_the_largest_per_source_estimate(star22_plan):
    # receiver 3 saw every probe that reached the joint 2 from either source,
    # so both per-source betas are exactly 1; the weights 264/591 and 327/591
    # sum to 1 + 1 ulp when each multiplies 1.0
    counts = PooledCounts(probes={0: 500, 1: 500}, counts={
        (0, 0): 500, (1, 1): 500, (2, 0): 264, (2, 1): 327,
        (3, 0): 264, (3, 1): 327, (4, 0): 200, (4, 1): 250,
    })
    assert per_tree_estimates(counts, 2, [3, 4], (0, 1)) == {0: 1.0, 1: 1.0}
    for scheme in FUSION_METHODS:
        assert fuse_node(counts, 2, [3, 4], (0, 1), star22_plan.topology, scheme) <= 1.0
        assert all(0.0 <= b <= 1.0 for b in fused_estimate(counts, star22_plan, scheme).betas.values())


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
