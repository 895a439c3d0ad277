"""Acceptance checks: statistical and numerical guarantees at desk scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the same condition, so the suite doubles as a go/no-go report.
"""

import time

import numpy as np
from conftest import path_bisection_oracle, pooled_beta

from losstomo.analysis import crlb_beta
from losstomo.decompose import decompose
from losstomo.estimators import beta_sample_mean, estimate_network
from losstomo.harness import (
    SETTINGS,
    ExperimentConfig,
    emit,
    replication_seed,
    run_experiment,
)
from losstomo.probes import PooledCounts, count_pass, simulate
from losstomo.solvers import path_root, subtree_root
from losstomo.topology import parse_topology


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


def star_plan(name="2x2-equal"):
    t = parse_topology(SETTINGS[name])
    return t, decompose(t)


def test_accept_01_recovery_and_spread():
    # joint MLE on the equal-loss star: per-link mean within 0.004 of the
    # true 1% loss, per-link variance inside a plausible band, under 10 s
    start = time.perf_counter()
    table = run_experiment(
        ExperimentConfig(
            topology_text=SETTINGS["2x2-equal"],
            probe_counts=(1000,),
            reps=20,
            seed=42,
            estimators=("mle",),
        )
    )
    elapsed = time.perf_counter() - start
    worst_bias = max(abs(r.mean_loss - 0.01) for r in table.rows)
    vars_ = [r.var_loss for r in table.rows]
    ok = (
        worst_bias <= 0.004
        and all(1e-6 <= v <= 2e-5 for v in vars_)
        and elapsed < 10.0
    )
    report(
        "link-loss recovery",
        ok,
        f"worst bias {worst_bias:.5f} (<=0.004), variances "
        f"[{min(vars_):.2e}, {max(vars_):.2e}] in [1e-6, 2e-5], {elapsed:.2f}s",
    )


def test_accept_02_pooling_beats_per_source_trees():
    # on shared links the pooled estimator must clearly beat the classic
    # single-tree estimator applied per source
    table = run_experiment(
        ExperimentConfig(
            topology_text=SETTINGS["2x2-equal"],
            probe_counts=(500,),
            reps=200,
            seed=42,
            estimators=("mle", "tree-baseline"),
        )
    )
    mle = {r.link: r.var_loss for r in table.rows if r.estimator == "mle"}
    base = {
        (r.link, r.source): r.var_loss
        for r in table.rows
        if r.estimator == "tree-baseline"
    }
    ratios = {
        (label, s): mle[label] / base[(label, s)]
        for label in ("3", "4")
        for s in (0, 1)
    }
    worst = max(ratios.values())
    report(
        "variance reduction on shared links",
        worst <= 0.8,
        f"worst var ratio pooled/per-source {worst:.3f} (<=0.8)",
    )


def test_accept_03_sample_mean_attains_crlb():
    t, plan = star_plan()
    n = 1000
    beta_true = t.subtree_rate[2]
    rates = {s: t.path_rate(s, 2) for s in t.sources}
    vals = []
    for rep in range(1000):
        obs = simulate(t, n, replication_seed(43, rep))
        counts = count_pass(obs, t)
        vals.append(beta_sample_mean(counts, 2, t.sources, rates))
    var = float(np.var(vals, ddof=1))
    bound = crlb_beta([(rates[s], n) for s in t.sources], beta_true)
    ratio = var / bound
    report(
        "efficiency of the subtree-rate estimator",
        0.7 <= ratio <= 1.4,
        f"empirical var / information bound = {ratio:.3f} (in [0.7, 1.4])",
    )


def test_accept_04_single_source_route_agreement():
    # the pooled-beta route and the direct tree route are independent
    # numerics for the same quantity; they must agree to solver precision,
    # and each with a bisection on the path polynomial
    rng = np.random.default_rng(7)
    checked, worst, worst_ms, worst_tree = 0, 0.0, 0.0, 0.0
    while checked < 100:
        n = int(rng.integers(400, 2001))
        n_i = int(rng.integers(int(0.6 * n), n + 1))
        k = int(rng.integers(2, 5))
        kids = [int(rng.integers(int(0.55 * n_i), n_i + 1)) for _ in range(k)]
        if sum(kids) <= n_i:
            continue
        prod = 1.0
        for c in kids:
            prod *= 1.0 - c / n
        if 1.0 - n_i / n <= prod:
            continue
        counts = PooledCounts(
            probes={0: n},
            counts={(1, 0): n_i, **{(10 + j, 0): c for j, c in enumerate(kids)}},
        )
        beta = pooled_beta(counts, 1, [10 + j for j in range(k)], [0])
        a_ms = (n_i / n) / beta
        terms = [c / n for c in kids]
        a_tree = path_root(n_i / n, terms)
        oracle = path_bisection_oracle(n_i / n, terms)
        worst = max(worst, abs(a_ms - a_tree))
        worst_ms = max(worst_ms, abs(a_ms - oracle))
        worst_tree = max(worst_tree, abs(a_tree - oracle))
        checked += 1
    report(
        "route agreement on single-source tables",
        max(worst, worst_ms, worst_tree) <= 1e-12,
        f"max |pooled route - tree route| = {worst:.2e}, |pooled route - bisection| = "
        f"{worst_ms:.2e}, |tree route - bisection| = {worst_tree:.2e} over 100 tables (<=1e-12)",
    )


def test_accept_05_two_descendant_closed_form():
    rng = np.random.default_rng(11)
    checked, worst = 0, 0.0
    while checked < 1000:
        r1, r2 = rng.uniform(0.5, 0.999, size=2)
        if r1 + r2 <= 1.004:
            continue
        expected = (r1 + r2 - 1.0) / (r1 * r2)
        worst = max(worst, abs(subtree_root(1.0, [r1, r2]) - expected))
        checked += 1
    report(
        "closed-form agreement (two descendants)",
        worst <= 1e-10,
        f"max |root - closed form| = {worst:.2e} over 1000 instances (<=1e-10)",
    )


def test_accept_06_fusion_tracks_joint_mle():
    table = run_experiment(
        ExperimentConfig(
            topology_text=SETTINGS["2x2-equal"],
            probe_counts=(1000,),
            reps=200,
            seed=42,
            estimators=("mle", "rbmvwa", "mrbmvwa"),
        )
    )
    mean = {(r.estimator, r.link): r.mean_loss for r in table.rows}
    diff_rb = max(
        abs(mean[("rbmvwa", l)] - mean[("mle", l)]) for l in ("3", "4")
    )
    diff_mrb = max(
        abs(mean[("mrbmvwa", l)] - mean[("mle", l)]) for l in ("3", "4")
    )
    ok = diff_rb <= 1e-3 and diff_mrb <= 5e-4
    report(
        "fusion agreement with the joint estimate",
        ok,
        f"odds-weighted diff {diff_rb:.2e} (<=1e-3), "
        f"linear-weighted diff {diff_mrb:.2e} (<=5e-4)",
    )


def test_accept_07_probe_order_invariance():
    t, plan = star_plan()
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(50):
        obs = simulate(t, 300, replication_seed(5, trial))
        shuffled = {
            s: m[:, rng.permutation(m.shape[1])] for s, m in obs.items()
        }
        a = estimate_network(count_pass(obs, plan.topology), plan, "mle")
        b = estimate_network(count_pass(shuffled, plan.topology), plan, "mle")
        if a != b:  # links, clamped keys, paths and betas
            ok = False
            break
    report(
        "probe-order invariance",
        ok,
        "50/50 shuffled replications bit-identical"
        if ok
        else f"divergence at trial {trial}",
    )


def test_accept_08_reproducible_reports():
    cfg = ExperimentConfig(
        topology_text=SETTINGS["2x2-unequal"],
        probe_counts=(100, 500),
        reps=10,
        seed=42,
        estimators=("mle", "tree-baseline", "rbmvwa"),
    )
    a = emit(run_experiment(cfg), "csv")
    b = emit(run_experiment(cfg), "csv")
    report(
        "byte-identical reruns",
        a == b,
        f"two runs emit identical CSV ({len(a)} bytes)",
    )


def test_accept_09_more_receivers_sharpen_source_links():
    def source_link_vars(setting):
        table = run_experiment(
            ExperimentConfig(
                topology_text=SETTINGS[setting],
                probe_counts=(1000,),
                reps=200,
                seed=42,
                estimators=("mle",),
            )
        )
        return {r.link: r.var_loss for r in table.rows if r.link in ("1", "2")}

    v22 = source_link_vars("2x2-equal")
    v23 = source_link_vars("2x3-equal")
    ratios = {l: v23[l] / v22[l] for l in ("1", "2")}
    worst = max(ratios.values())
    report(
        "third receiver sharpens source links",
        worst <= 1.0,
        f"var ratio 3-receiver/2-receiver = "
        f"{ratios['1']:.3f}, {ratios['2']:.3f} (both <=1)",
    )
