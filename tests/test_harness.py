from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import multi_source_dags
from hypothesis import given, seed, settings, strategies as st

from losstomo import harness
from losstomo.analysis import empirical_moments, var_upstream
from losstomo.estimators import FUSION_METHODS, METHODS, EstimateSet, estimate_network
from losstomo.harness import (
    SETTINGS,
    ExperimentConfig,
    ReplicationTable,
    TableRow,
    _expected_keys,
    emit,
    replication_seed,
    run_experiment,
)
from losstomo.probes import _draw, _or_counts, simulate_counts
from losstomo.solvers import EstimationError, NoDataError
from losstomo.topology import parse_topology
from losstomo.decompose import decompose


def cfg(setting="2x2-equal", **kw):
    kw.setdefault("probe_counts", (200,))
    kw.setdefault("reps", 8)
    return ExperimentConfig(topology_text=SETTINGS[setting], **kw)


def test_settings_parse_and_decompose():
    for name, text in SETTINGS.items():
        plan = decompose(parse_topology(text))
        assert plan.joint_nodes == (2,)
        assert [l.tail for s in plan.topology.sources for l in plan.children[s]] == [2, 2]


def test_replication_seed_stability():
    assert replication_seed(42, 0) == replication_seed(42, 0)
    seen = {replication_seed(42, r) for r in range(100)}
    assert len(seen) == 100
    assert replication_seed(42, 0) != replication_seed(43, 0)


def test_config_validation():
    with pytest.raises(ValueError, match="replication count"):
        cfg(reps=0).validate()
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        cfg(seed=-3).validate()
    with pytest.raises(ValueError, match="probe counts"):
        cfg(probe_counts=()).validate()
    with pytest.raises(ValueError, match="unknown estimator"):
        cfg(estimators=("median",)).validate()
    with pytest.raises(ValueError, match="non-empty"):
        cfg(estimators=()).validate()
    with pytest.raises(ValueError, match="listed more than once: mle"):
        cfg(estimators=("mle", "rbmvwa", "mle")).validate()
    with pytest.raises(ValueError, match="probe count listed more than once: 100, 500"):
        cfg(probe_counts=(500, 100, 1000, 100, 500)).validate()
    # a value of the wrong type is named with its field, not left to fail (or pass) further in
    with pytest.raises(ValueError, match=r"reps must be an integer, got 2\.5"):
        cfg(reps=2.5).validate()
    with pytest.raises(ValueError, match="reps must be an integer, got '3'"):
        cfg(reps="3").validate()
    with pytest.raises(ValueError, match="reps must be an integer, got True"):
        cfg(reps=True).validate()
    with pytest.raises(ValueError, match=r"seed must be an integer, got 1\.5"):
        cfg(seed=1.5).validate()
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        cfg(seed=True).validate()
    with pytest.raises(ValueError, match="probe_counts must be a tuple of integers, got 100"):
        cfg(probe_counts=100).validate()
    # a bare string is not a list of its characters
    with pytest.raises(ValueError, match="estimators must be a tuple of names, got 'mle'"):
        cfg(estimators="mle").validate()
    with pytest.raises(ValueError, match="estimators must be a tuple of names, got 'mrbmvwa'"):
        cfg(estimators="mrbmvwa").validate()
    with pytest.raises(ValueError, match=r"probe count must be an integer, got 100\.0"):
        cfg(probe_counts=(50, 100.0)).validate()
    with pytest.raises(ValueError, match="probe count must be an integer, got False"):
        cfg(probe_counts=(False,)).validate()
    cfg(reps=np.int64(3), seed=np.uint32(7), probe_counts=(np.int32(10), 20)).validate()


def test_run_is_deterministic():
    a = emit(run_experiment(cfg()), "csv")
    b = emit(run_experiment(cfg()), "csv")
    assert a == b


def test_estimator_order_does_not_change_cells():
    base = cfg(estimators=("mle", "rbmvwa"))
    flipped = cfg(estimators=("rbmvwa", "mle"))
    assert emit(run_experiment(base), "csv") == emit(run_experiment(flipped), "csv")


def test_probe_doubling_shrinks_variance():
    table = run_experiment(
        cfg(probe_counts=(1000, 2000), reps=200, estimators=("mle",))
    )
    by = {(r.link, r.probes): r for r in table.rows}
    ratios = []
    for label in ("1", "2", "3", "4"):
        ratios.append(by[(label, 1000)].var_loss / by[(label, 2000)].var_loss)
    avg = sum(ratios) / len(ratios)
    assert 1.6 <= avg <= 2.6


def test_csv_round_trips_at_full_precision():
    table = run_experiment(cfg(reps=12))
    text = emit(table, "csv")
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "link", "estimator", "source", "probes", "reps", "mean_loss",
        "var_loss", "true_loss", "crlb_var", "clamped", "errors",
    ]
    parsed = []
    for line in lines[1:]:
        f = line.split(",")
        parsed.append((f[0], f[1], f[3], float(f[5]), float(f[7])))
    rows = {(r.link, r.estimator, str(r.probes)): r for r in table.rows}
    for label, est, probes, mean, true in parsed:
        r = rows[(label, est, probes)]
        assert mean == r.mean_loss  # repr round-trip, bit exact
        assert true == r.true_loss


def test_tree_baseline_rows_are_per_source():
    table = run_experiment(cfg(estimators=("tree-baseline",)))
    keys = {(r.link, r.source) for r in table.rows}
    # shared receiver links appear once per source; source links once
    assert ("3", 0) in keys and ("3", 1) in keys
    assert ("1", 0) in keys and ("1", 1) not in keys


def test_fusion_rows_cover_intersection_only():
    table = run_experiment(cfg(estimators=("mrbmvwa",)))
    assert {r.link for r in table.rows} == {"3", "4"}
    assert all(r.source is None for r in table.rows)


def test_crlb_column_only_for_source_links():
    table = run_experiment(cfg(estimators=("mle",), reps=4))
    by = {r.link: r for r in table.rows}
    assert by["1"].crlb_var is not None and by["2"].crlb_var is not None
    assert by["3"].crlb_var is None and by["4"].crlb_var is None
    t = parse_topology(SETTINGS["2x2-equal"])
    from losstomo.analysis import var_upstream

    expected = var_upstream(0.99, t.subtree_rate[2], 200)
    assert by["1"].crlb_var == pytest.approx(expected, abs=1e-18)


def test_csv_formats_each_column_and_sorts_the_rows():
    # rows out of order; None in every optional column; reps 0, 1 and 3;
    # floats whose shortest repr is long, exponent-form or integral
    table = ReplicationTable(rows=[
        TableRow("1", "tree-baseline", 1, 100, 1, 0.5, None, 0.01, None, 1, 2),
        TableRow("3", "mle", None, 100, 3, 0.1 + 0.2, 1e-05, 1.0, None, 0, 0),
        TableRow("1", "tree-baseline", 0, 100, 0, None, None, 0.01, None, 0, 3),
        TableRow("1", "mle", None, 200, 3, 0.25, 2.5e-07, 0.01, 1 / 3, 0, 0),
        TableRow("1", "mle", None, 100, 3, 0.0, 0.0, 0.01, 1e-05, 0, 0),
    ])
    assert emit(table, "csv") == (
        "link,estimator,source,probes,reps,mean_loss,var_loss,true_loss,crlb_var,clamped,errors\n"
        "1,mle,,100,3,0.0,0.0,0.01,1e-05,0,0\n"
        "1,mle,,200,3,0.25,2.5e-07,0.01,0.3333333333333333,0,0\n"
        "3,mle,,100,3,0.30000000000000004,1e-05,1.0,,0,0\n"
        "1,tree-baseline,0,100,0,,,0.01,,0,3\n"
        "1,tree-baseline,1,100,1,0.5,,0.01,,1,2\n"
    )


def test_markdown_emission():
    table = run_experiment(cfg(estimators=("mle", "tree-baseline"), reps=4))
    md = emit(table, "markdown")
    assert "## mle" in md and "## tree-baseline" in md
    assert "mean@200 | var@200" in md
    assert "3 (source 0)" in md
    with pytest.raises(ValueError, match="unknown format"):
        emit(table, "latex")
    for format in ("csv", "markdown"):
        with pytest.raises(ValueError, match="empty table"):
            emit(ReplicationTable(), format)


def test_failed_replications_are_recorded():
    # 2 probes through a very lossy net: some replications cannot identify
    # the subtree rate, and the run must keep going and say so
    text = (
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\n"
        "link 1 0 2 0.6\nlink 2 1 2 0.6\nlink 3 2 3 0.6\nlink 4 2 4 0.6\n"
        "source 0\nsource 1\nreceiver 3\nreceiver 4\n"
    )
    table = run_experiment(
        ExperimentConfig(topology_text=text, probe_counts=(2,), reps=30)
    )
    assert table.messages
    row = table.rows[0]
    assert row.errors > 0
    assert row.reps + row.errors == 30


def test_clamp_and_error_counts_over_replications(monkeypatch):
    # rep 1 fails; link 3's raw rate is above 1 in reps 0 and 3 and stored as 1.0
    plan = decompose(parse_topology(SETTINGS["2x2-equal"]))
    keys = _expected_keys(plan, "mle")
    raw = {0: 1.5, 2: 0.75, 3: 1.0625}
    calls = []

    def stub(counts, plan, method):
        rep = len(calls)
        calls.append(method)
        if rep == 1:
            raise NoDataError("no probes observed below node 2")
        est = EstimateSet(method=method)
        for label, source in keys:
            est.add_link(label, raw[rep] if label == "3" else 0.5, source)
        return est

    monkeypatch.setattr(harness, "estimate_network", stub)
    table = run_experiment(cfg(estimators=("mle",), reps=4))
    assert calls == ["mle"] * 4
    assert table.messages == ["probes=200 rep=1 mle: no probes observed below node 2"]
    rows = {r.link: r for r in table.rows}
    assert sorted(rows) == ["1", "2", "3", "4"]
    assert all((r.reps, r.errors) == (3, 1) for r in table.rows)
    assert {label: r.clamped for label, r in rows.items()} == {"1": 0, "2": 0, "3": 2, "4": 0}
    row = rows["3"]
    assert (row.mean_loss, row.var_loss) == empirical_moments([1.0 - 1.0, 1.0 - 0.75, 1.0 - 1.0])


@settings(max_examples=40, deadline=None)
@given(text=multi_source_dags())
def test_run_experiment_on_generated_dags_keeps_every_row_consistent(text):
    # dead links and 10 probes fail some replications; the run keeps going
    table = run_experiment(ExperimentConfig(
        topology_text=text, probe_counts=(10, 100), reps=3, estimators=METHODS,
    ))
    assert table.rows
    for r in table.rows:
        assert r.reps + r.errors == 3
        assert (r.mean_loss is None) == (r.reps == 0)
        if r.mean_loss is not None:
            assert 0.0 <= r.mean_loss <= 1.0
        assert r.var_loss is None or r.var_loss >= 0.0
        assert r.clamped <= r.reps


@seed(29)
@settings(max_examples=30, deadline=None)
@given(text=multi_source_dags(), probes=st.integers(1, 30))
def test_row_tallies_agree_with_the_failure_notes(text, probes):
    # a row's errors are the replications without a record; each failure also leaves one note
    table = run_experiment(ExperimentConfig(
        topology_text=text, probe_counts=(probes,), reps=3, estimators=METHODS,
    ))
    notes = Counter()
    for msg in table.messages:
        n, _, method = msg.split(":", 1)[0].split(" ")
        assert n == f"probes={probes}"
        notes[method] += 1
    for r in table.rows:
        assert r.reps + r.errors == 3
        assert 0 <= r.clamped <= r.reps
        assert r.errors == notes[r.estimator], (r.estimator, table.messages)


@seed(30)
@settings(max_examples=100, deadline=None)
@given(text=multi_source_dags(), probes=st.integers(1, 300), rep_seed=st.integers(0, 2**32 - 1))
def test_each_estimate_has_exactly_the_expected_keys(text, probes, rep_seed):
    # run_experiment reads a method's losses at _expected_keys only: an extra key would be
    # dropped without notice and a missing one would end the run in a bare KeyError
    plan = decompose(parse_topology(text))
    counts = simulate_counts(plan.topology, probes, rep_seed)
    for method in METHODS:
        keys = _expected_keys(plan, method)
        try:
            est = estimate_network(counts, plan, method)
        except EstimationError:
            continue
        assert len(set(keys)) == len(keys) == len(est.links), method
        assert set(est.links) == set(keys), method


def test_probes_are_counted_once_per_replication(monkeypatch):
    # each replication draws each source's probes once, in one window that may hold other
    # replications too, and each drawn window is counted once, whatever the estimators
    from losstomo import probes

    drawn, counted = [], []

    def drawing(t, s, seeds, n, c0, m):
        bits = _draw(t, s, seeds, n, c0, m)
        drawn.append((bits, [(seed, s, n, c0, m) for seed in seeds]))
        return bits

    def counting(rows, bits):
        counted.append(bits)
        return _or_counts(rows, bits)

    monkeypatch.setattr(probes, "_draw", drawing)
    monkeypatch.setattr(probes, "_or_counts", counting)
    config = cfg(estimators=METHODS, probe_counts=(100, 200), reps=3)
    run_experiment(config)
    sources = parse_topology(SETTINGS["2x2-equal"]).sources
    per_seed = [w for _, windows in drawn for w in windows]
    assert len(set(per_seed)) == len(per_seed) == 2 * 3 * len(sources)
    assert {(s, n, c0, m) for _, s, n, c0, m in per_seed} == {
        (s, n, 0, n) for s in sources for n in (100, 200)
    }
    assert {w[0] for w in per_seed} == {replication_seed(config.seed, rep) for rep in range(3)}
    assert sorted(map(id, counted)) == sorted(id(bits) for bits, _ in drawn)


def test_replication_seeds_are_derived_once_per_run(monkeypatch):
    # a replication's seed does not depend on the probe count, so each rep's is derived once
    calls = []

    def counting(master_seed, rep):
        calls.append(rep)
        return replication_seed(master_seed, rep)

    monkeypatch.setattr(harness, "replication_seed", counting)
    run_experiment(cfg(probe_counts=(100, 200), reps=3))
    assert calls == [0, 1, 2]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_crlb_column_is_closed_form_for_source_links_into_joints(setting):
    t = parse_topology(SETTINGS[setting])
    joints = {n for n in t.nodes if t.in_degree[n] >= 2}
    into_joint = {str(l.id): l for l in t.links if l.head in t.sources and l.tail in joints}
    table = run_experiment(cfg(setting, estimators=METHODS, probe_counts=(100, 500), reps=2))
    assert into_joint and {r.link for r in table.rows if r.crlb_var is not None} == set(into_joint)
    for r in table.rows:
        if r.link in into_joint:
            l = into_joint[r.link]
            assert r.crlb_var == var_upstream(l.pass_rate, t.subtree_rate[l.tail], r.probes)


def test_crlb_column_on_a_source_link_into_a_receiver_joint_is_the_binomial_variance():
    # each of three sources links straight to receiver 3, a joint: beta = 1 there, so the
    # closed form A(1 - A beta)/(n beta) is A(1 - A)/n, the variance of the end-to-end rate
    text = ("node 0\nnode 1\nnode 2\nnode 3\nlink 1 0 3 0.1\nlink 2 1 3 0.2\nlink 3 2 3 0.3\n"
            "source 0\nsource 1\nsource 2\nreceiver 3\n")
    rate = {str(l.id): l.pass_rate for l in parse_topology(text).links}
    table = run_experiment(ExperimentConfig(topology_text=text, probe_counts=(100, 500), reps=2,
                                            estimators=("mle", "tree-baseline")))
    assert len(table.rows) == 12
    for r in table.rows:
        assert r.crlb_var == rate[r.link] * (1.0 - rate[r.link]) / r.probes, r


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_golden_csv_matches_desk_stars_reference(setting):
    # the scripts/run_tables.py config: byte for byte the tests' own golden
    # copy, and within the benchmark's 1e-12 of its reference, read only
    root = Path(__file__).resolve().parents[1]
    table = run_experiment(ExperimentConfig(
        topology_text=SETTINGS[setting], probe_counts=(100, 500, 1000), reps=20, seed=42,
        estimators=METHODS,
    ))
    got = emit(table, "csv")
    golden = root / "tests/golden/desk-stars-seed42"
    assert got == (golden / f"{setting}.csv").read_text()
    # the markdown report exactly as scripts/run_tables.py writes it
    md = f"# setting {setting}\n\n" + emit(table, "markdown")
    assert md == (golden / f"{setting}.md").read_text()
    want = (root / f"bench/reference/desk-stars/seed42/{setting}.csv").read_text()
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    header = want_rows[0]
    assert got_rows[0] == header
    for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
        for column, g, w in zip(header, g_row, w_row):
            if column in {"mean_loss", "var_loss", "true_loss", "crlb_var"} and g and w:
                assert abs(float(g) - float(w)) <= 1e-12, (column, g, w)
            else:
                assert g == w, (column, g, w)


def test_golden_lossy_big_network_csv_and_messages():
    # BIG_NETWORK at loss 0.3: every method fails some replications at 10
    # probes, so this pins the errors column, the empty mean and variance
    # cells (in the CSV and the markdown report) and the step/node text of
    # both estimator walks byte for byte
    golden = Path(__file__).resolve().parent / "golden/big-network-lossy-seed42"
    table = run_experiment(ExperimentConfig(
        topology_text=(golden / "topology.txt").read_text(), probe_counts=(10, 300), reps=3,
        seed=42, estimators=METHODS,
    ))
    assert emit(table, "csv") == (golden / "run.csv").read_text()
    assert emit(table, "markdown") == (golden / "run.md").read_text()
    assert "".join(m + "\n" for m in table.messages) == (golden / "messages.txt").read_text()


def test_fusion_fails_where_a_source_saw_no_probe_below_two_children():
    # the lossy golden topology at seed 7: at 20 probes, in rep 7, source 0 saw 5
    # probes at node 5 and its children 4 and 1 of them, none both, so every fusion
    # scheme's per-source subtree solve there has no root
    golden = Path(__file__).resolve().parent / "golden/big-network-lossy-seed42"
    table = run_experiment(ExperimentConfig(
        topology_text=(golden / "topology.txt").read_text(), probe_counts=(20,), reps=20,
        seed=7, estimators=METHODS,
    ))
    rep7 = tuple(f"probes=20 rep=7 {m}:" for m in FUSION_METHODS)
    assert [m for m in table.messages if m.startswith(rep7)] == [
        f"probes=20 rep=7 {m}: multi-source subtree solve at node 5: no sign change on (0, 1]: "
        "sum of descendant ratios 1.000000 <= 1 (ratios [0.8, 0.2])"
        for m in FUSION_METHODS
    ]
