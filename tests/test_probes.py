import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import BIG_NETWORK, CHAIN_TREE, SINGLE_TREE, reachable, receivers_below
from hypothesis import given, settings, strategies as st

from losstomo import probes as probes_module
from losstomo.harness import SETTINGS
from losstomo.probes import (
    ObservationSet,
    _draw,
    _or_counts,
    count_pass,
    gamma_hat,
    simulate,
    simulate_counts,
    source_stream,
)
from losstomo.topology import TopologyError, parse_topology


def lossy(loss_into_receiver=0.0):
    return parse_topology(
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\n"
        "link 1 0 2 0.0\nlink 2 1 2 0.0\n"
        f"link 3 2 3 {loss_into_receiver}\nlink 4 2 4 0.0\n"
        "source 0\nsource 1\nreceiver 3\nreceiver 4\n"
    )


def test_lossless_network_sees_everything():
    t = lossy(0.0)
    obs = simulate(t, 50, seed=1)
    counts = count_pass(obs, t)
    for (node, s), n in counts.counts.items():
        assert n == 50


def test_dead_link_blinds_receiver():
    t = lossy(1.0)
    obs = simulate(t, 50, seed=1)
    for s in t.sources:
        row = dict(zip(receivers_below(t, s), obs.bits[s]))
        assert not row[3].any()
        assert row[4].all()


def test_determinism():
    t = lossy(0.3)
    a = simulate(t, 200, seed=99)
    b = simulate(t, 200, seed=99)
    for s in t.sources:
        assert np.array_equal(a.bits[s], b.bits[s])
    c = simulate(t, 200, seed=100)
    assert any(not np.array_equal(a.bits[s], c.bits[s]) for s in t.sources)


def test_simulate_draws_each_tree_in_topological_order(big_topology):
    # reference draw loop: the tree's members in topological order, each one's out-links by id;
    # every link's n draws come from the source's one stream, so any other order changes the bits
    t, n, seed = big_topology, 50, 7
    obs = simulate(t, n, seed)
    for s in t.sources:
        rng = source_stream(seed, s)
        members = reachable(t, s)
        state = {s: np.ones(n, dtype=bool)}
        for u in t.order:
            if u in members:
                for l in t.out_links[u]:
                    state[l.tail] = state[u] & (rng.random(n) < l.pass_rate)
        recv = tuple(r for r in t.receivers if r in members)
        assert np.array_equal(obs.bits[s], np.vstack([state[r] for r in recv]))


def test_positive_probe_count_required(star22):
    with pytest.raises(ValueError):
        simulate(star22, 0, seed=1)
    with pytest.raises(ValueError):
        simulate(star22, {0: 100}, seed=1)


def test_probe_counts_for_unknown_sources_rejected(star22):
    # 2x2-equal has sources 0 and 1; a count for source 99 must not be dropped silently
    for run in (simulate, simulate_counts):
        with pytest.raises(ValueError, match=r"sources \[99\], which the topology does not have"):
            run(star22, {0: 10, 1: 10, 99: 5}, 1)


def test_or_semantics_by_hand():
    t = lossy()
    bits = {0: np.array([[1, 1, 0], [0, 1, 0]], dtype=bool)}
    obs = ObservationSet(bits)
    counts = count_pass(obs, t)
    assert counts.count(2, 0) == 2  # probe 1 via receiver 3, probe 2 via both
    assert counts.count(3, 0) == 2
    assert counts.count(4, 0) == 1


def test_counts_match_brute_force_recount(star22):
    obs = simulate(star22, 300, seed=5)
    counts = count_pass(obs, star22)
    for s in star22.sources:
        row = dict(zip(receivers_below(star22, s), obs.bits[s]))
        for node in reachable(star22, s):
            under = receivers_below(star22, node)
            expected = 0
            for o in range(300):
                expected += any(
                    row[r][o] for r in under
                )
            assert counts.count(node, s) == expected


def test_counts_hierarchical(star22):
    obs = simulate(star22, 500, seed=11)
    counts = count_pass(obs, star22)
    for s in star22.sources:
        for l in star22.trees[s].links:
            assert counts.count(l.tail, s) <= counts.count(l.head, s)


def test_gamma_hat_values():
    t = lossy()
    obs = ObservationSet({0: np.vstack([np.arange(1000) < 875, np.zeros(1000, dtype=bool)])})
    counts = count_pass(obs, t)
    assert gamma_hat(counts, 3, 0) == 0.875
    assert gamma_hat(counts, 4, 0) == 0.0
    assert gamma_hat(counts, 2, 0) == 0.875


def test_gamma_hat_outside_tree(star22):
    obs = simulate(star22, 10, seed=1)
    counts = count_pass(obs, star22)
    with pytest.raises(TopologyError):
        gamma_hat(counts, 99, 0)


@pytest.mark.parametrize("kind", [list, tuple, lambda xs: (x for x in xs)],
                         ids=["list", "tuple", "generator"])
def test_pooled_sums_any_iterable_of_sources_once(big_topology, kind):
    # the memo key takes the sources as a tuple; the sum must run over that
    # tuple, not over an iterator the key already consumed
    counts = simulate_counts(big_topology, 60, seed=4)
    want = counts.count(2, 16) + counts.count(2, 0)
    assert counts.pooled(2, kind([16, 0])) == want
    assert counts.sums == {(2, (16, 0)): want}
    assert counts.pooled(2, kind([16, 0])) == want
    with pytest.raises(TopologyError):
        counts.pooled(99, kind([16, 0]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_bernoulli_concentration(seed):
    # end-to-end empirical rate within 4 standard errors of the path product
    t = lossy(0.3)
    n = 1000
    obs = simulate(t, n, seed=seed)
    counts = count_pass(obs, t)
    for s in t.sources:
        for r in t.receivers:
            p = t.path_rate(s, r)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.count(r, s) / n - p) <= 4 * se


# two sources whose serial chains 0-2-4 and 4-5-6 run into and out of joint 4
SERIAL_CHAIN = (
    "node 0\nnode 1\nnode 2\nnode 3\nnode 4\nnode 5\nnode 6\nnode 7\nnode 8\nnode 9\n"
    "link 1 0 2 0.2\nlink 2 2 4 0.1\nlink 3 1 3 0.2\nlink 4 3 4 0.1\n"
    "link 5 4 5 0.2\nlink 6 5 6 0.1\nlink 7 6 7 0.3\nlink 8 6 8 0.3\nlink 9 4 9 0.3\n"
    "source 0\nsource 1\nreceiver 7\nreceiver 8\nreceiver 9\n"
)


@pytest.fixture
def serial_chain():
    return parse_topology(SERIAL_CHAIN)


@pytest.mark.parametrize("fixture", ["big_topology", "serial_chain"])
def test_bottom_up_counts_equal_or_over_receivers_under(request, fixture):
    t = request.getfixturevalue(fixture)
    obs = simulate(t, 400, seed=13)
    counts = count_pass(obs, t)
    for s in t.sources:
        row = dict(zip(receivers_below(t, s), obs.bits[s]))
        for node in reachable(t, s):
            rows = [row[r] for r in receivers_below(t, node)]
            assert counts.count(node, s) == int(np.count_nonzero(np.any(rows, axis=0)))


TOPOLOGIES = {**SETTINGS, "big": BIG_NETWORK, "chain": CHAIN_TREE, "single": SINGLE_TREE}


def probe_specs(t):
    """One count for every source, and unequal counts when there are two sources."""
    return [50, dict(zip(t.sources, (13, 1)))]


def with_loss(text, loss):
    """The topology with every link's loss rate set to ``loss``."""
    return "".join(
        line.rsplit(" ", 1)[0] + f" {loss}\n" if line.startswith("link ") else line + "\n"
        for line in text.splitlines()
    )


# at loss 0.5 a node's bits are near coin flips, so a chunk drawn one probe
# off changes some count; at 1% loss that shift is mostly invisible in counts
@pytest.mark.parametrize("loss", [None, 0.5])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_simulate_counts_equals_count_pass_of_simulate(name, loss, monkeypatch):
    text = TOPOLOGIES[name] if loss is None else with_loss(TOPOLOGIES[name], loss)
    t, seed = parse_topology(text), 5
    for probes in probe_specs(t):
        expected = count_pass(simulate(t, probes, seed), t)
        n = probes if isinstance(probes, int) else max(probes.values())
        for chunk in (1, 7, n - 1, n, n + 1):
            for workers in (1, 2, 3):
                monkeypatch.setattr(probes_module, "CHUNK", chunk)
                monkeypatch.setattr(probes_module, "WORKERS", workers)
                assert simulate_counts(t, probes, seed) == expected, (probes, chunk, workers)


def spy_windows(monkeypatch):
    """Record (source, c0, m) of every window ``_draw`` draws, and check that
    ``_or_counts`` counts each drawn matrix once."""
    drawn, counted, lock = [], [], threading.Lock()

    def draw(t, s, seed, n, c0, m):
        bits = _draw(t, s, seed, n, c0, m)
        with lock:
            drawn.append(((s, c0, m), bits))
        return bits

    def count(rows, bits):
        with lock:
            counted.append(bits)
        return _or_counts(rows, bits)

    monkeypatch.setattr(probes_module, "_draw", draw)
    monkeypatch.setattr(probes_module, "_or_counts", count)

    def windows():
        assert sorted(map(id, counted)) == sorted(id(bits) for _, bits in drawn)
        return sorted(w for w, _ in drawn)

    return windows


@pytest.mark.parametrize("chunk, windows", [(7, 2), (12, 2), (13, 1), (50, 1)])
def test_simulate_counts_counts_each_window_once(big_topology, monkeypatch, chunk, windows):
    # one draw and one count per (source, window); the first source's 13 probes
    # take `windows` windows of `chunk`, the second's one probe takes one
    monkeypatch.setattr(probes_module, "CHUNK", chunk)
    monkeypatch.setattr(probes_module, "WORKERS", 1)
    seen = spy_windows(monkeypatch)
    first, second = big_topology.sources
    simulate_counts(big_topology, {first: 13, second: 1}, seed=3)
    starts = range(0, 13, chunk)
    assert len(starts) == windows
    assert seen() == sorted([(first, c0, min(chunk, 13 - c0)) for c0 in starts] + [(second, 0, 1)])


def test_workers_share_the_chunk(big_topology, monkeypatch):
    # two workers draw windows of CHUNK // 2, so CHUNK probes per source are in flight
    monkeypatch.setattr(probes_module, "CHUNK", 12)
    monkeypatch.setattr(probes_module, "WORKERS", 2)
    seen = spy_windows(monkeypatch)
    first, second = big_topology.sources
    simulate_counts(big_topology, {first: 13, second: 1}, seed=3)
    # the workers may draw in either order
    assert seen() == sorted([(first, 0, 6), (first, 6, 6), (first, 12, 1), (second, 0, 1)])


def test_worker_exception_reaches_the_caller(big_topology, monkeypatch):
    calls, lock = [], threading.Lock()

    def failing(t, s, seed, n, c0, m):
        with lock:
            calls.append((s, c0))
            second = len(calls) == 2
        if second:
            raise TopologyError("second window")
        return _draw(t, s, seed, n, c0, m)

    monkeypatch.setattr(probes_module, "CHUNK", 4)
    monkeypatch.setattr(probes_module, "WORKERS", 2)
    monkeypatch.setattr(probes_module, "_draw", failing)
    before = threading.active_count()
    with pytest.raises(TopologyError, match="second window"):
        simulate_counts(big_topology, 40, seed=3)
    assert threading.active_count() == before  # the pool's threads were joined


@pytest.mark.parametrize("chunk", [1, 7, 12])
def test_chunk_bits_are_column_slices_of_simulate(big_topology, chunk):
    # link j of tree s draws probe k at offset j*n + k, so probes [c0, c0 + m)
    # drawn alone are columns c0 .. c0 + m - 1 of the one-shot bits, at every receiver
    t, seed = big_topology, 3
    for probes in probe_specs(t):
        obs = simulate(t, probes, seed)
        for s, n in obs.probes.items():
            full = np.unpackbits(_draw(t, s, seed, n, 0, n), axis=1)
            assert len(full) == len(t.trees[s].receivers)  # the draw hands out no inner node's state
            assert np.array_equal(full[:, :n], obs.bits[s])
            for c0 in range(0, n, chunk):
                m = min(chunk, n - c0)
                part = np.unpackbits(_draw(t, s, seed, n, c0, m), axis=1)
                assert np.array_equal(part[:, :m], full[:, c0:c0 + m]), (s, c0)
                assert not part[:, m:].any()  # _or_counts needs zero padding in every row


@pytest.mark.parametrize("probes", [0, {0: 100}, {0: 100, 1: 0}])
def test_simulate_counts_rejects_probe_counts_like_simulate(star22, probes):
    with pytest.raises(ValueError, match="needs a positive probe count") as one_shot:
        simulate(star22, probes, seed=1)
    with pytest.raises(ValueError) as chunked:
        simulate_counts(star22, probes, seed=1)
    assert str(chunked.value) == str(one_shot.value)


def test_simulate_counts_memory_is_bounded_by_the_chunk(big_topology, monkeypatch):
    # count_pass(simulate(...)) of the same probes peaks at about 62 MiB
    n = 2 * 10**6
    monkeypatch.setattr(probes_module, "CHUNK", 2**16)
    tracemalloc.start()
    try:
        counts = simulate_counts(big_topology, n, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert counts.probes == {s: n for s in big_topology.sources}
    assert all(0.9 * n < counts.count(s, s) <= n for s in big_topology.sources)


def test_simulate_counts_memory_is_one_bit_per_tree_node_and_probe(big_topology, monkeypatch):
    # each worker holds its window's float64 draws and bool passes, 9 bytes a probe,
    # one bit per probe for each of the 16 nodes of a BIG_NETWORK tree, and one more for
    # each of its 8 receivers, whose rows leave the draw as a copy: for windows of 2**15
    # probes that is 2 * (9 + 24 / 8) * 2**15 bytes, about 0.75 MiB for two workers
    n = 2 * 10**6
    monkeypatch.setattr(probes_module, "CHUNK", 2**16)
    monkeypatch.setattr(probes_module, "WORKERS", 2)
    simulate_counts(big_topology, 2**16, seed=4)  # imports the thread pool, once per process
    tracemalloc.start()
    try:
        simulate_counts(big_topology, n, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


def test_workers_share_the_memory_budget(big_topology, monkeypatch):
    # WORKERS windows of CHUNK // WORKERS are in flight, not WORKERS windows of CHUNK
    n = 2 * 10**6
    monkeypatch.setattr(probes_module, "CHUNK", 2**16)
    peaks = {}
    for workers in (1, 4):
        monkeypatch.setattr(probes_module, "WORKERS", workers)
        tracemalloc.start()
        try:
            simulate_counts(big_topology, n, seed=4)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.5 * peaks[1], peaks


def test_count_pass_leaves_the_bits_unchanged():
    # receiver rows are views of obs.bits, so no OR may write into one
    t = parse_topology(with_loss(BIG_NETWORK, 0.5))
    obs = simulate(t, 200, seed=6)
    before = {s: b.copy() for s, b in obs.bits.items()}
    count_pass(obs, t)
    for s in t.sources:
        assert np.array_equal(obs.bits[s], before[s])


def test_count_pass_rejects_bits_of_the_wrong_shape(star22):
    # source 0 of 2x2-equal reaches receivers 3 and 4: its matrix must be 2 x n with n >= 1
    for shape in [(10,), (2, 10, 1), (2, 0), (1, 10), (3, 10)]:
        expected = f"source 0: bits of shape {shape}, expected (2, n >= 1)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            count_pass(ObservationSet({0: np.ones(shape, bool)}), star22)
    # bits of the right shape for a source the topology does not have
    with pytest.raises(ValueError, match="source 7: not a source of the topology"):
        count_pass(ObservationSet({7: np.ones((2, 10), bool)}), star22)
    # the probe count is the column count, so the two cannot disagree; a source may be left out
    counts = count_pass(ObservationSet({0: np.ones((2, 20), bool)}), star22)
    assert counts.probes == {0: 20} and gamma_hat(counts, 2, 0) == 1.0
    assert {s for _, s in counts.counts} == {0}


def test_count_pass_reads_0_and_1_of_any_dtype_and_rejects_other_values():
    # np.loadtxt gives floats; a 2 or a -1 is no observation, not a seen probe
    t = lossy()
    bits = np.array([[1, 1, 0], [0, 1, 0]], dtype=bool)
    expected = count_pass(ObservationSet({0: bits}), t)
    for dtype in (int, np.uint8, float):
        assert count_pass(ObservationSet({0: bits.astype(dtype)}), t) == expected, dtype
    for bad, value in [(2 * bits.astype(int), "2"), (-bits.astype(int), "-1"),
                       (np.where(bits, 0.5, 0.0), "0.5"), (np.where(bits, np.nan, 1.0), "nan")]:
        with pytest.raises(ValueError, match=re.escape(f"source 0: bit value {value}, expected 0 or 1")):
            count_pass(ObservationSet({0: bad}), t)


def test_count_pass_rejects_a_missing_receiver_row(big_topology):
    # a receiver of T^0 without a row would count 0, which biases its loss upward, and a
    # row of a node outside T^0 has nothing to count: either gives the wrong row count
    t, s = big_topology, 0
    recv = receivers_below(t, s)
    rng = np.random.default_rng(2)
    for rows in (len(recv) - 1, len(recv) + 1):
        expected = f"source 0: bits of shape ({rows}, 60), expected ({len(recv)}, n >= 1)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            count_pass(ObservationSet({s: rng.random((rows, 60)) < 0.5}), t)
