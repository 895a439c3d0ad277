import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    BIG_NETWORK, CHAIN_TREE, RECEIVER_JOINTS, SINGLE_TREE, multi_source_dags, reachable, receivers_below,
    sample_counts,
)
from hypothesis import given, seed, settings, strategies as st

from losstomo import probes as probes_module
from losstomo.harness import SETTINGS
from losstomo.probes import (
    _draw,
    _or_counts,
    count_pass,
    gamma_hat,
    simulate,
    simulate_counts,
    simulate_runs,
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
        row = dict(zip(receivers_below(t, s), obs[s]))
        assert not row[3].any()
        assert row[4].all()


def test_determinism():
    t = lossy(0.3)
    a = simulate(t, 200, seed=99)
    b = simulate(t, 200, seed=99)
    for s in t.sources:
        assert np.array_equal(a[s], b[s])
    c = simulate(t, 200, seed=100)
    assert any(not np.array_equal(a[s], c[s]) for s in t.sources)


def reference_bits(t, n, seed):
    """The receiver bits of ``simulate(t, n, seed)`` by the reference draw loop: each tree's
    members in topological order, each one's out-links by id, n draws a link from the
    source's one stream."""
    bits = {}
    for s in t.sources:
        rng = source_stream(seed, s)
        members = reachable(t, s)
        state = {s: np.ones(n, dtype=bool)}
        for u in t.order:
            if u in members:
                for l in t.out_links[u]:
                    state[l.tail] = state[u] & (rng.random(n) < l.pass_rate)
        bits[s] = np.vstack([state[r] for r in t.receivers if r in members])
    return bits


def test_simulate_draws_each_tree_in_topological_order(big_topology):
    # every link's n draws come from the source's one stream, so any other order changes the bits
    t, n, seed = big_topology, 50, 7
    obs, expected = simulate(t, n, seed), reference_bits(t, n, seed)
    for s in t.sources:
        assert np.array_equal(obs[s], expected[s])


@seed(38)
@settings(max_examples=40, deadline=None)
@given(text=multi_source_dags(), data=st.data())
def test_simulate_runs_draws_each_tree_in_topological_order_in_any_block_split(text, data):
    # a window of s seeds that holds every probe of n draws its links in blocks of
    # CHUNK // WORKERS // (s * n); at n > 128 a window of that width holds all s seeds even
    # when a block is one link, so every tree is drawn in blocks of 1, 2, L - 1 and L links
    t = parse_topology(text)
    n = data.draw(st.integers(129, 300))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4))
    expected = [count_pass(reference_bits(t, n, seed), t) for seed in seeds]
    lengths = {len(tree.links) for tree in t.trees.values()}
    for block in sorted({1, 2, *lengths, *(L - 1 for L in lengths)} - {0}):
        workers = data.draw(st.sampled_from((1, 2, 3)))
        width = max(block * len(seeds) * n, len(seeds) * (n + 128))
        assert width // (len(seeds) * n) == block and width // (n + 128) >= len(seeds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probes_module, "CHUNK", workers * width)
            mp.setattr(probes_module, "WORKERS", workers)
            assert list(simulate_runs(t, n, seeds)) == expected, block


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
    obs = {0: np.array([[1, 1, 0], [0, 1, 0]], dtype=bool)}
    counts = count_pass(obs, t)
    assert counts.count(2, 0) == 2  # probe 1 via receiver 3, probe 2 via both
    assert counts.count(3, 0) == 2
    assert counts.count(4, 0) == 1


def test_counts_match_brute_force_recount(star22):
    obs = simulate(star22, 300, seed=5)
    counts = count_pass(obs, star22)
    for s in star22.sources:
        row = dict(zip(receivers_below(star22, s), obs[s]))
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
    obs = {0: np.vstack([np.arange(1000) < 875, np.zeros(1000, dtype=bool)])}
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
    # the sum reads the sources once, so a generator counts every source
    counts = simulate_counts(big_topology, 60, seed=4)
    want = counts.count(2, 16) + counts.count(2, 0)
    assert counts.pooled(2, kind([16, 0])) == want
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


# one source over nodes of 3 and 4 children at depths 1 to 3, with receivers at depths 2 to
# 4, so the rows of one depth and sibling rank are scattered in some groups
WIDE_TREE = (
    "".join(f"node {i}\n" for i in range(18))
    + "".join(f"link {i} {h} {i} 0.3\n" for i, h in enumerate(
        (0, 1, 1, 1, 1, 3, 3, 3, 4, 4, 10, 10, 10, 5, 5, 5, 5), 1))
    + "source 0\n" + "".join(f"receiver {r}\n" for r in (2, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17))
)


@pytest.fixture
def wide_tree():
    return parse_topology(WIDE_TREE)


def assert_counts_are_or_over_receivers_under(t):
    obs = simulate(t, 400, seed=13)
    counts = count_pass(obs, t)
    for s in t.sources:
        row = dict(zip(receivers_below(t, s), obs[s]))
        for node in reachable(t, s):
            rows = [row[r] for r in receivers_below(t, node)]
            assert counts.count(node, s) == int(np.count_nonzero(np.any(rows, axis=0)))


@pytest.mark.parametrize("fixture", ["big_topology", "serial_chain", "wide_tree"])
def test_bottom_up_counts_equal_or_over_receivers_under(request, fixture):
    assert_counts_are_or_over_receivers_under(request.getfixturevalue(fixture))


def test_wide_tree_has_scattered_and_contiguous_groups(wide_tree):
    # both kinds of index are exercised: fancy indexes, and slices of more than one row
    indexes = [index for group in wide_tree.trees[0].groups for index in group]
    assert any(isinstance(index, np.ndarray) for index in indexes)
    assert any(isinstance(index, slice) and index.stop - index.start > 1 for index in indexes)


@seed(39)
@settings(max_examples=60, deadline=None)
@given(text=multi_source_dags())
def test_groups_order_the_or_rule_on_generated_dags(text):
    # each row 1.. falls in exactly one group, no parent appears twice in a group (the OR
    # of a group into its parents is one fancy-indexed update), and each parent's group
    # comes before its children's (the AND runs top-down and the OR bottom-up)
    t = parse_topology(text)
    for tree in t.trees.values():
        every, group_of = np.arange(len(tree.parent)), {}
        for g, (rows, parents) in enumerate(tree.groups):
            rows, parents = every[rows].tolist(), every[parents].tolist()
            assert parents == [tree.parent[j] for j in rows]
            assert len(set(parents)) == len(parents)
            for j in rows:
                assert group_of.setdefault(j, g) == g
        assert sorted(group_of) == list(range(1, len(tree.parent)))
        assert all(group_of.get(tree.parent[j], -1) < g for j, g in group_of.items())
    assert_counts_are_or_over_receivers_under(t)


def _count_moment_zs(t, n, runs):
    """The distance, in standard errors, of each count's mean and each pair's covariance over
    ``runs`` (replications of n probes per source) from its closed form.

    n_i(s) sums n independent probes of X_i, "some receiver below i saw the probe", so its
    mean is n gamma_i(s) and its covariance with n_k(s) is n (E[X_i X_k] - gamma_i gamma_k):
    E[X_i X_k] is gamma_i when k is i or an ancestor of i, and gamma_i gamma_k / A(s, lca)
    otherwise, since the subtrees below the lowest common ancestor draw on disjoint links;
    counts of different sources are independent."""
    keys = [(i, s) for s in t.sources for i in t.trees[s].row]
    gamma = np.array([t.path_rate(s, i) * t.subtree_rate[i] for i, s in keys])

    def up(i, s):
        """Node i of the tree of s and its ancestors, bottom-up."""
        tree = t.trees[s]
        nodes, j, path = list(tree.row), tree.row[i], [i]
        while j:
            j = tree.parent[j]
            path.append(nodes[j])
        return path

    joint = np.outer(gamma, gamma)  # across sources
    for a, (i, s) in enumerate(keys):
        for b, (k, r) in enumerate(keys):
            if r == s:
                above_i, above_k = up(i, s), up(k, s)
                if k in above_i:  # k is i or an ancestor of i
                    joint[a, b] = gamma[a]
                elif i in above_k:
                    joint[a, b] = gamma[b]
                else:
                    lca = next(u for u in above_i if u in above_k)
                    joint[a, b] = gamma[a] * gamma[b] / t.path_rate(s, lca)
    counts = np.array([[c.count(i, s) for i, s in keys] for c in runs], float)
    reps = len(counts)
    mean_z = (counts.mean(axis=0) - n * gamma) / np.sqrt(n * gamma * (1 - gamma) / reps)
    centred = counts - counts.mean(axis=0)
    products = centred[:, :, None] * centred[:, None, :]
    cov_z = ((products.sum(axis=0) / (reps - 1) - n * (joint - np.outer(gamma, gamma)))
             / (products.std(axis=0, ddof=1) / math.sqrt(reps)))
    return mean_z, cov_z


def test_simulate_runs_count_moments_equal_their_closed_forms():
    # every mean and covariance of the 32 counts must lie within 4.5 standard errors of its
    # closed form (the band, seeds and replication count were fixed before the first run)
    t, n, reps, band = parse_topology(with_loss(BIG_NETWORK, 0.2)), 200, 3000, 4.5
    mean_z, cov_z = _count_moment_zs(t, n, simulate_runs(t, n, range(reps)))
    assert np.abs(mean_z).max() < band, mean_z
    assert np.abs(cov_z).max() < band, cov_z


@pytest.mark.parametrize("text", [BIG_NETWORK, RECEIVER_JOINTS], ids=["big", "receiver-joints"])
def test_sample_counts_moments_equal_their_closed_forms(text):
    # the count-level sampler draws the joint distribution simulate_runs is held to: on
    # BIG_NETWORK its 32 means and 1,024 covariances, and on the receiver-joint topology its
    # 8 and 64, lie within the same 4.5 standard errors (the band, seed and replication count
    # were fixed before the first run)
    t, n, reps, band = parse_topology(with_loss(text, 0.2)), 200, 3000, 4.5
    rng = np.random.default_rng(14)
    mean_z, cov_z = _count_moment_zs(t, n, [sample_counts(t, n, rng) for _ in range(reps)])
    assert np.abs(mean_z).max() < band, mean_z
    assert np.abs(cov_z).max() < band, cov_z


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


@seed(27)
@settings(max_examples=100, deadline=None)
@given(text=multi_source_dags(), data=st.data(), chunk=st.sampled_from((1, 3, 8, 13, 64)),
       workers=st.sampled_from((1, 2, 3)))
def test_simulate_counts_equals_count_pass_of_simulate_on_generated_dags(text, data, chunk, workers):
    t = parse_topology(text)
    probes = {s: data.draw(st.integers(1, 40)) for s in t.sources}
    expected = count_pass(simulate(t, probes, 5), t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probes_module, "CHUNK", chunk)
        mp.setattr(probes_module, "WORKERS", workers)
        assert simulate_counts(t, probes, 5) == expected


@seed(30)
@settings(max_examples=100, deadline=None)
@given(text=multi_source_dags(), data=st.data(), chunk=st.sampled_from((1, 3, 8, 64, 2**18)),
       workers=st.sampled_from((1, 2, 3)))
def test_simulate_runs_equals_simulate_counts_of_each_seed(text, data, chunk, workers):
    # a window of 2**18 probes holds many replications of a short source; a long one,
    # sized so that a window holds 2-4 replications, makes a short seed list span several
    t = parse_topology(text)
    width = max(1, chunk // workers)
    if chunk == 2**18 and data.draw(st.booleans()):
        per_window = data.draw(st.integers(2, 4))
        longest, most = width // per_window - 128, 2 * per_window + 1
    else:
        longest, most = data.draw(st.integers(1, 40)), 12
    probes = {s: data.draw(st.integers(1, longest)) for s in t.sources}
    probes[data.draw(st.sampled_from(t.sources))] = longest
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=most))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probes_module, "CHUNK", chunk)
        mp.setattr(probes_module, "WORKERS", workers)
        assert list(simulate_runs(t, probes, seeds)) == [simulate_counts(t, probes, s) for s in seeds]


def spy_windows(monkeypatch):
    """Record (source, c0, m, seeds) of every window ``_draw`` draws, and check that
    ``_or_counts`` counts each drawn array once."""
    drawn, counted, lock = [], [], threading.Lock()

    def draw(t, s, seeds, n, c0, m):
        bits = _draw(t, s, seeds, n, c0, m)
        with lock:
            drawn.append(((s, c0, m, tuple(seeds)), bits))
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
    assert seen() == sorted([(first, c0, min(chunk, 13 - c0), (3,)) for c0 in starts]
                            + [(second, 0, 1, (3,))])


def test_workers_share_the_chunk(big_topology, monkeypatch):
    # two workers draw windows of CHUNK // 2, so CHUNK probes per source are in flight
    monkeypatch.setattr(probes_module, "CHUNK", 12)
    monkeypatch.setattr(probes_module, "WORKERS", 2)
    seen = spy_windows(monkeypatch)
    first, second = big_topology.sources
    simulate_counts(big_topology, {first: 13, second: 1}, seed=3)
    # the workers may draw in either order
    assert seen() == sorted([(first, 0, 6, (3,)), (first, 6, 6, (3,)), (first, 12, 1, (3,)),
                             (second, 0, 1, (3,))])


@pytest.mark.parametrize("workers", [1, 2])
def test_replications_share_windows_as_far_as_they_fit(big_topology, monkeypatch, workers):
    # a window holds the replications whose probes of the longest source, 13, and streams,
    # counted as 128 probes each, fit in CHUNK // WORKERS: two here, so five seeds take
    # three windows per source, the last with one seed
    monkeypatch.setattr(probes_module, "CHUNK", workers * (2 * (13 + 128) + 5))
    monkeypatch.setattr(probes_module, "WORKERS", workers)
    first, second = big_topology.sources
    probes, seeds = {first: 13, second: 1}, [5, 1, 4, 2, 3]
    expected = [simulate_counts(big_topology, probes, s) for s in seeds]
    seen = spy_windows(monkeypatch)
    assert list(simulate_runs(big_topology, probes, seeds)) == expected
    groups = ((5, 1), (4, 2), (3,))
    assert seen() == sorted([(first, 0, 13, g) for g in groups] + [(second, 0, 1, g) for g in groups])


def test_simulate_runs_memory_counts_each_stream(big_topology, monkeypatch):
    # a seed's stream takes about 1 KB, so 5,000 replications of 2 probes stay within
    # test_simulate_counts_memory_is_one_bit_per_tree_node_and_probe's bound for one
    # replication's windows of 2**15 probes only if each stream counts toward its window
    monkeypatch.setattr(probes_module, "CHUNK", 2**16)
    monkeypatch.setattr(probes_module, "WORKERS", 2)
    seeds = range(5000)
    next(simulate_runs(big_topology, 2, seeds))  # builds the trees
    tracemalloc.start()
    try:
        runs = sum(1 for _ in simulate_runs(big_topology, 2, seeds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs == 5000
    assert peak < 1.5 * 2**20, peak


def test_worker_exception_reaches_the_caller(big_topology, monkeypatch):
    calls, lock = [], threading.Lock()

    def failing(t, s, seeds, n, c0, m):
        with lock:
            calls.append((s, c0))
            second = len(calls) == 2
        if second:
            raise TopologyError("second window")
        return _draw(t, s, seeds, n, c0, m)

    monkeypatch.setattr(probes_module, "CHUNK", 4)
    monkeypatch.setattr(probes_module, "WORKERS", 2)
    monkeypatch.setattr(probes_module, "_draw", failing)
    before = threading.active_count()
    with pytest.raises(TopologyError, match="second window"):
        simulate_counts(big_topology, 40, seed=3)
    assert threading.active_count() == before  # the pool's threads were joined


@pytest.mark.parametrize("chunk", [1, 7, 12])
def test_chunk_bits_are_column_slices_of_simulate(big_topology, chunk):
    # link j of tree s draws probe k at offset j*n + k of each seed's stream, so probes
    # [c0, c0 + m) drawn alone are columns c0 .. c0 + m - 1 of the one-shot bits, at every
    # receiver, and seed i's row of a window of several seeds is what that seed draws alone
    t, seeds = big_topology, (3, 8, 3)
    for probes in probe_specs(t):
        for i, seed in enumerate(seeds):
            for s, observed in simulate(t, probes, seed).items():
                n = observed.shape[1]
                full = np.unpackbits(_draw(t, s, seeds, n, 0, n), axis=-1)[:, i]
                assert len(full) == len(t.trees[s].receivers)  # the draw hands out no inner node's state
                assert np.array_equal(full[:, :n], observed)
                for c0 in range(0, n, chunk):
                    m = min(chunk, n - c0)
                    part = np.unpackbits(_draw(t, s, seeds, n, c0, m), axis=-1)[:, i]
                    assert np.array_equal(part[:, :m], full[:, c0:c0 + m]), (s, c0)
                    assert not part[:, m:].any()  # _or_counts needs zero padding in every row


@pytest.mark.parametrize("probes", [
    0, {0: 100}, {0: 100, 1: 0}, 100.0, True, np.int64(0), np.bool_(True), "100", None,
    {0: 100, 1: 2.5}, {0: 100, 1: False}, {0: np.float64(100), 1: 100},
])
def test_simulate_counts_rejects_probe_counts_like_simulate(star22, probes):
    with pytest.raises(ValueError, match="needs a positive probe count") as one_shot:
        simulate(star22, probes, seed=1)
    with pytest.raises(ValueError) as chunked:
        simulate_counts(star22, probes, seed=1)
    assert str(chunked.value) == str(one_shot.value)


def test_probe_count_errors_name_the_source_and_the_value(star22):
    with pytest.raises(ValueError, match=r"^source 1 needs a positive probe count, got 2\.5$"):
        simulate(star22, {0: 100, 1: 2.5}, seed=1)
    with pytest.raises(ValueError, match=r"^source 0 needs a positive probe count, got True$"):
        simulate_counts(star22, True, seed=1)


@pytest.mark.parametrize("probes", [np.int64(100), np.uint16(100), {0: np.int64(100), 1: 100}])
def test_integer_probe_counts_of_any_integer_type_run_the_same_experiment(star22, probes):
    bits, counts = simulate(star22, 100, seed=4), simulate_counts(star22, 100, seed=4)
    got = simulate(star22, probes, seed=4)
    assert got.keys() == bits.keys()
    assert all(np.array_equal(got[s], bits[s]) for s in bits)
    got_counts = simulate_counts(star22, probes, seed=4)
    assert got_counts == counts
    assert all(type(n) is int for n in got_counts.probes.values())


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


def binary_tree_topology():
    """One source over a binary tree of depth 8 below its one link: 512 tree rows, 256 of
    them receivers."""
    lines = ["node 0", "node 1", "link 0 0 1 0.01", "source 0"]
    for i in range(1, 256):
        lines += [f"node {2 * i}", f"node {2 * i + 1}",
                  f"link {2 * i - 1} {i} {2 * i} 0.01", f"link {2 * i} {i} {2 * i + 1} 0.01"]
    lines += [f"receiver {r}" for r in range(256, 512)]
    t = parse_topology("\n".join(lines) + "\n")
    assert (len(t.trees[0].parent), len(t.trees[0].receivers)) == (512, 256)
    return t


def test_simulate_counts_memory_holds_no_second_bit_per_tree_row(monkeypatch):
    # a window of w probes may hold 9 bytes a probe for its draws, one bit per tree row
    # and one more per receiver; counting the OR rule's bits into a new array would add
    # another bit per tree row
    t, window = binary_tree_topology(), 2**15
    monkeypatch.setattr(probes_module, "CHUNK", window)
    monkeypatch.setattr(probes_module, "WORKERS", 1)
    simulate_counts(t, window + 5, seed=4)  # builds the trees and imports the thread pool
    tracemalloc.start()
    try:
        simulate_counts(t, window + 5, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (9 + (512 + 256) / 8) * window, peak


@pytest.mark.parametrize("n, seeds", [(2**14 - 128, 1), (2**12, 3), (2**9, 20), (100, 100)])
def test_simulate_runs_memory_in_link_blocks_stays_within_the_window(monkeypatch, n, seeds):
    # a window that holds every probe of its seeds draws 2 or 3 links a block, so its float64
    # draws and bool passes still take 9 bytes a probe of the window at most, besides one
    # bit per tree row and one more per receiver
    t, window = binary_tree_topology(), 2**15
    assert 2 <= window // (seeds * n) <= 3 and window // (n + 128) >= seeds
    monkeypatch.setattr(probes_module, "CHUNK", window)
    monkeypatch.setattr(probes_module, "WORKERS", 1)
    next(simulate_runs(t, n, [0]))  # builds the trees and their groups
    tracemalloc.start()
    try:
        assert sum(1 for _ in simulate_runs(t, n, range(seeds))) == seeds  # keeps no replication's counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (9 + (512 + 256) / 8) * window, peak


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
    # receiver rows are views of the matrices in obs, so no OR may write into one
    t = parse_topology(with_loss(BIG_NETWORK, 0.5))
    obs = simulate(t, 200, seed=6)
    before = {s: b.copy() for s, b in obs.items()}
    count_pass(obs, t)
    for s in t.sources:
        assert np.array_equal(obs[s], before[s])


def test_count_pass_rejects_bits_of_the_wrong_shape(star22):
    # source 0 of 2x2-equal reaches receivers 3 and 4: its matrix must be 2 x n with n >= 1
    for shape in [(10,), (2, 10, 1), (2, 0), (1, 10), (3, 10)]:
        expected = f"source 0: bits of shape {shape}, expected (2, n >= 1)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            count_pass({0: np.ones(shape, bool)}, star22)
    # bits of the right shape for a source the topology does not have
    with pytest.raises(ValueError, match="source 7: not a source of the topology"):
        count_pass({7: np.ones((2, 10), bool)}, star22)
    # the probe count is the column count, so the two cannot disagree; a source may be left out
    counts = count_pass({0: np.ones((2, 20), bool)}, star22)
    assert counts.probes == {0: 20} and gamma_hat(counts, 2, 0) == 1.0
    assert {s for _, s in counts.counts} == {0}


def test_count_pass_reads_0_and_1_of_any_dtype_and_rejects_other_values():
    # np.loadtxt gives floats; a 2 or a -1 is no observation, not a seen probe
    t = lossy()
    bits = np.array([[1, 1, 0], [0, 1, 0]], dtype=bool)
    expected = count_pass({0: bits}, t)
    for dtype in (int, np.uint8, float):
        assert count_pass({0: bits.astype(dtype)}, t) == expected, dtype
    for bad, value in [(2 * bits.astype(int), "2"), (-bits.astype(int), "-1"),
                       (np.where(bits, 0.5, 0.0), "0.5"), (np.where(bits, np.nan, 1.0), "nan")]:
        with pytest.raises(ValueError, match=re.escape(f"source 0: bit value {value}, expected 0 or 1")):
            count_pass({0: bad}, t)


def test_count_pass_rejects_a_missing_receiver_row(big_topology):
    # a receiver of T^0 without a row would count 0, which biases its loss upward, and a
    # row of a node outside T^0 has nothing to count: either gives the wrong row count
    t, s = big_topology, 0
    recv = receivers_below(t, s)
    rng = np.random.default_rng(2)
    for rows in (len(recv) - 1, len(recv) + 1):
        expected = f"source 0: bits of shape ({rows}, 60), expected ({len(recv)}, n >= 1)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            count_pass({s: rng.random((rows, 60)) < 0.5}, t)


def test_readme_python_block_runs(capsys):
    # the README's "Python API" example is the documented observation call
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(block, {})
    assert "('3', None)" in capsys.readouterr().out
