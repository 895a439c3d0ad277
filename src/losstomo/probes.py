"""Seeded Bernoulli probe simulation and reduction to pass counts.

Each source multicasts its probes down its own tree; every link drops a
probe independently with its loss rate.  Only receiver bits are observable;
internal-node states are inferred with the OR rule over the receivers below
a node, which is what the pass counts are built from.

Stream layout: in source s's stream, link j of ``t.tree_parent[s]`` (in its
order) draws probe k of n at offset j*n + k, so any probe range can be drawn
on its own by advancing the stream.  ``simulate_counts`` counts the probes in
windows of CHUNK // WORKERS, each one ``ObservationSet`` of every source that
still has probes and one ``count_pass`` call, drawn WORKERS at once on threads
(numpy releases the GIL in the RNG fill and the ufuncs).  At most CHUNK probes
per source are in flight, about one byte per tree node and probe of each
source, so memory grows with neither n nor the CPU count; the windows' integer
counts are summed, so it returns exactly ``count_pass(simulate(...))``.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .topology import Topology, TopologyError

CHUNK = 1 << 18  # probes per source in flight in simulate_counts, over all its windows
# threads drawing windows in simulate_counts: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def source_stream(seed: int, source: int) -> np.random.Generator:
    """Independent per-source RNG stream derived from one experiment seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(source,)))


@dataclass(frozen=True)
class ObservationSet:
    """Receiver bit matrices, one per source (receivers x probes)."""

    probes: dict[int, int]  # source -> n^s
    receivers: dict[int, tuple[int, ...]]  # source -> receivers of T^s, sorted
    bits: dict[int, np.ndarray]  # source -> bool matrix, row order = receivers


@dataclass(frozen=True)
class PooledCounts:
    """n_i(s) for every node of every tree, plus the probe totals.

    ``roots`` memoises the root solves made on these counts: the estimators
    key each successful ``subtree_root`` / ``path_root`` return by the
    solver and its exact inputs, so every method run on one replication's
    counts solves each distinct root once.  A failing solve is not stored
    and runs again.  ``sums`` memoises ``pooled`` by node and sources, so
    ``counts`` must not change after the first ``pooled`` call.  Neither
    memo takes part in equality or ``repr``."""

    probes: dict[int, int]  # source -> n^s
    counts: dict[tuple[int, int], int]  # (node, source) -> n_i(s)
    roots: dict[tuple, float] = field(default_factory=dict, compare=False, repr=False)
    sums: dict[tuple, int] = field(default_factory=dict, compare=False, repr=False)

    def count(self, node: int, source: int) -> int:
        try:
            return self.counts[(node, source)]
        except KeyError:
            raise TopologyError(f"node {node} is not in the tree of source {source}") from None

    def pooled(self, node: int, sources) -> int:
        """n_i = sum of n_i(s) over the given sources."""
        key = (node, tuple(sources))
        total = self.sums.get(key)
        if total is None:
            total = self.sums[key] = sum(self.count(node, s) for s in key[1])
        return total


def _probe_counts(t: Topology, probes: dict[int, int] | int) -> dict[int, int]:
    if isinstance(probes, int):
        probes = {s: probes for s in t.sources}
    for s in t.sources:
        if probes.get(s, 0) < 1:
            raise ValueError(f"source {s} needs a positive probe count")
    return {s: probes[s] for s in t.sources}


def _receiver_bits(t: Topology, s: int, seed: int, n: int, c0: int, m: int):
    """Receivers of T^s and their bits for probes [c0, c0 + m) of the n source s sends."""
    rng = source_stream(seed, s)
    stream = rng.bit_generator
    if c0:
        stream.advance(c0)
    state: dict[int, np.ndarray] = {s: np.ones(m, dtype=bool)}
    for l in t.tree_parent[s].values():  # parents first, in topological order
        state[l.tail] = state[l.head] & (rng.random(m) < l.pass_rate)
        if m < n:
            stream.advance(n - m)  # to the same probe of the next link
    recv = tuple(r for r in t.receivers if r in state)
    return recv, np.vstack([state[r] for r in recv])


def _window(t: Topology, probes: dict[int, int], seed: int, c0: int, width: int) -> ObservationSet:
    """Bits of probes [c0, c0 + width) of every source that sends more than c0."""
    sizes = {s: min(width, n - c0) for s, n in probes.items() if n > c0}
    receivers, bits = {}, {}
    for s, m in sizes.items():
        receivers[s], bits[s] = _receiver_bits(t, s, seed, probes[s], c0, m)
    return ObservationSet(probes=sizes, receivers=receivers, bits=bits)


def simulate(t: Topology, probes: dict[int, int] | int, seed: int) -> ObservationSet:
    """Run one probing experiment; fully determined by (t, probes, seed)."""
    probes = _probe_counts(t, probes)
    return _window(t, probes, seed, 0, max(probes.values()))


def simulate_counts(t: Topology, probes: dict[int, int] | int, seed: int) -> PooledCounts:
    """``count_pass(simulate(t, probes, seed), t)``, drawing windows of CHUNK // WORKERS
    probes per source on up to WORKERS threads; one window runs in the calling thread."""
    probes = _probe_counts(t, probes)
    width = max(1, CHUNK // WORKERS)
    starts = range(0, max(probes.values()), width)

    def window(c0: int) -> dict[tuple[int, int], int]:
        return count_pass(_window(t, probes, seed, c0, width), t).counts

    counts: Counter[tuple[int, int]] = Counter()
    if len(starts) == 1:
        counts.update(window(0))
    else:
        from concurrent.futures import ThreadPoolExecutor

        t.tree_parent  # a cached_property: build it here, not racing in the workers
        with ThreadPoolExecutor(min(len(starts), WORKERS)) as pool:
            for c in pool.map(window, starts):
                counts.update(c)
    return PooledCounts(probes=probes, counts=dict(counts))


def count_pass(obs: ObservationSet, t: Topology) -> PooledCounts:
    """Reduce receiver bits to n_i(s) for every node i of every tree T^s.

    Bottom-up OR rule over the links of ``t.tree_parent[s]``, children before
    parents: each tail's vector (its bit row, or the OR of its children's) is
    counted and ORed into its head's; the source is counted last.  A tree node
    with no vector counts 0, and rows of nodes outside T^s are ignored."""
    counts: dict[tuple[int, int], int] = {}
    for s, recv in obs.receivers.items():
        up = t.tree_parent[s]
        vec = dict(zip(recv, obs.bits[s]))
        for node in (*reversed(up), s):
            v = vec.pop(node, None)
            counts[(node, s)] = 0 if v is None else int(np.count_nonzero(v))
            if v is not None and node != s:  # a new array: receiver rows are views of obs.bits
                head = up[node].head
                vec[head] = vec[head] | v if head in vec else v
    return PooledCounts(probes=dict(obs.probes), counts=counts)


def gamma_hat(counts: PooledCounts, node: int, source: int) -> float:
    """Empirical end-to-end pass rate n_i(s) / n^s."""
    return counts.count(node, source) / counts.probes[source]
