"""Seeded Bernoulli probe simulation and reduction to pass counts.

Each source multicasts its probes down its own tree; every link drops a
probe independently with its loss rate.  Only receiver bits are observable;
internal-node states are inferred with the OR rule over the receivers below
a node, which is what the pass counts are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .topology import Topology, TopologyError


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
    """n_i(s) for every node of every tree, plus the probe totals."""

    probes: dict[int, int]  # source -> n^s
    counts: dict[tuple[int, int], int]  # (node, source) -> n_i(s)

    def count(self, node: int, source: int) -> int:
        try:
            return self.counts[(node, source)]
        except KeyError:
            raise TopologyError(f"node {node} is not in the tree of source {source}") from None

    def pooled(self, node: int, sources) -> int:
        """n_i = sum of n_i(s) over the given sources."""
        return sum(self.count(node, s) for s in sources)


def simulate(t: Topology, probes: dict[int, int] | int, seed: int) -> ObservationSet:
    """Run one probing experiment; fully determined by (t, probes, seed)."""
    if isinstance(probes, int):
        probes = {s: probes for s in t.sources}
    for s in t.sources:
        if probes.get(s, 0) < 1:
            raise ValueError(f"source {s} needs a positive probe count")

    receivers = {}
    bits = {}
    for s in t.sources:
        rng = source_stream(seed, s)
        n = probes[s]
        state: dict[int, np.ndarray] = {s: np.ones(n, dtype=bool)}
        for l in t.tree_parent[s].values():  # parents first, in topological order
            passed = rng.random(n) < l.pass_rate
            state[l.tail] = state[l.head] & passed
        recv = tuple(r for r in t.receivers if r in state)
        receivers[s] = recv
        bits[s] = np.vstack([state[r] for r in recv])
    return ObservationSet(probes=dict(probes), receivers=receivers, bits=bits)


def count_pass(obs: ObservationSet, t: Topology) -> PooledCounts:
    """Reduce receiver bits to n_i(s) for every node i of every tree T^s.

    Bottom-up OR rule in reverse topological order: a receiver sees its bit
    row, an internal node the OR of its children's vectors, each dropped once used."""
    counts: dict[tuple[int, int], int] = {}
    for s, recv in obs.receivers.items():
        row = dict(zip(recv, obs.bits[s]))
        members = t.tree_nodes[s]
        seen: dict[int, np.ndarray] = {}
        for node in reversed(t.order):
            if node not in members:
                continue
            kids = [seen.pop(c) for c in t.children(node) if c in seen]
            if node in row:
                kids.append(row[node])
            if kids:
                seen[node] = reduce(np.logical_or, kids)
            counts[(node, s)] = int(np.count_nonzero(seen[node])) if kids else 0
    return PooledCounts(probes=dict(obs.probes), counts=counts)


def gamma_hat(counts: PooledCounts, node: int, source: int) -> float:
    """Empirical end-to-end pass rate n_i(s) / n^s."""
    return counts.count(node, source) / counts.probes[source]
