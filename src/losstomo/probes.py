"""Seeded Bernoulli probe simulation and reduction to pass counts.

Each source multicasts its probes down its own tree; every link drops a
probe independently with its loss rate.  Only receiver bits are observable;
internal-node states are inferred with the OR rule over the receivers below
a node, which is what the pass counts are built from.

Stream layout: in source s's stream, link j of ``t.trees[s].links`` draws
probe k of n at offset j*n + k, so any probe range can be drawn on its own by
advancing the stream.  ``_draw`` draws one source's probe range into a bit
matrix with one row per node of ``t.trees[s]``, eight probes a byte, and
``_or_counts`` applies the OR rule to it in place.  ``simulate``
unpacks the receivers' rows of ``_draw``; ``count_pass`` packs the observed
rows and counts them with ``_or_counts``.  ``simulate_counts`` counts
each source's probes in windows of CHUNK // WORKERS, one task per (source,
window), WORKERS at once on threads (numpy releases the GIL in the RNG fill
and the ufuncs).  At most CHUNK probes are in flight: one bit per tree node and
probe of the window's source, plus one float64 and one bool per probe for each
thread's draws, so memory grows with neither n, the number of sources nor the
CPU count; the windows' integer counts are summed, so it returns exactly
``count_pass(simulate(...))``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .solvers import NoDataError
from .topology import Topology, TopologyError, Tree

CHUNK = 1 << 18  # probes in flight in simulate_counts, over all its windows
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
            if (source, source) not in self.counts:  # every counted source has its own row
                raise NoDataError(f"no counts of source {source}") from None
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
    unknown = sorted(set(probes) - set(t.sources))
    if unknown:
        raise ValueError(f"probe counts for sources {unknown}, which the topology does not have")
    for s in t.sources:
        if probes.get(s, 0) < 1:
            raise ValueError(f"source {s} needs a positive probe count")
    return {s: probes[s] for s in t.sources}


def _draw(t: Topology, s: int, seed: int, n: int, c0: int, m: int) -> np.ndarray:
    """States of probes [c0, c0 + m) of the n source s sends at every node of T^s, packed
    eight probes a byte in the rows of ``t.trees[s]`` (row 0, the source's, is all ones)."""
    tree = t.trees[s]
    rng = source_stream(seed, s)
    stream = rng.bit_generator
    if c0:
        stream.advance(c0)
    draws, passed = np.empty(m), np.empty(m, dtype=bool)
    bits = np.empty((len(tree.parent), (m + 7) // 8), dtype=np.uint8)
    bits[0] = 0xFF
    for j, l in enumerate(tree.links, 1):  # parents first, in topological order
        rng.random(out=draws)
        np.less(draws, l.pass_rate, out=passed)
        np.bitwise_and(np.packbits(passed), bits[tree.parent[j]], out=bits[j])
        if m < n:
            stream.advance(n - m)  # to the same probe of the next link
    return bits


def _or_counts(tree: Tree, bits: np.ndarray) -> np.ndarray:
    """n_i(s) for every row of packed bits: the OR rule, bottom-up over the receivers' rows.

    Clears every row but the receivers', then ORs each row into its parent's in
    reverse row order, children before parents; the padding bits past the last probe
    must be 0 in the receivers' rows.  Writes into ``bits``."""
    bits[list(tree.inner)] = 0
    parent = tree.parent
    for j in range(len(parent) - 1, 0, -1):
        np.bitwise_or(bits[parent[j]], bits[j], out=bits[parent[j]])
    return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)


def _keyed(s: int, tree: Tree, counts: np.ndarray) -> dict[tuple[int, int], int]:
    """{(node, s): n_i(s)} from per-row counts, children before parents and the source last."""
    return dict(zip(((node, s) for node in reversed(tree.row)), reversed(counts.tolist())))


def simulate(t: Topology, probes: dict[int, int] | int, seed: int) -> ObservationSet:
    """Run one probing experiment; fully determined by (t, probes, seed)."""
    probes = _probe_counts(t, probes)
    receivers, bits = {}, {}
    for s, n in probes.items():
        tree = t.trees[s]
        nodes = tuple(tree.row)
        receivers[s] = tuple(nodes[j] for j in tree.receivers)
        packed = _draw(t, s, seed, n, 0, n)[list(tree.receivers)]
        bits[s] = np.unpackbits(packed, axis=1, count=n).view(bool)
    return ObservationSet(probes=probes, receivers=receivers, bits=bits)


def simulate_counts(t: Topology, probes: dict[int, int] | int, seed: int) -> PooledCounts:
    """``count_pass(simulate(t, probes, seed), t)``, drawn and counted in windows of
    CHUNK // WORKERS probes of one source, one bit per tree node and probe, up to WORKERS
    windows at once on threads.  Each thread also holds one float64 and one bool per probe
    of its window.  When every source fits in one window, they run in the calling thread."""
    probes = _probe_counts(t, probes)
    trees = t.trees  # a cached_property: build it here, not racing in the workers
    width = max(1, CHUNK // WORKERS)
    windows = [(s, c0) for s, n in probes.items() for c0 in range(0, n, width)]

    def count(window: tuple[int, int]) -> np.ndarray:
        s, c0 = window
        n = probes[s]
        return _or_counts(trees[s], _draw(t, s, seed, n, c0, min(width, n - c0)))

    if len(windows) == len(probes):
        per_window = map(count, windows)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(len(windows), WORKERS)) as pool:
            per_window = list(pool.map(count, windows))
    totals = dict.fromkeys(probes, 0)
    for (s, _), c in zip(windows, per_window):
        totals[s] = totals[s] + c
    counts: dict[tuple[int, int], int] = {}
    for s, c in totals.items():
        counts.update(_keyed(s, trees[s], c))
    return PooledCounts(probes=probes, counts=counts)


def count_pass(obs: ObservationSet, t: Topology) -> PooledCounts:
    """Reduce receiver bits to n_i(s) for every node i of every tree T^s.

    Packs each source's receiver rows into the layout of ``t.trees[s]`` and applies
    the OR rule bottom-up (``_or_counts``): a node's count is the number of probes that
    some receiver below it saw.  A receiver of T^s with no row counts 0, and rows of
    other nodes are ignored.  Raises ValueError unless each source is one of t's and its
    bits hold one row per listed receiver and one column per probe, with at least one probe;
    a missing ``obs.probes`` entry counts as 0 probes, a missing ``obs.bits`` one as 0x0 bits."""
    counts: dict[tuple[int, int], int] = {}
    for s, recv in obs.receivers.items():
        tree, shape = t.trees.get(s), (len(recv), obs.probes.get(s, 0))
        observed = obs.bits.get(s, np.empty((0, 0), dtype=bool))
        if tree is None or shape[1] < 1 or observed.shape != shape:
            raise ValueError(f"source {s}: not a source of the topology" if tree is None else
                             f"source {s}: bits of shape {observed.shape}, expected {shape}, n >= 1")
        bits = np.zeros((len(tree.parent), (observed.shape[1] + 7) // 8), dtype=np.uint8)
        for r, b in zip(recv, observed):
            if r in tree.row:
                bits[tree.row[r]] = np.packbits(b)
        counts.update(_keyed(s, tree, _or_counts(tree, bits)))
    return PooledCounts(probes=dict(obs.probes), counts=counts)


def gamma_hat(counts: PooledCounts, node: int, source: int) -> float:
    """Empirical end-to-end pass rate n_i(s) / n^s."""
    return counts.count(node, source) / counts.probes[source]
