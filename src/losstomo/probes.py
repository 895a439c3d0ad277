"""Seeded Bernoulli probe simulation and reduction to pass counts.

Each source multicasts its probes down its own tree; every link drops a
probe independently with its loss rate.  Only receiver bits are observable;
internal-node states are inferred with the OR rule over the receivers below
a node, which is what the pass counts are built from.

Stream layout: in source s's stream, link j of ``t.trees[s].links`` draws
probe k of n at offset j*n + k, so any probe range can be drawn on its own by
advancing the stream.  ``_draw`` draws one source's probe range at every node of
``t.trees[s]`` and returns the receivers' rows only, eight probes a byte.  An
observation is a plain dict of the same rows unpacked, source -> 0/1 matrix: row
k is the k-th receiver of T^s in ``receivers`` order, column k is probe k.
``simulate`` unpacks ``_draw``'s rows and ``count_pass`` packs them back, so
``_or_counts``, the OR rule, reads one form.  A source may be left out, a
receiver may not.  The draw's AND and the OR rule run per ``Tree.groups`` group.
``simulate_runs`` counts each source's probes in windows of CHUNK // WORKERS,
one task per (source, window), WORKERS at once on threads (numpy releases the
GIL in the RNG fill and the ufuncs); a window holds as many replications as fit.
At most CHUNK probes are in flight: two bits per receiver and one per other tree
node and probe of the window's source, plus at most one float64 and one bool per
probe of CHUNK // WORKERS for each thread's draws, so memory grows with neither n,
the number of sources or replications nor the CPU count; the windows' integer counts
are summed, so each replication gets exactly ``count_pass(simulate(...))``.
"""

from __future__ import annotations

import numbers
import os
from collections.abc import Iterable, Iterator
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
class PooledCounts:
    """n_i(s) for every node of every tree, plus the probe totals.

    ``memo`` holds the count-only work the estimators share on these counts, so the
    methods run on one replication do it once: each path root under a ("path", ...) key
    of its rates, and one ``estimators.IntersectionRecord`` per intersection under its
    joint (pooled counts, gamma-hats at the joint, link ratios, per-source subtree estimates).
    A failing computation is not stored.  The memo takes part in neither equality nor
    ``repr``."""

    probes: dict[int, int]  # source -> n^s
    counts: dict[tuple[int, int], int]  # (node, source) -> n_i(s)
    memo: dict[tuple | int, object] = field(default_factory=dict, compare=False, repr=False)

    def count(self, node: int, source: int) -> int:
        try:
            return self.counts[(node, source)]
        except KeyError:
            if (source, source) not in self.counts:  # every counted source has its own row
                raise NoDataError(f"no counts of source {source}") from None
            raise TopologyError(f"node {node} is not in the tree of source {source}") from None

    def pooled(self, node: int, sources) -> int:
        """n_i = sum of n_i(s) over the given sources."""
        return sum(self.count(node, s) for s in sources)


def integral(value) -> bool:
    """Whether ``value`` is an integer count: any ``numbers.Integral`` except a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _probe_counts(t: Topology, probes: dict[int, int] | int) -> dict[int, int]:
    """Source -> probe count as a Python int; a count that is not a dict is every source's."""
    if not isinstance(probes, dict):
        probes = dict.fromkeys(t.sources, probes)
    unknown = sorted(set(probes) - set(t.sources))
    if unknown:
        raise ValueError(f"probe counts for sources {unknown}, which the topology does not have")
    for s in t.sources:
        n = probes.get(s)
        if not integral(n) or n < 1:
            raise ValueError(f"source {s} needs a positive probe count, got {n!r}")
    return {s: int(probes[s]) for s in t.sources}


def _draw(t: Topology, s: int, seeds: list[int], n: int, c0: int, m: int) -> np.ndarray:
    """What the receivers of T^s see of probes [c0, c0 + m) of the n source s sends, for
    each seed: (receiver, seed, byte), receivers in ``t.trees[s].receivers`` order, packed
    eight probes a byte, with zero padding past m.  Each seed draws its row from its own
    stream.  The states of the other nodes are drawn but not returned.  A window of every
    probe (m == n), whose links are end to end in each stream, draws them in blocks of up
    to CHUNK // WORKERS probes, one ``random`` call per seed and block; others link by link."""
    tree = t.trees[s]
    streams = [source_stream(seed, s) for seed in seeds]
    rates = tree.pass_rates
    block = min(len(rates), max(1, CHUNK // WORKERS // (len(seeds) * m)) if m == n else 1)
    draws, passed = np.empty((block, m)), np.empty((len(seeds), block, m), dtype=bool)
    bits = np.empty((len(tree.parent), len(seeds), (m + 7) // 8), dtype=np.uint8)
    bits[0] = 0xFF
    if c0:
        for rng in streams:
            rng.bit_generator.advance(c0)
    for j in range(0, len(rates), block):  # links in row order
        b = min(block, len(rates) - j)
        d, p = draws[:b], rates[j:j + b]
        for rng, out in zip(streams, passed[:, :b]):
            rng.random(out=d)
            if m < n:
                rng.bit_generator.advance(n - m)  # to the same probe of the next link
            np.less(d, p, out=out)
        bits[j + 1:j + 1 + b] = np.packbits(passed[:, :b], axis=-1).swapaxes(0, 1)
    for rows, parents in tree.groups:
        bits[rows] &= bits[parents]
    return bits.take(tree.receivers, axis=0)


def _or_counts(tree: Tree, received: np.ndarray) -> np.ndarray:
    """n_i(s) for every row of ``tree``: the OR rule over the receivers' packed rows.

    ``received`` is packed like ``_draw``'s, per seed (row, seed counts) or not (row
    counts), with padding bits past the last probe 0.  Writes it into a zeroed row per
    tree node, ORs each group of ``Tree.groups`` into its parents', bottom-up, and counts
    the set bits in place, so the window's rows are all it holds."""
    bits = np.zeros((len(tree.parent), *received.shape[1:]), dtype=np.uint8)
    bits[list(tree.receivers)] = received
    for rows, parents in reversed(tree.groups):
        bits[parents] |= bits[rows]
    return np.bitwise_count(bits, out=bits).sum(axis=-1, dtype=np.int64)


def _pooled(t: Topology, probes: dict[int, int], rows: dict[int, np.ndarray]) -> PooledCounts:
    """``PooledCounts`` from each source's per-row counts, keyed children before parents."""
    counts = {}
    for s, c in rows.items():
        counts.update(zip(t.trees[s].count_keys, c[::-1].tolist()))
    return PooledCounts(probes, counts)


def simulate(t: Topology, probes: dict[int, int] | int, seed: int) -> dict[int, np.ndarray]:
    """Run one probing experiment; fully determined by (t, probes, seed).  Returns the
    receiver bits, source -> bool matrix: row k is the k-th receiver of T^s in
    ``t.receivers`` order, column k is probe k."""
    return {s: np.unpackbits(_draw(t, s, [seed], n, 0, n)[:, 0], axis=1, count=n).view(bool)
            for s, n in _probe_counts(t, probes).items()}


def simulate_runs(t: Topology, probes: dict[int, int] | int, seeds: Iterable[int]) -> Iterator[PooledCounts]:
    """``simulate_counts(t, probes, seed)`` for each of ``seeds``, in order.  A window
    holds as many seeds as fit in CHUNK // WORKERS probes of the longest source, counting
    a seed's stream as 128 probes; when each source has one window, they run in the
    calling thread."""
    probes = _probe_counts(t, probes)
    trees = t.trees  # cached_properties: build them here, not racing in the workers
    for tree in trees.values():
        tree.groups, tree.pass_rates, tree.count_keys
    width = max(1, CHUNK // WORKERS)
    seeds, k = list(seeds), max(1, width // (max(probes.values()) + 128))

    def count(window: tuple[int, int, list[int]]) -> np.ndarray:
        s, c0, group = window
        n = probes[s]
        return _or_counts(trees[s], _draw(t, s, group, n, c0, min(width, n - c0)))

    for g in range(0, len(seeds), k):
        group = seeds[g:g + k]
        windows = [(s, c0, group) for s, n in probes.items() for c0 in range(0, n, width)]
        if len(windows) == len(probes):
            per_window = map(count, windows)
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(min(len(windows), WORKERS)) as pool:
                per_window = list(pool.map(count, windows))
        totals = dict.fromkeys(probes, 0)
        for (s, _, _), c in zip(windows, per_window):
            totals[s] = totals[s] + c
        for i in range(len(group)):
            yield _pooled(t, probes, {s: c[:, i] for s, c in totals.items()})


def simulate_counts(t: Topology, probes: dict[int, int] | int, seed: int) -> PooledCounts:
    """``count_pass(simulate(t, probes, seed), t)``, drawn and counted in windows (the
    module docstring gives what a window holds): ``simulate_runs`` of the one seed."""
    return next(simulate_runs(t, probes, [seed]))


def count_pass(bits: dict[int, np.ndarray], t: Topology) -> PooledCounts:
    """Reduce receiver bits, as ``simulate`` returns them, to n_i(s) for every node i of
    every tree T^s in ``bits``; n^s is the column count of source s's matrix.

    Packs each source's matrix and applies the OR rule bottom-up (``_or_counts``): a
    node's count is the number of probes that some receiver below it saw.  Raises
    ValueError naming the source unless it is one of t's and its bits are a 2-D matrix
    of 0s and 1s (bool, int or float) with one row per receiver of its tree and at least
    one probe.  A source left out gets no counts; the estimators raise NoDataError for it."""
    probes, rows = {}, {}
    for s, observed in bits.items():
        tree, observed = t.trees.get(s), np.asarray(observed)
        shape = observed.shape
        if tree is None or len(shape) != 2 or shape[0] != len(tree.receivers) or shape[1] < 1:
            raise ValueError(f"source {s}: not a source of the topology" if tree is None else
                             f"source {s}: bits of shape {shape}, expected ({len(tree.receivers)}, n >= 1)")
        seen = observed == 1
        bad = observed[~seen & (observed != 0)]
        if bad.size:
            raise ValueError(f"source {s}: bit value {bad[0]}, expected 0 or 1")
        probes[s], rows[s] = shape[1], _or_counts(tree, np.packbits(seen, axis=1))
    return _pooled(t, probes, rows)


def gamma_hat(counts: PooledCounts, node: int, source: int) -> float:
    """Empirical end-to-end pass rate n_i(s) / n^s."""
    return counts.count(node, source) / counts.probes[source]
