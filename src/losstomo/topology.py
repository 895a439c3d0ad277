"""Network model: nodes, directed lossy links, and multicast-tree coverage.

A topology is a DAG in which every source has exactly one outgoing link,
every receiver is a sink, and the links reachable from a single source form
a tree (a node may have several parents overall, but at most one per source).
Link reliability is stored internally as a pass rate; topology files declare
the complementary loss rate.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class TopologyError(ValueError):
    """Malformed or inconsistent topology description."""


class UnsupportedTopologyError(TopologyError):
    """Valid input ``decompose`` rejects: a joint nested in an intersection, or a single-chain one."""


class Link(NamedTuple):
    id: int
    head: int
    tail: int
    pass_rate: float


@dataclass(frozen=True)
class Tree:
    """One source's multicast tree as the rows of a bit matrix: row 0 is the source and
    row j >= 1 the tail of ``links[j - 1]``.  Probes are drawn over every row, but only
    the ``receivers`` rows leave the draw; the OR rule rebuilds the rest from them.

    The links are ordered by the position of each link's head in ``order``, then by link
    id, so a parent's row precedes its children's, which are adjacent, and every per-source
    walk visits children first in reverse row order.  This order is the probe stream
    layout (see the ``probes`` module docstring): changing it changes every simulated probe."""

    row: dict[int, int]  # tree node -> its row, in row order
    links: tuple[Link, ...]  # links[j - 1] is the link into row j
    parent: tuple[int, ...]  # each row's parent row (parent[0] = 0)
    receivers: tuple[int, ...]  # rows of the tree's receivers, in ``receivers`` order

    @cached_property
    def groups(self) -> tuple[tuple[slice | np.ndarray, slice | np.ndarray], ...]:
        """Rows 1.. as (rows, their parents' rows) pairs, one per depth and rank among
        siblings, by depth: no parent appears twice in a group and each parent's group
        precedes its children's.  A contiguous run is a slice.  Built on first use."""
        depth, rank, groups = [0, 1], 0, {(1, 0): [1]}
        for j, p in enumerate(self.parent[2:], 2):
            depth.append(depth[p] + 1)
            rank = rank + 1 if self.parent[j - 1] == p else 0
            groups.setdefault((depth[j], rank), []).append(j)

        def index(rows: list[int]) -> slice | np.ndarray:
            run = range(rows[0], rows[0] + len(rows))
            return slice(run.start, run.stop) if rows == list(run) else np.array(rows)
        return tuple((index(rows), index([self.parent[j] for j in rows]))
                     for _, rows in sorted(groups.items()))

    @cached_property
    def pass_rates(self) -> np.ndarray:
        """Each link's pass rate, a read-only column in ``links`` order.  Built on first use."""
        rates = np.array([l.pass_rate for l in self.links])[:, None]
        rates.flags.writeable = False
        return rates

    @cached_property
    def count_keys(self) -> tuple[tuple[int, int], ...]:
        """(node, source) of each row, last row first: the keys of the tree's counts in
        ``PooledCounts``, children before parents.  Built on first use."""
        source = next(iter(self.row))
        return tuple((node, source) for node in reversed(self.row))


@dataclass(frozen=True)
class Topology:
    nodes: frozenset[int]
    links: tuple[Link, ...]  # sorted by id
    sources: tuple[int, ...]
    receivers: tuple[int, ...]  # sorted

    @cached_property
    def out_links(self) -> dict[int, tuple[Link, ...]]:
        """Each node's outgoing links, in id order (``links`` is id-sorted)."""
        out: dict[int, list[Link]] = {n: [] for n in self.nodes}
        for l in self.links:
            out[l.head].append(l)
        return {n: tuple(ls) for n, ls in out.items()}

    @cached_property
    def in_degree(self) -> Counter[int]:
        """Number of links into each node (0 for a node no link enters)."""
        return Counter(l.tail for l in self.links)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Topological order, smallest ready node first; computed once."""
        return tuple(toposort(self))

    @cached_property
    def trees(self) -> dict[int, Tree]:
        """Each source's multicast tree, from one scan of ``order`` per source."""
        recv_set = set(self.receivers)
        trees = {}
        for s in self.sources:
            row, links = {s: 0}, []
            for u in self.order:
                if u not in row:
                    continue
                for l in self.out_links[u]:
                    if l.tail in row:
                        raise TopologyError(
                            f"node {l.tail} has more than one parent inside the tree of source {s}"
                        )
                    row[l.tail] = len(row)
                    links.append(l)
            parent = (0, *(row[l.head] for l in links))
            receivers = tuple(row[r] for r in sorted(recv_set.intersection(row)))
            trees[s] = Tree(row, tuple(links), parent, receivers)
        return trees

    def path_rate(self, source: int, node: int) -> float:
        """True pass rate A(source, node) of the path from source down to node."""
        tree = self.trees[source]
        j = tree.row.get(node)
        if j is None:
            raise TopologyError(f"node {node} is not in the tree of source {source}")
        rate = 1.0
        while j:
            rate *= tree.links[j - 1].pass_rate
            j = tree.parent[j]
        return rate

    @cached_property
    def subtree_rate(self) -> dict[int, float]:
        """True beta of each node: P(at least one receiver below sees a probe at the node)."""
        beta: dict[int, float] = {}
        for u in reversed(self.order):
            kids = self.out_links[u]
            if not kids:
                beta[u] = 1.0
            else:
                miss = 1.0
                for l in kids:
                    miss *= 1.0 - l.pass_rate * beta[l.tail]
                beta[u] = 1.0 - miss
        return beta


def toposort(t: Topology) -> list[int]:
    indeg = dict(t.in_degree)  # a plain dict: Counter's copy and item updates run slower
    ready = sorted(n for n in t.nodes if not indeg.get(n))  # a sorted list is a heap
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for l in t.out_links[u]:
            indeg[l.tail] -= 1
            if indeg[l.tail] == 0:
                heapq.heappush(ready, l.tail)
    if len(order) != len(t.nodes):
        raise TopologyError("topology contains a cycle")
    return order


def parse_topology(text: str) -> Topology:
    """Parse the line-oriented topology format.

    Directives: ``node <id>``, ``link <id> <from> <to> <loss_rate>``,
    ``source <node_id>``, ``receiver <node_id>``.  ``#`` starts a comment.
    Loss rates are converted to pass rates on ingest.
    """
    nodes: set[int] = set()
    links: list[Link] = []
    link_ids: set[int] = set()
    sources: set[int] = set()
    receivers: set[int] = set()

    def fail(lineno: int, msg: str):
        raise TopologyError(f"line {lineno}: {msg}")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "node":
                _, nid = parts
                nid = int(nid)
                if nid < 0:
                    fail(lineno, f"negative node id {nid}")
                if nid in nodes:
                    fail(lineno, f"duplicate node id {nid}")
                nodes.add(nid)
            elif kind == "link":
                _, lid, head, tail, loss = parts
                lid, head, tail, loss = int(lid), int(head), int(tail), float(loss)
                if lid < 0:
                    fail(lineno, f"negative link id {lid}")
                if lid in link_ids:
                    fail(lineno, f"duplicate link id {lid}")
                if not 0.0 <= loss <= 1.0:
                    fail(lineno, f"pass rate out of range: link {lid} loss {loss}")
                if head not in nodes or tail not in nodes:
                    fail(lineno, f"link {lid} references undeclared node")
                link_ids.add(lid)
                links.append(Link(lid, head, tail, 1.0 - loss))
            elif kind == "source" or kind == "receiver":
                _, nid = parts
                nid = int(nid)
                if nid not in nodes:
                    fail(lineno, f"{kind} references undeclared node {nid}")
                seen = sources if kind == "source" else receivers
                if nid in seen:
                    fail(lineno, f"duplicate {kind} {nid}")
                seen.add(nid)
            else:
                fail(lineno, f"unknown directive {kind!r}")
        except TopologyError:
            raise
        except ValueError:
            fail(lineno, f"syntax error: {line.strip()!r}")

    if not links:
        raise TopologyError("no links")
    if not sources:
        raise TopologyError("no sources declared")
    if not receivers:
        raise TopologyError("no receivers declared")

    t = Topology(
        nodes=frozenset(nodes),
        links=tuple(sorted(links)),  # by id, since ids are unique and come first
        sources=tuple(sorted(sources)),
        receivers=tuple(sorted(receivers)),
    )
    validate(t)
    return t


def validate(t: Topology) -> None:
    t.order  # raises on cycles
    src_set, recv_set = set(t.sources), set(t.receivers)
    if src_set & recv_set:
        raise TopologyError(f"nodes {sorted(src_set & recv_set)} declared both source and receiver")
    for s in t.sources:
        if t.in_degree[s]:
            raise TopologyError(f"source {s} has incoming links")
        if len(t.out_links[s]) != 1:
            raise TopologyError(f"source {s} must have exactly one outgoing link")
    for r in t.receivers:
        if t.out_links[r]:
            raise TopologyError(f"receiver {r} has outgoing links")
    for n in t.nodes:
        if not t.out_links[n] and n not in recv_set:
            raise TopologyError(f"node {n} is a sink but not declared a receiver")
        if not t.in_degree[n] and n not in src_set:
            raise TopologyError(f"node {n} is a root but not declared a source")
    t.trees  # raises on a node with two parents in one tree
