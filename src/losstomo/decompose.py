"""Decomposition of a general network into d-trees.

Joint nodes (more than one parent) root the intersections shared by several
multicast trees.  Each intersection plus a virtual link per contributing
source forms a multi-source tree; everything above the joint nodes stays in
per-source fragments.  Serial link chains are merged into logical links
because a chain rate can only ever be estimated as a product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .topology import Topology, UnsupportedTopologyError


class LogicalLink(NamedTuple):
    """A maximal serial chain of physical links, estimated as one unit."""

    head: int
    tail: int
    link_ids: tuple[int, ...]
    pass_rate: float  # product of the true physical pass rates
    label: str  # the link ids joined by "+"


@dataclass(frozen=True)
class MultiSourceTree:
    joint: int
    sources: tuple[int, ...]  # S(joint), each joined to the joint by a virtual link of pass rate 1
    nodes: tuple[int, ...]  # intersection nodes, joint included
    links: tuple[LogicalLink, ...]


@dataclass(frozen=True)
class UpstreamFragment:
    source: int
    nodes: tuple[int, ...]  # fragment nodes; joint nodes appear as leaves
    links: tuple[LogicalLink, ...]
    solve_order: tuple[int, ...]  # internal nodes, in reverse tree-row order


@dataclass(frozen=True)
class DTreePlan:
    topology: Topology
    joint_nodes: tuple[int, ...]
    msource_trees: tuple[MultiSourceTree, ...]
    fragments: tuple[UpstreamFragment, ...]
    # collapsed node -> its logical child links, sorted by link ids; read by every estimator
    children: dict[int, tuple[LogicalLink, ...]] = field(compare=False, repr=False)

    @cached_property
    def logical_links(self) -> tuple[LogicalLink, ...]:
        links = [l for mt in self.msource_trees for l in mt.links]
        links.extend(l for frag in self.fragments for l in frag.links)
        return tuple(sorted(links, key=lambda l: l.link_ids))


def _collapse(t: Topology) -> dict[int, tuple[LogicalLink, ...]]:
    """Merge serial chains; returns children map over surviving nodes.

    A node's chains start with its out_links, which come in id order, so its
    logical links come out sorted by link ids."""
    ends = set(t.sources) | set(t.receivers)
    keep = {
        n
        for n in t.nodes
        if n in ends
        or t.in_degree[n] >= 2
        or len(t.out_links[n]) >= 2
    }
    children: dict[int, tuple[LogicalLink, ...]] = {}
    for u in keep:
        kids = []
        for first in t.out_links[u]:
            ids, rate, cur = [first.id], first.pass_rate, first.tail
            while cur not in keep:
                (nxt,) = t.out_links[cur]
                ids.append(nxt.id)
                rate *= nxt.pass_rate
                cur = nxt.tail
            kids.append(LogicalLink(u, cur, tuple(ids), rate, "+".join(map(str, ids))))
        children[u] = tuple(kids)
    return children


def _walk(children: dict[int, tuple[LogicalLink, ...]], root: int, stop=frozenset()):
    """Collapsed nodes (root first) and links below root, not descending below nodes in stop."""
    nodes, links, stack = [root], [], [root]
    while stack:
        for l in children[stack.pop()]:
            links.append(l)
            nodes.append(l.tail)
            if l.tail not in stop:
                stack.append(l.tail)
    return nodes, links


def decompose(t: Topology) -> DTreePlan:
    """Split a topology into multi-source trees and per-source upstream fragments."""
    children = _collapse(t)
    joints = sorted(n for n in children if t.in_degree[n] >= 2)
    joint_set = set(joints)
    by_ids = attrgetter("link_ids")

    msource_trees = []
    for j in joints:
        member_nodes, member_links = _walk(children, j)
        # earlier intersections hold no joint, so a joint below j is nested in it alone
        nested = joint_set.intersection(member_nodes[1:])
        if nested:
            raise UnsupportedTopologyError(
                f"joint node {min(nested)} lies inside the intersection rooted at {j}"
            )
        msource_trees.append(
            MultiSourceTree(
                joint=j,
                sources=tuple(s for s, tree in t.trees.items() if j in tree.row),
                nodes=tuple(sorted(member_nodes)),
                links=tuple(sorted(member_links, key=by_ids)),
            )
        )
    for j in joints:
        if not children[j]:
            raise UnsupportedTopologyError(f"joint node {j} is a receiver reached from several "
                                           "sources; its intersection holds no link to estimate")
        if len(children[j]) < 2:
            raise UnsupportedTopologyError(
                f"joint node {j} has a single descendant chain; its subtree rate "
                "cannot be separated from the per-source paths"
            )

    fragments = []
    for s in t.sources:
        # a source's tree reaches an intersection only through its joint (no joint is nested)
        frag_nodes, frag_links = _walk(children, s, joint_set)
        # internal nodes that need a path-rate solve, children before parents
        inside = set(frag_nodes[1:]) - joint_set
        internal = [n for n in reversed(t.trees[s].row) if n in inside and children[n]]
        fragments.append(
            UpstreamFragment(
                source=s,
                nodes=tuple(sorted(frag_nodes)),
                links=tuple(sorted(frag_links, key=by_ids)),
                solve_order=tuple(internal),
            )
        )

    return DTreePlan(
        topology=t,
        joint_nodes=tuple(joints),
        msource_trees=tuple(msource_trees),
        fragments=tuple(fragments),
        children=children,
    )
