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

from .topology import Link, Topology, UnsupportedTopologyError


@dataclass(frozen=True)
class LogicalLink:
    """A maximal serial chain of physical links, estimated as one unit."""

    head: int
    tail: int
    link_ids: tuple[int, ...]
    pass_rate: float  # product of the true physical pass rates

    @property
    def label(self) -> str:
        return "+".join(str(i) for i in self.link_ids)

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.pass_rate


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
    solve_order: tuple[int, ...]  # internal nodes, deepest first


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


def _collapse(t: Topology) -> tuple[dict[int, tuple[LogicalLink, ...]], set[int]]:
    """Merge serial chains; returns children map over surviving nodes."""
    ends = set(t.sources) | set(t.receivers)
    keep = {
        n
        for n in t.nodes
        if n in ends
        or len(t.in_links[n]) >= 2
        or len(t.out_links[n]) >= 2
    }
    children: dict[int, list[LogicalLink]] = {n: [] for n in keep}
    for u in keep:
        for first in t.out_links[u]:
            chain: list[Link] = [first]
            cur = first.tail
            while cur not in keep:
                (nxt,) = t.out_links[cur]
                chain.append(nxt)
                cur = nxt.tail
            rate = 1.0
            for l in chain:
                rate *= l.pass_rate
            children[u].append(
                LogicalLink(u, cur, tuple(l.id for l in chain), rate)
            )
    return {n: tuple(sorted(ls, key=lambda l: l.link_ids)) for n, ls in children.items()}, keep


def decompose(t: Topology) -> DTreePlan:
    """Split a topology into multi-source trees and per-source upstream fragments."""
    children, keep = _collapse(t)
    joints = sorted(n for n in keep if len(t.in_links[n]) >= 2)
    joint_set = set(joints)

    msource_trees = []
    inside: set[int] = set()  # intersection nodes excluding the joints
    for j in joints:
        member_nodes = [j]
        member_links: list[LogicalLink] = []
        stack = [j]
        while stack:
            u = stack.pop()
            for l in children[u]:
                member_links.append(l)
                member_nodes.append(l.tail)
                inside.add(l.tail)
                stack.append(l.tail)
        # earlier intersections hold no joint, so a joint in ``inside`` is below j
        nested = joint_set & inside
        if nested:
            raise UnsupportedTopologyError(
                f"joint node {min(nested)} lies inside the intersection rooted at {j}"
            )
        msource_trees.append(
            MultiSourceTree(
                joint=j,
                sources=t.sources_reaching(j),
                nodes=tuple(sorted(member_nodes)),
                links=tuple(sorted(member_links, key=lambda l: l.link_ids)),
            )
        )
    for j in joints:
        if len(children[j]) < 2:
            raise UnsupportedTopologyError(
                f"joint node {j} has a single descendant chain; its subtree rate "
                "cannot be separated from the per-source paths"
            )

    recv = set(t.receivers)
    depth_rank = {n: k for k, n in enumerate(t.order)}
    fragments = []
    for s in t.sources:
        members = t.tree_nodes[s]
        frag_nodes = [
            n for n in keep if n in members and n not in inside
        ]
        frag_links = [
            l
            for n in frag_nodes
            if n not in joint_set
            for l in children[n]
        ]
        # internal nodes that need a path-rate solve, deepest first
        internal = [
            n
            for n in frag_nodes
            if n not in joint_set and n not in recv and n != s
        ]
        internal.sort(key=lambda n: depth_rank[n], reverse=True)
        fragments.append(
            UpstreamFragment(
                source=s,
                nodes=tuple(sorted(frag_nodes)),
                links=tuple(sorted(frag_links, key=lambda l: l.link_ids)),
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
