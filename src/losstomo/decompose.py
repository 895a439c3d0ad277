"""Decomposition of a general network into d-trees.

Joint nodes (more than one parent) root the intersections shared by several
multicast trees; a receiver joint's intersection holds no link, and its beta is 1.
Each intersection plus a virtual link per contributing source forms a
multi-source tree; the rest of each source's tree is its upstream fragment.
Serial link chains are merged into logical links because a chain rate can only
ever be estimated as a product.  A joint nested in another intersection, or
above a single chain, is rejected.  ``DTreePlan.children`` stores each logical
link once: an intersection has the links out of its nodes, a source's fragment
those out of the source and out of its ``path_walk`` nodes in no intersection.
``decompose`` gives each multi-source tree its nodes' children and links, which
the estimators walk; each source's path walks (``walks``) are built once per
plan, on first estimator use.
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


class MultiSourceTree(NamedTuple):
    joint: int
    sources: tuple[int, ...]  # S(joint), each joined to the joint by a virtual link of pass rate 1
    nodes: tuple[int, ...]  # intersection nodes, joint included
    kids: tuple[tuple[int, ...], ...]  # each node's children, in ``nodes`` order
    links: tuple[LogicalLink, ...]  # the links out of ``nodes``, in the same order


@dataclass(frozen=True)
class DTreePlan:
    topology: Topology
    msource_trees: tuple[MultiSourceTree, ...]
    # collapsed node -> its logical child links, sorted by link ids: each logical link, stored once
    children: dict[int, tuple[LogicalLink, ...]] = field(compare=False, repr=False)

    @property
    def joint_nodes(self) -> tuple[int, ...]:
        return tuple(mt.joint for mt in self.msource_trees)

    @cached_property
    def logical_links(self) -> tuple[LogicalLink, ...]:
        return tuple(sorted((l for kids in self.children.values() for l in kids),
                            key=attrgetter("link_ids")))

    @cached_property
    def walks(self) -> dict[int, tuple[tuple[tuple[int, tuple[LogicalLink, ...]], ...], ...]]:
        """Source -> its ``mle`` and its ``tree-baseline`` path walk, each as (node, its
        links) steps: ``path_walk`` past every intersection node, with the links into
        them (joints) first, and ``path_walk`` of the whole tree, links in ``children`` order."""
        solved = {n for mt in self.msource_trees for n in mt.nodes}

        def joints_first(step):  # the tree-baseline step itself where no link moves
            ordered = tuple(sorted(step[1], key=lambda l: l.tail not in solved))
            return step if ordered == step[1] else (step[0], ordered)

        whole = {s: tuple((n, self.children[n]) for n in self.path_walk(s)) for s in self.topology.sources}
        return {s: (tuple(joints_first(step) for step in steps if step[0] not in solved), steps)
                for s, steps in whole.items()}

    def path_walk(self, source: int, solved=()) -> list[int]:
        """The source's inner collapsed nodes outside ``solved``, children first (reverse
        tree-row order): the nodes whose path rates a per-source path solve sets."""
        return [n for n in reversed(self.topology.trees[source].row)
                if n != source and self.children.get(n) and n not in solved]


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


def _walk(children: dict[int, tuple[LogicalLink, ...]], root: int) -> list[int]:
    """Collapsed nodes at and below root, root first."""
    nodes, stack = [root], [root]
    while stack:
        for l in children[stack.pop()]:
            nodes.append(l.tail)
            stack.append(l.tail)
    return nodes


def decompose(t: Topology) -> DTreePlan:
    """Collapse serial chains and find the multi-source trees, whose roots are the joints."""
    children = _collapse(t)
    joints = sorted(n for n in children if t.in_degree[n] >= 2)
    joint_set = set(joints)

    msource_trees = []
    for j in joints:
        member_nodes = _walk(children, j)
        # earlier intersections hold no joint, so a joint below j is nested in it alone
        nested = joint_set.intersection(member_nodes[1:])
        if nested:
            raise UnsupportedTopologyError(
                f"joint node {min(nested)} lies inside the intersection rooted at {j}"
            )
        nodes = tuple(sorted(member_nodes))
        sources = tuple(s for s, tree in t.trees.items() if j in tree.row)
        kids = tuple(tuple(l.tail for l in children[n]) for n in nodes)
        links = tuple(l for n in nodes for l in children[n])
        msource_trees.append(MultiSourceTree(j, sources, nodes, kids, links))
    for j in joints:
        if len(children[j]) == 1:
            raise UnsupportedTopologyError(
                f"joint node {j} has a single descendant chain; its subtree rate "
                "cannot be separated from the per-source paths"
            )

    return DTreePlan(
        topology=t,
        msource_trees=tuple(msource_trees),
        children=children,
    )
