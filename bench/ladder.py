"""Deterministic ladder topologies for the benchmark.

Rung (S, D) has S sources.  Source s has one link to the root of its own
binary tree of depth D; that root also has one link into a joint node
shared by every source, and the joint roots a shared binary tree of depth
D.  The leaves of all trees are receivers and every link loses 1% of the
probes, so a rung is fully determined by (S, D).

Run ``python3 bench/ladder.py`` to check every rung.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

LOSS = 0.01

# node count of each rung: S * 2^(D+1) (source + private tree) + 2^(D+1) - 1 (shared tree)
RUNGS = {(2, 4): 95, (4, 6): 639, (8, 7): 2303, (16, 8): 8703}


def ladder(sources: int, depth: int) -> str:
    """Topology text of rung (sources, depth)."""
    node_lines: list[str] = []
    link_lines: list[str] = []
    receivers: list[int] = []

    def node() -> int:
        node_lines.append(f"node {len(node_lines)}")
        return len(node_lines) - 1

    def link(head: int, tail: int) -> None:
        link_lines.append(f"link {len(link_lines)} {head} {tail} {LOSS}")

    def binary_tree(root: int) -> None:
        level = [root]
        for _ in range(depth):
            nxt = []
            for u in level:
                for _ in range(2):
                    child = node()
                    link(u, child)
                    nxt.append(child)
            level = nxt
        receivers.extend(level)

    source_ids, roots = [], []
    for _ in range(sources):
        s = node()
        source_ids.append(s)
        root = node()
        link(s, root)
        roots.append(root)
        binary_tree(root)
    joint = node()
    for root in roots:
        link(root, joint)
    binary_tree(joint)
    lines = node_lines + link_lines
    lines += [f"source {s}" for s in source_ids]
    lines += [f"receiver {r}" for r in receivers]
    return "\n".join(lines) + "\n"


def check_rung(sources: int, depth: int, text: str | None = None) -> None:
    """Raise ValueError unless the rung parses, has one joint and the recorded node count."""
    from losstomo.decompose import decompose
    from losstomo.topology import parse_topology

    t = parse_topology(ladder(sources, depth) if text is None else text)
    if len(t.nodes) != RUNGS[(sources, depth)]:
        raise ValueError(
            f"rung {sources}x{depth}: {len(t.nodes)} nodes, expected {RUNGS[(sources, depth)]}"
        )
    plan = decompose(t)
    if len(plan.joint_nodes) != 1:
        raise ValueError(f"rung {sources}x{depth}: joints {plan.joint_nodes}, expected one")


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for (s, d), nodes in RUNGS.items():
        t0 = time.perf_counter()
        check_rung(s, d)
        print(f"rung {s}x{d}: {nodes} nodes, one joint, checked in {time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
