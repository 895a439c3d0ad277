import pytest
from hypothesis import strategies as st

from losstomo.decompose import decompose
from losstomo.harness import SETTINGS
from losstomo.probes import PooledCounts
from losstomo.topology import parse_topology

# the 25-node two-source network used throughout: two binary trees whose
# subtrees below node 2 coincide
BIG_NETWORK = """
node 16
node 0
node 17
node 1
node 18
node 2
node 3
node 19
node 20
node 4
node 5
node 6
node 7
node 21
node 22
node 23
node 24
node 8
node 9
node 10
node 11
node 12
node 13
node 14
node 15
link 0 16 17 0.01
link 1 0 1 0.01
link 2 17 18 0.01
link 3 17 2 0.01
link 4 1 2 0.01
link 5 1 3 0.01
link 6 18 19 0.01
link 7 18 20 0.01
link 8 2 4 0.01
link 9 2 5 0.01
link 10 3 6 0.01
link 11 3 7 0.01
link 12 19 21 0.01
link 13 19 22 0.01
link 14 20 23 0.01
link 15 20 24 0.01
link 16 4 8 0.01
link 17 4 9 0.01
link 18 5 10 0.01
link 19 5 11 0.01
link 20 6 12 0.01
link 21 6 13 0.01
link 22 7 14 0.01
link 23 7 15 0.01
source 16
source 0
receiver 21
receiver 22
receiver 23
receiver 24
receiver 8
receiver 9
receiver 10
receiver 11
receiver 12
receiver 13
receiver 14
receiver 15
"""

SINGLE_TREE = """
node 0
node 1
node 2
node 3
node 4
node 5
link 1 0 1 0.02
link 2 1 2 0.05
link 3 1 3 0.1
link 4 3 4 0.05
link 5 3 5 0.02
source 0
receiver 2
receiver 4
receiver 5
"""

# a single source whose first two links form a serial chain, collapsed to "1+2"
CHAIN_TREE = (
    "node 0\nnode 1\nnode 2\nnode 3\nnode 4\n"
    "link 1 0 1 0.1\nlink 2 1 2 0.2\nlink 3 2 3 0.1\nlink 4 2 4 0.1\n"
    "source 0\nreceiver 3\nreceiver 4\n"
)


def reachable(t, node) -> set[int]:
    """The nodes reachable from node along ``out_links``, node included.

    An oracle that reads no ``Topology.trees``: taken from a source it is that
    source's tree, and R(node) is the receivers in it, in ``receivers`` order."""
    seen, stack = {node}, [node]
    while stack:
        for l in t.out_links[stack.pop()]:
            if l.tail not in seen:
                seen.add(l.tail)
                stack.append(l.tail)
    return seen


def receivers_below(t, node) -> tuple[int, ...]:
    """R(node) by ``reachable``."""
    below = reachable(t, node)
    return tuple(r for r in t.receivers if r in below)


def scaled_counts(counts: PooledCounts, k: int) -> PooledCounts:
    """``counts`` with every n_i(s) and every n^s multiplied by k: the same empirical rates."""
    return PooledCounts(probes={s: k * n for s, n in counts.probes.items()},
                        counts={key: k * c for key, c in counts.counts.items()})


def relabelled_topology(text: str, node_map: dict[int, int], link_map: dict[int, int]) -> str:
    """Topology text (directives only, no comments) with node u renamed node_map[u] and
    link i renamed link_map[i]; loss rates are copied as written."""
    lines = []
    for line in text.splitlines():
        kind, *args = line.split()
        if kind == "link":
            lid, head, tail, loss = args
            args = [link_map[int(lid)], node_map[int(head)], node_map[int(tail)], loss]
        else:
            args = [node_map[int(args[0])]]
        lines.append(" ".join(map(str, [kind, *args])))
    return "\n".join(lines) + "\n"


def relabelled_counts(counts: PooledCounts, node_map: dict[int, int]) -> PooledCounts:
    """``counts`` with every node and source id u renamed node_map[u]."""
    return PooledCounts(probes={node_map[s]: n for s, n in counts.probes.items()},
                        counts={(node_map[i], node_map[s]): c for (i, s), c in counts.counts.items()})


def split_link(text: str, link_id: int) -> tuple[str, int, int]:
    """Topology text (directives only, no comments) with link ``link_id`` h->u split through
    a new node m: h->m keeps the link's id and loss rate, and a new lossless link m->u
    follows, so the chain's pass rate p * 1.0 is p exactly.  Returns the text, m and the
    new link's id, each one more than the largest id of its kind."""
    lines = text.splitlines()
    m = 1 + max(int(line.split()[1]) for line in lines if line.startswith("node "))
    new = 1 + max(int(line.split()[1]) for line in lines if line.startswith("link "))
    out = [f"node {m}"]
    for line in lines:
        kind, *args = line.split()
        if kind == "link" and int(args[0]) == link_id:
            lid, head, tail, loss = args
            out += [f"link {lid} {head} {m} {loss}", f"link {new} {m} {tail} 0.0"]
        else:
            out.append(line)
    return "\n".join(out) + "\n", m, new


def split_counts(counts: PooledCounts, tail: int, m: int) -> PooledCounts:
    """``counts`` with n_m(s) = n_tail(s) for every source that reaches ``tail``: the OR
    rule, since the receivers below m are those below tail."""
    below = {(m, s): c for (i, s), c in counts.counts.items() if i == tail}
    return PooledCounts(probes=dict(counts.probes), counts={**counts.counts, **below})


@pytest.fixture
def big_topology():
    return parse_topology(BIG_NETWORK)


@pytest.fixture
def big_plan(big_topology):
    return decompose(big_topology)


@pytest.fixture
def star22():
    return parse_topology(SETTINGS["2x2-equal"])


@pytest.fixture
def star22_plan(star22):
    return decompose(star22)


@pytest.fixture
def single_tree():
    return parse_topology(SINGLE_TREE)


@pytest.fixture
def serial_plan():
    return decompose(parse_topology(CHAIN_TREE))


@st.composite
def multi_source_dags(draw):
    """Topology text of a random multi-source DAG that parses and decomposes.

    2-4 sources, each reaching its top node through a serial chain of 1-3
    links; 1-3 joints, each fed by the tops of a random subset of at least two
    sources and rooting a shared subtree; tops in no joint's subset get a
    private subtree, others may.  Subtree nodes have 1-3 children, so serial
    chains appear below the tops too, and every joint has at least two.
    Node ids are shuffled, link ids have gaps, and the link lines come in a
    shuffled id order."""
    n_sources = draw(st.integers(2, 4))
    edges: list[tuple[int, int]] = []
    receivers: list[int] = []
    count = [0]

    def node() -> int:
        count[0] += 1
        return count[0] - 1

    def subtree(root: int, depth: int, min_kids: int = 1) -> None:
        kids = draw(st.integers(min_kids, 3)) if depth else 0
        if not kids:
            receivers.append(root)
        for _ in range(kids):
            child = node()
            edges.append((root, child))
            subtree(child, depth - 1)

    sources = [node() for _ in range(n_sources)]
    tops = []
    for s in sources:
        top = s
        for _ in range(draw(st.integers(1, 3))):
            nxt = node()
            edges.append((top, nxt))
            top = nxt
        tops.append(top)
    fed = set()
    for _ in range(draw(st.integers(1, 3))):
        subset = draw(st.sets(st.sampled_from(range(n_sources)), min_size=2))
        joint = node()
        for i in sorted(subset):
            edges.append((tops[i], joint))
        fed |= subset
        subtree(joint, draw(st.integers(1, 3)), min_kids=2)
    for i, top in enumerate(tops):
        if i not in fed or draw(st.booleans()):
            child = node()
            edges.append((top, child))
            subtree(child, draw(st.integers(0, 3)))

    label = draw(st.permutations(range(count[0])))
    ids = sorted(draw(st.sets(st.integers(0, 4 * len(edges)), min_size=len(edges), max_size=len(edges))))
    link_lines = [
        f"link {i} {label[h]} {label[t]} {draw(st.sampled_from((0.0, 0.01, 0.2, 1.0)))}"
        for i, (h, t) in zip(ids, edges)
    ]
    lines = [f"node {label[n]}" for n in range(count[0])]
    lines += draw(st.permutations(link_lines))
    lines += [f"source {label[s]}" for s in sources]
    lines += [f"receiver {label[r]}" for r in receivers]
    return "\n".join(lines) + "\n"
