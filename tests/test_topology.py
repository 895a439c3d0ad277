import time

import pytest
from conftest import multi_source_dags, reachable
from hypothesis import example, given, settings

from losstomo.decompose import decompose
from losstomo.harness import SETTINGS
from losstomo.topology import TopologyError, parse_topology, toposort


def test_parse_star_setting():
    t = parse_topology(SETTINGS["2x2-equal"])
    assert len(t.sources) == 2
    assert len(t.receivers) == 2
    assert len(t.links) == 4
    assert len(t.nodes) == 5
    for l in t.links:
        assert l.pass_rate == pytest.approx(0.99)


def test_parse_stores_pass_rate():
    t = parse_topology(
        "node 0\nnode 1\nnode 2\nnode 3\n"
        "link 1 0 2 0.25\nlink 2 2 1 0.0\nlink 3 2 3 0\n"
        "source 0\nreceiver 1\nreceiver 3\n"
    )
    links = {l.id: l for l in t.links}
    assert links[1].pass_rate == 0.75
    assert 1.0 - links[1].pass_rate == 0.25
    assert links[2].pass_rate == 1.0


def test_empty_link_list_rejected():
    with pytest.raises(TopologyError, match="no links"):
        parse_topology("node 0\nsource 0\n")


def test_loss_rate_out_of_range():
    text = (
        "node 0\nnode 1\nlink 1 0 1 1.2\nsource 0\nreceiver 1\n"
    )
    with pytest.raises(TopologyError, match="pass rate out of range"):
        parse_topology(text)


def test_syntax_error_reports_line():
    with pytest.raises(TopologyError, match="line 2"):
        parse_topology("node 0\nlink one 0 0\n")


def test_duplicate_ids_rejected():
    with pytest.raises(TopologyError, match="duplicate node"):
        parse_topology("node 0\nnode 0\n")
    with pytest.raises(TopologyError, match="duplicate link"):
        parse_topology(
            "node 0\nnode 1\nnode 2\nlink 1 0 1 0.1\nlink 1 0 2 0.1\n"
            "source 0\nreceiver 1\nreceiver 2\n"
        )


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "node 0\nnode 1\nlink 1 0 1 0.1\nsource 0\nsource 0\nreceiver 1\n",
            "line 5: duplicate source 0",
        ),
        (
            "node 0\nnode 1\nlink 1 0 1 0.1\nsource 0\nreceiver 1\nreceiver 1\n",
            "line 6: duplicate receiver 1",
        ),
        ("node 0\nnode 1\nsource 2\n", "line 3: source references undeclared node 2"),
        ("node 0\n\nreceiver 7\n", "line 3: receiver references undeclared node 7"),
        ("node 0\nnode 1\nlink 4 0 2 0.1\n", "line 3: link 4 references undeclared node"),
        ("node 0\nnode -1\n", "line 2: negative node id -1"),
        ("node 0\nnode 1\nlink -3 0 1 0.1\n", "line 3: negative link id -3"),
        ("node 0\nedge 0 1\n", "line 2: unknown directive 'edge'"),
        (
            "node 0\nnode 1\n  link 1 0 one 0.1  # tail by name\n",
            "line 3: syntax error: 'link 1 0 one 0.1'",
        ),
        ("node 0\nnode 1\nlink 1 0 1 0.1\nreceiver 1\n", "no sources declared"),
        ("node 0\nnode 1\nlink 1 0 1 0.1\nsource 0\n", "no receivers declared"),
    ],
    ids=["duplicate-source", "duplicate-receiver", "undeclared-source", "undeclared-receiver",
         "undeclared-link-end", "negative-node", "negative-link", "unknown-directive",
         "syntax-error-with-comment", "no-sources", "no-receivers"],
)
def test_parser_rejection_names_line(text, message):
    with pytest.raises(TopologyError) as exc:
        parse_topology(text)
    assert str(exc.value) == message


def test_unreachable_receiver_rejected():
    text = (
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\n"
        "link 1 0 1 0.1\n"
        "link 2 2 3 0.1\nlink 3 2 4 0.1\n"
        "source 0\nreceiver 1\nreceiver 3\nreceiver 4\n"
    )
    # nodes 3 and 4 hang below node 2, which no source feeds: node 2 is an undeclared root
    with pytest.raises(TopologyError, match="node 2 is a root but not declared a source"):
        parse_topology(text)


def test_source_shape_enforced():
    text = (
        "node 0\nnode 1\nnode 2\n"
        "link 1 0 1 0.1\nlink 2 0 2 0.1\n"
        "source 0\nreceiver 1\nreceiver 2\n"
    )
    with pytest.raises(TopologyError, match="exactly one outgoing"):
        parse_topology(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "node 0\nnode 1\nlink 1 0 1 0.1\nsource 0\nreceiver 0\nreceiver 1\n",
            r"nodes \[0\] declared both source and receiver",
        ),
        (
            "node 0\nnode 1\nnode 2\nlink 1 0 1 0.1\nlink 2 1 2 0.1\n"
            "source 0\nsource 1\nreceiver 2\n",
            "source 1 has incoming links",
        ),
        (
            "node 0\nnode 1\nnode 2\nlink 1 0 1 0.1\nlink 2 1 2 0.1\n"
            "source 0\nreceiver 1\nreceiver 2\n",
            "receiver 1 has outgoing links",
        ),
        (
            "node 0\nnode 1\nnode 2\nnode 3\nlink 1 0 1 0.1\nlink 2 1 2 0.1\nlink 3 1 3 0.1\n"
            "source 0\nreceiver 2\n",
            "node 3 is a sink but not declared a receiver",
        ),
        (
            # the diamond 1 -> {2, 3} -> 4 gives node 4 two parents in the tree of source 0
            "node 0\nnode 1\nnode 2\nnode 3\nnode 4\nlink 1 0 1 0.1\nlink 2 1 2 0.1\n"
            "link 3 1 3 0.1\nlink 4 2 4 0.1\nlink 5 3 4 0.1\nsource 0\nreceiver 4\n",
            "node 4 has .* inside the tree of source 0",
        ),
    ],
    ids=["source-and-receiver", "source-in-link", "receiver-out-link", "undeclared-sink",
         "two-parents-in-tree"],
)
def test_shape_rule_rejected(text, message):
    with pytest.raises(TopologyError, match=message):
        parse_topology(text)


def test_comments_and_blank_lines_ignored():
    t = parse_topology(
        "# a comment\n\nnode 0\nnode 1  # trailing\nlink 1 0 1 0.5\nsource 0\nreceiver 1\n"
    )
    assert t.nodes == frozenset({0, 1})


def test_tree_membership(big_topology):
    t = big_topology
    assert set(t.trees[16].row) == {16, 17, 18, 2, 19, 20, 4, 5, 21, 22, 23, 24, 8, 9, 10, 11}
    assert 2 in t.trees[0].row and 18 not in t.trees[0].row
    for s in t.sources:
        assert set(t.trees[s].row) == reachable(t, s)


def test_ancestors_paths(big_topology):
    for node, source, expected in [(2, 16, [17, 16]), (8, 0, [4, 2, 1, 0]), (17, 16, [16])]:
        tree = big_topology.trees[source]
        walk = [node]
        while walk[-1] != source:
            walk.append(tree.links[tree.row[walk[-1]] - 1].head)
        assert walk[1:] == expected


def test_ancestors_outside_tree(big_topology):
    assert 18 not in big_topology.trees[0].row
    with pytest.raises(TopologyError, match="node 18 is not in the tree of source 0"):
        big_topology.path_rate(0, 18)


def test_in_degree_of_ordinary_nodes(big_topology):
    t = big_topology
    joints = {n for n in t.nodes if t.in_degree[n] >= 2}
    assert joints == {2}
    for n in t.nodes - joints - set(t.sources):
        assert t.in_degree[n] == 1


def test_true_rates(star22):
    assert star22.subtree_rate[2] == pytest.approx(1 - 0.01**2)
    assert star22.path_rate(0, 2) == pytest.approx(0.99)
    assert star22.path_rate(0, 3) == pytest.approx(0.99 * 0.99)


def _order_by_resort(t):
    """Reference order: pop the smallest ready node, re-sorting after every step."""
    indeg = {n: t.in_degree[n] for n in t.nodes}
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        for l in t.out_links[u]:
            indeg[l.tail] -= 1
            if indeg[l.tail] == 0:
                ready.append(l.tail)
        ready.sort()
    return order


def test_order_is_smallest_ready_first_and_cached(big_topology):
    assert toposort(big_topology) == _order_by_resort(big_topology)
    assert big_topology.order == tuple(_order_by_resort(big_topology))
    assert big_topology.order is big_topology.order


def test_cycle_rejected():
    with pytest.raises(TopologyError, match="cycle"):
        parse_topology(
            "node 0\nnode 1\nnode 2\nnode 3\n"
            "link 1 0 1 0.1\nlink 2 1 2 0.1\nlink 3 2 1 0.1\nlink 4 2 3 0.1\n"
            "source 0\nreceiver 3\n"
        )


def _tree_parent_by_order_walk(t):
    """Reference trees (node -> link in): each member of t.order in turn, its links by id."""
    out = {n: sorted((l for l in t.links if l.head == n), key=lambda l: l.id) for n in t.nodes}
    trees = {}
    for s in t.sources:
        up = {}
        for u in t.order:
            if u == s or u in up:
                up.update((l.tail, l) for l in out[u])
        trees[s] = up
    return trees


@settings(max_examples=100, deadline=None)
@given(multi_source_dags())
# trees[0].row runs 0, 1, 10, 3 here: node 1's links by id; sorting the members by their place in order gives 0, 1, 3, 10
@example("node 0\nnode 1\nnode 3\nnode 10\nlink 1 0 1 0.01\nlink 5 1 10 0.01\nlink 6 1 3 0.01\n"
         "source 0\nreceiver 3\nreceiver 10\n")
def test_link_maps_and_plan_on_generated_dags(text):
    t = parse_topology(text)
    for n in t.nodes:
        assert [l.id for l in t.out_links[n]] == sorted(l.id for l in t.links if l.head == n)
        assert t.in_degree[n] == sum(1 for l in t.links if l.tail == n)
    reference = _tree_parent_by_order_walk(t)
    assert list(t.trees) == list(reference)
    # rows in the reference's link order, and each tree's receivers as a scan of all receivers finds them
    for s, tree in t.trees.items():
        up = reference[s]
        nodes = (s, *up)
        assert list(tree.links) == list(up.values())
        assert list(tree.row.items()) == [(n, j) for j, n in enumerate(nodes)]
        assert [nodes[p] for p in tree.parent] == [s, *(l.head for l in up.values())]
        assert [nodes[j] for j in tree.receivers] == [r for r in t.receivers if r in nodes]
        for n in nodes:  # the exact product, from n upward
            rate, m = 1.0, n
            while m != s:
                rate *= up[m].pass_rate
                m = up[m].head
            assert t.path_rate(s, n) == rate

    plan = decompose(t)
    for mt in plan.msource_trees:
        assert mt.sources == tuple(s for s in t.sources if mt.joint in reference[s])
    covered = sorted(i for l in plan.logical_links for i in l.link_ids)
    assert covered == [l.id for l in t.links]

    head, links, tail = [], [], []
    for line in text.splitlines():
        (links if line.startswith("link") else tail if links else head).append(line)
    links.sort(key=lambda line: int(line.split()[1]))
    t_sorted = parse_topology("\n".join(head + links + tail))
    plan_sorted = decompose(t_sorted)
    assert t_sorted == t
    assert plan_sorted == plan
    assert plan_sorted.children == plan.children


def test_large_star_sets_up_in_linear_time():
    # one source, 20,000 receivers: duplicate checks against lists made parsing quadratic, about
    # 3.3 s on a 2-CPU container (Python 3.11), where linear set-up takes about 0.27 s; the 2 s
    # wall-clock bound leaves room for slower or busy machines and still fails the quadratic parser
    n = 20_000
    lines = ["node 0", "node 1", *(f"node {i}" for i in range(2, n + 2)), "link 0 0 1 0.01"]
    lines += [f"link {i} 1 {i} 0.01" for i in range(2, n + 2)]
    lines += ["source 0", *(f"receiver {i}" for i in range(2, n + 2))]
    text = "\n".join(lines) + "\n"
    t0 = time.perf_counter()
    plan = decompose(parse_topology(text))
    elapsed = time.perf_counter() - t0
    assert len(plan.logical_links) == n + 1
    assert elapsed < 2.0, f"parse + decompose of a {n}-receiver star took {elapsed:.2f} s"
