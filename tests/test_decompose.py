import pytest
from conftest import BIG_NETWORK, multi_source_dags
from hypothesis import given, settings

from losstomo.cli import main
from losstomo.decompose import decompose
from losstomo.topology import UnsupportedTopologyError, parse_topology


def test_big_network_three_dtrees(big_plan):
    plan = big_plan
    assert plan.joint_nodes == (2,)
    (mt,) = plan.msource_trees
    assert (mt.joint, mt.sources) == (2, (0, 16))
    assert set(mt.nodes) == {2, 4, 5, 8, 9, 10, 11}
    assert len(plan.fragments) == 2
    frag16 = next(f for f in plan.fragments if f.source == 16)
    assert 2 in frag16.nodes and 4 not in frag16.nodes


def test_joint_detection_matches_indegree_scan(big_topology, big_plan):
    t = big_topology
    scan = tuple(sorted(n for n in t.nodes if t.in_degree[n] >= 2))
    assert big_plan.joint_nodes == scan


def test_links_covered_exactly_once(big_topology, big_plan):
    covered = []
    for l in big_plan.logical_links:
        covered.extend(l.link_ids)
    assert sorted(covered) == sorted(l.id for l in big_topology.links)


def test_single_source_tree_trivial_plan(single_tree):
    plan = decompose(single_tree)
    assert plan.joint_nodes == ()
    assert plan.msource_trees == ()
    assert len(plan.fragments) == 1
    frag = plan.fragments[0]
    assert set(frag.nodes) == set(single_tree.nodes)
    assert frag.solve_order == (3, 1)


def test_shared_receiver_parent():
    # two sources whose trees share only the receivers' parent node
    text = (
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\n"
        "link 1 0 2 0.01\nlink 2 1 2 0.01\n"
        "link 3 2 3 0.01\nlink 4 2 4 0.01\n"
        "source 0\nsource 1\nreceiver 3\nreceiver 4\n"
    )
    plan = decompose(parse_topology(text))
    assert plan.joint_nodes == (2,)
    (mt,) = plan.msource_trees
    assert (mt.joint, mt.sources) == (2, (0, 1))


def test_estimation_order_msource_first(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text(BIG_NETWORK)
    assert main(["decompose", "--topology", str(p)]) == 0
    steps = capsys.readouterr().out.split("estimation order:\n")[1].splitlines()
    kinds = [line.split()[1] for line in steps]  # "solve multi-source tree ..." or "solve upstream path ..."
    assert kinds.index("multi-source") == 0
    assert all(k == "upstream" for k in kinds[1:])


def test_upstream_solve_order_bottom_up(big_plan):
    frag = next(f for f in big_plan.fragments if f.source == 16)
    order = frag.solve_order
    # node 18 and 17 are both internal; 17 (closer to the source) comes last
    assert order.index(17) > order.index(18)


@settings(max_examples=100, deadline=None)
@given(multi_source_dags())
def test_solve_order_holds_each_fragments_inner_nodes_children_first(text):
    plan = decompose(parse_topology(text))
    for frag in plan.fragments:
        order = frag.solve_order
        inner = [n for n in frag.nodes
                 if n != frag.source and n not in plan.joint_nodes and plan.children[n]]
        assert sorted(order) == inner  # frag.nodes is sorted
        for k, n in enumerate(order):
            assert all(order.index(l.tail) < k for l in plan.children[n] if l.tail in order), n


def test_serial_chain_collapsed(serial_plan):
    plan = serial_plan
    (merged,) = [l for l in plan.logical_links if len(l.link_ids) > 1]
    assert merged.link_ids == (1, 2)
    assert merged.pass_rate == pytest.approx(0.9 * 0.8)
    assert merged.label == "1+2"


def test_nested_joint_rejected():
    # joint node 4 sits inside the intersection rooted at joint node 2
    text = (
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\nnode 5\nnode 6\nnode 7\nnode 8\n"
        "link 1 0 2 0.01\nlink 2 1 2 0.01\n"
        "link 3 2 4 0.01\nlink 4 2 5 0.01\n"
        "link 5 8 4 0.01\n"
        "link 6 4 6 0.01\nlink 7 4 7 0.01\n"
        "link 8 3 8 0.01\n"
        "source 0\nsource 1\nsource 3\nreceiver 5\nreceiver 6\nreceiver 7\n"
    )
    with pytest.raises(UnsupportedTopologyError) as exc:
        decompose(parse_topology(text))
    assert str(exc.value) == "joint node 4 lies inside the intersection rooted at 2"


def test_single_chain_joint_rejected():
    # the joint node has one descendant chain: its subtree rate is not
    # separable from the per-source paths
    text = (
        "node 0\nnode 1\nnode 2\nnode 3\n"
        "link 1 0 2 0.01\nlink 2 1 2 0.01\nlink 3 2 3 0.01\n"
        "source 0\nsource 1\nreceiver 3\n"
    )
    with pytest.raises(UnsupportedTopologyError) as exc:
        decompose(parse_topology(text))
    assert str(exc.value) == (
        "joint node 2 has a single descendant chain; its subtree rate "
        "cannot be separated from the per-source paths"
    )


def test_receiver_joint_rejected_as_a_receiver(tmp_path, capsys):
    # both sources' trees end at receivers 4 and 5, so each is a joint with no
    # descendant at all, not one with a single descendant chain
    p = tmp_path / "shared-receivers.txt"
    p.write_text(
        "node 0\nnode 1\nnode 2\nnode 3\nnode 4\nnode 5\n"
        "link 0 0 2 0.01\nlink 1 1 3 0.01\nlink 2 2 4 0.01\nlink 3 3 4 0.01\n"
        "link 4 2 5 0.01\nlink 5 3 5 0.01\n"
        "source 0\nsource 1\nreceiver 4\nreceiver 5\n"
    )
    with pytest.raises(UnsupportedTopologyError) as exc:
        decompose(parse_topology(p.read_text()))
    assert str(exc.value) == (
        "joint node 4 is a receiver reached from several sources; "
        "its intersection holds no link to estimate"
    )
    assert main(["decompose", "--topology", str(p)]) == 2
    assert capsys.readouterr().err == f"unsupported topology: {exc.value}\n"


def test_nesting_reported_before_single_chain():
    # joint 1 has a single descendant chain and joint 4 lies inside joint 2's
    # intersection; the nesting is reported although joint 1 comes first
    text = (
        "node 1\nnode 2\nnode 3\nnode 4\nnode 5\nnode 6\nnode 7\nnode 9\n"
        "node 10\nnode 11\nnode 12\nnode 13\n"
        "link 1 10 1 0.01\nlink 2 11 1 0.01\nlink 3 1 9 0.01\n"
        "link 4 12 2 0.01\nlink 5 13 2 0.01\nlink 6 2 4 0.01\nlink 7 2 5 0.01\n"
        "link 8 3 4 0.01\nlink 9 4 6 0.01\nlink 10 4 7 0.01\n"
        "source 3\nsource 10\nsource 11\nsource 12\nsource 13\n"
        "receiver 5\nreceiver 6\nreceiver 7\nreceiver 9\n"
    )
    with pytest.raises(UnsupportedTopologyError) as exc:
        decompose(parse_topology(text))
    assert str(exc.value) == "joint node 4 lies inside the intersection rooted at 2"


def test_decompose_idempotent_on_fragment(big_topology, big_plan):
    # re-decomposing a pure single-source fragment yields the fragment itself
    frag = next(f for f in big_plan.fragments if f.source == 16)
    sub_link_ids = {i for l in frag.links for i in l.link_ids}
    sub_nodes = {n for l in frag.links for n in (l.head, l.tail)} | {16}
    lines = [f"node {n}" for n in sorted(sub_nodes)]
    for l in big_topology.links:
        if l.id in sub_link_ids:
            lines.append(f"link {l.id} {l.head} {l.tail} {1.0 - l.pass_rate}")
    lines.append("source 16")
    for n in sorted(sub_nodes):
        sub_out = [l for l in big_topology.out_links[n] if l.id in sub_link_ids]
        if not sub_out and n != 16:
            lines.append(f"receiver {n}")
    sub = decompose(parse_topology("\n".join(lines)))
    assert sub.joint_nodes == ()
    assert {l.link_ids for l in sub.logical_links} == {l.link_ids for l in frag.links}
