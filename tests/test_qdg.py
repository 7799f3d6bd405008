import json

import pytest
from hypothesis import given, settings, strategies as st

from qdqa import cli, qdg


def make_doc(nodes, edges, edge_types=("Conjunction",)):
    return json.dumps(
        {
            "graph_id": "g0",
            "video_id": "v0",
            "edge_types": list(edge_types),
            "nodes": nodes,
            "edges": edges,
        }
    )


def node(nid, role="leaf", kind="binary", answer="Yes", text=None):
    return {
        "id": nid,
        "text": text or f"question {nid}?",
        "kind": kind,
        "role": role,
        "answer": answer,
    }


def root_of(g):
    """The one node that no edge points to."""
    (root,) = [n for n in g.nodes if n.id not in {e.child for e in g.edges}]
    return root


def test_minimal_valid_graph():
    doc = make_doc(
        [node("m", role="main"), node("s")],
        [{"parent": "m", "child": "s", "op": "Conjunction"}],
    )
    g = qdg.parse_and_validate(doc)
    assert len(g.edges) == 1
    assert root_of(g).id == "m"


def test_smallest_cycle_rejected():
    doc = make_doc(
        [node("a", role="main"), node("b")],
        [
            {"parent": "a", "child": "b", "op": "Conjunction"},
            {"parent": "b", "child": "a", "op": "Conjunction"},
        ],
    )
    with pytest.raises(qdg.QdgError):
        qdg.parse_and_validate(doc)


def test_three_node_cycle_below_root_is_cycle_error():
    doc = make_doc(
        [node("m", role="main"), node("a"), node("b"), node("c")],
        [
            {"parent": "m", "child": "a", "op": "Conjunction"},
            {"parent": "a", "child": "b", "op": "Conjunction"},
            {"parent": "b", "child": "c", "op": "Conjunction"},
            {"parent": "c", "child": "a", "op": "Conjunction"},
        ],
    )
    with pytest.raises(qdg.CycleError):
        qdg.parse_and_validate(doc)


def test_two_roots_rejected():
    doc = make_doc([node("a", role="main"), node("b")], [])
    with pytest.raises(qdg.RootError):
        qdg.parse_and_validate(doc)


def test_dangling_edge_rejected():
    doc = make_doc(
        [node("m", role="main"), node("s")],
        [
            {"parent": "m", "child": "s", "op": "Conjunction"},
            {"parent": "m", "child": "ghost", "op": "Conjunction"},
        ],
    )
    with pytest.raises(qdg.DanglingEdgeError):
        qdg.parse_and_validate(doc)


def test_unknown_op_rejected():
    doc = make_doc(
        [node("m", role="main"), node("s")],
        [{"parent": "m", "child": "s", "op": "Teleport"}],
    )
    with pytest.raises(qdg.UnknownOpError):
        qdg.parse_and_validate(doc)


def test_binary_answer_must_be_yes_no():
    doc = make_doc(
        [node("m", role="main", answer="maybe"), node("s")],
        [{"parent": "m", "child": "s", "op": "Conjunction"}],
    )
    with pytest.raises(qdg.QdgError):
        qdg.parse_and_validate(doc)


def chain_graph():
    doc = make_doc(
        [node("m", role="main"), node("s1", role="intermediate"), node("s2")],
        [
            {"parent": "m", "child": "s1", "op": "Conjunction"},
            {"parent": "s1", "child": "s2", "op": "Conjunction"},
        ],
    )
    return qdg.parse_and_validate(doc)


def test_first_order_pairs_chain():
    g = chain_graph()
    assert qdg.first_order_pairs(g) == [("m", {"s1"}), ("s1", {"s2"})]


def test_first_order_pairs_star():
    doc = make_doc(
        [node("m", role="main"), node("s1"), node("s2"), node("s3")],
        [
            {"parent": "m", "child": c, "op": "Conjunction"}
            for c in ("s1", "s2", "s3")
        ],
    )
    g = qdg.parse_and_validate(doc)
    assert qdg.first_order_pairs(g) == [("m", {"s1", "s2", "s3"})]


def test_first_order_pairs_diamond():
    doc = make_doc(
        [
            node("m", role="main"),
            node("s1", role="intermediate"),
            node("s2", role="intermediate"),
            node("s3"),
        ],
        [
            {"parent": "m", "child": "s1", "op": "Conjunction"},
            {"parent": "m", "child": "s2", "op": "Conjunction"},
            {"parent": "s1", "child": "s3", "op": "Conjunction"},
            {"parent": "s2", "child": "s3", "op": "Conjunction"},
        ],
    )
    g = qdg.parse_and_validate(doc)
    assert qdg.first_order_pairs(g) == [
        ("m", {"s1", "s2"}),
        ("s1", {"s3"}),
        ("s2", {"s3"}),
    ]


def random_dag(rng_seed, n_nodes):
    """Random single-root DAG over node ids n00..; edges parent->child."""
    import random

    rnd = random.Random(rng_seed)
    ids = [f"n{i:02d}" for i in range(n_nodes)]
    nodes = [node(ids[0], role="main")]
    edges = []
    for i in range(1, n_nodes):
        parent = ids[rnd.randrange(i)]
        nodes.append(node(ids[i], role="leaf"))
        edges.append({"parent": parent, "child": ids[i], "op": "Conjunction"})
        # occasional extra edge to form a DAG rather than a tree
        if i >= 2 and rnd.random() < 0.4:
            extra = ids[rnd.randrange(i)]
            if extra != ids[i] and not any(
                e["parent"] == extra and e["child"] == ids[i] for e in edges
            ):
                edges.append(
                    {"parent": extra, "child": ids[i], "op": "Conjunction"}
                )
    # mark nodes with children as intermediate
    parents = {e["parent"] for e in edges}
    for nd in nodes[1:]:
        if nd["id"] in parents:
            nd["role"] = "intermediate"
    return qdg.parse_and_validate(make_doc(nodes, edges))


@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_first_order_pairs_cover_edge_set(seed, n):
    g = random_dag(seed, n)
    covered = {
        (parent, child)
        for parent, children in qdg.first_order_pairs(g)
        for child in children
    }
    assert covered == {(e.parent, e.child) for e in g.edges}


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_serialize_round_trip(seed):
    g = random_dag(seed, 8)
    assert qdg.parse_and_validate(qdg.serialize(g)) == g
    assert qdg.serialize(qdg.parse_and_validate(qdg.serialize(g))) == qdg.serialize(g)


def edge(parent, child, op="Conjunction"):
    return {"parent": parent, "child": child, "op": op}


@pytest.mark.parametrize("nodes, edges, error, message", [
    ([node("m", role="main"), node("s"), node("s", text="again?")],
     [edge("m", "s")], qdg.QdgError, "duplicate node ids"),
    ([node("m", role="main"), node("")], [edge("m", "")], qdg.QdgError,
     "empty node id"),
    ([node("m", role="main"), node("s", kind="ternary")], [edge("m", "s")],
     qdg.QdgError, "bad kind 'ternary' on node s"),
    ([node("m", role="main"), node("s", role="root")], [edge("m", "s")],
     qdg.QdgError, "bad role 'root' on node s"),
    ([node("m", role="main"), node("s")], [edge("m", "s"), edge("s", "s")],
     qdg.QdgError, "self-loop on s"),
    ([node("m", role="main"), node("s")], [edge("m", "s"), edge("m", "s")],
     qdg.QdgError, "duplicate edge m->s"),
    ([node("m"), node("s")], [edge("m", "s")], qdg.QdgError,
     "root m must have role=main"),
    ([node("m", role="main"), {"id": "s", "kind": "open", "role": "leaf"}],
     [edge("m", "s")], qdg.QdgError, "malformed document: 'text'"),
    ([node("m", role="main"), node("s")], [{"parent": "m", "child": "s"}],
     qdg.QdgError, "malformed document: 'op'"),
    ([node("m", role="main"), {**node("s"), "id": 7}], [edge("m", "s")],
     qdg.QdgError, "node id 7 and text 'question s?' must be strings"),
    ([node("m", role="main"), node("s", answer=["no"])], [edge("m", "s")],
     qdg.QdgError, "answer ['no'] on node s is neither a string nor null"),
    ([node("m", role="main"), node("s", answer="maybe")], [edge("m", "s")],
     qdg.QdgError, "binary node s has non yes/no answer 'maybe'"),
    ([node("m", role="main"), node("s")], [edge("m", ["s"])], qdg.QdgError,
     "edge parent 'm', child ['s'] and op 'Conjunction' must be strings"),
    ([node("m", role="main"), node("s")], [edge("m", "s"), edge("m", "x")],
     qdg.DanglingEdgeError, "edge m->x references unknown node"),
    ([node("m", role="main"), node("s")], [edge("m", "s", op="Teleport")],
     qdg.UnknownOpError, "edge m->s op 'Teleport' not in registry"),
    ([node("m", role="main"), node("s"), node("t")], [edge("m", "s")],
     qdg.RootError, "expected exactly one root, found ['m', 't']"),
    ([node("m", role="main"), node("s"), node("t")],
     [edge("m", "s"), edge("s", "t"), edge("t", "s")], qdg.CycleError,
     "edge set contains a directed cycle"),
], ids=["duplicate_id", "empty_id", "bad_kind", "bad_role", "self_loop",
        "duplicate_edge", "root_not_main", "node_missing_key",
        "edge_missing_key", "non_string_id", "non_string_answer",
        "binary_not_yes_no", "non_string_edge_end", "dangling_edge",
        "unknown_op", "two_roots", "cycle"])
def test_from_dict_rejection_type_and_message(nodes, edges, error, message):
    with pytest.raises(qdg.QdgError) as info:
        qdg.from_dict(json.loads(make_doc(nodes, edges)))
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.graph_id == "g0"


def assert_shares_strings(g):
    """Edge ends are their nodes' own id objects; kinds, roles, ops and
    edge types are one object per value."""
    ids = {n.id: n.id for n in g.nodes}
    ops = {t: t for t in g.edge_types}
    for n in g.nodes:
        assert n.kind is qdg.VALID_KINDS[qdg.VALID_KINDS.index(n.kind)]
        assert n.role is qdg.VALID_ROLES[qdg.VALID_ROLES.index(n.role)]
    for e in g.edges:
        assert e.parent is ids[e.parent] and e.child is ids[e.child]
        assert e.op is ops[e.op]


def test_parsed_graphs_share_one_string_per_id_and_label():
    # multi-character strings: CPython caches one-character ones anyway
    graphs = [
        qdg.parse_and_validate(make_doc(
            [node(f"{p}main", role="main"),
             node(f"{p}mid", role="intermediate", kind="open", answer="red"),
             node(f"{p}leaf1"), node(f"{p}leaf2", kind="open", answer=None)],
            [edge(f"{p}main", f"{p}mid"), edge(f"{p}main", f"{p}leaf1"),
             edge(f"{p}mid", f"{p}leaf2", op="Choose"),
             edge(f"{p}mid", f"{p}leaf1")],
            edge_types=("Conjunction", "Choose")))
        for p in ("first", "second")
    ]
    for g in graphs:
        assert_shares_strings(g)
    for one, two in zip(*(g.nodes for g in graphs)):
        assert one.kind is two.kind and one.role is two.role
    assert all(a is b for a, b in zip(*(g.edge_types for g in graphs)))

    gold = {n.id: "yes" for n in graphs[0].nodes if n.kind == "binary"}
    again = cli._apply_gold(graphs[0], gold)
    assert_shares_strings(again)
    assert all(a.id is b.id and a.kind is b.kind and a.role is b.role
               for a, b in zip(again.nodes, graphs[0].nodes))


def has_cycle(n, edges):
    """Brute force: some node reaches itself through one or more edges."""
    adj = {i: [c for p, c in edges if p == i] for i in range(n)}
    for start in range(n):
        seen, stack = set(), list(adj[start])
        while stack:
            u = stack.pop()
            if u == start:
                return True
            if u not in seen:
                seen.add(u)
                stack.extend(adj[u])
    return False


@st.composite
def single_source_digraphs(draw):
    """Digraphs over 1-8 nodes whose only in-degree-0 node is node 0: every
    other node gets at least one parent, and parents may come from anywhere,
    so cycles (also ones the root cannot reach) are common."""
    n = draw(st.integers(1, 8))
    edges = {
        (p, c)
        for c in range(1, n)
        for p in draw(st.sets(
            st.sampled_from([p for p in range(n) if p != c]),
            min_size=1, max_size=3))
    }
    names = draw(st.permutations([f"q{i}" for i in range(n)]))
    order = draw(st.permutations(sorted(edges)))
    return n, names, list(order)


@given(graph=single_source_digraphs())
@settings(max_examples=300, deadline=None)
def test_single_root_digraph_is_rejected_exactly_when_cyclic(graph):
    n, names, edges = graph
    nodes = [node(names[i], role="main" if i == 0 else "leaf")
             for i in range(n)]
    doc = json.loads(make_doc(nodes, [edge(names[p], names[c])
                                      for p, c in edges]))
    if has_cycle(n, edges):
        with pytest.raises(qdg.CycleError) as info:
            qdg.from_dict(doc)
        assert str(info.value) == "edge set contains a directed cycle"
        return
    g = qdg.from_dict(doc)
    assert root_of(g).id == names[0]
    reached, stack = set(), [names[0]]
    while stack:
        u = stack.pop()
        if u not in reached:
            reached.add(u)
            stack.extend(e.child for e in g.edges if e.parent == u)
    assert reached == set(names)
