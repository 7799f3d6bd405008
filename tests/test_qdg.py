import json

import pytest
from hypothesis import given, settings, strategies as st

from qdqa import qdg


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


@pytest.mark.parametrize("nodes, edges, message", [
    ([node("m", role="main"), node("s"), node("s", text="again?")],
     [edge("m", "s")], "duplicate node ids"),
    ([node("m", role="main"), node("")], [edge("m", "")], "empty node id"),
    ([node("m", role="main"), node("s", kind="ternary")], [edge("m", "s")],
     "bad kind 'ternary' on node s"),
    ([node("m", role="main"), node("s", role="root")], [edge("m", "s")],
     "bad role 'root' on node s"),
    ([node("m", role="main"), node("s")], [edge("m", "s"), edge("s", "s")],
     "self-loop on s"),
    ([node("m", role="main"), node("s")], [edge("m", "s"), edge("m", "s")],
     "duplicate edge m->s"),
    ([node("m"), node("s")], [edge("m", "s")], "root m must have role=main"),
    ([node("m", role="main"), {"id": "s", "kind": "open", "role": "leaf"}],
     [edge("m", "s")], "malformed document: 'text'"),
    ([node("m", role="main"), node("s")], [{"parent": "m", "child": "s"}],
     "malformed document: 'op'"),
], ids=["duplicate_id", "empty_id", "bad_kind", "bad_role", "self_loop",
        "duplicate_edge", "root_not_main", "node_missing_key",
        "edge_missing_key"])
def test_from_dict_rejection_type_and_message(nodes, edges, message):
    with pytest.raises(qdg.QdgError) as info:
        qdg.from_dict(json.loads(make_doc(nodes, edges)))
    assert type(info.value) is qdg.QdgError
    assert str(info.value) == message
    assert info.value.graph_id == "g0"


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
