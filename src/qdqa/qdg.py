"""Question decomposition graphs: data model, parsing, validation, traversal.

A decomposition graph is a DAG with a single root (the main question) whose
edges point from a parent question to the simpler questions it decomposes
into.  Edges carry an operator label drawn from the graph's declared registry.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field


class QdgError(ValueError):
    """Base class for graph validation failures."""

    def __init__(self, message, graph_id=None):
        super().__init__(message)
        self.graph_id = graph_id


class CycleError(QdgError):
    pass


class RootError(QdgError):
    pass


class DanglingEdgeError(QdgError):
    pass


class UnknownOpError(QdgError):
    pass


VALID_KINDS = ("binary", "open")
VALID_ROLES = ("main", "intermediate", "leaf")


@dataclass(frozen=True)
class QuestionNode:
    id: str
    text: str
    kind: str  # "binary" | "open"
    role: str  # "main" | "intermediate" | "leaf"
    gold_answer: str | None = None


@dataclass(frozen=True)
class QdgEdge:
    parent: str
    child: str
    op: str


@dataclass(frozen=True)
class QDG:
    graph_id: str
    video_id: str
    nodes: tuple[QuestionNode, ...]  # sorted by id
    edges: tuple[QdgEdge, ...]  # sorted by (parent, child)
    edge_types: tuple[str, ...]
    _by_id: dict = field(default=None, repr=False, compare=False, hash=False)

    def node(self, node_id: str) -> QuestionNode:
        return self._by_id[node_id]

    @property
    def root(self) -> QuestionNode:
        indeg = {n.id for n in self.nodes}
        for e in self.edges:
            indeg.discard(e.child)
        (root_id,) = indeg
        return self._by_id[root_id]


@dataclass(frozen=True)
class QuestionCluster:
    main: QuestionNode
    subs: tuple[QuestionNode, ...]
    graph: QDG


def _build(graph_id, video_id, nodes, edges, edge_types) -> QDG:
    """Validate and assemble a graph from parsed parts."""
    # kind and role are checked against their few allowed strings below
    for n in nodes:
        if not (isinstance(n.id, str) and isinstance(n.text, str)):
            raise QdgError(
                f"node id {n.id!r} and text {n.text!r} must be strings",
                graph_id,
            )
        if not n.id:
            raise QdgError("empty node id", graph_id)
        if n.kind not in VALID_KINDS:
            raise QdgError(f"bad kind {n.kind!r} on node {n.id}", graph_id)
        if n.role not in VALID_ROLES:
            raise QdgError(f"bad role {n.role!r} on node {n.id}", graph_id)
        if n.gold_answer is not None and not isinstance(n.gold_answer, str):
            raise QdgError(
                f"answer {n.gold_answer!r} on node {n.id} is neither a "
                f"string nor null",
                graph_id,
            )
        if n.kind == "binary" and n.gold_answer is not None:
            if n.gold_answer.strip().casefold() not in ("yes", "no"):
                raise QdgError(
                    f"binary node {n.id} has non yes/no answer "
                    f"{n.gold_answer!r}",
                    graph_id,
                )
    ids = [n.id for n in nodes]
    id_set = set(ids)
    if len(ids) != len(id_set):
        raise QdgError("duplicate node ids", graph_id)
    registry = set(edge_types)
    seen_edges = set()
    for e in edges:
        if not (isinstance(e.parent, str) and isinstance(e.child, str)
                and isinstance(e.op, str)):
            raise QdgError(
                f"edge parent {e.parent!r}, child {e.child!r} and op "
                f"{e.op!r} must be strings",
                graph_id,
            )
        if e.parent == e.child:
            raise QdgError(f"self-loop on {e.parent}", graph_id)
        if e.parent not in id_set or e.child not in id_set:
            raise DanglingEdgeError(
                f"edge {e.parent}->{e.child} references unknown node", graph_id
            )
        if e.op not in registry:
            raise UnknownOpError(
                f"edge {e.parent}->{e.child} op {e.op!r} not in registry",
                graph_id,
            )
        if (e.parent, e.child) in seen_edges:
            raise QdgError(f"duplicate edge {e.parent}->{e.child}", graph_id)
        seen_edges.add((e.parent, e.child))

    roots = id_set - {e.child for e in edges}
    if len(roots) != 1:
        raise RootError(
            f"expected exactly one root, found {sorted(roots)}", graph_id
        )
    (root_id,) = roots

    by_id = {n.id: n for n in nodes}
    if by_id[root_id].role != "main":
        raise QdgError(f"root {root_id} must have role=main", graph_id)

    # Cycle check via Kahn's algorithm.
    indeg = {i: 0 for i in ids}
    adj = {i: [] for i in ids}
    for e in edges:
        indeg[e.child] += 1
        adj[e.parent].append(e.child)
    queue = [i for i in ids if indeg[i] == 0]
    visited = 0
    while queue:
        u = queue.pop()
        visited += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if visited != len(ids):
        raise CycleError("edge set contains a directed cycle", graph_id)

    # Reachability from the root.
    reached = {root_id}
    stack = [root_id]
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if reached != id_set:
        raise QdgError(
            f"nodes unreachable from root: {sorted(id_set - reached)}",
            graph_id,
        )

    return QDG(
        graph_id=graph_id,
        video_id=video_id,
        nodes=tuple(sorted(nodes, key=lambda n: n.id)),
        edges=tuple(sorted(edges, key=lambda e: (e.parent, e.child))),
        edge_types=tuple(sorted(set(edge_types))),
        _by_id=by_id,
    )


def parse_and_validate(document: str) -> QDG:
    """Parse one QDG-JSON document and check every structural invariant."""
    raw = json.loads(document)
    return from_dict(raw)


def from_dict(raw: dict) -> QDG:
    if not isinstance(raw, dict):
        raise QdgError(f"document is a {type(raw).__name__}, not an object")
    graph_id = raw.get("graph_id", "")
    try:
        nodes = [
            QuestionNode(
                id=n["id"],
                text=n["text"],
                kind=n["kind"],
                role=n["role"],
                gold_answer=n.get("answer"),
            )
            for n in raw["nodes"]
        ]
        edges = [
            QdgEdge(parent=e["parent"], child=e["child"], op=e["op"])
            for e in raw["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise QdgError(f"malformed document: {exc}", graph_id) from exc
    edge_types = raw.get("edge_types", [])
    if not (isinstance(edge_types, list)
            and all(isinstance(t, str) for t in edge_types)):
        raise QdgError(f"edge_types {edge_types!r} is not a list of strings",
                       graph_id)
    return _build(
        graph_id=graph_id,
        video_id=raw.get("video_id", ""),
        nodes=nodes,
        edges=edges,
        edge_types=edge_types,
    )


def to_dict(g: QDG) -> dict:
    return {
        "graph_id": g.graph_id,
        "video_id": g.video_id,
        "edge_types": list(g.edge_types),
        "nodes": [
            {
                "id": n.id,
                "text": n.text,
                "kind": n.kind,
                "role": n.role,
                "answer": n.gold_answer,
            }
            for n in g.nodes
        ],
        "edges": [
            {"parent": e.parent, "child": e.child, "op": e.op}
            for e in g.edges
        ],
    }


def serialize(g: QDG) -> str:
    """Canonical JSON form: sorted nodes/edges, stable field order."""
    return json.dumps(to_dict(g), sort_keys=False)


def first_order_pairs(g: QDG) -> list[tuple[str, set[str]]]:
    """Each parent with its direct children, ordered by parent id."""
    out = []
    for n in g.nodes:
        kids = {e.child for e in g.edges if e.parent == n.id}
        if kids:
            out.append((n.id, kids))
    return out


def topological_order(g: QDG) -> list[str]:
    """Children-first order; ties broken by lexicographic id."""
    outdeg = {n.id: 0 for n in g.nodes}
    rev = {n.id: [] for n in g.nodes}  # child -> parents
    for e in g.edges:
        outdeg[e.parent] += 1
        rev[e.child].append(e.parent)
    heap = [i for i, d in outdeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for p in rev[u]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                heapq.heappush(heap, p)
    return order


def cluster(g: QDG) -> QuestionCluster:
    """Main question plus its sub-questions in topological (children-first) order."""
    main = g.root
    order = topological_order(g)
    subs = tuple(g.node(i) for i in order if i != main.id)
    return QuestionCluster(main=main, subs=subs, graph=g)


def load_jsonl(text: str) -> list[QDG]:
    """Parse a JSONL stream of graphs; blank lines ignored."""
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            graphs.append(parse_and_validate(line))
    return graphs
