"""Question decomposition graphs: data model, parsing and validation.

A decomposition graph is a DAG with a single root (the main question) whose
edges point from a parent question to the simpler questions it decomposes
into.  Edges carry an operator label drawn from the graph's declared registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple


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


class QuestionNode(NamedTuple):
    id: str
    text: str
    kind: str  # "binary" | "open"
    role: str  # "main" | "intermediate" | "leaf"
    gold_answer: str | None = None


class QdgEdge(NamedTuple):
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


_node_id = attrgetter("id")
_edge_ends = attrgetter("parent", "child")


def _build(graph_id, video_id, nodes, edges, edge_types) -> QDG:
    """Validate and assemble a graph from parsed parts."""
    # kind and role are checked against their few allowed strings below
    for nid, text, kind, role, answer in nodes:
        if not (isinstance(nid, str) and isinstance(text, str)):
            raise QdgError(
                f"node id {nid!r} and text {text!r} must be strings",
                graph_id,
            )
        if not nid:
            raise QdgError("empty node id", graph_id)
        if kind not in VALID_KINDS:
            raise QdgError(f"bad kind {kind!r} on node {nid}", graph_id)
        if role not in VALID_ROLES:
            raise QdgError(f"bad role {role!r} on node {nid}", graph_id)
        if answer is not None:
            if not isinstance(answer, str):
                raise QdgError(
                    f"answer {answer!r} on node {nid} is neither a "
                    f"string nor null",
                    graph_id,
                )
            if (kind == "binary"
                    and answer.strip().casefold() not in ("yes", "no")):
                raise QdgError(
                    f"binary node {nid} has non yes/no answer {answer!r}",
                    graph_id,
                )
    by_id = {n.id: n for n in nodes}
    if len(by_id) != len(nodes):
        raise QdgError("duplicate node ids", graph_id)
    registry = set(edge_types)
    seen_edges = set()
    indeg = dict.fromkeys(by_id, 0)
    adj = {}
    for parent, child, op in edges:
        if not (isinstance(parent, str) and isinstance(child, str)
                and isinstance(op, str)):
            raise QdgError(
                f"edge parent {parent!r}, child {child!r} and op "
                f"{op!r} must be strings",
                graph_id,
            )
        if parent == child:
            raise QdgError(f"self-loop on {parent}", graph_id)
        if parent not in by_id or child not in by_id:
            raise DanglingEdgeError(
                f"edge {parent}->{child} references unknown node", graph_id
            )
        if op not in registry:
            raise UnknownOpError(
                f"edge {parent}->{child} op {op!r} not in registry",
                graph_id,
            )
        if (parent, child) in seen_edges:
            raise QdgError(f"duplicate edge {parent}->{child}", graph_id)
        seen_edges.add((parent, child))
        indeg[child] += 1
        adj.setdefault(parent, []).append(child)

    roots = [i for i, d in indeg.items() if d == 0]
    if len(roots) != 1:
        raise RootError(
            f"expected exactly one root, found {sorted(roots)}", graph_id
        )
    (root_id,) = roots
    if by_id[root_id].role != "main":
        raise QdgError(f"root {root_id} must have role=main", graph_id)

    # Kahn's algorithm from the only in-degree-0 node visits every node
    # exactly when there is no cycle, and then every node is reachable
    # from the root: walking parents up from any node must end at it.
    queue = [root_id]
    visited = 0
    while queue:
        u = queue.pop()
        visited += 1
        for v in adj.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if visited != len(by_id):
        raise CycleError("edge set contains a directed cycle", graph_id)

    return QDG(
        graph_id=graph_id,
        video_id=video_id,
        nodes=tuple(sorted(nodes, key=_node_id)),
        edges=tuple(sorted(edges, key=_edge_ends)),
        edge_types=tuple(sorted(registry)),
    )


def parse_and_validate(document: str) -> QDG:
    """Parse one QDG-JSON document and check every structural invariant."""
    raw = json.loads(document)
    return from_dict(raw)


def from_dict(raw: dict) -> QDG:
    if not isinstance(raw, dict):
        raise QdgError(f"document is a {type(raw).__name__}, not an object")
    graph_id, video_id = raw.get("graph_id", ""), raw.get("video_id", "")
    for key, value in (("graph_id", graph_id), ("video_id", video_id)):
        if not isinstance(value, str):  # only a string id goes on errors
            raise QdgError(f"{key} must be a string, not "
                           f"{type(value).__name__}",
                           graph_id if isinstance(graph_id, str) else None)
    try:
        nodes = [
            QuestionNode(n["id"], n["text"], n["kind"], n["role"],
                         n.get("answer"))
            for n in raw["nodes"]
        ]
        edges = [QdgEdge(e["parent"], e["child"], e["op"])
                 for e in raw["edges"]]
    except (KeyError, TypeError) as exc:
        raise QdgError(f"malformed document: {exc}", graph_id) from exc
    edge_types = raw.get("edge_types", [])
    if not (isinstance(edge_types, list)
            and all(isinstance(t, str) for t in edge_types)):
        raise QdgError(f"edge_types {edge_types!r} is not a list of strings",
                       graph_id)
    return _build(
        graph_id=graph_id,
        video_id=video_id,
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
            {"id": nid, "text": text, "kind": kind, "role": role,
             "answer": answer}
            for nid, text, kind, role, answer in g.nodes
        ],
        "edges": [
            {"parent": parent, "child": child, "op": op}
            for parent, child, op in g.edges
        ],
    }


def serialize(g: QDG) -> str:
    """Canonical JSON form: sorted nodes/edges, stable field order."""
    return json.dumps(to_dict(g), sort_keys=False)


def first_order_pairs(g: QDG) -> list[tuple[str, set[str]]]:
    """Each parent with its direct children, ordered by parent id."""
    kids = {}
    for parent, child, _ in g.edges:  # sorted by parent id
        kids.setdefault(parent, set()).add(child)
    return list(kids.items())


# json.loads per line also runs a whitespace regex twice and a bounds check;
# the lines here are already stripped, so the scanner alone decides
_scan_once = json.JSONDecoder().scan_once


def iter_jsonl(source):
    """Yield (line number, decoded value) for each non-blank line of
    `source`: a str, or the lines of a file opened with newline="\\n",
    which are read one at a time.

    Lines end at "\\n" only: U+0085, U+2028 and U+2029 may stand unescaped
    inside JSON strings, and a "\\r" before the "\\n" is stripped with the
    rest of the line's outer whitespace.  A line that does not hold exactly
    one JSON value raises json's own error with "line N: " put before its
    message, and one nested too deeply for the decoder's recursion raises
    ValueError.
    """
    lines = source.split("\n") if isinstance(source, str) else source
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                value, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    exc.args = (f"line {number}: {exc}",)
                    raise
                except RecursionError:
                    raise ValueError(
                        f"line {number}: JSON nested too deeply") from None
            yield number, value


def load_jsonl(source) -> list[QDG]:
    """Parse a JSONL stream of graphs, a str or lines as `iter_jsonl`
    takes them; blank lines ignored."""
    return [from_dict(raw) for _, raw in iter_jsonl(source)]
