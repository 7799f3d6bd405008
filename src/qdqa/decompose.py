"""LLM-backed question decomposition: example selection, K-shot prompting,
and validated parsing of the returned decomposition graphs.

The completion client is an abstraction boundary: a function from prompt
text to completion text.  A deterministic stub client backed by a JSON
fixture stands in for a live endpoint in tests and offline runs.
"""

from __future__ import annotations

import json
import os
import re
import urllib.request
from dataclasses import dataclass, field

from . import qdg
from .qdg import QDG, QdgError

DEFAULT_RETRY_LIMIT = 3

SCHEMA_HINT = (
    '{"graph_id": str, "video_id": str, "edge_types": [str], '
    '"nodes": [{"id": str, "text": str, "kind": "binary"|"open", '
    '"role": "main"|"intermediate"|"leaf", "answer": str|null}], '
    '"edges": [{"parent": str, "child": str, "op": str}]}'
)


class DecompositionError(RuntimeError):
    def __init__(self, message, attempts=0):
        super().__init__(message)
        self.attempts = attempts


class SelectionParseError(DecompositionError):
    pass


class IndexOutOfRangeError(SelectionParseError):
    pass


class DecompositionParseError(DecompositionError):
    pass


def _load_json(text: str, what: str):
    """json.loads, with a document nested too deeply for the decoder's
    recursion raising ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None


@dataclass
class ExampleBank:
    """Exemplar (question, graph) pairs grouped by main-question type."""

    groups: dict  # label -> list of (question text, QDG)

    def __post_init__(self):
        if not self.groups:
            raise ValueError("example bank has no groups")
        for label, exemplars in self.groups.items():
            if not exemplars:
                raise ValueError(f"empty exemplar group {label!r}")

    def flat(self) -> list:
        """Deterministic numbering: groups by label, insertion order within."""
        out = []
        for label in sorted(self.groups):
            out.extend(self.groups[label])
        return out

    @classmethod
    def from_json(cls, text: str) -> "ExampleBank":
        """{"groups": {label: [{"question": str, "graph": QDG-JSON}]}};
        any other shape raises ValueError."""
        raw = _load_json(text, "example bank")
        try:
            groups = {label: [(item["question"], qdg.from_dict(item["graph"]))
                              for item in items]
                      for label, items in raw["groups"].items()}
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed example bank: {exc!r}") from None
        if not all(isinstance(q, str) for g in groups.values() for q, _ in g):
            raise ValueError("exemplar questions must be strings")
        return cls(groups=groups)


@dataclass
class DecompositionResult:
    question: str
    sub_questions: list
    graph: QDG
    raw_completion: str
    attempts: int


class StubClient:
    """Deterministic client: exact prompt table and/or a response queue."""

    def __init__(self, table=None, responses=None):
        self.table = dict(table or {})
        self.queue = list(responses or [])
        self.prompts: list[str] = []

    @classmethod
    def from_fixture(cls, path) -> "StubClient":
        """{"table": {prompt: completion}, "responses": [completion]}, both
        optional; any other shape raises ValueError."""
        with open(path) as fh:
            raw = _load_json(fh.read(), "stub fixture")
        if not isinstance(raw, dict):
            raise ValueError("stub fixture must be an object")
        table, responses = raw.get("table", {}), raw.get("responses", [])
        if not (isinstance(table, dict) and isinstance(responses, list)
                and all(isinstance(c, str)
                        for c in [*table.values(), *responses])):
            raise ValueError('stub fixture "table" must map prompts to '
                             'strings and "responses" must list strings')
        return cls(table=table, responses=responses)

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if prompt in self.table:
            return self.table[prompt]
        if self.queue:
            return self.queue.pop(0)
        raise DecompositionError("stub client has no response for prompt")


class HttpCompletionClient:
    """Minimal JSON-over-HTTP transport: {model, prompt, max_tokens} -> {text}.

    Endpoint and credential come from QDQA_LLM_ENDPOINT / QDQA_LLM_API_KEY
    unless given explicitly.
    """

    def __init__(self, endpoint=None, model="default", timeout=30.0,
                 max_tokens=1024, api_key=None):
        self.endpoint = endpoint or os.environ.get("QDQA_LLM_ENDPOINT")
        if not self.endpoint:
            raise ValueError("no completion endpoint configured")
        self.model = model
        self.timeout = timeout
        self.max_tokens = max_tokens
        self.api_key = api_key or os.environ.get("QDQA_LLM_API_KEY")

    def complete(self, prompt: str) -> str:
        payload = json.dumps(
            {"model": self.model, "prompt": prompt,
             "max_tokens": self.max_tokens}
        ).encode()
        req = urllib.request.Request(
            self.endpoint, data=payload,
            headers={"Content-Type": "application/json"},
        )
        if self.api_key:
            req.add_header("Authorization", f"Bearer {self.api_key}")
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return json.loads(resp.read())["text"]


def _selection_prompt(question: str, candidates: list, k: int) -> str:
    lines = [
        "You are given a list of candidate questions and one target "
        "question.",
        f"Pick the {k} candidates whose compositional structure is most "
        "similar to the target question.",
        "Answer with exactly the chosen candidate numbers, comma-separated, "
        "most similar first.",
        "",
        "Candidates:",
    ]
    for i, (text, _graph) in enumerate(candidates, start=1):
        lines.append(f"{i}. {text}")
    lines += ["", f"Target question: {question}", "Chosen numbers:"]
    return "\n".join(lines)


def _parse_selection(completion: str, k: int, n: int) -> list:
    try:
        numbers = [int(tok) for tok in re.findall(r"\d+", completion)]
    except ValueError as exc:  # a token beyond int()'s digit limit
        raise SelectionParseError(f"unreadable index: {exc}") from None
    if len(numbers) != k:
        raise SelectionParseError(
            f"expected {k} indices, got {numbers!r} from {completion!r}"
        )
    if len(set(numbers)) != k:
        raise IndexOutOfRangeError(f"duplicate indices in {numbers!r}")
    for idx in numbers:
        if not 1 <= idx <= n:
            raise IndexOutOfRangeError(f"index {idx} outside 1..{n}")
    return numbers


def select_examples(question: str, bank: ExampleBank, k: int, client,
                    retry_limit: int = DEFAULT_RETRY_LIMIT) -> list:
    """K most-similar exemplars, chosen by the client; completion order."""
    candidates = bank.flat()
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds {len(candidates)} exemplars")
    prompt = _selection_prompt(question, candidates, k)
    last_error = None
    for attempt in range(1, retry_limit + 1):
        completion = client.complete(prompt)
        try:
            numbers = _parse_selection(completion, k, len(candidates))
        except SelectionParseError as exc:
            exc.attempts = attempt
            last_error = exc
            continue
        return [candidates[i - 1] for i in numbers]
    raise last_error


def _decomposition_prompt(question: str, exemplars: list,
                          failure_reason: str | None = None) -> str:
    lines = [
        "Decompose the target video question into simpler sub-questions "
        "and output a decomposition graph as a single JSON object with "
        "this schema:",
        SCHEMA_HINT,
        "The root node is the target question (role=main); edges point "
        "from a question to the sub-questions it is composed from, and "
        "every edge op must appear in edge_types.",
        "",
    ]
    for i, (text, graph) in enumerate(exemplars, start=1):
        lines.append(f"Example {i} question: {text}")
        lines.append(f"Example {i} graph: {qdg.serialize(graph)}")
        lines.append("")
    lines.append(f"Target question: {question}")
    if failure_reason:
        lines.append(
            f"Your previous output was rejected: {failure_reason}. "
            "Emit corrected JSON only."
        )
    lines.append("Graph JSON:")
    return "\n".join(lines)


def _extract_json(completion: str) -> str:
    start = completion.find("{")
    end = completion.rfind("}")
    if start < 0 or end <= start:
        raise DecompositionParseError("no JSON object in completion")
    return completion[start:end + 1]


def decompose_question(question: str, exemplars: list, client,
                       retry_limit: int = DEFAULT_RETRY_LIMIT,
                       ) -> DecompositionResult:
    """Prompt, parse, validate; retry with the failure reason on bad output."""
    if not exemplars:
        raise ValueError("no exemplars given")
    failure_reason = None
    last_error = None
    completion = ""
    for attempt in range(1, retry_limit + 1):
        prompt = _decomposition_prompt(question, exemplars, failure_reason)
        completion = client.complete(prompt)
        try:
            graph = qdg.parse_and_validate(_extract_json(completion))
        except (DecompositionParseError, QdgError,
                json.JSONDecodeError) as exc:
            failure_reason = str(exc)
            last_error = DecompositionParseError(
                f"attempt {attempt}: {exc}", attempts=attempt
            )
            continue
        subs = [n.text for n in graph.nodes if n.role != "main"]
        return DecompositionResult(
            question=question,
            sub_questions=subs,
            graph=graph,
            raw_completion=completion,
            attempts=attempt,
        )
    raise last_error


@dataclass
class ExtensionReport:
    graphs: list  # validated QDGs, input order
    failures: list = field(default_factory=list)  # (question, reason)

    def to_jsonl(self) -> str:
        return "".join(qdg.serialize(g) + "\n" for g in self.graphs)

    def failure_report(self) -> dict:
        return {
            "failed": [
                {"question": q, "reason": r} for q, r in self.failures
            ],
            "succeeded": len(self.graphs),
        }


def demo_bank() -> ExampleBank:
    """A tiny built-in exemplar bank for offline runs and tests."""

    def graph(gid, root_text, edge_type, subs, root_answer,
              root_kind="binary"):
        nodes = [{"id": f"{gid}_q00", "text": root_text, "kind": root_kind,
                  "role": "main", "answer": root_answer}]
        edges = []
        for i, (text, kind, answer) in enumerate(subs, start=1):
            nid = f"{gid}_q{i:02d}"
            nodes.append({"id": nid, "text": text, "kind": kind,
                          "role": "leaf", "answer": answer})
            edges.append({"parent": f"{gid}_q00", "child": nid,
                          "op": edge_type})
        return qdg.from_dict({
            "graph_id": gid, "video_id": f"v_{gid}",
            "edge_types": [edge_type], "nodes": nodes, "edges": edges,
        })

    return ExampleBank(groups={
        "conjunction": [(
            "Does the person open the door and then leave the room?",
            graph("demo_and",
                  "Does the person open the door and then leave the room?",
                  "Conjunction",
                  [("Does the person open the door?", "binary", "yes"),
                   ("Does the person leave the room?", "binary", "yes")],
                  "yes"),
        )],
        "comparison": [(
            "Is the cup the same color as the plate?",
            graph("demo_eq", "Is the cup the same color as the plate?",
                  "Equals",
                  [("What color is the cup?", "open", "red"),
                   ("What color is the plate?", "open", "red")],
                  "yes"),
        )],
        "choice": [(
            "What does the child pick up first?",
            graph("demo_first", "What does the child pick up first?",
                  "Choose",
                  [("What does the child pick up?", "open", "ball"),
                   ("Does the child pick it up first?", "binary", "yes")],
                  "ball", root_kind="open"),
        )],
    })


def extend_dataset(questions: list, bank: ExampleBank, k: int, client,
                   retry_limit: int = DEFAULT_RETRY_LIMIT
                   ) -> ExtensionReport:
    """Decompose each question; per-question failures are reported, never
    fatal.  Output order follows input order."""
    report = ExtensionReport(graphs=[])
    for question in questions:
        try:
            exemplars = select_examples(question, bank, k, client,
                                        retry_limit)
            result = decompose_question(question, exemplars, client,
                                        retry_limit)
        except DecompositionError as exc:
            report.failures.append((question, str(exc)))
            continue
        report.graphs.append(result.graph)
    return report
