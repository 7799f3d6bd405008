import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdqa import decompose, qdg
from qdqa.decompose import (
    DecompositionParseError,
    ExampleBank,
    IndexOutOfRangeError,
    SelectionParseError,
    StubClient,
    demo_bank,
)

from test_qdg import root_of


BANK = demo_bank()


def good_graph_json(gid="t0001"):
    return json.dumps({
        "graph_id": gid,
        "video_id": f"v_{gid}",
        "edge_types": ["Conjunction"],
        "nodes": [
            {"id": "q0", "text": "Does A happen and B happen?",
             "kind": "binary", "role": "main", "answer": "yes"},
            {"id": "q1", "text": "Does A happen?", "kind": "binary",
             "role": "leaf", "answer": "yes"},
            {"id": "q2", "text": "Does B happen?", "kind": "binary",
             "role": "leaf", "answer": "yes"},
        ],
        "edges": [
            {"parent": "q0", "child": "q1", "op": "Conjunction"},
            {"parent": "q0", "child": "q2", "op": "Conjunction"},
        ],
    })


def test_bank_flat_order_is_deterministic():
    flat = BANK.flat()
    assert len(flat) == 3
    # groups sorted by label: choice, comparison, conjunction
    assert flat[0][0] == "What does the child pick up first?"
    assert flat[2][0].startswith("Does the person open the door")
    assert BANK.flat() == flat


def test_bank_from_json_round_trip():
    raw = {
        "groups": {
            "g": [{
                "question": "Does A happen and B happen?",
                "graph": json.loads(good_graph_json()),
            }]
        }
    }
    bank = ExampleBank.from_json(json.dumps(raw))
    question, graph = bank.flat()[0]
    assert question == "Does A happen and B happen?"
    assert root_of(graph).id == "q0"


def test_bank_rejects_empty():
    with pytest.raises(ValueError):
        ExampleBank(groups={})
    with pytest.raises(ValueError):
        ExampleBank(groups={"x": []})


def test_select_examples_orders_by_completion():
    client = StubClient(responses=["3, 1"])
    chosen = decompose.select_examples("q?", BANK, 2, client)
    flat = BANK.flat()
    assert chosen == [flat[2], flat[0]]


def test_select_examples_retries_then_succeeds():
    client = StubClient(responses=["maybe 1 and 2 and 3?", "2, 3"])
    chosen = decompose.select_examples("q?", BANK, 2, client)
    assert len(client.prompts) == 2
    assert chosen == [BANK.flat()[1], BANK.flat()[2]]


def test_select_examples_duplicate_indices_rejected():
    client = StubClient(responses=["1, 1", "1, 1", "1, 1"])
    with pytest.raises(IndexOutOfRangeError):
        decompose.select_examples("q?", BANK, 2, client)


def test_select_examples_out_of_range_rejected():
    client = StubClient(responses=["1, 9", "0, 2", "5, 6"])
    with pytest.raises(IndexOutOfRangeError):
        decompose.select_examples("q?", BANK, 2, client)


def test_select_examples_parse_error_after_retry_limit():
    client = StubClient(responses=["nope", "nope", "nope"])
    with pytest.raises(SelectionParseError) as err:
        decompose.select_examples("q?", BANK, 2, client)
    assert err.value.attempts == 3
    assert len(client.prompts) == 3


def test_select_examples_k_too_large():
    with pytest.raises(ValueError):
        decompose.select_examples("q?", BANK, 4, StubClient())


def test_selection_prompt_is_byte_stable():
    a = decompose._selection_prompt("q?", BANK.flat(), 2)
    b = decompose._selection_prompt("q?", BANK.flat(), 2)
    assert a == b
    assert "1. What does the child pick up first?" in a


def test_decompose_question_parses_valid_completion():
    client = StubClient(
        responses=["Here is the graph:\n" + good_graph_json()]
    )
    result = decompose.decompose_question(
        "Does A happen and B happen?", BANK.flat()[:2], client
    )
    assert result.attempts == 1
    assert root_of(result.graph).text == "Does A happen and B happen?"
    assert sorted(result.sub_questions) == [
        "Does A happen?", "Does B happen?"
    ]


def test_decompose_question_retry_feeds_back_failure():
    # first completion has a dangling edge; the retry prompt must mention
    # it and the second, valid completion must be accepted
    bad = json.loads(good_graph_json())
    bad["edges"].append({"parent": "q0", "child": "q9", "op": "Conjunction"})
    client = StubClient(responses=[json.dumps(bad), good_graph_json()])
    result = decompose.decompose_question("q?", BANK.flat()[:1], client)
    assert result.attempts == 2
    assert "rejected" in client.prompts[1]
    assert "q9" in client.prompts[1]


def test_decompose_question_gives_up_after_limit():
    client = StubClient(responses=["not json", "{}", "[]"])
    with pytest.raises(DecompositionParseError) as err:
        decompose.decompose_question("q?", BANK.flat()[:1], client)
    assert err.value.attempts == 3


def test_decompose_question_requires_exemplars():
    with pytest.raises(ValueError):
        decompose.decompose_question("q?", [], StubClient())


def test_decomposition_prompt_contains_exemplar_graphs():
    prompt = decompose._decomposition_prompt("q?", BANK.flat()[:2])
    for _, graph in BANK.flat()[:2]:
        assert qdg.serialize(graph) in prompt


def test_extend_dataset_collects_and_reports():
    # two questions: the first succeeds, the second exhausts retries
    responses = [
        "1, 2",
        good_graph_json("ok001"),
        "1, 2",
        "junk", "junk", "junk",
    ]
    client = StubClient(responses=responses)
    report = decompose.extend_dataset(["good q", "bad q"], BANK, 2, client)
    assert [g.graph_id for g in report.graphs] == ["ok001"]
    assert len(report.failures) == 1
    assert report.failures[0][0] == "bad q"
    parsed = qdg.load_jsonl(report.to_jsonl())
    assert parsed[0].graph_id == "ok001"
    assert report.failure_report()["succeeded"] == 1


def test_extend_dataset_reruns_byte_identical():
    def run():
        client = StubClient(responses=["2, 1", good_graph_json("r0001")])
        return decompose.extend_dataset(["q?"], BANK, 2, client)

    assert run().to_jsonl() == run().to_jsonl()


def test_stub_client_fixture_round_trip(tmp_path):
    fixture = tmp_path / "stub.json"
    fixture.write_text(json.dumps(
        {"table": {"p": "c"}, "responses": ["r1", "r2"]}
    ))
    client = StubClient.from_fixture(fixture)
    assert client.complete("p") == "c"
    assert client.complete("x") == "r1"
    assert client.complete("x") == "r2"


def test_demo_bank_graphs_validate():
    for _, graph in BANK.flat():
        assert qdg.parse_and_validate(qdg.serialize(graph)) == graph


# run in a fresh interpreter, since this one may have loaded urllib.request
LAZY_HTTP_SCRIPT = """
import sys
from pathlib import Path
from qdqa.cli import main
from qdqa.decompose import HttpCompletionClient

tmp = Path(sys.argv[1])
assert "urllib.request" not in sys.modules, "import qdqa.cli"
main(["decompose", "--questions", str(tmp / "q.txt"), "--k", "3",
      "--stub", str(tmp / "stub.json"), "--out", str(tmp / "out.jsonl")],
     standalone_mode=False)
assert "urllib.request" not in sys.modules, "decompose --stub"
client = HttpCompletionClient(endpoint=(tmp / "reply.json").as_uri())
assert client.complete("any prompt") == "from the endpoint"
assert "urllib.request" in sys.modules
"""


def test_http_stack_loads_only_when_the_endpoint_is_called(tmp_path):
    (tmp_path / "q.txt").write_text("Does A happen and B happen?\n")
    (tmp_path / "stub.json").write_text(json.dumps(
        {"responses": ["1, 2, 3", good_graph_json("lazy01")]}))
    # a file: URL serves the reply without a socket
    (tmp_path / "reply.json").write_text(
        json.dumps({"text": "from the endpoint"}))
    src = str(Path(decompose.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LAZY_HTTP_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    graphs = qdg.load_jsonl((tmp_path / "out.jsonl").read_text())
    assert [g.graph_id for g in graphs] == ["lazy01"]
