import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qdqa import cli, qdg
from qdqa.cli import main
from qdqa.decompose import demo_bank
from test_decompose import good_graph_json
from test_metrics import row1_fixture_graphs_and_preds

RUNNER = CliRunner()


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def demo_jsonl():
    return "".join(qdg.serialize(g) + "\n" for _, g in demo_bank().flat())


def cyclic_jsonl():
    doc = {
        "graph_id": "gcyc", "video_id": "v", "edge_types": ["Conjunction"],
        "nodes": [
            {"id": "a", "text": "a", "kind": "binary", "role": "main",
             "answer": "yes"},
            {"id": "b", "text": "b", "kind": "binary", "role": "leaf",
             "answer": "yes"},
            {"id": "c", "text": "c", "kind": "binary", "role": "leaf",
             "answer": "yes"},
        ],
        "edges": [
            {"parent": "a", "child": "b", "op": "Conjunction"},
            {"parent": "b", "child": "c", "op": "Conjunction"},
            {"parent": "c", "child": "b", "op": "Conjunction"},
        ],
    }
    return json.dumps(doc) + "\n"


def test_validate_ok(tmp_path):
    path = tmp_path / "graphs.jsonl"
    path.write_text(demo_jsonl())
    result = RUNNER.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"status": "ok", "graphs": 3}


def test_validate_cycle_exits_1_with_error_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(cyclic_jsonl())
    result = RUNNER.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "CycleError"
    assert payload["graph_id"] == "gcyc"


def test_validate_missing_file_is_usage_error():
    result = RUNNER.invoke(main, ["validate", "/nonexistent.jsonl"])
    assert result.exit_code == 2


def test_threads_must_be_positive(tmp_path):
    path = tmp_path / "graphs.jsonl"
    path.write_text(demo_jsonl())
    result = RUNNER.invoke(main, ["--threads", "0", "validate", str(path)])
    assert result.exit_code == 2


def write_row1_fixture(tmp_path):
    graphs, preds = row1_fixture_graphs_and_preds()
    gpath = tmp_path / "graphs.jsonl"
    gpath.write_text("".join(qdg.serialize(g) + "\n" for g in graphs))
    gold = tmp_path / "gold.jsonl"
    gold.write_text("".join(
        json.dumps({"id": n.id, "answer": n.gold_answer}) + "\n"
        for g in graphs for n in g.nodes
    ))
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(
        json.dumps({"id": nid, "answer": ans}) + "\n"
        for nid, ans in preds.items()
    ))
    return gpath, gold, pred


def test_eval_row1_fixture_writes_cf1(tmp_path):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    out = tmp_path / "report.json"
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(out),
    ])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["c_f"] == 66.67
    assert report["ca"] == 50.0


def test_eval_missing_prediction_exits_1(tmp_path):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    pred.write_text(pred.read_text().split("\n", 1)[1])
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "MissingPredictionError"


def eval_error(tmp_path, pred_text):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    pred.write_text(pred_text(pred.read_text()))
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 1
    return json.loads(result.stderr)


def test_eval_non_string_answer_exits_1(tmp_path):
    def first_answer_int(text):
        first, rest = text.split("\n", 1)
        return json.dumps({"id": json.loads(first)["id"], "answer": 1}) \
            + "\n" + rest

    payload = eval_error(tmp_path, first_answer_int)
    assert payload["error"] == "ValueError"
    assert "line 1" in payload["message"]


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "0", "1e155",
                                  "1e200"])
def test_eval_beta_not_finite_and_positive_exits_1(tmp_path, beta):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    out = tmp_path / "r.json"
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), f"--beta={beta}", "--out", str(out),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "ValueError"
    assert "beta must be finite and positive" in payload["message"]
    assert not out.exists()


def test_eval_binary_gold_maybe_exits_1(tmp_path):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    binary = next(n.id for g in qdg.load_jsonl(gpath.read_text())
                  for n in g.nodes if n.kind == "binary")
    rows = [json.loads(line) for line in gold.read_text().splitlines()]
    for row in rows:
        if row["id"] == binary:
            row["answer"] = "maybe"
    gold.write_text("".join(json.dumps(row) + "\n" for row in rows))
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "QdgError"
    assert binary in payload["message"] and "'maybe'" in payload["message"]


def test_eval_non_object_prediction_line_exits_1(tmp_path):
    payload = eval_error(tmp_path, lambda text: text + "[1, 2]\n")
    assert payload["error"] == "ValueError"


def test_validate_non_string_answer_exits_1(tmp_path):
    doc = json.loads(cyclic_jsonl())
    doc["edges"] = doc["edges"][:2]
    doc["nodes"][1]["answer"] = 1
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    result = RUNNER.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "QdgError"
    assert payload["graph_id"] == "gcyc"


def validate_error(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    result = RUNNER.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    payload = strict_json(result.stderr)
    assert payload["error"] == "QdgError"
    return payload


def acyclic_doc():
    doc = json.loads(cyclic_jsonl())
    doc["edges"] = doc["edges"][:2]
    return doc


def test_validate_non_object_line_exits_1(tmp_path):
    payload = validate_error(tmp_path, "[1, 2]")
    assert "not an object" in payload["message"]


def test_validate_list_edge_parent_exits_1(tmp_path):
    doc = acyclic_doc()
    doc["edges"][0]["parent"] = ["a"]
    payload = validate_error(tmp_path, json.dumps(doc))
    assert "parent ['a']" in payload["message"]
    assert payload["graph_id"] == "gcyc"


def test_validate_non_string_node_fields_exits_1(tmp_path):
    doc = acyclic_doc()
    doc["nodes"][1].update(id=7, text=3)
    payload = validate_error(tmp_path, json.dumps(doc))
    assert "id 7" in payload["message"] and "text 3" in payload["message"]
    assert payload["graph_id"] == "gcyc"


@pytest.mark.parametrize("key, value", [
    ("graph_id", 7), ("graph_id", None), ("graph_id", float("nan")),
    ("video_id", []), ("video_id", 7.5)])
def test_validate_non_string_graph_or_video_id_exits_1(tmp_path, key, value):
    doc = acyclic_doc()
    doc[key] = value
    payload = validate_error(tmp_path, json.dumps(doc))  # NaN as json writes
    assert f"{key} must be a string" in payload["message"]
    assert payload["graph_id"] == (None if key == "graph_id" else "gcyc")


def test_validate_nan_graph_id_before_malformed_nodes_exits_1(tmp_path):
    payload = validate_error(
        tmp_path, '{"graph_id": NaN, "nodes": 1, "edges": []}')
    assert "graph_id must be a string" in payload["message"]
    assert payload["graph_id"] is None


@pytest.mark.parametrize("edge_types", [[["Conjunction"]], 5])
def test_validate_bad_edge_types_exits_1(tmp_path, edge_types):
    doc = acyclic_doc()
    doc["edge_types"] = edge_types
    payload = validate_error(tmp_path, json.dumps(doc))
    assert "edge_types" in payload["message"]


@pytest.mark.parametrize("which", ["gold", "pred"])
def test_eval_repeated_answer_id_exits_1(tmp_path, which):
    files = dict(zip(("graphs", "gold", "pred"), write_row1_fixture(tmp_path)))
    text = files[which].read_text()
    files[which].write_text(text + text.split("\n", 1)[0] + "\n")
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(files["graphs"]), "--gold",
        str(files["gold"]), "--pred", str(files["pred"]),
        "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "ValueError"
    n = len(text.splitlines()) + 1
    assert f"line {n}" in payload["message"]
    assert "repeats line 1" in payload["message"]


@pytest.mark.parametrize("which", ["gold", "pred"])
def test_eval_unknown_answer_id_exits_1(tmp_path, which):
    files = dict(zip(("graphs", "gold", "pred"), write_row1_fixture(tmp_path)))
    files[which].write_text(files[which].read_text() + json.dumps(
        {"id": "nowhere", "answer": "yes"}) + "\n")
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(files["graphs"]), "--gold",
        str(files["gold"]), "--pred", str(files["pred"]),
        "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "ValueError"
    assert payload["message"] == (
        f"{files[which]}: id 'nowhere' names no node of --graphs")
    assert not (tmp_path / "r.json").exists()


def test_eval_node_id_in_two_graphs_exits_1(tmp_path):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    first = json.loads(gpath.read_text().split("\n", 1)[0])
    owner = first["graph_id"]
    first["graph_id"] = "copy"
    repeated = qdg.from_dict(first).nodes[0].id
    gpath.write_text(gpath.read_text() + json.dumps(first) + "\n")
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "QdgError"
    assert payload["message"] == (
        f"node id {repeated!r} appears in graphs {owner!r} and 'copy'")


def test_eval_answer_maps_key_by_the_graphs_id_objects(tmp_path,
                                                       monkeypatch):
    """One string object per node id: the gold and prediction maps hold
    the parsed graphs' own ids, not the decoder's copies."""
    gpath, gold, pred = write_row1_fixture(tmp_path)
    seen = {}
    apply_gold, full_report = cli._apply_gold, cli.metrics.full_report

    def recording_apply_gold(graph, gold_map):
        seen.setdefault("node_ids", {}).update(
            (n.id, n.id) for n in graph.nodes)
        seen["gold"] = gold_map
        return apply_gold(graph, gold_map)

    def recording_full_report(graphs, predictions, beta):
        seen["predictions"] = predictions
        seen["gold_node_ids"] = [n.id for g in graphs for n in g.nodes]
        return full_report(graphs, predictions, beta)

    monkeypatch.setattr(cli, "_apply_gold", recording_apply_gold)
    monkeypatch.setattr(cli.metrics, "full_report", recording_full_report)
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(tmp_path / "r.json"),
    ])
    assert result.exit_code == 0, result.output
    node_ids = seen["node_ids"]
    for answers in (seen["gold"], seen["predictions"]):
        assert answers.keys() == node_ids.keys()
        assert all(nid is node_ids[nid] for nid in answers)
    # the gold-applied graphs keep the same id objects
    assert all(nid is node_ids[nid] for nid in seen["gold_node_ids"])


SEPARATORS = "\x85\u2028\u2029"  # str.splitlines() breaks on these


def validate_and_eval_with_separators(tmp_path, ensure_ascii):
    """Row-1 fixture with the separators in every node text and every
    prediction; returns validate's stdout and eval's report."""
    graphs, preds = row1_fixture_graphs_and_preds()
    docs = [qdg.to_dict(g) for g in graphs]
    for doc in docs:
        for n in doc["nodes"]:
            n["text"] = f"{SEPARATORS}{n['text']}{SEPARATORS}"
    tmp_path.mkdir()
    gpath, gold, pred = (tmp_path / f"{name}.jsonl"
                         for name in ("graphs", "gold", "pred"))
    gpath.write_text("".join(
        json.dumps(doc, ensure_ascii=ensure_ascii) + "\n" for doc in docs))
    gold.write_text("".join(
        json.dumps({"id": n.id, "answer": n.gold_answer}) + "\n"
        for g in graphs for n in g.nodes))
    pred.write_text("".join(
        json.dumps({"id": nid, "answer": f"{ans}{SEPARATORS}"},
                   ensure_ascii=ensure_ascii) + "\n"
        for nid, ans in preds.items()))
    assert (SEPARATORS in pred.read_text()) == (not ensure_ascii)
    validated = RUNNER.invoke(main, ["validate", str(gpath)])
    assert validated.exit_code == 0, validated.output
    out = tmp_path / "report.json"
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    return validated.stdout, out.read_text()


def test_unescaped_line_separators_inside_strings_parse(tmp_path):
    """JSONL lines end at "\\n" only: the same data with the separators
    written raw or escaped validates and scores the same."""
    raw = validate_and_eval_with_separators(tmp_path / "raw", False)
    escaped = validate_and_eval_with_separators(tmp_path / "escaped", True)
    assert raw == escaped


def test_crlf_files_validate_and_score_as_lf(tmp_path):
    """A "\\r" before each "\\n" is stripped with the line's whitespace."""
    outputs = []
    for name, end in (("lf", "\n"), ("crlf", "\r\n")):
        folder = tmp_path / name
        folder.mkdir()
        files = write_row1_fixture(folder)
        for path in files:
            path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        gpath, gold, pred = files
        assert (b"\r\n" in gpath.read_bytes()) == (end == "\r\n")
        validated = RUNNER.invoke(main, ["validate", str(gpath)])
        assert validated.exit_code == 0, validated.output
        out = folder / "report.json"
        result = RUNNER.invoke(main, [
            "eval", "--graphs", str(gpath), "--gold", str(gold),
            "--pred", str(pred), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        outputs.append((validated.stdout, out.read_text()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("which", ["graphs", "gold", "pred"])
@pytest.mark.parametrize("line", [
    "nope",
    '{"id": "a", "answer": "b"',
    '{"id": "a", "answer": "b"}}',
    '{"id": "a", "answer": "b"} {"id": "c", "answer": "d"}',
    '{"id": "a", "answer": "b"}{"id": "c", "answer": "d"}',
    '{"id": "a", "answer": "b\u0001"}',
    '\ufeff{"id": "a", "answer": "b"}',
], ids=["bare_word", "unclosed", "extra_brace", "two_objects",
        "two_objects_no_space", "control_char", "bom"])
def test_eval_bad_json_line_exits_1_with_json_error(tmp_path, which, line):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line)
    files = dict(zip(("graphs", "gold", "pred"), write_row1_fixture(tmp_path)))
    text = files[which].read_text()
    files[which].write_text(text + line + "\n")
    number = len(text.split("\n"))
    commands = [["eval", "--graphs", str(files["graphs"]), "--gold",
                 str(files["gold"]), "--pred", str(files["pred"]),
                 "--out", str(tmp_path / "r.json")]]
    if which == "graphs":
        commands.append(["validate", str(files["graphs"])])
    for command in commands:
        result = RUNNER.invoke(main, command)
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "JSONDecodeError",
            "message": f"{files[which]}: line {number}: {expected.value}"}


@pytest.mark.parametrize("which", ["graphs", "gold", "pred"])
def test_non_utf8_file_exits_1_with_json_error(tmp_path, which):
    files = dict(zip(("graphs", "gold", "pred"), write_row1_fixture(tmp_path)))
    text = files[which].read_bytes()
    files[which].write_bytes(text + b"\xff\n")
    line = text.count(b"\n") + 1
    commands = [["eval", "--graphs", str(files["graphs"]), "--gold",
                 str(files["gold"]), "--pred", str(files["pred"]),
                 "--out", str(tmp_path / "r.json")]]
    if which == "graphs":
        commands.append(["validate", str(files["graphs"])])
    for command in commands:
        result = RUNNER.invoke(main, command)
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload["error"] == "UnicodeDecodeError"
        assert payload["message"] == (
            f"'utf-8' codec can't decode byte 0xff in position 0: invalid "
            f"start byte on line {line} (byte {len(text)} "
            f"of the file), in {files[which]}")


@pytest.mark.parametrize("which", ["graphs", "gold", "pred"])
def test_non_utf8_byte_past_the_first_read_chunk_names_its_line(tmp_path,
                                                                which):
    """The text reader decodes in chunks and counts its position from the
    start of the current one; the message counts from the file's start."""
    files = dict(zip(("graphs", "gold", "pred"), write_row1_fixture(tmp_path)))
    text = files[which].read_bytes() + b"\n" * 70_000
    files[which].write_bytes(text + b'{"id": "\xe2\x82"}\n')
    line = text.count(b"\n") + 1
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(files["graphs"]), "--gold",
        str(files["gold"]), "--pred", str(files["pred"]),
        "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "UnicodeDecodeError",
        "message": f"'utf-8' codec can't decode bytes in position 8-9: "
                   f"invalid continuation byte on line {line} (byte "
                   f"{len(text) + 8} of the file), in {files[which]}"}


@pytest.mark.parametrize("which", ["graphs", "gold", "pred"])
@pytest.mark.parametrize("nest", ["[" * 100_000, '{"a":' * 100_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_line_exits_1_with_json_error(tmp_path, which, nest):
    files = dict(zip(("graphs", "gold", "pred"), write_row1_fixture(tmp_path)))
    text = files[which].read_text()
    files[which].write_text(text + nest + "\n")
    line = len(text.split("\n"))
    commands = [["eval", "--graphs", str(files["graphs"]), "--gold",
                 str(files["gold"]), "--pred", str(files["pred"]),
                 "--out", str(tmp_path / "r.json")]]
    if which == "graphs":
        commands.append(["validate", str(files["graphs"])])
    for command in commands:
        result = RUNNER.invoke(main, command)
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "ValueError",
            "message": f"{files[which]}: line {line}: JSON nested too deeply"}


def tiny_run_config(tmp_path, **kw):
    from qdqa.synth import SyntheticConfig
    from qdqa.train import RunConfig

    cfg = RunConfig(synthetic=SyntheticConfig(clusters=8, seed=0),
                    steps=4, eval_every=2, batch_clusters=2, **kw)
    path = tmp_path / "run.json"
    path.write_text(cfg.to_json())
    return path


def test_train_command_is_reproducible(tmp_path):
    cfg_path = tiny_run_config(tmp_path)

    def run(name):
        out = tmp_path / name
        result = RUNNER.invoke(main, [
            "--threads", "1", "train", "--config", str(cfg_path),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        return (out / "report.json").read_text()

    assert run("a") == run("b")


def test_train_report_does_not_depend_on_threads(tmp_path, monkeypatch):
    from qdqa import train as tr
    from qdqa.synth import SyntheticConfig, generate_dataset

    cfg = tr.RunConfig(synthetic=SyntheticConfig(clusters=10, seed=0),
                       steps=4, eval_every=2, batch_clusters=2)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg.to_json())
    monkeypatch.setattr(tr, "WORKERS", tr.WORKERS)  # restored afterwards
    monkeypatch.setattr(tr, "CLIP_BLOCK", 2)
    # so every validation evaluation at --threads 2 runs on two threads
    validation = generate_dataset(cfg.synthetic).validation
    assert len(validation.planted) > 6

    def run(threads):
        out = tmp_path / f"threads{threads}"
        result = RUNNER.invoke(main, [
            "--threads", str(threads), "train", "--config", str(cfg_path),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert tr.WORKERS == threads
        return [(out / name).read_bytes()
                for name in ("report.json", "checkpoint/params.bin")]

    assert run(1) == run(2)


def test_train_command_writes_artifacts(tmp_path):
    cfg_path = tiny_run_config(tmp_path)
    out = tmp_path / "run_out"
    result = RUNNER.invoke(main, [
        "train", "--config", str(cfg_path), "--out", str(out),
    ])
    assert result.exit_code == 0
    status = json.loads(result.stdout)
    assert status["status"] == "ok"
    for name in ("report.json", "epochs.csv", "runtime.json",
                 "run_config.json"):
        assert (out / name).exists()
    assert (out / "checkpoint" / "params.bin").exists()


# run in a fresh interpreter, since this one has loaded numpy
NUMPY_FREE_SCRIPT = """
import sys
from qdqa.cli import main

graphs, gold, pred, out = sys.argv[1:]
assert "numpy" not in sys.modules, "import qdqa.cli"
main(["validate", graphs], standalone_mode=False)
assert "numpy" not in sys.modules, "qdqa validate"
main(["eval", "--graphs", graphs, "--gold", gold, "--pred", pred,
      "--out", out], standalone_mode=False)
assert "numpy" not in sys.modules, "qdqa eval"
"""


def test_numpy_loads_only_for_the_model_commands(tmp_path):
    files = [str(path) for path in write_row1_fixture(tmp_path)]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, *files,
         str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "r.json").read_text())["c_f"] == 66.67


def test_train_command_bad_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"steps": -5}))
    result = RUNNER.invoke(main, [
        "train", "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "ConfigError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key", ["noise_scale", "op_signal_scale"])
def test_train_command_non_finite_features_exit_1_with_json_only(tmp_path,
                                                                 key):
    # the noise overflows to inf, or the cued question tokens' mean and the
    # clip signal with it; numpy's overflow and invalid-value warnings must
    # not reach stderr ahead of the JSON error
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"synthetic": {key: 1e308, "clusters": 8},
                               "steps": 1}))
    result = RUNNER.invoke(main, [
        "train", "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 1
    error = json.loads(result.stderr)
    assert (error["error"], error["message"]) == (
        "ValueError", "non-finite video features")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key", ["answer_scale", "relevance_scale",
                                 "question_scale"])
def test_train_command_non_finite_loss_dump_is_strict_json(tmp_path, key):
    # finite features whose loss overflows: the dump writes a non-finite
    # term as a string, and no numpy warning precedes the JSON
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"synthetic": {key: 1e308, "clusters": 8},
                               "steps": 1}))
    result = RUNNER.invoke(main, [
        "train", "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 1
    error = strict_json(result.stderr)
    assert error["error"] == "NonFiniteLossError"
    dump = error["dump"]
    assert dump["step"] == 1
    terms = {k: v for k, v in dump.items() if k not in ("step", "param")}
    assert set(terms) == {"answer_ce", "contrastive", "aggregation"}
    assert any(v in ("inf", "nan") for v in terms.values())
    for value in terms.values():
        assert value in ("inf", "-inf", "nan") or np.isfinite(value)


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("text, named", [
    ("[]", "config must"),
    ('{"stepz": 3}', "config.stepz"),
    ('{"synthetic": {"clusterz": 3}}', "config.synthetic.clusterz"),
    ('{"synthetic": 5}', "config.synthetic must"),
    ('{"steps": "3"}', "config.steps must"),
    ('{"synthetic": {"role_gain": {}}}', "role_gain.main is missing"),
    ('{"synthetic": {"role_gain": {"leaf": "x"}}}',
     "role_gain.leaf must be a number"),
    ('{"synthetic": {"clusters": 2}}', "synthetic.clusters"),
    ('{"seed": -1}', "seed must be >= 0"),
    ('{"synthetic": {"seed": -1}}', "synthetic.seed must be >= 0"),
    ('{"steps": 2, "synthetic": {"open_leaf_prob": 2.0, "clusters": 8}}',
     "open_leaf_prob must lie in"),
], ids=["list", "unknown_key", "unknown_nested_key", "non_object_synthetic",
        "string_steps", "empty_role_gain", "string_role_gain",
        "empty_split", "negative_seed", "negative_synthetic_seed",
        "open_leaf_prob_above_one"])
def test_malformed_config_exits_1_naming_the_key(tmp_path, command, text,
                                                 named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    result = RUNNER.invoke(main, [
        command, "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "ConfigError"
    assert named in payload["message"]


def float_config_fields():
    """Key paths of every float in a run config, the role gains included."""
    from dataclasses import fields

    from qdqa.train import RunConfig

    cfg = RunConfig()
    paths = [(f.name,) for f in fields(cfg)
             if type(getattr(cfg, f.name)) is float]
    paths += [("synthetic", f.name) for f in fields(cfg.synthetic)
              if type(getattr(cfg.synthetic, f.name)) is float]
    return paths + [("synthetic", "role_gain", role)
                    for role in cfg.synthetic.role_gain]


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("key", float_config_fields(),
                         ids=".".join)
def test_non_finite_config_float_exits_1_naming_the_key(tmp_path, command,
                                                        key):
    from qdqa.train import RunConfig

    for value in (float("nan"), float("inf"), float("-inf")):
        doc = {"steps": 2, "eval_every": 1, "synthetic": {"clusters": 7}}
        if key[-2:-1] == ("role_gain",):
            doc["synthetic"]["role_gain"] = dict(
                RunConfig().synthetic.role_gain)
        owner = doc
        for part in key[:-1]:
            owner = owner[part]
        owner[key[-1]] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))  # NaN, Infinity, -Infinity
        out = tmp_path / "o"
        result = RUNNER.invoke(main, [
            command, "--config", str(cfg), "--out", str(out),
        ])
        assert result.exit_code == 1, (value, result.output)
        payload = json.loads(result.stderr)
        assert payload["error"] == "ConfigError"
        assert ".".join(key[-2:]) in payload["message"]
        assert "finite" in payload["message"]
        assert not out.exists()


def test_non_finite_loss_dump_names_the_parameter(tmp_path, monkeypatch):
    from qdqa import train as tr

    init = tr.init_params

    def poisoned(config):
        store = init(config)
        store["bb.l1.w"].data[0, 0] = np.nan
        return store

    monkeypatch.setattr(tr, "init_params", poisoned)
    cfg_path = tiny_run_config(tmp_path)
    result = RUNNER.invoke(main, [
        "train", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "NonFiniteLossError"
    assert payload["dump"]["param"] == "bb.l1.w"


def test_ablate_command(tmp_path):
    cfg_path = tiny_run_config(tmp_path)
    out = tmp_path / "table.csv"
    result = RUNNER.invoke(main, [
        "ablate", "--config", str(cfg_path), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "row,main_acc,sub_acc,c_f,nc_f"
    assert len(lines) == 6


def unwritable_out_error(result, path):
    """exit 1 with one strict JSON error object that names `path`."""
    assert result.exit_code == 1, result.output
    payload = strict_json(result.stderr)
    assert set(payload) >= {"error", "message"}
    assert str(path) in payload["message"]
    return payload


def test_eval_out_in_missing_directory_exits_1(tmp_path):
    gpath, gold, pred = write_row1_fixture(tmp_path)
    out = tmp_path / "nodir" / "r.json"
    result = RUNNER.invoke(main, [
        "eval", "--graphs", str(gpath), "--gold", str(gold),
        "--pred", str(pred), "--out", str(out),
    ])
    assert unwritable_out_error(result, out)["error"] == "FileNotFoundError"


def count_training_steps(monkeypatch):
    from qdqa import train as tr

    steps = []
    forward = tr.forward_losses

    def counting(*args, **kwargs):
        steps.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(tr, "forward_losses", counting)
    return steps


def test_train_out_below_a_file_exits_1_before_step_1(tmp_path,
                                                      monkeypatch):
    cfg_path = tiny_run_config(tmp_path)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    steps = count_training_steps(monkeypatch)
    result = RUNNER.invoke(main, [
        "train", "--config", str(cfg_path), "--out", str(out),
    ])
    assert unwritable_out_error(result, out)["error"] == "NotADirectoryError"
    assert not steps


def test_ablate_out_in_missing_directory_exits_1_before_training(
        tmp_path, monkeypatch):
    cfg_path = tiny_run_config(tmp_path)
    out = tmp_path / "nodir" / "table.csv"
    steps = count_training_steps(monkeypatch)
    result = RUNNER.invoke(main, [
        "ablate", "--config", str(cfg_path), "--out", str(out),
    ])
    assert unwritable_out_error(result, out)["error"] == "FileNotFoundError"
    assert not steps


def test_decompose_out_in_missing_directory_exits_1(tmp_path):
    questions = tmp_path / "q.txt"
    questions.write_text("Does A happen and B happen?\n")
    stub = tmp_path / "stub.json"
    stub.write_text(json.dumps(
        {"responses": ["1, 2, 3", good_graph_json("cli01")]}))
    out = tmp_path / "nodir" / "graphs.jsonl"
    result = RUNNER.invoke(main, [
        "decompose", "--questions", str(questions), "--stub", str(stub),
        "--out", str(out),
    ])
    assert unwritable_out_error(result, out)["error"] == "FileNotFoundError"


def test_gradcheck_command():
    result = RUNNER.invoke(main, [
        "gradcheck", "--module", "aggregator", "--instances", "1",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["status"] == "ok"
    assert all(err < 1e-4 for err in payload["max_errors"].values())


@pytest.mark.parametrize("value", ["0", "-1"])
def test_gradcheck_instances_below_1_is_usage_error(value):
    result = RUNNER.invoke(main, ["gradcheck", f"--instances={value}"])
    assert result.exit_code == 2
    assert "--instances" in result.output


@pytest.mark.parametrize("value", ["0", "-1"])
def test_decompose_k_below_1_is_usage_error(tmp_path, value):
    questions = tmp_path / "q.txt"
    questions.write_text("Does A happen and B happen?\n")
    stub = tmp_path / "stub.json"
    stub.write_text(json.dumps({"responses": ["1, 2, 3"]}))
    result = RUNNER.invoke(main, [
        "decompose", "--questions", str(questions), f"--k={value}",
        "--stub", str(stub),
    ])
    assert result.exit_code == 2
    assert "--k" in result.output


def test_decompose_command_with_stub(tmp_path):
    questions = tmp_path / "q.txt"
    questions.write_text("Does A happen and B happen?\n")
    stub = tmp_path / "stub.json"
    stub.write_text(json.dumps(
        {"responses": ["1, 2, 3", good_graph_json("cli01")]}
    ))

    def run():
        return RUNNER.invoke(main, [
            "decompose", "--questions", str(questions), "--k", "3",
            "--stub", str(stub),
        ])

    result = run()
    assert result.exit_code == 0, result.output
    graphs = qdg.load_jsonl(result.stdout)
    assert graphs[0].graph_id == "cli01"
    assert json.loads(result.stderr)["succeeded"] == 1
    assert run().stdout == result.stdout


@pytest.mark.parametrize("which,text", [
    ("bank", "null"),
    ("bank", '{"groups": []}'),
    ("bank", json.dumps({"groups": {"g": [
        {"question": 1, "graph": json.loads(good_graph_json())}]}})),
    ("bank", "[" * 100_000),
    ("stub", "[]"),
    ("stub", '{"responses": [1]}'),
    ("stub", '{"table": {"p": null}}'),
])
def test_decompose_malformed_bank_or_stub_exits_1(tmp_path, which, text):
    files = {"questions": "q?\n", "bank": "", "stub": "{}", which: text}
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    command = ["decompose", "--questions", str(tmp_path / "questions"),
               "--stub", str(tmp_path / "stub")]
    if files["bank"]:
        command += ["--bank", str(tmp_path / "bank")]
    result = RUNNER.invoke(main, command)
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "ValueError"


def test_decompose_huge_selection_index_fails_one_question(tmp_path):
    questions = tmp_path / "q.txt"
    questions.write_text("Does A happen and B happen?\nDoes C happen?\n")
    stub = tmp_path / "stub.json"
    # the second selection answer has more digits than int() converts
    stub.write_text(json.dumps(
        {"responses": ["1, 2, 3", good_graph_json("cli01"), "9" * 5000]}))
    out = tmp_path / "graphs.jsonl"
    result = RUNNER.invoke(main, [
        "decompose", "--questions", str(questions), "--stub", str(stub),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert [g.graph_id for g in qdg.load_jsonl(out.read_text())] \
        == ["cli01"]
    report = json.loads(result.stderr)
    assert report["succeeded"] == 1
    assert [f["question"] for f in report["failed"]] == ["Does C happen?"]


def test_decompose_all_failures_exits_1(tmp_path):
    questions = tmp_path / "q.txt"
    questions.write_text("q?\n")
    stub = tmp_path / "stub.json"
    stub.write_text(json.dumps({"responses": ["junk"] * 6}))
    result = RUNNER.invoke(main, [
        "decompose", "--questions", str(questions), "--stub", str(stub),
    ])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["succeeded"] == 0


def test_help_lists_all_subcommands():
    result = RUNNER.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("validate", "eval", "train", "ablate", "gradcheck",
                "decompose"):
        assert cmd in result.output
