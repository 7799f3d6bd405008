"""Fuzz `qdqa validate`, `qdqa eval` and `qdqa decompose` with mutated
input files (one mutation inserts a line nested too deeply to decode), and
the numeric options `eval --beta`, `gradcheck --instances` and
`decompose --k` with odd values, and `train`/`ablate` configs with one
field mutated: every run exits 0, 1 or 2, exit 1 prints one strict JSON
object (no NaN) on stderr, exit 2 is a usage error, and no run ends in an
uncaught exception."""

import json
from dataclasses import fields

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from qdqa import qdg
from qdqa.cli import main
from qdqa.decompose import demo_bank
from qdqa.train import RunConfig
from test_cli import strict_json, write_row1_fixture
from test_decompose import good_graph_json

RUNNER = CliRunner()
FILES = ("graphs", "gold", "pred")

# JSON syntax, odd numbers, escapes (one a lone surrogate), raw characters
# that other line splitters treat as line ends or whitespace, and a raw lone
# surrogate, which makes the file invalid UTF-8
TOKENS = ("{", "}", "[", "]", '"', ",", ":", "\n", " ", "null", "0", "-1",
          "1e999", "NaN", "true", '"x"', '"yes"', '""', "\\u2028",
          "\\ud800", "\\", "\u2028", "\x85", "\x0c", "\ufeff", "\ud800")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.sampled_from(["", "x", "yes", "no", "m", "Conjunction", "main",
                       "leaf", "binary", "open"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "answer", "text", "kind",
                                       "role", "parent", "child", "op"]),
                      inner, max_size=3),
    max_leaves=6,
)


def text_edit(draw, text):
    """Insert, delete or replace a short span of characters."""
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 8))
    add = draw(st.lists(st.sampled_from(TOKENS) | st.text(max_size=2),
                        max_size=3))
    return text[:at] + "".join(add) + text[at + cut:]


# deeper than the json decoder's recursion allows
DEEP_LINE = "[" * 100_000


def line_edit(draw, text):
    """Drop, repeat, swap or insert whole lines."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "repeat", "swap", "deep"]))
    if how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(j, lines[i])
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines.insert(j, DEEP_LINE)
    return "\n".join(lines)


def value_edit(draw, text):
    """Replace one value inside one line's JSON, or delete its key."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    try:
        doc = json.loads(lines[i])
    except (ValueError, RecursionError):
        return text
    parent, key = None, None
    node = doc
    for _ in range(draw(st.integers(0, 4))):
        if isinstance(node, dict) and node:
            parent, key = node, draw(st.sampled_from(sorted(node)))
        elif isinstance(node, list) and node:
            parent, key = node, draw(st.integers(0, len(node) - 1))
        else:
            break
        node = parent[key]
    if parent is None:
        doc = draw(JSON_VALUES)
    elif isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    lines[i] = json.dumps(doc, ensure_ascii=draw(st.booleans()))
    return "\n".join(lines)


@st.composite
def mutated_files(draw, texts):
    out = dict(texts)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(texts)))
        edit = draw(st.sampled_from([text_edit, line_edit, value_edit]))
        out[name] = edit(draw, out[name])
    return out


def check_exit(result, codes=(0, 1)):
    assert result.exit_code in codes, result.output
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert "Usage:" in result.output


def check_contract(result, codes=(0, 1)):
    check_exit(result, codes)
    if result.exit_code == 1:
        payload = strict_json(result.stderr)
        assert isinstance(payload, dict) and isinstance(payload["error"], str)
        assert isinstance(payload["message"], str)
    elif result.exit_code == 0:
        assert json.loads(result.stdout)["status"] == "ok"


def write_texts(paths, texts):
    for name, text in texts.items():
        paths[name].write_text(text, errors="surrogatepass")


def test_validate_and_eval_keep_the_error_contract(tmp_path_factory):
    texts = {name: path.read_text() for name, path in zip(
        FILES, write_row1_fixture(tmp_path_factory.mktemp("fixture")))}
    work = tmp_path_factory.mktemp("fuzz")
    paths = {name: work / f"{name}.jsonl" for name in FILES}
    out = work / "report.json"

    @given(files=mutated_files(texts))
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def run(files):
        write_texts(paths, files)
        check_contract(RUNNER.invoke(main, ["validate",
                                            str(paths["graphs"])]))
        out.unlink(missing_ok=True)
        result = RUNNER.invoke(main, [
            "eval", "--graphs", str(paths["graphs"]), "--gold",
            str(paths["gold"]), "--pred", str(paths["pred"]),
            "--out", str(out),
        ])
        check_contract(result)
        assert out.exists() == (result.exit_code == 0)

    run()


# values of a numeric option that no count accepts: counts below 1,
# floats where an int is due, words and an empty string
NOT_COUNTS = (st.integers(-3, 0).map(str)
              | st.sampled_from(["", "x", "1.5", "0x1", "1e2", "nan", "inf",
                                 "-inf", "-0", "1e309", "-" + "9" * 30]))
NUMBERS = NOT_COUNTS | st.sampled_from(["1", "2", "+1", " 3", "9" * 30])
FLOATS = NUMBERS | st.floats().map(repr)


def test_eval_beta_keeps_the_error_contract(tmp_path_factory):
    paths = write_row1_fixture(tmp_path_factory.mktemp("fixture"))
    out = paths[0].parent / "report.json"

    @given(beta=FLOATS)
    @settings(max_examples=40, deadline=None, database=None)
    def run(beta):
        out.unlink(missing_ok=True)
        result = RUNNER.invoke(main, [
            "eval", "--graphs", str(paths[0]), "--gold", str(paths[1]),
            "--pred", str(paths[2]), f"--beta={beta}", "--out", str(out),
        ])
        check_contract(result, (0, 1, 2))
        assert out.exists() == (result.exit_code == 0)
        if result.exit_code == 0:
            assert 0 < float(beta) < float("inf")
            strict_json(out.read_text())

    run()


# a valid count runs the finite-difference suite that many times, so only
# invalid ones are drawn; test_cli runs a valid one
@given(instances=NOT_COUNTS)
@settings(max_examples=30, deadline=None, database=None)
def test_gradcheck_instances_keeps_the_error_contract(instances):
    result = RUNNER.invoke(main, ["gradcheck", "--module", "autodiff",
                                  f"--instances={instances}"])
    check_exit(result, (2,))


def decompose_texts():
    """A bank, a stub fixture and a questions file that decompose two
    questions."""
    bank = {"groups": {
        label: [{"question": q, "graph": qdg.to_dict(g)} for q, g in items]
        for label, items in demo_bank().groups.items()}}
    stub = {"table": {}, "responses": ["1, 2, 3", good_graph_json("f1"),
                                       "3, 1, 2", good_graph_json("f2")]}
    return {"bank": json.dumps(bank), "stub": json.dumps(stub),
            "questions": "Does A happen and B happen?\nIs it red?\n"}


def check_decompose(paths, out, k="3"):
    out.unlink(missing_ok=True)
    result = RUNNER.invoke(main, [
        "decompose", "--bank", str(paths["bank"]), "--questions",
        str(paths["questions"]), "--stub", str(paths["stub"]),
        f"--k={k}", "--out", str(out),
    ])
    check_exit(result, (0, 1, 2))
    if result.exit_code == 2:
        return
    # a data error, or the report of the questions that failed
    payload = json.loads(result.stderr)
    assert isinstance(payload, dict)
    if "error" in payload:
        assert result.exit_code == 1 and not out.exists()
        assert isinstance(payload["message"], str)
        return
    graphs = qdg.load_jsonl(out.read_text())
    assert payload["succeeded"] == len(graphs)
    assert (result.exit_code == 1) == (not graphs and bool(payload["failed"]))


def test_decompose_keeps_the_error_contract(tmp_path_factory):
    texts = decompose_texts()
    work = tmp_path_factory.mktemp("decompose")
    paths = {name: work / f"{name}.txt" for name in texts}

    @given(files=mutated_files(texts))
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def run(files):
        write_texts(paths, files)
        check_decompose(paths, work / "graphs.jsonl")

    run()


def test_decompose_k_keeps_the_error_contract(tmp_path_factory):
    texts = decompose_texts()
    work = tmp_path_factory.mktemp("decompose_k")
    paths = {name: work / f"{name}.txt" for name in texts}
    write_texts(paths, texts)

    @given(k=NUMBERS)
    @settings(max_examples=30, deadline=None, database=None)
    def run(k):
        check_decompose(paths, work / "graphs.jsonl", k)

    run()


# a config that trains in about 0.1 s (ablate: 0.2 s) on one CPU
TINY_RUN = {"steps": 1, "eval_every": 1, "synthetic": {"clusters": 7}}
# these grow every graph exponentially, so their draws stay this small
GRAPH_SHAPE = {("synthetic", "max_depth"): 3, ("synthetic", "subs_max"): 3}


def config_keys():
    """Key path and default of every field of a run config, the role gains
    included."""
    cfg = RunConfig()
    keys = [((f.name,), getattr(cfg, f.name)) for f in fields(cfg)
            if f.name != "synthetic"]
    keys += [(("synthetic", f.name), getattr(cfg.synthetic, f.name))
             for f in fields(cfg.synthetic) if f.name != "role_gain"]
    return keys + [(("synthetic", "role_gain", role), gain)
                   for role, gain in cfg.synthetic.role_gain.items()]


@st.composite
def mutated_configs(draw):
    """TINY_RUN with one field set to a value of the wrong type, a
    non-finite float, zero, a negative or a small int, or with an unknown
    key beside it."""
    key, default = draw(st.sampled_from(config_keys()))
    doc = json.loads(json.dumps(TINY_RUN))
    if key[-2:-1] == ("role_gain",):
        doc["synthetic"]["role_gain"] = dict(RunConfig().synthetic.role_gain)
    owner = doc
    for part in key[:-1]:
        owner = owner.setdefault(part, {})
    how = draw(st.sampled_from(["type", "unknown", "non_finite", "zero",
                                "negative", "small"]))
    if how == "unknown":
        owner[key[-1] + "_x"] = default
        return doc
    owner[key[-1]] = draw({
        "type": st.sampled_from(["1", None, [], {}, True, 1.5]),
        "non_finite": st.sampled_from([float("nan"), float("inf"),
                                       float("-inf")]),
        "zero": st.sampled_from([0, 0.0]),
        "negative": st.sampled_from([-1, -3, -0.5]),
        "small": st.integers(1, GRAPH_SHAPE.get(key, 16)),
    }[how])
    return doc


def test_train_and_ablate_configs_keep_the_error_contract(tmp_path_factory):
    work = tmp_path_factory.mktemp("configs")
    cfg = work / "run.json"

    @given(doc=mutated_configs())
    @settings(max_examples=80, deadline=None, database=None)
    def run(doc):
        cfg.write_text(json.dumps(doc))  # NaN and Infinity as json writes
        for command, out in (("train", work / "run"),
                             ("ablate", work / "table.csv")):
            check_contract(RUNNER.invoke(main, [
                command, "--config", str(cfg), "--out", str(out)]))

    run()
