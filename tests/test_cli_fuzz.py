"""Fuzz `qdqa validate` and `qdqa eval` with mutated graph and answer files
(one mutation inserts a line nested too deeply to decode):
every run exits 0 or 1, exit 1 prints one JSON object naming the error on
stderr, and no run ends in an uncaught exception."""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from qdqa.cli import main
from test_cli import write_row1_fixture

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
        name = draw(st.sampled_from(FILES))
        edit = draw(st.sampled_from([text_edit, line_edit, value_edit]))
        out[name] = edit(draw, out[name])
    return out


def check_contract(result):
    assert result.exit_code in (0, 1), result.output
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        payload = json.loads(result.stderr)
        assert isinstance(payload, dict) and isinstance(payload["error"], str)
        assert isinstance(payload["message"], str)
    else:
        assert json.loads(result.stdout)["status"] == "ok"


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
        for name, text in files.items():
            paths[name].write_text(text, errors="surrogatepass")
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
