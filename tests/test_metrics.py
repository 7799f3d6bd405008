import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qdqa import metrics, qdg
from qdqa.metrics import ConsistencyCounts, compute_metrics

from test_qdg import make_doc, node, random_dag


# The published counterexample table, as (n_pp, n_pm, n_mp, n_mm) with the
# expected percentages.  Delta follows the formula delta = rwr - ca, which
# flips the printed sign on rows 5 and 6; nc_f on rows 6 and 7 follows the
# F-score definition (the printed values are exactly half of it).  Those
# cells are pinned to the formula here, not to the printed table.
GOLDEN_ROWS = [
    # counts,                ca,     rwr,    delta,  acc,   c_f1,  nc_f1
    ((100, 100, 0, 10), 50.00, 0.00, -50.00, 47.62, 66.67, 16.67),
    ((10, 100, 0, 100), 9.09, 0.00, -9.09, 4.76, 16.67, 66.67),
    ((100, 0, 100, 10), 100.00, 90.91, -9.09, 95.24, 66.67, 16.67),
    ((10, 0, 100, 100), 100.00, 50.00, -50.00, 52.38, 16.67, 66.67),
    ((99, 100, 1, 0), 49.75, 100.00, 50.25, 50.00, 66.22, 0.00),
    ((100, 99, 0, 1), 50.25, 0.00, -50.25, 50.00, 66.89, 1.98),
    ((99, 99, 1, 1), 50.00, 50.00, 0.00, 50.00, 66.44, 1.96),
]


@pytest.mark.parametrize("row", GOLDEN_ROWS, ids=[f"row{i+1}" for i in range(7)])
def test_golden_table(row):
    counts, ca, rwr, delta, acc, c_f1, nc_f1 = row
    r = compute_metrics(ConsistencyCounts(*counts), beta=1.0)
    tol = 0.02  # published Acc./F values are truncated, not rounded
    assert r.ca == pytest.approx(ca, abs=tol)
    assert r.rwr == pytest.approx(rwr, abs=tol)
    assert r.delta == pytest.approx(delta, abs=tol)
    assert r.parent_accuracy == pytest.approx(acc, abs=tol)
    assert r.c_f == pytest.approx(c_f1, abs=tol)
    assert r.nc_f == pytest.approx(nc_f1, abs=tol)


def test_empty_tally_all_degenerate():
    r = compute_metrics(ConsistencyCounts(0, 0, 0, 0))
    for name in ("ca", "rwr", "delta", "cp", "cr", "ncp", "ncr", "c_f", "nc_f"):
        assert getattr(r, name) == 0.0
    assert set(r.degenerate_flags) >= {"ca", "rwr", "cr", "ncr", "c_f", "nc_f"}


def test_beta_must_be_positive():
    with pytest.raises(ValueError):
        compute_metrics(ConsistencyCounts(1, 1, 1, 1), beta=0.0)


def two_node_graph(idx, parent_ans="Yes", child_ans="Yes"):
    doc = make_doc(
        [
            node(f"g{idx}_m", role="main", answer=parent_ans),
            node(f"g{idx}_s", answer=child_ans),
        ],
        [{"parent": f"g{idx}_m", "child": f"g{idx}_s", "op": "Conjunction"}],
    )
    return qdg.parse_and_validate(doc)


def test_tally_single_pair_all_correct():
    g = two_node_graph(0)
    preds = {"g0_m": "Yes", "g0_s": "Yes"}
    c = metrics.tally_counts([g], preds)
    assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == (1, 0, 0, 0)


def test_tally_parent_correct_one_child_wrong():
    doc = make_doc(
        [node("m", role="main"), node("s1"), node("s2")],
        [
            {"parent": "m", "child": "s1", "op": "Conjunction"},
            {"parent": "m", "child": "s2", "op": "Conjunction"},
        ],
    )
    g = qdg.parse_and_validate(doc)
    c = metrics.tally_counts([g], {"m": "Yes", "s1": "Yes", "s2": "No"})
    assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == (0, 0, 1, 0)


def test_answer_match_trims_and_casefolds():
    g = two_node_graph(0)
    c = metrics.tally_counts([g], {"g0_m": "  YES ", "g0_s": "yes"})
    assert c.n_pp == 1


def test_missing_prediction_raises():
    g = two_node_graph(0)
    with pytest.raises(metrics.MissingPredictionError):
        metrics.tally_counts([g], {"g0_m": "Yes"})


def test_missing_gold_raises():
    doc = make_doc(
        [node("m", role="main", answer=None), node("s")],
        [{"parent": "m", "child": "s", "op": "Conjunction"}],
    )
    g = qdg.parse_and_validate(doc)
    with pytest.raises(metrics.MissingGoldError):
        metrics.tally_counts([g], {"m": "Yes", "s": "Yes"})


def brute_force_counts(graphs, predictions):
    """Independent oracle: explicit loop over parents, re-deriving children
    from the raw edge list every time."""
    buckets = [0, 0, 0, 0]  # pp, pm, mp, mm
    for g in graphs:
        by_id = {n.id: n for n in g.nodes}
        for n in g.nodes:
            children = [e.child for e in g.edges if e.parent == n.id]
            if not children:
                continue
            p_ok = (
                predictions[n.id].strip().casefold()
                == n.gold_answer.strip().casefold()
            )
            kids_ok = True
            for cid in children:
                cn = by_id[cid]
                if (
                    predictions[cid].strip().casefold()
                    != cn.gold_answer.strip().casefold()
                ):
                    kids_ok = False
            idx = (0 if p_ok else 1) + (0 if kids_ok else 2)
            buckets[idx] += 1
    return tuple(buckets)


def random_predictions(graphs, rnd):
    preds = {}
    for g in graphs:
        for n in g.nodes:
            preds[n.id] = n.gold_answer if rnd.random() < 0.6 else "wrong!"
    return preds


def test_tally_matches_brute_force_on_random_graphs():
    rnd = random.Random(7)
    graphs = [random_dag(1000 + i, rnd.randrange(2, 12)) for i in range(50)]
    # ids collide across graphs generated the same way; namespace them
    preds = random_predictions(graphs, rnd)
    c = metrics.tally_counts(graphs, preds)
    assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == brute_force_counts(graphs, preds)


def test_tally_invariant_under_graph_order():
    rnd = random.Random(3)
    graphs = [random_dag(i, 6) for i in range(10)]
    preds = random_predictions(graphs, rnd)
    a = metrics.tally_counts(graphs, preds)
    b = metrics.tally_counts(list(reversed(graphs)), preds)
    assert a == b


counts_strategy = st.tuples(
    st.integers(0, 500), st.integers(0, 500),
    st.integers(0, 500), st.integers(0, 500),
)


@given(counts=counts_strategy)
@settings(max_examples=200, deadline=None)
def test_precision_identities(counts):
    c = ConsistencyCounts(*counts)
    r = compute_metrics(c)
    # cP is CA and NcP is 100 - RWR, exactly (unless RWR is degenerate).
    assert r.cp == r.ca
    if c.n_mp + c.n_mm > 0:
        assert r.ncp == pytest.approx(100.0 - r.rwr, abs=1e-9)
    # integer reconstruction from the unrounded ratio
    assert r.ca / 100.0 * (c.n_pp + c.n_pm) == pytest.approx(c.n_pp, abs=1e-6)


@given(counts=counts_strategy)
@settings(max_examples=200, deadline=None)
def test_swap_symmetry(counts):
    n_pp, n_pm, n_mp, n_mm = counts
    r = compute_metrics(ConsistencyCounts(n_pp, n_pm, n_mp, n_mm))
    s = compute_metrics(ConsistencyCounts(n_mm, n_mp, n_pm, n_pp))
    assert s.ncp == pytest.approx(r.cp, abs=1e-9)
    assert s.ncr == pytest.approx(r.cr, abs=1e-9)
    assert s.nc_f == pytest.approx(r.c_f, abs=1e-9)


@given(counts=counts_strategy)
@settings(max_examples=200, deadline=None)
def test_f1_between_min_and_max(counts):
    c = ConsistencyCounts(*counts)
    r = compute_metrics(c)
    if "c_f" not in r.degenerate_flags:
        assert min(r.cp, r.cr) - 1e-9 <= r.c_f <= max(r.cp, r.cr) + 1e-9
    # c_f == 0 iff n_pp == 0
    assert (r.c_f == 0.0) == (c.n_pp == 0)


def test_accuracy_breakdown_small_case():
    doc = make_doc(
        [
            node("m", role="main", kind="binary", answer="Yes"),
            node("s1", kind="open", answer="red"),
            node("s2", kind="binary", answer="No"),
        ],
        [
            {"parent": "m", "child": "s1", "op": "Conjunction"},
            {"parent": "m", "child": "s2", "op": "Conjunction"},
        ],
    )
    g = qdg.parse_and_validate(doc)
    acc = metrics.accuracy_breakdown(
        [g], {"m": "Yes", "s1": "red", "s2": "Yes"}
    )
    assert acc["main"]["all"] == 100.0
    assert acc["sub"]["all"] == 50.0
    assert acc["sub"]["open"] == 100.0
    assert acc["sub"]["binary"] == 0.0


def test_accuracy_breakdown_matches_per_node_loop():
    rnd = random.Random(11)
    graphs = [random_dag(200 + i, rnd.randrange(2, 10)) for i in range(30)]
    preds = random_predictions(graphs, rnd)
    acc = metrics.accuracy_breakdown(graphs, preds)
    hits = total = 0
    for g in graphs:
        for n in g.nodes:
            if n.role != "main":
                total += 1
                hits += metrics.answers_match(preds[n.id], n.gold_answer)
    assert acc["sub"]["all"] == pytest.approx(100.0 * hits / total)


def row1_fixture_graphs_and_preds():
    """210 two-node pairs realizing the first golden row's counts."""
    graphs, preds = [], {}
    spec = [(100, True, True), (100, False, True), (0, True, False),
            (10, False, False)]
    i = 0
    for count, p_ok, k_ok in spec:
        for _ in range(count):
            g = two_node_graph(i)
            graphs.append(g)
            preds[f"g{i}_m"] = "Yes" if p_ok else "No"
            preds[f"g{i}_s"] = "Yes" if k_ok else "No"
            i += 1
    return graphs, preds


def test_row1_parent_accuracy_from_graph_fixture():
    graphs, preds = row1_fixture_graphs_and_preds()
    counts = metrics.tally_counts(graphs, preds)
    assert (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm) == (
        100, 100, 0, 10,
    )
    r = compute_metrics(counts)
    assert r.parent_accuracy == pytest.approx(47.62, abs=0.02)
    acc = metrics.accuracy_breakdown(graphs, preds)
    assert acc["main"]["all"] == pytest.approx(47.62, abs=0.02)


def test_emit_report_json_round_trip():
    r = compute_metrics(ConsistencyCounts(100, 100, 0, 10))
    r.accuracy = {"main": {"open": 0.0, "binary": 50.0, "all": 50.0},
                  "sub": {"open": 0.0, "binary": 0.0, "all": 0.0}}
    text = metrics.emit_report(r)
    back = metrics.parse_report(text)
    assert metrics.emit_report(back) == text


def test_emit_report_empty_tally_json():
    r = compute_metrics(ConsistencyCounts(0, 0, 0, 0))
    payload = json.loads(metrics.emit_report(r))
    assert payload["ca"] == 0.0
    assert "ca" in payload["degenerate_flags"]


def test_predictions_jsonl_loader():
    text = '{"id": "a", "answer": "Yes"}\n\n{"id": "b", "answer": "no"}\n'
    assert metrics.load_predictions_jsonl(text) == {"a": "Yes", "b": "no"}


def test_predictions_jsonl_equal_answers_share_one_object():
    text = "".join(json.dumps({"id": f"q{i}", "answer": a}) + "\n"
                   for i, a in enumerate(["yes", "green", "yes", "green",
                                          "Green", "yes"]))
    answers = metrics.load_predictions_jsonl(text)
    first = {}
    for a in answers.values():
        assert a is first.setdefault(a, a)
    assert len(first) == 3


@pytest.mark.parametrize("lines, message", [
    (['{"id": "qa", "answer": "yes"}', '', '{"id": "qa", "answer": "no"}'],
     "line 3: id 'qa' repeats line 1"),
    (['{"id": "qa", "answer": "yes"}', '{"id": "qb", "answer": "no"}',
      '', '{"id": "qc", "answer": "no"}', '{"id": "qb", "answer": "no"}'],
     "line 5: id 'qb' repeats line 2"),
    (['{"id": "qa", "answer": "yes"}', '["qb", "no"]'],
     "line 2: expected an object with string \"id\" and \"answer\""),
], ids=["first_id", "later_id_after_blank", "not_an_object"])
def test_predictions_jsonl_line_error_messages(lines, message):
    with pytest.raises(ValueError) as info:
        metrics.load_predictions_jsonl("\n".join(lines) + "\n")
    assert str(info.value) == message


def test_predictions_jsonl_keys_by_the_given_id_objects():
    """With `ids`, an id that is one of its keys is stored as the value's
    object, any other id as decoded; answers and errors are unchanged."""
    text = "".join(json.dumps({"id": nid, "answer": "yes"}) + "\n"
                   for nid in ("q1", "q2", "elsewhere"))
    # built at run time, so none is the object of a literal or the decoder
    ids = {nid: nid for nid in ("".join(["q", str(i)]) for i in (1, 2, 3))}
    plain = metrics.load_predictions_jsonl(text)
    keyed = metrics.load_predictions_jsonl(text, ids)
    assert keyed == plain and list(keyed) == list(plain)
    for nid in keyed:
        assert (nid is ids.get(nid)) == (nid in ids)
    assert not any(nid is ids.get(nid) for nid in plain)
    bad = text + json.dumps({"id": "q2", "answer": "no"}) + "\n"
    for given in (None, ids):
        with pytest.raises(ValueError, match=r"^line 4: id 'q2' repeats "
                                             r"line 2$"):
            metrics.load_predictions_jsonl(bad, given)
