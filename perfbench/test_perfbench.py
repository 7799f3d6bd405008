"""Tests of the benchmark itself, on small inputs.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_TRAIN = dict(steps=20, eval_every=10, clusters=20)


def traced(workload, tmp_path, seed=3, **kw):
    result = workloads.WORKLOADS[workload](seed, 0.1, True, tmp_path, **kw)
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    return result, run.per_layer(result)


@pytest.fixture(scope="module")
def full_pair(tmp_path_factory):
    return [traced("train_full", tmp_path_factory.mktemp(f"run{i}"),
                   **SMALL_TRAIN)[1] for i in range(2)]


def test_metric_names_match_benchmark_json(full_pair, tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, (_, unit) in full_pair[0].items()]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in dict(run.END_TO_END)


def test_exact_counters_repeat_across_traced_runs(full_pair):
    first, second = full_pair
    exact = ["autodiff.tape_nodes", "autodiff.bytes_computed"] + [
        f"autodiff.primitive.calls.{op}" for op in spans.REPORTED_PRIMITIVES]
    for name in exact:
        assert first[name][0] == second[name][0], name
    assert first["autodiff.tape_nodes"][0] > 0


def test_train_agg_bypasses_the_aligner(tmp_path):
    _, m = traced("train_agg", tmp_path, **SMALL_TRAIN)
    # backbone_joint and answer_logits are the backbone every row shares
    for name in ("aggregate_objects", "aggregate_frames", "clip_scores"):
        assert m[f"aligner.{name}.ms"][0] == 0.0, name
    assert m["aligner.forced_rows_frac"][0] == 0.0
    assert m["autodiff.transformer_encoder_layer.calls"][0] == 0
    assert m["aggregator.gat_layer.calls"][0] > 0
    assert m["autodiff.backward.ms"][0] > 0


def test_eval_full_runs_no_backward_and_no_adam(tmp_path):
    result, m = traced("eval_full", tmp_path, clusters=20)
    # the warm-up round is run but not timed
    untraced = result.untraced
    assert len(untraced.spans(spans.SETUP)) == workloads.MIN_ROUNDS
    assert len(untraced.spans(spans.EVALUATE)) \
        == workloads.MIN_ROUNDS * workloads.EVALS_PER_SETUP
    assert m["autodiff.backward.ms"][0] == 0.0
    assert m["autodiff.tape_nodes"][0] == 0
    assert m["autodiff.adam_step.ms"][0] == 0.0
    assert m["aligner.clip_scores.ms"][0] > 0
    assert m["qdg.from_dict.calls"][0] == 0


def test_score_corpus_runs_no_autodiff(tmp_path):
    _, m = traced("score_corpus", tmp_path, n_graphs=200)
    autodiff = [k for k in m if k.startswith("autodiff.")]
    assert autodiff and all(m[k][0] == 0 for k in autodiff)
    assert m["qdg.from_dict.calls"][0] == 400  # parse + gold re-parse
    assert m["metrics.tally_counts.s"][0] > 0


def test_corpus_counts_agree_with_the_program(tmp_path):
    from qdqa import metrics, qdg

    files = {name: tmp_path / f"{name}.jsonl"
             for name in ("graphs", "gold", "pred")}
    buckets, n_nodes = workloads.write_corpus(5, 300, files)
    gold_map = metrics.load_predictions_jsonl(files["gold"].read_text())
    parsed = []
    for g in qdg.load_jsonl(files["graphs"].read_text()):
        doc = qdg.to_dict(g)
        for node in doc["nodes"]:
            node["answer"] = gold_map[node["id"]]
        parsed.append(qdg.from_dict(doc))
    assert sum(len(g.nodes) for g in parsed) == n_nodes
    assert all(2 <= len(g.nodes) <= 30 for g in parsed)
    pred = metrics.load_predictions_jsonl(files["pred"].read_text())
    counts = metrics.tally_counts(parsed, pred)
    assert {k: getattr(counts, k) for k in buckets} == buckets
    assert min(buckets.values()) > 0


def test_probe_puts_the_program_back(tmp_path):
    from qdqa import autodiff, synth, train

    before = (train.train, train.generate_dataset, synth.generate_dataset,
              autodiff.add, autodiff.Tensor.backward, autodiff.Adam.step)
    with spans.Probe(spans.Tracer(), full=True):
        assert train.generate_dataset is not before[1]
        assert train.generate_dataset is synth.generate_dataset
    after = (train.train, train.generate_dataset, synth.generate_dataset,
             autodiff.add, autodiff.Tensor.backward, autodiff.Adam.step)
    assert after == before


def test_a_wrong_count_fails_the_check(tmp_path, monkeypatch):
    real = workloads.write_corpus

    def miscounted(seed, n_graphs, files):
        buckets, n_nodes = real(seed, n_graphs, files)
        return dict(buckets, n_pp=buckets["n_pp"] + 1), n_nodes

    monkeypatch.setattr(workloads, "write_corpus", miscounted)
    result = workloads.run_score(1, 0.1, False, tmp_path, n_graphs=50)
    assert result.failed > 0
    assert any("recount" in p for p in result.problems)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(19)) is None
    p, value = run.tail(range(1000))
    assert p == 99.0 and value == 989


def test_host_speed_leaves_out_stalls_and_scales_the_gated_metrics(tmp_path):
    from hostspeed import NOMINAL_LOOPS_PER_S, HostSpeed

    host = HostSpeed()
    assert host.factor() == 1.0
    rate = NOMINAL_LOOPS_PER_S * 2
    for loops, seconds in [(100, 100 / rate)] * 4 + [(100, 1.0)]:
        host.loops.append(loops)
        host.seconds.append(seconds)
    assert host.factor() == pytest.approx(2.0)

    result = workloads.run_train("aggregator_triplet", 3, 0.1, False,
                                 tmp_path, **SMALL_TRAIN)
    rows = {name: value for name, value, _, _
            in run.end_to_end("train_agg", result)}
    # samples are taken inside steps, and held out of them
    u = result.untraced
    assert len(u.host.loops) > 0
    steps = [i for i in range(len(u.name))
             if u.names[u.name[i]] == spans.STEP]
    assert sum(u.pause[i] for i in steps) > 0
    assert all(d < u.end[i] - u.start[i] for i, (d, _)
               in zip(steps, u.spans(spans.STEP)) if u.pause[i] > 0)
    speed = rows["host_speed"]
    assert rows["nodes_per_s"] == pytest.approx(
        rows["train_nodes_per_s"] / speed)
    assert rows["setup_s"] == pytest.approx(rows["setup_s_measured"] * speed)
