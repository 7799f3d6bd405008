"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Criterion 6 trains several models and dominates the runtime.
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdqa import aggregator, aligner, autodiff as ad, decompose, metrics, qdg
from qdqa.autodiff import ParamStore, Tensor
from qdqa.metrics import ConsistencyCounts, compute_metrics
from qdqa.synth import SyntheticConfig
from qdqa.train import RunConfig, ablation_configs, train
from qdqa.verify import TOLERANCE, run_suite

from test_decompose import good_graph_json
from test_metrics import GOLDEN_ROWS, brute_force_counts, random_predictions
from test_qdg import random_dag


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_01_golden_metric_table():
    started = time.monotonic()
    worst = 0.0
    for counts, ca, rwr, delta, acc, c_f1, nc_f1 in GOLDEN_ROWS:
        r = compute_metrics(ConsistencyCounts(*counts), beta=1.0)
        for got, want in ((r.ca, ca), (r.rwr, rwr), (r.delta, delta),
                          (r.parent_accuracy, acc), (r.c_f, c_f1),
                          (r.nc_f, nc_f1)):
            worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - started
    _verdict(1, "golden metric table",
             worst <= 0.02 and elapsed < 1.0,
             f"max abs dev {worst:.4f}, {elapsed:.3f}s")


def test_02_metric_oracle_equivalence():
    started = time.monotonic()
    import random as pyrandom

    rnd = pyrandom.Random(42)
    graphs = [random_dag(5000 + i, rnd.randrange(2, 10)) for i in range(500)]
    preds = random_predictions(graphs, rnd)
    counts = metrics.tally_counts(graphs, preds)
    oracle = brute_force_counts(graphs, preds)
    exact = (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm) == oracle

    # unrounded metric equality against a from-scratch recomputation
    pp, pm, mp, mm = oracle
    r = compute_metrics(counts)
    expect_ca = 100.0 * pp / (pp + pm) if pp + pm else 0.0
    expect_rwr = 100.0 * mp / (mp + mm) if mp + mm else 0.0
    same = r.ca == expect_ca and r.rwr == expect_rwr
    elapsed = time.monotonic() - started
    _verdict(2, "metric oracle equivalence",
             exact and same and elapsed < 10.0,
             f"counts {oracle}, {elapsed:.2f}s")


def test_03_gradient_suite():
    started = time.monotonic()
    results = run_suite("all", instances=3)
    elapsed = time.monotonic() - started
    worst = max(results.values())
    _verdict(3, "gradient suite",
             worst < TOLERANCE and elapsed < 60.0,
             f"max err {worst:.2e} over {sorted(results)}, {elapsed:.1f}s")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def _softmax_and_gumbel_rows(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(scale=3.0, size=(rows, cols)))
    sm = ad.softmax(x, axis=-1)
    assert np.abs(sm.data.sum(axis=-1) - 1.0).max() < 1e-12
    hard = ad.gumbel_softmax(x, hard=True, rng=rng)
    assert set(np.unique(hard.data)) <= {0.0, 1.0}
    assert (hard.data.sum(axis=-1) == 1.0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def _gat_alpha_rows(n_children, h, seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(seed=seed % 1000)
    aggregator.init_aggregator_params(store, h, 1, 3)
    nodes = [{"id": "root", "text": "r", "kind": "binary", "role": "main",
              "answer": "yes"}]
    edges = []
    for i in range(n_children):
        nodes.append({"id": f"c{i}", "text": "c", "kind": "binary",
                      "role": "leaf", "answer": "yes"})
        edges.append({"parent": "root", "child": f"c{i}",
                      "op": "Conjunction"})
    g = qdg.from_dict({"graph_id": "gp", "video_id": "v",
                       "edge_types": ["Conjunction"], "nodes": nodes,
                       "edges": edges})
    order = sorted(n.id for n in g.nodes)
    feats = Tensor(rng.normal(size=(len(order), h)))
    _, alphas = aggregator.gat_forward(
        feats, aggregator.neighbor_mask(g), store, 1)
    assert np.abs(alphas[0].data.sum(axis=-1) - 1.0).max() < 1e-12


def test_04_normalization_invariants():
    _softmax_and_gumbel_rows()
    _gat_alpha_rows()
    _verdict(4, "normalization invariants", True,
             "softmax/alpha rows sum to 1, hard samples one-hot")


def test_05_closed_form_losses():
    # alignment loss at zero anchor weights: every similarity is 0
    rng = np.random.default_rng(0)
    store = ParamStore(seed=0)
    aligner.init_aligner_params(store, 8, heads=2)
    store["al.q_anchor.w"].data[:] = 0.0
    ind = Tensor(rng.uniform(size=(2, 3, 2)))
    f_q = Tensor(rng.normal(size=(2, 4, 8)))
    clips = Tensor(rng.normal(size=(2, 3, 8)))
    w_rel = ad.getitem(ind, (slice(None), slice(None), 0))
    contrastive = aligner.anchor_contrastive(f_q, clips, ind, w_rel,
                                             store).data.item()
    err_c = abs(contrastive - math.log(2.0))

    # CE at uniform logits
    for k in (2, 5, 9):
        ce = ad.softmax_cross_entropy(Tensor(np.zeros(k)), 0).data.item()
        assert abs(ce - math.log(k)) < 1e-9
    err_ce = abs(
        ad.softmax_cross_entropy(Tensor(np.zeros(5)), 3).data.item()
        - math.log(5.0)
    )

    # triplet at equal positive/negative distances
    v = rng.normal(size=4)
    reprs = [(t, Tensor(v.copy()))
             for t in ("Conjunction", "Conjunction", "Equals", "Equals")]
    margin = 0.75
    triplet = aggregator.edge_triplet_loss(
        reprs, margin=margin, rng=np.random.default_rng(1)
    ).data.item()
    err_t = abs(triplet - margin)

    worst = max(err_c, err_ce, err_t)
    _verdict(5, "closed-form losses", worst < 1e-9, f"max err {worst:.1e}")


@pytest.fixture(scope="module")
def ablation_runs():
    """Default-config runs for the rows criterion 6/7 compare, 3 seeds."""
    rows = {"backbone", "aligner", "aggregator", "full"}
    runs = {}
    for seed in (0, 1, 2):
        base = RunConfig(synthetic=SyntheticConfig(seed=seed), seed=seed)
        for name, cfg in ablation_configs(base):
            if name not in rows:
                continue
            started = time.monotonic()
            report, _ = train(cfg)
            runs[(name, seed)] = (report, time.monotonic() - started)
    return runs


def test_06_directional_ablation(ablation_runs):
    def mean(name, col):
        return float(np.mean([
            ablation_runs[(name, s)][0].best_validation[col]
            for s in (0, 1, 2)
        ]))

    slowest = max(w for _, w in ablation_runs.values())
    parts = {}
    for name in ("backbone", "aligner", "aggregator", "full"):
        parts[name] = (mean(name, "val_main_acc"), mean(name, "val_c_f"))
    ordered = (
        parts["full"][0] > parts["aligner"][0] > parts["backbone"][0]
        and parts["full"][1] > parts["aligner"][1] > parts["backbone"][1]
        and parts["full"][0] > parts["aggregator"][0]
        and parts["full"][1] > parts["aggregator"][1]
    )
    detail = ", ".join(
        f"{k}=(main {v[0]:.1f}, c_f {v[1]:.1f})" for k, v in parts.items()
    ) + f"; slowest run {slowest:.0f}s"
    _verdict(6, "directional ablation", ordered and slowest < 300.0, detail)


def test_07_aligner_relevance_recall(ablation_runs):
    recalls = [
        ablation_runs[("full", s)][0].best_validation["val_rel_recall"]
        for s in (0, 1, 2)
    ]
    ok = all(r >= 0.8 for r in recalls)
    _verdict(7, "planted-relevance recall", ok,
             "recalls " + ", ".join(f"{r:.3f}" for r in recalls))


def test_08_decomposition_stub_pipeline():
    started = time.monotonic()
    bank = decompose.demo_bank()

    def run():
        client = decompose.StubClient(responses=[
            "2, 1, 3",
            "oops not json",  # exercises exactly one retry
            good_graph_json("acc01"),
        ])
        report = decompose.extend_dataset(["Does A and B happen?"], bank, 3,
                                          client)
        return report, client

    report_a, client_a = run()
    report_b, _ = run()
    graphs = qdg.load_jsonl(report_a.to_jsonl())
    revalidated = all(
        qdg.parse_and_validate(qdg.serialize(g)) == g for g in graphs
    )
    # selection prompt + 2 decomposition prompts = one retry exactly
    one_retry = len(client_a.prompts) == 3
    identical = report_a.to_jsonl() == report_b.to_jsonl()
    elapsed = time.monotonic() - started
    _verdict(8, "decomposition stub pipeline",
             revalidated and one_retry and identical and not
             report_a.failures and elapsed < 1.0,
             f"{len(graphs)} graph(s), {elapsed:.2f}s")


def test_09_train_eval_determinism(tmp_path):
    from click.testing import CliRunner

    from qdqa.cli import main as cli_main

    cfg = RunConfig(synthetic=SyntheticConfig(clusters=8, seed=0),
                    steps=6, eval_every=3, batch_clusters=2, seed=0)
    (tmp_path / "run.json").write_text(cfg.to_json())
    runner = CliRunner()

    def train_once(name):
        out = tmp_path / name
        res = runner.invoke(cli_main, [
            "--threads", "1", "train",
            "--config", str(tmp_path / "run.json"), "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        return (out / "report.json").read_bytes()

    train_same = train_once("a") == train_once("b")

    from test_cli import write_row1_fixture

    gpath, gold, pred = write_row1_fixture(tmp_path)

    def eval_once(name):
        out = tmp_path / name
        res = runner.invoke(cli_main, [
            "--threads", "1", "eval", "--graphs", str(gpath),
            "--gold", str(gold), "--pred", str(pred), "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        return out.read_bytes()

    eval_same = eval_once("e1.json") == eval_once("e2.json")
    _verdict(9, "train/eval determinism", train_same and eval_same,
             "byte-identical reports at --threads 1")
