import hashlib
import json
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from qdqa import autodiff, train as tr
from qdqa.autodiff import ParamStore, ShapeError, Tensor
from qdqa.metrics import full_report
from qdqa.qdg import from_dict
from qdqa.synth import ConfigError, SyntheticConfig, generate_dataset
from qdqa.train import (
    NonFiniteLossError,
    RunConfig,
    ablation_configs,
    ablation_csv,
    evaluate,
    forward_losses,
    init_params,
    pack_split,
    predict_split,
    train,
)
from test_aggregator import use_op_chains
from test_autodiff import (
    composite_broadcast,
    composite_linear,
    reference_backward,
)
from test_synth import PINNED_CONFIGS


def tiny_config(**kw):
    defaults = dict(
        synthetic=SyntheticConfig(clusters=10, seed=0),
        steps=6, eval_every=3, batch_clusters=3, seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def packs_for(config):
    ds = generate_dataset(config.synthetic)
    vi = config.synthetic.vocab_index
    return (pack_split(ds.train, vi), pack_split(ds.validation, vi),
            pack_split(ds.test, vi))


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(steps=-1)
    with pytest.raises(ConfigError):
        RunConfig(lr=0.0)
    with pytest.raises(ConfigError):
        RunConfig(synthetic=SyntheticConfig(h_q=8, h_v=16))
    # a width mismatch is fine when the aligner is off
    RunConfig(synthetic=SyntheticConfig(h_q=8, h_v=16), use_aligner=False)


def test_config_json_round_trip():
    cfg = tiny_config(use_triplet=False, lr=1e-2)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.synthetic == cfg.synthetic


def test_pack_split_shapes_and_rows():
    cfg = tiny_config()
    train_pack, _, _ = packs_for(cfg)
    sc = cfg.synthetic
    n = train_pack.n_nodes
    assert train_pack.f_o.shape == (n, sc.n_c, sc.n_f, sc.n_o, sc.h_v)
    assert train_pack.f_q.shape == (n, sc.n_q, sc.h_q)
    assert train_pack.gold.shape == (n,)
    assert train_pack.planted.shape == (n, sc.n_c)
    # each cluster's rows list its nodes in `g.nodes` order and carry on
    # from where the previous cluster's ended, so the aggregator can read
    # a cluster as one contiguous row range in neighbor_mask's order
    start = 0
    for g, m in train_pack.clusters:
        assert list(m) == [node.id for node in g.nodes]
        assert list(m.values()) == list(range(start, start + len(g.nodes)))
        start += len(g.nodes)
    assert start == n
    ds = generate_dataset(sc)
    for inst, (g, m) in zip(ds.train, train_pack.clusters):
        assert inst.graph == g
        rows = list(m.values())
        assert inst.planted.tobytes() == train_pack.planted[rows].tobytes()


def _pack_digest(cfg: SyntheticConfig) -> str:
    """sha256 over every array, node id and rows map pack_split builds,
    split by split."""
    h = hashlib.sha256()
    ds = generate_dataset(cfg)
    for split in (ds.train, ds.validation, ds.test):
        pack = pack_split(split, cfg.vocab_index)
        h.update(b"|split|")
        for arr in (pack.f_o, pack.f_a, pack.f_m, pack.f_q, pack.gold,
                    pack.planted):
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps([pack.node_ids, [
            [g.graph_id, list(m.items())] for g, m in pack.clusters
        ]]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cfg, digest", zip(PINNED_CONFIGS, [
    "35021db7ee582de699fef1e09947d9f04a7a0e4d233577fc991fc09d890aed21",
    "84061713f834e0684e6d427250bb4a4d4295022af526ed89c4fed4e24104df30",
]))
def test_packed_splits_are_byte_pinned(cfg, digest):
    # the model reads nothing of a dataset but these arrays and row maps
    assert _pack_digest(cfg) == digest


def test_init_params_respects_flags():
    full = init_params(tiny_config())
    assert "al.mlp_rel.1.w" in full and "ag.l0.a" in full
    bare = init_params(tiny_config(use_aligner=False, use_aggregator=False))
    assert "al.mlp_rel.1.w" not in bare and "ag.l0.a" not in bare
    assert "bb.l1.w" in bare and "al.head.w" in bare


def test_zero_steps_equals_initial_evaluation():
    cfg = tiny_config(steps=0)
    report, store = train(cfg)
    assert len(report.epochs) == 1
    assert report.best_step == 0
    _, val_pack, _ = packs_for(cfg)
    fresh, _ = evaluate(init_params(cfg), cfg, val_pack)
    assert report.epochs[0]["val_c_f"] == fresh.c_f
    assert report.epochs[0]["val_main_acc"] == fresh.accuracy["main"]["all"]


def test_train_is_deterministic():
    a, _ = train(tiny_config())
    b, _ = train(tiny_config())
    assert a.to_json() == b.to_json()


def test_train_loss_decreases():
    cfg = tiny_config(
        synthetic=SyntheticConfig(clusters=16, seed=1),
        steps=150, eval_every=50, use_aligner=False, use_aggregator=False,
        use_triplet=False, use_contrastive=False, lr=1e-2,
    )
    report, _ = train(cfg)
    losses = [row["train_loss"] for row in report.epochs
              if row["train_loss"] is not None]
    assert losses[-1] < losses[0]


def test_gating_preserves_shared_terms_bitwise():
    # switching one loss term off must not perturb the others
    cfg_on = tiny_config()
    cfg_no_triplet = tiny_config(use_triplet=False)
    cfg_no_contrast = tiny_config(use_contrastive=False)
    store = init_params(cfg_on)
    train_pack, _, _ = packs_for(cfg_on)
    batch = [0, 1, 2]

    def run(cfg):
        rng = np.random.default_rng(123)
        terms, total = forward_losses(train_pack, batch, store, cfg, rng)
        return {k: float(v.data) for k, v in terms.items()}, float(total.data)

    on, _ = run(cfg_on)
    no_trip, _ = run(cfg_no_triplet)
    no_con, total_no_con = run(cfg_no_contrast)
    assert no_trip["answer_ce"] == on["answer_ce"]
    assert no_trip["contrastive"] == on["contrastive"]
    assert no_con["answer_ce"] == on["answer_ce"]
    assert "contrastive" not in no_con
    assert total_no_con == pytest.approx(
        no_con["answer_ce"] + no_con["aggregation"], abs=1e-12
    )


def test_forward_losses_all_finite_and_positive():
    cfg = tiny_config()
    store = init_params(cfg)
    train_pack, _, _ = packs_for(cfg)
    terms, total = forward_losses(
        train_pack, [0, 1], store, cfg, np.random.default_rng(0)
    )
    assert np.isfinite(total.data)
    for t in terms.values():
        assert float(t.data) >= 0.0


def test_non_finite_loss_aborts_with_dump(monkeypatch):
    cfg = tiny_config()

    def bad(*args, **kwargs):
        return {"answer_ce": Tensor(np.inf)}, Tensor(np.inf)

    monkeypatch.setattr(tr, "forward_losses", bad)
    with pytest.raises(NonFiniteLossError) as err:
        train(cfg)
    assert err.value.dump["step"] == 1


def test_evaluate_is_side_effect_free():
    cfg = tiny_config()
    store = init_params(cfg)
    _, val_pack, _ = packs_for(cfg)
    r1, rel1 = evaluate(store, cfg, val_pack)
    r2, rel2 = evaluate(store, cfg, val_pack)
    assert r1 == r2
    assert rel1 == rel2
    assert {"precision", "recall"} <= set(rel1)


@pytest.mark.parametrize("row", ["full", "aggregator_triplet"])
def test_evaluate_records_no_tape(monkeypatch, row):
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    store = init_params(cfg)
    _, val_pack, _ = packs_for(cfg)
    made = []
    make = autodiff._make

    def counting_make(data, parents, backward):
        out = make(data, parents, backward)
        made.append(len(out._parents))
        return out

    monkeypatch.setattr(autodiff, "_make", counting_make)
    evaluate(store, cfg, val_pack)
    assert made and not any(made)


def sizes_of(pack):
    return Counter(len(rows_map) for _, rows_map in pack.clusters)


@pytest.mark.parametrize("row", [name for name, _ in tr.ABLATION_ROWS])
def test_predict_split_matches_recording_forward(row):
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    store = init_params(cfg)
    pack, _, _ = packs_for(cfg)
    assert max(sizes_of(pack).values()) > 1  # a stacked group of B > 1
    rows = np.arange(pack.n_nodes)
    zeros = np.zeros((pack.n_nodes, cfg.synthetic.n_c, 2))

    def run(s):
        head, agg, _ = tr._forward(pack, rows, pack.clusters, s, cfg,
                                   noise=zeros)
        return head, agg

    head, maps = run(store)
    assert head._parents  # the per-cluster path does record a tape
    frozen_head, grouped = run(store.frozen())
    assert not frozen_head._parents
    assert frozen_head.data.tobytes() == head.data.tobytes()
    if maps is None:
        assert grouped is None
        logits = head.data
    else:
        recorded = {nid: t.data for m in maps for nid, t in m.items()}
        logits = np.stack([recorded[nid] for nid in pack.node_ids])
        assert grouped.tobytes() == logits.tobytes()
    predictions, _ = predict_split(store, cfg, pack)
    vocab = cfg.synthetic.vocab
    assert predictions == {nid: vocab[int(np.argmax(v))]
                           for nid, v in zip(pack.node_ids, logits)}


def per_cluster_logits(joint, clusters, store, layers):
    """Aggregator logits as evaluation computed them one cluster at a
    time: one `getitem` row per node, one `gat_forward` per cluster."""
    local = {}
    for _, rows_map in clusters:
        for nid in rows_map:
            local[nid] = len(local)
    logits = {}
    for g, rows_map in clusters:
        feats = autodiff.stack([autodiff.getitem(joint, local[nid])
                                for nid in rows_map])
        outputs, _ = tr.aggregator.gat_forward(
            feats, tr.aggregator.neighbor_mask(g), store, layers)
        head = tr.aggregator.predict_answers(outputs, store).data
        logits.update(zip(rows_map, head))
    return logits


def test_grouped_logits_match_per_cluster_loop(monkeypatch):
    cfg = tiny_config(synthetic=SyntheticConfig(clusters=58, seed=0))
    store = init_params(cfg)
    pack, _, _ = packs_for(cfg)
    assert len(pack.clusters) == 40
    sizes = sizes_of(pack)
    assert 1 in sizes.values() and max(sizes.values()) > 1
    seen = {}
    joint_fn, grouped_fn = tr.aligner.backbone_joint, tr._grouped_logits

    def recording_joint(*args, **kwargs):
        seen["joint"] = joint_fn(*args, **kwargs)
        return seen["joint"]

    def recording_grouped(*args):
        seen["grouped"] = grouped_fn(*args)
        return seen["grouped"]

    monkeypatch.setattr(tr.aligner, "backbone_joint", recording_joint)
    monkeypatch.setattr(tr, "_grouped_logits", recording_grouped)
    predictions, _ = predict_split(store, cfg, pack)
    want = per_cluster_logits(seen["joint"], pack.clusters, store.frozen(),
                              cfg.layers)
    want = np.stack([want[nid] for nid in pack.node_ids])
    assert seen["grouped"].tobytes() == want.tobytes()
    vocab = cfg.synthetic.vocab
    assert predictions == {nid: vocab[int(np.argmax(v))]
                           for nid, v in zip(pack.node_ids, want)}


def test_evaluate_leaves_gradients_unchanged():
    cfg = tiny_config()
    store = init_params(cfg)
    train_pack, val_pack, _ = packs_for(cfg)
    _, total = forward_losses(train_pack, [0, 1], store, cfg,
                              np.random.default_rng(0))
    total.backward()
    before = {n: t.grad for n, t in store.params.items()}
    copies = {n: None if g is None else g.copy() for n, g in before.items()}
    evaluate(store, cfg, val_pack)
    for name, t in store.params.items():
        assert t.grad is before[name]
        if t.grad is not None:
            assert np.array_equal(t.grad, copies[name])


@pytest.mark.parametrize("row", ["full", "aggregator_triplet"])
@pytest.mark.parametrize("batch", [[0, 1], [0, 0, 1]])
def test_backward_matches_reference_walk_bitwise(row, batch):
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    train_pack, _, _ = packs_for(cfg)
    grads = []
    for walk in (Tensor.backward, reference_backward):
        store = init_params(cfg)
        _, total = forward_losses(train_pack, batch, store, cfg,
                                  np.random.default_rng(0))
        walk(total)
        grads.append({n: t.grad.tobytes() for n, t in store.params.items()})
    assert grads[0] == grads[1]


@pytest.mark.parametrize("row", ["full", "aggregator_triplet"])
@pytest.mark.parametrize("batch", [[0, 1], [0, 0, 1]])
def test_fused_ops_keep_gradients_bitwise(monkeypatch, row, batch):
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    train_pack, _, _ = packs_for(cfg)

    def run():
        store = init_params(cfg)
        terms, total = forward_losses(train_pack, batch, store, cfg,
                                      np.random.default_rng(0))
        total.backward()
        return ({k: v.data.tobytes() for k, v in terms.items()},
                {n: t.grad.tobytes() for n, t in store.params.items()})

    fused = run()
    monkeypatch.setattr(autodiff, "linear", composite_linear)
    monkeypatch.setattr(autodiff, "broadcast_to", composite_broadcast)
    assert run() == fused


@pytest.mark.parametrize("row", ["full", "aggregator_triplet"])
@pytest.mark.parametrize("batch", [[0, 0], [0, 1, 2]])
def test_fused_aggregator_nodes_keep_gradients_bitwise(monkeypatch, row,
                                                       batch):
    """The GAT layers, edge projections, batch CEs and triplet mean against
    their op chains; batch [0, 0] holds one cluster twice."""
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    train_pack, _, _ = packs_for(cfg)

    def run():
        store = init_params(cfg)
        terms, total = forward_losses(train_pack, batch, store, cfg,
                                      np.random.default_rng(0))
        total.backward()
        return ({k: v.data.tobytes() for k, v in terms.items()},
                {n: t.grad.tobytes() for n, t in store.params.items()})

    fused = run()
    use_op_chains(monkeypatch)
    assert run() == fused


def tape(loss) -> list:
    """Tensors reachable from `loss` through parent links, leaves and the
    loss itself included."""
    seen, todo, out = {id(loss)}, [loss], [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
                out.append(p)
    return out


@pytest.mark.parametrize("row, budget", [("aggregator_triplet", 240),
                                         ("full", 440)])
def test_default_training_step_stays_within_its_tape_budget(row, budget):
    """The first batch of a default run: one tape node per GAT layer, edge
    projection, CE mean and triplet mean keeps the tape under budget (the
    op chains they replace made it 610 and 807 nodes)."""
    cfg = RunConfig(**dict(tr.ABLATION_ROWS)[row])
    train_pack, _, _ = packs_for(cfg)
    rng = np.random.default_rng([cfg.seed, 77])
    batch = rng.permutation(len(train_pack.clusters))[:cfg.batch_clusters]
    _, total = forward_losses(train_pack, batch.tolist(), init_params(cfg),
                              cfg, rng)
    assert len(tape(total)) <= budget


@pytest.mark.parametrize("row", ["full", "aggregator_triplet"])
def test_a_step_holds_neither_the_last_tape_nor_the_raw_dataset(monkeypatch,
                                                                 row):
    """At the start of each step's forward no array of the previous step's
    tape is alive, and no array of the generated instances either: the
    packs hold copies of them."""
    generate, forward = tr.generate_dataset, tr.forward_losses
    held, seen = [], []

    def generate_spy(config):
        ds = generate(config)
        held.extend(weakref.ref(getattr(inst, name))
                    for inst in ds.train + ds.validation + ds.test
                    for name in ("f_o", "f_a", "f_m", "q", "planted"))
        return ds

    def forward_spy(*args, **kwargs):
        seen.append(sum(ref() is not None for ref in held))
        terms, total = forward(*args, **kwargs)
        held.extend(weakref.ref(t.data) for t in tape(total)
                    if t._parents)
        return terms, total

    monkeypatch.setattr(tr, "generate_dataset", generate_spy)
    monkeypatch.setattr(tr, "forward_losses", forward_spy)
    train(tiny_config(steps=4, eval_every=2, **dict(tr.ABLATION_ROWS)[row]))
    assert len(held) > 100
    assert seen == [0, 0, 0, 0]


@pytest.mark.parametrize("row", ["full", "aligner"])
def test_blocked_predict_split_matches_one_block(monkeypatch, row):
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    store = init_params(cfg)
    _, _, test_pack = packs_for(cfg)
    joints, threads = [], set()
    joint, pipeline = tr.aligner.backbone_joint, tr.aligner.clip_pipeline

    def recording_joint(*args, **kwargs):
        out = joint(*args, **kwargs)
        joints.append(out.data.tobytes())
        return out

    def recording_pipeline(*args, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # lets every pool thread take a block
        return pipeline(*args, **kwargs)

    monkeypatch.setattr(tr.aligner, "backbone_joint", recording_joint)
    monkeypatch.setattr(tr.aligner, "clip_pipeline", recording_pipeline)
    monkeypatch.setattr(tr, "CLIP_BLOCK", test_pack.n_nodes)
    single = predict_split(store, cfg, test_pack)
    monkeypatch.setattr(tr, "CLIP_BLOCK", 3)  # ragged last block
    assert test_pack.n_nodes % 3 and test_pack.n_nodes // 3 >= 4
    for workers in (1, 2):
        monkeypatch.setattr(tr, "WORKERS", workers)
        threads.clear()
        assert predict_split(store, cfg, test_pack) == single
        assert joints[-1] == joints[0]
        assert len(threads) == workers


@pytest.mark.parametrize("row", ["full", "aligner"])
def test_blocked_recording_forward_matches_one_block(monkeypatch, row):
    cfg = tiny_config(**dict(tr.ABLATION_ROWS)[row])
    train_pack, _, _ = packs_for(cfg)
    batch = [0, 1, 2]

    def run():
        store = init_params(cfg)
        terms, total = forward_losses(train_pack, batch, store, cfg,
                                      np.random.default_rng(0))
        total.backward()
        return ({k: v.data.tobytes() for k, v in terms.items()},
                total.data.tobytes(),
                {n: t.grad for n, t in store.params.items()})

    monkeypatch.setattr(tr, "CLIP_BLOCK", 4)  # ragged last block
    n = sum(len(train_pack.clusters[i][1]) for i in batch)
    assert n > 16 and n % 4
    monkeypatch.setattr(tr, "WORKERS", 1)
    blocked = run()
    # the rng draws the noise, so the blocks stay in order on one thread
    monkeypatch.setattr(tr, "WORKERS", 2)
    threaded = run()
    assert threaded[:2] == blocked[:2]
    assert all(threaded[2][name].tobytes() == grad.tobytes()
               for name, grad in blocked[2].items())
    monkeypatch.setattr(tr, "CLIP_BLOCK", n)
    single = run()
    assert blocked[:2] == single[:2]
    for name, grad in single[2].items():
        np.testing.assert_allclose(blocked[2][name], grad, rtol=0,
                                   atol=1e-12, err_msg=name)


def test_relevance_tally_matches_set_loop(monkeypatch):
    cfg = tiny_config()
    store = init_params(cfg)
    _, val_pack, _ = packs_for(cfg)
    blocks = []
    indicator = tr.aligner.hard_indicator

    def recording_indicator(*args, **kwargs):
        out = indicator(*args, **kwargs)
        blocks.append(out[0].data)
        return out

    monkeypatch.setattr(tr.aligner, "hard_indicator", recording_indicator)
    monkeypatch.setattr(tr, "CLIP_BLOCK", 4)
    _, relevance = predict_split(store, cfg, val_pack)
    ind = np.concatenate(blocks)
    ds = generate_dataset(cfg.synthetic)
    rels = [np.flatnonzero(row).tolist()
            for inst in ds.validation for row in inst.planted]
    hit = planted = chosen = 0
    for i, rel in enumerate(rels):
        picked = set(np.nonzero(ind[i, :, 0] > 0.5)[0])
        hit += len(picked & set(rel))
        planted += len(rel)
        chosen += len(picked)
    assert 0 < hit < chosen
    assert relevance == {"recall": hit / planted, "precision": hit / chosen}


@pytest.mark.xfail(strict=True, reason=(
    "train._cluster_logits keys its row map by node id, so every node of a "
    "cluster repeated in one batch, in both copies, is fed the joint "
    "feature of that cluster's first node"))
def test_repeated_cluster_in_batch_keeps_its_rows():
    cfg = RunConfig(synthetic=SyntheticConfig(clusters=8, seed=0), seed=0,
                    **dict(tr.ABLATION_ROWS)["aggregator"])
    store = init_params(cfg)
    train_pack, _, _ = packs_for(cfg)

    def terms(batch):
        out, _ = forward_losses(train_pack, batch, store, cfg,
                                np.random.default_rng(0))
        return {k: float(v.data) for k, v in out.items()}

    once, twice = terms([0]), terms([0, 0])
    assert twice["answer_ce"] == pytest.approx(once["answer_ce"], abs=1e-12)
    assert twice["aggregation"] == pytest.approx(once["aggregation"],
                                                 abs=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "train._cluster_logits numbers its rows by distinct node id, so a "
    "repeated cluster adds no rows there and every later cluster of the "
    "batch reads joint rows shifted back by the repeated cluster's size"))
def test_repeated_cluster_in_batch_keeps_later_clusters_rows():
    cfg = RunConfig(synthetic=SyntheticConfig(clusters=8, seed=0), seed=0,
                    **dict(tr.ABLATION_ROWS)["aggregator"])
    store = init_params(cfg)
    train_pack, _, _ = packs_for(cfg)

    def last_cluster_logits(batch):
        clusters = [train_pack.clusters[i] for i in batch]
        rows = np.concatenate([list(m.values()) for _, m in clusters])
        _, maps, _ = tr._forward(train_pack, rows, clusters, store, cfg,
                                 np.random.default_rng(0))
        return np.stack([t.data for t in maps[-1].values()])

    # cluster 1's first logit reads -0.009515 after [0], -0.013751 after
    # [0, 0]
    alone = last_cluster_logits([0, 1])
    assert last_cluster_logits([0, 0, 1]).tobytes() == alone.tobytes()


def test_predict_split_without_aligner_has_no_relevance():
    cfg = tiny_config(use_aligner=False)
    store = init_params(cfg)
    _, val_pack, _ = packs_for(cfg)
    predictions, relevance = predict_split(store, cfg, val_pack)
    assert relevance == {}
    assert set(predictions) == set(val_pack.node_ids)
    assert set(predictions.values()) <= set(cfg.synthetic.vocab)


def test_evaluate_oracle_predictions_are_perfect():
    cfg = tiny_config()
    _, val_pack, _ = packs_for(cfg)
    gold = {nid: cfg.synthetic.vocab[idx]
            for nid, idx in zip(val_pack.node_ids, val_pack.gold)}
    report = full_report(val_pack.graphs, gold)
    assert report.accuracy["main"]["all"] == 100.0
    assert report.accuracy["sub"]["all"] == 100.0
    assert report.c_f == 100.0


def test_evaluate_random_predictions_near_chance():
    # open-only star graphs, uniform gold and predictions over 5 tokens
    vocab = ("yes", "no", "red", "blue", "green")
    rng = np.random.default_rng(17)
    graphs, predictions = [], {}
    for i in range(700):
        nodes, edges = [], []
        for j in range(4):
            nid = f"g{i}_q{j}"
            role = "main" if j == 0 else "leaf"
            nodes.append({"id": nid, "text": nid, "kind": "open",
                          "role": role,
                          "answer": vocab[rng.integers(5)]})
            if j:
                edges.append({"parent": f"g{i}_q0", "child": nid,
                              "op": "Choose"})
            predictions[nid] = vocab[rng.integers(5)]
        graphs.append(from_dict({
            "graph_id": f"g{i}", "video_id": f"v{i}",
            "edge_types": ["Choose"], "nodes": nodes, "edges": edges,
        }))
    report = full_report(graphs, predictions)
    assert report.accuracy["main"]["all"] == pytest.approx(20.0, abs=3.0)


def test_checkpoint_round_trip_reproduces_validation(tmp_path):
    cfg = tiny_config(steps=9, eval_every=3)
    report, _ = train(cfg, out_dir=tmp_path / "run")
    loaded = ParamStore.load(tmp_path / "run" / "checkpoint")
    _, val_pack, _ = packs_for(cfg)
    again, rel = evaluate(loaded, cfg, val_pack)
    best = report.best_validation
    assert again.c_f == best["val_c_f"]
    assert again.accuracy["main"]["all"] == best["val_main_acc"]
    assert rel.get("recall") == best["val_rel_recall"]
    saved = (tmp_path / "run" / "report.json").read_text()
    assert saved == report.to_json()


def test_checkpoint_dim_mismatch_raises():
    cfg = tiny_config()
    store = init_params(cfg)
    narrow = tiny_config(h=8)
    _, val_pack, _ = packs_for(cfg)
    with pytest.raises(ShapeError):
        predict_split(init_params(narrow), cfg, val_pack)
    del store


def test_checkpoint_of_another_row_raises():
    # an aggregator-row store lacks every al.* parameter of the full model
    cfg = tiny_config()
    _, val_pack, _ = packs_for(cfg)
    other = init_params(tiny_config(**dict(tr.ABLATION_ROWS)["aggregator"]))
    with pytest.raises(ShapeError, match="'al.obj_tf.wq.w'"):
        predict_split(other, cfg, val_pack)


def test_checkpoint_shape_mismatch_names_the_parameter():
    cfg = tiny_config()
    _, val_pack, _ = packs_for(cfg)
    store = init_params(cfg)
    store.params["ag.head.w"] = Tensor(np.zeros((3, 3)))
    store.params["extra"] = Tensor(np.zeros(2))  # extra names are fine
    with pytest.raises(ShapeError, match="'ag.head.w'"):
        predict_split(store, cfg, val_pack)
    del store.params["ag.head.w"]
    with pytest.raises(ShapeError, match="no parameter 'ag.head.w'"):
        predict_split(store, cfg, val_pack)


def test_checkpoint_with_extra_parameters_evaluates():
    cfg = tiny_config()
    _, val_pack, _ = packs_for(cfg)
    store = init_params(cfg)
    expect = predict_split(store, cfg, val_pack)
    store.params["extra"] = Tensor(np.zeros(2))
    assert predict_split(store, cfg, val_pack) == expect


def test_ablation_configs_share_seed_and_data():
    base = tiny_config(seed=5, synthetic=SyntheticConfig(clusters=10,
                                                         seed=5))
    rows = ablation_configs(base)
    names = [n for n, _ in rows]
    assert names == ["backbone", "aligner", "aggregator",
                     "aggregator_triplet", "full"]
    for _, cfg in rows:
        assert cfg.seed == 5
        assert cfg.synthetic == base.synthetic
    flags = dict(rows)
    assert not flags["backbone"].use_aligner
    assert flags["aggregator"].use_aggregator
    assert not flags["aggregator"].use_triplet
    assert flags["full"].use_triplet and flags["full"].use_contrastive


def test_identical_flag_rows_give_identical_metrics():
    base = tiny_config()
    rows = (("a", dict(use_aligner=False, use_aggregator=False,
                       use_triplet=False, use_contrastive=False)),
            ("b", dict(use_aligner=False, use_aggregator=False,
                       use_triplet=False, use_contrastive=False)))
    table = tr.ablate(base, rows)
    assert table["a"] == table["b"]
    csv_text = ablation_csv(table)
    assert csv_text.splitlines()[0] == "row,main_acc,sub_acc,c_f,nc_f"
    assert len(csv_text.splitlines()) == 3


def test_report_json_excludes_wall_clock():
    report, _ = train(tiny_config(steps=3, eval_every=3))
    assert report.wall_clock > 0
    payload = json.loads(report.to_json())
    assert "wall_clock" not in payload
    csv_text = report.epochs_csv()
    assert csv_text.count("\n") == len(report.epochs) + 1


def test_runtime_json_times_the_setup_phases(tmp_path):
    train(tiny_config(steps=3, eval_every=3), out_dir=tmp_path)
    runtime = json.loads((tmp_path / "runtime.json").read_text())
    assert set(runtime) == {"wall_clock", "generate_s", "pack_s",
                            "peak_rss_mb"}
    for key in ("generate_s", "pack_s"):
        assert 0.0 <= runtime[key] <= runtime["wall_clock"]
    assert runtime["peak_rss_mb"] > 0
    assert "generate_s" not in (tmp_path / "report.json").read_text()
