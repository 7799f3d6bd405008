import numpy as np
import pytest

from qdqa import aggregator, autodiff as ad, qdg
from qdqa.autodiff import ParamStore, Tensor

from test_autodiff import (chain_ce_batch, chain_concat_linear,
                           chain_triplet_mean)
from test_qdg import make_doc, node, random_dag

H = 6
VOCAB = 3
K = 2


def make_store(seed=0, layers=K, vocab=VOCAB):
    store = ParamStore(seed)
    aggregator.init_aggregator_params(store, H, layers, vocab)
    return store


def features_for(g, rng):
    return {n.id: Tensor(rng.normal(size=H)) for n in g.nodes}


def on_graph(feats, g, store, layers):
    """gat_forward on one graph's {node id: [h] Tensor} features, stacked
    in sorted id order; returns (order, outputs, alphas)."""
    order = sorted(feats)
    stacked = ad.stack([feats[nid] for nid in order])
    return (order, *aggregator.gat_forward(
        stacked, aggregator.neighbor_mask(g), store, layers))


def leaky(x):
    return np.where(x > 0, x, 0.01 * x)


def dense_reference(g, feats, store, layers):
    """Brute-force forward: explicit -inf masking, per-pair score loops."""
    order = sorted(feats)
    pos = {nid: i for i, nid in enumerate(order)}
    n = len(order)
    F = np.stack([feats[nid].data for nid in order])
    allowed = np.eye(n, dtype=bool)
    for e in g.edges:
        allowed[pos[e.parent], pos[e.child]] = True
    outs = []
    for k in range(layers):
        a = store[f"ag.l{k}.a"].data
        ws, wsb = store[f"ag.l{k}.ws.w"].data, store[f"ag.l{k}.ws.b"].data
        wg, wgb = store[f"ag.l{k}.wg.w"].data, store[f"ag.l{k}.wg.b"].data
        scores = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(n):
                if allowed[i, j]:
                    pair = np.concatenate([F[i], F[j]])
                    scores[i, j] = a @ leaky(pair @ ws + wsb)
        out = np.zeros_like(F)
        for i in range(n):
            row = scores[i]
            e = np.exp(row - row[np.isfinite(row)].max())
            e[~np.isfinite(row)] = 0.0
            alpha = e / e.sum()
            agg = sum(alpha[j] * (F[j] @ wg + wgb) for j in range(n))
            out[i] = np.maximum(agg, 0.0)
        F = out
        outs.append(F.copy())
    return order, outs


def chain_gat_layer(feats, mask, store, prefix):
    """gat_layer as the op chain its single node replaces: the reference
    it must match bit for bit."""
    n, h = feats.shape[-2:]
    lead = feats.shape[:-2]
    ws, wsb = store[f"{prefix}.ws.w"], store[f"{prefix}.ws.b"]
    left = ad.matmul(feats, ad.getitem(ws, slice(0, h)))
    right = ad.linear(feats, ad.getitem(ws, slice(h, 2 * h)), wsb)
    pair = ad.add(ad.reshape(left, lead + (n, 1, h)),
                  ad.reshape(right, lead + (1, n, h)))
    scores = ad.matmul(ad.leaky_relu(pair), store[f"{prefix}.a"])
    masked = ad.add(scores, aggregator.MASK_OFF * (1.0 - mask))
    alpha = ad.mul(ad.softmax(masked, axis=-1), mask)
    transformed = ad.linear(feats, *store.layer(f"{prefix}.wg"))
    return ad.relu(ad.matmul(alpha, transformed)), alpha


def use_op_chains(monkeypatch):
    """Swap every fused aggregator node for the op chain it replaces."""
    monkeypatch.setattr(aggregator, "gat_layer", chain_gat_layer)
    monkeypatch.setattr(ad, "concat_linear", chain_concat_linear)
    monkeypatch.setattr(ad, "softmax_cross_entropy_batch", chain_ce_batch)
    monkeypatch.setattr(ad, "triplet_hinge_mean", chain_triplet_mean)


class TestFusedGatLayer:
    """gat_layer and the edge projection against their op chains, byte for
    byte: values, alphas and every parent gradient."""

    @staticmethod
    def run(feats_data, mask, seed, readout):
        """Bytes of two layers plus the head on leaf features: logits,
        alphas, and the gradients of the features and every parameter."""
        store = make_store(seed=seed)
        feats = Tensor(feats_data.copy(), requires_grad=True)
        outputs, alphas = aggregator.gat_forward(feats, mask, store, K)
        logits = aggregator.predict_answers(outputs, store)
        ad.reduce_sum(ad.mul(logits, readout)).backward()
        return ([logits.data.tobytes(), feats.grad.tobytes()]
                + [a.data.tobytes() for a in alphas]
                + [store[n].grad.tobytes() for n in sorted(store.names())
                   if n.startswith("ag.l")])

    def compare(self, monkeypatch, feats_data, mask, seed):
        readout = np.random.default_rng(seed).normal(
            size=feats_data.shape[:-1] + (VOCAB,))
        fused = self.run(feats_data, mask, seed, readout)
        with monkeypatch.context() as m:
            m.setattr(aggregator, "gat_layer", chain_gat_layer)
            chain = self.run(feats_data, mask, seed, readout)
        assert fused == chain

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_one_graph(self, monkeypatch, seed):
        g = random_dag(seed * 10, 7)
        order = sorted(n.id for n in g.nodes)
        feats = np.random.default_rng(seed).normal(size=(len(order), H))
        self.compare(monkeypatch, feats, aggregator.neighbor_mask(g), seed)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_stacked_groups(self, monkeypatch, seed):
        graphs = [random_dag(seed * 10 + i, 5) for i in range(4)]
        assert len({len(g.nodes) for g in graphs}) == 1
        masks = np.stack([aggregator.neighbor_mask(g) for g in graphs])
        feats = np.random.default_rng(seed).normal(
            size=masks.shape[:-1] + (H,))
        self.compare(monkeypatch, feats, masks, seed)

    def test_parents_follow_the_chain_walk(self):
        store = make_store()
        feats = Tensor(np.ones((3, H)), requires_grad=True)
        out, alpha = aggregator.gat_layer(feats, np.eye(3), store, "ag.l0")
        names = ("ws.w", "ws.w", "ws.b", "a", "wg.w", "wg.b")
        assert out._parents == (feats,) * 3 + tuple(
            store[f"ag.l0.{name}"] for name in names)
        assert alpha._parents == ()

    @pytest.mark.parametrize("seed", [8, 9])
    def test_edge_projection(self, monkeypatch, seed):
        """Edge vectors over shared head rows of two graphs."""
        graphs = [random_dag(seed * 10 + i, 6) for i in range(2)]
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(sum(len(g.nodes) for g in graphs), VOCAB))
        readout = rng.normal(size=H)

        def run():
            store = make_store(seed=seed)
            rows = Tensor(base.copy(), requires_grad=True)
            ids = [(g, n.id) for g in graphs for n in g.nodes]
            feats = [(g, {nid: rows[i] for i, (owner, nid) in enumerate(ids)
                          if owner is g}) for g in graphs]
            reprs = aggregator.edge_representations(feats, store)
            total = ad.reduce_sum(ad.stack(
                [ad.reduce_sum(ad.mul(v, readout)) for _, v in reprs]))
            total.backward()
            return ([v.data.tobytes() for _, v in reprs]
                    + [rows.grad.tobytes(), store["ag.edge.w"].grad.tobytes(),
                       store["ag.edge.b"].grad.tobytes()])

        fused = run()
        monkeypatch.setattr(ad, "concat_linear", chain_concat_linear)
        assert run() == fused


class TestGatForward:
    def test_self_loop_only_node(self):
        doc = make_doc([node("m", role="main")], [])
        g = qdg.parse_and_validate(doc)
        rng = np.random.default_rng(0)
        store = make_store()
        feats = features_for(g, rng)
        order, outs, alphas = on_graph(feats, g, store, 1)
        assert alphas[0].data[0, 0] == pytest.approx(1.0)
        wg, wgb = store["ag.l0.wg.w"].data, store["ag.l0.wg.b"].data
        expect = np.maximum(feats["m"].data @ wg + wgb, 0.0)
        np.testing.assert_allclose(outs[0].data[0], expect, atol=1e-12)

    def test_identical_children_split_attention(self):
        doc = make_doc(
            [node("m", role="main"), node("s1"), node("s2")],
            [
                {"parent": "m", "child": "s1", "op": "Conjunction"},
                {"parent": "m", "child": "s2", "op": "Conjunction"},
            ],
        )
        g = qdg.parse_and_validate(doc)
        rng = np.random.default_rng(1)
        store = make_store()
        shared = rng.normal(size=H)
        feats = {
            "m": Tensor(shared),  # self-loop makes all three identical
            "s1": Tensor(shared),
            "s2": Tensor(shared),
        }
        order, outs, alphas = on_graph(feats, g, store, 1)
        i = order.index("m")
        row = alphas[0].data[i]
        np.testing.assert_allclose(row[row > 0], 1.0 / 3.0, atol=1e-12)

    def test_alpha_rows_sum_to_one(self):
        g = random_dag(42, 7)
        rng = np.random.default_rng(2)
        store = make_store()
        _, _, alphas = on_graph(features_for(g, rng), g, store, K)
        for alpha in alphas:
            np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0,
                                       atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_dense_reference(self, seed):
        g = random_dag(seed * 100, 6)
        rng = np.random.default_rng(seed)
        store = make_store(seed=seed)
        feats = features_for(g, rng)
        order, outs, _ = on_graph(feats, g, store, K)
        ref_order, ref_outs = dense_reference(g, feats, store, K)
        assert order == ref_order
        for got, want in zip(outs, ref_outs):
            np.testing.assert_allclose(got.data, want, atol=1e-10)

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_gradients(self, seed):
        g = random_dag(seed, 5)
        rng = np.random.default_rng(seed)
        store = make_store(seed=seed)
        feats = features_for(g, rng)
        target_id = sorted(feats)[0]
        w = rng.normal(size=(len(feats), H))

        def f(ts):
            _, outs, _ = on_graph(feats, g, store, K)
            return (outs[-1] * w).sum()

        x = feats[target_id]
        assert ad.grad_check(f, [x]) < 1e-4
        assert ad.grad_check(f, [store["ag.l0.ws.w"]]) < 1e-4
        assert ad.grad_check(f, [store["ag.l1.a"]]) < 1e-4


class TestPredictAnswers:
    def test_zero_head_uniform(self):
        g = random_dag(9, 5)
        rng = np.random.default_rng(9)
        store = make_store()
        store["ag.head.w"].data[:] = 0.0
        store["ag.head.b"].data[:] = 0.0
        order, outs, _ = on_graph(features_for(g, rng), g, store, K)
        logits = aggregator.predict_answers(outs, store)
        assert logits.shape == (len(order), VOCAB)
        assert not logits.data.any()

    def test_matches_straight_line_recomputation(self):
        g = random_dag(11, 4)
        rng = np.random.default_rng(11)
        store = make_store(seed=5)
        feats = features_for(g, rng)
        order, outs, _ = on_graph(feats, g, store, K)
        logits = aggregator.predict_answers(outs, store)
        w, b = store["ag.head.w"].data, store["ag.head.b"].data
        for i in range(len(order)):
            cat = np.concatenate([outs[0].data[i], outs[1].data[i]])
            head = cat @ w + b
            np.testing.assert_allclose(logits.data[i], head, atol=1e-10)


class TestEdgeTripletLoss:
    def fixed_reprs(self, vectors_types):
        return [(t, Tensor(np.asarray(v, dtype=float)))
                for t, v in vectors_types]

    def test_hinge_boundary_zero(self):
        m = 1.0
        # same-type pair coincides; other-type exactly margin away
        reprs = self.fixed_reprs([
            ("A", [0.0, 0.0]), ("A", [0.0, 0.0]), ("B", [m, 0.0]),
        ])
        rng = np.random.default_rng(0)
        loss = aggregator.edge_triplet_loss(reprs, m, rng)
        # edge B has no same-type partner -> contributes 0
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_equal_distances_give_margin(self):
        reprs = self.fixed_reprs([
            ("A", [0.0, 0.0]), ("A", [1.0, 0.0]), ("B", [0.0, 1.0]),
        ])
        # d(e0, A1) = 1, d(e0, B0) = 1 -> term = margin; e1: d(e1,A0)=1,
        # d(e1,B0)=sqrt(2) -> term = margin+1-sqrt(2); B contributes 0
        rng = np.random.default_rng(0)
        m = 0.5
        loss = aggregator.edge_triplet_loss(reprs, m, rng)
        expect = (m + max(m + 1 - np.sqrt(2), 0)) / 3
        assert loss.item() == pytest.approx(expect, abs=1e-6)

    def test_matches_hand_expansion_with_same_sampled_pairs(self):
        rng_data = np.random.default_rng(12)
        reprs = self.fixed_reprs(
            [("A", rng_data.normal(size=4)) for _ in range(3)]
            + [("B", rng_data.normal(size=4)) for _ in range(2)]
        )
        seed = 77
        loss = aggregator.edge_triplet_loss(
            reprs, 1.0, np.random.default_rng(seed)
        )
        # replay the same sampling decisions
        rng = np.random.default_rng(seed)
        by_type = {"A": [0, 1, 2], "B": [3, 4]}
        total = 0.0
        for i, (etype, vec) in enumerate(reprs):
            same = [j for j in by_type[etype] if j != i]
            other = [j for t, idxs in by_type.items() if t != etype
                     for j in idxs]
            pos = reprs[same[int(rng.integers(len(same)))]][1].data
            neg = reprs[other[int(rng.integers(len(other)))]][1].data
            d_pos = np.sqrt(((vec.data - pos) ** 2).sum() + 1e-12)
            d_neg = np.sqrt(((vec.data - neg) ** 2).sum() + 1e-12)
            total += max(d_pos - d_neg + 1.0, 0.0)
        assert loss.item() == pytest.approx(total / len(reprs), abs=1e-12)

    def test_single_type_contributes_zero(self):
        reprs = self.fixed_reprs([("A", [1.0]), ("A", [2.0])])
        loss = aggregator.edge_triplet_loss(reprs, 1.0,
                                            np.random.default_rng(0))
        assert loss.item() == 0.0

    def test_always_non_negative(self):
        rng_data = np.random.default_rng(13)
        for trial in range(10):
            reprs = self.fixed_reprs(
                [(t, rng_data.normal(size=3))
                 for t in rng_data.choice(["A", "B", "C"], size=6)]
            )
            loss = aggregator.edge_triplet_loss(
                reprs, 0.7, np.random.default_rng(trial)
            )
            assert loss.item() >= 0.0

    @staticmethod
    def reference_triples(types, rng):
        """(anchor, pos, neg) edge indices sampled with the candidate lists
        rebuilt for every edge, straight-line: the reference for the draws
        of edge_triplet_loss."""
        by_type = {}
        for i, etype in enumerate(types):
            by_type.setdefault(etype, []).append(i)
        pairs = []
        for i, etype in enumerate(types):
            same = [j for j in by_type[etype] if j != i]
            other = [j for t, idxs in by_type.items() if t != etype
                     for j in idxs]
            if not same or not other:
                continue
            pos = same[int(rng.integers(len(same)))]
            neg = other[int(rng.integers(len(other)))]
            pairs.append((i, pos, neg))
        return pairs

    def test_sampled_pairs_match_the_per_edge_candidate_code(self,
                                                             monkeypatch):
        seen = []
        real = ad.triplet_hinge_mean

        def recording(triples, margin, count):
            seen.extend(triples)
            return real(triples, margin, count)

        monkeypatch.setattr(aggregator.ad, "triplet_hinge_mean", recording)
        layouts = np.random.default_rng(41)
        for trial in range(60):
            n = int(layouts.integers(1, 12))
            types = list(layouts.choice(["A", "B", "C", "D"][:1 + trial % 4],
                                        size=n))
            reprs = self.fixed_reprs([(t, [float(i)])
                                      for i, t in enumerate(types)])
            index = {id(v): i for i, (_, v) in enumerate(reprs)}
            seen.clear()
            aggregator.edge_triplet_loss(reprs, 1.0,
                                         np.random.default_rng(trial))
            got = [tuple(index[id(v)] for v in triple) for triple in seen]
            assert got == self.reference_triples(
                types, np.random.default_rng(trial)), types

    def test_loss_and_gradients_match_the_op_chain_bytes(self):
        """Edge vectors that share parameters and inputs, so every
        gradient sum depends on the order of the walk."""
        rng = np.random.default_rng(42)
        types = ["A", "B", "A", "C", "B", "A", "C", "A"]
        data = [rng.normal(size=(len(types), 3)), rng.normal(size=(3, 4)),
                rng.normal(size=4)]

        def run(loss_fn):
            base, w, b = (Tensor(x.copy(), requires_grad=True) for x in data)
            reprs = [(t, ad.linear(base[i], w, b))
                     for i, t in enumerate(types)]
            loss = loss_fn(reprs)
            loss.backward()
            return [loss.data.tobytes()] + [t.grad.tobytes()
                                            for t in (base, w, b)]

        def chain_loss(reprs):
            pairs = self.reference_triples(types, np.random.default_rng(5))
            terms = [ad.relu(ad.add(
                ad.add(ad.euclidean_distance(reprs[i][1], reprs[p][1]),
                       ad.mul(ad.euclidean_distance(reprs[i][1],
                                                    reprs[q][1]), -1.0)),
                0.8)) for i, p, q in pairs]
            return ad.mul(ad.reduce_sum(ad.stack(terms)), 1.0 / len(types))

        assert run(lambda reprs: aggregator.edge_triplet_loss(
            reprs, 0.8, np.random.default_rng(5))) == run(chain_loss)

    @pytest.mark.parametrize("seed", [14, 15, 16])
    def test_gradient(self, seed):
        rng_data = np.random.default_rng(seed)
        vecs = [Tensor(rng_data.normal(size=4), requires_grad=True)
                for _ in range(5)]
        types = ["A", "A", "A", "B", "B"]

        def f(ts):
            reprs = list(zip(types, ts))
            return aggregator.edge_triplet_loss(
                reprs, 1.0, np.random.default_rng(seed)
            )

        assert ad.grad_check(f, vecs) < 1e-4


class TestAggregationLoss:
    VOCAB_INDEX = {"yes": 0, "no": 1, "red": 2}

    def logits_and_targets(self, seed, saturated=None):
        g = random_dag(seed, 4)
        rng = np.random.default_rng(seed)
        logits, targets = [], []
        for n in g.nodes:
            target = self.VOCAB_INDEX[n.gold_answer.casefold()]
            if saturated is not None:
                row = np.zeros(3)
                row[target] = saturated
                logits.append(row)
            else:
                logits.append(rng.normal(size=3))
            targets.append(target)
        return Tensor(np.stack(logits)), targets

    def test_perfect_predictions_near_zero(self):
        logits, targets = self.logits_and_targets(20, saturated=40.0)
        loss = aggregator.aggregation_loss(logits, targets, Tensor(0.0))
        assert loss.item() < 1e-6

    def test_uniform_predictions_ln_vocab(self):
        g = random_dag(21, 5)
        vocab = {"yes": 0, "no": 1, "a": 2, "b": 3, "c": 4}
        loss = aggregator.aggregation_loss(
            Tensor(np.zeros((len(g.nodes), 5))),
            [vocab[n.gold_answer.casefold()] for n in g.nodes], Tensor(0.0))
        assert loss.item() == pytest.approx(np.log(5), abs=1e-12)

    @pytest.mark.parametrize("seed", [22, 23, 24])
    def test_end_to_end_gradient(self, seed):
        # full pipeline: features -> GAT -> head -> CE + triplet
        g = random_dag(seed, 5)
        rng = np.random.default_rng(seed)
        store = make_store(seed=seed, vocab=3)
        feats = features_for(g, rng)

        def f(ts):
            order, outs, _ = on_graph(feats, g, store, K)
            logits = aggregator.predict_answers(outs, store)
            head_feats = {nid: logits[i] for i, nid in enumerate(order)}
            reprs = aggregator.edge_representations([(g, head_feats)], store)
            triplet = aggregator.edge_triplet_loss(
                reprs, 1.0, np.random.default_rng(seed)
            )
            return aggregator.aggregation_loss(
                ad.stack([head_feats[n.id] for n in g.nodes]),
                [{"yes": 0, "no": 1}[n.gold_answer.casefold()] for n in g.nodes],
                triplet,
            )

        first = sorted(feats)[0]
        assert ad.grad_check(f, [feats[first]]) < 1e-4
        assert ad.grad_check(f, [store["ag.head.w"]]) < 1e-4
        assert ad.grad_check(f, [store["ag.edge.w"]]) < 1e-4
