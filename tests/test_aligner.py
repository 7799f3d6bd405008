from types import SimpleNamespace

import numpy as np
import pytest

from qdqa import aligner, autodiff as ad, train as tr
from qdqa.autodiff import ParamStore, Tensor
from qdqa.synth import SyntheticConfig, generate_clusters

H = 8
HEADS = 2


def make_store(seed=0, vocab=5):
    store = ParamStore(seed)
    aligner.init_aligner_params(store, H, heads=HEADS)
    aligner.init_backbone_params(store, H, H, H)
    aligner.init_answer_head(store, H, vocab)
    return store


def make_video(rng, n_c=3, n_f=2, n_o=2):
    """One video's f_o, f_a and f_m clip features."""
    return SimpleNamespace(
        f_o=rng.normal(size=(n_c, n_f, n_o, H)),
        f_a=rng.normal(size=(n_c, n_f, H)),
        f_m=rng.normal(size=(n_c, H)),
    )


def make_question(rng, n_q=3):
    return Tensor(rng.normal(size=(n_q, H)))


def make_batch(rng, b=3, n_c=3, n_f=2, n_o=2, n_q=3):
    """f_o, f_a, f_m, f_q of b videos stacked on a leading axis."""
    return tuple(Tensor(rng.normal(size=shape)) for shape in (
        (b, n_c, n_f, n_o, H), (b, n_c, n_f, H), (b, n_c, H), (b, n_q, H)))


def soft_gumbel(monkeypatch):
    """Swap the straight-through sample for the soft one (same backward
    path), so the objective is smooth enough for finite differences."""
    sample = ad.gumbel_softmax

    def soft(logits, temperature=1.0, hard=False, *, noise):
        return sample(logits, temperature=temperature, hard=False,
                      noise=noise)

    monkeypatch.setattr(ad, "gumbel_softmax", soft)


class TestObjectAggregation:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        store = make_store()
        v = make_video(rng)
        out = aligner.aggregate_objects(
            Tensor(v.f_o), Tensor(v.f_a), make_question(rng), store, HEADS
        )
        assert out.shape == (3, 2, 2 * H)

    def test_single_object_pool_weight_is_one(self):
        # With one object the softmax pooling weight is exactly 1, so the
        # pooled half must equal the fused object feature itself.
        rng = np.random.default_rng(1)
        store = make_store()
        v = make_video(rng, n_o=1)
        q = make_question(rng)
        out = aligner.aggregate_objects(
            Tensor(v.f_o), Tensor(v.f_a), q, store, HEADS
        )
        fused = ad.transformer_encoder_layer(
            Tensor(v.f_o), q, q, store, "al.obj_tf", HEADS
        )
        np.testing.assert_allclose(out.data[..., :H], fused.data[:, :, 0, :],
                                   atol=1e-12)
        np.testing.assert_allclose(out.data[..., H:], v.f_a, atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        # Independent recomposition from primitives, unbatched per frame.
        rng = np.random.default_rng(2)
        store = make_store()
        v = make_video(rng, n_c=2, n_f=3, n_o=4)
        q = make_question(rng)
        out = aligner.aggregate_objects(
            Tensor(v.f_o), Tensor(v.f_a), q, store, HEADS
        )
        w, b = store["al.obj_pool.w"].data, store["al.obj_pool.b"].data
        for c in range(2):
            for f in range(3):
                fused = ad.transformer_encoder_layer(
                    Tensor(v.f_o[c, f]), q, q, store, "al.obj_tf", HEADS
                ).data
                logits = (fused @ w + b).ravel()
                e = np.exp(logits - logits.max())
                weights = e / e.sum()
                pooled = (weights[:, None] * fused).sum(axis=0)
                np.testing.assert_allclose(out.data[c, f, :H], pooled,
                                           atol=1e-10)
                np.testing.assert_allclose(out.data[c, f, H:], v.f_a[c, f],
                                           atol=1e-12)


class TestFrameAggregation:
    def test_output_shape(self):
        rng = np.random.default_rng(3)
        store = make_store()
        v = make_video(rng)
        q = make_question(rng)
        obj = aligner.aggregate_objects(
            Tensor(v.f_o), Tensor(v.f_a), q, store, HEADS
        )
        out = aligner.aggregate_frames(obj, Tensor(v.f_m), q, store, HEADS)
        assert out.shape == (3, 2 * H)

    def test_single_frame_pool_weight_is_one(self):
        rng = np.random.default_rng(4)
        store = make_store()
        v = make_video(rng, n_f=1)
        q = make_question(rng)
        obj = aligner.aggregate_objects(
            Tensor(v.f_o), Tensor(v.f_a), q, store, HEADS
        )
        out = aligner.aggregate_frames(obj, Tensor(v.f_m), q, store, HEADS)
        projected = ad.add(
            ad.matmul(obj, store["al.proj_a.w"]), store["al.proj_a.b"]
        )
        fused = ad.transformer_encoder_layer(projected, q, q, store,
                                             "al.frm_tf", HEADS)
        np.testing.assert_allclose(out.data[:, :H], fused.data[:, 0, :],
                                   atol=1e-12)
        np.testing.assert_allclose(out.data[:, H:], v.f_m, atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(5)
        store = make_store()
        v = make_video(rng, n_c=2, n_f=4)
        q = make_question(rng)
        obj = aligner.aggregate_objects(
            Tensor(v.f_o), Tensor(v.f_a), q, store, HEADS
        )
        out = aligner.aggregate_frames(obj, Tensor(v.f_m), q, store, HEADS)
        w, b = store["al.frm_pool.w"].data, store["al.frm_pool.b"].data
        pw, pb = store["al.proj_a.w"].data, store["al.proj_a.b"].data
        for c in range(2):
            proj = obj.data[c] @ pw + pb
            fused = ad.transformer_encoder_layer(
                Tensor(proj), q, q, store, "al.frm_tf", HEADS
            ).data
            logits = (fused @ w + b).ravel()
            e = np.exp(logits - logits.max())
            weights = e / e.sum()
            pooled = (weights[:, None] * fused).sum(axis=0)
            np.testing.assert_allclose(out.data[c, :H], pooled, atol=1e-10)


class TestClipPipeline:
    def test_matches_per_video_stages(self):
        # the zero-stride question views give each video its own tokens
        rng = np.random.default_rng(6)
        store = make_store()
        f_o, f_a, f_m, f_q = make_batch(rng)
        f_m_c, clips = aligner.clip_pipeline(f_o, f_a, f_m, f_q, store,
                                             HEADS)
        assert f_m_c.shape == (3, 3, 2 * H) and clips.shape == (3, 3, H)
        for i in range(3):
            q = Tensor(f_q.data[i])
            obj = aligner.aggregate_objects(
                Tensor(f_o.data[i]), Tensor(f_a.data[i]), q, store, HEADS)
            one = aligner.aggregate_frames(obj, Tensor(f_m.data[i]), q,
                                           store, HEADS)
            np.testing.assert_allclose(f_m_c.data[i], one.data, atol=1e-12)
            proj = one.data @ store["al.proj_m.w"].data \
                + store["al.proj_m.b"].data
            np.testing.assert_allclose(clips.data[i], proj, atol=1e-12)


class TestClipIndicator:
    def run_indicator(self, store, batch, noise):
        f_o, f_a, f_m, f_q = batch
        f_m_c, _ = aligner.clip_pipeline(f_o, f_a, f_m, f_q, store, HEADS)
        return aligner.hard_indicator(f_m_c, f_q, store, HEADS, 1.0,
                                      noise=noise)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        store = make_store()
        ind, _ = self.run_indicator(store, make_batch(rng),
                                    rng.gumbel(size=(3, 3, 2)))
        np.testing.assert_allclose(ind.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_hard_partition(self):
        rng = np.random.default_rng(8)
        store = make_store()
        ind, _ = self.run_indicator(store, make_batch(rng, n_c=5),
                                    rng.gumbel(size=(3, 5, 2)))
        picks = ind.data.round(12)
        assert set(picks.ravel()) <= {0.0, 1.0}
        # every clip on exactly one side, both sides non-empty in every row
        assert (picks.sum(axis=-1) == 1).all()
        assert (picks.sum(axis=-2) >= 1).all()

    def test_saturated_logits_keep_one_irrelevant(self):
        # Bias the relevance MLP head to +30 and the irrelevance head to
        # -30; the indicator wants every clip relevant, but in every row
        # the clip with the lowest relevance logit is forced out, so the
        # alignment loss has no trivial zero.
        rng = np.random.default_rng(8)
        store = make_store()
        store["al.mlp_rel.2.b"].data = np.array([30.0])
        store["al.mlp_irr.2.b"].data = np.array([-30.0])
        ind, logits = self.run_indicator(store, make_batch(rng),
                                         np.zeros((3, 3, 2)))
        worst = logits.data[..., 0].argmin(axis=-1)
        expect = np.zeros((3, 3, 2))
        expect[..., 0] = 1.0
        expect[np.arange(3), worst] = [0.0, 1.0]
        np.testing.assert_array_equal(ind.data.round(12), expect)

    def test_forced_nonempty_relevant(self):
        rng = np.random.default_rng(9)
        store = make_store()
        store["al.mlp_rel.2.b"].data = np.array([-30.0])
        store["al.mlp_irr.2.b"].data = np.array([30.0])
        ind, logits = self.run_indicator(store, make_batch(rng),
                                         np.zeros((3, 3, 2)))
        best = logits.data[..., 0].argmax(axis=-1)
        expect = np.zeros((3, 3, 2))
        expect[..., 1] = 1.0
        expect[np.arange(3), best] = [1.0, 0.0]
        np.testing.assert_array_equal(ind.data.round(12), expect)

    def test_patches_only_degenerate_rows(self):
        # row 0 all irrelevant, row 1 all relevant, row 2 mixed: only the
        # first two are patched, at their argmax and argmin relevance clip
        rng = np.random.default_rng(10)
        store = make_store()
        noise = np.zeros((3, 4, 2))
        noise[0, :, 1] = 50.0
        noise[1, :, 0] = 50.0
        noise[2, [0, 3], 0] = 50.0
        noise[2, [1, 2], 1] = 50.0
        ind, logits = self.run_indicator(store, make_batch(rng, n_c=4),
                                         noise)
        raw = ad.gumbel_softmax(logits, hard=True, noise=noise).data
        rel = logits.data[..., 0]
        expect = raw.round(12)
        expect[0, rel[0].argmax()] = [1.0, 0.0]
        expect[1, rel[1].argmin()] = [0.0, 1.0]
        np.testing.assert_array_equal(ind.data.round(12), expect)
        np.testing.assert_array_equal(expect[2, :, 0], [1, 0, 0, 1])
        assert (np.abs(ind.data - raw) > 0.5).sum(axis=(1, 2)).tolist() \
            == [2, 2, 0]

    def test_single_clip_rows(self):
        # with one clip a row cannot hold both sets: an all-irrelevant row
        # is flipped to relevant, an all-relevant row is left alone
        rng = np.random.default_rng(11)
        store = make_store()
        noise = np.zeros((2, 1, 2))
        noise[0, 0, 1] = 50.0
        noise[1, 0, 0] = 50.0
        ind, _ = self.run_indicator(store, make_batch(rng, b=2, n_c=1),
                                    noise)
        np.testing.assert_array_equal(ind.data.round(12),
                                      [[[1.0, 0.0]], [[1.0, 0.0]]])

    def test_soft_indicator_gradient(self, monkeypatch):
        rng = np.random.default_rng(12)
        store = make_store()
        _, f_a, f_m, f_q = make_batch(rng, b=2, n_c=2)
        frozen = rng.gumbel(size=(2, 2, 2))
        weight = rng.normal(size=(2, 2, 2))
        soft_gumbel(monkeypatch)

        def f(ts):
            f_m_c, _ = aligner.clip_pipeline(ts[0], f_a, f_m, f_q, store,
                                             HEADS)
            ind, _ = aligner.hard_indicator(f_m_c, f_q, store, HEADS, 1.0,
                                            noise=frozen)
            return (ind * weight).sum()

        x = Tensor(rng.normal(size=(2, 2, 2, 2, H)), requires_grad=True)
        assert ad.grad_check(f, [x]) < 1e-4


def anchor_inputs(rng, b=2, n_c=3, n_q=3):
    f_q = Tensor(rng.normal(size=(b, n_q, H)))
    clips = Tensor(rng.normal(size=(b, n_c, H)))
    ind = Tensor(rng.uniform(size=(b, n_c, 2)))
    return f_q, clips, ind


def anchor_loss(store, f_q, clips, ind):
    w_rel = ad.getitem(ind, (slice(None), slice(None), 0))
    return aligner.anchor_contrastive(f_q, clips, ind, w_rel, store)


class TestContrastiveLoss:
    def test_symmetric_case_is_ln2(self):
        # zero anchor weights make every similarity 0, so every clip
        # contributes softplus(0)
        rng = np.random.default_rng(13)
        store = make_store()
        store["al.q_anchor.w"].data[:] = 0.0
        loss = anchor_loss(store, *anchor_inputs(rng))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_saturated_case(self):
        # relevant clips aligned with the anchor, irrelevant ones opposed
        rng = np.random.default_rng(14)
        store = make_store()
        store["al.q_anchor.w"].data = np.eye(H)
        u = rng.normal(size=H)
        f_q = Tensor(np.broadcast_to(u, (2, 3, H)).copy())
        ind = np.zeros((2, 3, 2))
        ind[:, [0, 2], 0] = 1.0
        ind[:, 1, 1] = 1.0
        sign = np.where(ind[..., 0] > 0, 1.0, -1.0)
        clips = Tensor(40.0 * sign[..., None] * u / (u @ u))
        assert anchor_loss(store, f_q, clips, Tensor(ind)).item() < 1e-9

    def test_matches_unstabilized_formula(self):
        rng = np.random.default_rng(15)
        store = make_store()
        f_q, clips, ind = anchor_inputs(rng)
        loss = anchor_loss(store, f_q, clips, ind)
        anchor = f_q.data.mean(axis=1) @ store["al.q_anchor.w"].data \
            + store["al.q_anchor.b"].data
        s = (anchor[:, None, :] * clips.data).sum(axis=-1)
        x = s * (ind.data[..., 1] - ind.data[..., 0])
        assert loss.item() == pytest.approx(np.log1p(np.exp(x)).mean(),
                                            abs=1e-12)

    def test_width_mismatch(self):
        rng = np.random.default_rng(16)
        store = make_store()
        f_q, _, ind = anchor_inputs(rng)
        with pytest.raises(ad.ShapeError):
            anchor_loss(store, f_q, Tensor(np.zeros((2, 3, 1))), ind)

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        store = make_store()
        inputs = list(anchor_inputs(rng)) + [store["al.q_anchor.w"]]
        err = ad.grad_check(lambda ts: anchor_loss(store, *ts[:3]), inputs)
        assert err < 1e-6


def objective_setup(row, seed):
    """A two-cluster pack and fresh parameters for one ablation row."""
    sc = SyntheticConfig(clusters=2, n_c=3, n_f=2, n_o=2, h_v=H, h_q=H,
                         n_q=2, seed=seed)
    cfg = tr.RunConfig(synthetic=sc, h=H, heads=HEADS, layers=2, seed=seed,
                       steps=1, **dict(tr.ABLATION_ROWS)[row])
    pack = tr.pack_split(generate_clusters(sc, range(2)), sc.vocab_index)
    return cfg, pack, tr.init_params(cfg)


class TestAnswerAndLoss:
    def test_zero_head_gives_uniform_and_ln_vocab_ce(self):
        cfg, pack, store = objective_setup("aligner", 1)
        store["al.head.w"].data[:] = 0.0
        store["al.head.b"].data[:] = 0.0
        terms, total = tr.forward_losses(
            pack, [0, 1], store, cfg, np.random.default_rng(18))
        assert set(terms) == {"answer_ce", "contrastive"}
        assert np.isfinite(total.item())
        vocab = len(cfg.synthetic.vocab)
        assert terms["answer_ce"].item() == pytest.approx(np.log(vocab),
                                                          abs=1e-12)
        # total = ln |vocab| + the (non-negative) alignment term
        assert total.item() >= np.log(vocab) - 1e-9

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_full_loss_gradient(self, monkeypatch, seed):
        # soft Gumbel with frozen noise, checked against finite differences
        # through the whole trained objective of the aligner and full rows
        soft_gumbel(monkeypatch)
        for row in ("aligner", "full"):
            cfg, pack, store = objective_setup(row, seed)
            noise = np.random.default_rng(seed).gumbel(
                size=(pack.n_nodes, cfg.synthetic.n_c, 2))

            def f_param(ts):
                _, total = tr.forward_losses(
                    pack, [0, 1], store, cfg,
                    np.random.default_rng([seed, 8]), noise=noise)
                return total

            for name in ("al.proj_m.w", "al.mlp_rel.2.w", "al.q_anchor.w",
                         "bb.l1.w", "al.head.w"):
                err = ad.grad_check(f_param, [store[name]])
                assert err < 1e-4, (row, name)
