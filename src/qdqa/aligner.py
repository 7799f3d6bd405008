"""Hierarchical question-conditioned clip selection and the alignment loss.

The aligner walks video features bottom-up (objects -> frames -> clips),
fusing each level with the question through cross-attention, then scores
each clip as relevant/irrelevant via a straight-through Gumbel-softmax
indicator.  Every function works on a batch of videos stacked along a
leading axis.  Training adds to the answer cross-entropy a per-clip
question-anchor loss: a mean softplus that pushes every clip the indicator
marks relevant toward the projected question and every marked-irrelevant
clip away from it.  The paper's view contrastive (relevant clips as anchor,
a clip-replaced video as positive, the irrelevant clips as negative) is not
implemented.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tensor


def init_aligner_params(store: ParamStore, h_v: int, heads: int = 4):
    ad.init_transformer_params(store, "al.obj_tf", h_v, heads)
    ad.init_transformer_params(store, "al.frm_tf", h_v, heads)
    ad.init_transformer_params(store, "al.mot_tf", h_v, heads)
    store.linear("al.obj_pool", h_v, 1)
    store.linear("al.frm_pool", h_v, 1)
    store.linear("al.proj_a", 2 * h_v, h_v)  # [obj-pool || appearance] -> h_v
    store.linear("al.proj_m", 2 * h_v, h_v)  # [frame-pool || motion] -> h_v
    store.linear("al.mlp_rel.1", h_v, h_v)
    store.linear("al.mlp_rel.2", h_v, 1)
    store.linear("al.mlp_irr.1", h_v, h_v)
    store.linear("al.mlp_irr.2", h_v, 1)
    # question anchor of the alignment loss; the aligner needs h_q == h_v
    store.linear("al.q_anchor", h_v, h_v)


def _mlp2(x, store, prefix):
    hidden = ad.relu(ad.linear(x, *store.layer(f"{prefix}.1")))
    return ad.linear(hidden, *store.layer(f"{prefix}.2"))


def _pool(feats, store, name):
    """Softmax-weighted sum over the second-to-last axis with learned
    scalar scores per element."""
    logits = ad.linear(feats, *store.layer(name))  # [..., n, 1]
    weights = ad.softmax(logits, axis=-2)
    return ad.reduce_sum(ad.mul(weights, feats), axis=-2)


def aggregate_objects(f_o, f_a, f_q, store: ParamStore,
                      heads: int = 4) -> Tensor:
    """Question-fused object pooling concatenated with appearance features.

    Returns [..., n_c, n_f, 2*h_v].
    """
    f_o = ad._as_tensor(f_o)
    f_q = ad._as_tensor(f_q)
    fused = ad.transformer_encoder_layer(f_o, f_q, f_q, store, "al.obj_tf",
                                         heads)
    pooled = _pool(fused, store, "al.obj_pool")  # [..., n_c, n_f, h_v]
    return ad.concat([pooled, ad._as_tensor(f_a)], axis=-1)


def aggregate_frames(f_a_c, f_m, f_q, store: ParamStore,
                     heads: int = 4) -> Tensor:
    """Mirror of the object stage over the frame axis.

    f_a_c is the [..., n_c, n_f, 2*h_v] object-stage output; it is projected
    back to h_v before attention.  Returns [..., n_c, 2*h_v].
    """
    f_q = ad._as_tensor(f_q)
    projected = ad.linear(f_a_c, *store.layer("al.proj_a"))
    fused = ad.transformer_encoder_layer(projected, f_q, f_q, store,
                                         "al.frm_tf", heads)
    pooled = _pool(fused, store, "al.frm_pool")  # [..., n_c, h_v]
    return ad.concat([pooled, ad._as_tensor(f_m)], axis=-1)


def clip_scores(f_m_c, f_q, store: ParamStore, heads: int = 4):
    """Relevance/irrelevance logits per clip: [..., n_c, 2]."""
    f_q = ad._as_tensor(f_q)
    projected = ad.linear(f_m_c, *store.layer("al.proj_m"))
    fused = ad.transformer_encoder_layer(projected, f_q, f_q, store,
                                         "al.mot_tf", heads)
    s_rel = _mlp2(fused, store, "al.mlp_rel")
    s_irr = _mlp2(fused, store, "al.mlp_irr")
    return ad.concat([s_rel, s_irr], axis=-1)


def clip_pipeline(f_o, f_a, f_m, f_q, store: ParamStore, heads: int = 4):
    """Object and frame stages over a batch of videos.

    f_o [B, n_c, n_f, n_o, h_v], f_a [B, n_c, n_f, h_v], f_m [B, n_c, h_v],
    f_q [B, n_q, h_q].  Returns (f_m_c [B, n_c, 2*h_v], clips [B, n_c, h_v]).
    The question tokens reach each stage as a zero-stride view with the
    stage's structural axes, so their key and value projections run once
    per video.
    """
    b, n_q, h = f_q.shape
    n_c, n_f = f_o.shape[1], f_o.shape[2]

    def tokens(lead):
        r = ad.reshape(f_q, (b,) + (1,) * len(lead) + (n_q, h))
        return ad.broadcast_to(r, (b,) + lead + (n_q, h))

    obj = aggregate_objects(f_o, f_a, tokens((n_c, n_f)), store, heads)
    f_m_c = aggregate_frames(obj, f_m, tokens((n_c,)), store, heads)
    clips = ad.linear(f_m_c, *store.layer("al.proj_m"))
    return f_m_c, clips


def _force_nonempty_rows(ind: Tensor, logits: Tensor) -> Tensor:
    """Keep both clip sets non-empty per row; identity backward, like the
    straight-through trick itself.

    All-irrelevant rows get their best relevance-logit clip flipped on;
    all-relevant rows (given at least two clips) get their worst clip
    flipped off, which removes the trivial zero of the alignment loss at
    the all-relevant indicator."""
    data = ind.data
    n_c = data.shape[-2]
    no_rel = data[..., 0].sum(axis=-1) == 0
    no_irr = data[..., 1].sum(axis=-1) == 0
    if not (no_rel.any() or (n_c > 1 and no_irr.any())):
        return ind
    patched = data.copy()
    rows = np.nonzero(no_rel)[0]
    best = logits.data[rows, :, 0].argmax(axis=-1)
    patched[rows, best] = [1.0, 0.0]
    if n_c > 1:
        rows = np.nonzero(no_irr)[0]
        worst = logits.data[rows, :, 0].argmin(axis=-1)
        patched[rows, worst] = [0.0, 1.0]
    return ad._make(patched, (ind,), lambda g: (g,))


def hard_indicator(f_m_c, f_q, store: ParamStore, heads: int,
                   temperature: float, noise) -> tuple[Tensor, Tensor]:
    """Straight-through indicator [B, n_c, 2] (column 0 = relevant) plus
    its logits, with both clip sets of every row kept non-empty, under
    the Gumbel noise `noise` [B, n_c, 2]."""
    logits = clip_scores(f_m_c, f_q, store, heads)
    ind = ad.gumbel_softmax(logits, temperature=temperature, hard=True,
                            noise=noise)
    return _force_nonempty_rows(ind, logits), logits


def _softplus_mean(x: Tensor) -> Tensor:
    """Numerically stable mean softplus over a batch vector."""
    sign = np.where(x.data >= 0, 1.0, -1.0)
    absx = ad.mul(x, sign)
    soft = ad.add(ad.relu(x),
                  ad.log(ad.add(ad.exp(ad.mul(absx, -1.0)), 1.0)))
    return ad.reduce_mean(soft)


def anchor_contrastive(f_q, clips, ind: Tensor, w_rel: Tensor,
                       store: ParamStore) -> Tensor:
    """Per-clip question alignment loss.

    Every clip the indicator marks relevant must score positively against
    its question anchor (the projected mean question token), every
    marked-irrelevant clip negatively.  Anchoring on the question keeps the
    loss sensitive to WHICH clips are selected, and the per-clip form makes
    each genuinely question-correlated clip pull toward inclusion, so
    partial selections cannot satisfy the loss the way they can with
    pooled views.  w_rel is the relevant column of ind that also weights
    the backbone's clip pooling; taking it rather than slicing ind again
    keeps one tape node for it.
    """
    q_anchor = ad.linear(ad.reduce_mean(f_q, axis=-2),
                         *store.layer("al.q_anchor"))  # [B, h_v]
    if clips.shape[-1] != q_anchor.shape[-1]:
        raise ShapeError("clip and question-anchor widths differ")
    b = q_anchor.shape[0]
    s = ad.reduce_sum(
        ad.mul(ad.reshape(q_anchor, (b, 1, q_anchor.shape[-1])), clips),
        axis=-1,
    )  # [B, n_c]
    w_irr = ad.getitem(ind, (slice(None), slice(None), 1))
    sign = ad.add(w_irr, ad.mul(w_rel, -1.0))
    return _softplus_mean(ad.mul(s, sign))


# -- reference backbone ----------------------------------------------------


def init_backbone_params(store: ParamStore, h_v: int, h_q: int, h: int):
    store.linear("bb.l1", h_v + h_q, h)
    store.linear("bb.l2", h, h)


def backbone_joint(clip_feats, f_q, store: ParamStore,
                   clip_weights=None) -> Tensor:
    """Joint video-question feature: pooled clips + pooled question tokens
    through a 2-layer MLP.  clip_feats [..., n_c, h_v], f_q [..., n_q, h_q]
    with the same leading axes.

    clip_weights, when given, is a [..., n_c] non-negative weighting
    (e.g. a straight-through indicator column); otherwise a plain mean.
    """
    clip_feats = ad._as_tensor(clip_feats)
    f_q = ad._as_tensor(f_q)
    if clip_weights is None:
        pooled = ad.reduce_mean(clip_feats, axis=-2)
    else:
        w = ad._as_tensor(clip_weights)
        total = ad.add(ad.reduce_sum(w, axis=-1, keepdims=True), 1e-9)
        norm = ad.mul(w, ad.power(total, -1.0))
        pooled = ad.reduce_sum(
            ad.mul(ad.reshape(norm, norm.shape + (1,)), clip_feats), axis=-2
        )
    q_bar = ad.reduce_mean(f_q, axis=-2)
    x = ad.concat([pooled, q_bar], axis=-1)
    hidden = ad.relu(ad.linear(x, *store.layer("bb.l1")))
    return ad.linear(hidden, *store.layer("bb.l2"))


def init_answer_head(store: ParamStore, h: int, vocab_size: int):
    store.linear("al.head", h, vocab_size)


def answer_logits(joint, store: ParamStore) -> Tensor:
    return ad.linear(joint, *store.layer("al.head"))
