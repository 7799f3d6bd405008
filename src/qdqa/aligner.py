"""Hierarchical question-conditioned clip selection and alignment losses.

The aligner walks video features bottom-up (objects -> frames -> clips),
fusing each level with the question through cross-attention, then scores
each clip as relevant/irrelevant via a Gumbel-softmax indicator.  Training
is driven by an answer cross-entropy plus a contrastive loss that pushes
the relevant-clip representation toward a clip-replaced positive view and
away from the irrelevant-clip view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tensor


class EmptyRelevantError(ValueError):
    pass


class EmptyPoolError(ValueError):
    pass


@dataclass
class VideoFeatures:
    """Three-level clip features; leading clip axis is shared."""

    f_o: np.ndarray  # [n_c, n_f, n_o, h_v]
    f_a: np.ndarray  # [n_c, n_f, h_v]
    f_m: np.ndarray  # [n_c, h_v]

    def __post_init__(self):
        self.f_o = np.asarray(self.f_o, dtype=np.float64)
        self.f_a = np.asarray(self.f_a, dtype=np.float64)
        self.f_m = np.asarray(self.f_m, dtype=np.float64)
        n_c = self.f_m.shape[0]
        if self.f_o.shape[0] != n_c or self.f_a.shape[0] != n_c:
            raise ShapeError("clip counts differ across feature levels")
        if not (np.isfinite(self.f_o).all() and np.isfinite(self.f_a).all()
                and np.isfinite(self.f_m).all()):
            raise ValueError("non-finite video features")

    @property
    def n_clips(self) -> int:
        return self.f_m.shape[0]

    def select_clips(self, indices) -> "VideoFeatures":
        idx = list(indices)
        return VideoFeatures(self.f_o[idx], self.f_a[idx], self.f_m[idx])


@dataclass
class ClipIndicator:
    indicator: Tensor  # [n_c, 2]; column 0 = relevant
    relevant_set: list
    irrelevant_set: list


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


def _force_nonempty_relevant(indicator: Tensor, logits: Tensor) -> Tensor:
    """If a hard indicator marks every clip irrelevant, flip the clip with
    the highest relevance logit.  Forward-value surgery with an identity
    backward, like the straight-through estimator itself."""
    data = indicator.data
    if data[..., 0].sum() > 0:
        return indicator
    best = int(np.argmax(logits.data[..., 0]))
    patched = data.copy()
    patched[best] = [1.0, 0.0]
    delta = patched - data
    return ad._make(data + delta, (indicator,), lambda g: (g,))


def _force_nonempty_irrelevant(indicator: Tensor, logits: Tensor) -> Tensor:
    """Mirror of the relevant-side surgery: if every clip is marked
    relevant, flip the clip with the lowest relevance logit.  Without this
    the contrastive loss has a trivial zero at the all-relevant indicator
    (the negative view degenerates and the replacement view is the
    original)."""
    data = indicator.data
    if data.shape[-2] < 2 or data[..., 1].sum() > 0:
        return indicator
    worst = int(np.argmin(logits.data[..., 0]))
    patched = data.copy()
    patched[worst] = [0.0, 1.0]
    delta = patched - data
    return ad._make(data + delta, (indicator,), lambda g: (g,))


def clip_indicator(f_m_c, f_q, store: ParamStore, temperature: float = 1.0,
                   hard: bool = False, rng=None, noise=None,
                   heads: int = 4) -> ClipIndicator:
    """Per-clip relevant/irrelevant decision via Gumbel-softmax.

    Hard mode returns straight-through one-hot rows; soft mode keeps the
    smooth sample but still reports argmax clip sets.  Both clip sets are
    kept non-empty (given at least two clips) so neither contrastive view
    can degenerate.
    """
    logits = clip_scores(f_m_c, f_q, store, heads)
    ind = ad.gumbel_softmax(logits, temperature=temperature, hard=hard,
                            rng=rng, noise=noise)
    relevant, irrelevant = [], []
    if ind.data.ndim == 2:
        if hard:
            ind = _force_nonempty_relevant(ind, logits)
            ind = _force_nonempty_irrelevant(ind, logits)
        choices = ind.data.argmax(axis=-1)
        if (choices == 1).all():
            choices[int(np.argmax(logits.data[..., 0]))] = 0
        elif (choices == 0).all() and len(choices) > 1:
            choices[int(np.argmin(logits.data[..., 0]))] = 1
        for c, pick in enumerate(choices):
            (relevant if pick == 0 else irrelevant).append(c)
    return ClipIndicator(indicator=ind, relevant_set=relevant,
                         irrelevant_set=irrelevant)


def build_views(v: VideoFeatures, ind: ClipIndicator,
                pool: list[VideoFeatures], rng):
    """Relevant-only, irrelevant-only, and replacement views of a video.

    Replacement swaps each irrelevant clip (all three levels jointly) for a
    uniformly drawn clip from the pool videos.
    """
    if not ind.relevant_set:
        raise EmptyRelevantError("hard indicator selected no relevant clips")
    v_r = v.select_clips(ind.relevant_set)
    v_c = (v.select_clips(ind.irrelevant_set)
           if ind.irrelevant_set else None)
    f_o = v.f_o.copy()
    f_a = v.f_a.copy()
    f_m = v.f_m.copy()
    if ind.irrelevant_set:
        if not pool:
            raise EmptyPoolError("replacement pool is empty")
        for c in ind.irrelevant_set:
            src = pool[int(rng.integers(len(pool)))]
            clip = int(rng.integers(src.n_clips))
            f_o[c] = src.f_o[clip]
            f_a[c] = src.f_a[clip]
            f_m[c] = src.f_m[clip]
    v_prime = VideoFeatures(f_o, f_a, f_m)
    return v_r, v_c, v_prime


def alignment_contrastive_loss(f_anchor, f_pos, f_neg) -> Tensor:
    """Two-way InfoNCE on dot-product similarities, log-sum-exp stabilized."""
    f_anchor, f_pos, f_neg = map(ad._as_tensor, (f_anchor, f_pos, f_neg))
    if not (f_anchor.shape == f_pos.shape == f_neg.shape):
        raise ShapeError("contrastive features must share a width")
    s_pos = ad.reduce_sum(ad.mul(f_anchor, f_pos))
    s_neg = ad.reduce_sum(ad.mul(f_anchor, f_neg))
    x = ad.add(s_neg, ad.mul(s_pos, -1.0))  # loss = softplus(s_neg - s_pos)
    if x.data > 0:
        return ad.add(x, ad.log(ad.add(ad.exp(ad.mul(x, -1.0)), 1.0)))
    return ad.log(ad.add(ad.exp(x), 1.0))


# -- reference backbone ----------------------------------------------------


def init_backbone_params(store: ParamStore, h_v: int, h_q: int, h: int):
    store.linear("bb.l1", h_v + h_q, h)
    store.linear("bb.l2", h, h)


def backbone_joint(clip_feats, f_q, store: ParamStore,
                   clip_weights=None) -> Tensor:
    """Joint video-question feature: pooled clips + pooled question tokens
    through a 2-layer MLP.  clip_feats [..., n_c, h_v], f_q [n_q, h_q].

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
    if pooled.ndim > q_bar.ndim:
        q_bar = ad.broadcast_to(q_bar, pooled.shape[:-1] + q_bar.shape[-1:])
    x = ad.concat([pooled, q_bar], axis=-1)
    hidden = ad.relu(ad.linear(x, *store.layer("bb.l1")))
    return ad.linear(hidden, *store.layer("bb.l2"))


def init_answer_head(store: ParamStore, h: int, vocab_size: int):
    store.linear("al.head", h, vocab_size)


def answer_logits(joint, store: ParamStore) -> Tensor:
    return ad.linear(joint, *store.layer("al.head"))


def aligner_answer_and_loss(v: VideoFeatures, f_q, gold: int,
                            store: ParamStore, rng,
                            pool: list[VideoFeatures],
                            temperature: float = 1.0,
                            heads: int = 4, noise=None, hard: bool = True):
    """Full per-instance aligner pass: indicator, views, answer CE plus the
    contrastive term.  Returns (answer distribution, total loss).

    hard=True pools clips by the straight-through one-hot indicator;
    hard=False keeps the soft sample, which makes the whole loss smooth
    (the views still come from the argmax clip partition).
    """
    obj = aggregate_objects(Tensor(v.f_o), Tensor(v.f_a), f_q, store, heads)
    f_m_c = aggregate_frames(obj, Tensor(v.f_m), f_q, store, heads)
    clips = ad.linear(f_m_c, *store.layer("al.proj_m"))  # clip-level h_v
    ind = clip_indicator(f_m_c, f_q, store, temperature=temperature,
                         hard=hard, rng=rng, noise=noise, heads=heads)
    v_r, v_c, v_prime = build_views(v, ind, pool, rng)

    w_rel = ad.getitem(ind.indicator, (slice(None), 0))
    w_irr = ad.getitem(ind.indicator, (slice(None), 1))
    f_anchor = backbone_joint(clips, f_q, store, clip_weights=w_rel)
    f_neg = backbone_joint(clips, f_q, store, clip_weights=w_irr)
    prime_obj = aggregate_objects(Tensor(v_prime.f_o), Tensor(v_prime.f_a),
                                  f_q, store, heads)
    prime_clips = ad.linear(
        aggregate_frames(prime_obj, Tensor(v_prime.f_m), f_q, store, heads),
        *store.layer("al.proj_m"),
    )
    f_pos = backbone_joint(prime_clips, f_q, store)

    logits = answer_logits(f_anchor, store)
    dist = ad.softmax(logits, axis=-1)
    ce = ad.softmax_cross_entropy(logits, gold)
    contrastive = alignment_contrastive_loss(f_anchor, f_pos, f_neg)
    return dist, ad.add(ce, contrastive)
