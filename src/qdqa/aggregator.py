"""Graph-attention answer aggregation over a decomposition graph.

Each node starts from its backbone joint feature; every layer lets a node
attend over its direct children (plus itself), the per-layer outputs are
concatenated into the answer head, and edge representations feed a
same-operator/other-operator triplet loss.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tensor
from .qdg import QDG

MASK_OFF = -1e9


def init_aggregator_params(store: ParamStore, h: int, layers: int,
                           vocab_size: int):
    for k in range(layers):
        store.add(f"ag.l{k}.a", (h,))
        store.linear(f"ag.l{k}.ws", 2 * h, h)
        store.linear(f"ag.l{k}.wg", h, h)
    store.linear("ag.head", layers * h, vocab_size)
    # edge vectors are built from the head features f^a (vocab width)
    store.linear("ag.edge", 2 * vocab_size, h)


def neighbor_mask(g: QDG, order: list[str]) -> np.ndarray:
    """mask[i, j] = 1 where node i may attend node j: its children and
    itself (self-loop keeps childless nodes alive)."""
    pos = {nid: i for i, nid in enumerate(order)}
    n = len(order)
    mask = np.eye(n)
    for e in g.edges:
        mask[pos[e.parent], pos[e.child]] = 1.0
    return mask


def gat_layer(feats: Tensor, mask: np.ndarray, store: ParamStore,
              prefix: str) -> tuple[Tensor, Tensor]:
    """One attention layer over [..., n, h] features and [..., n, n] masks;
    leading axes stack graphs of the same size.  Returns (output, alpha).

    Every op works matrix by matrix or row by row over the leading axes,
    so a stacked graph gets the same bits as the same graph alone."""
    n, h = feats.shape[-2:]
    lead = feats.shape[:-2]
    ws, wsb = store[f"{prefix}.ws.w"], store[f"{prefix}.ws.b"]
    # [f_i || f_j] @ Ws splits into row blocks of Ws
    left = ad.matmul(feats, ad.getitem(ws, slice(0, h)))
    right = ad.linear(feats, ad.getitem(ws, slice(h, 2 * h)), wsb)
    pair = ad.add(ad.reshape(left, lead + (n, 1, h)),
                  ad.reshape(right, lead + (1, n, h)))
    scores = ad.matmul(ad.leaky_relu(pair), store[f"{prefix}.a"])
    masked = ad.add(scores, MASK_OFF * (1.0 - mask))
    alpha = ad.softmax(masked, axis=-1)
    alpha = ad.mul(alpha, mask)  # zero the masked tail exactly
    transformed = ad.linear(feats, *store.layer(f"{prefix}.wg"))
    return ad.relu(ad.matmul(alpha, transformed)), alpha


def gat_layers(feats: Tensor, mask: np.ndarray, store: ParamStore,
               layers: int):
    """All layers over [..., n, h] features; returns ([per-layer
    [..., n, h] Tensors], alphas)."""
    outputs, alphas = [], []
    for k in range(layers):
        feats, alpha = gat_layer(feats, mask, store, f"ag.l{k}")
        outputs.append(feats)
        alphas.append(alpha)
    return outputs, alphas


def answer_head(layer_outputs: list[Tensor], store: ParamStore) -> Tensor:
    """Concat per-layer features into the head: logits [..., n, vocab]."""
    stacked = ad.concat(layer_outputs, axis=-1)  # [..., n, K*h]
    return ad.linear(stacked, *store.layer("ag.head"))


def gat_forward(node_features: dict, g: QDG, store: ParamStore,
                layers: int):
    """All layers on one graph; returns (order, [per-layer [n, h]
    Tensors], alphas).

    node_features maps node id -> Tensor [h].  Node order is sorted id.
    """
    order = sorted(node_features)
    if set(order) != {n.id for n in g.nodes}:
        raise ShapeError("feature ids do not match graph nodes")
    widths = {node_features[i].shape[-1] for i in order}
    if len(widths) != 1:
        raise ShapeError("node feature widths differ")
    feats = ad.stack([node_features[i] for i in order], axis=0)
    outputs, alphas = gat_layers(feats, neighbor_mask(g, order), store,
                                 layers)
    return order, outputs, alphas


def predict_answers(order: list[str], layer_outputs: list[Tensor],
                    store: ParamStore):
    """The head on one graph; returns the logits as a map node id ->
    Tensor.  Logits are also the edge-feature inputs."""
    head = answer_head(layer_outputs, store)
    return {nid: ad.getitem(head, i) for i, nid in enumerate(order)}


def edge_representations(graphs_and_features, store: ParamStore):
    """Edge vectors W_e [f^a_parent || f^a_child] + b_e over a batch.

    graphs_and_features: iterable of (QDG, map node id -> f^a Tensor).
    Returns a list of (edge_type, vector Tensor).
    """
    reprs = []
    for g, feats in graphs_and_features:
        for e in g.edges:
            pair = ad.concat([feats[e.parent], feats[e.child]], axis=-1)
            vec = ad.linear(pair, *store.layer("ag.edge"))
            reprs.append((e.op, vec))
    return reprs


def edge_triplet_loss(edge_reprs, margin: float, rng) -> Tensor:
    """Hinge loss pulling same-type edges together, pushing other types a
    margin apart.  One sampled positive and negative per edge; edges with
    no valid candidate contribute zero."""
    if not edge_reprs:
        return Tensor(0.0)
    by_type: dict[str, list[int]] = {}
    for i, (etype, _) in enumerate(edge_reprs):
        by_type.setdefault(etype, []).append(i)
    # per type: (its edges, in index order; the edges of every other type)
    pools = {t: (same, [j for u, idxs in by_type.items() if u != t
                        for j in idxs])
             for t, same in by_type.items()}
    terms = []
    for i, (etype, vec) in enumerate(edge_reprs):
        same, other = pools[etype]
        if len(same) < 2 or not other:
            continue
        # the k-th edge of `same` other than edge i (`same` is ascending)
        k = int(rng.integers(len(same) - 1))
        pos = edge_reprs[same[k] if same[k] < i else same[k + 1]][1]
        neg = edge_reprs[other[int(rng.integers(len(other)))]][1]
        terms.append(ad.triplet_hinge(vec, pos, neg, margin))
    if not terms:
        return Tensor(0.0)
    return ad.mul(ad.reduce_sum(ad.stack(terms)), 1.0 / len(edge_reprs))


def aggregation_loss(node_logits, targets, triplet: Tensor) -> Tensor:
    """Triplet term plus mean answer CE over nodes.

    node_logits: one [vocab] logits Tensor per node; targets: their gold
    vocab ids, in the same order.
    """
    ces = [ad.softmax_cross_entropy(logits, target)
           for logits, target in zip(node_logits, targets, strict=True)]
    ce = ad.mul(ad.reduce_sum(ad.stack(ces)), 1.0 / len(ces))
    return ad.add(triplet, ce)
