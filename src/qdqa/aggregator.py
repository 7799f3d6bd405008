"""Graph-attention answer aggregation over a decomposition graph.

Each node starts from its backbone joint feature; every layer lets a node
attend over its direct children (plus itself), the per-layer outputs are
concatenated into the answer head, and edge representations feed a
same-operator/other-operator triplet loss.

The graphs are small (about 7 nodes), so per-op tape nodes would cost more
than their arithmetic.  Each GAT layer (`gat_layer`), edge projection
(`ad.concat_linear`), the node CE mean (`ad.softmax_cross_entropy_batch`)
and the triplet mean (`ad.triplet_hinge_mean`) is therefore one tape node
that repeats its op chain's numpy work in the same order (the fusion rule
of `autodiff`), and gives the same bits as the chain.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
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


def neighbor_mask(g: QDG) -> np.ndarray:
    """mask[i, j] = 1 where node i may attend node j, in `g.nodes` order:
    its children and itself (self-loop keeps childless nodes alive)."""
    pos = {node.id: i for i, node in enumerate(g.nodes)}
    mask = np.eye(len(pos))
    for e in g.edges:
        mask[pos[e.parent], pos[e.child]] = 1.0
    return mask


def gat_layer(feats: Tensor, mask: np.ndarray, store: ParamStore,
              prefix: str) -> tuple[Tensor, Tensor]:
    """One attention layer over [..., n, h] features and [..., n, n] masks;
    leading axes stack graphs of the same size.  Returns (output, alpha);
    alpha is a constant, since nothing differentiates through it.

    The output is one tape node, bit for bit equal in value and gradients
    to the op chain

        left = matmul(feats, getitem(ws, slice(0, h)))
        right = linear(feats, getitem(ws, slice(h, 2 * h)), ws.b)
        pair = add(reshape(left, (..., n, 1, h)), reshape(right,
                                                         (..., 1, n, h)))
        scores = matmul(leaky_relu(pair), a)
        alpha = mul(softmax(add(scores, MASK_OFF * (1 - mask))), mask)
        output = relu(matmul(alpha, linear(feats, wg.w, wg.b)))

    ([f_i || f_j] @ Ws split into the row blocks of Ws; the mul zeroes the
    masked tail exactly).  Its parents are feats three times (the left
    matmul, the right linear, the wg linear), ws twice (one `RowGrad` per
    row block, as getitem returns them), then ws.b, a, wg.w and wg.b: the
    order in which the chain's walk reaches them.

    Every op works matrix by matrix or row by row over the leading axes,
    so a stacked graph gets the same bits as the same graph alone."""
    n, h = feats.shape[-2:]
    lead = feats.shape[:-2]
    ws, wsb = store.layer(f"{prefix}.ws")
    wg, wgb = store.layer(f"{prefix}.wg")
    a = store[f"{prefix}.a"]
    fd, wsd = feats.data, ws.data
    top, bottom = wsd[0:h], wsd[h:2 * h]
    mask = np.asarray(mask, dtype=np.float64)
    left = fd @ top
    right = ad._linear_data(fd, bottom, wsb.data)
    pair = left.reshape(lead + (n, 1, h)) + right.reshape(lead + (1, n, h))
    slope = np.where(pair > 0, 1.0, 0.01)
    leaky = pair * slope
    masked = leaky @ a.data + MASK_OFF * (1.0 - mask)
    soft = masked - masked.max(axis=-1, keepdims=True)
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=-1, keepdims=True)
    alpha = soft * mask
    transformed = ad._linear_data(fd, wg.data, wgb.data)
    pre = alpha @ transformed
    on = pre > 0

    def backward(g):
        need_f, need_ws = ad._needs_grad(feats), ad._needs_grad(ws)
        g_alpha, g_tr = ad._matmul_grads(g * on, alpha, transformed, True,
                                         True)
        g_f3, g_wg = ad._matmul_grads(g_tr, fd, wg.data, need_f,
                                      ad._needs_grad(wg))
        g_soft = ad._unbroadcast(g_alpha * mask, soft.shape)
        dot = (g_soft * soft).sum(axis=-1, keepdims=True)
        g_scores = ad._unbroadcast(soft * (g_soft - dot),
                                    lead + (n, n))
        g_leaky, g_a = ad._matmul_grads(g_scores, leaky, a.data, True,
                                        ad._needs_grad(a))
        g_pair = g_leaky * slope
        g_left = ad._unbroadcast(g_pair, lead + (n, 1, h)).reshape(
            left.shape)
        g_right = ad._unbroadcast(g_pair, lead + (1, n, h)).reshape(
            right.shape)
        g_f1, g_top = ad._matmul_grads(g_left, fd, top, need_f, need_ws)
        g_f2, g_bottom = ad._matmul_grads(g_right, fd, bottom, need_f,
                                          need_ws)
        if need_ws:
            g_top = ad.RowGrad(slice(0, h), g_top)
            g_bottom = ad.RowGrad(slice(h, 2 * h), g_bottom)
        return (g_f1, g_f2, g_f3, g_top, g_bottom,
                ad._unbroadcast(g_right, wsb.shape)
                if ad._needs_grad(wsb) else None,
                g_a, g_wg,
                ad._unbroadcast(g_tr, wgb.shape)
                if ad._needs_grad(wgb) else None)

    out = ad._make(pre * on, (feats, feats, feats, ws, ws, wsb, a, wg, wgb),
                   backward)
    return out, Tensor(alpha)


def gat_forward(feats: Tensor, mask: np.ndarray, store: ParamStore,
                layers: int) -> tuple[list, list]:
    """All layers over [..., n, h] features and [..., n, n] masks; returns
    ([per-layer [..., n, h] Tensors], alphas)."""
    outputs, alphas = [], []
    for k in range(layers):
        feats, alpha = gat_layer(feats, mask, store, f"ag.l{k}")
        outputs.append(feats)
        alphas.append(alpha)
    return outputs, alphas


def predict_answers(layer_outputs: list, store: ParamStore) -> Tensor:
    """The head on the per-layer features: logits [..., n, vocab]."""
    stacked = ad.concat(layer_outputs, axis=-1)  # [..., n, K*h]
    return ad.linear(stacked, *store.layer("ag.head"))


def edge_representations(graphs_and_features, store: ParamStore):
    """Edge vectors W_e [f^a_parent || f^a_child] + b_e over a batch.

    graphs_and_features: iterable of (QDG, map node id -> f^a Tensor).
    Returns a list of (edge_type, vector Tensor).
    """
    w, b = store.layer("ag.edge")
    return [(e.op, ad.concat_linear([feats[e.parent], feats[e.child]], w,
                                    b))
            for g, feats in graphs_and_features for e in g.edges]


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
    triples = []
    for i, (etype, vec) in enumerate(edge_reprs):
        same, other = pools[etype]
        if len(same) < 2 or not other:
            continue
        # the k-th edge of `same` other than edge i (`same` is ascending)
        k = int(rng.integers(len(same) - 1))
        pos = edge_reprs[same[k] if same[k] < i else same[k + 1]][1]
        neg = edge_reprs[other[int(rng.integers(len(other)))]][1]
        triples.append((vec, pos, neg))
    if not triples:
        return Tensor(0.0)
    return ad.triplet_hinge_mean(triples, margin, len(edge_reprs))


def aggregation_loss(node_logits: Tensor, targets,
                     triplet: Tensor) -> Tensor:
    """Triplet term plus mean answer CE over nodes.

    node_logits: [N, vocab] logits, one row per node; targets: their gold
    vocab ids, in the same order.
    """
    return ad.add(triplet,
                  ad.softmax_cross_entropy_batch(node_logits, targets))
