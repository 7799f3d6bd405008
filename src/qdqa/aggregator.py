"""Graph-attention answer aggregation over a decomposition graph.

Each node starts from its backbone joint feature; every layer lets a node
attend over its direct children (plus itself), the per-layer outputs are
concatenated into the answer head, and edge representations feed a
same-operator/other-operator triplet loss.

The graphs are small (about 7 nodes), so per-op tape nodes would cost more
than their arithmetic.  Each GAT layer (`gat_layer`), the node CE mean
(`ad.softmax_cross_entropy_batch`) and a batch's edge projections with
their triplet mean (`ad.edge_triplet_mean`, over the rows of one
node-logits matrix) is therefore one tape node that repeats its op
chain's numpy work in the same order (the fusion rule of `autodiff`), and
gives the same bits as the chain.
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


def edge_rows(g: QDG) -> np.ndarray:
    """[E, 2] int array: each edge's (parent, child) position in
    `g.nodes`, in `g.edges` order."""
    pos = {node.id: i for i, node in enumerate(g.nodes)}
    return np.array([(pos[e.parent], pos[e.child]) for e in g.edges],
                    dtype=np.int64).reshape(-1, 2)


def neighbor_mask(g: QDG, ends=None) -> np.ndarray:
    """mask[i, j] = 1 where node i may attend node j, in `g.nodes` order:
    its children and itself (self-loop keeps childless nodes alive).
    `ends` is `edge_rows(g)` when the caller has it."""
    ends = edge_rows(g) if ends is None else ends
    mask = np.eye(len(g.nodes))
    mask[ends[:, 0], ends[:, 1]] = 1.0
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


class EdgeRows:
    """A batch's edge vectors W_e [f^a_parent || f^a_child] + b_e, held as
    rows of one node-logits matrix: edge k, of type ops[k], joins rows
    ends[k] = (parent, child) of `logits`.  It is sized and iterates as
    (op, ends row) pairs; `edge_triplet_loss` projects the edges inside
    its one tape node."""

    def __init__(self, ops: list, ends: np.ndarray, logits: Tensor,
                 store: ParamStore):
        self.ops, self.ends, self.logits = ops, ends, logits
        self.w, self.b = store.layer("ag.edge")

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return zip(self.ops, self.ends)


def edge_representations(node_logits: Tensor, graph_ends,
                         store: ParamStore) -> EdgeRows:
    """The edges of a batch of graphs over the rows of node_logits
    [N, vocab], the head features f^a.

    graph_ends: iterable of (QDG, [E_g, 2] int array of its edges'
    (parent, child) rows of node_logits, in `g.edges` order)."""
    ops, ends = [], [np.empty((0, 2), dtype=np.int64)]
    for g, rows in graph_ends:
        ops.extend(e.op for e in g.edges)
        ends.append(rows)
    return EdgeRows(ops, np.concatenate(ends), node_logits, store)


def _sample_triples(ops: list, rng) -> np.ndarray:
    """[T, 3] (anchor, positive, negative) edge indices.  Each edge, in
    order, that has another edge of its type and an edge of another type
    draws a uniform other edge of its type, then a uniform edge of
    another type.  All draws come from one `rng.integers` call over their
    bounds, which draws what one call per bound in that order would."""
    by_type: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        by_type.setdefault(op, []).append(i)
    # per type: (its edges, in index order; the edges of every other type)
    pools = {t: (same, [j for u, idxs in by_type.items() if u != t
                        for j in idxs])
             for t, same in by_type.items()}
    anchors = [i for i, op in enumerate(ops)
               if len(pools[op][0]) > 1 and pools[op][1]]
    if not anchors:
        return np.empty((0, 3), dtype=np.int64)
    draws = rng.integers([(len(pools[ops[i]][0]) - 1, len(pools[ops[i]][1]))
                          for i in anchors]).tolist()
    triples = []
    for i, (k, j) in zip(anchors, draws):
        same, other = pools[ops[i]]
        # the k-th edge of `same` other than edge i (`same` is ascending)
        triples.append((i, same[k] if same[k] < i else same[k + 1],
                        other[j]))
    return np.array(triples, dtype=np.int64)


def edge_triplet_loss(edge_reprs, margin: float, rng) -> Tensor:
    """Hinge loss pulling same-type edges together, pushing other types a
    margin apart.  One sampled positive and negative per edge; edges with
    no valid candidate contribute zero.

    edge_reprs: an `EdgeRows`, whose projections and hinge mean are one
    `ad.edge_triplet_mean` node, or (edge type, vector Tensor) pairs."""
    triples = _sample_triples([op for op, _ in edge_reprs], rng)
    if not len(triples):
        return Tensor(0.0)
    if isinstance(edge_reprs, EdgeRows):
        return ad.edge_triplet_mean(edge_reprs.logits, edge_reprs.ends,
                                    edge_reprs.w, edge_reprs.b, triples,
                                    margin)
    vecs = [v for _, v in edge_reprs]
    return ad.triplet_hinge_mean(
        [tuple(vecs[i] for i in t) for t in triples.tolist()], margin,
        len(vecs))


def aggregation_loss(node_logits: Tensor, targets,
                     triplet: Tensor) -> Tensor:
    """Triplet term plus mean answer CE over nodes.

    node_logits: [N, vocab] logits, one row per node; targets: their gold
    vocab ids, in the same order.
    """
    return ad.add(triplet,
                  ad.softmax_cross_entropy_batch(node_logits, targets))
