"""Finite-difference verification suite over every composite operation.

Each check builds a small random instance, wraps the composite in a scalar
functional, and compares reverse-mode gradients against central
differences.  Used by the command line and by the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import aggregator, aligner, autodiff as ad
from .autodiff import ParamStore, Tensor
from .qdg import from_dict
from .synth import SyntheticConfig, generate_clusters
from .train import RunConfig, forward_losses, init_params, pack_split

TOLERANCE = 1e-4


def _pick(store: ParamStore, names, k, rng):
    names = sorted(n for n in names if n in store)
    idx = rng.choice(len(names), size=min(k, len(names)), replace=False)
    return [names[int(i)] for i in sorted(idx)]


def check_transformer(seed: int) -> float:
    rng = np.random.default_rng([seed, 1])
    h, heads, t, s = 8, 2, 3, 4
    store = ParamStore(seed=seed)
    ad.init_transformer_params(store, "tf", h, heads)
    q = Tensor(rng.normal(size=(t, h)), requires_grad=True)
    kv = Tensor(rng.normal(size=(s, h)), requires_grad=True)
    w = rng.normal(size=(t, h))
    params = [store["tf.wq.w"], store["tf.ff1.w"]]

    def fn(inputs):
        qt, kvt = inputs[0], inputs[1]
        out = ad.transformer_encoder_layer(qt, kvt, kvt, store, "tf", heads)
        return ad.reduce_sum(ad.mul(out, Tensor(w)))

    return ad.grad_check(fn, [q, kv] + params)


def check_plumbing(seed: int) -> float:
    """The backward shortcuts: getitem on basic and fancy (repeated)
    indices, stack and concat at a non-zero and a negative axis, and add,
    mul and matmul with one constant operand."""
    rng = np.random.default_rng([seed, 9])
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 4)))  # constant: never an input
    rows = np.array([0, 2, 2])
    weights = [Tensor(rng.normal(size=shape)) for shape in
               ((4, 3), (3, 4, 2), (3, 8), (3, 8), (2, 2))]

    def fn(inputs):
        x, y = inputs
        pieces = [
            ad.stack([x[1], x[-1], ad.getitem(y, (0, slice(None)))], axis=1),
            ad.stack([x[rows], ad.getitem(y, slice(0, 3))], axis=-1),
            ad.concat([x, ad.mul(y, c[0])], axis=1),
            ad.concat([ad.add(c[1:], x), ad.matmul(y, c)], axis=-1),
            ad.matmul(c[:2, :3], ad.getitem(y, (slice(None), slice(1, 3)))),
        ]
        return ad.reduce_sum(ad.stack(
            [ad.reduce_sum(ad.mul(p, w)) for p, w in zip(pieces, weights)]
        ))

    return ad.grad_check(fn, [a, b])


def check_linear(seed: int) -> float:
    """linear on 1-d, 2-d and 5-d inputs and on a zero-stride broadcast
    input, and broadcast_to over leading and inner size-1 axes."""
    rng = np.random.default_rng([seed, 10])
    shapes = [(3, 2), (2,), (3,), (4, 3), (2, 2, 1, 2, 3), (2, 1, 1, 2, 3),
              (3, 1, 2)]
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    wide, spread = (2, 3, 2, 2, 3), (2, 3, 4, 2)
    readouts = [Tensor(rng.normal(size=s)) for s in
                ((2,), (4, 2), (2, 2, 1, 2, 2), (2, 3, 2, 2, 2), spread)]

    def fn(inputs):
        w, b, x1, x2, x5, base, c = inputs
        pieces = [ad.linear(x, w, b) for x in
                  (x1, x2, x5, ad.broadcast_to(base, wide))]
        pieces.append(ad.broadcast_to(c, spread))
        return ad.reduce_sum(ad.stack(
            [ad.reduce_sum(ad.mul(p, r)) for p, r in zip(pieces, readouts)]
        ))

    return ad.grad_check(fn, inputs)


def check_ce(seed: int) -> float:
    """softmax_cross_entropy_batch over rows that hit every target."""
    rng = np.random.default_rng([seed, 12])
    k = 5
    logits = Tensor(rng.normal(size=(2 * k, k)) * 2.0)
    targets = rng.permutation(np.tile(np.arange(k), 2))
    return ad.grad_check(
        lambda inputs: ad.softmax_cross_entropy_batch(inputs[0], targets),
        [logits])


def check_hierarchy(seed: int) -> float:
    """Object and frame aggregation stages end to end."""
    rng = np.random.default_rng([seed, 2])
    h, heads = 8, 2
    n_c, n_f, n_o, n_q = 2, 2, 2, 3
    store = ParamStore(seed=seed)
    aligner.init_aligner_params(store, h, heads)
    f_o = Tensor(rng.normal(size=(n_c, n_f, n_o, h)), requires_grad=True)
    f_a = Tensor(rng.normal(size=(n_c, n_f, h)), requires_grad=True)
    f_m = Tensor(rng.normal(size=(n_c, h)), requires_grad=True)
    f_q = Tensor(rng.normal(size=(n_q, h)), requires_grad=True)
    w = rng.normal(size=(n_c, 2 * h))

    def fn(inputs):
        fo, fa, fm, fq = inputs
        obj = aligner.aggregate_objects(fo, fa, fq, store, heads)
        out = aligner.aggregate_frames(obj, fm, fq, store, heads)
        return ad.reduce_sum(ad.mul(out, Tensor(w)))

    return ad.grad_check(fn, [f_o, f_a, f_m, f_q])


def check_contrastive(seed: int) -> float:
    """The question-anchor alignment loss over a soft indicator."""
    rng = np.random.default_rng([seed, 3])
    h, b, n_c, n_q = 4, 2, 3, 2
    store = ParamStore(seed=seed)
    aligner.init_aligner_params(store, h, heads=2)
    f_q = Tensor(rng.normal(size=(b, n_q, h)))
    clips = Tensor(rng.normal(size=(b, n_c, h)))
    ind = Tensor(rng.uniform(size=(b, n_c, 2)))

    def fn(inputs):
        fq, cl, ind_t = inputs[:3]
        w_rel = ad.getitem(ind_t, (slice(None), slice(None), 0))
        return aligner.anchor_contrastive(fq, cl, ind_t, w_rel, store)

    return ad.grad_check(fn, [f_q, clips, ind, store["al.q_anchor.w"]])


def _toy_graph():
    return from_dict({
        "graph_id": "gc01", "video_id": "v01",
        "edge_types": ["Conjunction", "Equals"],
        "nodes": [
            {"id": "a", "text": "a", "kind": "binary", "role": "main",
             "answer": "yes"},
            {"id": "b", "text": "b", "kind": "binary", "role": "leaf",
             "answer": "yes"},
            {"id": "c", "text": "c", "kind": "open", "role": "leaf",
             "answer": "red"},
        ],
        "edges": [
            {"parent": "a", "child": "b", "op": "Conjunction"},
            {"parent": "a", "child": "c", "op": "Equals"},
        ],
    })


def check_gat_head(seed: int) -> float:
    """The aggregator core and head on one graph: one head row read out."""
    rng = np.random.default_rng([seed, 4])
    h, layers, vocab = 6, 2, 5
    store = ParamStore(seed=seed)
    aggregator.init_aggregator_params(store, h, layers, vocab)
    mask = aggregator.neighbor_mask(_toy_graph())
    feats = Tensor(rng.normal(size=(3, h)), requires_grad=True)
    w = rng.normal(size=vocab)

    def fn(inputs):
        outputs, _ = aggregator.gat_forward(inputs[0], mask, store, layers)
        logits = aggregator.predict_answers(outputs, store)
        return ad.reduce_sum(ad.mul(logits[0], Tensor(w)))

    return ad.grad_check(fn, [feats])


def check_gat_stacked(seed: int) -> float:
    """The aggregator core and head on B = 2 stacked graphs of the same
    size with different neighbour masks.

    The left (f_i) block of `ws` gets an exactly zero gradient column
    wherever a row's pair scores all sit on one side of the leaky-relu
    kink, since softmax ignores a per-row shift; elementwise differences
    there measure only rounding noise.  So `ws` is checked along random
    directions, the features and the head weight also element by
    element."""
    rng = np.random.default_rng([seed, 11])
    h, layers, vocab = 6, 2, 5
    store = ParamStore(seed=seed)
    aggregator.init_aggregator_params(store, h, layers, vocab)
    chain = np.eye(3)
    chain[0, 1] = chain[1, 2] = 1.0  # a -> b -> c
    mask = np.stack([aggregator.neighbor_mask(_toy_graph()),
                     chain])
    feats = Tensor(rng.normal(size=(2, 3, h)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, vocab)))

    def fn(*_):
        outputs = aggregator.gat_forward(feats, mask, store, layers)[0]
        return ad.reduce_sum(ad.mul(
            aggregator.predict_answers(outputs, store), w))

    head = store["ag.head.w"]
    return max(ad.grad_check(fn, [feats, head]),
               _directional_check(fn, [feats, store["ag.l0.ws.w"], head],
                                  rng))


def check_edge_triplet(seed: int) -> float:
    """edge_representations and edge_triplet_loss on a batch of two
    graphs: one edge_triplet_mean node projecting the edges from head
    rows that several edges share, and the hinge mean of its triples."""
    rng = np.random.default_rng([seed, 13])
    vocab, h = 5, 4
    store = ParamStore(seed=seed)
    aggregator.init_aggregator_params(store, h, 1, vocab)
    g = _toy_graph()
    graph_ends = [(g, aggregator.edge_rows(g) + start) for start in (0, 3)]
    rows = Tensor(rng.normal(size=(6, vocab)), requires_grad=True)

    def fn(inputs):
        reprs = aggregator.edge_representations(inputs[0], graph_ends,
                                                store)
        return aggregator.edge_triplet_loss(
            reprs, margin=2.0, rng=np.random.default_rng([seed, 6]))

    return ad.grad_check(fn, [rows, *store.layer("ag.edge")])


def check_ce_mean(seed: int) -> float:
    """aggregation_loss's CE mean over stacked logits rows of one matrix,
    some read more than once, plus a triplet term."""
    rng = np.random.default_rng([seed, 14])
    k = 5
    logits = Tensor(rng.normal(size=(4, k)) * 2.0)
    triplet = Tensor(rng.normal())
    rows = [2, 0, 2, 3, 1, 2]
    targets = rng.integers(k, size=len(rows))

    def fn(inputs):
        x, t = inputs
        return aggregator.aggregation_loss(ad.stack([x[i] for i in rows]),
                                           targets, t)

    return ad.grad_check(fn, [logits, triplet])


def check_triplet(seed: int) -> float:
    """edge_triplet_loss: one triplet_hinge_mean node over the sampled
    triples."""
    rng = np.random.default_rng([seed, 5])
    reprs = [(t, Tensor(rng.normal(size=4), requires_grad=True))
             for t in ("Conjunction", "Conjunction", "Equals", "Equals")]
    tensors = [v for _, v in reprs]

    def fn(vs):
        paired = [(t, v) for (t, _), v in zip(reprs, vs)]
        return aggregator.edge_triplet_loss(
            paired, margin=1.0, rng=np.random.default_rng([seed, 6])
        )

    return ad.grad_check(fn, tensors)


def _directional_check(fn, tensors, rng, directions: int = 5,
                       epsilon: float = 1e-5) -> float:
    """Compare <grad, v> against central differences along random unit
    directions v.

    Elementwise checks break down when a single coordinate's gradient is
    tiny relative to the loss (cancellation noise dominates); the
    directional derivative stays at the typical gradient scale.
    """
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros(t.shape)
             for t in tensors]
    worst = 0.0
    for _ in range(directions):
        vs = [rng.normal(size=t.shape) for t in tensors]
        norm = np.sqrt(sum(float((v * v).sum()) for v in vs))
        vs = [v / norm for v in vs]
        analytic = sum(float((g * v).sum()) for g, v in zip(grads, vs))
        saved = [t.data.copy() for t in tensors]
        for t, v in zip(tensors, vs):
            t.data = t.data + epsilon * v
        f_plus = fn().data.item()
        for t, s, v in zip(tensors, saved, vs):
            t.data = s - epsilon * v
        f_minus = fn().data.item()
        for t, s in zip(tensors, saved):
            t.data = s
        numeric = (f_plus - f_minus) / (2 * epsilon)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def check_total_losses(seed: int) -> float:
    """The full gated training objective, soft-relaxed for smoothness.

    The straight-through indicator is piecewise constant in the forward
    pass, so the check swaps in the soft sample (identical backward path).
    """
    config = RunConfig(
        synthetic=SyntheticConfig(clusters=2, n_c=3, n_f=2, n_o=2, h_v=8,
                                  h_q=8, n_q=2, seed=seed),
        h=8, heads=2, layers=2, seed=seed, steps=1,
    )
    pack = pack_split(generate_clusters(config.synthetic, range(2)),
                      config.synthetic.vocab_index)
    store = init_params(config)
    rng = np.random.default_rng([seed, 7])
    noise = np.zeros((pack.n_nodes, config.synthetic.n_c, 2))
    # a soft sample never leaves a row without relevant or irrelevant
    # mass, so no row is patched and the relevance scores are smooth too
    names = _pick(
        store,
        ["al.proj_m.w", "al.mlp_rel.2.w", "al.q_anchor.w", "bb.l1.w",
         "al.head.w", "ag.head.w", "ag.l0.ws.w", "ag.edge.w"],
        4, rng,
    )
    params = [store[n] for n in names]

    hard_gumbel = ad.gumbel_softmax

    def soft_gumbel(logits, temperature=1.0, hard=False, *, noise):
        return hard_gumbel(logits, temperature=temperature, hard=False,
                           noise=noise)

    def fn():
        ad.gumbel_softmax = soft_gumbel
        try:
            _, total = forward_losses(
                pack, [0, 1], store, config,
                rng=np.random.default_rng([seed, 8]), noise=noise,
            )
        finally:
            ad.gumbel_softmax = hard_gumbel
        return total

    return _directional_check(fn, params, rng)


SUITES = {
    "autodiff": (("transformer", check_transformer),
                 ("plumbing", check_plumbing),
                 ("linear", check_linear),
                 ("ce", check_ce)),
    "aligner": (("hierarchy", check_hierarchy),
                ("contrastive", check_contrastive)),
    "aggregator": (("gat_head", check_gat_head),
                   ("gat_stacked", check_gat_stacked),
                   ("edge_triplet", check_edge_triplet),
                   ("ce_mean", check_ce_mean),
                   ("triplet", check_triplet)),
    "train": (("total_losses", check_total_losses),),
}


def run_suite(module: str = "all", instances: int = 3) -> dict:
    """Max finite-difference error per composite, over several seeds."""
    if module == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif module in SUITES:
        checks = list(SUITES[module])
    else:
        raise ValueError(f"unknown module {module!r}")
    results = {}
    for name, check in checks:
        results[name] = max(check(seed) for seed in range(instances))
    return results
