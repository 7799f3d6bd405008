"""Dense float64 tensors with reverse-mode gradients.

Small tape-based engine: each op records its parents and a backward closure.
Shapes follow numpy broadcasting; gradients of broadcast operands are summed
back to the operand's shape.  Everything runs at double precision so central
finite differences are a meaningful oracle.

Invariant: `Tensor.backward` visits the tape in reverse DFS post-order from
the loss and adds each incoming gradient to a node's running sum in that
order.  Float addition is not associative, so any other order changes
gradient bits, and through training the bytes of every report.  A backward
closure may return None for a parent that neither requires grad nor has
parents (the walk would discard it), or a `RowGrad` that the walk adds
into the parent's rows only.  The walk sums in place only into an array
it allocated; one that a closure returned may be handed to several
parents (`add`, straight-through, `stack` views), so it is never written.

Fusion rule: a chain of ops may become one tape node only where each
intermediate has a single consumer, so no gradient sum inside the chain is
reordered.  The fused node repeats the chain's numpy operations in the
same order, and lists its parents in the order the chain's nodes reach
them (a parent the chain reaches twice is listed twice); the walk then
adds every gradient in the chain's order, and values and gradients match
bit for bit.  The fused nodes here are `linear`,
`softmax_cross_entropy`, `softmax_cross_entropy_batch`,
`triplet_hinge_mean` and `edge_triplet_mean` (a batch's edge
projections and their triplet hinge mean); `aggregator.gat_layer` is one
more.  `edge_triplet_mean` sums its edges' shares of its parents'
gradients itself, in the order the chain's walk adds them, so it lists
each parent once.

A 2-D weight's gradient in x @ w with N-D x adds one product per leading
index of x in index order, as numpy sums leading axes row by row, and
`_weight_grad` adds them by chunks onto a running sum: the same bits.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

GRAD_CHUNK_BYTES = 1 << 19  # bytes of products `_weight_grad` holds at once


class ShapeError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class RowGrad(NamedTuple):
    """A gradient that is zero outside `parent[idx]`, `idx` a basic index
    (each entry at most once): `acc[idx] += g`, or a new zero array with
    the rows added for a first gradient, gives the dense sum's bits up to
    the sign of an exact zero."""
    idx: object
    g: np.ndarray


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autograd plumbing ------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            raise ShapeError(f"gradient of shape {grad.shape} for a tensor "
                             f"of shape {self.shape}")
        topo = []
        seen = set()
        mark = seen.add
        stack = [(self, False)]
        push, pop = stack.append, stack.pop
        while stack:
            node, processed = pop()
            if processed:
                topo.append(node)
                continue
            if node in seen:
                continue
            mark(node)
            push((node, True))
            for p in node._parents:
                if p not in seen:
                    push((p, False))
        grads = {self: grad}
        owned = set()  # nodes whose running sum the walk allocated
        take, get, own = grads.pop, grads.get, owned.add
        for node in reversed(topo):
            g = take(node, None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None:
                        continue
                    acc = get(parent)
                    if type(pg) is RowGrad:
                        if acc is None:
                            acc = np.zeros(parent.shape)
                        elif (parent not in owned
                              or type(acc) is not np.ndarray):
                            acc = np.array(acc)  # 0-d sums are scalars
                        acc[pg.idx] += pg.g
                    elif acc is None:
                        grads[parent] = pg
                        continue
                    elif parent in owned:
                        acc += pg
                    else:
                        acc = acc + pg
                    grads[parent] = acc
                    own(parent)

    # -- operators --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        return mul(self, power(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t: Tensor) -> bool:
    """Whether the backward walk keeps a gradient for `t`: constant leaves
    (no grad, no parents) get None from the closures instead."""
    return t.requires_grad or bool(t._parents)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    for p in parents:
        if p.requires_grad or p._backward is not None or p._parents:
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


# -- primitives -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if _needs_grad(a) else None,
                _unbroadcast(g, b.shape) if _needs_grad(b) else None)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if _needs_grad(a) else None,
                _unbroadcast(g * a.data, b.shape) if _needs_grad(b) else None)

    return _make(data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    data = a.data ** exponent
    return _make(
        data,
        (a,),
        lambda g: (g * exponent * a.data ** (exponent - 1),),
    )


def _matmul_grads(g, ad: np.ndarray, bd: np.ndarray, need_a: bool,
                  need_b: bool):
    """Gradients of arrays `ad @ bd` given the output gradient g; None for
    an operand whose flag is False."""
    ga = gb = None
    if ad.ndim == 1 and bd.ndim == 1:
        if need_a:
            ga = g * bd
        if need_b:
            gb = g * ad
    elif ad.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n)
        if need_a:
            ga = _unbroadcast((g[..., None, :] * bd).sum(axis=-1), ad.shape)
        if need_b:
            gb = _unbroadcast(ad[..., :, None] * g[..., None, :], bd.shape)
    elif bd.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        if need_a:
            ga = _unbroadcast(g[..., :, None] * bd, ad.shape)
        if need_b:
            gb = _unbroadcast((g[..., :, None] * ad).sum(axis=-2), bd.shape)
    else:
        if need_a:
            ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        if need_b and ad.ndim > 2 and bd.ndim == 2 and ad.size:
            gb = _weight_grad(ad.swapaxes(-1, -2), g)
        elif need_b:
            gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
    return ga, gb


def _weight_grad(at: np.ndarray, g: np.ndarray) -> np.ndarray:
    """_unbroadcast(at @ g, (k, n)) bit for bit, by chunks of axis 0."""
    (k, m), n = at.shape[-2:], g.shape[-1]
    inner = at.size // (len(at) * k * m)  # products per index of axis 0
    step = min(len(at), max(1, GRAD_CHUNK_BYTES // (8 * inner * k * n or 1)))
    buf = np.empty((1 + step * inner, k, n))
    buf[0] = -0.0  # the running sum; -0.0 + y is y
    out = buf[1:].reshape((step,) + at.shape[1:-1] + (n,))
    for i in range(0, len(at), step):
        a = at[i:i + step]  # a slice: a stride-0 view is never copied
        np.matmul(a, g[i:i + step], out=out[:len(a)])
        buf[0] = acc = buf[:1 + inner * len(a)].sum(axis=0)
    return acc


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul requires at least 1-d operands")
    data = a.data @ b.data
    return _make(data, (a, b), lambda g: _matmul_grads(
        g, a.data, b.data, _needs_grad(a), _needs_grad(b)))


def _linear_data(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray):
    """The value of `linear` on arrays: xd @ wd + bd.

    Leading axes of xd with stride 0 (an x made by `broadcast_to`) are
    projected once and broadcast back as a view; gemm runs matrix by
    matrix over leading axes, so each copy would get the same bits."""
    lead = xd.ndim - 2
    if lead > 0 and wd.ndim == 2 and bd.ndim <= 1 and 0 in xd.strides[:lead]:
        distinct = tuple(slice(0, 1) if s == 0 else slice(None)
                         for s in xd.strides[:lead])
        y = xd[distinct] @ wd
        y += bd
        return np.broadcast_to(y, xd.shape[:-1] + y.shape[-1:])
    data = xd @ wd
    data += bd
    return data


def linear(x, w, b) -> Tensor:
    """x @ w + b as one tape node, bit for bit equal to
    add(matmul(x, w), b) in value and gradients."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim == 0 or w.ndim == 0:
        raise ShapeError("linear requires at least 1-d x and w")

    def backward(g):
        gx, gw = _matmul_grads(g, x.data, w.data, _needs_grad(x),
                               _needs_grad(w))
        return gx, gw, _unbroadcast(g, b.shape) if _needs_grad(b) else None

    return _make(_linear_data(x.data, w.data, b.data), (x, w, b), backward)


def broadcast_to(a, shape) -> Tensor:
    """Read-only numpy broadcast view: no copy in the forward pass."""
    a = _as_tensor(a)
    data = np.broadcast_to(a.data, shape)
    return _make(data, (a,), lambda g: (_unbroadcast(g, a.shape),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    return _make(data, (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a, ax1, ax2) -> Tensor:
    a = _as_tensor(a)
    data = np.swapaxes(a.data, ax1, ax2)
    return _make(data, (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def _is_basic(k) -> bool:
    return (isinstance(k, (int, np.integer, slice))
            and not isinstance(k, bool))


def getitem(a, idx) -> Tensor:
    a = _as_tensor(a)
    data = a.data[idx]

    def backward(g):
        if _is_basic(idx) or (isinstance(idx, tuple)
                              and all(map(_is_basic, idx))):
            return (RowGrad(idx, g),)
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _make(data, (a,), backward)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    cuts, end = [], 0
    for t in tensors:
        start, end = end, end + t.data.shape[axis]
        cuts.append(lead + (slice(start, end),))

    def backward(g):
        return tuple(g[cut] for cut in cuts)

    return _make(data, tuple(tensors), backward)


def stack(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)

    def backward(g):
        return tuple(g[lead + (i,)] for i in range(len(tensors)))

    return _make(data, tuple(tensors), backward)


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), backward)


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else int(np.prod(np.take(a.shape, axis)))
    return mul(reduce_sum(a, axis, keepdims), 1.0 / n)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)
    return _make(data, (a,), lambda g: (g / a.data,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def leaky_relu(a, slope=0.01) -> Tensor:
    a = _as_tensor(a)
    mask = np.where(a.data > 0, 1.0, slope)
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _make(data, (a,), lambda g: (g * data * (1.0 - data),))


def softmax(a, axis=-1) -> Tensor:
    a = _as_tensor(a)
    # in place on the one array this op allocates: same bits, less memory
    data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (a,), backward)


def _log_softmax(x: np.ndarray, axis):
    """(log softmax, softmax) of array x over axis."""
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    return data, np.exp(data)


def log_softmax(a, axis=-1) -> Tensor:
    a = _as_tensor(a)
    data, sm = _log_softmax(a.data, axis)

    def backward(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _make(data, (a,), backward)


def layer_norm(a, eps=1e-6) -> Tensor:
    """Normalize over the last axis (no affine parameters)."""
    a = _as_tensor(a)
    data = a.data - a.data.mean(axis=-1, keepdims=True)
    var = (data ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    data *= inv  # in place on the array this op allocated
    n = a.data.shape[-1]

    def backward(g):
        gx = g * inv
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * data).mean(axis=-1, keepdims=True)
        return (gx - m1 - data * m2,)

    return _make(data, (a,), backward)


def euclidean_distance(a, b, eps=1e-12) -> Tensor:
    """d(a, b) = sqrt(sum((a - b)^2) + eps); grad is 0 at coincident points."""
    a, b = _as_tensor(a), _as_tensor(b)
    diff = a.data - b.data
    data = np.sqrt((diff ** 2).sum() + eps)

    def backward(g):
        ga = g * diff / data
        return _unbroadcast(ga, a.shape), _unbroadcast(-ga, b.shape)

    return _make(data, (a, b), backward)


def _triplet_hinge(anchors, positives, negatives, margin: float,
                   count: int):
    """The value of the hinge mean over the rows of [T, d] arrays, and a
    function from its gradient g to the [T, d] anchor gradients of the
    positive and of the negative distance: the arithmetic of
    `triplet_hinge_mean`."""
    diff1 = anchors - positives
    d1 = np.sqrt((diff1 ** 2).sum(axis=-1) + 1e-12)
    diff2 = anchors - negatives
    d2 = np.sqrt((diff2 ** 2).sum(axis=-1) + 1e-12)
    gap = d1 + d2 * -1.0 + margin
    mask = gap > 0
    scale = 1.0 / count

    def grads(g):
        g = (g * scale) * mask
        return (g[:, None] * diff1 / d1[:, None],
                g[:, None] * -1.0 * diff2 / d2[:, None])

    return (gap * mask).sum() * scale, grads


def triplet_hinge_mean(triples, margin: float, count: int) -> Tensor:
    """Sum over (a, pos, neg) triples of relu(d(a, pos) - d(a, neg) +
    margin), times 1.0 / count, as one tape node.

    Bit for bit equal in value and gradients to the chain
    mul(reduce_sum(stack(hinges)), 1.0 / count), each hinge being
    relu(add(add(d(a, pos), mul(d(a, neg), -1.0)), margin)) of
    `euclidean_distance` (at its default eps).  Its parents are (a, pos, a, neg) per triple, in
    triple order: the order in which the chain's distances reach them.
    The vectors of all triples share one shape; a distance sums over all
    of a vector's entries."""
    triples = [tuple(map(_as_tensor, t)) for t in triples]
    shape = triples[0][0].shape
    value, grads = _triplet_hinge(*(
        np.stack([t[k].data for t in triples]).reshape(len(triples), -1)
        for k in range(3)), margin, count)

    def backward(g):
        ga1, ga2 = (x.reshape((-1,) + shape) for x in grads(g))
        return [x for row in zip(ga1, -ga1, ga2, -ga2) for x in row]

    parents = [t for a, pos, neg in triples for t in (a, pos, a, neg)]
    return _make(value, parents, backward)


def edge_triplet_mean(x, ends, w, b, triples, margin: float) -> Tensor:
    """`triplet_hinge_mean` over edge vectors, as one tape node with
    parents (x, w, b).

    Edge k's vector is linear(concat([x[p], x[c]]), w, b) for (p, c) =
    ends[k] ([E, 2] rows of the [N, d] x); triples is [T, 3] (anchor,
    positive, negative) edge indices, and the mean divides by E.

    Bit for bit equal in value and gradients to that chain, with one
    `getitem(x, i)` per row read, where w and b feed nothing else and
    this is the first gradient x gets.  The chain's walk reaches the edge
    projections in the order of their last place in the hinge mean's
    parents (a, pos, a, neg per triple); so each edge vector sums its
    gradients in parent order, and the rows of x and w and b sum the
    edges' shares in that edge order.  An edge in no triple gets no
    gradient."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    xd = x.data[ends].reshape(len(ends), -1)  # [E, 2d]: x[p] || x[c]
    # one [1, 2d] @ [2d, h] product per edge: the bits of the chain's 1-d
    # product, which one [E, 2d] gemm does not give
    vecs = (xd[:, None, :] @ w.data)[:, 0]
    vecs += b.data
    value, grads = _triplet_hinge(vecs[triples[:, 0]], vecs[triples[:, 1]],
                                  vecs[triples[:, 2]], margin, len(ends))
    reads = triples[:, [0, 1, 0, 2]].ravel()  # the hinge mean's parents
    last = np.full(len(ends), -1)
    np.maximum.at(last, reads, np.arange(len(reads)))
    used = np.flatnonzero(last >= 0)
    order = used[np.argsort(last[used])]  # the chain's walk of the edges

    def backward(g):
        ga1, ga2 = grads(g)
        # -0.0 + y is y, zero signs included: a first addend keeps its bits
        g_vecs = np.full(vecs.shape, -0.0)
        np.add.at(g_vecs, reads, np.stack([ga1, -ga1, ga2, -ga2],
                                          axis=1).reshape(len(reads), -1))
        g_vecs = g_vecs[order]
        g_x = g_w = g_b = None
        if _needs_grad(x):
            # per edge (g[None, :] * w).sum(-1): the 1-d product's gradient
            g_rows = (g_vecs[:, None, :] * w.data).sum(axis=-1)
            g_x = np.zeros(x.shape)
            np.add.at(g_x, ends[order].ravel(),
                      g_rows.reshape(2 * len(order), -1))
        if _needs_grad(w):
            g_w = np.cumsum(xd[order][:, :, None] * g_vecs[:, None, :],
                            axis=0)[-1]
        if _needs_grad(b):
            g_b = np.cumsum(g_vecs, axis=0)[-1]
        return g_x, g_w, g_b

    return _make(value, (x, w, b), backward)


def embedding_lookup(table, indices) -> Tensor:
    """Row lookup into a [vocab, h] table; indices is an int array."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def backward(g):
        out = np.zeros_like(table.data)
        np.add.at(out, idx, g)
        return (out,)

    return _make(data, (table,), backward)


def softmax_cross_entropy(logits, target: int) -> Tensor:
    """-log softmax(logits)[target] for a 1-d logits vector, as one tape
    node bit for bit equal to mul(log_softmax(logits)[target], -1.0)."""
    logits = _as_tensor(logits)
    k = logits.data.shape[-1]
    if not 0 <= target < k:
        raise IndexError(f"target {target} out of range for {k} classes")
    lp, sm = _log_softmax(logits.data, -1)

    def backward(g):
        out = np.zeros_like(lp)
        out[target] += g * -1.0
        return (out - sm * out.sum(axis=-1, keepdims=True),)

    return _make(lp[target] * -1.0, (logits,), backward)


def softmax_cross_entropy_batch(logits, targets) -> Tensor:
    """Mean CE over the rows of [n, k] logits, as one tape node bit for bit
    equal in value and gradients to mul(reduce_sum(getitem(log_softmax(
    logits), (arange(n), targets))), -1.0 / n)."""
    logits = _as_tensor(logits)
    n, k = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"{n} logits rows, targets {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise IndexError(f"a target is out of range for {k} classes")
    lp, sm = _log_softmax(logits.data, -1)
    picked = (np.arange(n), targets)
    scale = -1.0 / n

    def backward(g):
        out = np.zeros_like(lp)
        out[picked] += g * scale  # each row once: equals np.add.at
        return (out - sm * out.sum(axis=-1, keepdims=True),)

    return _make(lp[picked].sum() * scale, (logits,), backward)


def gumbel_noise(rng, shape) -> np.ndarray:
    """Standard Gumbel(0,1) draws of `shape` from `rng`, the one place the
    model draws them.  A generator fills its draws in order, so one draw
    equals the draws of consecutive leading-axis blocks concatenated."""
    u = rng.uniform(low=np.finfo(float).tiny, high=1.0, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax(logits, temperature=1.0, hard=False, *, noise) -> Tensor:
    """Gumbel-softmax over the last axis, optionally straight-through hard.

    `noise` is added to the logits: `gumbel_noise` draws, or zeros for a
    deterministic pass.  It is required, so no sample is ever drawn from
    an unseeded generator.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = _as_tensor(logits)
    noisy = add(logits, np.asarray(noise, dtype=np.float64))
    soft = softmax(mul(noisy, 1.0 / temperature), axis=-1)
    if not hard:
        return soft
    onehot = np.zeros_like(soft.data)
    np.put_along_axis(
        onehot, soft.data.argmax(axis=-1, keepdims=True), 1.0, axis=-1
    )
    # Straight-through: forward one-hot, backward through the soft sample.
    delta = onehot - soft.data
    return _make(soft.data + delta, (soft,), lambda g: (g,))


# -- parameters and optimization ------------------------------------------


class ParamStore:
    """Named trainable tensors with seeded deterministic initialization."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, shape, init="uniform") -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        shape = tuple(shape)
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "uniform":
            fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
            bound = 1.0 / np.sqrt(fan_in)
            data = self._rng.uniform(-bound, bound, size=shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def linear(self, name: str, in_dim: int, out_dim: int):
        """Weight [in, out] + zero bias [out]."""
        w = self.add(f"{name}.w", (in_dim, out_dim))
        b = self.add(f"{name}.b", (out_dim,), init="zeros")
        return w, b

    def layer(self, name: str) -> tuple[Tensor, Tensor]:
        """The (weight, bias) pair that `linear(name, ...)` created."""
        return self.params[f"{name}.w"], self.params[f"{name}.b"]

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def frozen(self) -> "ParamStore":
        """View on the same arrays whose tensors do not require grad, so a
        forward pass over it records no tape and frees each intermediate
        as soon as its consumer returns."""
        view = ParamStore(self.seed)
        view.params = {n: Tensor(t.data) for n, t in self.params.items()}
        return view

    # Checkpoints: flat little-endian f64 blob + JSON manifest of the
    # tensors' shapes and offsets and the blob's sha256.

    def save(self, path):
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        manifest = []
        offset = 0
        digest = hashlib.sha256()
        with open(path / "params.bin", "wb") as fh:
            for name in sorted(self.params):
                t = self.params[name]
                blob = t.data.astype("<f8").tobytes()
                fh.write(blob)
                digest.update(blob)
                manifest.append(
                    {"name": name, "shape": list(t.shape), "offset": offset}
                )
                offset += len(blob)
        meta = {"seed": self.seed, "sha256": digest.hexdigest(),
                "tensors": manifest}
        (path / "manifest.json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def load(cls, path) -> "ParamStore":
        path = Path(path)
        meta = json.loads((path / "manifest.json").read_text())
        blob = (path / "params.bin").read_bytes()
        need = max((e["offset"] + 8 * int(np.prod(e["shape"]))
                    for e in meta["tensors"]), default=0)
        if len(blob) != need:
            raise ShapeError(
                f"{path / 'params.bin'} holds {len(blob)} bytes, but its "
                f"manifest describes {need}")
        # manifests written before the checksum was recorded carry none
        want = meta.get("sha256")
        if want is not None and hashlib.sha256(blob).hexdigest() != want:
            raise ValueError(
                f"{path / 'params.bin'} does not match the sha256 its "
                f"manifest records")
        store = cls(seed=meta["seed"])
        for entry in meta["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(
                blob, dtype="<f8", count=count, offset=entry["offset"]
            ).reshape(shape)
            store.params[entry["name"]] = Tensor(
                data.copy(), requires_grad=True
            )
        return store


class Adam:
    def __init__(self, store: ParamStore, lr=1e-3, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {n: np.zeros(p.shape) for n, p in store.params.items()}
        self._v = {n: np.zeros(p.shape) for n, p in store.params.items()}

    def step(self):
        """p.data - lr * m_hat / (sqrt(v_hat) + eps) with m and v updated
        in place: the out-of-place formula's operations in its order, so
        its bits.  p.data is rebound to a new array, never written."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.store.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape mismatch for {name}")
            m, v = self._m[name], self._v[name]
            s = (1 - b1) * g  # one scratch array
            m *= b1
            m += s
            np.multiply(np.square(g, out=s), 1 - b2, out=s)
            v *= b2
            v += s
            np.sqrt(np.divide(v, 1 - b2 ** self.t, out=s), out=s)
            s += self.eps
            step = m / (1 - b1 ** self.t)
            step *= self.lr
            p.data = p.data - np.divide(step, s, out=step)


# -- verification ----------------------------------------------------------


def grad_check(fn, inputs: list[Tensor], epsilon: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central differences.

    `fn(inputs)` must return a scalar Tensor built from the given inputs.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = fn(inputs)
    if not np.isfinite(out.data).all():
        raise NonFiniteError("function returned non-finite value")
    out.backward()
    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros(t.shape)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = fn(inputs).item()
            flat[i] = orig - epsilon
            f_minus = fn(inputs).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * epsilon)
            a = analytic.reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


# -- transformer encoder layer --------------------------------------------


def init_transformer_params(store: ParamStore, prefix: str, h: int,
                            heads: int = 4):
    if h % heads != 0:
        raise ShapeError(f"hidden size {h} not divisible by {heads} heads")
    for name in ("wq", "wk", "wv", "wo"):
        store.linear(f"{prefix}.{name}", h, h)
    store.linear(f"{prefix}.ff1", h, 4 * h)
    store.linear(f"{prefix}.ff2", 4 * h, h)


def transformer_encoder_layer(query, key, value, store: ParamStore,
                              prefix: str, heads: int = 4) -> Tensor:
    """Post-norm multi-head cross-attention block.

    query [..., n, h] attends over key/value [..., m, h]; output matches the
    query shape.  Leading batch axes broadcast through.
    """
    query, key, value = map(_as_tensor, (query, key, value))
    h = query.shape[-1]
    if key.shape[-1] != h or value.shape[-1] != h:
        raise ShapeError("query/key/value widths differ")
    if key.shape[-2] != value.shape[-2]:
        raise ShapeError("key/value row counts differ")
    if h % heads != 0:
        raise ShapeError(f"hidden size {h} not divisible by {heads} heads")
    hd = h // heads

    def lin(x, name):
        return linear(x, *store.layer(f"{prefix}.{name}"))

    def split_heads(x):
        # [..., t, h] -> [..., heads, t, hd]
        return swapaxes(reshape(x, x.shape[:-1] + (heads, hd)), -2, -3)

    q = split_heads(lin(query, "wq"))
    k = split_heads(lin(key, "wk"))
    v = split_heads(lin(value, "wv"))
    scores = mul(matmul(q, swapaxes(k, -1, -2)), 1.0 / np.sqrt(hd))
    att = softmax(scores, axis=-1)
    ctx = swapaxes(matmul(att, v), -2, -3)  # [..., n, heads, hd]
    ctx = reshape(ctx, ctx.shape[:-2] + (h,))
    attended = layer_norm(add(query, lin(ctx, "wo")))
    ff = lin(relu(lin(attended, "ff1")), "ff2")
    return layer_norm(add(attended, ff))
