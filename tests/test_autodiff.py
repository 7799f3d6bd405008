import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdqa import autodiff as ad
from qdqa.autodiff import Tensor


RNG = np.random.default_rng(0)


def rand_tensor(*shape, scale=1.0):
    return Tensor(RNG.normal(size=shape) * scale, requires_grad=True)


class TestGradCheckHarness:
    def test_linear_function_exact(self):
        x = rand_tensor(5)
        err = ad.grad_check(lambda ts: ts[0].sum(), [x])
        # both sides are 1 up to float cancellation in (f+ - f-)
        assert err < 1e-9

    def test_quadratic(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        err = ad.grad_check(lambda ts: (ts[0] * ts[0]).sum(), [x])
        assert err < 1e-9

    def test_non_finite_raises(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ad.NonFiniteError):
            ad.grad_check(lambda ts: ad.log(ts[0] - 2.0).sum(), [x])


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestPrimitiveGradients:
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = ad.grad_check(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])
        assert err < 1e-6

    def test_batched_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        err = ad.grad_check(
            lambda ts: ((ts[0] @ ts[1]) * (ts[0] @ ts[1])).sum(), [a, b]
        )
        assert err < 1e-6

    def test_softmax(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(3, 4)),
                   requires_grad=True)
        w = np.random.default_rng(seed + 100).normal(size=(3, 4))
        err = ad.grad_check(
            lambda ts: (ad.softmax(ts[0], axis=-1) * w).sum(), [x]
        )
        assert err < 1e-6

    def test_layer_norm(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(2, 6)),
                   requires_grad=True)
        w = np.random.default_rng(seed + 100).normal(size=(2, 6))
        err = ad.grad_check(lambda ts: (ad.layer_norm(ts[0]) * w).sum(), [x])
        assert err < 1e-5

    def test_activations(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=7) + 0.05,
                   requires_grad=True)
        for fn in (ad.relu, ad.leaky_relu, ad.sigmoid):
            err = ad.grad_check(lambda ts: (fn(ts[0]) * 1.7).sum(), [x])
            assert err < 1e-6

    def test_concat_getitem_stack(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def f(ts):
            c = ad.concat([ts[0], ts[1]], axis=-1)
            s = ad.stack([c[0], c[1]], axis=0)
            return (s * s).sum()

        assert ad.grad_check(f, [a, b]) < 1e-6

    def test_euclidean_distance(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        err = ad.grad_check(lambda ts: ad.euclidean_distance(ts[0], ts[1]),
                            [a, b])
        assert err < 1e-6

    def test_euclidean_distance_sums_a_broadcast_operand_back(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        ad.euclidean_distance(a, b).backward()
        assert a.grad.shape == (3,) and b.grad.shape == (2, 3)
        err = ad.grad_check(lambda ts: ad.euclidean_distance(ts[0], ts[1]),
                            [a, b])
        assert err < 1e-6

    def test_mean_over_an_axis_tuple(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(1, 3, 1))
        np.testing.assert_allclose(ad.reduce_mean(x, axis=(0, 1)).data,
                                   x.data.mean(axis=(0, 1)))
        err = ad.grad_check(
            lambda ts: (ts[0].mean(axis=(0, -1), keepdims=True) * w).sum(),
            [x])
        assert err < 1e-6

    def test_embedding_lookup(self, seed):
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        w = rng.normal(size=(4, 4))
        err = ad.grad_check(
            lambda ts: (ad.embedding_lookup(ts[0], idx) * w).sum(), [table]
        )
        assert err < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(Tensor(np.zeros(4)), 1)
        assert loss.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_saturated(self):
        logits = np.zeros(5)
        logits[3] = 30.0
        assert ad.softmax_cross_entropy(Tensor(logits), 3).item() < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(Tensor(np.zeros(3)), 3)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        loss = ad.softmax_cross_entropy(x, 2)
        loss.backward()
        sm = np.exp(x.data) / np.exp(x.data).sum()
        expect = sm.copy()
        expect[2] -= 1.0
        np.testing.assert_allclose(x.grad, expect, atol=1e-12)
        assert ad.grad_check(lambda ts: ad.softmax_cross_entropy(ts[0], 2),
                             [x]) < 1e-6

    def test_batch_ce_matches_loop(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(4, 6))
        targets = [0, 3, 5, 2]
        batch = ad.softmax_cross_entropy_batch(Tensor(logits), targets).item()
        loop = np.mean(
            [ad.softmax_cross_entropy(Tensor(l), t).item()
             for l, t in zip(logits, targets)]
        )
        assert batch == pytest.approx(loop, abs=1e-12)


def chain_ce(logits, target):
    """softmax_cross_entropy as a chain of primitives: the reference its
    single node must match bit for bit."""
    return ad.mul(ad.log_softmax(logits, axis=-1)[target], -1.0)


def chain_hinge(a, pos, neg, margin):
    """One triplet hinge as a chain of primitives."""
    return ad.relu(ad.add(
        ad.add(ad.euclidean_distance(a, pos),
               ad.mul(ad.euclidean_distance(a, neg), -1.0)),
        margin))


def chain_triplet_mean(triples, margin, count):
    """triplet_hinge_mean as a chain of primitives: the reference its
    single node must match bit for bit."""
    hinges = [chain_hinge(a, p, n, margin) for a, p, n in triples]
    return ad.mul(ad.reduce_sum(ad.stack(hinges)), 1.0 / count)


def chain_ce_batch(logits, targets):
    """softmax_cross_entropy_batch as its chain of four primitives."""
    n = logits.shape[0]
    picked = ad.getitem(ad.log_softmax(logits, axis=-1),
                        (np.arange(n), np.asarray(targets)))
    return ad.mul(ad.reduce_sum(picked), -1.0 / n)


def chain_concat_linear(xs, w, b):
    """linear(concat(xs), w, b) as a chain of primitives: an edge
    vector of `edge_triplet_mean`."""
    return ad.add(ad.matmul(ad.concat(xs, axis=-1), w), b)


def chain_edge_triplet_mean(x, ends, w, b, triples, margin):
    """edge_triplet_mean as a chain of primitives: one getitem per row of
    x read, one chain_concat_linear per edge, and the triplet mean chain
    over the edge vectors."""
    rows = {}
    for i in np.ravel(ends).tolist():
        rows.setdefault(i, ad.getitem(x, i))
    vecs = [chain_concat_linear([rows[p], rows[c]], w, b)
            for p, c in np.asarray(ends).tolist()]
    return chain_triplet_mean(
        [tuple(vecs[i] for i in t) for t in np.asarray(triples).tolist()],
        margin, len(vecs))


def value_and_grad_bytes(build, arrays, upstream):
    """Bytes of build(*leaves) and of every leaf's gradient, with the
    output's gradient set to `upstream` (a number, or an array of the
    output's shape) through a constant factor."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in arrays]
    out = build(*leaves)
    ad.mul(out, upstream).backward(np.ones_like(out.data))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


class TestFusedExactness:
    """The fused nodes against the op chains they replace, byte for byte."""

    @pytest.mark.parametrize("upstream", [1.0, -0.37])
    def test_ce_every_target(self, upstream):
        rng = np.random.default_rng(31)
        for logits in (rng.normal(size=7) * 3, np.zeros(7),
                       np.array([40.0, -3.0, 0.0, 0.0, 1e-3, 2.0, -40.0])):
            for target in range(7):
                fused = value_and_grad_bytes(
                    lambda x: ad.softmax_cross_entropy(x, target), [logits],
                    upstream)
                chain = value_and_grad_bytes(
                    lambda x: chain_ce(x, target), [logits], upstream)
                assert fused == chain, target

    HINGES = {
        "active": ([0.3, -1.2, 0.8], [1.5, 0.2, -0.4], [0.1, -1.0, 0.9],
                   1.0),
        "inactive": ([0.3, -1.2, 0.8], [0.2, -1.1, 0.8], [4.0, 3.0, -2.0],
                     0.5),
        "gap_exactly_zero": ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], 0.0),
        "anchor_on_positive": ([0.5, 0.5], [0.5, 0.5], [0.9, 0.5], 1.0),
        "anchor_on_negative": ([0.5, 0.5], [-1.0, 2.0], [0.5, 0.5], 1.0),
        "all_coincident": ([0.5, 0.5], [0.5, 0.5], [0.5, 0.5], 0.2),
    }

    @pytest.mark.parametrize("case", sorted(HINGES))
    @pytest.mark.parametrize("upstream", [1.0, -0.37])
    def test_hinge(self, case, upstream):
        *points, margin = self.HINGES[case]
        arrays = [np.asarray(p, dtype=float) for p in points]
        fused = value_and_grad_bytes(
            lambda a, p, n: ad.triplet_hinge_mean([(a, p, n)], margin, 1),
            arrays, upstream)
        chain = value_and_grad_bytes(
            lambda a, p, n: chain_triplet_mean([(a, p, n)], margin, 1),
            arrays, upstream)
        assert fused == chain

    @pytest.mark.parametrize("upstream", [1.0, -0.37])
    def test_triplet_mean_over_every_case(self, upstream):
        """All hinge cases in one node, over vectors that several triples
        share (in every role), and a count above the triple count."""
        cases = [self.HINGES[c] for c in sorted(self.HINGES)]
        arrays = [np.asarray(x, dtype=float)[:2] for case in cases
                  for x in case[:3]]
        margin = 0.4
        k = len(arrays)

        def triples(vs):
            own = [(vs[3 * i], vs[3 * i + 1], vs[3 * i + 2])
                   for i in range(len(cases))]
            shared = [(vs[0], vs[k - 1], vs[4]), (vs[4], vs[0], vs[0]),
                      (vs[k - 1], vs[4], vs[1])]
            return own + shared

        count = len(triples(arrays)) + 3
        fused = value_and_grad_bytes(
            lambda *vs: ad.triplet_hinge_mean(triples(vs), margin, count),
            arrays, upstream)
        chain = value_and_grad_bytes(
            lambda *vs: chain_triplet_mean(triples(vs), margin, count),
            arrays, upstream)
        assert fused == chain

    @pytest.mark.parametrize("upstream", [1.0, -0.37, 0.0, -0.0])
    def test_edge_triplet_mean(self, upstream):
        """Edges that share rows of x (as parent and as child), triples
        that share edges in every role, an edge in no triple, and hinges
        on both sides of zero."""
        rng = np.random.default_rng(34)
        arrays = [rng.normal(size=(6, 3)), rng.normal(size=(6, 4)),
                  rng.normal(size=4)]
        ends = [[0, 1], [0, 2], [2, 3], [1, 4], [4, 5], [2, 5], [3, 1]]
        triples = [[0, 1, 2], [1, 0, 3], [3, 6, 0], [2, 1, 6], [6, 3, 1],
                   [0, 6, 6], [1, 0, 2]]
        margin = 0.6

        def run(build):
            return value_and_grad_bytes(
                lambda x, w, b: build(x, ends, w, b, triples, margin),
                arrays, upstream)

        fused = run(ad.edge_triplet_mean)
        assert fused == run(chain_edge_triplet_mean)
        # edge 5 is in no triple; two of the seven hinges are active
        assert float(np.frombuffer(fused[0])[0]) > 0

    def test_edge_triplet_mean_parents(self):
        x, w, b = Tensor(np.ones((2, 2))), rand_tensor(4, 3), rand_tensor(3)
        out = ad.edge_triplet_mean(x, [[0, 1], [1, 0]], w, b,
                                   [[0, 1, 1]], 1.0)
        assert out._parents == (x, w, b)

    def test_hinge_gap_sign_matches_case(self):
        for case, (a, p, n, margin) in self.HINGES.items():
            gap = ad.triplet_hinge_mean([(Tensor(a), Tensor(p), Tensor(n))],
                                        margin, 1)
            assert (gap.item() > 0) == (case not in ("inactive",
                                                     "gap_exactly_zero")), case

    def test_hinge_lists_the_anchor_twice(self):
        a, p, n, a2 = (rand_tensor(3) for _ in range(4))
        out = ad.triplet_hinge_mean([(a, p, n), (a2, a, p)], 1.0, 2)
        assert out._parents == (a, p, a, n, a2, a, a2, p)

    @pytest.mark.parametrize("upstream", [1.0, -0.37, 0.0, -0.0])
    def test_ce_mean(self, upstream):
        """The batch CE mean over stacked rows of one leaf matrix, some read
        three times, so the gradient sums into it depend on the order of
        the walk; saturated and all-equal rows too."""
        rng = np.random.default_rng(32)
        logits = np.concatenate([rng.normal(size=(5, 7)) * 3,
                                 np.zeros((1, 7)),
                                 [[40.0, -3.0, 0.0, 0.0, 1e-3, 2.0, -40.0]]])
        rows = [4, 0, 4, 2, 6, 4, 5, 1, 3, 0, 0]
        targets = [0, 6, 3, 3, 1, 2, 6, 5, 4, 1, 2]

        def run(build):
            return value_and_grad_bytes(
                lambda x: build(ad.stack([x[i] for i in rows]), targets),
                [logits], upstream)

        assert run(ad.softmax_cross_entropy_batch) == run(chain_ce_batch)

    def test_ce_mean_checks_lengths_and_targets(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ad.ShapeError):
            ad.softmax_cross_entropy_batch(logits, [0])
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy_batch(logits, [0, 3])
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy_batch(logits, [-1, 0])

    def test_constant_inputs_record_no_tape(self):
        out = ad.triplet_hinge_mean(
            [(Tensor([1.0]), Tensor([2.0]), Tensor([4.0]))], 1.0, 1)
        assert out._parents == () and out._backward is None
        assert ad.softmax_cross_entropy(Tensor(np.zeros(3)), 1)._parents \
            == ()
        assert ad.softmax_cross_entropy_batch(Tensor(np.zeros((1, 3))),
                                              [1])._parents == ()


def reference_backward(loss):
    """The walk `Tensor.backward` used when it keyed on id() and summed out
    of place: DFS post-order from the loss, gradients summed in reverse of
    it, a `RowGrad` taken as the dense buffer it stands for (zeros, then
    the rows added in)."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is not None:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                if isinstance(pg, ad.RowGrad):
                    dense = np.zeros(parent.shape)
                    dense[pg.idx] += pg.g
                    pg = dense
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg


class TestBackwardPlumbing:
    def test_walk_matches_reference_on_shared_nodes(self):
        grads = []
        for walk in (Tensor.backward, reference_backward):
            rng = np.random.default_rng(3)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            h = ad.relu(x @ w)
            y = ad.stack([h[0], h[1] * h[0], (h @ w)[2], h[0]], axis=0)
            walk(ad.reduce_sum(ad.concat([y, h], axis=0) * 0.3))
            grads.append((x.grad.tobytes(), w.grad.tobytes()))
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("idx", [
        2, -1, np.int64(1), slice(1, 3), (1, slice(0, 2)),
        (slice(None), -2), np.array([0, 2, 2, 3]),
        (np.array([1, 1]), np.array([0, 0])),
    ], ids=["int", "neg_int", "np_int", "slice", "int_slice", "slice_neg",
            "fancy_repeats", "fancy_pairs"])
    def test_getitem_backward_matches_add_at(self, idx):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = ad.getitem(a, idx)
        g = rng.normal(size=out.shape)
        g.flat[0] = -0.0
        out.backward(g)
        expect = np.zeros_like(a.data)
        np.add.at(expect, idx, g)
        assert a.grad.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("size", [4, 1])
    def test_backward_rejects_a_gradient_of_another_shape(self, size):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with pytest.raises(ad.ShapeError, match=rf"\({size},\).*\(3,\)"):
            ad.mul(x, 2.0).backward(np.ones(size))
        assert x.grad is None

    def test_walk_never_writes_an_array_a_closure_returned(self):
        # `add` hands one array to both parents; each parent then gets a
        # second gradient, from mul(u, w), which the walk must not add
        # into that array in place
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=3), requires_grad=True)
        y = Tensor(rng.normal(size=3), requires_grad=True)
        u, w = ad.mul(x, 1.5), ad.mul(y, -0.5)
        s = ad.add(u, w)
        handed = []
        closure = s._backward

        def spy(g):
            out = closure(g)
            handed.extend((a, a.tobytes()) for a in out)
            return out

        s._backward = spy
        ad.reduce_sum(ad.add(s, ad.mul(u, w))).backward()
        assert len(handed) == 2 and handed[0][0] is handed[1][0]
        for array, before in handed:
            assert array.tobytes() == before
        np.testing.assert_allclose(x.grad, 1.5 * (1.0 + w.data))
        np.testing.assert_allclose(y.grad, -0.5 * (1.0 + u.data))

    def test_row_gradient_into_a_scalar_sum(self):
        # the walk's own sum of two 0-d gradients is a numpy scalar,
        # which cannot take rows in place
        x = Tensor(2.0, requires_grad=True)
        y = ad.mul(x, 3.0)
        ad.add(ad.add(y, y), ad.getitem(y, ())).backward()
        assert x.grad == 9.0

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_stack_backward_matches_split(self, axis):
        rng = np.random.default_rng(2)
        parts = [Tensor(rng.normal(size=(2, 3)), requires_grad=True)
                 for _ in range(3)]
        out = ad.stack(parts, axis=axis)
        g = rng.normal(size=out.shape)
        got = out._backward(g)
        expect = [np.squeeze(p, axis=axis)
                  for p in np.split(g, len(parts), axis=axis)]
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat_backward_matches_split(self, axis):
        rng = np.random.default_rng(3)
        shapes = [[2, 3], [2, 3], [2, 3]]
        for shape, size in zip(shapes, (1, 4, 2)):
            shape[axis] = size
        parts = [Tensor(rng.normal(size=s), requires_grad=True)
                 for s in shapes]
        out = ad.concat(parts, axis=axis)
        g = rng.normal(size=out.shape)
        got = out._backward(g)
        sizes = [p.shape[axis] for p in parts]
        expect = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for a, b in zip(got, expect):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("op", [ad.add, ad.mul, ad.matmul])
    @pytest.mark.parametrize("const_first", [False, True])
    def test_constant_operand_gets_no_gradient(self, op, const_first):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = rng.normal(size=(3, 3))
        g = rng.normal(size=(3, 3))
        k = 0 if const_first else 1  # position of the constant operand

        def closure_grads(c_tensor):
            pair = [c_tensor, x] if const_first else [x, c_tensor]
            return op(*pair)._backward(g)

        skipped = closure_grads(Tensor(c))
        both = closure_grads(Tensor(c, requires_grad=True))
        assert skipped[k] is None and both[k] is not None
        assert skipped[1 - k].tobytes() == both[1 - k].tobytes()

    def test_intermediate_operand_keeps_its_gradient(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        mid = ad.mul(x, 2.0)  # no grad flag, but has parents
        out = ad.mul(mid, Tensor(np.ones(3)))
        assert out._backward(np.ones(3))[0] is not None


def composite_linear(x, w, b):
    """What `linear` fuses: two tape nodes."""
    return ad.add(ad.matmul(x, w), b)


def composite_broadcast(a, shape):
    """What `broadcast_to` replaces: adding a zeros tensor of the target
    shape."""
    return ad.add(a, Tensor(np.zeros(shape)))


class TestLinear:
    @staticmethod
    def run(linear, broadcast, x_shape, x_grad, wide=None):
        """Forward bytes and leaf gradient bytes of a linear readout."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=x_shape), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(x_shape[-1], 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        src = x if wide is None else broadcast(x, wide)
        out = linear(src, w, b)
        loss = ad.reduce_sum(ad.mul(out, Tensor(rng.normal(size=out.shape))))
        loss.backward()
        grads = [None if t.grad is None else t.grad.tobytes()
                 for t in (x, w, b)]
        return out, [out.data.tobytes(), loss.data.tobytes()] + grads

    @pytest.mark.parametrize("x_shape", [(4,), (3, 4), (2, 3, 2, 3, 4)],
                             ids=["1d", "2d", "5d"])
    @pytest.mark.parametrize("x_grad", [True, False],
                             ids=["x_grad", "x_const"])
    def test_matches_add_matmul_bitwise(self, x_shape, x_grad):
        _, fused = self.run(ad.linear, ad.broadcast_to, x_shape, x_grad)
        _, composite = self.run(composite_linear, composite_broadcast,
                                x_shape, x_grad)
        assert fused == composite
        assert (fused[2] is None) == (not x_grad)

    @pytest.mark.parametrize("x_grad", [True, False],
                             ids=["x_grad", "x_const"])
    def test_broadcast_input_matches_composite_bitwise(self, x_grad):
        wide = (2, 3, 2, 3, 4)
        out, fused = self.run(ad.linear, ad.broadcast_to, (2, 1, 1, 3, 4),
                              x_grad, wide)
        _, composite = self.run(composite_linear, composite_broadcast,
                                (2, 1, 1, 3, 4), x_grad, wide)
        assert fused == composite
        # projected once per distinct row block, broadcast back as a view
        assert out.data.strides[1:3] == (0, 0)

    def test_bias_gradient_is_unbroadcast(self):
        x = Tensor(np.ones((2, 5, 3)))
        w = Tensor(np.ones((3, 4)))
        b = Tensor(np.zeros(4), requires_grad=True)
        ad.reduce_sum(ad.linear(x, w, b)).backward()
        assert b.grad.shape == (4,)
        assert np.array_equal(b.grad, np.full(4, 10.0))

    def test_broadcast_to_shares_memory(self):
        a = Tensor(np.arange(6.0).reshape(3, 1, 2), requires_grad=True)
        out = ad.broadcast_to(a, (2, 3, 4, 2))
        assert np.shares_memory(out.data, a.data)
        g = np.random.default_rng(6).normal(size=out.shape)
        (got,) = out._backward(g)
        (expect, _) = composite_broadcast(a, out.shape)._backward(g)
        assert got.shape == a.shape
        assert got.tobytes() == expect.tobytes()


class TestChunkedWeightGradient:
    """`_matmul_grads`'s weight gradient of N-D x @ 2-D w, made a chunk of
    leading indices at a time, against the sum of the whole [..., k, n]
    product array that it replaces."""

    K, N = 8, 4  # one product is 256 bytes

    @staticmethod
    def arrays(x_shape, n, seed, stride0=False):
        rng = np.random.default_rng(seed)
        # entries over six decades, so a change in the order of the
        # additions changes the bits
        scale = 10.0 ** rng.uniform(-3, 3, size=x_shape)
        x = rng.normal(size=x_shape) * scale
        if stride0:  # the question tokens' view: axes 1 and 2 repeat
            x = np.broadcast_to(x[:, :1, :1], x_shape)
        g = rng.normal(size=x_shape[:-1] + (n,))
        w = rng.normal(size=(x_shape[-1], n))
        return x, w, g

    def check(self, x, w, g, need_a=True):
        ga, gw = ad._matmul_grads(g, x, w, need_a, True)
        want = ad._unbroadcast(x.swapaxes(-1, -2) @ g, w.shape)
        assert gw.shape == w.shape
        assert gw.tobytes() == want.tobytes()
        if need_a:
            assert ga.tobytes() == (g @ w.T).tobytes()
        else:
            assert ga is None

    # chunks of 5 indices of axis 0, 3 products each: 4 fit in one chunk,
    # 5 fill it, 6 is one past, 13 is two chunks and a ragged 3
    @pytest.mark.parametrize("lead", [4, 5, 6, 13])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chunk_edges_match_the_whole_sum(self, monkeypatch, lead, seed):
        monkeypatch.setattr(ad, "GRAD_CHUNK_BYTES", 5 * 3 * 8 * self.K
                            * self.N)
        self.check(*self.arrays((lead, 3, 2, self.K), self.N, seed))

    @pytest.mark.parametrize("need_a", [True, False])
    def test_stride0_input(self, monkeypatch, need_a):
        monkeypatch.setattr(ad, "GRAD_CHUNK_BYTES", 2 * 12 * 8 * self.K
                            * self.N)
        x, w, g = self.arrays((7, 3, 4, 2, self.K), self.N, 3, stride0=True)
        assert x.strides[1:3] == (0, 0)
        self.check(x, w, g, need_a)

    @pytest.mark.parametrize("x_shape", [(9, 4, 3, 8), (5, 2, 3, 2, 2, 8)],
                             ids=["4d", "6d"])
    @pytest.mark.parametrize("need_a", [True, False])
    def test_4d_and_6d(self, monkeypatch, x_shape, need_a):
        monkeypatch.setattr(ad, "GRAD_CHUNK_BYTES", 16 * 8 * self.K * self.N)
        self.check(*self.arrays(x_shape, self.N, 4), need_a)

    @staticmethod
    def peak_bytes(x, w, g):
        """The weight gradient and the tracemalloc peak of making it."""
        tracemalloc.start()
        try:
            _, gw = ad._matmul_grads(g, x, w, False, True)
            return gw, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_object_stage_ffn_stays_below_the_product_array(self):
        """The object-stage ff2 gradient at the default budget: [648, 64,
        16] products, 5.3 MB as one array."""
        x, w, g = self.arrays((54, 6, 2, 2, 64), 16, 5)
        want = ad._unbroadcast(x.swapaxes(-1, -2) @ g, w.shape)
        gw, peak = self.peak_bytes(x, w, g)
        assert gw.tobytes() == want.tobytes()
        assert peak < 648 * 64 * 16 * 8 / 2

    def test_stride0_input_is_not_copied(self):
        """An [8, 64, 64, 2, 16] view of [8, 1, 1, 2, 16] rows: a copy of
        it would be 8.4 MB, and its products 16.8 MB."""
        x, w, g = self.arrays((8, 64, 64, 2, 16), 4, 6, stride0=True)
        want = ad._unbroadcast(x.swapaxes(-1, -2) @ g, w.shape)
        gw, peak = self.peak_bytes(x, w, g)
        assert gw.tobytes() == want.tobytes()
        assert peak < x.size * 8 / 2


class TestGumbelSoftmax:
    def test_zero_noise_symmetry(self):
        out = ad.gumbel_softmax(Tensor(np.zeros((1, 2))), temperature=1.0,
                                noise=np.zeros((1, 2)))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_hard_rows_one_hot(self):
        rng = np.random.default_rng(1)
        out = ad.gumbel_softmax(Tensor(rng.normal(size=(20, 2))), hard=True,
                                noise=ad.gumbel_noise(rng, (20, 2)))
        assert set(np.unique(out.data)) <= {0.0, 1.0}
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_soft_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = ad.gumbel_softmax(Tensor(rng.normal(size=(50, 3))),
                                noise=ad.gumbel_noise(rng, (50, 3)))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (out.data > 0).all()

    def test_monte_carlo_selection_rate(self):
        # At temperature 1, the hard argmax selects class i with probability
        # softmax(logits)_i; check empirically against the closed form.
        rng = np.random.default_rng(3)
        n = 100_000
        logits = Tensor(np.tile([1.0, 0.0], (n, 1)))
        out = ad.gumbel_softmax(logits, temperature=1.0, hard=True,
                                noise=ad.gumbel_noise(rng, logits.shape))
        rate = out.data[:, 0].mean()
        expect = 1.0 / (1.0 + np.exp(-1.0))
        assert rate == pytest.approx(expect, abs=0.01)

    def test_straight_through_gradient_flows(self):
        x = Tensor(np.array([[0.3, -0.2], [0.1, 0.4]]), requires_grad=True)
        frozen = np.zeros((2, 2))
        out = ad.gumbel_softmax(x, hard=True, noise=frozen)
        (out * np.array([[1.0, 0.0], [0.0, 1.0]])).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_needs_noise(self):
        # an unseeded fallback would break the CLI's determinism silently
        with pytest.raises(TypeError, match="noise"):
            ad.gumbel_softmax(Tensor(np.zeros((1, 2))), hard=True)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            ad.gumbel_softmax(Tensor(np.zeros((1, 2))), temperature=0.0,
                              noise=np.zeros((1, 2)))


class TestTransformerLayer:
    def make_store(self, h=8, heads=2, seed=0):
        store = ad.ParamStore(seed)
        ad.init_transformer_params(store, "tf", h, heads)
        return store

    def test_output_shape(self):
        store = self.make_store()
        q = rand_tensor(3, 8)
        kv = rand_tensor(5, 8)
        out = ad.transformer_encoder_layer(q, kv, kv, store, "tf", heads=2)
        assert out.shape == (3, 8)

    def test_batched_output_shape(self):
        store = self.make_store()
        q = rand_tensor(4, 2, 3, 8)
        kv = rand_tensor(4, 2, 5, 8)
        out = ad.transformer_encoder_layer(q, kv, kv, store, "tf", heads=2)
        assert out.shape == (4, 2, 3, 8)

    def test_single_token_attention_weight_is_one(self):
        # With one key, softmax over a singleton is exactly 1 regardless of
        # projections; output must equal the residual path through that key.
        store = self.make_store()
        q = rand_tensor(1, 8)
        out_a = ad.transformer_encoder_layer(q, q, q, store, "tf", heads=2)
        doubled = Tensor(np.concatenate([q.data, q.data]))
        out_b = ad.transformer_encoder_layer(q, doubled, doubled, store,
                                             "tf", heads=2)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_key_value_permutation_invariance(self):
        store = self.make_store()
        q = rand_tensor(3, 8)
        kv = rand_tensor(5, 8)
        perm = np.random.default_rng(4).permutation(5)
        out_a = ad.transformer_encoder_layer(q, kv, kv, store, "tf", heads=2)
        kv_p = Tensor(kv.data[perm])
        out_b = ad.transformer_encoder_layer(q, kv_p, kv_p, store, "tf",
                                             heads=2)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_width_mismatch_raises(self):
        store = self.make_store()
        with pytest.raises(ad.ShapeError):
            ad.transformer_encoder_layer(
                rand_tensor(3, 8), rand_tensor(5, 6), rand_tensor(5, 6),
                store, "tf", heads=2,
            )

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_gradients(self, seed):
        store = self.make_store(seed=seed)
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        kv = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        w = rng.normal(size=(3, 8))

        def f(ts):
            out = ad.transformer_encoder_layer(ts[0], ts[1], ts[1], store,
                                               "tf", heads=2)
            return (out * w).sum()

        assert ad.grad_check(f, [q, kv]) < 1e-4

    def test_parameter_gradients(self):
        store = self.make_store(seed=21)
        rng = np.random.default_rng(21)
        q = Tensor(rng.normal(size=(2, 8)))
        kv = Tensor(rng.normal(size=(3, 8)))
        w = rng.normal(size=(2, 8))

        def f(ts):
            out = ad.transformer_encoder_layer(q, kv, kv, store, "tf",
                                               heads=2)
            return (out * w).sum()

        for name in ("tf.wq.w", "tf.ff1.w", "tf.wo.w", "tf.wv.b"):
            assert ad.grad_check(f, [store[name]]) < 1e-4


class TestOptimizer:
    def test_zero_gradient_leaves_params(self):
        store = ad.ParamStore(0)
        w = store.add("w", (3,))
        before = w.data.copy()
        w.grad = np.zeros(3)
        ad.Adam(store, lr=0.1).step()
        np.testing.assert_array_equal(w.data, before)

    def test_descent_direction(self):
        store = ad.ParamStore(0)
        w = store.add("w", (1,))
        w.data = np.array([1.0])
        opt = ad.Adam(store, lr=0.1)
        (w * w).sum().backward()
        opt.step()
        assert w.data[0] < 1.0

    def test_quadratic_convergence(self):
        store = ad.ParamStore(0)
        w = store.add("w", (2,))
        w.data = np.array([3.0, -2.0])
        target = np.array([0.5, 1.5])
        opt = ad.Adam(store, lr=0.05)
        for _ in range(200):
            store.zero_grad()
            loss = ((w - target) * (w - target)).sum()
            loss.backward()
            opt.step()
        final = ((w.data - target) ** 2).sum()
        assert final < 1e-3

    def test_steps_match_the_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(7)
        store = ad.ParamStore(0)
        w = store.add("w", (4, 3))
        opt = ad.Adam(store, lr=0.01)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        data, m, v = w.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for t in (1, 2, 3):
            g = rng.normal(size=(4, 3))
            g[0, 0] = -0.0
            w.grad = g.copy()
            old, old_bytes = w.data, w.data.tobytes()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g ** 2
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            data = data - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
            assert w.data.tobytes() == data.tobytes()
            # the old array is rebound, not written; the gradient is read
            assert w.data is not old and old.tobytes() == old_bytes
            assert w.grad.tobytes() == g.tobytes()

    def test_shape_mismatch_raises(self):
        store = ad.ParamStore(0)
        w = store.add("w", (3,))
        w.grad = np.zeros((2,))
        with pytest.raises(ad.ShapeError):
            ad.Adam(store).step()


class TestParamStore:
    def test_deterministic_init(self):
        a = ad.ParamStore(42).add("w", (4, 4))
        b = ad.ParamStore(42).add("w", (4, 4))
        np.testing.assert_array_equal(a.data, b.data)

    def test_duplicate_name_rejected(self):
        store = ad.ParamStore(0)
        store.add("w", (2,))
        with pytest.raises(ValueError):
            store.add("w", (2,))

    def test_checkpoint_round_trip(self, tmp_path):
        store = ad.ParamStore(7)
        store.add("alpha", (3, 2))
        store.add("beta", (4,))
        store.save(tmp_path / "ckpt")
        loaded = ad.ParamStore.load(tmp_path / "ckpt")
        assert sorted(loaded.names()) == ["alpha", "beta"]
        for name in store.names():
            np.testing.assert_array_equal(loaded[name].data,
                                          store[name].data)

    @pytest.mark.parametrize("change", ["short", "trailing", "empty"])
    def test_params_bin_of_the_wrong_size_raises(self, tmp_path, change):
        store = ad.ParamStore(7)
        store.add("alpha", (3, 2))
        store.add("beta", (4,))
        store.save(tmp_path / "ckpt")
        blob_path = tmp_path / "ckpt" / "params.bin"
        blob = blob_path.read_bytes()
        blob_path.write_bytes({"short": blob[:-8], "trailing": blob + b"\0",
                               "empty": b""}[change])
        with pytest.raises(ad.ShapeError, match="params.bin"):
            ad.ParamStore.load(tmp_path / "ckpt")

    def test_params_bin_of_the_right_size_but_other_bytes_raises(
            self, tmp_path):
        store = ad.ParamStore(7)
        store.add("alpha", (3, 2))
        store.save(tmp_path / "ckpt")
        blob_path = tmp_path / "ckpt" / "params.bin"
        blob = bytearray(blob_path.read_bytes())
        blob[5] ^= 1  # one mantissa bit of alpha[0, 0]
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="params.bin.*sha256"):
            ad.ParamStore.load(tmp_path / "ckpt")


@given(
    rows=st.integers(1, 6), cols=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols)) * 10
    out = ad.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    assert (out.data > 0).all()
