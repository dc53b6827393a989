"""Forward-value oracles and finite-difference gradient checks for the tensor core."""

import numpy as np
import pytest

from drax import tensor as T
from drax.tensor import ParamStore, Parameter, ShapeError, Tensor

from helpers import (
    attend_composite,
    check_gradients,
    elu_select,
    feed_forward_composite,
    finite_difference,
    matmul_oracle,
    merge_heads,
    reference_backward,
    relative_error,
    self_attention_composite,
    softmax_oracle,
    split_heads,
)


class TestForwardValues:
    def test_add_broadcast(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.array([10.0, 20.0, 30.0]))
        out = a + b
        np.testing.assert_array_equal(out.data, a.data + b.data)

    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            got = T.matmul(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=0, atol=1e-12)

    def test_batched_matmul_matches_per_slice(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4, 2))
        b = rng.normal(size=(3, 2, 5))
        got = T.matmul(Tensor(a), Tensor(b)).data
        for h in range(3):
            np.testing.assert_allclose(got[h], matmul_oracle(a[h], b[h]), atol=1e-12)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros(3)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7)) * 5
        out = T.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)
        for i in range(4):
            np.testing.assert_allclose(out[i], softmax_oracle(x[i]), atol=1e-12)

    def test_softmax_handles_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        out = T.softmax(x, axis=-1).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_elu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = T.elu(Tensor(x)).data
        expected = np.where(x >= 0, x, np.exp(x) - 1.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_relu_values(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(T.relu(Tensor(x)).data, [0.0, 0.0, 2.0])

    def test_layer_norm_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 8)) * 3 + 1
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = T.layer_norm(Tensor(x), gain, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-4)

    def test_concat_and_split_grad_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((4, 3)))
        out = T.concat([a, b], axis=0)
        assert out.shape == (6, 3)

    def test_mean_matches_numpy(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(T.tensor_mean(Tensor(x), axis=0).data, x.mean(axis=0))
        np.testing.assert_allclose(T.tensor_mean(Tensor(x)).data, x.mean())

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()


class TestBackward:
    def test_scalar_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x  # d/dx = 2x + 1 = 7
        T.backward(y)
        np.testing.assert_allclose(x.grad, 7.0)

    def test_requires_scalar_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(x * 2.0)

    def test_repeated_operand_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = T.mul(x, x)  # same node twice; d/dx = 2x = 4
        T.backward(y)
        np.testing.assert_allclose(x.grad, 4.0)

    def test_op_results_set_every_slot(self):
        # `_from_op` builds its result without `Tensor.__init__`.
        x = Tensor(np.ones(3), requires_grad=True)
        for out in (x * 2.0, T.mul(Tensor(np.ones(3)), 2.0)):
            fresh = Tensor(out.data, requires_grad=out.requires_grad)
            for slot in Tensor.__slots__:
                assert hasattr(out, slot), slot
                if slot not in ("_parents", "_vjp"):
                    assert type(getattr(out, slot)) is type(getattr(fresh, slot)), slot
        assert (x * 2.0).data.dtype == np.float64

    def test_second_backward_adds_another_copy(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = T.tensor_sum(x * x)
        T.backward(loss)
        first = x.grad.copy()
        T.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_no_grad_blocks_recording(self):
        x = Tensor(1.0, requires_grad=True)
        with T.no_grad():
            y = x * 3.0
        assert not y.requires_grad
        assert y.is_leaf()

    @pytest.mark.parametrize("seed", range(4))
    def test_matmul_chain_gradients(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return T.tensor_sum(T.elu(T.matmul(a, b)))

        check_gradients(loss, [a, b], tol=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_softmax_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)))

        def loss():
            return T.tensor_sum(T.softmax(x, axis=-1) * w)

        check_gradients(loss, [x], tol=1e-7)

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        w = rng.normal(size=(2, 6))

        def loss():
            return T.tensor_sum(T.layer_norm(x, gain, bias) * w)

        check_gradients(loss, [x, gain, bias], tol=1e-6)

    def test_batched_matmul_gradients(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)

        def loss():
            return T.tensor_sum(T.matmul(a, b))

        check_gradients(loss, [a, b], tol=1e-7)

    def test_index_reshape_transpose_concat_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = rng.normal(size=(6, 7))

        def loss():
            head = x[1:3]
            rest = x[0:1]
            merged = T.concat([head, rest, x[3:]], axis=0)
            flipped = T.transpose(merged)
            back = T.reshape(flipped, (4, 6))
            return T.tensor_sum(T.matmul(back, Tensor(w)) * 0.5)

        check_gradients(loss, [x], tol=1e-7)

    def test_broadcast_add_gradients(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)

        def loss():
            return T.tensor_sum(T.relu(x + b))

        check_gradients(loss, [x, b], tol=1e-7)

    def test_grad_against_manual_finite_difference(self):
        # Direct use of the helper on a fresh array, independent of check_gradients.
        x = np.array([[0.3, -0.2], [0.1, 0.4]])

        def value():
            return float(np.sum(np.tanh(x)))

        fd = finite_difference(value, x)
        np.testing.assert_allclose(fd, 1.0 / np.cosh(x) ** 2, atol=1e-6)


def _grads_of(build, leaves, run_backward):
    """Each leaf's gradient after `run_backward` on a fresh `build()`."""
    for t in leaves:
        t.zero_grad()
    run_backward(build())
    return [t.grad for t in leaves]


class TestCreationOrderBackward:
    """Creation-order backward against the graph-search oracle, and the
    ownership of the leaf gradients it writes."""

    def test_results_are_numbered_after_their_operands(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        z = T.add(y, x)
        assert x._seq == 0 and 0 < y._seq < z._seq
        assert (Tensor(np.ones(3)) * 2.0)._seq == 0
        with T.no_grad():
            assert (x * 2.0)._seq == 0

    def test_shared_subgraph_matches_reference(self):
        # `h` feeds three consumers made in an order unlike the DFS's.
        rng = np.random.default_rng(21)
        x, w = _leaf(rng, 3, 4), _leaf(rng, 4, 4)
        b = _leaf(rng, 4)

        def build():
            h = T.elu(T.affine(x, w, b))
            late = T.matmul(h, w)
            mixed = T.concat([h[1:], h[:1] * 3.0], axis=0)
            return T.tensor_sum(T.layer_norm(late + mixed, b, b) * h)

        got = _grads_of(build, [x, w, b], T.backward)
        want = _grads_of(build, [x, w, b], reference_backward)
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-15)

    def test_interleaved_graphs_keep_their_own_gradients(self):
        rng = np.random.default_rng(22)
        x, w = _leaf(rng, 2, 3), _leaf(rng, 3, 3)
        a1 = T.matmul(x, w)
        b1 = T.elu(x)
        a2 = T.tensor_sum(T.relu(a1) * 2.0)
        b2 = T.tensor_sum(T.matmul(b1, w))
        for loss in (a2, b2):
            got = _grads_of(lambda: loss, [x, w], T.backward)
            want = _grads_of(lambda: loss, [x, w], reference_backward)
            for g, r in zip(got, want):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-15)

    def test_scalar_leaf_loss(self):
        x = Tensor(2.5, requires_grad=True)
        T.backward(x)
        T.backward(x)
        assert x.grad == 2.0

    @pytest.mark.parametrize("op", [T.add, T.sub])
    def test_passed_through_gradient_is_copied(self, op):
        # add hands the same `g` to both operands, sub hands it to the first.
        p1 = Tensor(np.arange(4.0), requires_grad=True)
        p2 = Tensor(np.ones(4), requires_grad=True)
        T.backward(T.tensor_sum(op(p1, p2)))
        second = p2.grad.copy()
        p1.grad += 100.0
        assert p2.grad.tobytes() == second.tobytes()
        assert not np.may_share_memory(p1.grad, p2.grad)

    def test_view_parts_are_copied(self):
        # concat's parts are views of one array, reshape's a view of `g`.
        p1 = Tensor(np.ones((2, 3)), requires_grad=True)
        p2 = Tensor(np.ones((1, 3)), requires_grad=True)
        p3 = Tensor(np.ones(6), requires_grad=True)
        joined = T.concat([p1, p2], axis=0)
        T.backward(T.tensor_sum(T.add(joined[:2], T.reshape(p3, (2, 3)))) + T.tensor_sum(joined))
        grads = [p1.grad, p2.grad, p3.grad]
        for k, g in enumerate(grads):
            assert g.base is None
            for other in grads[k + 1:]:
                assert not np.may_share_memory(g, other)
        np.testing.assert_array_equal(p1.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(p2.grad, np.ones((1, 3)))
        np.testing.assert_array_equal(p3.grad, np.ones(6))

    def test_failed_vjp_leaves_gradients_and_next_backward(self):
        rng = np.random.default_rng(23)
        x, w = _leaf(rng, 2, 3), _leaf(rng, 3, 2)

        def broken_vjp(g):
            raise RuntimeError("vjp failed")

        # `direct` is younger than `bad`, so x and w receive parts from it
        # before the failing node is reached.
        h = T.matmul(x, w)
        bad = T._from_op(h.data * 2.0, (h,), broken_vjp)
        direct = T.matmul(x, w)
        with pytest.raises(RuntimeError, match="vjp failed"):
            T.backward(T.tensor_sum(T.add(bad, direct)))
        assert x.grad is None and w.grad is None

        def build():
            return T.tensor_sum(T.elu(T.matmul(x, w)) * 3.0)

        got = _grads_of(build, [x, w], T.backward)
        want = _grads_of(build, [x, w], reference_backward)
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-15)


class TestConstantOperands:
    """A constant operand gets no VJP part; the other operands' parts are
    bit-identical to those taken with every operand requiring grad."""

    @pytest.mark.parametrize("op, shapes", [
        (T.affine, [(3, 2, 5), (5, 4), (4,)]),
        (T.mul, [(2, 4, 3), (1, 3)]),
        (T.add, [(4, 3), (3,)]),
        (T.sub, [(4, 3), (4, 3)]),
    ])
    def test_parts_match_all_grad_operands(self, op, shapes):
        rng = np.random.default_rng(len(shapes))
        arrays = [rng.normal(size=shape) for shape in shapes]
        full = op(*(Tensor(a, requires_grad=True) for a in arrays))
        g = rng.normal(size=full.shape)
        want = full._vjp(g)
        for constant in range(len(arrays)):
            inputs = [Tensor(a, requires_grad=k != constant) for k, a in enumerate(arrays)]
            parts = op(*inputs)._vjp(g)
            for k, (part, expected) in enumerate(zip(parts, want)):
                if k == constant:
                    assert part is None
                else:
                    assert part.tobytes() == expected.tobytes()


def _value_and_grads(build, inputs, probe):
    """Output data and every input gradient of sum(build() * probe)."""
    for t in inputs:
        t.zero_grad()
    out = build()
    T.backward(T.tensor_sum(T.mul(out, Tensor(probe))))
    return out.data.copy(), [t.grad.copy() for t in inputs]


def _assert_same_op(fused, composite, inputs, rng):
    """Fused and composite ops agree in values and input gradients within 1e-12."""
    probe = rng.normal(size=fused().shape)
    got, got_grads = _value_and_grads(fused, inputs, probe)
    want, want_grads = _value_and_grads(composite, inputs, probe)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def _layer_norm_composite(x, gain, bias, eps=1e-5):
    centered = T.sub(x, T.tensor_mean(x, axis=-1, keepdims=True))
    variance = T.tensor_mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = T.pow_const(T.add(variance, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv_std), gain), bias)


def _head_softmax_composite(x_q, w_q, x_k, w_k, heads, scale):
    qh = split_heads(T.matmul(x_q, w_q), heads)
    kh = split_heads(T.matmul(x_k, w_k), heads)
    return T.softmax(T.mul(T.matmul(qh, T.transpose(kh, (0, 2, 1))), scale), axis=-1)


def _head_mix_composite(weights, values):
    return merge_heads(T.matmul(weights, split_heads(values, weights.shape[0])))


def _leaf(rng, *shape, scale=1.0, shift=0.0):
    return Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)


class TestFusedOps:
    """Each fused op against the composite of primitives it replaces."""

    @pytest.mark.parametrize("shape", [(5, 8), (2, 3, 6)])
    def test_layer_norm_matches_composite(self, shape):
        rng = np.random.default_rng(20)
        x = _leaf(rng, *shape, scale=3.0, shift=1.0)
        gain, bias = _leaf(rng, shape[-1]), _leaf(rng, shape[-1])
        _assert_same_op(
            lambda: T.layer_norm(x, gain, bias),
            lambda: _layer_norm_composite(x, gain, bias),
            [x, gain, bias], rng,
        )

    @pytest.mark.parametrize("heads,n,m,d", [(1, 3, 4, 5), (2, 4, 3, 6), (3, 2, 5, 9)])
    def test_head_softmax_matches_composite(self, heads, n, m, d):
        rng = np.random.default_rng(21)
        x_q, x_k = _leaf(rng, n, 7, scale=2.0), _leaf(rng, m, 7, scale=2.0)
        w_q, w_k = _leaf(rng, 7, d), _leaf(rng, 7, d)
        scale = 1.0 / np.sqrt(d / heads)
        _assert_same_op(
            lambda: T.head_softmax(x_q, w_q, x_k, w_k, heads, scale),
            lambda: _head_softmax_composite(x_q, w_q, x_k, w_k, heads, scale),
            [x_q, w_q, x_k, w_k], rng,
        )

    def test_head_softmax_self_attention_accumulates_both_uses(self):
        rng = np.random.default_rng(26)
        x, w_q, w_k = _leaf(rng, 4, 6), _leaf(rng, 6, 6), _leaf(rng, 6, 6)
        _assert_same_op(
            lambda: T.head_softmax(x, w_q, x, w_k, 2, 0.5),
            lambda: _head_softmax_composite(x, w_q, x, w_k, 2, 0.5),
            [x, w_q, w_k], rng,
        )

    @pytest.mark.parametrize("heads,n,m,d", [(1, 3, 4, 5), (2, 4, 3, 6), (3, 2, 5, 9)])
    def test_head_mix_matches_composite_on_partly_zeroed_weights(self, heads, n, m, d):
        rng = np.random.default_rng(22)
        keep = rng.random(size=(heads, n, m)) < 0.6
        weights = Tensor(rng.random(size=(heads, n, m)) * keep, requires_grad=True)
        values = _leaf(rng, m, d)
        assert 0 < keep.sum() < keep.size
        _assert_same_op(
            lambda: T.head_mix(weights, values),
            lambda: _head_mix_composite(weights, values),
            [weights, values], rng,
        )

    def test_masked_attention_chain_matches_composite(self):
        rng = np.random.default_rng(23)
        heads, n, m, d = 2, 4, 5, 6
        x_q, x_k, v = _leaf(rng, n, d), _leaf(rng, m, d), _leaf(rng, m, d)
        w_q, w_k = _leaf(rng, d, d), _leaf(rng, d, d)
        scale = 1.0 / np.sqrt(d / heads)
        keep = Tensor((rng.random(size=(heads, n, m)) < 0.7).astype(np.float64))
        _assert_same_op(
            lambda: T.head_mix(
                T.mul(T.head_softmax(x_q, w_q, x_k, w_k, heads, scale), keep), v
            ),
            lambda: _head_mix_composite(
                T.mul(_head_softmax_composite(x_q, w_q, x_k, w_k, heads, scale), keep), v
            ),
            [x_q, w_q, x_k, w_k, v], rng,
        )

    @pytest.mark.parametrize("n,k,m,bias_shape", [(4, 3, 5, (5,)), (3, 6, 1, (1,))])
    def test_affine_matches_composite(self, n, k, m, bias_shape):
        rng = np.random.default_rng(24)
        x, w, b = _leaf(rng, n, k), _leaf(rng, k, m), _leaf(rng, *bias_shape)
        _assert_same_op(
            lambda: T.affine(x, w, b),
            lambda: T.add(T.matmul(x, w), b),
            [x, w, b], rng,
        )

    def test_fused_ops_record_one_node(self):
        rng = np.random.default_rng(25)
        x, w, b = _leaf(rng, 3, 4), _leaf(rng, 4, 4), _leaf(rng, 4)
        weights = T.head_softmax(x, w, x, w, 2, 0.5)
        assert weights._parents == (x, w, x, w)
        assert T.head_mix(weights, x)._parents == (weights, x)
        assert T.layer_norm(x, b, b)._parents == (x, b, b)
        assert T.affine(x, w, b)._parents == (x, w, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_normaliser_reciprocal_is_row_max(self, seed):
        """The masker's relevance score `1 / sum` equals the largest softmax
        weight bit for bit, for scores up to 1e3 in magnitude with ties; the
        score op hands its mask callable those sums, with kept dims."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, size=(40, 1, 1))
        scores = rng.normal(size=(40, 6, 9)) * scale
        scores[:, :, 5:] = scores[:, :, :4]  # tied pairs, including tied maxima
        scores[:5] = np.round(scores[:5])  # integer scores: many ties
        scores[5] = 7.0  # whole rows tied
        scores = np.clip(scores, -1e3, 1e3)
        weights, sums = T._softmax_data(scores, -1)
        assert (1.0 / sums[..., 0]).tobytes() == weights.max(axis=-1).tobytes()
        seen = []
        x_q = Tensor(rng.uniform(-20.0, 20.0, size=(2, 5, 4)))  # scores up to 800
        x_k = Tensor(np.concatenate([x_q.data, x_q.data[:, :3]], axis=1))
        eye = Tensor(np.eye(4))
        T.head_softmax(x_q, eye, x_k, eye, 2, 1.0, lambda w, sums: seen.append((w, sums)))
        (w, sums), = seen
        assert sums.shape == (2, 2, 5, 1)
        assert (1.0 / sums[..., 0]).tobytes() == w.max(axis=-1).tobytes()

    def test_fused_op_shape_errors(self):
        with pytest.raises(ShapeError):
            T.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            T.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))
        x, w = Tensor(np.zeros((2, 6))), Tensor(np.zeros((6, 6)))
        with pytest.raises(ShapeError):
            T.head_softmax(x, w, x, Tensor(np.zeros((6, 4))), 2, 1.0)
        with pytest.raises(ShapeError):
            T.head_softmax(x, w, Tensor(np.zeros((3, 4))), w, 2, 1.0)
        with pytest.raises(ShapeError):
            T.head_softmax(x, w, x, w, 4, 1.0)
        with pytest.raises(ShapeError):
            T.head_mix(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 6))))
        with pytest.raises(ShapeError):
            T.head_mix(Tensor(np.zeros((4, 3, 5))), Tensor(np.zeros((5, 6))))


def _assert_same_block(fused, composite, inputs, rng):
    """`_assert_same_op`, with the values bit-identical: a block chains the
    kernels of the ops it fuses."""
    _assert_same_op(fused, composite, inputs, rng)
    assert fused().data.tobytes() == composite().data.tobytes()


def _attention_weights(rng, *shape, keep=0.7):
    """Row-stochastic weights over the last axis with some entries zeroed, as
    after masking."""
    raw = rng.random(size=shape)
    return Tensor(raw / raw.sum(axis=-1, keepdims=True) * (rng.random(size=shape) < keep),
                  requires_grad=True)


class TestFusedBlocks:
    """Each fused encoder block against the composite of ops it replaces, on
    (n, d) streams and on (K, n, d) candidate batches."""

    @pytest.mark.parametrize("lead, heads", [((), 2), ((3,), 3)])
    def test_self_attention_block(self, lead, heads):
        rng = np.random.default_rng(40)
        d = 6
        x = _leaf(rng, *lead, 4, d, scale=2.0)
        w_q, w_k, w_v, w_o = (_leaf(rng, d, d) for _ in range(4))
        gain, bias = _leaf(rng, d, shift=1.0), _leaf(rng, d)
        args = (x, w_q, w_k, w_v, w_o, gain, bias, heads, 1.0 / np.sqrt(d / heads))
        _assert_same_block(
            lambda: T.self_attention_block(*args), lambda: self_attention_composite(*args),
            [x, w_q, w_k, w_v, w_o, gain, bias], rng,
        )

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_feed_forward_block(self, lead):
        rng = np.random.default_rng(41)
        x = _leaf(rng, *lead, 4, 6)
        w1, b1 = _leaf(rng, 6, 10), _leaf(rng, 10, scale=0.5)
        w2, b2 = _leaf(rng, 10, 6), _leaf(rng, 6)
        gain, bias = _leaf(rng, 6, shift=1.0), _leaf(rng, 6)
        inputs = [x, w1, b1, w2, b2, gain, bias]
        assert (T.affine(x, w1, b1).data < 0).any()  # both elu branches are taken
        _assert_same_block(
            lambda: T.feed_forward_block(*inputs), lambda: feed_forward_composite(*inputs),
            inputs, rng,
        )

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_attend(self, lead):
        rng = np.random.default_rng(42)
        x, src = _leaf(rng, *lead, 4, 6), _leaf(rng, *lead, 5, 6)
        weights = _attention_weights(rng, *lead, 2, 4, 5)
        w_v, w_o, b_o = _leaf(rng, 6, 6), _leaf(rng, 6, 6), _leaf(rng, 6)
        inputs = [x, weights, src, w_v, w_o, b_o]
        _assert_same_block(
            lambda: T.attend(*inputs), lambda: attend_composite(*inputs), inputs, rng,
        )

    def test_cross_layer_with_shared_weights(self):
        """Both directions of a cross layer: the streams are queries, keys and
        values at once, and the Q/K projections serve both directions."""
        rng = np.random.default_rng(43)
        n1, n2, x1, x2 = (_leaf(rng, k, 6) for k in (4, 5, 4, 5))
        w_q, w_k, w_v1, w_v2, g1_w, g2_w = (_leaf(rng, 6, 6) for _ in range(6))
        g1_b, g2_b = _leaf(rng, 6), _leaf(rng, 6)
        keep12 = Tensor((rng.random(size=(2, 4, 5)) < 0.7).astype(np.float64))
        keep21 = Tensor((rng.random(size=(2, 5, 4)) < 0.7).astype(np.float64))

        def layer(op):
            a12 = T.mul(T.head_softmax(n1, w_q, n2, w_k, 2, 0.5), keep12)
            a21 = T.mul(T.head_softmax(n2, w_q, n1, w_k, 2, 0.5), keep21)
            y1 = op(x1, a12, n2, w_v2, g1_w, g1_b)
            y2 = op(x2, a21, n1, w_v1, g2_w, g2_b)
            return T.concat([y1, y2], axis=0)

        _assert_same_block(
            lambda: layer(T.attend), lambda: layer(attend_composite),
            [n1, n2, x1, x2, w_q, w_k, w_v1, w_v2, g1_w, g2_w, g1_b, g2_b], rng,
        )

    def test_blocks_record_one_node(self):
        rng = np.random.default_rng(44)
        x, w, b = _leaf(rng, 3, 4), _leaf(rng, 4, 4), _leaf(rng, 4)
        weights = _attention_weights(rng, 2, 3, 3)
        out = T.self_attention_block(x, w, w, w, w, b, b, 2, 0.5)
        assert out._parents == (x, w, w, w, w, b, b)
        assert T.feed_forward_block(x, w, b, w, b, b, b)._parents == (x, w, b, w, b, b, b)
        assert T.attend(x, weights, x, w, w, b)._parents == (x, weights, x, w, w, b)

    def test_attend_shape_errors(self):
        x, src, w, b = (Tensor(np.zeros(s)) for s in ((3, 6), (4, 6), (6, 6), (6,)))
        with pytest.raises(ShapeError):  # 6 columns do not split into 4 heads
            T.attend(x, Tensor(np.zeros((4, 3, 4))), src, w, w, b)
        with pytest.raises(ShapeError):  # weights over 5 keys, 4 source rows
            T.attend(x, Tensor(np.zeros((2, 3, 5))), src, w, w, b)
        with pytest.raises(ShapeError):  # candidate axis on the weights only
            T.attend(x, Tensor(np.zeros((2, 2, 3, 4))), src, w, w, b)
        with pytest.raises(ShapeError):  # 3 query rows update a 2-row x
            T.attend(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 3, 4))), src, w, w, b)


def _per_candidate(op, batched, shared):
    """`op` run on each slice of the `batched` tensors, stacked on a new axis."""
    count = batched[0].shape[0]
    slices = []
    for k in range(count):
        out = op(*(t[k] for t in batched), *shared)
        slices.append(T.reshape(out, (1,) + out.shape))
    return T.concat(slices, axis=0)


class TestCandidateAxis:
    """Ops on a leading candidate axis against one op per candidate slice.

    The shared weights' gradients sum over the candidates.
    """

    def test_matmul_3d_by_2d(self):
        rng = np.random.default_rng(30)
        x, w = _leaf(rng, 3, 4, 5), _leaf(rng, 5, 6)
        _assert_same_op(
            lambda: T.matmul(x, w), lambda: _per_candidate(T.matmul, [x], [w]), [x, w], rng
        )

    def test_affine(self):
        rng = np.random.default_rng(31)
        x, w, b = _leaf(rng, 4, 3, 5), _leaf(rng, 5, 2), _leaf(rng, 2)
        _assert_same_op(
            lambda: T.affine(x, w, b),
            lambda: _per_candidate(T.affine, [x], [w, b]),
            [x, w, b], rng,
        )

    @pytest.mark.parametrize("heads,n,m", [(1, 3, 4), (2, 4, 3)])
    def test_head_softmax(self, heads, n, m):
        rng = np.random.default_rng(32)
        x_q, x_k = _leaf(rng, 3, n, 6, scale=2.0), _leaf(rng, 3, m, 6, scale=2.0)
        w_q, w_k = _leaf(rng, 6, 4), _leaf(rng, 6, 4)
        _assert_same_op(
            lambda: T.head_softmax(x_q, w_q, x_k, w_k, heads, 0.7),
            lambda: _per_candidate(
                lambda q, k: T.head_softmax(q, w_q, k, w_k, heads, 0.7), [x_q, x_k], []
            ),
            [x_q, w_q, x_k, w_k], rng,
        )

    def test_head_mix(self):
        rng = np.random.default_rng(33)
        weights = _leaf(rng, 4, 2, 3, 5)
        values = _leaf(rng, 4, 5, 6)
        _assert_same_op(
            lambda: T.head_mix(weights, values),
            lambda: _per_candidate(T.head_mix, [weights, values], []),
            [weights, values], rng,
        )

    def test_broadcast_repeats_and_sums_gradient(self):
        rng = np.random.default_rng(34)
        a = _leaf(rng, 3, 5)
        _assert_same_op(
            lambda: T.broadcast(a, 4),
            lambda: T.concat([T.reshape(a, (1, 3, 5))] * 4, axis=0),
            [a], rng,
        )

    def test_shape_errors(self):
        w = Tensor(np.zeros((6, 6)))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3, 4))), w)
        with pytest.raises(ShapeError):
            T.affine(Tensor(np.zeros((2, 3, 4, 6))), w, Tensor(np.zeros(6)))
        with pytest.raises(ShapeError):
            T.head_softmax(Tensor(np.zeros((2, 3, 6))), w, Tensor(np.zeros((3, 3, 6))), w, 2, 1.0)
        with pytest.raises(ShapeError):
            T.head_softmax(Tensor(np.zeros((2, 3, 6))), w, Tensor(np.zeros((3, 6))), w, 2, 1.0)
        with pytest.raises(ShapeError):
            T.head_mix(Tensor(np.zeros((2, 2, 3, 5))), Tensor(np.zeros((3, 5, 6))))
        with pytest.raises(ShapeError):
            T.head_mix(Tensor(np.zeros((2, 2, 3, 5))), Tensor(np.zeros((5, 6))))


class TestCopyKernels:
    """concat's VJP slices `g` at running offsets; broadcast and tensor_sum's
    VJP repeat with np.repeat / np.full. Each must give the bytes of the
    np.split and np.broadcast_to(...).copy() expressions it replaced."""

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -3])
    @pytest.mark.parametrize("sizes", [(2, 1, 3), (4,)])
    def test_concat_parts_match_split(self, axis, sizes):
        rng = np.random.default_rng(40)
        base = [3, 4, 5]
        parts = []
        for n in sizes:
            base[axis] = n
            parts.append(Tensor(rng.normal(size=base), requires_grad=True))
        out = T.concat(parts, axis=axis)
        g = rng.normal(size=out.shape)
        want = np.split(g, np.cumsum([p.shape[axis] for p in parts])[:-1], axis=axis)
        got = out._vjp(g)
        for part, want_part in zip(got, want, strict=True):
            assert part.shape == want_part.shape and part.tobytes() == want_part.tobytes()
            # Views of `g`, as np.split gives: backward copies them for a leaf.
            assert part.base is not None and np.shares_memory(part, g)

    @pytest.mark.parametrize("shape", [(11, 64), (3,), ()])
    def test_broadcast_matches_broadcast_to_copy(self, shape):
        a = Tensor(np.random.default_rng(41).normal(size=shape))
        got = T.broadcast(a, 4).data
        want = np.broadcast_to(a.data, (4,) + a.shape).copy()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.base is None and not np.shares_memory(got, a.data)

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_vjp_matches_broadcast_to_copy(self, axis, keepdims):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(4, 11, 6)), requires_grad=True)
        out = T.tensor_sum(a, axis=axis, keepdims=keepdims)
        g = np.asarray(rng.normal(size=out.shape))
        (got,) = out._vjp(g)
        g2 = g if axis is None or keepdims else np.expand_dims(g, axis)
        want = np.broadcast_to(g2, a.shape).copy()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # A fresh array: backward may hand it to a leaf without a copy.
        assert got.base is None and not np.shares_memory(got, g)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


_TINY = np.finfo(np.float64).smallest_subnormal
ELU_SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, _TINY, -_TINY, 3 * _TINY, -3 * _TINY,
    np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny, -745.0, -746.0,
    1e300, -1e300, 1.0, -1.0, 0.5, -0.5, 1e-17, -1e-17,
])


class TestBranchFreeElu:
    """`_elu` takes no select on the sign; its value and VJP must keep the
    bits of the `np.where` kernel it replaces, signed zeros included."""

    @pytest.mark.parametrize("case", ["specials", "random"])
    def test_matches_select_kernel_bit_for_bit(self, case):
        rng = np.random.default_rng(43)
        if case == "specials":
            # Every special gradient against every special input.
            x, g = np.meshgrid(ELU_SPECIALS, ELU_SPECIALS, indexing="ij")
        else:
            x = rng.normal(scale=2.0, size=(4, 7, 128))
            g = rng.normal(size=x.shape)
            assert (x > 0).any() and (x < 0).any()
        with np.errstate(invalid="ignore"):  # inf * 0 in both kernels' VJPs
            want, want_vjp = elu_select(x)
            got, got_vjp = T._elu(x)
            assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(_bits(got_vjp(g)[0]), _bits(want_vjp(g)))
            out = T.elu(Tensor(x, requires_grad=True))
            assert np.array_equal(_bits(out.data), _bits(want))
            assert np.array_equal(_bits(out._vjp(g)[0]), _bits(want_vjp(g)))


class TestIndexGradient:
    def test_repeated_array_entries_accumulate(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        T.backward(T.tensor_sum(T.index(a, np.array([0, 0, 2]))))
        np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0, 0.0])

    def test_repeated_rows_match_finite_differences(self):
        rng = np.random.default_rng(44)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 2)))

        def loss():
            return T.tensor_sum(T.matmul(x[np.array([2, 0, 2, 2])], w) * x[1:2, :2])

        check_gradients(loss, [x], tol=1e-7)

    @pytest.mark.parametrize("key", [np.array([2, 0, 1]), (slice(None), np.array([1, 0]))])
    def test_permutation_gradient_scatters_into_place(self, key):
        a = Tensor(np.random.default_rng(45).normal(size=(3, 2)), requires_grad=True)
        out = T.index(a, key)
        g = np.random.default_rng(46).normal(size=out.shape)
        want = np.zeros_like(a.data)
        want[key] = g
        assert np.array_equal(_bits(out._vjp(g)[0]), _bits(want))


class TestParamStore:
    def test_same_seed_same_parameters(self):
        def build(seed):
            store = ParamStore(seed)
            store.matrix("w", 4, 5)
            store.zeros("b", (5,))
            store.row("cls", 5)
            return store

        s1, s2 = build(11), build(11)
        for name in s1.params:
            np.testing.assert_array_equal(s1.params[name].data, s2.params[name].data)

    def test_duplicate_name_rejected(self):
        store = ParamStore(0)
        store.matrix("w", 2, 2)
        with pytest.raises(ValueError, match="duplicate"):
            store.matrix("w", 2, 2)

    def test_uniform_bound(self):
        store = ParamStore(5)
        w = store.matrix("w", 30, 50)
        bound = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(w.data) <= bound)

    def test_parameter_requires_name(self):
        with pytest.raises(ValueError):
            Parameter("", np.zeros(2))

    def test_relative_error_helper(self):
        assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert relative_error(np.array([2.0]), np.array([1.0])) == 0.5
