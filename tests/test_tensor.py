"""Tensor-core tests. Each op's value, gradient, candidate-axis, shape-fault,
tape-node and constant-operand cases are rows of `ops.py`, which the tests
here run by id (`ops.run`); the other tests check one thing each that is not
a single op's row."""

import inspect

import numpy as np
import pytest

from drax import tensor as T
from drax.tensor import ParamStore, Parameter, ShapeError, Tensor

import ops
from helpers import (
    assert_each_row_named_once,
    check_gradients,
    elu_select,
    finite_difference,
    reference_backward,
    relative_error,
)
from ops import NO_FAULT, NOT_OPS, ROWS, leaf


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

    def test_loss_without_grad_leaves_gradients(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        T.backward(T.tensor_sum(x * x))
        before = x.grad.copy()
        with T.no_grad():
            loss = T.tensor_sum(x * y)
        assert not loss.requires_grad
        assert T.backward(loss) is None
        assert x.grad.tobytes() == before.tobytes() and y.grad is None

    def test_grad_against_manual_finite_difference(self):
        # Direct use of the helper on a fresh array, independent of check_gradients.
        x = np.array([[0.3, -0.2], [0.1, 0.4]])

        def value():
            return float(np.sum(np.tanh(x)))

        fd = finite_difference(value, x)
        np.testing.assert_allclose(fd, 1.0 / np.cosh(x) ** 2, atol=1e-6)

    @pytest.mark.parametrize("rows", [("value-neg", "grads-neg"), ("value-exp", "grads-exp")],
                             ids=lambda rows: rows[0].removeprefix("value-"))
    def test_unary_values_and_gradients(self, rows):
        ops.run(*rows)

    @pytest.mark.parametrize("row", [
        "grads-elu-matmul-seed0", "grads-elu-matmul-seed1", "grads-elu-matmul-seed2",
        "grads-elu-matmul-seed3",
    ], ids=lambda row: row.removeprefix("grads-elu-matmul-seed"))
    def test_matmul_chain_gradients(self, row):
        ops.run(row)

    @pytest.mark.parametrize("row", [
        "grads-softmax-seed100", "grads-softmax-seed101", "grads-softmax-seed102",
        "grads-softmax-seed103",
    ], ids=["0", "1", "2", "3"])
    def test_softmax_gradients(self, row):
        ops.run(row)

    def test_layer_norm_gradients(self):
        ops.run("grads-layer_norm")

    def test_batched_matmul_gradients(self):
        ops.run("grads-matmul-batched")

    def test_index_reshape_transpose_concat_gradients(self):
        ops.run("grads-index-concat-transpose-reshape")

    def test_broadcast_add_gradients(self):
        ops.run("grads-relu-add-broadcast")


class TestForwardValues:
    def test_add_broadcast(self):
        ops.run("value-add-broadcast")

    def test_matmul_matches_triple_loop(self):
        ops.run("value-matmul-seed0", "value-matmul-seed1", "value-matmul-seed2",
                "value-matmul-seed3", "value-matmul-seed4")

    def test_batched_matmul_matches_per_slice(self):
        ops.run("value-matmul-batched")

    def test_softmax_rows_sum_to_one(self):
        ops.run("value-softmax", "value-softmax-row-sums")

    def test_softmax_handles_large_values(self):
        ops.run("value-softmax-large")

    def test_elu_values(self):
        ops.run("value-elu")

    def test_relu_values(self):
        ops.run("value-relu")

    def test_layer_norm_zero_mean_unit_variance(self):
        ops.run("value-layer_norm")

    def test_concat_and_split_grad_shapes(self):
        ops.run("value-concat")

    def test_mean_matches_numpy(self):
        ops.run("value-mean-axis-0", "value-mean-axis-None")

    def test_item_requires_scalar(self):
        ops.run("fault-item")

    def test_matmul_shape_errors(self):
        ops.run("fault-matmul-inner", "fault-matmul-batch", "fault-matmul-1-d")


class TestShapeErrors:
    @pytest.mark.parametrize("row", [
        "fault-add", "fault-sub", "fault-mul", "fault-reshape", "fault-transpose",
        "fault-concat-empty", "fault-sum-axis", "fault-softmax-axis", "fault-layer_norm-gain",
        "fault-layer_norm-bias", "fault-mean-axis",
    ], ids=lambda row: row.removeprefix("fault-"))
    def test_raises_shape_error(self, row):
        ops.run(row)


class TestConstantOperands:
    @pytest.mark.parametrize("row", [
        "constant-affine", "constant-mul", "constant-add", "constant-sub",
    ], ids=["affine-shapes0", "mul-shapes1", "add-shapes2", "sub-shapes3"])
    def test_parts_match_all_grad_operands(self, row):
        ops.run(row)

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
        x, w = leaf(rng, 3, 4), leaf(rng, 4, 4)
        b = leaf(rng, 4)

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
        x, w = leaf(rng, 2, 3), leaf(rng, 3, 3)
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
        x, w = leaf(rng, 2, 3), leaf(rng, 3, 2)

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


class TestFusedOps:
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

    @pytest.mark.parametrize("row", ["same-layer_norm-2d", "same-layer_norm-3d"],
                             ids=["shape0", "shape1"])
    def test_layer_norm_matches_composite(self, row):
        ops.run(row)

    @pytest.mark.parametrize("row", [
        "same-head_softmax-1-3-4-5", "same-head_softmax-2-4-3-6", "same-head_softmax-3-2-5-9",
    ], ids=lambda row: row.removeprefix("same-head_softmax-"))
    def test_head_softmax_matches_composite(self, row):
        ops.run(row)

    def test_head_softmax_self_attention_accumulates_both_uses(self):
        ops.run("same-head_softmax-self")

    @pytest.mark.parametrize("row", [
        "same-head_mix-1-3-4-5", "same-head_mix-2-4-3-6", "same-head_mix-3-2-5-9",
    ], ids=lambda row: row.removeprefix("same-head_mix-"))
    def test_head_mix_matches_composite_on_partly_zeroed_weights(self, row):
        ops.run(row)

    def test_masked_attention_chain_matches_composite(self):
        ops.run("same-masked-attention")

    @pytest.mark.parametrize("row", ["same-affine-4-3-5", "same-affine-3-6-1"],
                             ids=["4-3-5-bias_shape0", "3-6-1-bias_shape1"])
    def test_affine_matches_composite(self, row):
        ops.run(row)

    def test_fused_ops_record_one_node(self):
        ops.run("node-head_softmax", "node-head_mix", "node-layer_norm", "node-affine")

    def test_fused_op_shape_errors(self):
        ops.run("fault-affine-w", "fault-affine-b", "fault-head_softmax-w_k",
                "fault-head_softmax-x_k", "fault-head_softmax-heads", "fault-head_mix-keys",
                "fault-head_mix-heads")


class TestFusedBlocks:
    @pytest.mark.parametrize("row", [
        "block-self_attention_block-2d", "block-self_attention_block-3d",
    ], ids=["lead0-2", "lead1-3"])
    def test_self_attention_block(self, row):
        ops.run(row)

    @pytest.mark.parametrize("row", [
        "block-feed_forward_block-2d", "block-feed_forward_block-3d",
    ], ids=["lead0", "lead1"])
    def test_feed_forward_block(self, row):
        ops.run(row)

    @pytest.mark.parametrize("row", ["block-attend-2d", "block-attend-3d"],
                             ids=["lead0", "lead1"])
    def test_attend(self, row):
        ops.run(row)

    def test_cross_layer_with_shared_weights(self):
        ops.run("block-cross-layer")

    def test_blocks_record_one_node(self):
        ops.run("node-self_attention_block", "node-feed_forward_block", "node-attend")

    def test_attend_shape_errors(self):
        ops.run("fault-attend-heads", "fault-attend-keys", "fault-attend-weights-only-candidates",
                "fault-attend-query-rows")


class TestCandidateAxis:
    def test_broadcast_repeats_and_sums_gradient(self):
        ops.run("same-broadcast")

    def test_matmul_3d_by_2d(self):
        ops.run("slices-matmul")

    def test_affine(self):
        ops.run("slices-affine")

    @pytest.mark.parametrize("row", ["slices-head_softmax-1-3-4", "slices-head_softmax-2-4-3"],
                             ids=lambda row: row.removeprefix("slices-head_softmax-"))
    def test_head_softmax(self, row):
        ops.run(row)

    def test_head_mix(self):
        ops.run("slices-head_mix")

    def test_shape_errors(self):
        ops.run("fault-matmul-candidates", "fault-affine-4-d", "fault-head_softmax-candidates",
                "fault-head_softmax-query-only-candidates", "fault-head_mix-candidates",
                "fault-head_mix-weights-only-candidates")

class TestOpTable:
    def test_every_op_has_a_value_row_and_a_fault_row(self):
        """A public op of `drax.tensor` without a value row (an oracle or a
        composite) or a fault row fails here, unless `ops.NO_FAULT` says
        why it has no fault row."""
        ops = {f for name, f in vars(T).items() if inspect.isfunction(f)
               and f.__module__ == T.__name__ and not name.startswith("_")}
        assert NOT_OPS | NO_FAULT <= ops
        ops -= NOT_OPS
        valued = {row.op for row in ROWS if row.check in ("value", "same", "block")}
        faulted = {row.op for row in ROWS if row.check == "fault"} | NO_FAULT
        assert sorted(f.__name__ for f in ops - valued) == []
        assert sorted(f.__name__ for f in ops - faulted) == []

    def test_every_row_is_named_once(self):
        """Each row of `ops.ROWS` runs: exactly one test names its id."""
        assert_each_row_named_once(ROWS)

    @pytest.mark.parametrize("row", [
        "value-sub", "value-mul", "value-transpose", "value-reshape", "value-index", "value-sum",
        "value-pow_const",
    ], ids=lambda row: row.removeprefix("value-"))
    def test_value(self, row):
        ops.run(row)

    @pytest.mark.parametrize("row", [
        "slices-self_attention_block", "slices-feed_forward_block", "slices-attend",
    ], ids=lambda row: row.removeprefix("slices-"))
    def test_slices(self, row):
        ops.run(row)

    @pytest.mark.parametrize("row", [
        "fault-self_attention_block-w_v", "fault-self_attention_block-w_o",
        "fault-feed_forward_block-w1", "fault-feed_forward_block-b1",
        "fault-feed_forward_block-w2", "fault-attend-w_v", "fault-attend-w_o", "fault-attend-b_o",
    ], ids=lambda row: row.removeprefix("fault-"))
    def test_fault(self, row):
        ops.run(row)

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
