"""One table of tensor-op cases, and one harness per check that runs them.

A row gives the test that runs it (a pytest node id: a row that replaced a
hand-written test keeps its name), the check, the op, its operands (a tuple,
or `args(rng)` for operands drawn from the row's `seed`: leaf Tensors, then
any plain arguments), `want` and `tol`. Each check is one harness:

- `value`: `op(*operands)` against `want`, a numpy oracle of the operands'
  data, within `tol`;
- `grads`: `check_gradients` of `sum(op(*operands) * probe)` within `tol`,
  for a primitive (`op` may chain primitives);
- `same`: value and every leaf gradient against `want`, the composite of
  primitives the op fuses, within 1e-12;
- `block`: `same`, with the values bit for bit: a block chains the kernels
  of the ops it fuses;
- `slices`: `same` against one call per slice of the operands at the
  positions `want`, which carry a leading candidate axis;
- `fault`: the operands have a bad shape, and the op raises ShapeError;
- `node`: the result is one tape node whose parents are the Tensor operands;
- `constant`: each operand made constant gets no VJP part, and the other
  parts keep the bits they have with every operand requiring grad.

`test_tensor.py` places the rows (`install`) and checks that every public
op has a value row and a fault row, except the ops listed below.
"""

from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from drax import tensor as T
from drax.tensor import ShapeError, Tensor
from helpers import (
    attend_composite,
    check_gradients,
    feed_forward_composite,
    matmul_oracle,
    merge_heads,
    place,
    self_attention_composite,
    softmax_oracle,
    split_heads,
)

NOT_OPS = {T.no_grad, T.as_tensor, T.backward}  # a context, a conversion, the tape walk
NO_FAULT = {
    # Elementwise, or repeated whole: any shape is valid.
    T.neg, T.exp, T.pow_const, T.elu, T.relu, T.broadcast,
    # A key out of range is numpy's IndexError, as for any array.
    T.index,
    # An axis out of range raises IndexError before `tensor_sum` checks it.
    T.tensor_mean,
}


class Row(NamedTuple):
    test: str
    check: str
    op: Callable
    args: Any
    want: Any = None
    tol: float = 1e-12
    seed: int = 0


def leaf(rng, *shape, scale=1.0, shift=0.0):
    return Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)


def z(*shape):
    return Tensor(np.zeros(shape))


def layer_norm_composite(x, gain, bias, eps=1e-5):
    centered = T.sub(x, T.tensor_mean(x, axis=-1, keepdims=True))
    variance = T.tensor_mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = T.pow_const(T.add(variance, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv_std), gain), bias)


def head_softmax_composite(x_q, w_q, x_k, w_k, heads, scale):
    qh = split_heads(T.matmul(x_q, w_q), heads)
    kh = split_heads(T.matmul(x_k, w_k), heads)
    return T.softmax(T.mul(T.matmul(qh, T.transpose(kh, (0, 2, 1))), scale), axis=-1)


def head_mix_composite(weights, values):
    return merge_heads(T.matmul(weights, split_heads(values, weights.shape[0])))


def masked_attention(x_q, w_q, x_k, w_k, v, keep, heads, scale,
                     softmax=T.head_softmax, mix=T.head_mix):
    return mix(T.mul(softmax(x_q, w_q, x_k, w_k, heads, scale), keep), v)


def cross_layer(n1, n2, x1, x2, w_q, w_k, w_v1, w_v2, g1_w, g2_w, g1_b, g2_b, keep12, keep21,
                attend=T.attend):
    """Both directions of a cross layer: the streams are queries, keys and
    values at once, and the Q/K projections serve both directions."""
    a12 = T.mul(T.head_softmax(n1, w_q, n2, w_k, 2, 0.5), keep12)
    a21 = T.mul(T.head_softmax(n2, w_q, n1, w_k, 2, 0.5), keep21)
    return T.concat([attend(x1, a12, n2, w_v2, g1_w, g1_b), attend(x2, a21, n1, w_v1, g2_w, g2_b)])


def shuffled(x, w):
    """Index, concat, transpose and reshape, then a product."""
    merged = T.concat([x[1:3], x[0:1], x[3:]], axis=0)
    return T.matmul(T.reshape(T.transpose(merged), (4, 6)), w) * 0.5


def attention_weights(rng, *shape, keep=0.7):
    """Row-stochastic weights over the last axis with some entries zeroed, as
    after masking."""
    raw = rng.random(size=shape)
    return Tensor(raw / raw.sum(axis=-1, keepdims=True) * (rng.random(size=shape) < keep),
                  requires_grad=True)


def mixing(rng, heads, n, m, d):
    keep = rng.random(size=(heads, n, m)) < 0.6
    assert 0 < keep.sum() < keep.size  # partly zeroed
    return Tensor(rng.random(size=(heads, n, m)) * keep, requires_grad=True), leaf(rng, m, d)


def feed_forward(rng, *lead):
    x, w1, b1 = leaf(rng, *lead, 4, 6), leaf(rng, 6, 10), leaf(rng, 10, scale=0.5)
    assert (T.affine(x, w1, b1).data < 0).any()  # both elu branches are taken
    return x, w1, b1, leaf(rng, 10, 6), leaf(rng, 6), leaf(rng, 6, shift=1.0), leaf(rng, 6)


def self_attention(rng, lead, heads):
    x, weights = leaf(rng, *lead, 4, 6, scale=2.0), [leaf(rng, 6, 6) for _ in range(4)]
    return x, *weights, leaf(rng, 6, shift=1.0), leaf(rng, 6), heads, 1.0 / np.sqrt(6 / heads)


def attending(rng, *lead):
    x, src = leaf(rng, *lead, 4, 6), leaf(rng, *lead, 5, 6)
    return (x, attention_weights(rng, *lead, 2, 4, 5), src, leaf(rng, 6, 6), leaf(rng, 6, 6),
            leaf(rng, 6))


def drawn(pick, *extra):
    """Operands from leaves x (3, 4), w (4, 4) and b (4,) and attention
    weights a (2, 3, 3), in the order the letters of `pick` name them."""
    def args(rng):
        leaves = {"x": leaf(rng, 3, 4), "w": leaf(rng, 4, 4), "b": leaf(rng, 4),
                  "a": attention_weights(rng, 2, 3, 3)}
        return (*(leaves[c] for c in pick), *extra)
    return args


def crossing(rng):
    streams = [leaf(rng, k, 6) for k in (4, 5, 4, 5)]
    weights = [leaf(rng, 6, 6) for _ in range(6)]
    keep = [Tensor((rng.random(size=s) < 0.7).astype(np.float64)) for s in ((2, 4, 5), (2, 5, 4))]
    return *streams, *weights, leaf(rng, 6), leaf(rng, 6), *keep


FILE = "test_tensor.py::"
FV, SE = FILE + "TestForwardValues::", FILE + "TestShapeErrors::test_raises_shape_error"
TB, FO, FB = FILE + "TestBackward::", FILE + "TestFusedOps::", FILE + "TestFusedBlocks::"
CA, OT = FILE + "TestCandidateAxis::", FILE + "TestOpTable::"
ARANGE = (Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.array([10.0, 20.0, 30.0])))
X26, W, B6 = z(2, 6), z(6, 6), z(6)
X36, SRC = z(3, 6), z(4, 6)  # attend: 3 query rows, 4 source rows

ROWS = [
    # Values against numpy oracles.
    Row(FV + "test_add_broadcast", "value", T.add, ARANGE, np.add, 0),
    *(Row(FV + "test_matmul_matches_triple_loop", "value", T.matmul, lambda rng: (
        Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(3, 5)))), matmul_oracle, seed=s)
      for s in range(5)),
    Row(FV + "test_batched_matmul_matches_per_slice", "value", T.matmul, lambda rng: (
        Tensor(rng.normal(size=(3, 4, 2))), Tensor(rng.normal(size=(3, 2, 5)))),
        lambda a, b: np.stack([matmul_oracle(*pair) for pair in zip(a, b)]), seed=1),
    *(Row(FV + "test_softmax_rows_sum_to_one", "value", op, lambda rng: (
        Tensor(rng.normal(size=(4, 7)) * 5), -1), want, seed=2) for op, want in [
            (T.softmax, lambda x, axis: np.apply_along_axis(softmax_oracle, axis, x)),
            (lambda x, axis: T.tensor_sum(T.softmax(x, axis), axis), lambda x, axis: np.ones(4))]),
    Row(FV + "test_softmax_handles_large_values", "value", T.softmax,
        (Tensor([[1000.0, 1000.0, 999.0]]), -1), lambda x, axis: softmax_oracle(x[0])[None]),
    Row(FV + "test_elu_values", "value", T.elu, (Tensor([-2.0, -0.5, 0.0, 0.5, 2.0]),),
        lambda x: np.where(x >= 0, x, np.exp(x) - 1.0)),
    Row(FV + "test_relu_values", "value", T.relu, (Tensor([-1.0, 0.0, 2.0]),),
        lambda x: np.array([0.0, 0.0, 2.0]), 0),
    Row(FV + "test_layer_norm_zero_mean_unit_variance", "value", T.layer_norm, lambda rng: (
        Tensor(rng.normal(size=(5, 8)) * 3 + 1), Tensor(np.ones(8)), Tensor(np.zeros(8))),
        lambda x, g, b: (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        * g + b, seed=3),
    Row(FV + "test_concat_and_split_grad_shapes", "value", T.concat,
        ([Tensor(np.ones((2, 3))), Tensor(np.zeros((4, 3)))], 0), np.concatenate, 0),
    *(Row(FV + "test_mean_matches_numpy", "value", T.tensor_mean,
          (Tensor(np.arange(12.0).reshape(3, 4)), axis), lambda x, axis: x.mean(axis=axis))
      for axis in (0, None)),
    Row(OT + "test_value[sub]", "value", T.sub, ARANGE, np.subtract, 0),
    Row(OT + "test_value[mul]", "value", T.mul, ARANGE, np.multiply, 0),
    Row(OT + "test_value[transpose]", "value", T.transpose,
        (Tensor(np.arange(24.0).reshape(2, 3, 4)), (2, 0, 1)), np.transpose, 0),
    Row(OT + "test_value[reshape]", "value", T.reshape, (ARANGE[0], (3, 2)), np.reshape, 0),
    Row(OT + "test_value[index]", "value", T.index, (Tensor(np.arange(12.0).reshape(3, 4)), (
        slice(None), np.array([2, 0, 2]))), lambda a, key: a[key], 0),
    Row(OT + "test_value[sum]", "value", T.tensor_sum, (ARANGE[0], 1), np.sum, 0),
    Row(OT + "test_value[pow_const]", "value", T.pow_const,
        (Tensor(np.arange(1.0, 7.0)), -0.5), np.power, 0),
    *(Row(TB + f"test_unary_values_and_gradients[{op.__name__}]", check, op,
          lambda rng: (leaf(rng, 3, 4),), oracle, tol, seed=12)
      for op, oracle in [(T.neg, np.negative), (T.exp, np.exp)]
      for check, tol in [("value", 0), ("grads", 1e-7)]),
    # Gradients against finite differences.
    *(Row(TB + f"test_matmul_chain_gradients[{s}]", "grads", lambda a, b: T.elu(T.matmul(a, b)),
          lambda rng: (leaf(rng, 3, 4), leaf(rng, 4, 2)), tol=1e-7, seed=s) for s in range(4)),
    *(Row(TB + f"test_softmax_gradients[{s}]", "grads", T.softmax,
          lambda rng: (leaf(rng, 3, 5), -1), tol=1e-7, seed=100 + s) for s in range(4)),
    Row(TB + "test_layer_norm_gradients", "grads", T.layer_norm,
        lambda rng: (leaf(rng, 2, 6), leaf(rng, 6), leaf(rng, 6)), tol=1e-6, seed=7),
    Row(TB + "test_batched_matmul_gradients", "grads", T.matmul,
        lambda rng: (leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 3)), tol=1e-7, seed=8),
    Row(TB + "test_index_reshape_transpose_concat_gradients", "grads", shuffled,
        lambda rng: (leaf(rng, 4, 6), Tensor(rng.normal(size=(6, 7)))), tol=1e-7, seed=9),
    Row(TB + "test_broadcast_add_gradients", "grads", lambda x, b: T.relu(x + b),
        lambda rng: (leaf(rng, 3, 4), leaf(rng, 1, 4)), tol=1e-7, seed=10),
    # Constant operands.
    *(Row(FILE + f"TestConstantOperands::test_parts_match_all_grad_operands[{case}]", "constant",
          op, lambda rng, shapes=shapes: [leaf(rng, *s) for s in shapes], seed=len(shapes))
      for case, op, shapes in [
          ("affine-shapes0", T.affine, [(3, 2, 5), (5, 4), (4,)]),
          ("mul-shapes1", T.mul, [(2, 4, 3), (1, 3)]),
          ("add-shapes2", T.add, [(4, 3), (3,)]),
          ("sub-shapes3", T.sub, [(4, 3), (4, 3)])]),
    # Fused ops and blocks against their composites.
    *(Row(FO + f"test_layer_norm_matches_composite[shape{i}]", "same", T.layer_norm,
          lambda rng, shape=shape: (leaf(rng, *shape, scale=3.0, shift=1.0), leaf(rng, shape[-1]),
                                    leaf(rng, shape[-1])), layer_norm_composite, seed=20)
      for i, shape in enumerate([(5, 8), (2, 3, 6)])),
    *(Row(FO + f"test_head_softmax_matches_composite[{heads}-{n}-{m}-{d}]", "same",
          T.head_softmax, lambda rng, heads=heads, n=n, m=m, d=d: (
              leaf(rng, n, 7, scale=2.0), leaf(rng, 7, d), leaf(rng, m, 7, scale=2.0),
              leaf(rng, 7, d), heads, 1.0 / np.sqrt(d / heads)), head_softmax_composite, seed=21)
      for heads, n, m, d in [(1, 3, 4, 5), (2, 4, 3, 6), (3, 2, 5, 9)]),
    Row(FO + "test_head_softmax_self_attention_accumulates_both_uses", "same", T.head_softmax,
        lambda rng: ((x := leaf(rng, 4, 6)), leaf(rng, 6, 6), x, leaf(rng, 6, 6), 2, 0.5),
        head_softmax_composite, seed=26),
    *(Row(FO + f"test_head_mix_matches_composite_on_partly_zeroed_weights[{'-'.join(map(str, s))}]",
          "same", T.head_mix, partial(mixing, heads=s[0], n=s[1], m=s[2], d=s[3]),
          head_mix_composite, seed=22) for s in [(1, 3, 4, 5), (2, 4, 3, 6), (3, 2, 5, 9)]),
    Row(FO + "test_masked_attention_chain_matches_composite", "same", masked_attention,
        lambda rng: (leaf(rng, 4, 6), leaf(rng, 6, 6), leaf(rng, 5, 6), leaf(rng, 6, 6),
                     leaf(rng, 5, 6), Tensor((rng.random(size=(2, 4, 5)) < 0.7) * 1.0), 2,
                     1.0 / np.sqrt(3)),
        partial(masked_attention, softmax=head_softmax_composite, mix=head_mix_composite), seed=23),
    *(Row(FO + f"test_affine_matches_composite[{n}-{k}-{m}-bias_shape{i}]", "same", T.affine,
          lambda rng, n=n, k=k, m=m, b=b: (leaf(rng, n, k), leaf(rng, k, m), leaf(rng, *b)),
          lambda x, w, b: T.add(T.matmul(x, w), b), seed=24)
      for i, (n, k, m, b) in enumerate([(4, 3, 5, (5,)), (3, 6, 1, (1,))])),
    *(Row(FB + f"test_self_attention_block[lead{i}-{heads}]", "block", T.self_attention_block,
          partial(self_attention, lead=lead, heads=heads), self_attention_composite, seed=40)
      for i, (lead, heads) in enumerate([((), 2), ((3,), 3)])),
    *(Row(FB + f"test_feed_forward_block[lead{i}]", "block", T.feed_forward_block,
          lambda rng, lead=lead: feed_forward(rng, *lead), feed_forward_composite, seed=41)
      for i, lead in enumerate([(), (3,)])),
    *(Row(FB + f"test_attend[lead{i}]", "block", T.attend,
          lambda rng, lead=lead: attending(rng, *lead), attend_composite, seed=42)
      for i, lead in enumerate([(), (3,)])),
    Row(FB + "test_cross_layer_with_shared_weights", "block", cross_layer, crossing,
        partial(cross_layer, attend=attend_composite), seed=43),
    Row(CA + "test_broadcast_repeats_and_sums_gradient", "same", T.broadcast,
        lambda rng: (leaf(rng, 3, 5), 4),
        lambda a, count: T.concat([T.reshape(a, (1, 3, 5))] * count, axis=0), seed=34),
    # A candidate axis against one call per candidate slice.
    Row(CA + "test_matmul_3d_by_2d", "slices", T.matmul,
        lambda rng: (leaf(rng, 3, 4, 5), leaf(rng, 5, 6)), (0,), seed=30),
    Row(CA + "test_affine", "slices", T.affine,
        lambda rng: (leaf(rng, 4, 3, 5), leaf(rng, 5, 2), leaf(rng, 2)), (0,), seed=31),
    *(Row(CA + f"test_head_softmax[{heads}-{n}-{m}]", "slices", T.head_softmax,
          lambda rng, heads=heads, n=n, m=m: (
              leaf(rng, 3, n, 6, scale=2.0), leaf(rng, 6, 4), leaf(rng, 3, m, 6, scale=2.0),
              leaf(rng, 6, 4), heads, 0.7), (0, 2), seed=32)
      for heads, n, m in [(1, 3, 4), (2, 4, 3)]),
    Row(CA + "test_head_mix", "slices", T.head_mix,
        lambda rng: (leaf(rng, 4, 2, 3, 5), leaf(rng, 4, 5, 6)), (0, 1), seed=33),
    Row(OT + "test_slices[self_attention_block]", "slices", T.self_attention_block,
        partial(self_attention, lead=(3,), heads=2), (0,), seed=35),
    Row(OT + "test_slices[feed_forward_block]", "slices", T.feed_forward_block,
        lambda rng: feed_forward(rng, 3), (0,), seed=36),
    Row(OT + "test_slices[attend]", "slices", T.attend,
        lambda rng: attending(rng, 3), (0, 1, 2), seed=37),
    # One tape node, whose parents are the operands.
    *(Row(FO + "test_fused_ops_record_one_node", "node", op, drawn(*pick), seed=25)
      for op, pick in [(T.head_softmax, ("xwxw", 2, 0.5)), (T.head_mix, ("ax",)),
                       (T.layer_norm, ("xbb",)), (T.affine, ("xwb",))]),
    *(Row(FB + "test_blocks_record_one_node", "node", op, drawn(*pick), seed=44)
      for op, pick in [(T.self_attention_block, ("xwwwwbb", 2, 0.5)),
                       (T.feed_forward_block, ("xwbwbbb",)), (T.attend, ("xaxwwb",))]),
    # Operands of a bad shape.
    Row(FV + "test_item_requires_scalar", "fault", Tensor.item, (z(3),)),
    *(Row(FV + "test_matmul_shape_errors", "fault", T.matmul, args)
      for args in [(z(2, 3), z(4, 5)), (z(2, 3, 4), z(3, 4, 5)), (z(3), z(3))]),
    *(Row(SE + f"[{case}]", "fault", op, args) for case, op, args in [
        ("add", T.add, (z(2, 3), z(4))), ("sub", T.sub, (z(2, 3), z(4))),
        ("mul", T.mul, (z(2, 3), z(4))), ("reshape", T.reshape, (z(2, 3), (4,))),
        ("transpose", T.transpose, (z(2, 3), (0, 0))), ("concat-empty", T.concat, ([],)),
        ("sum-axis", T.tensor_sum, (z(2, 3), 2)), ("softmax-axis", T.softmax, (z(2, 3), -3)),
        ("layer_norm-gain", T.layer_norm, (z(2, 3), z(4), z(3))),
        ("layer_norm-bias", T.layer_norm, (z(2, 3), z(3), z(1, 3)))]),
    *(Row(FO + "test_fused_op_shape_errors", "fault", op, args) for op, args in [
        (T.affine, (z(2, 3), z(4, 5), z(5))), (T.affine, (z(2, 3), z(3, 5), z(4))),
        (T.head_softmax, (X26, W, X26, z(6, 4), 2, 1.0)),
        (T.head_softmax, (X26, W, z(3, 4), W, 2, 1.0)),
        (T.head_softmax, (X26, W, X26, W, 4, 1.0)),
        (T.head_mix, (z(2, 3, 4), z(5, 6))), (T.head_mix, (z(4, 3, 5), z(5, 6)))]),
    *(Row(FB + "test_attend_shape_errors", "fault", T.attend, args) for args in [
        (X36, z(4, 3, 4), SRC, W, W, B6),  # 6 columns do not split into 4 heads
        (X36, z(2, 3, 5), SRC, W, W, B6),  # weights over 5 keys, 4 source rows
        (X36, z(2, 2, 3, 4), SRC, W, W, B6),  # candidate axis on the weights only
        (z(2, 6), z(2, 3, 4), SRC, W, W, B6)]),  # 3 query rows update a 2-row x
    *(Row(CA + "test_shape_errors", "fault", op, args) for op, args in [
        (T.matmul, (z(2, 3, 4), W)), (T.affine, (z(2, 3, 4, 6), W, B6)),
        (T.head_softmax, (z(2, 3, 6), W, z(3, 3, 6), W, 2, 1.0)),
        (T.head_softmax, (z(2, 3, 6), W, z(3, 6), W, 2, 1.0)),
        (T.head_mix, (z(2, 2, 3, 5), z(3, 5, 6))), (T.head_mix, (z(2, 2, 3, 5), z(5, 6)))]),
    # A block's own weights, which the ops it chains do not check.
    *(Row(OT + f"test_fault[self_attention_block-{name}]", "fault", T.self_attention_block,
          args) for name, args in [("w_v", (X26, W, W, z(5, 6), W, B6, B6, 2, 0.5)),
                                   ("w_o", (X26, W, W, W, z(5, 6), B6, B6, 2, 0.5))]),
    *(Row(OT + f"test_fault[feed_forward_block-{name}]", "fault", T.feed_forward_block, args)
      for name, args in [("w1", (X26, z(5, 10), z(10), z(10, 6), B6, B6, B6)),
                         ("b1", (X26, z(6, 10), z(9), z(10, 6), B6, B6, B6)),
                         ("w2", (X26, z(6, 10), z(10), z(9, 6), B6, B6, B6))]),
    *(Row(OT + f"test_fault[attend-{name}]", "fault", T.attend, args) for name, args in [
        ("w_v", (X36, z(2, 3, 4), SRC, z(5, 6), W, B6)),
        ("w_o", (X36, z(2, 3, 4), SRC, W, z(5, 6), B6)),
        ("b_o", (X36, z(2, 3, 4), SRC, W, W, z(5)))]),
]


def _data(a):
    return a.data if isinstance(a, Tensor) else [_data(p) for p in a] if isinstance(a, list) else a


def _leaves(args):
    """The operands that require grad, each once."""
    return list({id(a): a for a in args if isinstance(a, Tensor) and a.requires_grad}.values())


def value(row, args, rng):
    got = row.op(*args).data
    np.testing.assert_allclose(got, row.want(*map(_data, args)), rtol=0, atol=row.tol)


def grads(row, args, rng):
    probe = Tensor(rng.normal(size=row.op(*args).shape))
    check_gradients(lambda: T.tensor_sum(T.mul(row.op(*args), probe)), _leaves(args), tol=row.tol)


def _value_and_grads(build, leaves, probe):
    """Output data and every leaf gradient of sum(build() * probe)."""
    for t in leaves:
        t.zero_grad()
    out = build()
    T.backward(T.tensor_sum(T.mul(out, Tensor(probe))))
    return [out.data.copy(), *(t.grad.copy() for t in leaves)]


def same(row, args, rng, composite=None):
    leaves = _leaves(args)
    composite = composite or (lambda: row.want(*args))
    probe = rng.normal(size=row.op(*args).shape)
    got = _value_and_grads(lambda: row.op(*args), leaves, probe)
    want = _value_and_grads(composite, leaves, probe)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    if row.check == "block":
        assert got[0].tobytes() == want[0].tobytes()


def slices(row, args, rng):
    def one_per_slice():
        outs = [row.op(*(a[k] if i in row.want else a for i, a in enumerate(args)))
                for k in range(args[row.want[0]].shape[0])]
        return T.concat([T.reshape(out, (1, *out.shape)) for out in outs], axis=0)
    same(row, args, rng, one_per_slice)


def fault(row, args, rng):
    with pytest.raises(ShapeError):
        row.op(*args)


def node(row, args, rng):
    assert row.op(*args)._parents == tuple(a for a in args if isinstance(a, Tensor))


def constant(row, args, rng):
    arrays = [a.data for a in args]
    full = row.op(*(Tensor(a, requires_grad=True) for a in arrays))
    g = rng.normal(size=full.shape)
    want = full._vjp(g)
    for k in range(len(arrays)):
        parts = row.op(*(Tensor(a, requires_grad=i != k) for i, a in enumerate(arrays)))._vjp(g)
        for i, (part, expected) in enumerate(zip(parts, want, strict=True)):
            assert part is None if i == k else part.tobytes() == expected.tobytes()


CHECKS = {"value": value, "grads": grads, "same": same, "block": same, "slices": slices,
          "fault": fault, "node": node, "constant": constant}


def check(row, request=None):
    rng = np.random.default_rng(row.seed)
    CHECKS[row.check](row, row.args(rng) if callable(row.args) else row.args, rng)


def install(namespace):
    """Place the rows on `test_tensor.py`, whose globals are `namespace`
    (`helpers.place`); every row names a test of it."""
    assert len(place(namespace, ROWS, check)) == len(ROWS), "a row names another module"
