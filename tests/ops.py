"""One table of tensor-op cases, and one harness per check that runs them.

A row gives its id (which starts with the check), the check, the op, its
operands (a tuple, or `args(rng)` for operands drawn from the row's `seed`:
leaf Tensors, then any plain arguments), `want` and `tol`. Each check is one
harness:

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

A test runs rows by id through `run`, and each id is named by exactly one
test. `test_tensor.py::TestOpTable` checks that, and that every public op
has a value row and a fault row, except the ops listed below.
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
}


class Row(NamedTuple):
    id: str
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


ARANGE = (Tensor(np.arange(6.0).reshape(2, 3)), Tensor(np.array([10.0, 20.0, 30.0])))
X26, W, B6 = z(2, 6), z(6, 6), z(6)
X36, SRC = z(3, 6), z(4, 6)  # attend: 3 query rows, 4 source rows

ROWS = [
    # Values against numpy oracles.
    Row("value-add-broadcast", "value", T.add, ARANGE, np.add, 0),
    *(Row(f"value-matmul-seed{s}", "value", T.matmul, lambda rng: (
        Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(3, 5)))), matmul_oracle, seed=s)
      for s in range(5)),
    Row("value-matmul-batched", "value", T.matmul, lambda rng: (
        Tensor(rng.normal(size=(3, 4, 2))), Tensor(rng.normal(size=(3, 2, 5)))),
        lambda a, b: np.stack([matmul_oracle(*pair) for pair in zip(a, b)]), seed=1),
    *(Row(row_id, "value", op, lambda rng: (
        Tensor(rng.normal(size=(4, 7)) * 5), -1), want, seed=2) for row_id, op, want in [
            ("value-softmax", T.softmax,
             lambda x, axis: np.apply_along_axis(softmax_oracle, axis, x)),
            ("value-softmax-row-sums", lambda x, axis: T.tensor_sum(T.softmax(x, axis), axis),
             lambda x, axis: np.ones(4))]),
    Row("value-softmax-large", "value", T.softmax,
        (Tensor([[1000.0, 1000.0, 999.0]]), -1), lambda x, axis: softmax_oracle(x[0])[None]),
    Row("value-elu", "value", T.elu, (Tensor([-2.0, -0.5, 0.0, 0.5, 2.0]),),
        lambda x: np.where(x >= 0, x, np.exp(x) - 1.0)),
    Row("value-relu", "value", T.relu, (Tensor([-1.0, 0.0, 2.0]),),
        lambda x: np.array([0.0, 0.0, 2.0]), 0),
    Row("value-layer_norm", "value", T.layer_norm, lambda rng: (
        Tensor(rng.normal(size=(5, 8)) * 3 + 1), Tensor(np.ones(8)), Tensor(np.zeros(8))),
        lambda x, g, b: (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        * g + b, seed=3),
    Row("value-concat", "value", T.concat,
        ([Tensor(np.ones((2, 3))), Tensor(np.zeros((4, 3)))], 0), np.concatenate, 0),
    *(Row(f"value-mean-axis-{axis}", "value", T.tensor_mean,
          (Tensor(np.arange(12.0).reshape(3, 4)), axis), lambda x, axis: x.mean(axis=axis))
      for axis in (0, None)),
    Row("value-sub", "value", T.sub, ARANGE, np.subtract, 0),
    Row("value-mul", "value", T.mul, ARANGE, np.multiply, 0),
    Row("value-transpose", "value", T.transpose,
        (Tensor(np.arange(24.0).reshape(2, 3, 4)), (2, 0, 1)), np.transpose, 0),
    Row("value-reshape", "value", T.reshape, (ARANGE[0], (3, 2)), np.reshape, 0),
    Row("value-index", "value", T.index, (Tensor(np.arange(12.0).reshape(3, 4)), (
        slice(None), np.array([2, 0, 2]))), lambda a, key: a[key], 0),
    Row("value-sum", "value", T.tensor_sum, (ARANGE[0], 1), np.sum, 0),
    Row("value-pow_const", "value", T.pow_const,
        (Tensor(np.arange(1.0, 7.0)), -0.5), np.power, 0),
    *(Row(f"{check}-{op.__name__}", check, op, lambda rng: (leaf(rng, 3, 4),), oracle, tol, seed=12)
      for op, oracle in [(T.neg, np.negative), (T.exp, np.exp)]
      for check, tol in [("value", 0), ("grads", 1e-7)]),
    # Gradients against finite differences.
    *(Row(f"grads-elu-matmul-seed{s}", "grads", lambda a, b: T.elu(T.matmul(a, b)),
          lambda rng: (leaf(rng, 3, 4), leaf(rng, 4, 2)), tol=1e-7, seed=s) for s in range(4)),
    *(Row(f"grads-softmax-seed{s}", "grads", T.softmax,
          lambda rng: (leaf(rng, 3, 5), -1), tol=1e-7, seed=s) for s in range(100, 104)),
    Row("grads-layer_norm", "grads", T.layer_norm,
        lambda rng: (leaf(rng, 2, 6), leaf(rng, 6), leaf(rng, 6)), tol=1e-6, seed=7),
    Row("grads-matmul-batched", "grads", T.matmul,
        lambda rng: (leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 3)), tol=1e-7, seed=8),
    Row("grads-index-concat-transpose-reshape", "grads", shuffled,
        lambda rng: (leaf(rng, 4, 6), Tensor(rng.normal(size=(6, 7)))), tol=1e-7, seed=9),
    Row("grads-relu-add-broadcast", "grads", lambda x, b: T.relu(x + b),
        lambda rng: (leaf(rng, 3, 4), leaf(rng, 1, 4)), tol=1e-7, seed=10),
    # Constant operands.
    *(Row(f"constant-{op.__name__}", "constant", op,
          lambda rng, shapes=shapes: [leaf(rng, *s) for s in shapes], seed=len(shapes))
      for op, shapes in [(T.affine, [(3, 2, 5), (5, 4), (4,)]), (T.mul, [(2, 4, 3), (1, 3)]),
                         (T.add, [(4, 3), (3,)]), (T.sub, [(4, 3), (4, 3)])]),
    # Fused ops and blocks against their composites.
    *(Row(f"same-layer_norm-{len(shape)}d", "same", T.layer_norm,
          lambda rng, shape=shape: (leaf(rng, *shape, scale=3.0, shift=1.0), leaf(rng, shape[-1]),
                                    leaf(rng, shape[-1])), layer_norm_composite, seed=20)
      for shape in [(5, 8), (2, 3, 6)]),
    *(Row(f"same-head_softmax-{heads}-{n}-{m}-{d}", "same",
          T.head_softmax, lambda rng, heads=heads, n=n, m=m, d=d: (
              leaf(rng, n, 7, scale=2.0), leaf(rng, 7, d), leaf(rng, m, 7, scale=2.0),
              leaf(rng, 7, d), heads, 1.0 / np.sqrt(d / heads)), head_softmax_composite, seed=21)
      for heads, n, m, d in [(1, 3, 4, 5), (2, 4, 3, 6), (3, 2, 5, 9)]),
    Row("same-head_softmax-self", "same", T.head_softmax,
        lambda rng: ((x := leaf(rng, 4, 6)), leaf(rng, 6, 6), x, leaf(rng, 6, 6), 2, 0.5),
        head_softmax_composite, seed=26),
    *(Row(f"same-head_mix-{'-'.join(map(str, s))}", "same", T.head_mix,
          partial(mixing, heads=s[0], n=s[1], m=s[2], d=s[3]), head_mix_composite, seed=22)
      for s in [(1, 3, 4, 5), (2, 4, 3, 6), (3, 2, 5, 9)]),
    Row("same-masked-attention", "same", masked_attention,
        lambda rng: (leaf(rng, 4, 6), leaf(rng, 6, 6), leaf(rng, 5, 6), leaf(rng, 6, 6),
                     leaf(rng, 5, 6), Tensor((rng.random(size=(2, 4, 5)) < 0.7) * 1.0), 2,
                     1.0 / np.sqrt(3)),
        partial(masked_attention, softmax=head_softmax_composite, mix=head_mix_composite), seed=23),
    *(Row(f"same-affine-{n}-{k}-{m}", "same", T.affine,
          lambda rng, n=n, k=k, m=m, b=b: (leaf(rng, n, k), leaf(rng, k, m), leaf(rng, *b)),
          lambda x, w, b: T.add(T.matmul(x, w), b), seed=24)
      for n, k, m, b in [(4, 3, 5, (5,)), (3, 6, 1, (1,))]),
    *(Row(f"block-self_attention_block-{len(lead) + 2}d", "block", T.self_attention_block,
          partial(self_attention, lead=lead, heads=heads), self_attention_composite, seed=40)
      for lead, heads in [((), 2), ((3,), 3)]),
    *(Row(f"block-feed_forward_block-{len(lead) + 2}d", "block", T.feed_forward_block,
          lambda rng, lead=lead: feed_forward(rng, *lead), feed_forward_composite, seed=41)
      for lead in [(), (3,)]),
    *(Row(f"block-attend-{len(lead) + 2}d", "block", T.attend,
          lambda rng, lead=lead: attending(rng, *lead), attend_composite, seed=42)
      for lead in [(), (3,)]),
    Row("block-cross-layer", "block", cross_layer, crossing,
        partial(cross_layer, attend=attend_composite), seed=43),
    Row("same-broadcast", "same", T.broadcast, lambda rng: (leaf(rng, 3, 5), 4),
        lambda a, count: T.concat([T.reshape(a, (1, 3, 5))] * count, axis=0), seed=34),
    # A candidate axis against one call per candidate slice.
    Row("slices-matmul", "slices", T.matmul,
        lambda rng: (leaf(rng, 3, 4, 5), leaf(rng, 5, 6)), (0,), seed=30),
    Row("slices-affine", "slices", T.affine,
        lambda rng: (leaf(rng, 4, 3, 5), leaf(rng, 5, 2), leaf(rng, 2)), (0,), seed=31),
    *(Row(f"slices-head_softmax-{heads}-{n}-{m}", "slices", T.head_softmax,
          lambda rng, heads=heads, n=n, m=m: (
              leaf(rng, 3, n, 6, scale=2.0), leaf(rng, 6, 4), leaf(rng, 3, m, 6, scale=2.0),
              leaf(rng, 6, 4), heads, 0.7), (0, 2), seed=32)
      for heads, n, m in [(1, 3, 4), (2, 4, 3)]),
    Row("slices-head_mix", "slices", T.head_mix,
        lambda rng: (leaf(rng, 4, 2, 3, 5), leaf(rng, 4, 5, 6)), (0, 1), seed=33),
    Row("slices-self_attention_block", "slices", T.self_attention_block,
        partial(self_attention, lead=(3,), heads=2), (0,), seed=35),
    Row("slices-feed_forward_block", "slices", T.feed_forward_block,
        lambda rng: feed_forward(rng, 3), (0,), seed=36),
    Row("slices-attend", "slices", T.attend, lambda rng: attending(rng, 3), (0, 1, 2), seed=37),
    # One tape node, whose parents are the operands.
    *(Row(f"node-{op.__name__}", "node", op, drawn(*pick), seed=seed)
      for seed, op, pick in [
          (25, T.head_softmax, ("xwxw", 2, 0.5)), (25, T.head_mix, ("ax",)),
          (25, T.layer_norm, ("xbb",)), (25, T.affine, ("xwb",)),
          (44, T.self_attention_block, ("xwwwwbb", 2, 0.5)),
          (44, T.feed_forward_block, ("xwbwbbb",)), (44, T.attend, ("xaxwwb",))]),
    # Operands of a bad shape.
    Row("fault-item", "fault", Tensor.item, (z(3),)),
    *(Row(f"fault-matmul-{case}", "fault", T.matmul, args) for case, args in [
        ("inner", (z(2, 3), z(4, 5))), ("batch", (z(2, 3, 4), z(3, 4, 5))),
        ("1-d", (z(3), z(3)))]),
    *(Row(f"fault-{case}", "fault", op, args) for case, op, args in [
        ("add", T.add, (z(2, 3), z(4))), ("sub", T.sub, (z(2, 3), z(4))),
        ("mul", T.mul, (z(2, 3), z(4))), ("reshape", T.reshape, (z(2, 3), (4,))),
        ("transpose", T.transpose, (z(2, 3), (0, 0))), ("concat-empty", T.concat, ([],)),
        ("sum-axis", T.tensor_sum, (z(2, 3), 2)), ("softmax-axis", T.softmax, (z(2, 3), -3)),
        ("layer_norm-gain", T.layer_norm, (z(2, 3), z(4), z(3))),
        ("layer_norm-bias", T.layer_norm, (z(2, 3), z(3), z(1, 3))),
        ("mean-axis", T.tensor_mean, (z(2, 3), 2))]),
    *(Row(f"fault-{case}", "fault", op, args) for case, op, args in [
        ("affine-w", T.affine, (z(2, 3), z(4, 5), z(5))),
        ("affine-b", T.affine, (z(2, 3), z(3, 5), z(4))),
        ("head_softmax-w_k", T.head_softmax, (X26, W, X26, z(6, 4), 2, 1.0)),
        ("head_softmax-x_k", T.head_softmax, (X26, W, z(3, 4), W, 2, 1.0)),
        ("head_softmax-heads", T.head_softmax, (X26, W, X26, W, 4, 1.0)),
        ("head_mix-keys", T.head_mix, (z(2, 3, 4), z(5, 6))),
        ("head_mix-heads", T.head_mix, (z(4, 3, 5), z(5, 6)))]),
    *(Row(f"fault-attend-{case}", "fault", T.attend, args) for case, args in [
        ("heads", (X36, z(4, 3, 4), SRC, W, W, B6)),  # 6 columns do not split into 4 heads
        ("keys", (X36, z(2, 3, 5), SRC, W, W, B6)),  # weights over 5 keys, 4 source rows
        ("weights-only-candidates", (X36, z(2, 2, 3, 4), SRC, W, W, B6)),
        ("query-rows", (z(2, 6), z(2, 3, 4), SRC, W, W, B6))]),  # 3 query rows, a 2-row x
    # A candidate axis that the operands do not share.
    *(Row(f"fault-{case}", "fault", op, args) for case, op, args in [
        ("matmul-candidates", T.matmul, (z(2, 3, 4), W)),
        ("affine-4-d", T.affine, (z(2, 3, 4, 6), W, B6)),
        ("head_softmax-candidates", T.head_softmax, (z(2, 3, 6), W, z(3, 3, 6), W, 2, 1.0)),
        ("head_softmax-query-only-candidates", T.head_softmax,
         (z(2, 3, 6), W, z(3, 6), W, 2, 1.0)),
        ("head_mix-candidates", T.head_mix, (z(2, 2, 3, 5), z(3, 5, 6))),
        ("head_mix-weights-only-candidates", T.head_mix, (z(2, 2, 3, 5), z(5, 6)))]),
    # A block's own weights, which the ops it chains do not check.
    *(Row(f"fault-self_attention_block-{name}", "fault", T.self_attention_block, args)
      for name, args in [("w_v", (X26, W, W, z(5, 6), W, B6, B6, 2, 0.5)),
                         ("w_o", (X26, W, W, W, z(5, 6), B6, B6, 2, 0.5))]),
    *(Row(f"fault-feed_forward_block-{name}", "fault", T.feed_forward_block, args)
      for name, args in [("w1", (X26, z(5, 10), z(10), z(10, 6), B6, B6, B6)),
                         ("b1", (X26, z(6, 10), z(9), z(10, 6), B6, B6, B6)),
                         ("w2", (X26, z(6, 10), z(10), z(9, 6), B6, B6, B6))]),
    *(Row(f"fault-attend-{name}", "fault", T.attend, args) for name, args in [
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


BY_ID = {row.id: row for row in ROWS}


def run(*ids):
    """Check the rows `ids`, each on operands drawn from its own seed."""
    for row in map(BY_ID.__getitem__, ids):
        rng = np.random.default_rng(row.seed)
        CHECKS[row.check](row, row.args(rng) if callable(row.args) else row.args, rng)
