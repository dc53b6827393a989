"""Dense float64 tensors with reverse-mode differentiation.

The tensor set here is intentionally small: matrix products (optionally
batched over a leading axis), elementwise arithmetic with numpy-style
broadcasting, softmax, layer normalization, ELU/ReLU, reductions, slicing,
reshaping, concatenation and a leading-axis `broadcast`. That is exactly the
vocabulary the encoder, masking and fusion stack needs, and every operation
records a vector-Jacobian closure so a single scalar `backward` call fills
in leaf gradients. Only `add`, `sub` and `mul` (and so the `+`, `-` and `*`
operators) accept a scalar or an array operand; every other op takes
Tensors. An operand of a bad shape raises ShapeError, not numpy's ValueError.

Every recorded op result carries a creation number from one module
counter. An op's operands exist before its result, so a parent is always
older than its child, and `backward` visits the graph newest first without
searching it: the creation order is already a topological order (Wengert,
CACM 1964). There is no global tape; a graph lives as long as its loss.

Every recorded op costs a fixed Python overhead, about 1.3-2.5 us over its
numpy arithmetic on a 2-vCPU VM, so the hot composites are fused into
single ops with analytic vector-Jacobian products:

- `layer_norm`: normalize, scale and shift;
- `affine`: `x @ w + b`;
- `head_softmax`: project queries and keys, split them into heads,
  score, scale and softmax over the key axis, then multiply in the keep
  factors a masking site's callable returns (it sees the weights and their
  softmax normalisers, whose reciprocals are the row maxima);
- `head_mix`: weight per-head values and merge the heads back;
- `self_attention_block`, `feed_forward_block`: the two halves of a
  self-attention encoder, each with its residual and `layer_norm`;
- `attend`: a cross-attention update, `x + affine(head_mix(...))`.

`layer_norm`, `elu`, `head_softmax` and `head_mix` are numpy kernels
(`_layer_norm`, ...) that return `(data, vjp)`: a public op records one, a
block chains several under one op, so its values equal its composite's bit
for bit. Each fused op agrees with its composite (gradients within 1e-12).

With the fusions in, tape overhead is about 8% of the tiny criterion-5
forward, and the default no-grad forward runs as fast as the tape-free numpy
forward in `bench/reference.py` (5.8-7.3 ms against 7.3-10.5 ms on that
VM). What is left is the numpy arithmetic itself: many calls on small
arrays. So the softmax and layer-norm kernels reduce with `np.add.reduce`
and `np.maximum.reduce` directly, and the kernels do their arithmetic in
place on arrays they have just made; each in-place step computes the same
values, in the same order, as the expression it replaces. No kernel selects
on the sign of an activation: on fresh activations a `np.where` on the sign
mispredicts about every other element, which doubled the ELU kernel's cost
against one repeated input (see `_elu`).

The answer stage runs all candidates at once, so token matrices may carry
one leading candidate axis: (K, n, d) instead of (n, d). `matmul` and
every fused op accept it with their weights shared across it (weight
gradients sum over it), and `broadcast` repeats a stream every candidate
shares along it.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_grad_enabled = True
_next_seq = itertools.count(1).__next__  # creation numbers of recorded op results


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A float64 ndarray plus an optional gradient tape node.

    Tensors are immutable by convention once created; the only sanctioned
    mutation is gradient accumulation on leaves and in-place parameter
    updates between steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        # `_from_op` sets these slots too, without calling __init__.
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._seq = 0  # creation number; 0 for everything `_from_op` did not record

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def is_leaf(self) -> bool:
        return not self._parents

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; all graph recording happens in the module functions.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, key):
        return index(self, key)


class Parameter(Tensor):
    """A named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        if not name:
            raise ValueError("parameter name must be nonempty")
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParamStore:
    """Creates parameters from one seeded generator and registers them by name.

    Construction order is fixed by the caller, so two stores built with the
    same seed and the same build sequence produce identical parameters.
    With `draw=False` random parameters start as zeros instead, for a model
    whose values are about to be overwritten (a checkpoint load).
    """

    def __init__(self, seed: int, draw: bool = True):
        self.rng = np.random.default_rng(seed)
        self.draw = draw
        self.params: dict[str, Parameter] = {}

    def _register(self, param: Parameter) -> Parameter:
        if param.name in self.params:
            raise ValueError(f"duplicate parameter name: {param.name}")
        self.params[param.name] = param
        return param

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Parameter:
        if not self.draw:
            return self.zeros(name, shape)
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        data = self.rng.uniform(-bound, bound, size=shape)
        return self._register(Parameter(name, data))

    def matrix(self, name: str, rows: int, cols: int) -> Parameter:
        return self.uniform(name, (rows, cols), rows, cols)

    def row(self, name: str, dim: int) -> Parameter:
        # A single learned token; fan treated as a 1 x dim map.
        return self.uniform(name, (1, dim), 1, dim)

    def zeros(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._register(Parameter(name, np.zeros(shape)))

    def ones(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._register(Parameter(name, np.ones(shape)))

    def all_parameters(self) -> list[Parameter]:
        return list(self.params.values())


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    # Built without Tensor.__init__ (about 5% of the tiny forward): op
    # results from float64 operands are already float64 arrays, and this
    # runs once per recorded op. It must set every slot __init__ sets.
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents, out._vjp, out._seq = parents, vjp, _next_seq()
    else:
        out._parents, out._vjp, out._seq = (), None, 0
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    # No reshape to the shape it has: a view would cost the leaf a copy.
    return grad if grad.shape == shape else grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from exc

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub shape mismatch: {a.shape} - {b.shape}") from exc

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}") from exc

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        return (-g,)

    return _from_op(-a.data, (a,), vjp)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the 2-D `w` in `x @ w`, summed over any leading axis of `x`."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2-D @ 2-D, 3-D @ 2-D (`b` shared across the leading
    axis) or equally batched 3-D @ 3-D."""
    ad, bd = a.data, b.data
    ok = (
        ad.ndim in (2, 3)
        and bd.ndim in (2, ad.ndim)
        and ad.shape[-1] == bd.shape[-2]
        and (bd.ndim == 2 or ad.shape[0] == bd.shape[0])
    )
    if not ok:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    data = ad @ bd

    def vjp(g):
        g_b = _weight_grad(ad, g) if bd.ndim == 2 else ad.swapaxes(-1, -2) @ g
        return g @ bd.swapaxes(-1, -2), g_b

    return _from_op(data, (a, b), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` as one op, for `x` of shape (n, k) or (K, n, k).

    `w` (k, m) and `b` are shared across the leading axis; `b` broadcasts
    over rows.
    """
    xd, wd = x.data, w.data
    if xd.ndim not in (2, 3) or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"affine shape mismatch: {xd.shape} x {wd.shape}")
    data = xd @ wd
    try:
        data += b.data
    except ValueError as exc:
        raise ShapeError(f"affine bias {b.shape} does not fit {xd.shape} x {wd.shape}") from exc

    def vjp(g):
        return (g @ wd.T if x.requires_grad else None,
                _weight_grad(xd, g) if w.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _from_op(data, (x, w, b), vjp)


def _split_heads(x: np.ndarray, head_count: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d/heads) view."""
    return x.reshape(x.shape[:-1] + (head_count, x.shape[-1] // head_count)).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, d/heads) -> (..., n, d), inverse of `_split_heads`."""
    h, n, dh = x.shape[-3:]
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (n, h * dh))


def _head_softmax(xq, wq, xk, wk, head_count: int, scale: float, mask=None):
    """The `head_softmax` kernel on arrays: (data, vjp)."""
    if not (
        xq.ndim == xk.ndim
        and xq.ndim in (2, 3)
        and wq.ndim == wk.ndim == 2
        and xq.shape[:-2] == xk.shape[:-2]
        and xq.shape[-1] == wq.shape[0]
        and xk.shape[-1] == wk.shape[0]
        and wq.shape[1] == wk.shape[1]
    ):
        raise ShapeError(
            f"head_softmax shape mismatch: {xq.shape} x {wq.shape}, {xk.shape} x {wk.shape}"
        )
    if wq.shape[1] % head_count != 0:
        raise ShapeError(f"hidden dim {wq.shape[1]} not divisible by {head_count} heads")
    qh, kh = _split_heads(xq @ wq, head_count), _split_heads(xk @ wk, head_count)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    soft, sums = _softmax_data(scores, -1)
    data = soft
    keep = None if mask is None else mask(soft, sums)
    if keep is not None:
        # All-ones factors need no test: multiplying by ones keeps every value.
        if keep.shape != soft.shape:
            raise ShapeError(f"mask shape {keep.shape} does not match weights {soft.shape}")
        data = soft * keep

    def vjp(g):
        gs = _softmax_grad(g if keep is None else g * keep, soft, -1)
        gs *= scale
        g_q = _merge_heads(gs @ kh)
        g_k = _merge_heads(gs.swapaxes(-1, -2) @ qh)
        return g_q @ wq.T, _weight_grad(xq, g_q), g_k @ wk.T, _weight_grad(xk, g_k)

    return data, vjp


def head_softmax(x_q, w_q, x_k, w_k, head_count: int, scale: float, mask=None) -> Tensor:
    """Per-head `softmax(q_h k_h^T * scale)` over the key axis, as one op.

    The projections `q = x_q @ w_q` (n, d) and `k = x_k @ w_k` (m, d) are
    split column-wise into `head_count` subspaces of d/head_count; the
    result has shape (heads, n, m). With a leading candidate axis on both
    `x_q` and `x_k`, (K, n, d) and (K, m, d), it is (K, heads, n, m).

    `mask(weights, sums)`, if given, sees the weights and their softmax
    normalisers (the row sums of the exponentials, shaped like the weights
    with a last axis of 1). A row's largest exponential is exp(0) = 1, so
    `1.0 / sums[..., 0]` is each row's largest weight, bit for bit. It
    returns keep factors, a float64 array of 0.0 and 1.0 shaped like the
    weights, or None to keep them all. The value and the gradient are
    multiplied by the factors, which the gradient treats as a constant.
    """
    data, vjp = _head_softmax(x_q.data, w_q.data, x_k.data, w_k.data, head_count, scale, mask)
    return _from_op(data, (x_q, w_q, x_k, w_k), vjp)


def _head_mix(wd, vd):
    """The `head_mix` kernel on arrays: (data, vjp)."""
    if not (
        wd.ndim in (3, 4)
        and vd.ndim == wd.ndim - 1
        and wd.shape[:-3] == vd.shape[:-2]
        and wd.shape[-1] == vd.shape[-2]
        and vd.shape[-1] % wd.shape[-3] == 0
    ):
        raise ShapeError(f"head_mix shape mismatch: {wd.shape} x {vd.shape}")
    heads = wd.shape[-3]
    vh = _split_heads(vd, heads)
    data = _merge_heads(wd @ vh)

    def vjp(g):
        gh = _split_heads(g, heads)
        return gh @ vh.swapaxes(-1, -2), _merge_heads(wd.swapaxes(-1, -2) @ gh)

    return data, vjp


def head_mix(weights: Tensor, values: Tensor) -> Tensor:
    """Mix per-head value subspaces by per-head weights and merge, as one op.

    `weights` (heads, n, m) and `values` (m, d) give an (n, d) result whose
    head-h columns are `weights[h] @ values[:, head-h columns]`; with a
    leading candidate axis on both, (K, heads, n, m) and (K, m, d), it is
    (K, n, d).
    """
    data, vjp = _head_mix(weights.data, values.data)
    return _from_op(data, (weights, values), vjp)


def self_attention_block(x, w_q, w_k, w_v, w_o, gain, bias, head_count: int, scale: float,
                         eps: float = 1e-5) -> Tensor:
    """`layer_norm(x + head_mix(head_softmax(x, w_q, x, w_k), x @ w_v) @ w_o)`
    as one op; every operand is a Tensor."""
    xd, wv, wo = x.data, w_v.data, w_o.data
    weights, softmax_vjp = _head_softmax(xd, w_q.data, xd, w_k.data, head_count, scale)
    try:
        mixed, mix_vjp = _head_mix(weights, xd @ wv)
        summed = mixed @ wo
        summed += xd
    except ValueError as exc:
        raise ShapeError(f"self_attention_block shape mismatch: x {xd.shape}, "
                         f"w_v {wv.shape}, w_o {wo.shape}") from exc
    data, norm_vjp = _layer_norm(summed, gain.data, bias.data, eps)

    def vjp(g):
        g_sum, g_gain, g_bias = norm_vjp(g)
        g_weights, g_values = mix_vjp(g_sum @ wo.T)
        g_xq, g_wq, g_xk, g_wk = softmax_vjp(g_weights)
        # x's four parts, added in the order the composite's backward adds them.
        g_x = g_sum + g_values @ wv.T + g_xq + g_xk
        return (g_x, g_wq, g_wk, _weight_grad(xd, g_values), _weight_grad(mixed, g_sum),
                g_gain, g_bias)

    return _from_op(data, (x, w_q, w_k, w_v, w_o, gain, bias), vjp)


def feed_forward_block(x, w1, b1, w2, b2, gain, bias, eps: float = 1e-5) -> Tensor:
    """`layer_norm(x + affine(elu(affine(x, w1, b1)), w2, b2))` as one op;
    every operand is a Tensor."""
    xd, wd1, wd2 = x.data, w1.data, w2.data
    try:
        pre = xd @ wd1
        pre += b1.data
        hidden, elu_vjp = _elu(pre)
        summed = hidden @ wd2
        summed += b2.data
        summed += xd
    except ValueError as exc:
        raise ShapeError(f"feed_forward_block shape mismatch: x {xd.shape}, w1 {wd1.shape}, "
                         f"b1 {b1.shape}, w2 {wd2.shape}, b2 {b2.shape}") from exc
    data, norm_vjp = _layer_norm(summed, gain.data, bias.data, eps)

    def vjp(g):
        g_sum, g_gain, g_bias = norm_vjp(g)
        (g_pre,) = elu_vjp(g_sum @ wd2.T)
        return (g_sum + g_pre @ wd1.T, _weight_grad(xd, g_pre), _unbroadcast(g_pre, b1.shape),
                _weight_grad(hidden, g_sum), _unbroadcast(g_sum, b2.shape), g_gain, g_bias)

    return _from_op(data, (x, w1, b1, w2, b2, gain, bias), vjp)


def attend(x, weights, src, w_v, w_o, b_o) -> Tensor:
    """`x + affine(head_mix(weights, src @ w_v), w_o, b_o)` as one op: the
    residual update of `x` from `src`'s values under per-head weights. Every
    operand is a Tensor."""
    sd, wv, wo = src.data, w_v.data, w_o.data
    try:
        mixed, mix_vjp = _head_mix(weights.data, sd @ wv)
        update = mixed @ wo
        update += b_o.data
    except ValueError as exc:
        raise ShapeError(f"attend shape mismatch: weights {weights.shape}, src {sd.shape}, "
                         f"w_v {wv.shape}, w_o {wo.shape}, b_o {b_o.shape}") from exc
    if update.shape != x.shape:
        raise ShapeError(f"attend update {update.shape} does not fit x {x.shape}")
    update += x.data

    def vjp(g):
        g_weights, g_values = mix_vjp(g @ wo.T)
        return (g, g_weights, g_values @ wv.T, _weight_grad(sd, g_values),
                _weight_grad(mixed, g), _unbroadcast(g, b_o.shape))

    return _from_op(update, (x, weights, src, w_v, w_o, b_o), vjp)


def broadcast(a: Tensor, count: int) -> Tensor:
    """Repeat `a` `count` times along a new leading axis, as one op.

    This gives every candidate of a batch its own copy of a stream they all
    share; the gradient sums over the new axis.
    """
    data = np.repeat(a.data[None], count, axis=0)

    def vjp(g):
        return (g.sum(axis=0),)

    return _from_op(data, (a,), vjp)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {a.shape}")
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _from_op(np.transpose(a.data, axes), (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    original = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {original} to {shape}") from exc

    def vjp(g):
        return (g.reshape(original),)

    return _from_op(data, (a,), vjp)


def index(a: Tensor, key) -> Tensor:
    """Basic (slice/int/tuple) or integer-array indexing; the gradient
    scatters back into place. An array key may repeat an entry, so its
    gradient accumulates with `np.add.at`; a basic key selects each entry
    at most once and assigns."""
    data = a.data[key]
    parts = key if isinstance(key, tuple) else (key,)
    basic = all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
                for k in parts)

    def vjp(g):
        full = np.zeros_like(a.data)
        if basic:
            full[key] = g
        else:
            np.add.at(full, key, g)
        return (full,)

    return _from_op(data, (a,), vjp)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat requires at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(
            f"concat shape mismatch along axis {axis}: {[p.shape for p in parts]}"
        ) from exc

    def vjp(g):
        # Basic slices: each part is a view of `g`, as np.split gives.
        lead = (slice(None),) * (axis % g.ndim)
        out, start = [], 0
        for p in parts:
            stop = start + p.shape[axis]
            out.append(g[lead + (slice(start, stop),)])
            start = stop
        return tuple(out)

    return _from_op(data, parts, vjp)


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"sum axis {axis} invalid for shape {a.shape}")
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.full(a.shape, g),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.repeat(g2, a.shape[axis], axis=axis),)

    return _from_op(data, (a,), vjp)


def tensor_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    total = tensor_sum(a, axis=axis, keepdims=keepdims)  # checks `axis` first
    return total * (1.0 / (a.size if axis is None else a.shape[axis]))


def pow_const(a: Tensor, exponent: float) -> Tensor:
    data = a.data ** exponent

    def vjp(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _from_op(data, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def vjp(g):
        return (g * data,)

    return _from_op(data, (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along `axis`; rows sum to one."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    data = _softmax_data(a.data, axis)[0]

    def vjp(g):
        return (_softmax_grad(g, data, axis),)

    return _from_op(data, (a,), vjp)


def _softmax_data(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-stabilized softmax along `axis`, and its normaliser (kept dims)."""
    exps = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(exps, out=exps)
    sums = np.add.reduce(exps, axis=axis, keepdims=True)
    exps /= sums
    return exps, sums


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """Gradient through softmax output `y` for output gradient `g`."""
    out = g - np.add.reduce(g * y, axis=axis, keepdims=True)
    out *= y
    return out


def _elu(xd):
    """The `elu` kernel on an array: (data, vjp).

    No select on the sign of `xd`: a select's loop mispredicts about every
    other element of a fresh activation. `negative = expm1(min(x, 0))` is
    ±0.0 wherever x >= 0 and above x elsewhere, so `maximum(negative, x)`
    is the value, and the slope `negative + 1` is exactly 1.0 where x >= 0.
    The operand order matters at x = -0.0, where `negative` is +0.0: on a
    tie of signed zeros numpy's `maximum` returns its second operand, so
    this order returns x itself, -0.0, and `maximum(x, negative)` +0.0.
    """
    negative = np.minimum(xd, 0.0)
    np.expm1(negative, out=negative)
    data = np.maximum(negative, xd)

    def vjp(g):
        return (g * (negative + 1.0),)

    return data, vjp


def elu(a: Tensor) -> Tensor:
    """x for x >= 0, exp(x) - 1 below; slope 1 from both sides at zero.

    `_elu` takes no select on the sign, which a fresh activation makes
    costly, and orders `maximum`'s operands so that elu(-0.0) is -0.0."""
    data, vjp = _elu(a.data)
    return _from_op(data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    keep = (a.data > 0.0).astype(np.float64)

    def vjp(g):
        return (g * keep,)

    return _from_op(data, (a,), vjp)


def _layer_norm(xd, gd, bd, eps: float):
    """The `layer_norm` kernel on arrays: (data, vjp)."""
    dim = xd.shape[-1]
    if gd.shape != (dim,) or bd.shape != (dim,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({dim},), got {gd.shape} and {bd.shape}"
        )
    inv_dim = 1.0 / dim
    add = np.add.reduce
    normed = xd - add(xd, axis=-1, keepdims=True) * inv_dim
    variance = add(normed * normed, axis=-1, keepdims=True)
    variance *= inv_dim
    variance += eps
    inv_std = variance ** -0.5
    normed *= inv_std
    data = normed * gd
    data += bd

    def vjp(g):
        g_normed = g * gd
        g_x = g_normed - add(g_normed, axis=-1, keepdims=True) * inv_dim
        g_x -= normed * (add(g_normed * normed, axis=-1, keepdims=True) * inv_dim)
        g_x *= inv_std
        return g_x, _unbroadcast(g * normed, gd.shape), _unbroadcast(g, bd.shape)

    return data, vjp


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each last-axis slice to zero mean / unit variance, then scale.

    One op with an analytic vector-Jacobian product, instead of the eleven
    primitive ops of the same formula.
    """
    data, vjp = _layer_norm(x.data, gain.data, bias.data, eps)
    return _from_op(data, (x, gain, bias), vjp)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's `.grad`.

    `loss` must be a scalar. Repeated calls keep accumulating on leaves;
    intermediate nodes never retain gradients, so re-running backward on the
    same graph adds exactly one more copy of the gradient.

    Op nodes are visited newest first, by creation number: every consumer of
    a node is younger than it, so all of a node's gradient parts have
    arrived when it is visited. Leaf gradients are collected and written
    only at the end, so a VJP that raises leaves every `.grad` as it was.
    A leaf that had no gradient takes its collected array as is when
    backward owns it, that is when backward summed it or a VJP computed it
    afresh; an array a VJP passed through (its own `g`) or a view is copied,
    because other nodes may hold the same memory. VJPs therefore return
    fresh arrays, `g` itself or views, never an array kept from the forward.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    pending: dict[Tensor, np.ndarray] = {}  # op nodes' gradients, summed as parts arrive
    leaves: dict[Tensor, np.ndarray] = {}
    borrowed: set[Tensor] = set()  # leaves whose collected array backward does not own
    heap: list[tuple[int, Tensor]] = []
    if loss._parents:
        pending[loss] = np.ones_like(loss.data)
        heap.append((-loss._seq, loss))
    else:
        leaves[loss] = np.ones_like(loss.data)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        node = pop(heap)[1]
        g = pending.pop(node)
        for parent, part in zip(node._parents, node._vjp(g)):
            if part is None or not parent.requires_grad:
                continue
            if parent._parents:
                held = pending.get(parent)
                if held is None:
                    pending[parent] = part
                    push(heap, (-parent._seq, parent))
                else:
                    pending[parent] = held + part
                continue
            held = leaves.get(parent)
            if held is None:
                leaves[parent] = part
                if part is g or part.base is not None:
                    borrowed.add(parent)
            else:
                leaves[parent] = held + part
                borrowed.discard(parent)
    for leaf, g in leaves.items():
        if leaf.grad is not None:
            leaf.grad = leaf.grad + g
        else:
            leaf.grad = g.copy() if leaf in borrowed else g
