"""Cross-aligned fusion of an anchor sequence with a tailing sequence.

The tailing sequence is rewritten in the anchor's row space: each anchor row
queries the tail, the resulting per-head weights pass through the mask
callable the model gives, and the surviving weights form linear
combinations of raw tail rows. Anchor and aligned tail are then
concatenated feature-wise and fused by one affine map. The concat-and-project
variant for ablation runs has no alignment, so no masking and no projections.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
# `scaled_scores` and `attended_values` are the composite's two halves, which
# `vector_space_transform` calls as one score op and one mix op. They stay
# importable here because the benchmark's tracer patches them by this name.
from .attention import _head_scale, attended_values, scaled_scores  # noqa: F401
from .tensor import ParamStore, Parameter, ShapeError, Tensor


@dataclass
class FusionParams:
    """Alignment projections (cross-aligned fusion only) plus the fusing affine map."""

    head_count: int
    w_q: Parameter | None
    w_k: Parameter | None
    w_f: Parameter  # (2d, d)
    b: Parameter

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d: int, head_count: int, aligned: bool):
        return cls(
            head_count=head_count,
            w_q=store.matrix(f"{prefix}.w_q", d, d) if aligned else None,
            w_k=store.matrix(f"{prefix}.w_k", d, d) if aligned else None,
            w_f=store.matrix(f"{prefix}.w_f", 2 * d, d),
            b=store.zeros(f"{prefix}.b", (d,)),
        )


def vector_space_transform(x_a: Tensor, x_t: Tensor, params: FusionParams,
                           mask=None) -> Tensor:
    """Rewrite the tail in anchor rows via masked attention over raw tail rows.

    Output row i is a per-head-subspace linear combination of the tail rows
    with the coefficients `mask` marks (see `tensor.head_softmax`) zeroed;
    row count equals the anchor's.
    """
    heads = params.head_count
    weights = T.head_softmax(x_a, params.w_q, x_t, params.w_k, heads,
                             _head_scale(x_a.shape[-1], heads), mask)
    return T.head_mix(weights, x_t)


def cross_aligned_fuse(x_a: Tensor, x_t_align: Tensor, params: FusionParams) -> Tensor:
    """Concatenate anchor and aligned tail per row, then project back to d."""
    cat = T.concat([x_a, x_t_align], axis=-1)
    return T.affine(cat, params.w_f, params.b)


def simple_concat_fuse(x_a: Tensor, x_t: Tensor, params: FusionParams) -> Tensor:
    """Concat-and-project fusion without alignment attention or masking.

    Tail row counts are reconciled by averaging consecutive groups when the
    tail is an exact multiple of the anchor (frames per clip); equal row
    counts pass straight through.
    """
    n, m = x_a.shape[-2], x_t.shape[-2]
    if m != n:
        if n == 0 or m % n != 0:
            raise ShapeError(f"cannot reconcile {m} tail rows to {n} anchor rows")
        group = m // n
        x_t = T.tensor_mean(T.reshape(x_t, x_t.shape[:-2] + (n, group, x_t.shape[-1])), axis=-2)
    cat = T.concat([x_a, x_t], axis=-1)
    return T.affine(cat, params.w_f, params.b)
