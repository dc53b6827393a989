"""Cross-aligned fusion of an anchor sequence with a tailing sequence.

The tailing sequence is rewritten in the anchor's row space: each anchor row
queries the tail, the resulting per-head weights pass through distraction
masking, and the surviving weights form linear combinations of raw tail
rows. Anchor and aligned tail are then concatenated feature-wise and fused
by one affine map. A plain concat-and-project variant without alignment or
masking is provided for ablation runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .attention import attended_values, scaled_scores
from .distraction import MaskController
from .tensor import ParamStore, Parameter, ShapeError, Tensor


@dataclass(frozen=True)
class AnchorAssignment:
    """Which stream anchors each fusion stage.

    stage1 picks between the two video streams; stage2 between the running
    fused sequence and the question; stage3 between the fused sequence and
    the answer candidate. The fused output always has the anchor's rows.
    """

    stage1: str = "motion"
    stage2: str = "fused"
    stage3: str = "answer"

    _CHOICES = {
        "stage1": ("appearance", "motion"),
        "stage2": ("fused", "question"),
        "stage3": ("fused", "answer"),
    }

    def __post_init__(self):
        for stage, choices in self._CHOICES.items():
            value = getattr(self, stage)
            if value not in choices:
                raise ValueError(f"anchor for {stage} must be one of {choices}, got {value!r}")


@dataclass
class FusionParams:
    """Dedicated alignment projections plus the fusing affine map."""

    head_count: int
    w_q: Parameter
    w_k: Parameter
    w_f: Parameter  # (2d, d)
    b: Parameter

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d: int, head_count: int):
        return cls(
            head_count=head_count,
            w_q=store.matrix(f"{prefix}.w_q", d, d),
            w_k=store.matrix(f"{prefix}.w_k", d, d),
            w_f=store.matrix(f"{prefix}.w_f", 2 * d, d),
            b=store.zeros(f"{prefix}.b", (d,)),
        )


def vector_space_transform(x_a: Tensor, x_t: Tensor, params: FusionParams,
                           d_f_fusion: float, masker: MaskController,
                           site: str = "fusion") -> Tensor:
    """Rewrite the tail in anchor rows via masked attention over raw tail rows.

    Output row i is a per-head-subspace linear combination of the tail rows
    with masked coefficients zeroed; row count equals the anchor's.
    """
    if x_a.shape[-1] != x_t.shape[-1]:
        raise ShapeError(
            f"anchor dim {x_a.shape[-1]} does not match tail dim {x_t.shape[-1]}"
        )
    attn = scaled_scores(x_a, x_t, params.w_q, params.w_k, params.head_count,
                         masker.site(d_f_fusion, site))
    return attended_values(attn, x_t)


def cross_aligned_fuse(x_a: Tensor, x_t_align: Tensor, params: FusionParams) -> Tensor:
    """Concatenate anchor and aligned tail per row, then project back to d."""
    if x_a.shape[:-1] != x_t_align.shape[:-1]:
        raise ShapeError(
            f"anchor rows {x_a.shape[:-1]} do not match aligned rows {x_t_align.shape[:-1]}"
        )
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
