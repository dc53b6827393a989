"""Multi-head self-attention encoders and the bidirectional cross encoder.

Sequences flow through per-stream self-attention encoders, then a
cross-attention layer in which each stream queries the other. The cross
weights pass through the distraction step inside the score op, before they
touch any values, so low-relevance context positions contribute nothing to
the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as T
from .distraction import MaskController, schedule_df, sub_site
from .tensor import ParamStore, Parameter, ShapeError, Tensor


@dataclass
class AttentionWeights:
    """Row-stochastic per-head attention matrices (pre-mask)."""

    weights: Tensor  # (heads, n_query, n_context)
    head_count: int
    scale: float


def _head_scale(d: int, head_count: int) -> float:
    return 1.0 / math.sqrt(d / head_count)


def scaled_scores(x_q: Tensor, x_k: Tensor, w_q, w_k, head_count: int,
                  mask=None) -> AttentionWeights:
    """Project queries and keys, score per head, softmax over the context
    axis; `mask` (see `tensor.head_softmax`) zeroes weights in the same op."""
    d = x_q.shape[-1]
    if x_k.shape[-1] != d:
        raise ShapeError(f"query dim {d} does not match key dim {x_k.shape[-1]}")
    scale = _head_scale(d, head_count)
    weights = T.head_softmax(x_q, w_q, x_k, w_k, head_count, scale, mask)
    return AttentionWeights(weights=weights, head_count=head_count, scale=scale)


def attended_values(attn: AttentionWeights, values: Tensor) -> Tensor:
    """Weight context values per head subspace and merge back to (n, d)."""
    if attn.weights.shape[-3] != attn.head_count:
        raise ShapeError(
            f"weights carry {attn.weights.shape[-3]} heads, expected {attn.head_count}"
        )
    return T.head_mix(attn.weights, values)


@dataclass
class SelfAttentionParams:
    """One self-attention encoder: MSA projections, two norms, and the FFN."""

    head_count: int
    eps: float
    w_q: Parameter
    w_k: Parameter
    w_v: Parameter
    w_o: Parameter
    ln1_gain: Parameter
    ln1_bias: Parameter
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d: int, head_count: int, ffn_width: int,
               eps: float = 1e-5):
        return cls(
            head_count=head_count,
            eps=eps,
            w_q=store.matrix(f"{prefix}.w_q", d, d),
            w_k=store.matrix(f"{prefix}.w_k", d, d),
            w_v=store.matrix(f"{prefix}.w_v", d, d),
            w_o=store.matrix(f"{prefix}.w_o", d, d),
            ln1_gain=store.ones(f"{prefix}.ln1_gain", (d,)),
            ln1_bias=store.zeros(f"{prefix}.ln1_bias", (d,)),
            ffn_w1=store.matrix(f"{prefix}.ffn_w1", d, ffn_width),
            ffn_b1=store.zeros(f"{prefix}.ffn_b1", (ffn_width,)),
            ffn_w2=store.matrix(f"{prefix}.ffn_w2", ffn_width, d),
            ffn_b2=store.zeros(f"{prefix}.ffn_b2", (d,)),
            ln2_gain=store.ones(f"{prefix}.ln2_gain", (d,)),
            ln2_bias=store.zeros(f"{prefix}.ln2_bias", (d,)),
        )


@dataclass
class CrossLayerParams:
    """One cross layer: pre-norms, stream projections, shared Q/K, per-stream V."""

    head_count: int
    eps: float
    ln1_gain: Parameter
    ln1_bias: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter
    f1_w: Parameter
    f1_b: Parameter
    f2_w: Parameter
    f2_b: Parameter
    w_q: Parameter
    w_k: Parameter
    w_v1: Parameter
    w_v2: Parameter
    g1_w: Parameter
    g1_b: Parameter
    g2_w: Parameter
    g2_b: Parameter

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d: int, head_count: int, eps: float = 1e-5):
        return cls(
            head_count=head_count,
            eps=eps,
            ln1_gain=store.ones(f"{prefix}.ln1_gain", (d,)),
            ln1_bias=store.zeros(f"{prefix}.ln1_bias", (d,)),
            ln2_gain=store.ones(f"{prefix}.ln2_gain", (d,)),
            ln2_bias=store.zeros(f"{prefix}.ln2_bias", (d,)),
            f1_w=store.matrix(f"{prefix}.f1_w", d, d),
            f1_b=store.zeros(f"{prefix}.f1_b", (d,)),
            f2_w=store.matrix(f"{prefix}.f2_w", d, d),
            f2_b=store.zeros(f"{prefix}.f2_b", (d,)),
            w_q=store.matrix(f"{prefix}.w_q", d, d),
            w_k=store.matrix(f"{prefix}.w_k", d, d),
            w_v1=store.matrix(f"{prefix}.w_v1", d, d),
            w_v2=store.matrix(f"{prefix}.w_v2", d, d),
            g1_w=store.matrix(f"{prefix}.g1_w", d, d),
            g1_b=store.zeros(f"{prefix}.g1_b", (d,)),
            g2_w=store.matrix(f"{prefix}.g2_w", d, d),
            g2_b=store.zeros(f"{prefix}.g2_b", (d,)),
        )


@dataclass
class EncoderLayerParams:
    self1: SelfAttentionParams
    self2: SelfAttentionParams
    cross: CrossLayerParams


@dataclass
class EncoderStack:
    d: int
    head_count: int
    layers: list[EncoderLayerParams]

    @classmethod
    def create(cls, store: ParamStore, prefix: str, d: int, head_count: int, depth: int,
               ffn_width: int, eps: float = 1e-5):
        if d % head_count != 0:
            raise ShapeError(f"hidden dim {d} not divisible by {head_count} heads")
        if depth < 1:
            raise ValueError(f"encoder depth must be >= 1: {depth}")
        layers = [
            EncoderLayerParams(
                self1=SelfAttentionParams.create(
                    store, f"{prefix}.layer{k}.self1", d, head_count, ffn_width, eps
                ),
                self2=SelfAttentionParams.create(
                    store, f"{prefix}.layer{k}.self2", d, head_count, ffn_width, eps
                ),
                cross=CrossLayerParams.create(
                    store, f"{prefix}.layer{k}.cross", d, head_count, eps
                ),
            )
            for k in range(1, depth + 1)
        ]
        return cls(d=d, head_count=head_count, layers=layers)


def _with_tokens(seq, tokens: Tensor):
    # Built directly: `seq` is a model.ModalitySequence, and that module
    # imports this one.
    return type(seq)(tokens, seq.modality, seq.has_cls)


def self_attention_encoder(seq, p: SelfAttentionParams):
    """MSA -> add & norm -> feed-forward -> add & norm, as two tape ops;
    shape-preserving."""
    x = seq.tokens
    d = x.shape[-1]
    if d != p.w_q.shape[0]:
        raise ShapeError(f"token dim {d} does not match encoder dim {p.w_q.shape[0]}")
    x = T.self_attention_block(x, p.w_q, p.w_k, p.w_v, p.w_o, p.ln1_gain, p.ln1_bias,
                               p.head_count, _head_scale(d, p.head_count), p.eps)
    x = T.feed_forward_block(x, p.ffn_w1, p.ffn_b1, p.ffn_w2, p.ffn_b2, p.ln2_gain,
                             p.ln2_bias, p.eps)
    return _with_tokens(seq, x)


def cross_encoder_layer(seq1, seq2, p: CrossLayerParams, d_f: float,
                        masker: MaskController, site: str = "cross"):
    """Bidirectional masked cross-attention with residual back-projection.

    Each stream is pre-normalized, projected, and updated from the other
    stream's values using masked attention weights; queries and keys share
    projections across streams while values are per-stream.
    """
    x1, x2 = seq1.tokens, seq2.tokens
    n1 = T.affine(T.layer_norm(x1, p.ln1_gain, p.ln1_bias, p.eps), p.f1_w, p.f1_b)
    n2 = T.affine(T.layer_norm(x2, p.ln2_gain, p.ln2_bias, p.eps), p.f2_w, p.f2_b)
    a12 = scaled_scores(n1, n2, p.w_q, p.w_k, p.head_count,
                        masker.site(d_f, sub_site(site, "into1")))
    a21 = scaled_scores(n2, n1, p.w_q, p.w_k, p.head_count,
                        masker.site(d_f, sub_site(site, "into2")))
    y1 = T.attend(x1, a12.weights, n2, p.w_v2, p.g1_w, p.g1_b)
    y2 = T.attend(x2, a21.weights, n1, p.w_v1, p.g2_w, p.g2_b)
    return _with_tokens(seq1, y1), _with_tokens(seq2, y2)


def run_encoder_stack(seq1, seq2, stack: EncoderStack, d_f_initial: float, delta: float,
                      masker: MaskController, site: str = "stack"):
    """Alternate per-stream self encoders with cross layers for every level.

    The distraction factor advances by `delta` per level, starting at
    `d_f_initial` for the first cross layer; the masker decides whether the
    schedule may exceed 1. An (n, d) `seq1` beside a (K, n, d) candidate
    batch is self-encoded once, then broadcast to every candidate.
    """
    for k, layer in enumerate(stack.layers, start=1):
        seq1 = self_attention_encoder(seq1, layer.self1)
        seq2 = self_attention_encoder(seq2, layer.self2)
        if seq1.tokens.ndim < seq2.tokens.ndim:
            seq1 = _with_tokens(seq1, T.broadcast(seq1.tokens, seq2.tokens.shape[0]))
        d_f = schedule_df(d_f_initial, delta, k, allow_above_one=masker.allow_above_one)
        seq1, seq2 = cross_encoder_layer(
            seq1, seq2, layer.cross, d_f, masker, sub_site(site, f"layer{k}")
        )
    return seq1, seq2
