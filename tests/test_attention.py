"""Encoder behavior against per-head brute-force and hand-stepped oracles."""

import dataclasses
import math

import numpy as np
import pytest

from drax import tensor as T
from drax.attention import (
    CrossLayerParams,
    EncoderLayerParams,
    SelfAttentionParams,
    attended_values,
    cross_encoder_layer,
    run_encoder_stack,
    scaled_scores,
    self_attention_encoder,
)
from drax.distraction import MaskController
from drax.tensor import ParamStore, ShapeError, Tensor

from helpers import softmax_oracle


def tok(tokens) -> Tensor:
    return Tensor(np.asarray(tokens, dtype=np.float64))


def layer_norm_oracle(x, gain, bias, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


class TestHeadSplitting:
    """The head split/merge that the fused attention ops run."""

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for shape in [(5, 12), (2, 5, 12)]:
            x = rng.normal(size=shape)
            np.testing.assert_array_equal(T._merge_heads(T._split_heads(x, 3)), x)

    def test_subspace_layout(self):
        heads = T._split_heads(np.arange(8.0).reshape(2, 4), 2)
        # Head 0 holds the first half of each token's channels.
        np.testing.assert_array_equal(heads[0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(heads[1], [[2, 3], [6, 7]])

    def test_indivisible_dim_rejected(self):
        x, w = Tensor(np.zeros((2, 7))), Tensor(np.zeros((7, 7)))
        with pytest.raises(ShapeError, match="not divisible by 2 heads"):
            T.head_softmax(x, w, x, w, 2, 1.0)


class TestScaledScores:
    def test_single_context_is_certainty(self):
        rng = np.random.default_rng(1)
        store = ParamStore(0)
        w_q, w_k = store.matrix("wq", 8, 8), store.matrix("wk", 8, 8)
        attn = scaled_scores(
            Tensor(rng.normal(size=(1, 8))), Tensor(rng.normal(size=(1, 8))), w_q, w_k, 2
        )
        np.testing.assert_allclose(attn.weights.data, np.ones((2, 1, 1)))

    def test_identical_context_rows_uniform(self):
        rng = np.random.default_rng(2)
        store = ParamStore(1)
        w_q, w_k = store.matrix("wq", 8, 8), store.matrix("wk", 8, 8)
        x_k = Tensor(np.tile(rng.normal(size=(1, 8)), (4, 1)))
        attn = scaled_scores(Tensor(rng.normal(size=(3, 8))), x_k, w_q, w_k, 2)
        np.testing.assert_allclose(attn.weights.data, np.full((2, 3, 4), 0.25), atol=1e-12)

    def test_two_head_case_matches_subspace_oracle(self):
        rng = np.random.default_rng(3)
        d, h = 8, 2
        store = ParamStore(2)
        w_q, w_k = store.matrix("wq", d, d), store.matrix("wk", d, d)
        x_q, x_k = rng.normal(size=(3, d)), rng.normal(size=(5, d))
        attn = scaled_scores(Tensor(x_q), Tensor(x_k), w_q, w_k, h).weights.data

        q_full, k_full = x_q @ w_q.data, x_k @ w_k.data
        dh = d // h
        for head in range(h):
            cols = slice(head * dh, (head + 1) * dh)
            scores = q_full[:, cols] @ k_full[:, cols].T / math.sqrt(d / h)
            for i in range(3):
                np.testing.assert_allclose(
                    attn[head, i], softmax_oracle(scores[i]), atol=1e-10
                )

    def test_dim_mismatch(self):
        store = ParamStore(3)
        w_q, w_k = store.matrix("wq", 8, 8), store.matrix("wk", 8, 8)
        with pytest.raises(ShapeError):
            scaled_scores(Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 6))), w_q, w_k, 2)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        store = ParamStore(4)
        w_q, w_k = store.matrix("wq", 8, 8), store.matrix("wk", 8, 8)
        attn = scaled_scores(
            Tensor(rng.normal(size=(6, 8)) * 3),
            Tensor(rng.normal(size=(7, 8)) * 3),
            w_q, w_k, 4,
        )
        np.testing.assert_allclose(
            attn.weights.data.sum(axis=-1), np.ones((4, 6)), atol=1e-10
        )
        assert np.all(attn.weights.data > 0)


class TestSelfEncoder:
    @pytest.mark.parametrize("n,d", [(5, 16), (1, 8)])
    def test_shape_preserved(self, n, d):
        store = ParamStore(5)
        params = SelfAttentionParams.create(store, "enc", d, 2, 2 * d)
        out = self_attention_encoder(tok(np.random.default_rng(0).normal(size=(n, d))), params)
        assert out.shape == (n, d)
        assert np.all(np.isfinite(out.data))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        store = ParamStore(6)
        params = SelfAttentionParams.create(store, "enc", 8, 2, 16)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        out = self_attention_encoder(tok(x), params).data
        out_perm = self_attention_encoder(tok(x[perm]), params).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_zero_ffn_leaves_attention_path(self):
        rng = np.random.default_rng(7)
        store = ParamStore(7)
        p = SelfAttentionParams.create(store, "enc", 8, 2, 16)
        for dead in (p.ffn_w1, p.ffn_b1, p.ffn_w2, p.ffn_b2):
            dead.data[:] = 0.0
        x = rng.normal(size=(4, 8))
        out = self_attention_encoder(tok(x), p).data

        attn = scaled_scores(Tensor(x), Tensor(x), p.w_q, p.w_k, 2)
        msa = T.matmul(attended_values(attn, T.matmul(Tensor(x), p.w_v)), p.w_o).data
        x1 = layer_norm_oracle(x + msa, p.ln1_gain.data, p.ln1_bias.data)
        expected = layer_norm_oracle(x1, p.ln2_gain.data, p.ln2_bias.data)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_dim_mismatch(self):
        store = ParamStore(8)
        params = SelfAttentionParams.create(store, "enc", 8, 2, 16)
        with pytest.raises(ShapeError):
            self_attention_encoder(tok(np.zeros((3, 6))), params)


def swapped_params(p: CrossLayerParams) -> CrossLayerParams:
    return dataclasses.replace(
        p,
        ln1_gain=p.ln2_gain, ln1_bias=p.ln2_bias,
        ln2_gain=p.ln1_gain, ln2_bias=p.ln1_bias,
        f1_w=p.f2_w, f1_b=p.f2_b, f2_w=p.f1_w, f2_b=p.f1_b,
        w_v1=p.w_v2, w_v2=p.w_v1,
        g1_w=p.g2_w, g1_b=p.g2_b, g2_w=p.g1_w, g2_b=p.g1_b,
    )


class TestCrossEncoderLayer:
    def make(self, seed, d=8, h=2):
        store = ParamStore(seed)
        return CrossLayerParams.create(store, "cross", d, h)

    def test_zero_factor_equals_unmasked(self):
        rng = np.random.default_rng(9)
        p = self.make(9)
        s1, s2 = tok(rng.normal(size=(4, 8))), tok(rng.normal(size=(3, 8)))
        live = MaskController()
        masked1, masked2 = cross_encoder_layer(s1, s2, p, d_f=0.0, masker=live)
        assert [rec.density for rec in live.records] == [0.0, 0.0]
        off = MaskController()
        plain1, plain2 = cross_encoder_layer(s1, s2, p, d_f=None, masker=off)
        assert off.records == []
        np.testing.assert_allclose(masked1.data, plain1.data, atol=1e-12)
        np.testing.assert_allclose(masked2.data, plain2.data, atol=1e-12)

    def test_identical_streams_shared_params(self):
        rng = np.random.default_rng(10)
        p = self.make(10)
        shared = dataclasses.replace(
            p,
            ln2_gain=p.ln1_gain, ln2_bias=p.ln1_bias,
            f2_w=p.f1_w, f2_b=p.f1_b,
            w_v2=p.w_v1,
            g2_w=p.g1_w, g2_b=p.g1_b,
        )
        x = rng.normal(size=(4, 8))
        y1, y2 = cross_encoder_layer(
            tok(x), tok(x.copy()), shared, d_f=0.4, masker=MaskController()
        )
        np.testing.assert_allclose(y1.data, y2.data, atol=1e-12)

    def test_residual_with_zero_backprojection(self):
        rng = np.random.default_rng(11)
        p = self.make(11)
        for dead in (p.g1_w, p.g1_b, p.g2_w, p.g2_b):
            dead.data[:] = 0.0
        x1, x2 = rng.normal(size=(3, 8)), rng.normal(size=(5, 8))
        y1, y2 = cross_encoder_layer(
            tok(x1), tok(x2), p, d_f=0.5, masker=MaskController()
        )
        np.testing.assert_array_equal(y1.data, x1)
        np.testing.assert_array_equal(y2.data, x2)

    def test_bidirectional_swap(self):
        rng = np.random.default_rng(12)
        p = self.make(12)
        s1, s2 = tok(rng.normal(size=(4, 8))), tok(rng.normal(size=(3, 8)))
        y1, y2 = cross_encoder_layer(s1, s2, p, d_f=0.6, masker=MaskController())
        z2, z1 = cross_encoder_layer(s2, s1, swapped_params(p), d_f=0.6, masker=MaskController())
        np.testing.assert_array_equal(y1.data, z1.data)
        np.testing.assert_array_equal(y2.data, z2.data)

    def test_hand_stepped_single_head_oracle(self):
        # 2 query tokens, 2 context tokens, 1 head: every intermediate value
        # recomputed with plain numpy, including the masking step.
        rng = np.random.default_rng(14)
        d = 4
        store = ParamStore(14)
        p = CrossLayerParams.create(store, "cross", d, 1)
        x1, x2 = rng.normal(size=(2, d)), rng.normal(size=(2, d))
        d_f = 0.9

        n1 = layer_norm_oracle(x1, p.ln1_gain.data, p.ln1_bias.data) @ p.f1_w.data + p.f1_b.data
        n2 = layer_norm_oracle(x2, p.ln2_gain.data, p.ln2_bias.data) @ p.f2_w.data + p.f2_b.data

        def masked_attention(queries, keys):
            scores = (queries @ p.w_q.data) @ (keys @ p.w_k.data).T / math.sqrt(d)
            weights = np.stack([softmax_oracle(row) for row in scores])
            tau = weights.max(axis=-1, keepdims=True) * d_f
            return np.where(weights < tau, 0.0, weights)

        a12 = masked_attention(n1, n2)
        a21 = masked_attention(n2, n1)
        want1 = x1 + (a12 @ (n2 @ p.w_v2.data)) @ p.g1_w.data + p.g1_b.data
        want2 = x2 + (a21 @ (n1 @ p.w_v1.data)) @ p.g2_w.data + p.g2_b.data

        y1, y2 = cross_encoder_layer(
            tok(x1), tok(x2), p, d_f=d_f, masker=MaskController()
        )
        np.testing.assert_allclose(y1.data, want1, atol=1e-10)
        np.testing.assert_allclose(y2.data, want2, atol=1e-10)


class TestEncoderStack:
    def build(self, seed, d=8, h=2, depth=1):
        store = ParamStore(seed)
        return [EncoderLayerParams.create(store, f"stack.layer{k}", d, h, 2 * d)
                for k in range(1, depth + 1)]

    def test_depth_one_equals_manual_composition(self):
        rng = np.random.default_rng(15)
        levels = self.build(15)
        s1, s2 = tok(rng.normal(size=(4, 8))), tok(rng.normal(size=(3, 8)))
        got1, got2 = run_encoder_stack(s1, s2, levels, (0.3,), MaskController())
        layer = levels[0]
        e1 = self_attention_encoder(s1, layer.self1)
        e2 = self_attention_encoder(s2, layer.self2)
        want1, want2 = cross_encoder_layer(e1, e2, layer.cross, 0.3, MaskController())
        np.testing.assert_array_equal(got1.data, want1.data)
        np.testing.assert_array_equal(got2.data, want2.data)

    def test_depth_two_equals_chained_layers(self):
        rng = np.random.default_rng(16)
        levels = self.build(16, depth=2)
        s1, s2 = tok(rng.normal(size=(3, 8))), tok(rng.normal(size=(4, 8)))
        factors = (0.2, 0.3)
        got1, got2 = run_encoder_stack(s1, s2, levels, factors, MaskController())
        for layer, d_f in zip(levels, factors):
            s1 = self_attention_encoder(s1, layer.self1)
            s2 = self_attention_encoder(s2, layer.self2)
            s1, s2 = cross_encoder_layer(s1, s2, layer.cross, d_f, MaskController())
        np.testing.assert_array_equal(got1.data, s1.data)
        np.testing.assert_array_equal(got2.data, s2.data)

    def test_schedule_factors_reach_mask_sites(self):
        rng = np.random.default_rng(17)
        levels = self.build(17, depth=3)
        ctrl = MaskController(mode="live")
        run_encoder_stack(
            tok(rng.normal(size=(3, 8))), tok(rng.normal(size=(3, 8))),
            levels, (0.3, 0.6, 0.9), masker=ctrl,
        )
        factors = {rec.site: rec.d_f for rec in ctrl.records}
        for k, expected in ((1, 0.3), (2, 0.6), (3, 0.9)):
            assert factors[f"stack/layer{k}/into1"] == pytest.approx(expected, abs=1e-12)
            assert factors[f"stack/layer{k}/into2"] == pytest.approx(expected, abs=1e-12)

    def test_one_factor_per_level(self):
        levels = self.build(18, depth=2)
        x = tok(np.zeros((3, 8)))
        with pytest.raises(ValueError):
            run_encoder_stack(x, x, levels, (0.3,), MaskController())
        ctrl = MaskController()
        run_encoder_stack(x, x, levels, None, ctrl)
        assert ctrl.records == []

    def test_outputs_finite_across_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            levels = self.build(100 + seed)
            y1, y2 = run_encoder_stack(
                tok(rng.normal(size=(3, 8)) * 2),
                tok(rng.normal(size=(5, 8)) * 2),
                levels, (0.3,), MaskController(),
            )
            assert np.all(np.isfinite(y1.data))
            assert np.all(np.isfinite(y2.data))
