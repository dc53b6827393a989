"""Alignment and fusion against brute-force oracles, plus the concat ablation."""

import math

import numpy as np
import pytest

from drax import tensor as T
from drax.attention import AttentionWeights, attended_values
from drax.distraction import MaskController
from drax.fusion import (
    AnchorAssignment,
    FusionParams,
    cross_aligned_fuse,
    simple_concat_fuse,
    vector_space_transform,
)
from drax.tensor import ParamStore, ShapeError, Tensor

from helpers import check_gradients, softmax_oracle


def make_params(seed, d, heads=1) -> FusionParams:
    return FusionParams.create(ParamStore(seed), "fusion", d, heads)


def alignment_oracle(x_a, x_t, params, heads):
    """Per-head: project, score, softmax, then weight raw tail subspaces."""
    d = x_a.shape[1]
    dh = d // heads
    q, k = x_a @ params.w_q.data, x_t @ params.w_k.data
    out = np.zeros((x_a.shape[0], d))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(d / heads)
        weights = np.stack([softmax_oracle(row) for row in scores])
        out[:, cols] = weights @ x_t[:, cols]
    return out


class TestVectorSpaceTransform:
    def test_masked_coefficients_form_linear_combination(self):
        # The weighting step: coefficients [0, 0.25, 0.75] pick rows 2 and 3.
        weights = Tensor(np.array([[[0.0, 0.25, 0.75]]]))
        attn = AttentionWeights(weights=weights, head_count=1, scale=1.0)
        x_t = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 4.0]])
        out = attended_values(attn, Tensor(x_t)).data
        np.testing.assert_allclose(out, [[0.25 * 0.0 + 0.75 * 4.0, 0.25 + 3.0]])

    def test_output_has_anchor_rows(self):
        rng = np.random.default_rng(0)
        params = make_params(0, 8, heads=2)
        out = vector_space_transform(
            Tensor(rng.normal(size=(2, 8))), Tensor(rng.normal(size=(5, 8))), params, 0.4,
            MaskController(),
        )
        assert out.shape == (2, 8)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_unmasked_matches_oracle(self, heads):
        rng = np.random.default_rng(10 + heads)
        d = 8
        params = make_params(20 + heads, d, heads)
        x_a, x_t = rng.normal(size=(3, d)), rng.normal(size=(6, d))
        got = vector_space_transform(Tensor(x_a), Tensor(x_t), params, 0.0, MaskController()).data
        np.testing.assert_allclose(got, alignment_oracle(x_a, x_t, params, heads), atol=1e-10)

    def test_dim_mismatch(self):
        params = make_params(1, 8)
        with pytest.raises(ShapeError):
            vector_space_transform(
                Tensor(np.zeros((2, 8))), Tensor(np.zeros((3, 6))), params, 0.0, MaskController()
            )

    def test_invalid_factor(self):
        params = make_params(2, 8)
        with pytest.raises(ValueError):
            vector_space_transform(
                Tensor(np.zeros((2, 8))), Tensor(np.zeros((3, 8))), params, 1.3, MaskController()
            )

    def test_aligned_rows_stay_in_tail_convex_hull(self):
        # Single head, no masking: each output row is a positive, sum-one
        # combination of tail rows. Recover the coefficients by least squares
        # (tail rows are independent, so the solution is unique) and check.
        rng = np.random.default_rng(3)
        d, m = 8, 4
        params = make_params(3, d, heads=1)
        for _ in range(10):
            x_a, x_t = rng.normal(size=(3, d)), rng.normal(size=(m, d))
            out = vector_space_transform(
                Tensor(x_a), Tensor(x_t), params, 0.0, MaskController()
            ).data
            for row in out:
                coeffs, residual, rank, _ = np.linalg.lstsq(x_t.T, row, rcond=None)
                assert rank == m
                np.testing.assert_allclose(x_t.T @ coeffs, row, atol=1e-8)
                assert np.all(coeffs > -1e-9)
                assert coeffs.sum() == pytest.approx(1.0, abs=1e-8)


class TestCrossAlignedFuse:
    def test_projector_recovers_anchor(self):
        rng = np.random.default_rng(4)
        d = 6
        params = make_params(4, d)
        params.w_f.data[:] = np.vstack([np.eye(d), np.zeros((d, d))])
        params.b.data[:] = 0.0
        x_a, x_t = rng.normal(size=(3, d)), rng.normal(size=(3, d))
        np.testing.assert_allclose(
            cross_aligned_fuse(Tensor(x_a), Tensor(x_t), params).data, x_a, atol=1e-12
        )

    def test_projector_recovers_tail(self):
        rng = np.random.default_rng(5)
        d = 6
        params = make_params(5, d)
        params.w_f.data[:] = np.vstack([np.zeros((d, d)), np.eye(d)])
        params.b.data[:] = 0.0
        x_a, x_t = rng.normal(size=(3, d)), rng.normal(size=(3, d))
        np.testing.assert_allclose(
            cross_aligned_fuse(Tensor(x_a), Tensor(x_t), params).data, x_t, atol=1e-12
        )

    def test_random_case_matches_concat_oracle(self):
        rng = np.random.default_rng(6)
        d = 8
        params = make_params(6, d)
        x_a, x_t = rng.normal(size=(4, d)), rng.normal(size=(4, d))
        want = np.concatenate([x_a, x_t], axis=1) @ params.w_f.data + params.b.data
        got = cross_aligned_fuse(Tensor(x_a), Tensor(x_t), params).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_row_mismatch(self):
        params = make_params(7, 4)
        with pytest.raises(ShapeError):
            cross_aligned_fuse(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))), params)

    def test_gradient_reaches_both_inputs(self):
        rng = np.random.default_rng(8)
        d = 8
        params = make_params(8, d, heads=2)
        x_a = Tensor(rng.normal(size=(3, d)), requires_grad=True)
        x_t = Tensor(rng.normal(size=(5, d)), requires_grad=True)
        readout = rng.normal(size=(3, d))

        # Freeze the fusion mask so finite differences see a fixed graph.
        live = MaskController(mode="live", record="full")
        vector_space_transform(x_a, x_t, params, 0.4, masker=live, site="fusion")
        frozen = live.frozen_masks()

        def loss():
            replay = MaskController(mode="replay", frozen=frozen)
            aligned = vector_space_transform(
                x_a, x_t, params, 0.4, masker=replay, site="fusion"
            )
            return T.tensor_sum(cross_aligned_fuse(x_a, aligned, params) * readout)

        worst = check_gradients(loss, [x_a, x_t], tol=1e-5)
        assert worst < 1e-5


class TestSimpleConcatFuse:
    def test_group_average_reconciles_frames_to_clips(self):
        rng = np.random.default_rng(9)
        d = 4
        params = make_params(9, d)
        x_a = rng.normal(size=(8, d))
        x_t = rng.normal(size=(128, d))
        got = simple_concat_fuse(Tensor(x_a), Tensor(x_t), params).data
        averaged = x_t.reshape(8, 16, d).mean(axis=1)
        want = np.concatenate([x_a, averaged], axis=1) @ params.w_f.data + params.b.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_equal_rows_pass_through(self):
        rng = np.random.default_rng(10)
        d = 4
        params = make_params(10, d)
        x_a, x_t = rng.normal(size=(5, d)), rng.normal(size=(5, d))
        want = np.concatenate([x_a, x_t], axis=1) @ params.w_f.data + params.b.data
        np.testing.assert_allclose(
            simple_concat_fuse(Tensor(x_a), Tensor(x_t), params).data, want, atol=1e-12
        )

    def test_zero_weights_leave_bias(self):
        params = make_params(11, 4)
        params.w_f.data[:] = 0.0
        params.b.data[:] = np.arange(4.0)
        out = simple_concat_fuse(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), params)
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))

    def test_irreconcilable_rows(self):
        params = make_params(12, 4)
        with pytest.raises(ShapeError):
            simple_concat_fuse(Tensor(np.zeros((3, 4))), Tensor(np.zeros((7, 4))), params)


class TestAnchorAssignment:
    def test_default_is_best_reported_direction(self):
        a = AnchorAssignment()
        assert (a.stage1, a.stage2, a.stage3) == ("motion", "fused", "answer")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stage1": "question"},
            {"stage2": "appearance"},
            {"stage3": "question"},
        ],
    )
    def test_invalid_choices(self, kwargs):
        with pytest.raises(ValueError):
            AnchorAssignment(**kwargs)

    def test_all_variants_construct(self):
        for s2 in ("fused", "question"):
            for s3 in ("fused", "answer"):
                AnchorAssignment("motion", s2, s3)
        AnchorAssignment("appearance", "fused", "answer")
