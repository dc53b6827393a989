"""Masking semantics: thresholds, strictness, schedules, and the controller."""

import numpy as np
import pytest

from drax import distraction as D
from drax import tensor as T
from drax.attention import AttentionWeights
from drax.data import SyntheticSpec, generate_synthetic
from drax.distraction import (
    DistractionMask,
    MaskController,
    apply_mask,
    distraction_mask,
    identify_distractions,
    relevance_scores,
    schedule_df,
    threshold,
)
from drax.model import DraxConfig, DraxModel
from drax.tensor import ShapeError, Tensor


def make_attn(weights) -> AttentionWeights:
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, None, :]
    elif arr.ndim == 2:
        arr = arr[:, None, :]
    return AttentionWeights(weights=Tensor(arr), head_count=arr.shape[0], scale=1.0)


def random_row_stochastic(rng, heads, n_q, n_ctx) -> AttentionWeights:
    raw = rng.exponential(size=(heads, n_q, n_ctx))
    return make_attn(raw / raw.sum(axis=-1, keepdims=True))


class TestRelevanceAndThreshold:
    def test_row_max(self):
        np.testing.assert_allclose(relevance_scores(make_attn([0.5, 0.3, 0.2])), [[0.5]])

    def test_single_context(self):
        np.testing.assert_allclose(relevance_scores(make_attn([1.0])), [[1.0]])

    def test_per_head_max(self):
        rho = relevance_scores(make_attn([[0.7, 0.3], [0.4, 0.6]]))
        np.testing.assert_allclose(rho, [[0.7], [0.6]])

    def test_empty_context_rejected(self):
        with pytest.raises(ShapeError):
            relevance_scores(make_attn(np.zeros((1, 1, 0))))

    def test_threshold_scaling(self):
        np.testing.assert_allclose(threshold(np.array([[0.5]]), 0.3), [[0.15]])
        np.testing.assert_allclose(threshold(np.array([[0.9], [0.1]]), 0.0), [[0.0], [0.0]])
        np.testing.assert_allclose(threshold(np.array([[0.6]]), 0.9), [[0.54]])

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_threshold_range(self, bad):
        with pytest.raises(ValueError):
            threshold(np.array([[0.5]]), bad)

    def test_threshold_above_one_opt_in(self):
        np.testing.assert_allclose(
            threshold(np.array([[0.5]]), 1.2, allow_above_one=True), [[0.6]]
        )


class TestDistractionMask:
    def test_below_threshold_masked(self):
        attn = make_attn([0.5, 0.3, 0.2])
        dm = distraction_mask(attn, np.array([[0.25]]))
        np.testing.assert_array_equal(dm.mask, [[[False, False, True]]])

    def test_equality_survives(self):
        attn = make_attn([0.5, 0.3, 0.2])
        dm = distraction_mask(attn, np.array([[0.5]]))
        np.testing.assert_array_equal(dm.mask, [[[False, True, True]]])

    def test_uniform_rows_never_masked(self):
        attn = make_attn([1 / 3, 1 / 3, 1 / 3])
        for d_f in (0.0, 0.5, 1.0):
            dm = identify_distractions(attn, d_f)
            assert not dm.mask.any()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distraction_mask(make_attn([0.5, 0.5]), np.zeros((2, 3)))

    def test_identify_records_factor_and_rho(self):
        dm = identify_distractions(make_attn([0.5, 0.3, 0.2]), 0.5)
        assert dm.d_f == 0.5
        np.testing.assert_allclose(dm.rho, [[0.5]])
        np.testing.assert_allclose(dm.threshold, dm.rho * 0.5)


class TestApplyMask:
    def test_masked_entries_zero_survivors_unchanged(self):
        attn = make_attn([0.5, 0.3, 0.2])
        masked = apply_mask(attn, np.array([[[False, False, True]]]))
        np.testing.assert_array_equal(masked.weights.data, [[[0.5, 0.3, 0.0]]])

    def test_all_false_mask_is_identity_object(self):
        attn = make_attn([0.5, 0.5])
        assert apply_mask(attn, np.zeros((1, 1, 2), dtype=bool)) is attn

    def test_row_sum_drops_by_masked_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            attn = random_row_stochastic(rng, heads=2, n_q=3, n_ctx=6)
            dm = identify_distractions(attn, 0.7)
            masked = apply_mask(attn, dm)
            pre = attn.weights.data
            removed = (pre * dm.mask).sum(axis=-1)
            np.testing.assert_allclose(
                masked.weights.data.sum(axis=-1), 1.0 - removed, atol=1e-12
            )

    def test_mask_is_constant_for_gradients(self):
        raw = Tensor(np.array([[[0.5, 0.3, 0.2]]]), requires_grad=True)
        attn = AttentionWeights(weights=raw, head_count=1, scale=1.0)
        masked = apply_mask(attn, identify_distractions(attn, 0.5))
        T.tensor_sum(masked.weights).backward()
        # tau = 0.25, so only the last position is masked; surviving positions
        # pass gradient through while the masked one gets exactly zero.
        np.testing.assert_array_equal(raw.grad, [[[1.0, 1.0, 0.0]]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(make_attn([0.5, 0.5]), np.zeros((1, 2, 2), dtype=bool))


class TestSchedule:
    def test_base_schedule(self):
        factors = [schedule_df(0.3, 0.3, k) for k in (1, 2, 3)]
        np.testing.assert_allclose(factors, [0.3, 0.6, 0.9], atol=1e-12)

    def test_zero_delta_constant(self):
        assert all(schedule_df(0.4, 0.0, k) == 0.4 for k in range(1, 7))

    def test_clamp(self):
        assert schedule_df(0.9, 0.3, 2) == 1.0

    def test_clamp_can_be_disabled(self):
        assert schedule_df(0.9, 0.3, 2, allow_above_one=True) == pytest.approx(1.2)

    def test_errors(self):
        with pytest.raises(ValueError):
            schedule_df(0.3, -0.1, 1)
        with pytest.raises(ValueError):
            schedule_df(0.3, 0.3, 0)
        with pytest.raises(ValueError):
            schedule_df(1.5, 0.3, 1)


class TestMaskProperties:
    def test_argmax_always_survives(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            attn = random_row_stochastic(rng, 2, 4, 7)
            for d_f in (0.25, 0.5, 0.75, 1.0):
                dm = identify_distractions(attn, d_f)
                top = attn.weights.data.argmax(axis=-1)
                for h in range(2):
                    for i in range(4):
                        assert not dm.mask[h, i, top[h, i]]

    def test_masks_nest_under_increasing_factor(self):
        rng = np.random.default_rng(2)
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for _ in range(25):
            attn = random_row_stochastic(rng, 3, 2, 5)
            masks = [identify_distractions(attn, f).mask for f in grid]
            for lo, hi in zip(masks, masks[1:]):
                assert np.all(hi | ~lo)  # lo implies hi

    def test_zero_factor_masks_nothing(self):
        rng = np.random.default_rng(3)
        attn = random_row_stochastic(rng, 2, 3, 4)
        assert not identify_distractions(attn, 0.0).mask.any()

    def test_masked_value_perturbation_is_invisible(self):
        # Fully masked (head, context) columns contribute nothing, so editing
        # the value rows there cannot change the attended output bits.
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(20):
            heads, n_q, n_ctx, dh = 2, 3, 6, 4
            attn = random_row_stochastic(rng, heads, n_q, n_ctx)
            dm = identify_distractions(attn, 1.0)
            masked = apply_mask(attn, dm).weights.data
            values = rng.normal(size=(heads, n_ctx, dh))
            base = masked @ values
            dead = dm.mask.all(axis=1)  # (heads, n_ctx) columns masked for every query
            if not dead.any():
                continue
            perturbed = values.copy()
            perturbed[dead] += rng.normal(size=(int(dead.sum()), dh)) * 100.0
            assert np.array_equal(base, masked @ perturbed)
            checked += 1
        assert checked >= 10


class TestMaskController:
    def test_off_mode_passes_through(self):
        ctrl = MaskController(mode="off")
        attn = make_attn([0.6, 0.4])
        assert ctrl.apply(attn, 0.9, "site") is attn
        assert ctrl.records == []

    def test_live_mode_records_density(self):
        ctrl = MaskController(mode="live")
        attn = make_attn([0.5, 0.3, 0.2])
        ctrl.apply(attn, 0.5, "a")
        assert len(ctrl.records) == 1
        rec = ctrl.records[0]
        assert rec.site == "a" and rec.d_f == 0.5
        assert rec.density == pytest.approx(1 / 3)
        assert rec.detail is None

    def test_full_record_and_replay_match_live(self):
        rng = np.random.default_rng(5)
        attn = random_row_stochastic(rng, 2, 3, 5)
        live = MaskController(mode="live", record="full")
        out_live = live.apply(attn, 0.8, "x")
        replay = MaskController(mode="replay", frozen=live.frozen_masks())
        out_replay = replay.apply(attn, 0.8, "x")
        np.testing.assert_array_equal(out_live.weights.data, out_replay.weights.data)

    def test_replay_missing_site(self):
        ctrl = MaskController(mode="replay", frozen={})
        with pytest.raises(KeyError):
            ctrl.apply(make_attn([1.0]), 0.5, "nowhere")

    @pytest.mark.parametrize("mode", ["live", "replay"])
    def test_candidate_batch_matches_one_call_per_candidate(self, mode):
        rng = np.random.default_rng(6)
        labels = ("c0/x", "c1/x", "c2/x")
        slices = [random_row_stochastic(rng, 2, 3, 5) for _ in labels]
        frozen = {label: rng.random((2, 3, 5)) < 0.5 for label in labels}
        batch = AttentionWeights(
            weights=Tensor(np.stack([a.weights.data for a in slices])), head_count=2, scale=1.0
        )
        single = MaskController(mode=mode, record="full", frozen=frozen)
        outs = [single.apply(a, 0.8, label) for a, label in zip(slices, labels)]
        batched = MaskController(mode=mode, record="full", frozen=frozen)
        out = batched.apply(batch, 0.8, labels)
        assert [rec.site for rec in batched.records] == list(labels)
        for k, (one, rec) in enumerate(zip(single.records, batched.records)):
            np.testing.assert_array_equal(out.weights.data[k], outs[k].weights.data)
            assert (rec.d_f, rec.density, rec.shape) == (one.d_f, one.density, one.shape)
            for field in ("mask", "threshold", "rho"):
                np.testing.assert_array_equal(getattr(rec.detail, field),
                                              getattr(one.detail, field))
            np.testing.assert_array_equal(rec.pre_weights, one.pre_weights)
            np.testing.assert_array_equal(rec.post_weights, one.post_weights)
            if mode == "replay":
                np.testing.assert_array_equal(rec.detail.mask, frozen[labels[k]])

    @pytest.mark.parametrize("labels", [("x",), ("c0/x", "c1/x", "c2/x")])
    def test_summary_replay_matches_full_replay(self, labels):
        rng = np.random.default_rng(7)
        frozen = {label: rng.random((2, 3, 5)) < 0.4 for label in labels}
        frozen[labels[0]][...] = False
        slices = [random_row_stochastic(rng, 2, 3, 5) for _ in labels]
        batched = len(labels) > 1
        attn = slices[0] if not batched else AttentionWeights(
            weights=Tensor(np.stack([a.weights.data for a in slices])), head_count=2, scale=1.0
        )
        site = labels if batched else labels[0]
        summary = MaskController(mode="replay", frozen=frozen)
        full = MaskController(mode="replay", record="full", frozen=frozen)
        out, want = summary.apply(attn, 0.8, site), full.apply(attn, 0.8, site)
        assert out.weights.data.tobytes() == want.weights.data.tobytes()
        assert (out.head_count, out.scale) == (want.head_count, want.scale)
        assert [(r.site, r.d_f, r.density, r.shape) for r in summary.records] == [
            (r.site, r.d_f, r.density, r.shape) for r in full.records
        ]
        assert all(r.detail is None and r.pre_weights is None for r in summary.records)
        if not batched:
            # An all-false mask leaves the weights object itself in place.
            assert out is attn and summary.records[0].density == 0.0
        wrong = {label: np.zeros((2, 3, 4), dtype=bool) for label in labels}
        short = MaskController(mode="replay", frozen=wrong)
        with pytest.raises(ShapeError):
            short.apply(attn, 0.8, site)
        assert short.records == []

    @pytest.mark.parametrize("labels", [("x",), ("c0/x", "c1/x", "c2/x")])
    def test_summary_live_matches_full_live(self, labels):
        rng = np.random.default_rng(8)
        slices = [random_row_stochastic(rng, 2, 3, 5) for _ in labels]
        batched = len(labels) > 1
        attn = slices[0] if not batched else AttentionWeights(
            weights=Tensor(np.stack([a.weights.data for a in slices])), head_count=2, scale=1.0
        )
        site = labels if batched else labels[0]
        summary = MaskController(mode="live")
        full = MaskController(mode="live", record="full")
        out, want = summary.apply(attn, 0.8, site), full.apply(attn, 0.8, site)
        assert out.weights.data.tobytes() == want.weights.data.tobytes()
        assert [(r.site, r.d_f, r.density, r.shape) for r in summary.records] == [
            (r.site, r.d_f, r.density, r.shape) for r in full.records
        ]
        assert all(r.detail is None for r in summary.records)
        assert all(r.detail is not None and r.density > 0.0 for r in full.records)

    def test_candidate_batch_needs_one_label_per_candidate(self):
        batch = AttentionWeights(weights=Tensor(np.full((3, 2, 1, 2), 0.5)), head_count=2,
                                 scale=1.0)
        with pytest.raises(ShapeError):
            MaskController().apply(batch, 0.5, ("a", "b"))
        with pytest.raises(KeyError):
            MaskController(mode="replay", frozen={"a": None}).apply(batch, 0.5, ("a", "b", "c"))

    def test_begin_pass_clears_records(self):
        ctrl = MaskController(mode="live")
        ctrl.apply(make_attn([0.5, 0.3, 0.2]), 0.5, "a")
        ctrl.begin_pass()
        assert ctrl.records == []

    def test_density_by_site(self):
        ctrl = MaskController(mode="live")
        ctrl.apply(make_attn([0.5, 0.3, 0.2]), 0.5, "a")
        ctrl.apply(make_attn([0.9, 0.1]), 0.0, "b")
        assert ctrl.density_by_site() == {"a": pytest.approx(1 / 3), "b": 0.0}

    def test_invalid_modes(self):
        with pytest.raises(ValueError):
            MaskController(mode="sometimes")
        with pytest.raises(ValueError):
            MaskController(record="everything")
        with pytest.raises(ValueError):
            MaskController(mode="replay")

    def test_density_helper(self):
        dm = DistractionMask(
            mask=np.array([[[True, False]]]), threshold=np.zeros((1, 1)),
            rho=np.zeros((1, 1)),
        )
        assert dm.density() == 0.5


def _score_inputs(rng, batched):
    """Grad-requiring (x_q, w_q, x_k, w_k) for a 2-head score op, with a
    3-candidate leading axis when `batched`."""
    lead = (3,) if batched else ()
    shapes = (lead + (4, 6), (6, 6), lead + (5, 6), (6, 6))
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


class TestMaskedScoreOp:
    """`head_softmax` masking through `MaskController.site` against
    `head_softmax` followed by `MaskController.apply`: values, records and
    every input gradient bit-identical, in one tape op."""

    def _run(self, fused, ctrl, inputs, d_f, site, probe):
        for t in inputs:
            t.zero_grad()
        ops = 0
        original = T._from_op

        def counted(*args):
            nonlocal ops
            ops += 1
            return original(*args)

        T._from_op = counted
        try:
            if fused:
                weights = T.head_softmax(*inputs, 2, 0.7, ctrl.site(d_f, site))
            else:
                attn = AttentionWeights(T.head_softmax(*inputs, 2, 0.7), head_count=2, scale=0.7)
                weights = ctrl.apply(attn, d_f, site).weights
        finally:
            T._from_op = original
        T.tensor_sum(weights * probe).backward()
        return weights.data, [t.grad for t in inputs], ops

    @pytest.mark.parametrize("d_f", [0.0, 0.6])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("record", ["summary", "full"])
    @pytest.mark.parametrize("mode", ["live", "replay", "off"])
    def test_matches_apply(self, mode, record, batched, d_f):
        """In replay, d_f = 0 pairs with all-false frozen masks, so both
        modes cover the path where nothing is masked."""
        rng = np.random.default_rng(31)
        labels = ("c0/x", "c1/x", "c2/x") if batched else ("x",)
        site = labels if batched else labels[0]
        frozen = {label: rng.random((2, 4, 5)) < (0.4 if d_f else 0.0) for label in labels}
        inputs = _score_inputs(rng, batched)
        probe = rng.normal(size=(3, 2, 4, 5) if batched else (2, 4, 5))

        def controller():
            return MaskController(mode=mode, record=record, frozen=frozen)

        fused, split = controller(), controller()
        values, grads, ops = self._run(True, fused, inputs, d_f, site, probe)
        want_values, want_grads, want_ops = self._run(False, split, inputs, d_f, site, probe)
        assert values.tobytes() == want_values.tobytes()
        for grad, want in zip(grads, want_grads):
            assert grad.tobytes() == want.tobytes()
        assert ops == 1
        masked = mode != "off" and d_f > 0.0
        assert want_ops == (2 if masked else 1)
        assert (values == 0.0).any() == masked
        assert len(fused.records) == (0 if mode == "off" else len(labels))
        for k, (rec, want) in enumerate(zip(fused.records, split.records, strict=True)):
            assert (rec.site, rec.d_f, rec.density, rec.shape) == (
                want.site, want.d_f, want.density, want.shape)
            if record == "summary":
                assert rec.detail is None and want.detail is None
                continue
            for field in ("mask", "rho", "threshold"):
                assert getattr(rec.detail, field).tobytes() == getattr(want.detail, field).tobytes()
            assert rec.detail.d_f == want.detail.d_f
            assert rec.pre_weights.tobytes() == want.pre_weights.tobytes()
            assert rec.post_weights.tobytes() == want.post_weights.tobytes()
            assert rec.post_weights.tobytes() == values[k if batched else ...].tobytes()
            if mode == "replay":
                assert rec.detail.mask.tobytes() == frozen[rec.site].tobytes()

    def test_mask_shape_checked(self):
        rng = np.random.default_rng(32)
        inputs = _score_inputs(rng, False)
        with pytest.raises(ShapeError):
            T.head_softmax(*inputs, 2, 0.7, lambda w, rho: np.ones(w.shape[:-1] + (1,), bool))
        short = MaskController(mode="replay", frozen={"x": np.ones((2, 4, 4), dtype=bool)})
        with pytest.raises(ShapeError):
            T.head_softmax(*inputs, 2, 0.7, short.site(0.5, "x"))
        assert short.records == []

    def test_model_masks_inside_the_score_op(self, monkeypatch):
        """A forward never calls `apply`, `apply_mask` or `relevance_scores`:
        no separate mask op and no second row-max pass at any site."""
        def refuse(*args, **kwargs):
            raise AssertionError("the model masks outside the score op")

        for name in ("apply_mask", "relevance_scores", "identify_distractions"):
            monkeypatch.setattr(D, name, refuse)
        monkeypatch.setattr(D.MaskController, "apply", refuse)
        config = DraxConfig(d=8, heads=2, layers=2, appearance_dim=6, motion_dim=5,
                            text_dim=7, max_positions=20)
        spec = SyntheticSpec(samples=1, frames=6, clips=3, question_len=3, answer_len=2,
                             signal_dims=3, distractor_tokens=1, appearance_dim=6,
                             motion_dim=5, text_dim=7)
        masker = MaskController(record="full")
        DraxModel(config).forward(generate_synthetic(spec)[0], masker)
        # Per stage: 2 layers x 2 directions + 1 fusion site; stage 3 per candidate.
        assert len(masker.records) == 2 * 5 + 4 * 5
        assert any(rec.density > 0.0 for rec in masker.records)
