"""Masking semantics: thresholds, strictness, schedules, and the controller."""

import dataclasses
import math

import numpy as np
import pytest

from drax import distraction as D
from drax import tensor as T
from drax.attention import AttentionWeights
from drax.data import SyntheticSpec, generate_synthetic
from drax.distraction import (
    MaskController,
    apply_mask,
    identify_distractions,
    relevance_scores,
    schedule_df,
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

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_threshold_range(self, bad):
        with pytest.raises(ValueError, match="distraction factor out of range"):
            identify_distractions(make_attn([0.5, 0.3, 0.2]), bad)


class TestDistractionMask:
    def test_below_threshold_masked(self):
        attn = make_attn([0.5, 0.3, 0.2])
        dm = identify_distractions(attn, 0.5)  # tau = 0.25
        np.testing.assert_array_equal(dm.mask, [[[False, False, True]]])

    def test_equality_survives(self):
        attn = make_attn([0.5, 0.3, 0.2])
        dm = identify_distractions(attn, 1.0)  # tau = 0.5
        np.testing.assert_array_equal(dm.mask, [[[False, True, True]]])

    def test_uniform_rows_never_masked(self):
        attn = make_attn([1 / 3, 1 / 3, 1 / 3])
        for d_f in (0.0, 0.5, 1.0):
            dm = identify_distractions(attn, d_f)
            assert not dm.mask.any()

    def test_identify_records_factor_and_rho(self):
        dm = identify_distractions(make_attn([0.5, 0.3, 0.2]), 0.5)
        np.testing.assert_allclose(dm.rho, [[0.5]])


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
        for allow_above_one in (False, True):
            with pytest.raises(ValueError):
                schedule_df(0.3, math.nan, 2, allow_above_one)
            with pytest.raises(ValueError):
                schedule_df(math.nan, 0.3, 1, allow_above_one)


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
        """Masking off is a factor of None: neither mode masks or records."""
        attn = make_attn([0.6, 0.4])
        for ctrl in (MaskController(), MaskController(mode="replay", frozen={})):
            assert ctrl.apply(attn, None, "site") is attn
            assert ctrl.site(None, "site") is None
            assert ctrl.records == []

    def test_live_mode_records_density(self):
        ctrl = MaskController(mode="live")
        attn = make_attn([0.5, 0.3, 0.2])
        ctrl.apply(attn, 0.5, "a")
        assert len(ctrl.records) == 1
        rec = ctrl.records[0]
        assert rec.site == "a" and rec.d_f == 0.5
        assert rec.density == pytest.approx(1 / 3)
        assert rec.mask.tolist() == [[[False, False, True]]]
        assert rec.rho.tolist() == [[0.5]]
        assert rec.pre_weights is None

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

        def controller():
            if mode == "replay":
                return MaskController(mode="replay", frozen=frozen)
            return MaskController(record="full")

        single = controller()
        outs = [single.apply(a, 0.8, label) for a, label in zip(slices, labels)]
        batched = controller()
        out = batched.apply(batch, 0.8, labels)
        for k, label in enumerate(labels):
            np.testing.assert_array_equal(out.weights.data[k], outs[k].weights.data)
            if mode == "replay":
                np.testing.assert_array_equal(
                    out.weights.data[k], slices[k].weights.data * (1.0 - frozen[label]))
        if mode == "replay":
            assert single.records == batched.records == []
            return
        assert [rec.site for rec in batched.records] == list(labels)
        for k, (one, rec) in enumerate(zip(single.records, batched.records)):
            assert (rec.d_f, rec.density, rec.mask.shape) == (
                one.d_f, one.density, one.mask.shape)
            for field in ("mask", "rho"):
                np.testing.assert_array_equal(getattr(rec, field), getattr(one, field))
            np.testing.assert_array_equal(rec.pre_weights, one.pre_weights)
            np.testing.assert_array_equal(rec.pre_weights * (1.0 - rec.mask),
                                          outs[k].weights.data)

    @pytest.mark.parametrize("labels", [("x",), ("c0/x", "c1/x", "c2/x")])
    def test_replay_masks_with_the_frozen_mask(self, labels):
        rng = np.random.default_rng(7)
        frozen = {label: rng.random((2, 3, 5)) < 0.4 for label in labels}
        frozen[labels[0]][...] = False
        slices = [random_row_stochastic(rng, 2, 3, 5) for _ in labels]
        batched = len(labels) > 1
        attn = slices[0] if not batched else AttentionWeights(
            weights=Tensor(np.stack([a.weights.data for a in slices])), head_count=2, scale=1.0
        )
        site = labels if batched else labels[0]
        replay = MaskController(mode="replay", frozen=frozen)
        out = replay.apply(attn, 0.8, site)
        want = np.stack([a.weights.data * (1.0 - frozen[label])
                         for a, label in zip(slices, labels)])
        assert out.weights.data.tobytes() == want.reshape(attn.weights.shape).tobytes()
        assert (out.head_count, out.scale) == (attn.head_count, attn.scale)
        assert replay.records == []
        if not batched:
            # An all-false mask leaves the weights object itself in place.
            assert out is attn
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
        assert [(r.site, r.d_f, r.density, r.mask.shape) for r in summary.records] == [
            (r.site, r.d_f, r.density, r.mask.shape) for r in full.records
        ]
        assert all(r.pre_weights is None for r in summary.records)
        assert all(r.pre_weights is not None and r.density > 0.0 for r in full.records)

    def test_candidate_batch_needs_one_label_per_candidate(self):
        batch = AttentionWeights(weights=Tensor(np.full((3, 2, 1, 2), 0.5)), head_count=2,
                                 scale=1.0)
        with pytest.raises(ShapeError):
            MaskController().apply(batch, 0.5, ("a", "b"))
        with pytest.raises(KeyError):
            MaskController(mode="replay", frozen={"a": None}).apply(batch, 0.5, ("a", "b", "c"))

    def test_frozen_masks_refuse_a_site_recorded_twice(self):
        ctrl = MaskController(mode="live")
        ctrl.apply(make_attn([0.5, 0.3, 0.2]), 0.5, "a")
        ctrl.apply(make_attn([0.9, 0.1]), 0.5, "a")
        with pytest.raises(ValueError, match="duplicate mask site in one pass: 'a'"):
            ctrl.frozen_masks()

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
        for mode in ("sometimes", "off"):
            with pytest.raises(ValueError):
                MaskController(mode=mode)
        with pytest.raises(ValueError):
            MaskController(record="everything")
        with pytest.raises(ValueError):
            MaskController(mode="replay")

    def test_frozen_masks_go_with_replay_alone(self):
        """A live controller refuses frozen masks rather than ignore them,
        and a replay, which records nothing, refuses record="full"."""
        frozen = {"a": np.zeros((1, 1, 2), dtype=bool)}
        for kwargs in ({"frozen": frozen}, {"mode": "live", "frozen": {}},
                       {"record": "full", "frozen": frozen},
                       {"mode": "replay", "record": "full", "frozen": frozen}):
            with pytest.raises(ValueError):
                MaskController(**kwargs)


def _bytes(array):
    return None if array is None else array.tobytes()


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
    @pytest.mark.parametrize(("mode", "record"), [
        ("live", "summary"), ("live", "full"), ("replay", "summary"),
        ("off", "summary"), ("off", "full"),
    ])
    def test_matches_apply(self, mode, record, batched, d_f):
        """In replay, d_f = 0 pairs with all-false frozen masks, so both
        modes cover the path where nothing is masked; "off" is a live
        controller given the factor None, as a masking-off model gives."""
        rng = np.random.default_rng(31)
        labels = ("c0/x", "c1/x", "c2/x") if batched else ("x",)
        site = labels if batched else labels[0]
        frozen = {label: rng.random((2, 4, 5)) < (0.4 if d_f else 0.0) for label in labels}
        inputs = _score_inputs(rng, batched)
        probe = rng.normal(size=(3, 2, 4, 5) if batched else (2, 4, 5))

        def controller():
            if mode == "replay":
                return MaskController(mode="replay", frozen=frozen)
            return MaskController(record=record)

        fused, split = controller(), controller()
        d_f = None if mode == "off" else d_f
        values, grads, ops = self._run(True, fused, inputs, d_f, site, probe)
        want_values, want_grads, want_ops = self._run(False, split, inputs, d_f, site, probe)
        assert values.tobytes() == want_values.tobytes()
        for grad, want in zip(grads, want_grads):
            assert grad.tobytes() == want.tobytes()
        assert ops == 1
        masked = mode != "off" and d_f > 0.0
        assert want_ops == (2 if masked else 1)
        assert (values == 0.0).any() == masked
        if mode == "replay":
            mask = np.stack([frozen[label] for label in labels]).reshape(values.shape)
            assert ((values == 0.0) == mask).all()
        assert len(fused.records) == (len(labels) if mode == "live" else 0)
        for k, (rec, want) in enumerate(zip(fused.records, split.records, strict=True)):
            assert (rec.site, rec.d_f, rec.density, rec.mask.shape) == (
                want.site, want.d_f, want.density, want.mask.shape)
            for field in ("mask", "rho", "pre_weights"):
                assert _bytes(getattr(rec, field)) == _bytes(getattr(want, field))
            if record == "summary":
                assert rec.pre_weights is None and want.pre_weights is None
                continue
            post = rec.pre_weights * (1.0 - rec.mask)
            assert post.tobytes() == values[k if batched else ...].tobytes()

    @pytest.mark.parametrize("batched", [False, True])
    def test_all_false_mask_is_the_unmasked_op(self, batched):
        """The op multiplies by the keep factors `1 - mask` without testing
        them for any zero; for an all-false mask, all-ones factors, that is
        a bit-for-bit identity."""
        rng = np.random.default_rng(33)
        inputs = _score_inputs(rng, batched)
        probe = rng.normal(size=(3, 2, 4, 5) if batched else (2, 4, 5))

        def run(mask):
            for t in inputs:
                t.zero_grad()
            weights = T.head_softmax(*inputs, 2, 0.7, mask)
            T.tensor_sum(weights * probe).backward()
            return weights.data.tobytes(), [t.grad.tobytes() for t in inputs]

        assert run(lambda w, sums: np.ones(w.shape)) == run(None)

    def test_mask_shape_checked(self):
        rng = np.random.default_rng(32)
        inputs = _score_inputs(rng, False)
        with pytest.raises(ShapeError):
            T.head_softmax(*inputs, 2, 0.7, lambda w, sums: np.ones(w.shape[:-1] + (1,)))
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


def _split_score_op(original):
    """`head_softmax` unmasked, then `MaskController.apply` (which masks
    through `apply_mask`), for the (masker, d_f, site) triples that
    `_SplitSites` hands out in place of mask callables."""
    def head_softmax(x_q, w_q, x_k, w_k, heads, scale, mask=None):
        weights = original(x_q, w_q, x_k, w_k, heads, scale)
        if mask is None:
            return weights
        ctrl, d_f, site = mask
        return ctrl.apply(AttentionWeights(weights, heads, scale), d_f, site).weights
    return head_softmax


class _SplitSites(MaskController):
    def site(self, d_f, site):
        return None if d_f is None else (self, d_f, site)


def _tiny(**overrides):
    config = DraxConfig(d=8, heads=2, layers=2, appearance_dim=6, motion_dim=5, text_dim=7,
                        max_positions=20, **overrides)
    spec = SyntheticSpec(samples=1, frames=6, clips=3, question_len=3, answer_len=2,
                         signal_dims=3, distractor_tokens=1, appearance_dim=6,
                         motion_dim=5, text_dim=7, seed=4)
    return config, generate_synthetic(spec)[0]


def _replay_case(name):
    if name == "default":
        return DraxConfig(), generate_synthetic(SyntheticSpec(samples=1, seed=4))[0]
    if name == "two-group":
        config, bundle = _tiny()
        rng = np.random.default_rng(41)
        answers = tuple(rng.normal(size=(n, 7)) for n in (2, 3, 2, 3))
        return config, dataclasses.replace(bundle, answers=answers)
    overrides = {
        "tiny": {},
        "above-one": {"allow_df_above_one": True, "d_f_initial": 0.6, "delta": 0.6},
        "off": {"masking_enabled": False},
    }[name]
    return _tiny(**overrides)


def _perturbed(bundle, seed):
    """A bundle of the same shapes with other values, so a replay on it
    reads masks that its own weights would not give."""
    rng = np.random.default_rng(seed)

    def move(a):
        return a + 0.5 * rng.normal(size=a.shape)

    return dataclasses.replace(
        bundle, appearance=move(bundle.appearance), motion=move(bundle.motion),
        question=move(bundle.question), answers=tuple(move(a) for a in bundle.answers),
    )


class TestSummaryReplay:
    """A replay takes its keep factors from the `FrozenMasks` cache and
    records nothing; the path it replaces is the unmasked score op followed
    by `MaskController.apply` (`apply_mask` on the frozen mask)."""

    CASES = ["tiny", "default", "two-group", "above-one", "off"]

    @staticmethod
    def _pass(model, bundle, masker):
        model.zero_grad()
        loss, probs = model.sample_loss(bundle, masker)
        T.backward(loss)
        grads = {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                 for p in model.parameters()}
        return loss.data, probs, grads, list(masker.records)

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_split_path(self, case, monkeypatch):
        config, bundle = _replay_case(case)
        model = DraxModel(config)
        live = MaskController()
        live_out = self._pass(model, bundle, live)
        frozen = live.frozen_masks()
        assert (len(frozen) == 0) == (case == "off")
        if case != "off":
            assert any(m.any() for m in frozen.values())
        if case == "above-one":
            assert {rec.d_f for rec in live.records} >= {1.2}

        replay = MaskController(mode="replay", frozen=frozen)
        # Same bundle: the live pass's outputs, and no records.
        same = self._pass(model, bundle, replay)
        self._assert_close(same, live_out)
        assert same[3] == []

        # Other values under the same frozen masks: the split path's outputs.
        other = _perturbed(bundle, 42)
        got = self._pass(model, other, replay)
        with monkeypatch.context() as patch:
            patch.setattr(T, "head_softmax", _split_score_op(T.head_softmax))
            want = self._pass(model, other, _SplitSites(mode="replay", frozen=frozen))
        self._assert_close(got, want)
        assert got[3] == want[3] == []

    @staticmethod
    def _assert_close(got, want):
        loss, probs, grads, _ = got
        want_loss, want_probs, want_grads, _ = want
        np.testing.assert_allclose(loss, want_loss, rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_score_op_reuses_read_only_keep_factors(self):
        """The keep factors are built once per label tuple, whatever the
        factor: a frozen mask does not depend on it."""
        rng = np.random.default_rng(34)
        labels = ("c0/x", "c1/x", "c2/x")
        frozen = {label: rng.random((2, 4, 5)) < 0.4 for label in labels}
        inputs = _score_inputs(rng, True)
        ctrl = MaskController(mode="replay", frozen=frozen)
        seen = []

        for d_f in (0.6, 0.6, 0.3):
            def spy(weights, sums):
                seen.append(ctrl.site(d_f, labels)(weights, sums))
                return seen[-1]

            T.head_softmax(*inputs, 2, 0.7, spy)
        assert seen[0] is seen[1] is seen[2] and not seen[0].flags.writeable
        assert seen[0].dtype == np.float64
        assert seen[0].tobytes() == (1.0 - np.stack([frozen[s] for s in labels])).tobytes()
        assert ctrl.records == []
