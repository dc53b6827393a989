"""Three-stage model wiring: CLS handling, decoding, loss, training loop."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from drax import tensor as T
from drax.attention import run_encoder_stack
from drax.checkpoint import (
    CheckpointError,
    load_model,
    read_checkpoint,
    restore_parameters,
    save_checkpoint,
)
from drax.cli import coerce_fields
from drax.data import FeatureBundle, SyntheticSpec, generate_synthetic
from drax.distraction import MaskController
from drax.model import (
    ConfigError,
    DecoderParams,
    DraxConfig,
    DraxModel,
    ModalitySequence,
    add_cls_and_pos,
    answer_decoder,
    hinge_loss,
    predict,
    sinusoidal_encoding,
)
from drax.tensor import ParamStore, ShapeError, Tensor
from drax.train import evaluate, fit, global_grad_norm, sgd_step, train_epoch

from helpers import reference_backward


def tiny_config(**overrides) -> DraxConfig:
    base = dict(
        d=8, heads=2, layers=1, appearance_dim=6, motion_dim=10, text_dim=5,
        max_positions=12, learning_rate=0.01, epochs=3, seed=0,
    )
    base.update(overrides)
    return DraxConfig(**base)


def tiny_bundle(seed=0, label=1, config=None) -> FeatureBundle:
    cfg = config or tiny_config()
    rng = np.random.default_rng(seed)
    return FeatureBundle(
        appearance=rng.normal(size=(5, cfg.appearance_dim)),
        motion=rng.normal(size=(3, cfg.motion_dim)),
        question=rng.normal(size=(3, cfg.text_dim)),
        answers=tuple(rng.normal(size=(2, cfg.text_dim)) for _ in range(4)),
        label=label,
    )


class TestConfig:
    def test_defaults_valid(self):
        DraxConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"d": 10, "heads": 4},
            {"layers": 0},
            {"d_f_initial": 1.5},
            {"d_f_fusion": -0.1},
            {"delta": -0.2},
            {"loss_mode": "cross-entropy"},
            {"fusion_mode": "gated"},
            {"anchor_stage2": "motion"},
            {"epochs": 0},
            {"learning_rate": -1.0},
            {"d": 8.0},
            {"heads": "2"},
            {"masking_enabled": "no"},
            {"delta": True},
        ],
    )
    def test_invalid_values(self, overrides):
        with pytest.raises(ConfigError):
            DraxConfig(**overrides).validate()

    def test_round_trip(self):
        cfg = tiny_config(delta=0.15, loss_mode="probability-hinge")
        again = DraxConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            DraxConfig.from_dict({"d": 8, "mystery": 1})

    def test_coerce(self):
        typed = coerce_fields(DraxConfig, {
            "d": "32", "delta": "0.25", "masking_enabled": "false",
            "loss_mode": "logit-hinge",
        })
        assert typed == {
            "d": 32, "delta": 0.25, "masking_enabled": False, "loss_mode": "logit-hinge",
        }
        assert typed["masking_enabled"] is False
        spec = coerce_fields(SyntheticSpec, {"samples": "12", "noise_sigma": "0.75"})
        assert spec == {"samples": 12, "noise_sigma": 0.75}
        assert isinstance(spec["samples"], int) and isinstance(spec["noise_sigma"], float)
        with pytest.raises(ConfigError):
            coerce_fields(DraxConfig, {"d": "eight"})
        with pytest.raises(ConfigError):
            coerce_fields(DraxConfig, {"masking_enabled": "maybe"})
        with pytest.raises(ConfigError, match="unknown config key: nonesuch"):
            coerce_fields(DraxConfig, {"nonesuch": "1"})
        with pytest.raises(ConfigError, match="cannot parse samples='1.5' as int"):
            coerce_fields(SyntheticSpec, {"samples": "1.5"})
        with pytest.raises(ConfigError, match="unknown generator key: d"):
            coerce_fields(SyntheticSpec, {"d": "8"}, "generator")


class TestSequencesAndPositions:
    def test_modality_checked(self):
        with pytest.raises(ValueError):
            ModalitySequence(Tensor(np.zeros((2, 4))), "audio")
        with pytest.raises(ShapeError):
            ModalitySequence(Tensor(np.zeros(4)), "question")

    def test_pos_kind_mapping(self):
        x = Tensor(np.zeros((2, 4)))
        assert ModalitySequence(x, "question").pos_kind == "sinusoidal"
        assert ModalitySequence(x, "answer").pos_kind == "sinusoidal"
        for m in ("appearance", "motion", "fused"):
            assert ModalitySequence(x, m).pos_kind == "learned_1d"

    def test_sinusoidal_row_zero(self):
        table = sinusoidal_encoding(4, 6)
        np.testing.assert_array_equal(table[0, 0::2], np.zeros(3))
        np.testing.assert_array_equal(table[0, 1::2], np.ones(3))

    def test_sinusoidal_closed_form(self):
        table = sinusoidal_encoding(5, 8)
        assert table[1, 0] == pytest.approx(np.sin(1.0))
        assert table[2, 1] == pytest.approx(np.cos(2.0))
        assert table[3, 2] == pytest.approx(np.sin(3.0 / 10000 ** (2 / 8)))

    def test_sinusoidal_table_shared_and_read_only(self):
        table = sinusoidal_encoding(5, 8)
        assert sinusoidal_encoding(5, 8) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_cls_prepended_and_pos_added(self):
        store = ParamStore(0)
        cls_token = store.row("cls", 6)
        seq = ModalitySequence(Tensor(np.zeros((3, 6))), "question")
        out = add_cls_and_pos(seq, cls_token, None)
        assert out.has_cls and out.tokens.shape == (4, 6)
        expected = np.vstack([cls_token.data, np.zeros((3, 6))]) + sinusoidal_encoding(4, 6)
        np.testing.assert_allclose(out.tokens.data, expected, atol=1e-12)

    def test_learned_positions_added(self):
        store = ParamStore(1)
        cls_token = store.row("cls", 4)
        table = store.uniform("pos", (8, 4), 8, 4)
        seq = ModalitySequence(Tensor(np.ones((2, 4))), "motion")
        out = add_cls_and_pos(seq, cls_token, table)
        expected = np.vstack([cls_token.data, np.ones((2, 4))]) + table.data[:3]
        np.testing.assert_allclose(out.tokens.data, expected, atol=1e-12)

    def test_double_cls_rejected(self):
        store = ParamStore(2)
        cls_token = store.row("cls", 4)
        seq = ModalitySequence(Tensor(np.zeros((2, 4))), "question", has_cls=True)
        with pytest.raises(ValueError, match="already carries"):
            add_cls_and_pos(seq, cls_token, None)

    def test_length_over_table_rejected(self):
        store = ParamStore(3)
        cls_token = store.row("cls", 4)
        table = store.uniform("pos", (3, 4), 3, 4)
        seq = ModalitySequence(Tensor(np.zeros((5, 4))), "motion")
        with pytest.raises(ConfigError, match="max_positions"):
            add_cls_and_pos(seq, cls_token, table)

    def test_same_seed_same_learned_tables(self):
        m1, m2 = DraxModel(tiny_config()), DraxModel(tiny_config())
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)


class TestDecoderAndLoss:
    def test_equal_rows_give_uniform_probabilities(self):
        params = DecoderParams.create(ParamStore(4), "dec", 8)
        reps = Tensor(np.tile(np.random.default_rng(0).normal(size=(1, 8)), (4, 1)))
        probs, _ = answer_decoder(reps, params)
        np.testing.assert_allclose(probs.data, np.full(4, 0.25), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        params = DecoderParams.create(ParamStore(5), "dec", 8)
        rng = np.random.default_rng(1)
        for _ in range(5):
            probs, logits = answer_decoder(Tensor(rng.normal(size=(4, 8))), params)
            assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                probs.data, np.exp(logits.data) / np.exp(logits.data).sum(), atol=1e-12
            )

    def test_identity_path_recovers_planted_logits(self):
        # Nonnegative inputs pass ELU unchanged, so identity weights let a
        # chosen channel carry the logits straight through.
        d = 4
        params = DecoderParams.create(ParamStore(6), "dec", d)
        params.w_a.data[:] = np.eye(d)
        params.b_a.data[:] = 0.0
        params.w_y.data[:] = np.eye(d)
        params.b_y.data[:] = 0.0
        params.w_out.data[:] = np.eye(d)[:, :1]
        params.b_out.data[:] = 0.0
        reps = np.zeros((4, d))
        reps[0, 0] = 1.0
        probs, logits = answer_decoder(Tensor(reps), params)
        np.testing.assert_allclose(logits.data, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        expected = np.exp([1.0, 0, 0, 0]) / np.exp([1.0, 0, 0, 0]).sum()
        np.testing.assert_allclose(probs.data, expected, atol=1e-12)
        assert probs.data[0] == pytest.approx(np.e / (np.e + 3), abs=1e-12)

    def test_hinge_pairwise_value(self):
        scores = Tensor(np.array([0.9, 0.2, -5.0, -5.0]))
        assert hinge_loss(scores, 0).item() == pytest.approx(0.3, abs=1e-12)

    def test_hinge_tie_gives_one_per_pair(self):
        scores = Tensor(np.array([0.2, 0.2, 0.2, 0.2]))
        assert hinge_loss(scores, 3).item() == 3.0

    def test_hinge_zero_when_margin_met(self):
        scores = Tensor(np.array([3.0, 2.0, 1.0, -4.0]))
        assert hinge_loss(scores, 0).item() == 0.0

    def test_hinge_label_validation(self):
        with pytest.raises(ValueError):
            hinge_loss(Tensor(np.zeros(4)), 4)

    def test_hinge_gradient_direction(self):
        scores = Tensor(np.array([0.5, 0.4, -3.0, -3.0]), requires_grad=True)
        hinge_loss(scores, 0).backward()
        # One active pair: pushes the correct score up, the close rival down.
        np.testing.assert_allclose(scores.grad, [-1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("loss_mode", ["logit-hinge", "probability-hinge"])
    def test_hinge_matches_looped_pairs(self, loss_mode):
        rng = np.random.default_rng(7)
        for label in range(4):
            for _ in range(5):
                logits = Tensor(rng.normal(size=4) * 0.6, requires_grad=True)

                def loss(looped):
                    base = logits if loss_mode == "logit-hinge" else T.softmax(logits)
                    if not looped:
                        return hinge_loss(base, label)
                    terms = [T.relu(1.0 + base[n] - base[label]) for n in range(4) if n != label]
                    return terms[0] + terms[1] + terms[2]

                got, want = loss(looped=False), loss(looped=True)
                assert abs(got.item() - want.item()) <= 1e-12
                grads = []
                for value in (got, want):
                    logits.zero_grad()
                    value.backward()
                    grads.append(logits.grad)
                np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-12)

    def test_predict(self):
        assert predict(np.array([0.1, 0.7, 0.1, 0.1])) == 1
        assert predict(np.array([0.25, 0.25, 0.25, 0.25])) == 0
        base = np.array([0.1, 0.5, 0.2, 0.2])
        assert predict(base) == predict(np.exp(3 * base))


def loss_tape_ops(monkeypatch, model, bundle) -> int:
    """Tape ops recorded by one sample's loss."""
    ops = 0
    original = T._from_op

    def counted(*args):
        nonlocal ops
        ops += 1
        return original(*args)

    monkeypatch.setattr(T, "_from_op", counted)
    with T.no_grad():
        model.sample_loss(bundle)
    return ops


class TestForward:
    def test_output_shape(self):
        model = DraxModel(tiny_config())
        out = model.forward(tiny_bundle())
        assert out.shape == (4, model.config.d)
        assert np.all(np.isfinite(out.data))

    def test_identical_candidates_identical_rows(self):
        model = DraxModel(tiny_config())
        bundle = tiny_bundle()
        same = dataclasses.replace(bundle, answers=(bundle.answers[0],) * 4, label=0)
        out = model.forward(same).data
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-10)

    def test_candidate_permutation_permutes_rows(self):
        model = DraxModel(tiny_config())
        bundle = tiny_bundle()
        perm = [2, 0, 3, 1]
        shuffled = dataclasses.replace(
            bundle,
            answers=tuple(bundle.answers[i] for i in perm),
            label=perm.index(bundle.label),
        )
        base = model.forward(bundle).data
        moved = model.forward(shuffled).data
        np.testing.assert_allclose(moved, base[perm], atol=1e-12)
        probs_base, _ = model.scores(bundle)
        probs_moved, _ = model.scores(shuffled)
        assert predict(probs_moved) == perm.index(predict(probs_base))

    def test_stage_outputs_strip_cls(self):
        model = DraxModel(tiny_config())
        bundle = tiny_bundle()
        masker = model.make_masker()
        appearance = model.embed_tokens(bundle.appearance, "appearance")
        motion = model.embed_tokens(bundle.motion, "motion")
        fused1 = model.run_stage(0, appearance, motion, masker)
        # Anchor is motion (3 rows): CLS was added and stripped again.
        assert not fused1.has_cls
        assert fused1.tokens.shape == (3, model.config.d)
        question = model.embed_tokens(bundle.question, "question")
        fused2 = model.run_stage(1, fused1, question, masker)
        assert not fused2.has_cls
        assert fused2.tokens.shape == (3, model.config.d)
        answer = model.embed_tokens(bundle.answers[0], "answer")
        final = model.run_stage(2, fused2, answer, masker, keep_cls=True)
        # Anchor is the answer (2 rows + CLS) and the CLS row is retained.
        assert final.has_cls
        assert final.tokens.shape == (3, model.config.d)

    def test_anchor_contract_row_counts(self):
        for anchors, want1, want2, want3 in [
            (("motion", "fused", "answer"), 3, 3, 3),
            (("motion", "question", "answer"), 3, 3, 3),
            (("motion", "question", "fused"), 3, 3, 4),
            (("motion", "fused", "fused"), 3, 3, 4),
            (("appearance", "fused", "answer"), 5, 5, 3),
        ]:
            cfg = tiny_config(
                anchor_stage1=anchors[0], anchor_stage2=anchors[1], anchor_stage3=anchors[2]
            )
            model = DraxModel(cfg)
            bundle = tiny_bundle(config=cfg)
            masker = model.make_masker()
            s1 = model.run_stage(
                0,
                model.embed_tokens(bundle.appearance, "appearance"),
                model.embed_tokens(bundle.motion, "motion"),
                masker,
            )
            assert s1.tokens.shape[0] == want1
            s2 = model.run_stage(
                1, s1, model.embed_tokens(bundle.question, "question"), masker
            )
            assert s2.tokens.shape[0] == want2
            s3 = model.run_stage(
                2, s2, model.embed_tokens(bundle.answers[0], "answer"), masker,
                keep_cls=True,
            )
            assert s3.tokens.shape[0] == want3

    def test_wrong_modality_order_rejected(self):
        model = DraxModel(tiny_config())
        bundle = tiny_bundle()
        motion = model.embed_tokens(bundle.motion, "motion")
        appearance = model.embed_tokens(bundle.appearance, "appearance")
        with pytest.raises(ValueError, match="stage1 expects"):
            model.run_stage(0, motion, appearance, model.make_masker())

    def test_raw_dim_mismatch(self):
        model = DraxModel(tiny_config())
        with pytest.raises(ShapeError):
            model.embed_tokens(np.zeros((4, 7)), "appearance")

    def test_simple_concat_mode_end_to_end(self):
        cfg = tiny_config(fusion_mode="simple-concat")
        model = DraxModel(cfg)
        rng = np.random.default_rng(5)
        bundle = FeatureBundle(
            appearance=rng.normal(size=(6, cfg.appearance_dim)),
            motion=rng.normal(size=(3, cfg.motion_dim)),
            question=rng.normal(size=(3, cfg.text_dim)),
            answers=tuple(rng.normal(size=(2, cfg.text_dim)) for _ in range(4)),
            label=0,
        )
        out = model.forward(bundle)
        assert out.shape == (4, cfg.d)
        assert np.all(np.isfinite(out.data))

    def test_tiny_forward_tape_op_budget(self, monkeypatch):
        """A criterion-5-sized loss records at most 96 tape ops, 10% over the
        87 measured with masking inside the score op (fused ops count once)."""
        ops = loss_tape_ops(monkeypatch, DraxModel(tiny_config()), tiny_bundle())
        assert 0 < ops <= 96

    def test_default_forward_tape_op_budget(self, monkeypatch):
        """A default-config loss records at most 135 tape ops, 10% over the
        123 measured with masking inside the score op."""
        bundle = generate_synthetic(SyntheticSpec(samples=1, seed=0))[0]
        ops = loss_tape_ops(monkeypatch, DraxModel(DraxConfig()), bundle)
        assert 0 < ops <= 135

    @pytest.mark.parametrize("loss_mode", ["logit-hinge", "probability-hinge"])
    def test_gradients_independent_of_constant_vjps(self, monkeypatch, loss_mode):
        """Every parameter gradient of a default-config loss is bit-identical
        to the one taken with every constant (raw features, masks, the hinge
        selector) made a grad-requiring leaf, so that every VJP part is
        computed and backward drops the constants' parts."""
        bundle = generate_synthetic(SyntheticSpec(samples=1, seed=0))[0]
        config = DraxConfig(loss_mode=loss_mode)

        def gradients():
            model = DraxModel(config)
            loss, probs = model.sample_loss(bundle, model.make_masker())
            loss.backward()
            return loss.item(), probs, {p.name: p.grad for p in model.parameters()}

        loss, probs, grads = gradients()
        original_init = Tensor.__init__

        def all_grad_init(self, data, requires_grad=False):
            original_init(self, data, requires_grad=True)

        monkeypatch.setattr(Tensor, "__init__", all_grad_init)
        full_loss, full_probs, full_grads = gradients()
        assert loss == full_loss
        assert probs.tobytes() == full_probs.tobytes()
        assert grads.keys() == full_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == full_grads[name].tobytes(), name

    def test_loss_modes_differ(self):
        bundle = tiny_bundle()
        logit_model = DraxModel(tiny_config())
        prob_model = DraxModel(tiny_config(loss_mode="probability-hinge"))
        l1, _ = logit_model.sample_loss(bundle)
        l2, _ = prob_model.sample_loss(bundle)
        assert l1.item() != pytest.approx(l2.item(), abs=1e-9)


def looped_forward(model, bundle, masker, batch_of_one=False):
    """Stage 3 run once per candidate, as (n, d) streams or as K=1 batches.

    This is the per-candidate loop that the batched stage replaces; it is
    the reference the batched forward is checked against.
    """
    masker.begin_pass()
    fused = model.run_stage(
        0, model.embed_tokens(bundle.appearance, "appearance"),
        model.embed_tokens(bundle.motion, "motion"), masker,
    )
    fused = model.run_stage(1, fused, model.embed_tokens(bundle.question, "question"), masker)
    reps = []
    for cand, answer in enumerate(bundle.answers):
        site = f"stage3/cand{cand}"
        if batch_of_one:
            answer, site = answer[None], (site,)
        out = model.run_stage(
            2, fused, model.embed_tokens(answer, "answer"), masker, keep_cls=True, site=site
        )
        reps.append(T.reshape(T.tensor_mean(out.tokens, axis=-2), (1, model.config.d)))
    return T.concat(reps, axis=0)


def forward_outputs(model, forward, masker):
    """Candidate rows, every parameter gradient of a fixed probe, and the mask records."""
    reps = forward(masker)
    probe = np.random.default_rng(11).normal(size=reps.shape)
    model.zero_grad()
    T.backward(T.tensor_sum(reps * probe))
    grads = {p.name: p.grad for p in model.parameters()}
    return reps.data, grads, list(masker.records)


def assert_same_outputs(got, want):
    (reps, grads, records), (want_reps, want_grads, want_records) = got, want
    np.testing.assert_allclose(reps, want_reps, rtol=0, atol=1e-12)
    for name, grad in grads.items():
        if want_grads[name] is None:
            assert grad is None, name
        else:
            np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12, err_msg=name)
    assert [r.site for r in records] == [r.site for r in want_records]
    for rec, want_rec in zip(records, want_records):
        assert (rec.d_f, rec.density, rec.shape) == (want_rec.d_f, want_rec.density, want_rec.shape)
        np.testing.assert_array_equal(rec.detail.mask, want_rec.detail.mask)


class TestBatchedStage3:
    """All candidates in one stage-3 run against one run per candidate."""

    @pytest.mark.parametrize("lengths", [(2, 2, 2, 2), (2, 3, 2, 4)])
    @pytest.mark.parametrize("anchor", ["answer", "fused"])
    @pytest.mark.parametrize("fusion_mode", ["cross-aligned", "simple-concat"])
    def test_matches_one_run_per_candidate(self, fusion_mode, anchor, lengths):
        cfg = tiny_config(fusion_mode=fusion_mode, anchor_stage3=anchor, layers=2)
        model = DraxModel(cfg)
        rng = np.random.default_rng(3)
        bundle = dataclasses.replace(
            tiny_bundle(config=cfg),
            # Six frames reconcile with three clips in simple-concat mode.
            appearance=rng.normal(size=(6, cfg.appearance_dim)),
            answers=tuple(rng.normal(size=(n, cfg.text_dim)) for n in lengths),
        )

        def run(forward):
            return forward_outputs(model, forward, model.make_masker(record="full"))

        got = run(lambda masker: model.forward(bundle, masker))
        for batch_of_one in (False, True):
            assert_same_outputs(
                got, run(lambda masker: looped_forward(model, bundle, masker, batch_of_one))
            )

    def test_shared_stream_encoded_once_matches_broadcast_first(self):
        """`run_encoder_stack` self-encodes an (n, d) stream beside a
        candidate batch once and broadcasts it after; broadcasting first
        gives bit-identical values and masks, and gradients that only sum
        over the candidates at another point (within 1e-12)."""
        cfg = tiny_config(layers=2)
        model = DraxModel(cfg)
        rng = np.random.default_rng(12)
        shared = Tensor(rng.normal(size=(4, cfg.d)), requires_grad=True)
        batch = Tensor(rng.normal(size=(3, 3, cfg.d)), requires_grad=True)
        probes = rng.normal(size=(3, 4, cfg.d)), rng.normal(size=(3, 3, cfg.d))
        sites = ("c0", "c1", "c2")
        stack = model.stages[2].stack

        def run(first):
            model.zero_grad()
            shared.zero_grad()
            batch.zero_grad()
            masker = model.make_masker(record="full")
            tokens = T.broadcast(shared, 3) if first else shared
            y1, y2 = run_encoder_stack(
                ModalitySequence(tokens, "fused", True), ModalitySequence(batch, "answer", True),
                stack, cfg.d_f_initial, cfg.delta, masker, site=sites,
            )
            T.backward(T.tensor_sum(y1.tokens * probes[0]) + T.tensor_sum(y2.tokens * probes[1]))
            grads = {p.name: p.grad for p in model.parameters()}
            grads.update(shared=shared.grad, batch=batch.grad)
            return y1.tokens.data, y2.tokens.data, grads, masker.records

        y1, y2, grads, records = run(first=False)
        want_y1, want_y2, want_grads, want_records = run(first=True)
        assert y1.tobytes() == want_y1.tobytes() and y2.tobytes() == want_y2.tobytes()
        assert [(r.site, r.density, r.detail.mask.tobytes()) for r in records] == [
            (r.site, r.density, r.detail.mask.tobytes()) for r in want_records
        ]
        assert any(r.density > 0.0 for r in records)
        for name, grad in grads.items():
            if want_grads[name] is None:
                assert grad is None, name
            else:
                np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12,
                                           err_msg=name)

    def test_replays_frozen_per_candidate_masks(self):
        model = DraxModel(tiny_config(layers=2))
        live = model.make_masker(record="full")
        model.forward(tiny_bundle(seed=8), live)
        frozen = live.frozen_masks()
        assert any(m.any() for site, m in frozen.items() if site.startswith("stage3/"))
        bundle = tiny_bundle(seed=9)

        def replay():
            return MaskController(mode="replay", record="full", frozen=frozen)

        got = forward_outputs(model, lambda masker: model.forward(bundle, masker), replay())
        want = forward_outputs(model, lambda masker: looped_forward(model, bundle, masker),
                               replay())
        assert_same_outputs(got, want)
        for rec in got[2]:
            np.testing.assert_array_equal(rec.detail.mask, frozen[rec.site])

    def test_summary_replay_matches_full_replay(self):
        model = DraxModel(tiny_config(layers=2))
        live = model.make_masker(record="full")
        model.forward(tiny_bundle(seed=8), live)
        frozen = live.frozen_masks()
        bundle = tiny_bundle(seed=9)
        summary = MaskController(mode="replay", frozen=frozen)
        full = MaskController(mode="replay", record="full", frozen=frozen)
        got = forward_outputs(model, lambda masker: model.forward(bundle, masker), summary)
        want = forward_outputs(model, lambda masker: model.forward(bundle, masker), full)
        assert got[0].tobytes() == want[0].tobytes()
        for name, grad in got[1].items():
            assert (grad is None and want[1][name] is None
                    or grad.tobytes() == want[1][name].tobytes()), name
        assert [(r.site, r.d_f, r.density, r.shape) for r in got[2]] == [
            (r.site, r.d_f, r.density, r.shape) for r in want[2]
        ]

    def test_rejects_answers_that_are_not_token_matrices(self):
        model = DraxModel(tiny_config())
        bundle = tiny_bundle()
        flat = dataclasses.replace(bundle, answers=(bundle.answers[0][0],) + bundle.answers[1:])
        with pytest.raises(ShapeError):
            model.forward(flat)


def positive_loss(model, bundle):
    loss, _ = model.sample_loss(bundle, model.make_masker())
    assert loss.item() > 0.0
    return loss


def gradients_after(model, loss, run_backward) -> dict:
    model.zero_grad()
    run_backward(loss)
    return {p.name: p.grad for p in model.parameters()}


def default_case(loss_mode):
    bundle = generate_synthetic(SyntheticSpec(samples=1, seed=0))[0]
    return DraxModel(DraxConfig(loss_mode=loss_mode)), bundle


class TestBackwardEquivalence:
    """Creation-order backward against the graph-search backward it
    replaces: every parameter gradient within 1e-12 of the largest entry of
    its array, and the same parameters left without a gradient."""

    def assert_same_gradients(self, model, bundle):
        loss = positive_loss(model, bundle)
        got = gradients_after(model, loss, T.backward)
        want = gradients_after(model, loss, reference_backward)
        assert [n for n, g in got.items() if g is None] == [
            n for n, g in want.items() if g is None
        ]
        for name, grad in got.items():
            if grad is not None:
                bound = 1e-12 * np.max(np.abs(want[name]))
                np.testing.assert_allclose(grad, want[name], rtol=0, atol=bound, err_msg=name)

    @pytest.mark.parametrize("loss_mode", ["logit-hinge", "probability-hinge"])
    def test_default_config(self, loss_mode):
        self.assert_same_gradients(*default_case(loss_mode))

    @pytest.mark.parametrize("anchor", ["answer", "fused"])
    @pytest.mark.parametrize("fusion_mode", ["cross-aligned", "simple-concat"])
    def test_tiny_configs(self, fusion_mode, anchor):
        cfg = tiny_config(fusion_mode=fusion_mode, anchor_stage3=anchor, layers=2)
        rng = np.random.default_rng(4)
        bundle = dataclasses.replace(
            tiny_bundle(config=cfg), appearance=rng.normal(size=(6, cfg.appearance_dim))
        )
        self.assert_same_gradients(DraxModel(cfg), bundle)

    def test_default_gradients_own_their_memory(self):
        model, bundle = default_case("logit-hinge")
        loss = positive_loss(model, bundle)
        model.zero_grad()
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        datas = [p.data for p in model.parameters()]
        assert len(grads) == len(datas)
        for k, grad in enumerate(grads):
            for other in grads[k + 1:]:
                assert not np.may_share_memory(grad, other)
            for data in datas:
                assert not np.may_share_memory(grad, data)


def zero_loss_case(config):
    """A model and a bundle whose hinge loss is exactly 0 in either loss mode.

    The label is the top-scoring candidate, and the decoder's output weights
    are scaled until every logit gap exceeds 1000, which clears the logit
    margin and saturates the candidate softmax. The masks are unchanged:
    they do not depend on the decoder.
    """
    model = DraxModel(config)
    bundle = tiny_bundle(config=config)
    with T.no_grad():
        logits = model.scores(bundle, model.make_masker())[1].data
    label = int(np.argmax(logits))
    gap = np.min(np.delete(logits[label] - logits, label))
    model.store.params["decoder.w_out"].data *= 1000.0 / gap
    return model, dataclasses.replace(bundle, label=label)


class TestTraining:
    def make_dataset(self, count=6, config=None):
        return [tiny_bundle(seed=i, label=i % 4, config=config) for i in range(count)]

    def test_zero_learning_rate_is_identity(self):
        cfg = tiny_config(learning_rate=0.0)
        model = DraxModel(cfg)
        before = {n: a.copy() for n, a in model.param_arrays().items()}
        train_epoch(model, self.make_dataset(), epoch=1)
        for name, array in model.param_arrays().items():
            np.testing.assert_array_equal(array, before[name])

    def test_same_seed_same_trajectory(self):
        data = self.make_dataset()
        runs = []
        for _ in range(2):
            model = DraxModel(tiny_config())
            history = fit(model, data, epochs=3)
            runs.append([m["loss"] for m in history])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(5))
    def test_single_sample_loss_shrinks_monotonically(self, seed):
        # Masking factors at zero keep the objective free of mask flips, so
        # small-step descent on one sample is monotone after the first epoch.
        cfg = tiny_config(
            seed=seed, learning_rate=0.005, d_f_initial=0.0, delta=0.0, d_f_fusion=0.0
        )
        model = DraxModel(cfg)
        history = fit(model, [tiny_bundle(seed=100 + seed)], epochs=16,
                      target_accuracy=2.0)
        losses = [m["loss"] for m in history]
        assert losses[-1] < losses[0]
        for prev, cur in zip(losses[1:], losses[2:]):
            assert cur <= prev + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_single_sample_converges_with_masking(self, seed):
        # With live masking the trajectory may jump when a step flips a mask,
        # but descent still drives the hinge to zero.
        model = DraxModel(tiny_config(seed=seed, learning_rate=0.01))
        history = fit(model, [tiny_bundle(seed=100 + seed)], epochs=40,
                      target_accuracy=2.0)
        assert history[-1]["loss"] == 0.0

    def test_mask_densities_logged(self):
        model = DraxModel(tiny_config())
        metrics = train_epoch(model, self.make_dataset(4), epoch=1)
        sites = metrics["mask_density"]
        assert any(site.endswith("/fusion") for site in sites)
        assert any("layer1/into1" in site for site in sites)
        assert all(0.0 <= v <= 1.0 for v in sites.values())

    def test_grad_norm_matches_elementwise_sum(self):
        model = DraxModel(DraxConfig())
        rng = np.random.default_rng(0)
        params = model.parameters()
        for p in params[1:]:
            p.grad = rng.normal(size=p.data.shape)
        want = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params[1:]))
        assert global_grad_norm(params) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("grad_clip", [0.0, 1e6, 0.5])
    def test_sgd_step_matches_elementwise_update(self, grad_clip):
        model = DraxModel(tiny_config())
        rng = np.random.default_rng(1)
        params = model.parameters()
        for p in params[1:]:
            p.grad = rng.normal(size=p.data.shape)
        before = [p.data.copy() for p in params]
        norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params[1:]))
        scale = 0.1 * (grad_clip / norm if 0.0 < grad_clip < norm else 1.0)
        sgd_step(params, 0.1, grad_clip)
        assert params[0].data.tobytes() == before[0].tobytes()
        for p, old in zip(params[1:], before[1:]):
            want = old - scale * p.grad
            if grad_clip == 0.5:
                np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=1e-15)
            else:
                assert p.data.tobytes() == want.tobytes(), p.name

    @pytest.mark.parametrize("grad_clip", [0.0, 1e-3])
    def test_sgd_step_leaves_gradients_unchanged(self, grad_clip):
        # Callers read `.grad` after the update, e.g. to check the step taken.
        model, bundle = default_case("logit-hinge")
        positive_loss(model, bundle).backward()
        params = model.parameters()
        grads = [p.grad for p in params]
        before = [g.tobytes() for g in grads]
        norm = sgd_step(params, 0.02, grad_clip)
        assert grad_clip == 0.0 or norm > grad_clip
        assert all(p.grad is g for p, g in zip(params, grads))
        assert [g.tobytes() for g in grads] == before

    def test_gradient_clipping_bounds_step(self):
        model = DraxModel(tiny_config(grad_clip=0.001, learning_rate=1.0))
        rng = np.random.default_rng(0)
        params = model.parameters()[:3]
        before = [p.data.copy() for p in params]
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        sgd_step(params, learning_rate=1.0, grad_clip=0.001)
        moved = np.sqrt(sum(np.sum((p.data - b) ** 2) for p, b in zip(params, before)))
        assert moved == pytest.approx(0.001, rel=1e-6)

    @pytest.mark.parametrize("loss_mode", ["logit-hinge", "probability-hinge"])
    def test_zero_loss_has_zero_gradients(self, loss_mode):
        model, bundle = zero_loss_case(tiny_config(loss_mode=loss_mode))
        loss, _ = model.sample_loss(bundle, model.make_masker())
        assert loss.item() == 0.0
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())
        for p in model.parameters():
            assert p.grad is None or not np.any(p.grad), p.name

    @pytest.mark.parametrize("loss_mode", ["logit-hinge", "probability-hinge"])
    def test_zero_loss_step_skips_backward_and_update(self, loss_mode):
        model, bundle = zero_loss_case(tiny_config(loss_mode=loss_mode))
        before = {n: a.copy() for n, a in model.param_arrays().items()}
        metrics = train_epoch(model, [bundle], epoch=1)
        assert all(p.grad is None for p in model.parameters())
        for name, array in model.param_arrays().items():
            assert array.tobytes() == before[name].tobytes(), name
        # The full step, backward and update, which a zero loss reduces to the identity.
        full, _ = zero_loss_case(tiny_config(loss_mode=loss_mode))
        masker = full.make_masker()
        full.zero_grad()
        loss, probs = full.sample_loss(bundle, masker)
        loss.backward()
        sgd_step(full.parameters(), full.config.learning_rate, full.config.grad_clip)
        assert metrics == {
            "loss": loss.item(),
            "accuracy": float(predict(probs) == bundle.label),
            "mask_density": dict(sorted(masker.density_by_site().items())),
        }
        for name, array in full.param_arrays().items():
            assert array.tobytes() == before[name].tobytes(), name

    def test_nan_loss_skips_backward_and_update(self, monkeypatch):
        """A NaN that reaches the loss only through the hinge (whose relu
        passes no gradient for NaN) takes no step, and is still reported."""
        model = DraxModel(tiny_config())
        model.store.params["decoder.b_out"].data[0] = np.nan
        before = {n: a.tobytes() for n, a in model.param_arrays().items()}
        calls = []
        monkeypatch.setattr(Tensor, "backward", lambda loss: calls.append(loss))
        metrics = train_epoch(model, self.make_dataset(3), epoch=1)
        assert math.isnan(metrics["loss"])
        assert calls == []
        assert all(p.grad is None for p in model.parameters())
        for n, array in model.param_arrays().items():
            assert array.tobytes() == before[n], n

    @pytest.mark.parametrize("name", ["embed.appearance.w", "embed.question.w"])
    def test_nan_parameter_poisons_no_other_parameter(self, name):
        """A NaN in an embedding makes the loss and every gradient it reaches
        NaN: `train_epoch` skips each step, `sgd_step` refuses a NaN norm,
        and every parameter keeps its bytes."""
        model = DraxModel(tiny_config())
        model.store.params[name].data.flat[0] = np.nan
        before = {n: a.tobytes() for n, a in model.param_arrays().items()}
        train_epoch(model, self.make_dataset(3), epoch=1)
        loss, _ = model.sample_loss(self.make_dataset(1)[0])
        loss.backward()
        assert math.isnan(sgd_step(model.parameters(), 0.1))
        for n, array in model.param_arrays().items():
            assert array.tobytes() == before[n], n

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sgd_step_skips_non_finite_norm(self, bad):
        model = DraxModel(tiny_config())
        params = model.parameters()
        for p in params:
            p.grad = np.ones_like(p.data)
        params[-1].grad.flat[0] = bad
        before = [p.data.tobytes() for p in params]
        norm = sgd_step(params, 0.1, grad_clip=1.0)
        assert not math.isfinite(norm)
        assert [p.data.tobytes() for p in params] == before

    def test_empty_dataset_rejected(self):
        model = DraxModel(tiny_config())
        with pytest.raises(ValueError):
            train_epoch(model, [], epoch=1)
        with pytest.raises(ValueError):
            evaluate(model, [])

    def test_evaluate_deterministic_and_ordered(self):
        model = DraxModel(tiny_config())
        data = self.make_dataset(5)
        r1, r2 = evaluate(model, data), evaluate(model, data)
        assert r1 == r2
        assert [s["index"] for s in r1["samples"]] == list(range(5))

    def test_evaluate_records_no_tape(self, monkeypatch):
        model = DraxModel(tiny_config())
        data = self.make_dataset(3)
        with_tape = [model.sample_loss(bundle) for bundle in data]
        losses = []
        original = model.sample_loss

        def sample_loss(*args):
            loss, probs = original(*args)
            losses.append(loss)
            return loss, probs

        monkeypatch.setattr(model, "sample_loss", sample_loss)
        report = evaluate(model, data)
        assert [s["probabilities"] for s in report["samples"]] == [
            [float(v) for v in probs] for _, probs in with_tape
        ]
        assert report["loss"] == sum(loss.item() for loss, _ in with_tape) / len(data)
        assert len(losses) == len(data)
        assert not any(loss.requires_grad for loss in losses)
        assert all(p.grad is None for p in model.parameters())


class TestCheckpoint:
    def test_round_trip_preserves_outputs(self, tmp_path):
        model = DraxModel(tiny_config(d_f_initial=0.2, delta=0.1))
        data = [tiny_bundle(seed=i) for i in range(3)]
        fit(model, data, epochs=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_model(path)
        assert clone.config == model.config
        bundle = tiny_bundle(seed=9)
        np.testing.assert_array_equal(
            clone.forward(bundle).data, model.forward(bundle).data
        )

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = DraxModel(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        class NoDraws:
            def __init__(self, seed):
                pass

            def uniform(self, *args, **kwargs):
                raise AssertionError("load_model drew initial parameter values")

        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        clone = load_model(path)
        for name, array in model.param_arrays().items():
            assert clone.param_arrays()[name].tobytes() == array.tobytes(), name

    def test_eval_accuracy_preserved(self, tmp_path):
        model = DraxModel(tiny_config())
        data = [tiny_bundle(seed=i, label=i % 4) for i in range(5)]
        fit(model, data, epochs=1)
        before = evaluate(model, data)["accuracy"]
        save_checkpoint(model, tmp_path / "m.ckpt")
        after = evaluate(load_model(tmp_path / "m.ckpt"), data)["accuracy"]
        assert before == after

    def test_header_and_payload_layout(self, tmp_path):
        model = DraxModel(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        config_dict, arrays = read_checkpoint(path)
        assert config_dict["d"] == model.config.d
        assert set(arrays) == set(model.store.params)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = DraxModel(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        _, arrays = read_checkpoint(path)
        arrays["decoder.w_a"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            restore_parameters(model, arrays)

    def test_missing_and_unknown_parameters_rejected(self, tmp_path):
        model = DraxModel(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        _, arrays = read_checkpoint(path)
        del arrays["decoder.w_a"]
        with pytest.raises(CheckpointError, match="missing"):
            restore_parameters(model, arrays)
        _, arrays = read_checkpoint(path)
        arrays["mystery"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="unknown"):
            restore_parameters(model, arrays)

    def test_truncated_payload_rejected(self, tmp_path):
        model = DraxModel(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            read_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("decoder.b_out", np.nan), ("decoder.w_a", np.inf)])
    def test_load_model_rejects_non_finite_payload(self, tmp_path, name, value):
        model = DraxModel(tiny_config())
        model.store.params[name].data.flat[-1] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match=f"parameter {name!r} holds NaN or infinite"):
            load_model(path)

    def test_load_model_rejects_truncated_and_trailing_payloads(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DraxModel(tiny_config()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(path)
        path.write_bytes(raw + bytes(8))
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays: arrays.update({"decoder.w_a": np.zeros((2, 2))}), "shape mismatch"),
        (lambda arrays: arrays.pop("decoder.w_a"), "missing parameters: decoder.w_a"),
        (lambda arrays: arrays.update({"mystery": np.zeros(3)}), "unknown parameters: mystery"),
    ])
    def test_load_model_rejects_stored_layout_mismatch(self, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DraxModel(tiny_config()), path)
        config_dict, arrays = read_checkpoint(path)
        arrays = dict(arrays)
        edit(arrays)
        # A well-formed file whose header and payload agree with each other,
        # but not with the model its config builds.
        entries = [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()]
        header = json.dumps({"config": config_dict, "params": entries}).encode("utf-8")
        payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())
        path.write_bytes(struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(CheckpointError, match=message):
            load_model(path)
