"""Three-stage model wiring: CLS handling, decoding, loss, training loop."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from drax import tensor as T
from drax.attention import run_encoder_stack
from drax.checkpoint import load_model, read_checkpoint, save_checkpoint
from drax.cli import settings
from drax.data import (
    DataError,
    FeatureBundle,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from drax.distraction import MaskController, MaskRecord, schedule_df
from drax.model import (
    ConfigError,
    DecoderParams,
    DraxConfig,
    DraxModel,
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
            {"anchor_stage1": "question"},
            {"anchor_stage2": "appearance"},
            {"anchor_stage3": "question"},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"layer_norm_eps": float("nan")},
            {"delta": float("nan")},
            {"delta": float("inf")},
            {"grad_clip": float("nan")},
            {"grad_clip": float("inf")},
            {"seed": -3},
        ],
    )
    def test_invalid_values(self, overrides):
        with pytest.raises(ConfigError):
            DraxConfig(**overrides).validate()

    # The numeric settings that may be 0; every other numeric one must be positive.
    ZERO_ALLOWED = {"seed", "delta", "learning_rate", "grad_clip", "d_f_initial", "d_f_fusion",
                    "distractor_tokens", "noise_sigma"}

    @pytest.mark.parametrize("cls, field", [
        (cls, f) for cls in (DraxConfig, SyntheticSpec) for f in dataclasses.fields(cls)
        if f.type != "bool"
    ], ids=lambda value: value.__name__ if isinstance(value, type) else value.name)
    def test_setting_range(self, cls, field):
        """A negative number is refused, and so is 0 unless the setting may
        be 0; a string outside its choices is refused. Each refusal is the
        class's error and names the setting."""
        error = ConfigError if cls is DraxConfig else DataError
        names_it = rf"\b{field.name}\b"

        def validate(value):
            dataclasses.replace(cls(), **{field.name: value}).validate()

        if field.type == "str":
            with pytest.raises(error, match=names_it):
                validate("nonesuch")
            return
        unit = 1 if field.type == "int" else 1.0
        with pytest.raises(error, match=names_it):
            validate(-unit)
        if field.name in self.ZERO_ALLOWED:
            validate(0 * unit)
        else:
            with pytest.raises(error, match=names_it):
                validate(0 * unit)

    def test_round_trip(self):
        cfg = tiny_config(delta=0.15, loss_mode="probability-hinge")
        again = DraxConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            DraxConfig.from_dict({"d": 8, "mystery": 1})

    def test_coerce(self):
        def coerce(cls, raw, what="config"):
            return settings(cls, SimpleNamespace(set=[f"{k}={v}" for k, v in raw.items()]), what)

        typed = coerce(DraxConfig, {
            "d": "32", "delta": "0.25", "masking_enabled": "false",
            "loss_mode": "logit-hinge",
        })
        assert typed == {
            "d": 32, "delta": 0.25, "masking_enabled": False, "loss_mode": "logit-hinge",
        }
        assert typed["masking_enabled"] is False
        spec = coerce(SyntheticSpec, {"samples": "12", "noise_sigma": "0.75"})
        assert spec == {"samples": 12, "noise_sigma": 0.75}
        assert isinstance(spec["samples"], int) and isinstance(spec["noise_sigma"], float)
        with pytest.raises(ConfigError):
            coerce(DraxConfig, {"d": "eight"})
        with pytest.raises(ConfigError):
            coerce(DraxConfig, {"masking_enabled": "maybe"})
        with pytest.raises(ConfigError, match="unknown config key: nonesuch"):
            coerce(DraxConfig, {"nonesuch": "1"})
        with pytest.raises(ConfigError, match="cannot parse samples='1.5' as int"):
            coerce(SyntheticSpec, {"samples": "1.5"})
        with pytest.raises(ConfigError, match="unknown generator key: d"):
            coerce(SyntheticSpec, {"d": "8"}, "generator")


class TestSequencesAndPositions:
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
        out = add_cls_and_pos(Tensor(np.zeros((3, 6))), cls_token, None)
        assert out.shape == (4, 6)
        expected = np.vstack([cls_token.data, np.zeros((3, 6))]) + sinusoidal_encoding(4, 6)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_learned_positions_added(self):
        store = ParamStore(1)
        cls_token = store.row("cls", 4)
        table = store.uniform("pos", (8, 4), 8, 4)
        out = add_cls_and_pos(Tensor(np.ones((2, 4))), cls_token, table)
        expected = np.vstack([cls_token.data, np.ones((2, 4))]) + table.data[:3]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_length_over_table_rejected(self):
        store = ParamStore(3)
        cls_token = store.row("cls", 4)
        table = store.uniform("pos", (3, 4), 3, 4)
        with pytest.raises(ConfigError, match="max_positions"):
            add_cls_and_pos(Tensor(np.zeros((5, 4))), cls_token, table)

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
        assert fused1.tokens.shape == (3, model.config.d)
        question = model.embed_tokens(bundle.question, "question")
        fused2 = model.run_stage(1, fused1, question, masker)
        # Streams in the wrong order fail the stage's stream-pair check.
        with pytest.raises(ValueError, match=r"stage2 expects \(fused, question\)"):
            model.run_stage(1, question, fused1, masker)
        assert fused2.tokens.shape == (3, model.config.d)
        answer = model.embed_tokens(bundle.answers[0], "answer")
        final = model.run_stage(2, fused2, answer, masker, keep_cls=True)
        # Anchor is the answer (2 rows + CLS) and the CLS row is retained.
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
        assert (rec.d_f, rec.density, rec.mask.shape) == (
            want_rec.d_f, want_rec.density, want_rec.mask.shape)
        np.testing.assert_array_equal(rec.mask, want_rec.mask)


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
        levels = model.stages[2].levels

        def run(first):
            model.zero_grad()
            shared.zero_grad()
            batch.zero_grad()
            masker = model.make_masker(record="full")
            tokens = T.broadcast(shared, 3) if first else shared
            masks = [tuple(masker.site(d_f, tuple(f"{s}/layer{k}/into{i}" for s in sites))
                           for i in (1, 2))
                     for k, d_f in enumerate(model.layer_factors, start=1)]
            y1, y2 = run_encoder_stack(tokens, batch, levels, masks)
            T.backward(T.tensor_sum(y1 * probes[0]) + T.tensor_sum(y2 * probes[1]))
            grads = {p.name: p.grad for p in model.parameters()}
            grads.update(shared=shared.grad, batch=batch.grad)
            return y1.data, y2.data, grads, masker.records

        y1, y2, grads, records = run(first=False)
        want_y1, want_y2, want_grads, want_records = run(first=True)
        assert y1.tobytes() == want_y1.tobytes() and y2.tobytes() == want_y2.tobytes()
        assert [(r.site, r.density, r.mask.tobytes()) for r in records] == [
            (r.site, r.density, r.mask.tobytes()) for r in want_records
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
            return MaskController(mode="replay", frozen=frozen)

        got = forward_outputs(model, lambda masker: model.forward(bundle, masker), replay())
        want = forward_outputs(model, lambda masker: looped_forward(model, bundle, masker),
                               replay())
        assert_same_outputs(got, want)
        assert got[2] == want[2] == []

    def test_summary_pass_freezes_the_masks_of_a_full_pass(self):
        """`frozen_masks` after a summary-mode live pass holds the masks a
        full pass records, and replaying them gives the live loss bit for bit."""
        model = DraxModel(tiny_config(layers=2))
        bundle = tiny_bundle(seed=8)
        summary, full = model.make_masker(), model.make_masker(record="full")
        with T.no_grad():
            live_loss, live_probs = model.sample_loss(bundle, summary)
            model.sample_loss(bundle, full)
        frozen, want = summary.frozen_masks(), full.frozen_masks()
        assert list(frozen) == list(want) and any(m.any() for m in frozen.values())
        assert all(frozen[site].tobytes() == mask.tobytes() for site, mask in want.items())
        with T.no_grad():
            loss, probs = model.sample_loss(bundle, MaskController(mode="replay", frozen=frozen))
        assert loss.data.tobytes() == live_loss.data.tobytes()
        assert probs.tobytes() == live_probs.tobytes()

    def test_summary_and_full_records_differ_only_in_pre_weights(self):
        model = DraxModel(tiny_config(layers=2))
        records = []
        for record in ("summary", "full"):
            masker = MaskController(record=record)
            model.forward(tiny_bundle(seed=9), masker)
            records.append(masker.records)
        summary, full = records
        assert len(summary) == len(full) > 0
        for got, want in zip(summary, full):
            assert got.pre_weights is None and want.pre_weights.shape == want.mask.shape
            for field in dataclasses.fields(MaskRecord):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if field.name == "pre_weights":
                    continue
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                else:
                    assert a == b, field.name

    def test_rejects_answers_that_are_not_token_matrices(self):
        model = DraxModel(tiny_config())
        bundle = tiny_bundle()
        # A bundle refuses a 1-D answer itself; the model checks duck-typed ones.
        flat = SimpleNamespace(**{**vars(bundle), "answers": (bundle.answers[0][0],
                                                             *bundle.answers[1:])})
        with pytest.raises(ShapeError):
            model.forward(flat)


class TestFrozenMaskReplay:
    """Replay reads its masks through one read-only `FrozenMasks`, which
    builds each site's keep factors once; a replay records nothing."""

    @staticmethod
    def _pass(model, bundle, masker):
        model.zero_grad()
        loss, probs = model.sample_loss(bundle, masker)
        T.backward(loss)
        grads = [None if p.grad is None else p.grad.tobytes() for p in model.parameters()]
        records = [(r.site, r.d_f, r.density, r.mask.tobytes(),
                    None if r.pre_weights is None else r.pre_weights.tobytes())
                   for r in masker.records]
        return loss.data.tobytes(), probs.tobytes(), grads, records

    @pytest.mark.parametrize("record", ["summary", "full"])
    @pytest.mark.parametrize("lengths", [(2, 2, 2, 2), (2, 3, 2, 1)])
    def test_frozen_mapping_plain_dict_and_live_agree(self, record, lengths):
        """Replays of the masks frozen after a live pass at either record
        level give its loss, probabilities and every gradient bit for bit,
        over repeated replays that reuse the cached keep factors."""
        model = DraxModel(tiny_config(layers=2))
        rng = np.random.default_rng(12)
        bundle = dataclasses.replace(
            tiny_bundle(seed=8), answers=tuple(rng.normal(size=(n, 5)) for n in lengths)
        )
        live = MaskController(record=record)
        want = self._pass(model, bundle, live)
        frozen = live.frozen_masks()
        plain = {site: np.array(mask) for site, mask in frozen.items()}
        assert any(r[2] > 0.0 for r in want[3])
        for masks in (frozen, frozen, plain):
            replay = MaskController(mode="replay", frozen=masks)
            assert (replay.frozen is frozen) == (masks is frozen)
            for _ in range(2):
                assert self._pass(model, bundle, replay) == (*want[:3], [])

    def test_replay_records_nothing(self):
        """A replay appends no record, so it has no densities, and its
        outputs equal the live pass's bit for bit."""
        model = DraxModel(tiny_config(layers=2))
        bundle = tiny_bundle(seed=8)
        live = model.make_masker()
        want = self._pass(model, bundle, live)
        assert want[3] and live.density_by_site()
        replay = MaskController(mode="replay", frozen=live.frozen_masks())
        assert self._pass(model, bundle, replay) == (*want[:3], [])
        assert replay.records == [] and replay.density_by_site() == {}

    def test_a_replay_freezes_no_masks(self):
        """`frozen_masks()` after a replay is empty, and a replay of that map
        with masking on fails at the model's first site."""
        model = DraxModel(tiny_config(layers=2))
        bundle = tiny_bundle(seed=8)
        live = model.make_masker()
        model.forward(bundle, live)
        replay = MaskController(mode="replay", frozen=live.frozen_masks())
        model.forward(bundle, replay)
        empty = replay.frozen_masks()
        assert len(empty) == 0
        with pytest.raises(KeyError, match="site 'stage1/layer1/into1'"):
            model.forward(bundle, MaskController(mode="replay", frozen=empty))

    def test_frozen_masks_are_read_only(self):
        model = DraxModel(tiny_config())
        live = model.make_masker()
        model.forward(tiny_bundle(seed=8), live)
        frozen = live.frozen_masks()
        site = next(iter(frozen))
        with pytest.raises(TypeError):
            frozen[site] = np.zeros_like(frozen[site])
        with pytest.raises(ValueError):
            frozen[site][...] = True
        labels = tuple(s for s in frozen if s.endswith("/layer1/into1")
                       and s.startswith("stage3/"))
        keep = frozen.keep(labels)
        assert keep.shape[0] == 4 and not keep.flags.writeable
        assert keep is frozen.keep(labels)
        assert keep.tobytes() == (1.0 - np.stack([frozen[s] for s in labels])).tobytes()
        # A plain dict is copied in: writing to it afterwards changes no replay.
        plain = {s: np.array(m) for s, m in frozen.items()}
        replay = MaskController(mode="replay", frozen=plain)
        plain[site][...] = ~plain[site]
        assert replay.frozen[site].tobytes() == frozen[site].tobytes()


class TestMaskingSchedule:
    """The model fixes its factors when it is built; a masker passed to
    `forward` chooses only live or replay and the record level."""

    def test_layer_factors_follow_schedule_df(self):
        for allow in (False, True):
            for d_f_initial, delta, layers in ((0.3, 0.3, 4), (0.9, 0.3, 2), (0.4, 0.0, 3)):
                cfg = tiny_config(d_f_initial=d_f_initial, delta=delta, layers=layers,
                                  allow_df_above_one=allow)
                model = DraxModel(cfg, draw=False)
                assert model.layer_factors == tuple(
                    schedule_df(d_f_initial, delta, k, allow) for k in range(1, layers + 1)
                )
                assert model.fusion_factor == cfg.d_f_fusion
        off = DraxModel(tiny_config(masking_enabled=False), draw=False)
        assert off.layer_factors is None and off.fusion_factor is None

    def test_every_site_label_carries_its_factor(self):
        """Stage 1 and 2 record each level's into1 and into2, then fusion;
        stage 3 records the same per candidate, in candidate order."""
        model = DraxModel(tiny_config(layers=3))
        masker = model.make_masker()
        model.forward(tiny_bundle(seed=5), masker)
        assert model.layer_factors == pytest.approx((0.3, 0.6, 0.9), abs=1e-12)

        def stage(site):
            return [(f"{site}/layer{k}/into{i}", d_f)
                    for k, d_f in enumerate(model.layer_factors, start=1) for i in (1, 2)
                    ] + [(f"{site}/fusion", model.fusion_factor)]

        want = stage("stage1") + stage("stage2")
        want += [pair for c in range(4) for pair in stage(f"stage3/cand{c}")]
        assert [(rec.site, rec.d_f) for rec in masker.records] == want

    def test_masking_off_replays_under_a_caller_built_masker(self):
        """Criterion 5's pattern on a masking-off model: a full live pass,
        then a replay of its (empty) frozen masks."""
        model = DraxModel(tiny_config(layers=2, masking_enabled=False))
        bundle = tiny_bundle(seed=3)
        live = model.make_masker(record="full")
        want = TestFrozenMaskReplay._pass(model, bundle, live)
        assert want[3] == []
        replay = MaskController(mode="replay", frozen=live.frozen_masks())
        assert TestFrozenMaskReplay._pass(model, bundle, replay) == want

    def test_masking_off_ignores_a_caller_built_masker(self):
        model = DraxModel(tiny_config(layers=2, masking_enabled=False))
        bundle = tiny_bundle(seed=3)
        masker = MaskController()
        got = model.forward(bundle, masker).data
        assert masker.records == []
        assert got.tobytes() == model.forward(bundle).data.tobytes()

    def test_factors_above_one_reach_every_masker(self):
        """Levels 1-4 mask at 0.3, 0.6, 0.9 and 1.2, whichever masker runs
        them: a live pass records each site's factor, and a replay of its
        masks gives the same outputs."""
        model = DraxModel(tiny_config(layers=4, allow_df_above_one=True))
        bundle = tiny_bundle(seed=4)

        def forward(masker):
            return model.forward(bundle, masker)

        want = forward_outputs(model, forward, model.make_masker())
        assert_same_outputs(forward_outputs(model, forward, MaskController()), want)
        live = MaskController(record="full")
        forward(live)
        replay = MaskController(mode="replay", frozen=live.frozen_masks())
        assert_same_outputs(forward_outputs(model, forward, replay), (*want[:2], []))
        assert model.layer_factors[3] == pytest.approx(1.2)
        assert replay.records == [] and live.records
        for rec in live.records:
            if rec.site.endswith("/fusion"):
                assert rec.d_f == model.fusion_factor
            else:
                level = int(rec.site.split("/layer")[1].split("/")[0])
                assert rec.d_f == model.layer_factors[level - 1], rec.site

    def test_a_factor_of_one_keeps_each_row_maximum(self):
        """The default schedule caps level 4 at exactly 1.0 (0.3 + 3 * 0.3):
        every live site there masks all but each row's maximum, which the
        strict comparison keeps, so no row is masked whole."""
        model = DraxModel(tiny_config(layers=4))
        assert model.layer_factors[3] == 1.0
        masker = model.make_masker(record="full")
        model.forward(tiny_bundle(seed=4), masker)
        at_one = [rec for rec in masker.records if rec.d_f == 1.0]
        assert at_one and any(rec.density > 0.0 for rec in at_one)
        for rec in at_one:
            argmax = rec.pre_weights.argmax(axis=-1)[..., None]
            assert not np.take_along_axis(rec.mask, argmax, axis=-1).any(), rec.site
            assert not rec.mask.all(axis=-1).any(), rec.site


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

    @pytest.mark.parametrize("seed", [0, 3])
    def test_epoch_visits_samples_in_seeded_shuffle_order(self, seed, monkeypatch):
        """Each epoch takes its steps in `default_rng([seed, epoch])`'s
        permutation; the visits are told apart by bundle identity, so no
        float of this host decides the result."""
        model = DraxModel(tiny_config(seed=seed))
        data = self.make_dataset(8)
        index = {id(bundle): i for i, bundle in enumerate(data)}
        visited = []
        sample_loss = model.sample_loss

        def recorded(bundle, masker=None):
            visited.append(index[id(bundle)])
            return sample_loss(bundle, masker)

        monkeypatch.setattr(model, "sample_loss", recorded)
        for epoch in (1, 2):
            visited.clear()
            train_epoch(model, data, epoch)
            want = np.random.default_rng([seed, epoch]).permutation(len(data)).tolist()
            assert want != sorted(want)
            assert visited == want

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

    def test_forward_sees_the_last_steps_gradients(self):
        """A step clears the last step's gradients after its forward, which
        never reads `.grad`: each later forward still sees them, and
        clearing them before the forward gives the same losses and
        parameters."""
        data = self.make_dataset(3)

        def run(clear_first):
            model = DraxModel(tiny_config())
            forward, seen = model.sample_loss, []

            def spy(bundle, masker=None):
                if clear_first:
                    model.zero_grad()
                seen.append(any(p.grad is not None for p in model.parameters()))
                return forward(bundle, masker)

            model.sample_loss = spy
            metrics = train_epoch(model, data, epoch=1)
            return seen, metrics, {n: a.tobytes() for n, a in model.param_arrays().items()}

        seen, metrics, params = run(clear_first=False)
        assert seen == [False, True, True]
        assert run(clear_first=True) == ([False, False, False], metrics, params)

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


class TestStoredPrecision:
    """Bundles hold float32 features; `embed_tokens` is the one widening."""

    @pytest.mark.parametrize("case", ["tiny", "default"])
    def test_forward_matches_float64_widened_copy(self, case):
        if case == "tiny":
            model, bundle = DraxModel(tiny_config()), tiny_bundle(seed=3)
        else:
            model = DraxModel(DraxConfig(seed=1))
            bundle = generate_synthetic(SyntheticSpec(samples=1, seed=4))[0]
        # A FeatureBundle would narrow the arrays again: widen a plain copy.
        wide = SimpleNamespace(
            appearance=bundle.appearance.astype(np.float64),
            motion=bundle.motion.astype(np.float64),
            question=bundle.question.astype(np.float64),
            answers=tuple(a.astype(np.float64) for a in bundle.answers), label=bundle.label,
        )
        assert bundle.appearance.dtype == np.float32
        runs = [
            forward_outputs(model, lambda m, b=b: model.forward(b, m), model.make_masker("full"))
            for b in (bundle, wide)
        ]
        (reps, grads, records), (want_reps, want_grads, want_records) = runs
        assert reps.tobytes() == want_reps.tobytes()
        for name, grad in grads.items():
            want = want_grads[name]
            assert (grad is want is None) or grad.tobytes() == want.tobytes(), name
        assert len(records) == len(want_records) > 0
        for rec, want in zip(records, want_records):
            assert (rec.site, rec.density) == (want.site, want.density)
            assert rec.mask.tobytes() == want.mask.tobytes()

    def test_fit_in_memory_equals_fit_on_saved_copy(self, tmp_path):
        spec = SyntheticSpec(
            samples=6, frames=5, clips=3, question_len=3, answer_len=2, signal_dims=3,
            distractor_tokens=1, appearance_dim=6, motion_dim=10, text_dim=5, seed=2,
        )
        memory = generate_synthetic(spec)
        save_dataset(memory, tmp_path, spec)
        runs = []
        for dataset in (memory, load_dataset(tmp_path)):
            model = DraxModel(tiny_config())
            losses = [m["loss"] for m in fit(model, dataset, epochs=3)]
            runs.append((losses, model.param_arrays()))
        (losses, params), (want_losses, want_params) = runs
        assert len(losses) == 3 and losses == want_losses
        for name, array in params.items():
            assert array.tobytes() == want_params[name].tobytes(), name


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

    def test_shape_mismatch_rejected(self, refused):
        refused("ckpt-param-shape-mismatch-eval")

    def test_missing_and_unknown_parameters_rejected(self, refused):
        refused("ckpt-param-missing-eval", "ckpt-param-unknown-eval")

    @pytest.mark.parametrize("row", [
        pytest.param("ckpt-param-shape-mismatch-inspect-attention", id="<lambda>-shape mismatch"),
        pytest.param("ckpt-param-missing-inspect-attention",
                     id="<lambda>-missing parameters: decoder.w_a"),
        pytest.param("ckpt-param-unknown-inspect-attention",
                     id="<lambda>-unknown parameters: mystery"),
    ])
    def test_load_model_rejects_stored_layout_mismatch(self, refused, row):
        refused(row)

    def test_truncated_payload_rejected(self, refused):
        refused("ckpt-truncated-eval")

    def test_load_model_rejects_truncated_and_trailing_payloads(self, refused):
        refused("ckpt-truncated-inspect-attention", "ckpt-trailing-bytes")

    @pytest.mark.parametrize("row", [
        pytest.param("ckpt-param-nan-decoder.b_out-last", id="decoder.b_out-nan"),
        pytest.param("ckpt-param-inf-decoder.w_a-last", id="decoder.w_a-inf"),
    ])
    def test_load_model_rejects_non_finite_payload(self, refused, row):
        refused(row)

    def test_repeated_parameter_name_rejected(self, refused):
        refused("ckpt-param-repeated")
