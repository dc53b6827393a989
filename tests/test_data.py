"""Feature-file round-trips, corruption detection, and generator statistics."""

import dataclasses

import numpy as np
import pytest

from drax import data
from drax.data import (
    ANSWER_COUNT,
    BadMagicError,
    ChecksumError,
    DataError,
    FeatureBundle,
    SyntheticSpec,
    TruncatedError,
    VersionError,
    generate_synthetic,
    load_dataset,
    pseudo_embed,
    read_features,
    save_dataset,
    write_features,
)

TINY = SyntheticSpec(
    samples=4, frames=6, clips=4, question_len=3, answer_len=2,
    signal_dims=4, distractor_tokens=2, noise_sigma=0.5, seed=7,
    appearance_dim=12, motion_dim=16, text_dim=10,
)


def random_bundle(seed=0) -> FeatureBundle:
    rng = np.random.default_rng(seed)
    return FeatureBundle(
        appearance=rng.normal(size=(5, 8)).astype(np.float32),
        motion=rng.normal(size=(3, 6)).astype(np.float32),
        question=rng.normal(size=(4, 7)).astype(np.float32),
        answers=tuple(rng.normal(size=(2, 7)).astype(np.float32) for _ in range(4)),
        label=2,
    )


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        bundle = random_bundle()
        path = tmp_path / "sample.drxf"
        write_features(bundle, path)
        back = read_features(path)
        np.testing.assert_array_equal(back.appearance, bundle.appearance.astype(np.float64))
        np.testing.assert_array_equal(back.motion, bundle.motion.astype(np.float64))
        np.testing.assert_array_equal(back.question, bundle.question.astype(np.float64))
        for got, want in zip(back.answers, bundle.answers):
            np.testing.assert_array_equal(got, want.astype(np.float64))
        assert back.label == 2

    def test_write_is_deterministic(self, tmp_path):
        bundle = random_bundle()
        write_features(bundle, tmp_path / "a.drxf")
        write_features(bundle, tmp_path / "b.drxf")
        assert (tmp_path / "a.drxf").read_bytes() == (tmp_path / "b.drxf").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.drxf"
        write_features(random_bundle(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_features(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v99.drxf"
        write_features(random_bundle(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            read_features(path)

    def test_payload_corruption_detected(self, tmp_path):
        path = tmp_path / "corrupt.drxf"
        write_features(random_bundle(), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_features(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "short.drxf"
        write_features(random_bundle(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(TruncatedError):
            read_features(path)

    def test_bundle_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DataError):
            FeatureBundle(
                appearance=rng.normal(size=(2, 3)), motion=rng.normal(size=(2, 3)),
                question=rng.normal(size=(2, 3)),
                answers=(rng.normal(size=(1, 3)),) * 3, label=0,
            )
        with pytest.raises(DataError):
            FeatureBundle(
                appearance=rng.normal(size=(2, 3)), motion=rng.normal(size=(2, 3)),
                question=rng.normal(size=(2, 3)),
                answers=(rng.normal(size=(1, 3)),) * 4, label=9,
            )

    @pytest.mark.parametrize("field", ["appearance", "motion", "question", "answers"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bundle_rejected(self, field, bad):
        rng = np.random.default_rng(2)
        parts = dict(
            appearance=rng.normal(size=(2, 3)), motion=rng.normal(size=(2, 3)),
            question=rng.normal(size=(2, 3)),
            answers=tuple(rng.normal(size=(1, 3)) for _ in range(4)), label=0,
        )
        if field == "answers":
            parts["answers"][3][0, 1] = bad
        else:
            parts[field][1, 2] = bad
        with pytest.raises(DataError, match="non-finite"):
            FeatureBundle(**parts)

    @pytest.mark.parametrize("label", [[], [np.nan], [np.inf], [2.6]],
                             ids=["empty", "nan", "inf", "fraction"])
    def test_malformed_label_rejected(self, tmp_path, monkeypatch, label):
        # A well-formed file (valid CRC) whose label tensor is not one integer.
        bundle = random_bundle()
        records = data._tensor_records(bundle)[:-1] + [("label", np.array(label))]
        monkeypatch.setattr(data, "_tensor_records", lambda _: records)
        path = tmp_path / "label.drxf"
        write_features(bundle, path)
        with pytest.raises(DataError, match="label"):
            read_features(path)


class TestPseudoEmbed:
    def test_deterministic(self):
        np.testing.assert_array_equal(pseudo_embed("car", 32), pseudo_embed("car", 32))

    def test_unit_norm(self):
        assert np.linalg.norm(pseudo_embed("car", 300)) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_tokens_differ(self):
        assert not np.allclose(pseudo_embed("car", 300), pseudo_embed("cat", 300))

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            pseudo_embed("", 8)


def linear_oracle_accuracy(bundles, signal_dims) -> float:
    """Dot the mean video signal-band against each answer's mean signal-band."""
    hits = 0
    for b in bundles:
        video = np.concatenate([b.appearance[:, :signal_dims], b.motion[:, :signal_dims]])
        probe = video.mean(axis=0)
        scores = [probe @ a[:, :signal_dims].mean(axis=0) for a in b.answers]
        hits += int(np.argmax(scores) == b.label)
    return hits / len(bundles)


class TestSyntheticGenerator:
    def test_shapes_and_label_range(self):
        bundles = generate_synthetic(TINY)
        assert len(bundles) == TINY.samples
        for b in bundles:
            assert b.appearance.shape == (TINY.frames + TINY.distractor_tokens, 12)
            assert b.motion.shape == (TINY.clips + TINY.distractor_tokens, 16)
            assert b.question.shape == (TINY.question_len, 10)
            assert len(b.answers) == ANSWER_COUNT
            assert 0 <= b.label < ANSWER_COUNT

    def test_same_seed_identical(self):
        a = generate_synthetic(TINY)
        b = generate_synthetic(TINY)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.appearance, y.appearance)
            np.testing.assert_array_equal(x.motion, y.motion)
            assert x.label == y.label

    def test_different_seed_differs(self):
        other = dataclasses.replace(TINY, seed=TINY.seed + 1)
        assert not np.array_equal(
            generate_synthetic(TINY)[0].appearance,
            generate_synthetic(other)[0].appearance,
        )

    def test_noiseless_data_is_linearly_solvable(self):
        clean = dataclasses.replace(TINY, samples=40, noise_sigma=0.0, distractor_tokens=0)
        bundles = generate_synthetic(clean)
        assert linear_oracle_accuracy(bundles, clean.signal_dims) == 1.0

    def test_oracle_degrades_with_noise(self):
        accs = []
        for sigma in (0.0, 0.5, 1.0, 2.0):
            spec = dataclasses.replace(
                TINY, samples=60, noise_sigma=sigma, distractor_tokens=0, seed=11
            )
            accs.append(linear_oracle_accuracy(generate_synthetic(spec), TINY.signal_dims))
        assert all(lo >= hi for lo, hi in zip(accs, accs[1:]))
        assert accs[0] == 1.0
        assert accs[-1] < accs[0]

    def test_label_histogram_roughly_uniform(self):
        spec = dataclasses.replace(TINY, samples=1000, seed=3)
        labels = [b.label for b in generate_synthetic(spec)]
        counts = np.bincount(labels, minlength=4)
        expectation = 250.0
        sigma = np.sqrt(1000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expectation) < 3 * sigma)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            dataclasses.replace(TINY, signal_dims=50).validate()
        with pytest.raises(DataError):
            dataclasses.replace(TINY, distractor_tokens=5).validate()
        with pytest.raises(DataError):
            dataclasses.replace(TINY, noise_sigma=-1.0).validate()
        with pytest.raises(DataError):
            dataclasses.replace(TINY, samples=0).validate()


class TestDatasetRoundTrip:
    def test_save_and_load(self, tmp_path):
        bundles = generate_synthetic(TINY)
        save_dataset(bundles, tmp_path / "ds", spec=TINY)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == len(bundles)
        for got, want in zip(loaded, bundles):
            assert got.label == want.label
            np.testing.assert_allclose(got.motion, want.motion, atol=1e-6)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_manifest_label_cross_check(self, tmp_path):
        bundles = generate_synthetic(TINY)
        manifest = save_dataset(bundles, tmp_path / "ds", spec=TINY)
        text = manifest.read_text().replace(
            f'"label": {bundles[0].label}', f'"label": {(bundles[0].label + 1) % 4}', 1
        )
        manifest.write_text(text)
        with pytest.raises(DataError):
            load_dataset(tmp_path / "ds")
