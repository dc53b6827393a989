"""Feature-file round-trips, corruption detection, and generator statistics."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    read_features,
    save_dataset,
    write_features,
)
from helpers import rewrite_container, rewrite_record

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

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="absent.drxf: No such file or directory"):
            read_features(tmp_path / "absent.drxf")

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
        # A label must be an integer and not a bool: a float or a bool would
        # write a file that `read_features` refuses or reads back changed.
        for label in (1.5, 1.0, True, np.True_, "1", None):
            with pytest.raises(DataError, match="label must be an integer"):
                FeatureBundle(
                    appearance=rng.normal(size=(2, 3)), motion=rng.normal(size=(2, 3)),
                    question=rng.normal(size=(2, 3)),
                    answers=(rng.normal(size=(1, 3)),) * 4, label=label,
                )
        bundle = FeatureBundle(
            appearance=rng.normal(size=(2, 3)), motion=rng.normal(size=(2, 3)),
            question=rng.normal(size=(2, 3)),
            answers=(rng.normal(size=(1, 3)),) * 4, label=np.int64(2),
        )
        assert type(bundle.label) is int and bundle.label == 2

    # 1e39 is beyond float32's range: the bundle would hold inf, and a file
    # written from it would be refused on read. No cast warning may escape.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["appearance", "motion", "question", "answers"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39, -1e39])
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

    def test_float32_extremes_round_trip(self, tmp_path):
        top = np.finfo(np.float32).max
        tiny = np.finfo(np.float32).smallest_subnormal
        bundle = FeatureBundle(
            appearance=np.full((2, 3), top, dtype=np.float64), motion=np.full((2, 3), -top),
            question=np.full((2, 3), tiny), answers=random_bundle().answers, label=1,
        )
        write_features(bundle, tmp_path / "edge.drxf")
        back = read_features(tmp_path / "edge.drxf")
        for got, want in ((back.appearance, top), (back.motion, -top), (back.question, tiny)):
            assert got.dtype == np.float32 and (got == want).all()

    def test_write_checks_a_field_reassigned_after_construction(self, tmp_path):
        good = tmp_path / "good.drxf"
        write_features(random_bundle(), good)
        bundle = read_features(good)
        bundle.appearance = np.full(bundle.appearance.shape, 1e39)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="appearance"):
                write_features(bundle, tmp_path / "bad.drxf")
        assert list(tmp_path.iterdir()) == [good]

    def test_bundles_hold_float32(self, tmp_path):
        wide = random_bundle()
        built = FeatureBundle(
            appearance=wide.appearance.astype(np.float64), motion=wide.motion.tolist(),
            question=wide.question, answers=wide.answers, label=wide.label,
        )
        # float32 input is kept as is, not copied.
        assert built.question is wide.question
        generated = generate_synthetic(TINY)
        save_dataset(generated, tmp_path, TINY)
        read = load_dataset(tmp_path)
        for bundle in [built, *generated, *read]:
            for array in (bundle.appearance, bundle.motion, bundle.question, *bundle.answers):
                assert array.dtype == np.float32
        for got, want in zip(read, generated, strict=True):
            for name in ("appearance", "motion", "question"):
                array = getattr(got, name)
                assert not array.flags.writeable
                assert array.tobytes() == getattr(want, name).tobytes()
            for array, want_array in zip(got.answers, want.answers, strict=True):
                assert not array.flags.writeable
                assert array.tobytes() == want_array.tobytes()

    @pytest.mark.parametrize("label", [[], [np.nan], [np.inf], [2.6]],
                             ids=["empty", "nan", "inf", "fraction"])
    def test_malformed_label_rejected(self, tmp_path, label):
        # A well-formed file (valid CRC) whose label tensor is not one integer.
        path = tmp_path / "label.drxf"
        write_features(random_bundle(), path)
        rewrite_record(path, path, "label", np.array(label, "<f4"))
        with pytest.raises(DataError, match="label"):
            read_features(path)

    @pytest.mark.parametrize("edit, message", [
        # A later tensor of a name used to replace an earlier one silently,
        # and an unknown name used to be ignored.
        (lambda records: [("appearance", np.ones((2, 6), "<f4"))] + records + [
            ("mystery", np.ones(3, "<f4"))], "appears more than once"),
        (lambda records: records + [("motion", records[1][1])], "appears more than once"),
        (lambda records: records + [("mystery", np.ones(3, "<f4"))], "unknown tensor 'mystery'"),
        (lambda records: [r for r in records if r[0] != "answer2"], "missing tensor 'answer2'"),
    ], ids=["leading-repeat-and-unknown", "repeat", "unknown", "missing"])
    def test_tensor_names_must_be_the_nine_written_once_each(self, tmp_path, edit, message):
        # A well-formed file (valid CRC) whose tensor names are not the nine
        # `write_features` writes, each once.
        path = tmp_path / "names.drxf"
        write_features(random_bundle(), path)
        rewrite_container(path, path, edit)
        with pytest.raises(DataError, match=message):
            read_features(path)


@st.composite
def container_records(draw):
    """Up to five records, each name once (any UTF-8 text, non-ASCII
    included), each of any `DTYPES` code and rank 0 to 3, zero extents
    included, holding arbitrary bytes."""
    records = []
    for name in draw(st.lists(st.text(max_size=6), max_size=5, unique=True)):
        dtype = np.dtype(draw(st.sampled_from(data.DTYPES)))
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        size = math.prod(shape) * dtype.itemsize
        payload = draw(st.binary(min_size=size, max_size=size))
        records.append((name, np.frombuffer(payload, dtype).reshape(shape)))
    return records


@pytest.fixture(scope="module")
def container_path(tmp_path_factory):
    return tmp_path_factory.mktemp("container") / "c.drxf"


class TestContainer:
    """`write_container` and `read_container` on arbitrary records."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(records=container_records(), flip=st.integers(0, 2**16), cut=st.integers(0, 2**16))
    @example(records=[("", np.array(1.5, "<f8")), ("é✓", np.zeros((2, 0, 3), "<f4")),
                      ("ζ", np.arange(6, dtype="|u1").reshape(2, 3))], flip=0, cut=11)
    def test_round_trip_flip_and_cut(self, container_path, records, flip, cut):
        """The reader returns what was written: names in order, dtypes, shapes
        and bytes, as read-only arrays. Flipping any one payload byte raises
        ChecksumError; cutting the file at any length raises a DataError."""
        with open(container_path, "wb") as out:
            data.write_container(records, out)
        back = data.read_container(container_path)
        assert list(back) == [name for name, _ in records]
        for (_, want), got in zip(records, back.values()):
            assert (got.dtype.str, got.shape) == (want.dtype.str, want.shape)
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        raw = container_path.read_bytes()
        # The payload bytes: after magic, version and count (10 bytes), each
        # record's name length, name, dtype code, rank and extents.
        payload, offset = [], 10
        for name, array in records:
            offset += 4 + len(name.encode("utf-8")) + 4 * array.ndim
            payload += range(offset, offset + array.nbytes)
            offset += array.nbytes
        assert offset + 4 == len(raw)
        if payload:
            flipped = bytearray(raw)
            flipped[payload[flip % len(payload)]] ^= 0xFF
            container_path.write_bytes(bytes(flipped))
            with pytest.raises(data.ChecksumError):
                data.read_container(container_path)
        container_path.write_bytes(raw[:cut % len(raw)])
        with pytest.raises(data.DataError):
            data.read_container(container_path)

    def test_shown_escapes_only_non_printable_characters(self):
        # A printable path, non-ASCII included, keeps every character.
        assert data.shown(Path("ds/é ✓/a.drxf")) == "ds/é ✓/a.drxf"
        assert data.shown("a\x00b\tc\udcff") == "a\\x00b\\tc\\udcff"


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

    @pytest.mark.parametrize("key, value", [
        ("seed", True), ("noise_sigma", True), ("distractor_tokens", True),
        ("signal_dims", True), ("samples", 2.5), ("frames", "6"), ("noise_sigma", float("nan")),
    ])
    def test_spec_field_types(self, key, value):
        """Each field holds its annotated type, as `DraxConfig` requires: a
        bool only for a bool field, a finite float for a float field."""
        spec = dataclasses.replace(TINY, **{key: value})
        with pytest.raises(DataError, match=f"^{key} must be "):
            spec.validate()
        with pytest.raises(DataError, match=f"^{key} must be "):
            generate_synthetic(spec)


class TestDatasetRoundTrip:
    def test_save_and_load(self, tmp_path):
        bundles = generate_synthetic(TINY)
        save_dataset(bundles, tmp_path / "ds", spec=TINY)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == len(bundles)
        for got, want in zip(loaded, bundles):
            assert got.label == want.label
            np.testing.assert_allclose(got.motion, want.motion, atol=1e-6)

    def test_missing_manifest(self, refused):
        refused("missing-manifest")

    def test_manifest_label_cross_check(self, refused):
        refused("manifest-label-mismatch-train")
