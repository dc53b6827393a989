"""Feature bundles, their binary file format, and the synthetic benchmark.

A sample is four modalities plus a label. On disk each sample is a "DRXF"
container: little-endian named float32 tensors followed by a CRC-32 over the
payload bytes. The synthetic generator plants a shared signal vector into a
minority of video tokens and into the correct answer, buries everything in
noise, and scatters a few high-variance distractor tokens through the video
sequences, giving a controllable benchmark for the masking machinery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"DRXF"
FORMAT_VERSION = 1
ANSWER_COUNT = 4
DISTRACTOR_SIGMA = 3.0


class DataError(Exception):
    """Base class for feature-file and dataset problems."""


class BadMagicError(DataError):
    pass


class VersionError(DataError):
    pass


class ChecksumError(DataError):
    pass


class TruncatedError(DataError):
    pass


@dataclass
class FeatureBundle:
    """One question's worth of features: video streams, question, candidates."""

    appearance: np.ndarray
    motion: np.ndarray
    question: np.ndarray
    answers: tuple[np.ndarray, ...]
    label: int

    def __post_init__(self):
        self.answers = tuple(np.asarray(a, dtype=np.float64) for a in self.answers)
        if len(self.answers) != ANSWER_COUNT:
            raise DataError(f"expected {ANSWER_COUNT} answer candidates, got {len(self.answers)}")
        if not 0 <= self.label < ANSWER_COUNT:
            raise DataError(f"label {self.label} out of range [0, {ANSWER_COUNT})")
        for name in ("appearance", "motion", "question"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for name, array in _tensor_records(self):
            if not np.isfinite(array).all():
                raise DataError(f"{name} features hold non-finite values")


def _tensor_records(bundle: FeatureBundle) -> list[tuple[str, np.ndarray]]:
    records = [
        ("appearance", bundle.appearance),
        ("motion", bundle.motion),
        ("question", bundle.question),
    ]
    records.extend((f"answer{i}", a) for i, a in enumerate(bundle.answers))
    records.append(("label", np.array([float(bundle.label)])))
    return records


def write_features(bundle: FeatureBundle, path) -> None:
    """Serialize a bundle as float32 tensors with a trailing payload CRC."""
    records = _tensor_records(bundle)
    payload_crc = 0
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<HI", FORMAT_VERSION, len(records))
    for name, array in records:
        encoded = name.encode("utf-8")
        data = np.ascontiguousarray(array, dtype="<f4").tobytes()
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<BB", 0, array.ndim)  # dtype code 0 = float32
        blob += struct.pack(f"<{array.ndim}I", *array.shape)
        blob += data
        payload_crc = zlib.crc32(data, payload_crc)
    blob += struct.pack("<I", payload_crc)
    Path(path).write_bytes(bytes(blob))


class _Reader:
    """Reads a memoryview front to back; each slice is a view, not a copy."""

    def __init__(self, raw: memoryview):
        self.raw = raw
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if self.offset + count > len(self.raw):
            raise TruncatedError(
                f"file ends at byte {len(self.raw)}, needed {self.offset + count}"
            )
        chunk = self.raw[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_features(path) -> FeatureBundle:
    """Read a bundle back; promotes stored float32 payloads to float64."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read feature file {path}: {exc}") from None
    reader = _Reader(memoryview(raw))
    if reader.take(len(MAGIC)) != MAGIC:
        raise BadMagicError(f"not a feature file: {path}")
    version, count = reader.unpack("<HI")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported feature-file version {version}")
    tensors: dict[str, np.ndarray] = {}
    payload_crc = 0
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = str(reader.take(name_len), "utf-8")
        dtype_code, rank = reader.unpack("<BB")
        if dtype_code != 0:
            raise DataError(f"unknown dtype code {dtype_code} for tensor {name!r}")
        shape = reader.unpack(f"<{rank}I") if rank else ()
        data = reader.take(math.prod(shape) * 4)
        payload_crc = zlib.crc32(data, payload_crc)
        tensors[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
    (stored_crc,) = reader.unpack("<I")
    if stored_crc != payload_crc:
        raise ChecksumError(
            f"payload CRC mismatch: stored {stored_crc:#010x}, computed {payload_crc:#010x}"
        )
    try:
        answers = tuple(tensors[f"answer{i}"] for i in range(ANSWER_COUNT))
        streams = [tensors[name] for name in ("appearance", "motion", "question")]
        label = tensors["label"]
    except KeyError as exc:
        raise DataError(f"feature file missing tensor {exc.args[0]!r}") from None
    # is_integer() is False for NaN and inf.
    if label.shape != (1,) or not float(label[0]).is_integer():
        raise DataError(f"label tensor must hold one integral value, got {label}")
    return FeatureBundle(*streams, answers=answers, label=int(label[0]))


def pseudo_embed(token: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for a token; a stand-in for real embeddings."""
    if not token:
        raise ValueError("token must be nonempty")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    vec = rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and difficulty of the planted-rule benchmark."""

    samples: int = 200
    frames: int = 16
    clips: int = 6
    question_len: int = 5
    answer_len: int = 6
    signal_dims: int = 32
    distractor_tokens: int = 4
    noise_sigma: float = 0.5
    seed: int = 0
    appearance_dim: int = 512
    motion_dim: int = 2048
    text_dim: int = 300

    def validate(self) -> None:
        for key in ("samples", "frames", "clips", "question_len", "answer_len",
                    "signal_dims", "appearance_dim", "motion_dim", "text_dim"):
            if getattr(self, key) < 1:
                raise DataError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.distractor_tokens < 0:
            raise DataError(f"distractor_tokens must be >= 0, got {self.distractor_tokens}")
        if self.noise_sigma < 0:
            raise DataError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        smallest = min(self.appearance_dim, self.motion_dim, self.text_dim)
        if self.signal_dims >= smallest:
            raise DataError(
                f"signal_dims {self.signal_dims} must be below every raw dim ({smallest})"
            )
        if self.distractor_tokens >= min(self.frames, self.clips):
            raise DataError(
                f"distractor_tokens {self.distractor_tokens} must be below the "
                f"shortest video sequence ({min(self.frames, self.clips)})"
            )


def _video_sequence(rng, rows: int, dim: int, spec: SyntheticSpec,
                    signal: np.ndarray) -> np.ndarray:
    """Noise rows with the signal planted in a random minority of them, then
    high-variance distractor rows spliced in at random positions."""
    tokens = rng.normal(scale=spec.noise_sigma, size=(rows, dim))
    carriers = rng.choice(rows, size=max(1, rows // 3), replace=False)
    tokens[carriers, : spec.signal_dims] += signal
    if spec.distractor_tokens:
        distractors = rng.normal(scale=DISTRACTOR_SIGMA,
                                 size=(spec.distractor_tokens, dim))
        total = rows + spec.distractor_tokens
        slots = rng.choice(total, size=spec.distractor_tokens, replace=False)
        merged = np.zeros((total, dim))
        keep = np.setdiff1d(np.arange(total), slots)
        merged[keep] = tokens
        merged[slots] = distractors
        tokens = merged
    return tokens


def generate_synthetic(spec: SyntheticSpec) -> list[FeatureBundle]:
    """Plant one signal per sample into the video streams and correct answer."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    bundles = []
    for _ in range(spec.samples):
        label = int(rng.integers(ANSWER_COUNT))
        signal = rng.normal(size=spec.signal_dims)
        appearance = _video_sequence(rng, spec.frames, spec.appearance_dim, spec, signal)
        motion = _video_sequence(rng, spec.clips, spec.motion_dim, spec, signal)
        question = rng.normal(scale=spec.noise_sigma,
                              size=(spec.question_len, spec.text_dim))
        answers = []
        for i in range(ANSWER_COUNT):
            tokens = rng.normal(scale=spec.noise_sigma,
                                size=(spec.answer_len, spec.text_dim))
            if i == label:
                tokens[:, : spec.signal_dims] += signal
            answers.append(tokens)
        bundles.append(
            FeatureBundle(
                appearance=appearance, motion=motion, question=question,
                answers=tuple(answers), label=label,
            )
        )
    return bundles


def save_dataset(bundles, directory, spec: SyntheticSpec | None = None) -> Path:
    """Write one feature file per bundle plus a manifest; returns manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, bundle in enumerate(bundles):
        name = f"sample_{i:05d}.drxf"
        write_features(bundle, directory / name)
        entries.append({"path": name, "label": int(bundle.label)})
    manifest = {"samples": entries}
    if spec is not None:
        manifest["spec"] = dataclasses.asdict(spec)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path


def load_dataset(directory) -> list[FeatureBundle]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"no manifest.json under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from None
    bundles = []
    for entry in manifest.get("samples", []):
        bundle = read_features(directory / entry["path"])
        if bundle.label != entry["label"]:
            raise DataError(
                f"label mismatch for {entry['path']}: manifest says {entry['label']}, "
                f"file says {bundle.label}"
            )
        bundles.append(bundle)
    if not bundles:
        raise DataError(f"dataset under {directory} is empty")
    return bundles
