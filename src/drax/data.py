"""Feature bundles, their binary file format, and the synthetic benchmark.

A sample is four modalities plus a label. On disk each sample is a "DRXF"
container: little-endian named float32 tensors followed by a CRC-32 over the
payload bytes. In memory a bundle holds float32 arrays too, the values the
file stores; the model widens them to float64 when it embeds them. Every
output file is written whole or not at all (`atomic_write`).

The synthetic generator plants a shared signal vector into a minority of
video tokens and into the correct answer, buries everything in noise, and
scatters a few high-variance distractor tokens through the video sequences,
giving a controllable benchmark for the masking machinery.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"DRXF"
FORMAT_VERSION = 1
ANSWER_COUNT = 4
DISTRACTOR_SIGMA = 3.0
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


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
    """One question's worth of features: video streams, question, candidates.

    Every feature array is held as float32, the precision a DRXF file
    stores, so a bundle in memory holds exactly what `write_features` writes
    and `read_features` returns. Arrays already float32 are kept, not
    copied. A value that is NaN, infinite or beyond float32's range raises
    DataError, and so does a label that is not an integer (a bool is not).
    """

    appearance: np.ndarray
    motion: np.ndarray
    question: np.ndarray
    answers: tuple[np.ndarray, ...]
    label: int

    def __post_init__(self):
        # An out-of-range value casts to inf, which the finiteness check
        # rejects; numpy's cast warning would only repeat that.
        with np.errstate(over="ignore"):
            self.answers = tuple(np.asarray(a, dtype=np.float32) for a in self.answers)
            for name in ("appearance", "motion", "question"):
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.float32))
        if len(self.answers) != ANSWER_COUNT:
            raise DataError(f"expected {ANSWER_COUNT} answer candidates, got {len(self.answers)}")
        if isinstance(self.label, bool) or not isinstance(self.label, numbers.Integral):
            raise DataError(f"label must be an integer, got {self.label!r}")
        self.label = int(self.label)
        if not 0 <= self.label < ANSWER_COUNT:
            raise DataError(f"label {self.label} out of range [0, {ANSWER_COUNT})")
        for name, array in _feature_records(self):
            if not np.isfinite(array).all():
                raise DataError(
                    f"{name} features hold non-finite values (NaN, inf, or beyond float32 range)"
                )


def _feature_records(bundle: FeatureBundle) -> list[tuple[str, np.ndarray]]:
    records = [
        ("appearance", bundle.appearance),
        ("motion", bundle.motion),
        ("question", bundle.question),
    ]
    return records + [(f"answer{i}", a) for i, a in enumerate(bundle.answers)]


def _tensor_records(bundle: FeatureBundle) -> list[tuple[str, np.ndarray]]:
    return _feature_records(bundle) + [("label", np.array([float(bundle.label)]))]


# The names `_tensor_records` gives; a feature file holds each exactly once.
TENSOR_NAMES = frozenset(
    ("appearance", "motion", "question", "label", *(f"answer{i}" for i in range(ANSWER_COUNT)))
)


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write `path` whole or not at all.

    Yields a handle on a temporary file in the target's directory. On a
    clean exit the temporary file replaces `path` in one `os.replace`; if
    the body raises, it is removed and `path` keeps its previous bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_features(bundle: FeatureBundle, path) -> None:
    """Serialize a bundle as float32 tensors with a trailing payload CRC.

    The bundle is checked as at construction first, so a field reassigned
    since then raises DataError instead of writing a file `read_features`
    refuses.
    """
    records = _tensor_records(dataclasses.replace(bundle))
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
    with atomic_write(path) as out:
        out.write(blob)


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
    """Read a bundle back, checking magic, version, CRC, tensor names, label
    and values. The file must hold each of `TENSOR_NAMES` once and no other.

    Each feature array is a read-only float32 view of the file's bytes, not
    a copy; the model widens it to float64 when it embeds it.
    """
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
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"tensor name is not UTF-8 in {path}") from None
        if name not in TENSOR_NAMES:
            raise DataError(f"unknown tensor {name!r} in {path}")
        if name in tensors:
            raise DataError(f"tensor {name!r} appears more than once in {path}")
        dtype_code, rank = reader.unpack("<BB")
        if dtype_code != 0:
            raise DataError(f"unknown dtype code {dtype_code} for tensor {name!r}")
        shape = reader.unpack(f"<{rank}I") if rank else ()
        data = reader.take(math.prod(shape) * 4)
        payload_crc = zlib.crc32(data, payload_crc)
        tensors[name] = np.frombuffer(data, dtype="<f4").reshape(shape)
    (stored_crc,) = reader.unpack("<I")
    if reader.offset != len(raw):
        raise DataError(f"{len(raw) - reader.offset} trailing bytes after the payload CRC")
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


def check_field_types(settings, error: type[Exception]) -> None:
    """Raise `error` unless each dataclass field of `settings` holds its type:
    a bool (an int subclass) only for a bool field, a finite float or int for a float."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        wrong_bool = isinstance(value, bool) != (f.type == "bool")
        if wrong_bool or not isinstance(value, _FIELD_TYPES[f.type]):
            raise error(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not -math.inf < value < math.inf:
            raise error(f"{f.name} must be finite, got {value!r}")


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
        check_field_types(self, DataError)
        for key in ("samples", "frames", "clips", "question_len", "answer_len",
                    "signal_dims", "appearance_dim", "motion_dim", "text_dim"):
            if getattr(self, key) < 1:
                raise DataError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("distractor_tokens", "seed", "noise_sigma"):
            if getattr(self, key) < 0:
                raise DataError(f"{key} must be >= 0, got {getattr(self, key)}")
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
        # Rows land in float32 here, so the bundle keeps this array as is.
        merged = np.empty((total, dim), dtype=np.float32)
        keep = np.ones(total, dtype=bool)
        keep[slots] = False
        merged[keep] = tokens
        merged[slots] = distractors
        tokens = merged
    return tokens


def generate_synthetic(spec: SyntheticSpec) -> list[FeatureBundle]:
    """Plant one signal per sample into the video streams and correct answer.

    Values are drawn in float64 and held as float32, so each bundle equals
    what `save_dataset` writes and `load_dataset` reads back.
    """
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
    with atomic_write(manifest_path, "w") as out:
        out.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path


def iter_dataset(directory) -> Iterator[FeatureBundle]:
    """Yield a dataset's bundles in manifest order, each file read only when
    its bundle is asked for and checked against the manifest's label."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"no manifest.json under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
        raise DataError(f"manifest is not valid JSON: {exc}") from None
    entries = manifest.get("samples", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise DataError(f"manifest under {directory} must be an object with a samples list")
    if not entries:
        raise DataError(f"dataset under {directory} is empty")
    for entry in entries:
        # bool is an int subclass, and a JSON true is no label.
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and type(entry.get("label")) is int):
            raise DataError(f"manifest entry needs a string path and an integer label: {entry!r}")
        bundle = read_features(directory / entry["path"])
        if bundle.label != entry["label"]:
            raise DataError(
                f"label mismatch for {entry['path']}: manifest says {entry['label']}, "
                f"file says {bundle.label}"
            )
        yield bundle


def load_dataset(directory) -> list[FeatureBundle]:
    return list(iter_dataset(directory))
