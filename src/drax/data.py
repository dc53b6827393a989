"""Feature bundles, the one binary file format, and the synthetic benchmark.

Every binary file drax writes is a "DRXF" container (`write_container`,
`read_container`): magic, version, then named little-endian tensors, each
with a dtype code from `DTYPES`, then a CRC-32 over the payload bytes. This
module holds the only byte codec; checkpoints use it too. A sample is four
modalities plus a label, stored as a container of float32 tensors. In memory
a bundle holds float32 arrays too, the values the file stores; the model
widens them to float64 when it embeds them. Every output file is written
whole or not at all (`atomic_write`); a reader names its file once in each
fault, in `file_fault`'s form, and `read_container` leaves that to them.

The synthetic generator plants a shared signal vector into a minority of
video tokens and into the correct answer, buries everything in noise, and
scatters a few high-variance distractor tokens through the video sequences,
giving a controllable benchmark for the masking machinery.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
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
# A container record's dtype code is its index here.
DTYPES = ("<f4", "<f8", "|u1")
ANSWER_COUNT = 4
DISTRACTOR_SIGMA = 3.0
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}
# A bundle's video and question streams, in `FeatureBundle` field order, and
# the nine tensors a feature file holds, each once, in the order written.
STREAMS = ("appearance", "motion", "question")
TENSOR_NAMES = (*STREAMS, *(f"answer{i}" for i in range(ANSWER_COUNT)), "label")


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
    and `read_features` returns. Arrays already float32 are kept, not copied.
    A feature array not 2-D, or with a value NaN, infinite or beyond float32's
    range, raises DataError, as does a label not an integer (a bool is not).
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
            for name in STREAMS:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.float32))
        if len(self.answers) != ANSWER_COUNT:
            raise DataError(f"expected {ANSWER_COUNT} answer candidates, got {len(self.answers)}")
        if isinstance(self.label, bool) or not isinstance(self.label, numbers.Integral):
            raise DataError(f"label must be an integer, got {self.label!r}")
        self.label = int(self.label)
        if not 0 <= self.label < ANSWER_COUNT:
            raise DataError(f"label {self.label} out of range [0, {ANSWER_COUNT})")
        for name, array in _feature_records(self):
            if array.ndim != 2:
                raise DataError(f"{name} features must be 2-D, got {array.shape}")
            if not np.isfinite(array).all():
                raise DataError(f"{name} features hold non-finite values (NaN, inf or beyond float32)")


def _feature_records(bundle: FeatureBundle) -> list[tuple[str, np.ndarray]]:
    # Eight arrays: zip stops before the label, the last of `TENSOR_NAMES`.
    arrays = [getattr(bundle, name) for name in STREAMS] + list(bundle.answers)
    return list(zip(TENSOR_NAMES, arrays))


def shown(path) -> str:
    """`path` as message text: non-printable characters escaped as by `repr`,
    so stderr stays printable; every other one, non-ASCII included, kept."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


def file_fault(path, fault) -> str:
    """A fault in the file at `path` in its one message form: the file, then
    the fault. An OSError gives only its strerror, as its text names the file."""
    return f"{shown(path)}: {getattr(fault, 'strerror', None) or fault}"


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


def write_container(records, out) -> None:
    """Write (name, array) records to the binary handle `out` as one DRXF
    container, each payload straight from its array: no copy of the file is
    built in memory. An array's dtype must be one of `DTYPES`; the reader
    gets back each name, dtype, shape and byte, in order."""
    out.write(MAGIC + struct.pack("<HI", FORMAT_VERSION, len(records)))
    crc = 0
    for name, array in records:
        array = np.asarray(array, order="C")  # ascontiguousarray would make rank 0 rank 1
        encoded = name.encode("utf-8")
        out.write(struct.pack(f"<H{len(encoded)}sBB{array.ndim}I", len(encoded), encoded,
                              DTYPES.index(array.dtype.str), array.ndim, *array.shape))
        out.write(array)
        crc = zlib.crc32(array, crc)
    out.write(struct.pack("<I", crc))


def read_container(path, what: str = "DRXF container") -> dict[str, np.ndarray]:
    """The records of the DRXF container at `path`, by name in file order.

    Each array is a read-only view of the file's bytes. An unreadable file
    raises its OSError (ValueError: a NUL byte in the path); any other fault is
    a DataError, for the caller to name the file: bad magic (not a `what`),
    another version, a file cut short, a name not UTF-8 or repeated, an unknown
    dtype code, bytes after the CRC, a CRC mismatch."""
    raw = Path(path).read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise BadMagicError(f"does not start with DRXF: not a {what}")
    records, crc, offset = {}, 0, len(MAGIC) + 6
    try:  # struct.error: a field, or a payload, past the end of the file
        version, count = struct.unpack_from("<HI", raw, len(MAGIC))
        if version != FORMAT_VERSION:
            raise VersionError(f"unsupported DRXF version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            name, code, rank = struct.unpack_from(f"<{name_len}sBB", raw, offset + 2)
            shape = struct.unpack_from(f"<{rank}I", raw, offset + 4 + name_len)
            try:
                name = name.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError("tensor name is not UTF-8") from None
            if name in records:
                raise DataError(f"tensor {name!r} appears more than once")
            if code >= len(DTYPES):
                raise DataError(f"unknown dtype code {code} for tensor {name!r}")
            dtype, size = np.dtype(DTYPES[code]), math.prod(shape)
            start = offset + 4 + name_len + 4 * rank
            offset = start + size * dtype.itemsize
            if offset > len(raw):
                raise struct.error
            records[name] = np.frombuffer(raw, dtype, size, start).reshape(shape)
            crc = zlib.crc32(records[name], crc)
        (stored_crc,) = struct.unpack_from("<I", raw, offset)
    except struct.error:
        raise TruncatedError(f"truncated: file ends at byte {len(raw)}") from None
    if offset + 4 != len(raw):
        raise DataError(f"{len(raw) - offset - 4} trailing bytes after the payload CRC")
    if stored_crc != crc:
        raise ChecksumError(f"payload CRC mismatch: stored {stored_crc:#010x}, "
                            f"computed {crc:#010x}")
    return records


def write_features(bundle: FeatureBundle, path) -> None:
    """Write a bundle as a container of float32 tensors, `TENSOR_NAMES` in
    order. The bundle is checked as at construction first, so a field
    reassigned since then raises DataError, not a file `read_features` refuses.
    """
    bundle = dataclasses.replace(bundle)
    records = [(name, np.asarray(array, dtype="<f4"))
               for name, array in [*_feature_records(bundle), ("label", [bundle.label])]]
    # A feature file is small: one write of it costs less than two per record.
    blob = io.BytesIO()
    write_container(records, blob)
    with atomic_write(path) as out:
        out.write(blob.getbuffer())


def read_features(path) -> FeatureBundle:
    """Read a bundle back: the container's checks, then tensor names, dtypes,
    label and the bundle's checks; a fault is a DataError naming the file. It
    must hold each of `TENSOR_NAMES` once, as float32, and no other. Each
    feature array is a read-only view of the file's bytes, not a copy.
    """
    try:
        tensors = read_container(path, "feature file")
        for name, array in tensors.items():
            if name not in TENSOR_NAMES:
                raise DataError(f"unknown tensor {name!r}")
            if array.dtype.str != "<f4":
                raise DataError(f"tensor {name!r} is {array.dtype.str}, not <f4")
        try:
            *features, label = [tensors[name] for name in TENSOR_NAMES]
        except KeyError as exc:
            raise DataError(f"missing tensor {exc.args[0]!r}") from None
        # is_integer() is False for NaN and inf.
        if label.shape != (1,) or not float(label[0]).is_integer():
            raise DataError(f"label tensor must hold one integral value, got {label}")
        return FeatureBundle(*features[:len(STREAMS)], answers=tuple(features[len(STREAMS):]),
                             label=int(label[0]))
    except (OSError, ValueError) as exc:  # cannot be read; ValueError: a NUL byte in the path
        raise DataError(file_fault(path, exc)) from None
    except DataError as exc:
        raise type(exc)(file_fault(path, exc)) from None


def check_fields(settings, error: type[Exception], positive=(), choices=None) -> None:
    """Raise `error` unless each dataclass field of `settings` holds its type
    (a bool, an int subclass, only for a bool field; a finite float or int
    for a float) and its range: a number is at least 0, and above 0 if its
    name is in `positive`; a field named in `choices` holds one of its values."""
    choices = choices or {}
    for f in dataclasses.fields(settings):
        key, value = f.name, getattr(settings, f.name)
        wrong_bool = isinstance(value, bool) != (f.type == "bool")
        if wrong_bool or not isinstance(value, _FIELD_TYPES[f.type]):
            raise error(f"{key} must be {f.type}, got {value!r}")
        if f.type == "float" and not -math.inf < value < math.inf:
            raise error(f"{key} must be finite, got {value!r}")
        if key in positive and not value > 0:
            raise error(f"{key} must be positive, got {value}")
        if f.type in ("int", "float") and value < 0:
            raise error(f"{key} must be >= 0, got {value}")
        if key in choices and value not in choices[key]:
            raise error(f"{key} must be one of {choices[key]}, got {value!r}")


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
        # `distractor_tokens`, `noise_sigma` and `seed` may be 0.
        check_fields(self, DataError, positive=(
            "samples", "frames", "clips", "question_len", "answer_len", "signal_dims",
            "appearance_dim", "motion_dim", "text_dim",
        ))
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
    """Yield a dataset's bundles in manifest order, each file read only when its
    bundle is asked for and checked against the manifest (which faults name)."""
    manifest = Path(directory) / "manifest.json"
    try:
        if not manifest.is_file():
            raise DataError("no such file")
        try:
            loaded = json.loads(manifest.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
            raise DataError(f"not valid JSON: {exc}") from None
        entries = loaded.get("samples", []) if isinstance(loaded, dict) else None
        if not isinstance(entries, list):
            raise DataError("must be an object with a samples list")
        if not entries:
            raise DataError("lists no samples")
        for entry in entries:
            # bool is an int subclass, and a JSON true is no label.
            if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                    and type(entry.get("label")) is int):
                raise DataError(f"entry needs a string path and an integer label: {entry!r}")
    except DataError as exc:
        raise DataError(file_fault(manifest, exc)) from None
    for entry in entries:
        path = manifest.parent / entry["path"]
        bundle = read_features(path)
        if bundle.label != entry["label"]:
            raise DataError(file_fault(path, f"label mismatch: the file says {bundle.label}, "
                                             f"the manifest {entry['label']}"))
        yield bundle


def load_dataset(directory) -> list[FeatureBundle]:
    return list(iter_dataset(directory))
