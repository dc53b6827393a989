"""Model checkpoints: a JSON header plus raw little-endian float64 payloads."""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .data import atomic_write
from .model import DraxConfig, DraxModel


class CheckpointError(Exception):
    """A checkpoint file is malformed or does not match the model."""


def save_checkpoint(model: DraxModel, path) -> None:
    """Write config and every named parameter, in registration order.

    The file is replaced whole: a write that fails keeps the previous one.
    """
    arrays = model.param_arrays()
    entries = [{"name": name, "shape": list(array.shape)} for name, array in arrays.items()]
    header = json.dumps(
        {"config": model.config.to_dict(), "params": entries}, sort_keys=True
    ).encode("utf-8")
    # Write straight from the parameter buffers: no payload-sized intermediate copy.
    with atomic_write(path) as out:
        out.write(struct.pack("<I", len(header)) + header)
        for array in arrays.values():
            out.write(memoryview(np.ascontiguousarray(array, dtype="<f8")))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Return the stored config dict and the name-to-array parameter map.

    The arrays are read-only views of the file's bytes; `restore_parameters`
    copies them into a model.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(raw) < 4:
        raise CheckpointError(f"checkpoint too short: {path}")
    (header_len,) = struct.unpack("<I", raw[:4])
    if 4 + header_len > len(raw):
        raise CheckpointError("checkpoint header extends past end of file")
    try:
        header = json.loads(raw[4:4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON: {exc}") from None
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("params"), list)):
        raise CheckpointError("checkpoint header must be an object with a config object "
                              "and a params list")
    arrays: dict[str, np.ndarray] = {}
    offset = 4 + header_len
    for entry in header["params"]:
        # bool is an int subclass, and a JSON true is no dimension.
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise CheckpointError(
                f"checkpoint params entry needs a string name and a shape of "
                f"non-negative integers: {entry!r}"
            )
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        end = offset + count * 8
        if end > len(raw):
            raise CheckpointError(f"checkpoint payload truncated at {entry['name']!r}")
        arrays[entry["name"]] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        )
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes after parameters")
    return header["config"], arrays


def load_model(path, overrides: dict | None = None) -> DraxModel:
    """Rebuild the model from a checkpoint, validating every name and shape.

    `overrides` are typed config values applied on top of the stored config
    once that has been validated: an invalid stored config raises
    CheckpointError, an invalid override ConfigError.
    """
    config_dict, arrays = read_checkpoint(path)
    try:
        config = DraxConfig.from_dict(config_dict)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint config invalid: {exc}") from None
    if overrides:
        config = DraxConfig.from_dict({**config.to_dict(), **overrides})
    model = DraxModel(config, draw=False)
    restore_parameters(model, arrays)
    return model


def restore_parameters(model: DraxModel, arrays: dict[str, np.ndarray]) -> None:
    """Copy stored arrays into the model's parameters.

    Every name and shape must match, and every value must be finite: a NaN
    or infinite payload raises CheckpointError naming the parameter.
    """
    params = model.store.params
    missing = sorted(set(params) - set(arrays))
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {', '.join(missing[:5])}")
    extra = sorted(set(arrays) - set(params))
    if extra:
        raise CheckpointError(f"checkpoint has unknown parameters: {', '.join(extra[:5])}")
    for name, param in params.items():
        if arrays[name].shape != param.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arrays[name].shape}, "
                f"model {param.data.shape}"
            )
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"checkpoint parameter {name!r} holds NaN or infinite values")
        param.data[...] = arrays[name]
