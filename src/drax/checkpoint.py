"""Model checkpoints: a DRXF container (see `data`, which holds the byte codec)
whose `.config` record holds the sorted-key JSON config as bytes, followed by
every parameter as a float64 record, in registration order. A fault in one is
a CheckpointError that names the file once (`data.file_fault`)."""

from __future__ import annotations

import json

import numpy as np

from .data import DataError, atomic_write, file_fault, read_container, write_container
from .model import DraxConfig, DraxModel

CONFIG_RECORD = ".config"


class CheckpointError(Exception):
    """A checkpoint file is malformed or does not match the model."""


def save_checkpoint(model: DraxModel, path) -> None:
    """Write config and every named parameter, each straight from its buffer.
    The file is replaced whole: a write that fails keeps the previous one."""
    config = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
    records = [(CONFIG_RECORD, np.frombuffer(config, dtype="|u1"))]
    records += [(name, np.asarray(array, dtype="<f8"))
                for name, array in model.param_arrays().items()]
    with atomic_write(path) as out:
        write_container(records, out)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The stored config dict and the name-to-array parameter map (read-only
    views of the file's bytes). A file that cannot be read, a container fault,
    a missing or undecodable `.config` record, or a parameter not float64 is a
    CheckpointError."""
    try:
        records = read_container(path, "checkpoint, or an old-format one")
        for name, array in records.items():
            dtype = "|u1" if name == CONFIG_RECORD else "<f8"
            if array.dtype.str != dtype:
                raise CheckpointError(f"record {name!r} is {array.dtype.str}, not {dtype}")
        if CONFIG_RECORD not in records:
            raise CheckpointError("no .config record")
        try:
            config = json.loads(records.pop(CONFIG_RECORD).tobytes().decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise CheckpointError(f".config record is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise CheckpointError(".config record is not a JSON object")
    except (DataError, CheckpointError, OSError, ValueError) as exc:
        raise CheckpointError(file_fault(path, exc)) from None
    return config, records


def load_model(path, overrides: dict | None = None) -> DraxModel:
    """Rebuild the model from a checkpoint, validating every name and shape.
    `overrides`, typed config values, apply on top of the stored config once
    that is validated: an invalid stored config raises CheckpointError, an
    invalid override ConfigError."""
    config_dict, arrays = read_checkpoint(path)
    try:
        config = DraxConfig.from_dict(config_dict)
    except ValueError as exc:
        raise CheckpointError(file_fault(path, f"stored config invalid: {exc}")) from None
    if overrides:
        config = DraxConfig.from_dict({**config.to_dict(), **overrides})
    model = DraxModel(config, draw=False)
    try:
        restore_parameters(model, arrays)
    except CheckpointError as exc:
        raise CheckpointError(file_fault(path, exc)) from None
    return model


def restore_parameters(model: DraxModel, arrays: dict[str, np.ndarray]) -> None:
    """Copy stored arrays into the model's parameters. Every name and shape
    must match, and every value be finite, or CheckpointError names why."""
    params = model.store.params
    missing = sorted(set(params) - set(arrays))
    if missing:
        raise CheckpointError(f"missing parameters: {', '.join(missing[:5])}")
    extra = sorted(set(arrays) - set(params))
    if extra:
        raise CheckpointError(f"unknown parameters: {', '.join(extra[:5])}")
    for name, param in params.items():
        if arrays[name].shape != param.data.shape:
            raise CheckpointError(f"shape mismatch for {name!r}: stored "
                                  f"{arrays[name].shape}, model {param.data.shape}")
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"parameter {name!r} holds NaN or infinite values")
        param.data[...] = arrays[name]
