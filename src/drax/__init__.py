"""Distraction removal and cross-aligned fusion for video question answering.

The root exports the quick-start API and the errors; the rest is in submodules.
"""

from .checkpoint import CheckpointError
from .data import DataError, SyntheticSpec, generate_synthetic
from .model import ConfigError, DraxConfig, DraxModel
from .tensor import ShapeError
from .train import evaluate, fit, sgd_step, train_epoch

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "ConfigError", "DataError", "DraxConfig", "DraxModel", "ShapeError",
    "SyntheticSpec", "evaluate", "fit", "generate_synthetic", "sgd_step", "train_epoch",
]
