"""Plain gradient-descent training and deterministic evaluation.

Training takes one SGD step per sample on the hinge loss. A loss of exactly
0 means every relu of the hinge is inactive, so every parameter gradient is
exactly 0 and the update would change nothing: such steps skip backward and
the update. So do steps whose loss is NaN or infinite: a NaN that reaches
the loss only through the hinge would otherwise give all-zero gradients
(relu passes none for NaN) and a silent no-op step. A step whose gradient
norm is not finite also skips the update, so one NaN cannot poison the model.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DraxModel, predict
from .tensor import no_grad


def global_grad_norm(params) -> float:
    """L2 norm over every present gradient, one BLAS dot product per tensor."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.ravel()
            total += float(np.dot(flat, flat))
    return math.sqrt(total)


def sgd_step(params, learning_rate: float, grad_clip: float = 0.0) -> float:
    """Descend every parameter along its gradient; returns the global norm.

    With a positive `grad_clip`, gradients are rescaled so their global norm
    never exceeds it. Parameters without gradients are left alone, and so is
    every parameter when the norm is NaN or infinite.
    """
    norm = global_grad_norm(params)
    if not math.isfinite(norm):
        return norm
    scale = learning_rate
    if grad_clip > 0.0 and norm > grad_clip:
        scale *= grad_clip / norm
    for p in params:
        if p.grad is not None:
            p.data -= scale * p.grad
    return norm


def train_epoch(model: DraxModel, dataset, epoch: int) -> dict:
    """One pass over the dataset in a seed-and-epoch-determined shuffle order.

    Updates follow each sample (single-sample steps); a sample whose loss is
    zero or not finite takes no step and leaves every `.grad` None, and its
    loss still counts towards the reported mean. The reported accuracy uses
    each sample's prediction before its own update. Returns epoch-mean loss,
    accuracy, and the mean mask density per masking site.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    cfg = model.config
    order = np.random.default_rng([cfg.seed, epoch]).permutation(len(dataset))
    masker = model.make_masker()
    params = model.parameters()
    loss_total = 0.0
    hits = 0
    density_totals: dict[str, float] = {}
    density_counts: dict[str, int] = {}
    for idx in order:
        bundle = dataset[int(idx)]
        model.zero_grad()
        loss, probs = model.sample_loss(bundle, masker)
        value = loss.item()
        if value != 0.0 and math.isfinite(value):
            loss.backward()
            sgd_step(params, cfg.learning_rate, cfg.grad_clip)
        loss_total += value
        hits += int(predict(probs) == bundle.label)
        for site, density in masker.density_by_site().items():
            density_totals[site] = density_totals.get(site, 0.0) + density
            density_counts[site] = density_counts.get(site, 0) + 1
    count = len(dataset)
    return {
        "loss": loss_total / count,
        "accuracy": hits / count,
        "mask_density": {
            site: density_totals[site] / density_counts[site]
            for site in sorted(density_totals)
        },
    }


def evaluate(model: DraxModel, dataset) -> dict:
    """Accuracy and per-sample predictions, in dataset order; records no tape."""
    if not dataset:
        raise ValueError("evaluation dataset is empty")
    masker = model.make_masker()
    records = []
    hits = 0
    loss_total = 0.0
    for index, bundle in enumerate(dataset):
        with no_grad():
            loss, probs = model.sample_loss(bundle, masker)
        guess = predict(probs)
        hits += int(guess == bundle.label)
        loss_total += loss.item()
        records.append(
            {
                "index": index,
                "label": int(bundle.label),
                "prediction": guess,
                "correct": bool(guess == bundle.label),
                "probabilities": [float(v) for v in probs],
            }
        )
    return {
        "accuracy": hits / len(dataset),
        "loss": loss_total / len(dataset),
        "samples": records,
    }


def fit(model: DraxModel, dataset, epochs: int | None = None, target_accuracy: float = 1.0,
        on_epoch=None) -> list[dict]:
    """Train for up to `epochs`, stopping early at `target_accuracy`.

    `on_epoch` receives (epoch, metrics) after every epoch, for logging.
    """
    history = []
    total = model.config.epochs if epochs is None else epochs
    for epoch in range(1, total + 1):
        metrics = train_epoch(model, dataset, epoch)
        metrics["epoch"] = epoch
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(epoch, metrics)
        if metrics["accuracy"] >= target_accuracy:
            break
    return history
