"""Identify and zero out low-relevance attention weights.

Per head and per query row, the largest attention weight is the relevance
score; any weight strictly below a configured fraction of it is a
distraction and is multiplied away. The comparison happens on raw weight
values, so the mask acts as a constant during differentiation: surviving
weights pass gradients through, zeroed positions pass nothing.

`MaskController` has one mask-and-record body with two entry points: the
model passes `site`'s callable to the score op, `tensor.head_softmax`,
which masks within the same op and gets each row's relevance score free as
its softmax normaliser's reciprocal; `apply` masks finished weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor import ShapeError, Tensor

if TYPE_CHECKING:
    from .attention import AttentionWeights


@dataclass
class DistractionMask:
    """Boolean mask plus the per-row statistics that produced it.

    `mask[h, i, j]` is True exactly when weight (h, i, j) fell strictly
    below `threshold[h, i]`, which in turn is `rho[h, i] * d_f`.
    """

    mask: np.ndarray
    threshold: np.ndarray
    rho: np.ndarray
    d_f: float | None = None

    def density(self) -> float:
        """Fraction of weights masked, over all heads and rows."""
        return _density(self.mask)


def _density(mask: np.ndarray) -> float:
    return np.count_nonzero(mask) / mask.size if mask.size else 0.0


def relevance_scores(attn) -> np.ndarray:
    """Per-head, per-query row maximum of the pre-mask weights."""
    weights = attn.weights.data
    if weights.shape[-1] == 0:
        raise ShapeError("relevance_scores requires a nonempty context axis")
    return weights.max(axis=-1)


def threshold(rho: np.ndarray, d_f: float, allow_above_one: bool = False) -> np.ndarray:
    """Per-row cutoff: the relevance score scaled by the distraction factor."""
    if d_f < 0.0 or (d_f > 1.0 and not allow_above_one):
        raise ValueError(f"distraction factor out of range [0, 1]: {d_f}")
    return np.asarray(rho) * d_f


def distraction_mask(attn, tau: np.ndarray, d_f: float | None = None) -> DistractionMask:
    """Mark weights strictly below their row threshold; equality survives."""
    weights = attn.weights.data
    tau = np.asarray(tau)
    if tau.shape != weights.shape[:-1]:
        raise ShapeError(
            f"threshold shape {tau.shape} does not match weight rows {weights.shape[:-1]}"
        )
    mask = weights < tau[..., None]
    rho = weights.max(axis=-1) if weights.shape[-1] else tau
    return DistractionMask(mask=mask, threshold=tau, rho=rho, d_f=d_f)


def identify_distractions(attn, d_f: float, allow_above_one: bool = False) -> DistractionMask:
    """Relevance scores, thresholds and mask in one step."""
    rho = relevance_scores(attn)
    tau = threshold(rho, d_f, allow_above_one=allow_above_one)
    return DistractionMask(attn.weights.data < tau[..., None], tau, rho, d_f)


def apply_mask(attn, mask) -> "AttentionWeights":
    """Zero the masked weights; surviving weights are untouched.

    No renormalization: row sums drop by exactly the masked mass. When the
    mask is empty the input object is returned as-is, so an all-false mask
    is a bit-for-bit identity.
    """
    m = mask.mask if isinstance(mask, DistractionMask) else np.asarray(mask, dtype=bool)
    if m.shape != attn.weights.shape:
        raise ShapeError(f"mask shape {m.shape} does not match weights {attn.weights.shape}")
    if not m.any():
        return attn
    keep = Tensor(1.0 - m.astype(np.float64))
    # Built directly: `attn` is an attention.AttentionWeights, and that
    # module imports this one.
    return type(attn)(attn.weights * keep, attn.head_count, attn.scale)


def sub_site(site, name: str):
    """The label `site/name`; for a tuple of candidate labels, one per label."""
    if isinstance(site, str):
        return f"{site}/{name}"
    return tuple(f"{label}/{name}" for label in site)


def schedule_df(
    d_f_initial: float, delta: float, layer_index: int, allow_above_one: bool = False
) -> float:
    """Distraction factor for 1-based layer k: d_f + (k-1) * delta, capped at 1."""
    if not 0.0 <= d_f_initial <= 1.0:
        raise ValueError(f"d_f_initial out of range [0, 1]: {d_f_initial}")
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative: {delta}")
    if layer_index < 1:
        raise ValueError(f"layer index must be >= 1: {layer_index}")
    value = d_f_initial + (layer_index - 1) * delta
    return value if allow_above_one else min(1.0, value)


@dataclass
class MaskRecord:
    """One masking event at a named site within a forward pass."""

    site: str
    d_f: float
    density: float
    shape: tuple[int, ...]
    detail: DistractionMask | None = None
    pre_weights: np.ndarray | None = None
    post_weights: np.ndarray | None = None


class MaskController:
    """Runs the identify/apply step at every masking site of a forward pass.

    Modes: "live" computes masks from the current weights; "off" passes
    weights through untouched (the masking-disabled build); "replay" reuses
    masks captured by an earlier live pass, keyed by site label, so repeated
    forward evaluations see a frozen mask.

    Every mode that masks takes one path, `_mask`: get the mask (the
    threshold on `rho` live, the frozen ones stacked), then append one
    record per site label. A candidate batch carries (K, heads, n, m)
    weights and K labels, recorded in label order. A summary record holds
    the site, d_f, density and shape; record="full" adds the
    `DistractionMask` (a replayed one has zero `rho` and `threshold`) and
    the pre- and post-mask weights, for inspection dumps.
    """

    MODES = ("live", "off", "replay")

    def __init__(
        self,
        mode: str = "live",
        record: str = "summary",
        frozen: dict[str, np.ndarray] | None = None,
        allow_above_one: bool = False,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown mask mode: {mode!r}")
        if record not in ("summary", "full"):
            raise ValueError(f"unknown record mode: {record!r}")
        if mode == "replay" and frozen is None:
            raise ValueError("replay mode requires frozen masks")
        self.mode = mode
        self.record = record
        self.frozen = frozen or {}
        self.allow_above_one = allow_above_one
        self.records: list[MaskRecord] = []

    def begin_pass(self) -> None:
        self.records.clear()

    def site(self, d_f: float, site):
        """`_mask` for one site (or candidate batch) as `head_softmax`'s `mask`."""
        if self.mode == "off":
            return None
        return lambda weights, rho: self._mask(weights, rho, d_f, site)

    def apply(self, attn, d_f: float, site) -> "AttentionWeights":
        if self.mode == "off":
            return attn
        rho = relevance_scores(attn) if self.mode == "live" else None
        return apply_mask(attn, self._mask(attn.weights.data, rho, d_f, site))

    def _mask(self, weights: np.ndarray, rho: np.ndarray | None, d_f: float,
              site) -> np.ndarray:
        """The mask for pre-mask `weights` with row maxima `rho`, recorded."""
        batched = weights.ndim == 4
        labels = tuple(site) if batched else (site,)
        if batched and len(labels) != weights.shape[0]:
            raise ShapeError(f"{len(labels)} site labels for {weights.shape[0]} candidates")
        if self.mode == "live":
            tau = threshold(rho, d_f, allow_above_one=self.allow_above_one)
            mask = weights < tau[..., None]
        else:
            for label in labels:
                if label not in self.frozen:
                    raise KeyError(f"no frozen mask recorded for site {label!r}")
            frozen = [self.frozen[label] for label in labels]
            mask = np.stack(frozen) if batched else np.asarray(frozen[0], dtype=bool)
            if mask.shape != weights.shape:
                raise ShapeError(f"mask shape {mask.shape} does not match weights {weights.shape}")
        for k, label in enumerate(labels):
            at = k if batched else ...
            m = mask[at]
            rec = MaskRecord(site=label, d_f=float(d_f), density=_density(m), shape=m.shape)
            if self.record == "full":
                if self.mode == "live":
                    rec.detail = DistractionMask(m, tau[at], rho[at], d_f)
                else:
                    rows = m.shape[:-1]
                    rec.detail = DistractionMask(m, np.zeros(rows), np.zeros(rows), d_f)
                rec.pre_weights = weights[at].copy()
                rec.post_weights = weights[at] * (1.0 - m)
            self.records.append(rec)
        return mask

    def frozen_masks(self) -> dict[str, np.ndarray]:
        """Site-to-mask map from the last pass; requires record="full"."""
        if self.record != "full":
            raise ValueError("frozen_masks requires record='full'")
        out: dict[str, np.ndarray] = {}
        for rec in self.records:
            if rec.site in out:
                raise ValueError(f"duplicate mask site in one pass: {rec.site!r}")
            out[rec.site] = rec.detail.mask
        return out

    def density_by_site(self) -> dict[str, float]:
        return {rec.site: rec.density for rec in self.records}
