"""Identify and zero out low-relevance attention weights.

Per head and per query row, the largest attention weight is the relevance
score; any weight strictly below a configured fraction of it is a
distraction and is multiplied away. The comparison happens on raw weight
values, so the mask acts as a constant during differentiation: surviving
weights pass gradients through, zeroed positions pass nothing.

The model owns the schedule and the site labels: it fixes one factor per
encoder level (`schedule_df`) and one for fusion when it is built, all None
with masking off, and gets each site's mask callable from `site(factor,
label)`; the score op, `tensor.head_softmax`, calls it and gets each row's
relevance score free as its softmax normaliser's reciprocal.
`MaskController` only masks, live or replayed, through one mask-and-record
body with two entry points, `site`'s callable and `apply` for finished
weights. Each site's event is one flat `MaskRecord` holding views of the
arrays the step built: the mask, and live, the row maxima.

A masked site costs its comparison (live) and the score op's multiply by
the kept entries. Replay reads a `FrozenMasks`, which stacks a candidate
batch and counts its densities on the batch's first replay and reuses both,
so a replayed site costs a dictionary lookup and that multiply.
"""

from __future__ import annotations

from collections.abc import Mapping
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


def relevance_scores(attn) -> np.ndarray:
    """Per-head, per-query row maximum of the pre-mask weights."""
    weights = attn.weights.data
    if weights.shape[-1] == 0:
        raise ShapeError("relevance_scores requires a nonempty context axis")
    return weights.max(axis=-1)


def threshold(rho: np.ndarray, d_f: float) -> np.ndarray:
    """Per-row cutoff: the relevance score scaled by the distraction factor."""
    if not 0.0 <= d_f <= 1.0:
        raise ValueError(f"distraction factor out of range [0, 1]: {d_f}")
    return np.asarray(rho) * d_f


def identify_distractions(attn, d_f: float) -> DistractionMask:
    """Relevance scores, thresholds and mask in one step."""
    rho = relevance_scores(attn)
    tau = threshold(rho, d_f)
    return DistractionMask(attn.weights.data < tau[..., None], tau, rho)


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


def schedule_df(
    d_f_initial: float, delta: float, layer_index: int, allow_above_one: bool = False
) -> float:
    """Distraction factor for 1-based layer k: d_f + (k-1) * delta, capped at 1."""
    if not 0.0 <= d_f_initial <= 1.0:
        raise ValueError(f"d_f_initial out of range [0, 1]: {d_f_initial}")
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative: {delta}")
    if layer_index < 1:
        raise ValueError(f"layer index must be >= 1: {layer_index}")
    value = d_f_initial + (layer_index - 1) * delta
    return value if allow_above_one else min(1.0, value)


@dataclass
class MaskRecord:
    """One masking event at a named site within a forward pass.

    `mask` and `rho` (live only; the thresholds are `rho * d_f`) are views
    of the arrays the masking step built, not copies. `pre_weights` is a
    copy of the pre-mask weights, kept with record="full".
    """

    site: str
    d_f: float
    density: float
    mask: np.ndarray
    rho: np.ndarray | None = None
    pre_weights: np.ndarray | None = None


def _density(mask: np.ndarray) -> float:
    return np.count_nonzero(mask) / mask.size if mask.size else 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class FrozenMasks(Mapping):
    """A read-only site-to-mask map for replay passes.

    The masks are copied in and made non-writeable, so the candidate
    batches and densities `batch` caches cannot go stale.
    """

    def __init__(self, masks: Mapping):
        self._masks = {site: _read_only(np.array(m, dtype=bool)) for site, m in masks.items()}
        self._batches: dict = {}

    def __getitem__(self, site: str) -> np.ndarray:
        return self._masks[site]

    def __iter__(self):
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def batch(self, site) -> tuple[np.ndarray, tuple[float, ...]]:
        """The mask of a site label, or the stacked masks of a tuple of
        candidate labels, and each label's density; built on first use."""
        hit = self._batches.get(site)
        if hit is None:
            single = isinstance(site, str)
            try:
                masks = [self._masks[label] for label in ((site,) if single else site)]
            except KeyError as exc:
                raise KeyError(f"no frozen mask recorded for site {exc.args[0]!r}") from None
            mask = masks[0] if single else _read_only(np.stack(masks))
            hit = self._batches[site] = (mask, tuple(_density(m) for m in masks))
        return hit


class MaskController:
    """Masks and records every masking site of a forward pass.

    Modes: "live" computes masks from the current weights; "replay" reuses
    masks captured by an earlier live pass, keyed by site label, so repeated
    forward evaluations see a frozen mask. Replay reads its masks through a
    `FrozenMasks`; a plain dict is wrapped in one at construction. A site
    whose factor is None (masking off) passes its weights through.

    Both modes take one path, `_mask`: get the mask (live, weights below
    `rho * d_f`, the factor range-checked when the schedule was built; in
    replay, the frozen ones stacked), then append one record per site
    label. A candidate batch carries (K, heads, n, m) weights and K labels,
    recorded in label order. Every record holds the site, d_f, density and
    mask, plus `rho` when live; record="full" adds only a
    copy of the pre-mask weights, for inspection dumps; the post-mask
    weights are `pre_weights * (1 - mask)`, as the no-renormalisation rule
    leaves them.
    """

    MODES = ("live", "replay")

    def __init__(
        self,
        mode: str = "live",
        record: str = "summary",
        frozen: Mapping[str, np.ndarray] | None = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown mask mode: {mode!r}")
        if record not in ("summary", "full"):
            raise ValueError(f"unknown record mode: {record!r}")
        if mode == "replay" and frozen is None:
            raise ValueError("replay mode requires frozen masks")
        self.mode = mode
        self.record = record
        if frozen is not None and not isinstance(frozen, FrozenMasks):
            frozen = FrozenMasks(frozen)
        self.frozen = frozen
        self.records: list[MaskRecord] = []

    def begin_pass(self) -> None:
        self.records.clear()

    def site(self, d_f: float | None, site):
        """`_mask` for one site (or candidate batch) as `head_softmax`'s `mask`."""
        if d_f is None:
            return None
        return lambda weights, rho: self._mask(weights, rho, d_f, site)

    def apply(self, attn, d_f: float | None, site) -> "AttentionWeights":
        if d_f is None:
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
        live = self.mode == "live"
        if live:
            mask, densities = weights < (rho * d_f)[..., None], None
        else:
            mask, densities = self.frozen.batch(site)
            if mask.shape != weights.shape:
                raise ShapeError(f"mask shape {mask.shape} does not match weights {weights.shape}")
        full = self.record == "full"
        for k, label in enumerate(labels):
            at = k if batched else ...
            m = mask[at]
            self.records.append(MaskRecord(
                label, float(d_f), _density(m) if live else densities[k], m,
                rho[at] if live else None, weights[at].copy() if full else None,
            ))
        return mask

    def frozen_masks(self) -> FrozenMasks:
        """Site-to-mask map from the last pass, read-only."""
        out: dict[str, np.ndarray] = {}
        for rec in self.records:
            if rec.site in out:
                raise ValueError(f"duplicate mask site in one pass: {rec.site!r}")
            out[rec.site] = rec.mask
        return FrozenMasks(out)

    def density_by_site(self) -> dict[str, float]:
        return {rec.site: rec.density for rec in self.records}
