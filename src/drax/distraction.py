"""Identify and zero out low-relevance attention weights.

Per head and per query row, the largest attention weight is the relevance
score; any weight strictly below a configured fraction of it is a
distraction and is multiplied away. That comparison is `distractions`, and
both the reference `identify_distractions` and every live masking site run
it. It happens on raw weight values, so the mask acts as a constant during
differentiation: surviving weights pass gradients through, zeroed positions
pass nothing.

The model owns the schedule and the site labels: it fixes one factor per
encoder level (`schedule_df`) and one for fusion when it is built, all None
with masking off, and gets each site's mask callable from `site(factor,
label)`; the score op, `tensor.head_softmax`, calls it with the fresh
weights and their softmax normalisers and multiplies in the keep factors
(`1 - mask`) it returns. A live site reads each row's relevance score as
its normaliser's reciprocal and records one flat `MaskRecord` per site
label: the mask and the row maxima, as views of the arrays the step built.

A replay exists so that a finite difference sees a frozen mask. It masks
with the keep factors `FrozenMasks.keep` builds on a site's first replay
and reuses after that, so it costs a dictionary lookup and the score op's
multiply, and it records nothing: every record comes from a live pass.
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
    """Boolean mask plus the row maxima that produced it.

    `mask[h, i, j]` is True exactly when weight (h, i, j) fell strictly
    below `rho[h, i] * d_f`.
    """

    mask: np.ndarray
    rho: np.ndarray


def relevance_scores(attn) -> np.ndarray:
    """Per-head, per-query row maximum of the pre-mask weights."""
    weights = attn.weights.data
    if weights.shape[-1] == 0:
        raise ShapeError("relevance_scores requires a nonempty context axis")
    return weights.max(axis=-1)


def distractions(weights: np.ndarray, rho: np.ndarray, d_f: float) -> np.ndarray:
    """The masking rule: True where a weight falls strictly below `d_f` times
    its row's maximum `rho`, so a row's maximum survives any factor <= 1."""
    return weights < (rho * d_f)[..., None]


def identify_distractions(attn, d_f: float) -> DistractionMask:
    """Relevance scores and mask in one step, for a factor in [0, 1]."""
    if not 0.0 <= d_f <= 1.0:
        raise ValueError(f"distraction factor out of range [0, 1]: {d_f}")
    rho = relevance_scores(attn)
    return DistractionMask(distractions(attn.weights.data, rho, d_f), rho)


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
    """One live masking event at a named site within a forward pass.

    `mask` and `rho` (the row maxima; the thresholds are `rho * d_f`) are
    views of the arrays the masking step built, not copies. `pre_weights` is
    a copy of the pre-mask weights, kept with record="full".
    """

    site: str
    d_f: float
    density: float
    mask: np.ndarray
    rho: np.ndarray
    pre_weights: np.ndarray | None = None


def _density(mask: np.ndarray) -> float:
    return np.count_nonzero(mask) / mask.size if mask.size else 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class FrozenMasks(Mapping):
    """A read-only site-to-mask map for replay passes.

    The masks are copied in and made non-writeable, so the keep factors
    `keep` caches cannot go stale.
    """

    def __init__(self, masks: Mapping):
        self._masks = {site: _read_only(np.array(m, dtype=bool)) for site, m in masks.items()}
        self._keep: dict = {}

    def __getitem__(self, site: str) -> np.ndarray:
        return self._masks[site]

    def __iter__(self):
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def keep(self, site) -> np.ndarray:
        """The read-only keep factors (`1 - mask`) of a site label, or of the
        stacked masks of a tuple of candidate labels; built on first use."""
        keep = self._keep.get(site)
        if keep is None:
            try:
                mask = (self._masks[site] if isinstance(site, str)
                        else np.stack([self._masks[label] for label in site]))
            except KeyError as exc:
                raise KeyError(f"no frozen mask recorded for site {exc.args[0]!r}") from None
            keep = self._keep[site] = _read_only(1.0 - mask)
        return keep


class MaskController:
    """Masks every masking site of a forward pass and records the live ones.

    Modes: "live" computes masks from the current weights; "replay" reuses
    masks captured by an earlier live pass, keyed by site label, so repeated
    forward evaluations see a frozen mask. Replay, and only replay, takes
    frozen masks, read through a `FrozenMasks`; a plain dict is wrapped in
    one at construction. A site whose factor is None (masking off) passes
    its weights through.

    A live site (`_mask`) masks by `distractions`, the factor range-checked
    when the schedule was built, and appends one record per site label; a
    replay multiplies in the keep factors `FrozenMasks.keep` caches (the op
    that multiplies checks their shape) and appends nothing. `apply` takes
    the same two paths. A candidate batch carries (K, heads, n, m) weights
    and K labels, recorded in label order. Every record holds the site, d_f,
    density, mask and `rho`; record="full", for live passes only, adds a
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
        if (mode == "replay") != (frozen is not None):
            raise ValueError("frozen masks are given exactly when mode is 'replay'")
        if mode == "replay" and record == "full":
            raise ValueError("record='full' is for live passes; a replay records nothing")
        self.mode = mode
        self.record = record
        if frozen is not None and not isinstance(frozen, FrozenMasks):
            frozen = FrozenMasks(frozen)
        self.frozen = frozen
        self.records: list[MaskRecord] = []

    def begin_pass(self) -> None:
        self.records.clear()

    def site(self, d_f: float | None, site):
        """The keep factors of one site (or candidate batch), as
        `head_softmax`'s `mask`; a live site's row maxima are `1 / sums`."""
        if d_f is None:
            return None
        if self.mode == "live":
            return lambda weights, sums: 1.0 - self._mask(weights, 1.0 / sums[..., 0], d_f, site)
        return lambda weights, sums: self.frozen.keep(site)

    def apply(self, attn, d_f: float | None, site) -> "AttentionWeights":
        if d_f is None:
            return attn
        if self.mode == "replay":
            return apply_mask(attn, self.frozen.keep(site) == 0.0)
        return apply_mask(attn, self._mask(attn.weights.data, relevance_scores(attn), d_f, site))

    def _mask(self, weights: np.ndarray, rho: np.ndarray, d_f: float, site) -> np.ndarray:
        """The live mask for pre-mask `weights` with row maxima `rho`, recorded."""
        batched = weights.ndim == 4
        labels = tuple(site) if batched else (site,)
        if batched and len(labels) != weights.shape[0]:
            raise ShapeError(f"{len(labels)} site labels for {weights.shape[0]} candidates")
        mask = distractions(weights, rho, d_f)
        full = self.record == "full"
        for k, label in enumerate(labels):
            at = k if batched else ...
            m = mask[at]
            self.records.append(MaskRecord(
                label, float(d_f), _density(m), m, rho[at], weights[at].copy() if full else None
            ))
        return mask

    def frozen_masks(self) -> FrozenMasks:
        """Site-to-mask map from the last pass, read-only; empty after a replay."""
        out: dict[str, np.ndarray] = {}
        for rec in self.records:
            if rec.site in out:
                raise ValueError(f"duplicate mask site in one pass: {rec.site!r}")
            out[rec.site] = rec.mask
        return FrozenMasks(out)

    def density_by_site(self) -> dict[str, float]:
        return {rec.site: rec.density for rec in self.records}
