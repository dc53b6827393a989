"""Print one sha256 over the model's outputs on a fixed grid of passes.

    python tools/digest.py                  # every config
    python tools/digest.py --config tiny    # a slice (repeatable)

For each config, three seeds (model and data) and two bundles (the
generator's fixed-length sample, and the same sample with answers of
lengths 2, 3, 2, 3, so stage 3 runs as two candidate groups), it runs a
forward and backward of `sample_loss` live at record="summary", live at
record="full", and in replay under the first live pass's frozen masks,
twice with the same masker. Every pass feeds the hash its loss,
probabilities and every parameter gradient; a live pass also feeds it every
`MaskRecord` field (a replay records nothing). The output is one
`<sha256>  <passes> passes` line; two commits that print the same line
computed the same bits on the grid. BLAS is held to one thread, so the
digest depends on the numpy and BLAS build but not on the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

# Before numpy loads, so its BLAS starts with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from drax import tensor as T  # noqa: E402
from drax.data import SyntheticSpec, generate_synthetic  # noqa: E402
from drax.distraction import MaskController  # noqa: E402
from drax.model import DraxConfig, DraxModel  # noqa: E402

TINY = dict(d=8, heads=2, layers=2, appearance_dim=6, motion_dim=5, text_dim=7,
            max_positions=20)
TINY_DATA = dict(frames=6, clips=3, question_len=3, answer_len=2, signal_dims=3,
                 distractor_tokens=1, appearance_dim=6, motion_dim=5, text_dim=7)
# name -> (config overrides, generator overrides)
CONFIGS = {
    "tiny": (TINY, TINY_DATA),
    "deep": ({**TINY, "layers": 3, "delta": 0.2}, TINY_DATA),
    "above-one": ({**TINY, "allow_df_above_one": True, "d_f_initial": 0.6, "delta": 0.6},
                  TINY_DATA),
    "off": ({**TINY, "masking_enabled": False}, TINY_DATA),
    "anchors": ({**TINY, "loss_mode": "probability-hinge", "anchor_stage1": "appearance",
                 "anchor_stage2": "question", "anchor_stage3": "fused"}, TINY_DATA),
    "default": ({}, {}),
}
SEEDS = (0, 1, 2)
# (mode, record) of each masker, in order.
GRID = (("live", "summary"), ("live", "full"), ("replay", "summary"))
# Stage 3 runs candidates 0 and 2 as one group, 1 and 3 as the other.
TWO_GROUP_LENGTHS = (2, 3, 2, 3)


def _array(h, array) -> None:
    if array is None:
        h.update(b"None")
    else:
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())


def _pass(h, model, bundle, masker) -> None:
    model.zero_grad()
    loss, probs = model.sample_loss(bundle, masker)
    T.backward(loss)
    _array(h, loss.data)
    _array(h, probs)
    for p in model.parameters():
        h.update(p.name.encode())
        _array(h, p.grad)
    if masker.mode != "live":
        return
    h.update(str(len(masker.records)).encode())
    for rec in masker.records:
        h.update(f"{rec.site}|{rec.d_f!r}|{rec.density!r}".encode())
        for array in (rec.mask, rec.rho, rec.pre_weights):
            _array(h, array)


def _bundles(data: dict, seed: int):
    bundle = generate_synthetic(SyntheticSpec(samples=1, seed=seed, **data))[0]
    rng = np.random.default_rng(seed)
    width = bundle.answers[0].shape[1]
    answers = tuple(rng.normal(size=(n, width)) for n in TWO_GROUP_LENGTHS)
    return bundle, dataclasses.replace(bundle, answers=answers)


def digest(names) -> tuple[str, int]:
    """The sha256 over the grid for the named configs, and its pass count."""
    h = hashlib.sha256()
    passes = 0
    for name in names:
        overrides, data = CONFIGS[name]
        for seed in SEEDS:
            model = DraxModel(DraxConfig(seed=seed, **overrides))
            for bundle in _bundles(data, seed):
                frozen = None
                for mode, record in GRID:
                    masker = MaskController(mode=mode, record=record,
                                            frozen=frozen if mode == "replay" else None)
                    for _ in range(2):
                        h.update(f"{name}|{seed}|{mode}|{record}".encode())
                        _pass(h, model, bundle, masker)
                        passes += 1
                    if frozen is None:
                        frozen = masker.frozen_masks()
    return h.hexdigest(), passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", action="append", choices=sorted(CONFIGS),
                        help="digest only this config (repeatable); default: all")
    args = parser.parse_args(argv)
    value, passes = digest(args.config or list(CONFIGS))
    print(f"{value}  {passes} passes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
