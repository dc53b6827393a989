"""Check that a change computes the same bits: CLI outputs and a pass grid.

Runs `gen-data`, `train`, `eval`, `inspect-attention` and `ablate` on a
tiny configuration in a temporary directory, plus `inspect-attention` on a
hand-built feature file whose answers have two lengths (so stage 3 runs as
two candidate groups) and `gen-data` at the default feature dimensions, and
hashes each output file (the six CLI outputs, then the default dataset's
manifest and feature files). Then, for each config of a grid, three seeds
(model and data) and two bundles (the generator's fixed-length sample, and
the same sample with answers of two lengths), it runs a forward and
backward of `sample_loss` live at record="summary", live at record="full",
and in replay under the first live pass's frozen masks, twice with the
same masker. Every pass feeds its config's hash the loss, probabilities and
every parameter gradient; a live pass also feeds it every `MaskRecord`
field and its density (a replay records nothing). It prints one
`<sha256>  <key>` line per file and per config, keyed `grid/<config>`, after
a `host` line: the hash of what the other hashes depend on besides the code
(`host_fingerprint`):

    python tools/golden.py                        # print the hashes
    python tools/golden.py --expect GOLDEN.json   # also compare them

With `--expect`, every key whose hash differs from the JSON map of key to
hash is named on stderr and the exit status is 1. The hashes depend on the
numpy and BLAS build, so `GOLDEN.json` holds one host's values, and its
`host` entry says whose; the script holds BLAS to one thread. A change that
moves a hash on purpose updates `GOLDEN.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # Before numpy loads, so its BLAS starts with one thread; an importer
    # keeps its own environment and path.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from drax import tensor as T  # noqa: E402
from drax.cli import main as drax_main  # noqa: E402
from drax.data import (  # noqa: E402
    FeatureBundle, SyntheticSpec, generate_synthetic, write_features,
)
from drax.distraction import MaskController  # noqa: E402
from drax.model import DraxConfig, DraxModel  # noqa: E402

SHAPES = ["--set", "appearance_dim=12", "--set", "motion_dim=16", "--set", "text_dim=10"]
DATA = [
    "--set", "samples=4", "--set", "frames=8", "--set", "clips=3", "--set", "question_len=3",
    "--set", "answer_len=2", "--set", "signal_dims=4", "--set", "distractor_tokens=2", *SHAPES,
]
MODEL = [
    "--set", "d=8", "--set", "heads=2", "--set", "layers=1", *SHAPES,
    "--set", "max_positions=14", "--set", "learning_rate=0.01",
]
# Answer lengths of a two-group bundle: candidates 0 and 2 form one stage-3
# group, 1 and 3 the other.
TWO_GROUP_LENGTHS = (2, 3, 2, 3)
# The generator's bytes at the default feature dimensions.
DEFAULT_SAMPLES = 8
OUTPUTS = (
    "run/metrics.jsonl", "run/model.ckpt", "eval/eval.jsonl", "trace/trace.jsonl",
    "mixed/trace.jsonl", "abl/ablation.jsonl", "default/manifest.json",
    *(f"default/sample_{i:05d}.drxf" for i in range(DEFAULT_SAMPLES)),
)

# The pass grid's tiny model (two layers) and generator.
GRID_TINY = dict(d=8, heads=2, layers=2, appearance_dim=6, motion_dim=5, text_dim=7,
                 max_positions=20)
GRID_TINY_DATA = dict(frames=6, clips=3, question_len=3, answer_len=2, signal_dims=3,
                      distractor_tokens=1, appearance_dim=6, motion_dim=5, text_dim=7)
# name -> (config overrides, generator overrides)
GRID_CONFIGS = {
    "tiny": (GRID_TINY, GRID_TINY_DATA),
    "deep": ({**GRID_TINY, "layers": 3, "delta": 0.2}, GRID_TINY_DATA),
    # Factors (0.6, 1.0): the cap makes level 2's factor exactly 1.0.
    "capped": ({**GRID_TINY, "d_f_initial": 0.6, "delta": 0.6}, GRID_TINY_DATA),
    "above-one": ({**GRID_TINY, "allow_df_above_one": True, "d_f_initial": 0.6, "delta": 0.6},
                  GRID_TINY_DATA),
    "off": ({**GRID_TINY, "masking_enabled": False}, GRID_TINY_DATA),
    "anchors": ({**GRID_TINY, "loss_mode": "probability-hinge", "anchor_stage1": "appearance",
                 "anchor_stage2": "question", "anchor_stage3": "fused"}, GRID_TINY_DATA),
    "default": ({}, {}),
}
GRID_SEEDS = (0, 1, 2)
# (mode, record) of each masker, in order.
GRID_MASKERS = (("live", "summary"), ("live", "full"), ("replay", "summary"))


def write_mixed_bundle(path: Path) -> None:
    """A feature file at the tiny dimensions whose answers have two lengths."""
    rng = np.random.default_rng(11)
    write_features(FeatureBundle(
        appearance=rng.normal(size=(8, 12)), motion=rng.normal(size=(3, 16)),
        question=rng.normal(size=(3, 10)),
        answers=tuple(rng.normal(size=(n, 10)) for n in TWO_GROUP_LENGTHS), label=1,
    ), path)


def sequence(work: Path) -> list[list[str]]:
    """The seven commands, each writing under `work`."""
    ckpt, data = str(work / "run" / "model.ckpt"), str(work / "data")
    return [
        ["gen-data", "--out", data, "--seed", "5", *DATA],
        ["train", "--data", data, "--out", str(work / "run"), "--seed", "0", *MODEL,
         "--set", "epochs=3"],
        ["eval", "--checkpoint", ckpt, "--data", data, "--out", str(work / "eval")],
        ["inspect-attention", "--checkpoint", ckpt,
         "--data", str(work / "data" / "sample_00000.drxf"), "--out", str(work / "trace")],
        ["inspect-attention", "--checkpoint", ckpt,
         "--data", str(work / "mixed.drxf"), "--out", str(work / "mixed")],
        ["ablate", "--data", data, "--out", str(work / "abl"), "--seed", "0", *MODEL,
         "--set", "epochs=1"],
        ["gen-data", "--out", str(work / "default"), "--seed", "3",
         "--set", f"samples={DEFAULT_SAMPLES}"],
    ]


def run_sequence() -> dict[str, str]:
    """sha256 of every output file, keyed by its path under the work directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_mixed_bundle(work / "mixed.drxf")
        for argv in sequence(work):
            with contextlib.redirect_stdout(io.StringIO()):
                code = drax_main(argv)
            if code != 0:
                raise SystemExit(f"drax {argv[0]} exited {code}")
        return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in OUTPUTS}


def host_fingerprint() -> str:
    """The numpy version, its BLAS build, the machine, and the CPU features
    numpy dispatches on (its SIMD baseline and the extensions it found), as
    sorted-key JSON. Needs numpy 1.26 or later."""
    config = np.show_config(mode="dicts")
    return json.dumps({"numpy": np.__version__, "blas": config["Build Dependencies"]["blas"],
                       "machine": platform.machine(), "simd": config["SIMD Extensions"]},
                      sort_keys=True)


def _hash_array(h, array) -> None:
    if array is None:
        h.update(b"None")
    else:
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())


def _hash_pass(h, model, bundle, masker) -> None:
    model.zero_grad()
    loss, probs = model.sample_loss(bundle, masker)
    T.backward(loss)
    _hash_array(h, loss.data)
    _hash_array(h, probs)
    for p in model.parameters():
        h.update(p.name.encode())
        _hash_array(h, p.grad)
    if masker.mode != "live":
        return
    h.update(str(len(masker.records)).encode())
    for rec in masker.records:
        h.update(f"{rec.site}|{rec.d_f!r}|{rec.density!r}".encode())
        for array in (rec.mask, rec.rho, rec.pre_weights):
            _hash_array(h, array)


def _grid_bundles(data: dict, seed: int):
    bundle = generate_synthetic(SyntheticSpec(samples=1, seed=seed, **data))[0]
    rng = np.random.default_rng(seed)
    width = bundle.answers[0].shape[1]
    answers = tuple(rng.normal(size=(n, width)) for n in TWO_GROUP_LENGTHS)
    return bundle, dataclasses.replace(bundle, answers=answers)


def grid_hash(name: str) -> str:
    """sha256 over the grid's 36 passes for one config of `GRID_CONFIGS`."""
    overrides, data = GRID_CONFIGS[name]
    h = hashlib.sha256()
    for seed in GRID_SEEDS:
        model = DraxModel(DraxConfig(seed=seed, **overrides))
        for bundle in _grid_bundles(data, seed):
            frozen = None
            for mode, record in GRID_MASKERS:
                masker = MaskController(mode=mode, record=record,
                                        frozen=frozen if mode == "replay" else None)
                for _ in range(2):
                    h.update(f"{name}|{seed}|{mode}|{record}".encode())
                    _hash_pass(h, model, bundle, masker)
                if frozen is None:
                    frozen = masker.frozen_masks()
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="GOLDEN.json",
                        help="JSON map of key to sha256; exit 1 if any hash differs")
    args = parser.parse_args(argv)
    hashes = {"host": hashlib.sha256(host_fingerprint().encode()).hexdigest(), **run_sequence()}
    hashes.update((f"grid/{name}", grid_hash(name)) for name in GRID_CONFIGS)
    for name, digest in hashes.items():
        print(f"{digest}  {name}")
    if args.expect is None:
        return 0
    expected = json.loads(Path(args.expect).read_text())
    differ = [name for name in sorted(set(hashes) | set(expected))
              if hashes.get(name) != expected.get(name)]
    for name in differ:
        print(f"hash differs: {name}: expected {expected.get(name)}, got {hashes.get(name)}",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
