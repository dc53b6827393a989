"""Check the CLI contract: byte-identical outputs for a fixed seed.

Runs `gen-data`, `train`, `eval`, `inspect-attention` and `ablate` on a
tiny configuration in a temporary directory, plus `inspect-attention` on a
hand-built feature file whose answers have two lengths (so stage 3 runs as
two candidate groups) and `gen-data` at the default feature dimensions, and
prints the sha256 of each output file (the six CLI outputs, then the
default dataset's manifest and feature files), one `<sha256>  <file>` line
per file:

    python tools/golden.py                        # print the hashes
    python tools/golden.py --expect GOLDEN.json   # also compare them

With `--expect`, every file whose hash differs from the JSON map of file to
hash is named on stderr and the exit status is 1. The hashes depend on the
numpy and BLAS build, so `GOLDEN.json` holds one host's values; BLAS is held
to one thread. A change that moves a hash on purpose updates `GOLDEN.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# Before numpy loads, so its BLAS starts with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from drax.cli import main as drax_main  # noqa: E402
from drax.data import FeatureBundle, write_features  # noqa: E402

SHAPES = ["--set", "appearance_dim=12", "--set", "motion_dim=16", "--set", "text_dim=10"]
DATA = [
    "--set", "samples=4", "--set", "frames=8", "--set", "clips=3", "--set", "question_len=3",
    "--set", "answer_len=2", "--set", "signal_dims=4", "--set", "distractor_tokens=2", *SHAPES,
]
MODEL = [
    "--set", "d=8", "--set", "heads=2", "--set", "layers=1", *SHAPES,
    "--set", "max_positions=14", "--set", "learning_rate=0.01",
]
# Answer lengths of the hand-built bundle: candidates 0 and 2 form one
# stage-3 group, 1 and 3 the other.
MIXED_ANSWER_LENGTHS = (2, 3, 2, 3)
# The generator's bytes at the default feature dimensions.
DEFAULT_SAMPLES = 8
OUTPUTS = (
    "run/metrics.jsonl", "run/model.ckpt", "eval/eval.jsonl", "trace/trace.jsonl",
    "mixed/trace.jsonl", "abl/ablation.jsonl", "default/manifest.json",
    *(f"default/sample_{i:05d}.drxf" for i in range(DEFAULT_SAMPLES)),
)


def write_mixed_bundle(path: Path) -> None:
    """A feature file at the tiny dimensions whose answers have two lengths."""
    rng = np.random.default_rng(11)
    write_features(FeatureBundle(
        appearance=rng.normal(size=(8, 12)), motion=rng.normal(size=(3, 16)),
        question=rng.normal(size=(3, 10)),
        answers=tuple(rng.normal(size=(n, 10)) for n in MIXED_ANSWER_LENGTHS), label=1,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="GOLDEN.json",
                        help="JSON map of file to sha256; exit 1 if any hash differs")
    args = parser.parse_args(argv)
    hashes = run_sequence()
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
