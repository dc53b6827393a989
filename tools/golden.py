"""Check the CLI contract: byte-identical outputs for a fixed seed.

Runs `gen-data`, `train`, `eval`, `inspect-attention` and `ablate` on a
tiny configuration in a temporary directory and prints the sha256 of each
of their five output files, one `<sha256>  <file>` line per file:

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

from drax.cli import main as drax_main  # noqa: E402

SHAPES = ["--set", "appearance_dim=12", "--set", "motion_dim=16", "--set", "text_dim=10"]
DATA = [
    "--set", "samples=4", "--set", "frames=8", "--set", "clips=3", "--set", "question_len=3",
    "--set", "answer_len=2", "--set", "signal_dims=4", "--set", "distractor_tokens=2", *SHAPES,
]
MODEL = [
    "--set", "d=8", "--set", "heads=2", "--set", "layers=1", *SHAPES,
    "--set", "max_positions=14", "--set", "learning_rate=0.01",
]
OUTPUTS = (
    "run/metrics.jsonl", "run/model.ckpt", "eval/eval.jsonl", "trace/trace.jsonl",
    "abl/ablation.jsonl",
)


def sequence(work: Path) -> list[list[str]]:
    """The five commands, each writing under `work`."""
    ckpt, data = str(work / "run" / "model.ckpt"), str(work / "data")
    return [
        ["gen-data", "--out", data, "--seed", "5", *DATA],
        ["train", "--data", data, "--out", str(work / "run"), "--seed", "0", *MODEL,
         "--set", "epochs=3"],
        ["eval", "--checkpoint", ckpt, "--data", data, "--out", str(work / "eval")],
        ["inspect-attention", "--checkpoint", ckpt,
         "--data", str(work / "data" / "sample_00000.drxf"), "--out", str(work / "trace")],
        ["ablate", "--data", data, "--out", str(work / "abl"), "--seed", "0", *MODEL,
         "--set", "epochs=1"],
    ]


def run_sequence() -> dict[str, str]:
    """sha256 of every output file, keyed by its path under the work directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
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
