"""Command-line entry points: train, eval, gen-data, inspect-attention, ablate.

Configuration comes from an optional flat key=value file plus repeatable
`--set key=value` overrides, then `--seed`, all typed by `settings()`;
unknown keys are hard errors. All outputs are
deterministic for a fixed (config, seed, inputs) triple: metric logs are
sorted-key JSON lines and datasets/checkpoints are byte-stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import CheckpointError, load_model, save_checkpoint
from .data import (
    DataError,
    SyntheticSpec,
    atomic_write,
    file_fault,
    generate_synthetic,
    iter_dataset,
    load_dataset,
    read_features,
    save_dataset,
    shown,
)
from .model import ConfigError, DraxConfig, DraxModel
from .tensor import ShapeError
from .train import evaluate, fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

ABLATION_VARIANTS = [
    ("full", {}),
    ("no-cross-alignment", {"fusion_mode": "simple-concat"}),
    ("no-distraction-masking", {"d_f_initial": 0.0, "delta": 0.0, "d_f_fusion": 0.0}),
    (
        "no-masking-no-alignment",
        {"fusion_mode": "simple-concat", "d_f_initial": 0.0, "delta": 0.0, "d_f_fusion": 0.0},
    ),
    ("anchors-motion-question-answer", {"anchor_stage2": "question"}),
    ("anchors-motion-question-fused", {"anchor_stage2": "question", "anchor_stage3": "fused"}),
    ("anchors-motion-fused-fused", {"anchor_stage3": "fused"}),
]


def _split_item(item: str, where: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    return key.strip(), value.strip()


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored, and a
    leading UTF-8 byte-order mark is dropped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise ConfigError(file_fault(path, exc)) from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, value = _split_item(stripped, f"{shown(path)}:{lineno}")
            values[key] = value
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


_PARSERS = {"bool": _parse_bool, "int": int, "float": float}


def settings(cls, args, what: str = "config") -> dict:
    """The typed settings of one command, by the dataclass fields of `cls`.

    The `--config` file's values, then each `--set` item (a later key wins),
    are merged as strings and typed once; `--seed` then replaces `seed`.
    """
    raw = parse_config_file(args.config) if getattr(args, "config", None) else {}
    raw.update(_split_item(item, "--set") for item in args.set or [])
    kinds = {f.name: f.type for f in fields(cls)}
    typed = {}
    for key, text in raw.items():
        if key not in kinds:
            raise ConfigError(f"unknown {what} key: {key}")
        try:
            typed[key] = _PARSERS.get(kinds[key], str)(text)
        except ValueError:
            raise ConfigError(f"cannot parse {key}={text!r} as {kinds[key]}") from None
    if getattr(args, "seed", None) is not None:
        typed["seed"] = args.seed
    return typed


def _write_jsonl(path: Path, records) -> None:
    with atomic_write(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _out_dir(args) -> Path | None:
    """Make `--out`, if given, once the config is checked and before any data
    is read or made, so a path that cannot be a directory exits 2 at once."""
    if not args.out:
        return None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot make --out {file_fault(out, exc)}") from None
    return out


def cmd_train(args) -> int:
    config = DraxConfig.from_dict(settings(DraxConfig, args))
    out = _out_dir(args)
    dataset = load_dataset(args.data)
    model = DraxModel(config)
    history = fit(model, dataset)
    _write_jsonl(out / "metrics.jsonl", history)
    save_checkpoint(model, out / "model.ckpt")
    final = history[-1]
    print(
        f"trained {final['epoch']} epoch(s); "
        f"final loss {final['loss']:.6f}, accuracy {final['accuracy']:.4f}"
    )
    print(f"checkpoint: {shown(out / 'model.ckpt')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint, settings(DraxConfig, args))
    out = _out_dir(args)
    dataset = load_dataset(args.data)
    result = evaluate(model, dataset)
    records = [{"record": "sample", **sample} for sample in result["samples"]]
    records.append(
        {"record": "summary", "accuracy": result["accuracy"], "loss": result["loss"]}
    )
    if out:
        _write_jsonl(out / "eval.jsonl", records)
    else:
        for record in records:
            print(json.dumps(record, sort_keys=True))
    print(f"accuracy {result['accuracy']:.4f} over {len(dataset)} sample(s)")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(**settings(SyntheticSpec, args, "generator"))
    try:
        spec.validate()
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    out = _out_dir(args)
    bundles = generate_synthetic(spec)
    manifest = save_dataset(bundles, out, spec=spec)
    print(f"wrote {len(bundles)} sample(s) under {shown(out)}")
    print(f"manifest: {shown(manifest)}")
    return EXIT_OK


def cmd_inspect_attention(args) -> int:
    model = load_model(args.checkpoint, settings(DraxConfig, args))
    out = _out_dir(args)
    data = Path(args.data)
    bundle = next(iter_dataset(data)) if data.is_dir() else read_features(data)
    masker = model.make_masker(record="full")
    model.forward(bundle, masker)
    records = []
    for rec in masker.records:
        for head in range(rec.mask.shape[0]):
            records.append(
                {
                    "record": "mask",
                    "site": rec.site,
                    "head": head,
                    "d_f": rec.d_f,
                    "rho": rec.rho[head].tolist(),
                    "tau": (rec.rho[head] * rec.d_f).tolist(),
                    "mask": rec.mask[head].astype(int).tolist(),
                    "pre_weights": rec.pre_weights[head].tolist(),
                    "post_weights": (rec.pre_weights[head] * (1.0 - rec.mask[head])).tolist(),
                }
            )
        records.append(
            {"record": "density", "site": rec.site, "d_f": rec.d_f, "density": rec.density}
        )
    _write_jsonl(out / "trace.jsonl", records)
    print(f"traced {len(masker.records)} masking site(s) to {shown(out / 'trace.jsonl')}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    base = DraxConfig.from_dict(settings(DraxConfig, args))
    out = _out_dir(args)
    dataset = load_dataset(args.data)
    records = []
    for name, overrides in ABLATION_VARIANTS:
        model = DraxModel(dataclasses.replace(base, **overrides))
        history = fit(model, dataset)
        final = history[-1]
        record = {
            "variant": name,
            "epochs_run": final["epoch"],
            "train_loss": final["loss"],
            "train_accuracy": final["accuracy"],
        }
        records.append(record)
        print(json.dumps(record, sort_keys=True))
    _write_jsonl(out / "ablation.jsonl", records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drax",
        description="Distraction-removing cross-attention models over feature bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, config=False, out_required=None, checkpoint=False, data=False):
        if config:
            sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument(
            "--set", action="append", metavar="KEY=VALUE", help="override a config key"
        )
        if out_required is not None:
            sp.add_argument("--out", required=out_required, help="output directory")
        if checkpoint:
            # The checkpoint's config carries the seed.
            sp.add_argument("--checkpoint", required=True, help="checkpoint path")
        else:
            sp.add_argument("--seed", type=int, help="override the seed")
        if data:
            sp.add_argument("--data", required=True, help="dataset directory")

    sp = sub.add_parser("train", help="train a model and write metrics plus a checkpoint")
    common(sp, config=True, out_required=True, data=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(sp, out_required=False, checkpoint=True, data=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gen-data", help="generate a synthetic planted-rule dataset")
    common(sp, out_required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser(
        "inspect-attention", help="dump masks and weights for one sample"
    )
    sp.add_argument("--data", required=True, help="feature file or dataset directory")
    common(sp, out_required=True, checkpoint=True)
    sp.set_defaults(func=cmd_inspect_attention)

    sp = sub.add_parser("ablate", help="train every ablation variant on one dataset")
    common(sp, config=True, out_required=True, data=True)
    sp.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
