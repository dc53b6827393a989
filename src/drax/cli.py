"""Command-line entry points: train, eval, gen-data, inspect-attention, ablate.

Configuration comes from an optional flat key=value file plus repeatable
`--set key=value` overrides; unknown keys are hard errors. All outputs are
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
    generate_synthetic,
    load_dataset,
    read_features,
    save_dataset,
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


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_overrides(items) -> dict[str, str]:
    values: dict[str, str] = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


_PARSERS = {"bool": _parse_bool, "int": int, "float": float}


def coerce_fields(cls, raw: dict[str, str], what: str = "config") -> dict:
    """Type each key=value string by the dataclass field of `cls` it names."""
    kinds = {f.name: f.type for f in fields(cls)}
    typed = {}
    for key, text in raw.items():
        if key not in kinds:
            raise ConfigError(f"unknown {what} key: {key}")
        try:
            typed[key] = _PARSERS.get(kinds[key], str)(text)
        except ValueError:
            raise ConfigError(f"cannot parse {key}={text!r} as {kinds[key]}") from None
    return typed


def build_config(args) -> DraxConfig:
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(parse_config_file(args.config))
    raw.update(_parse_overrides(getattr(args, "set", None)))
    typed = coerce_fields(DraxConfig, raw)
    if getattr(args, "seed", None) is not None:
        typed["seed"] = args.seed
    return DraxConfig.from_dict(typed)


def build_spec(args) -> SyntheticSpec:
    """SyntheticSpec from --set overrides (gen-data's config surface)."""
    typed = coerce_fields(SyntheticSpec, _parse_overrides(getattr(args, "set", None)),
                          "generator")
    if getattr(args, "seed", None) is not None:
        typed["seed"] = args.seed
    spec = SyntheticSpec(**typed)
    try:
        spec.validate()
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return spec


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_train(args) -> int:
    config = build_config(args)
    dataset = load_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = DraxModel(config)
    lines = []

    def log(_epoch, metrics):
        lines.append({key: metrics[key] for key in ("epoch", "loss", "accuracy", "mask_density")})

    history = fit(model, dataset, on_epoch=log)
    _write_jsonl(out / "metrics.jsonl", lines)
    save_checkpoint(model, out / "model.ckpt")
    final = history[-1]
    print(
        f"trained {final['epoch']} epoch(s); "
        f"final loss {final['loss']:.6f}, accuracy {final['accuracy']:.4f}"
    )
    print(f"checkpoint: {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    overrides = coerce_fields(DraxConfig, _parse_overrides(args.set))
    model = load_model(args.checkpoint, overrides)
    dataset = load_dataset(args.data)
    result = evaluate(model, dataset)
    records = [{"record": "sample", **sample} for sample in result["samples"]]
    records.append(
        {"record": "summary", "accuracy": result["accuracy"], "loss": result["loss"]}
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_jsonl(out / "eval.jsonl", records)
    else:
        for record in records:
            print(json.dumps(record, sort_keys=True))
    print(f"accuracy {result['accuracy']:.4f} over {len(dataset)} sample(s)")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    spec = build_spec(args)
    bundles = generate_synthetic(spec)
    manifest = save_dataset(bundles, args.out, spec=spec)
    print(f"wrote {len(bundles)} sample(s) under {Path(args.out)}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_inspect_attention(args) -> int:
    overrides = coerce_fields(DraxConfig, _parse_overrides(args.set))
    model = load_model(args.checkpoint, overrides)
    data = Path(args.data)
    bundle = load_dataset(data)[0] if data.is_dir() else read_features(data)
    masker = model.make_masker(record="full")
    model.forward(bundle, masker)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for rec in masker.records:
        detail = rec.detail
        for head in range(detail.mask.shape[0]):
            records.append(
                {
                    "record": "mask",
                    "site": rec.site,
                    "head": head,
                    "d_f": rec.d_f,
                    "rho": detail.rho[head].tolist(),
                    "tau": detail.threshold[head].tolist(),
                    "mask": detail.mask[head].astype(int).tolist(),
                    "pre_weights": rec.pre_weights[head].tolist(),
                    "post_weights": rec.post_weights[head].tolist(),
                }
            )
        records.append(
            {"record": "density", "site": rec.site, "d_f": rec.d_f, "density": rec.density}
        )
    _write_jsonl(out / "trace.jsonl", records)
    print(f"traced {len(masker.records)} masking site(s) to {out / 'trace.jsonl'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    base = build_config(args)
    dataset = load_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for name, overrides in ABLATION_VARIANTS:
        config = dataclasses.replace(base, **overrides)
        config.validate()
        model = DraxModel(config)
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
        sp.add_argument("--seed", type=int, help="override the seed")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True, help="checkpoint path")
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
