"""One table of refused inputs, and the one check that every row must pass.

A row gives its id, its kind of input (README, "Refused inputs"), the exit
code, the argv, a fragment of the error line, and how the input is broken:
bytes (`raw`), container records (`record`, `records`) or JSON (`manifest`).
A test runs rows by id through the `refused` fixture (`conftest.py`), and
each id is named by exactly one test. `check` runs a row on fresh copies of
the shared inputs (`data/`, `model.ckpt`) and asserts the exit code; one
printable stderr line with that code's prefix, the fragment and no
traceback; no file written or changed, and `--out` not made by a config
error (exit 2); and, when the fault is in a file, that file's `data.shown`
path in the line exactly once.
"""

import json
import shlex
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from drax.cli import EXIT_CONFIG, main
from drax.data import read_container, shown
from helpers import TINY_MODEL_SETS, rewrite_container, rewrite_record

PREFIX = {2: "config error: ", 3: "data error: ", 4: "checkpoint error: "}
CKPT, FIRST, LAST = "model.ckpt", "data/sample_00000.drxf", "data/sample_00003.drxf"
TRAIN = "train --data data --out out"
EVAL = "eval --checkpoint model.ckpt --data data --out out"
INSPECT = "inspect-attention --checkpoint model.ckpt --data data --out out"
TINY = " ".join(TINY_MODEL_SETS)


class Row(NamedTuple):
    id: str
    kind: str
    code: int
    argv: str
    fragment: str
    breaks: Callable[[], Path] | None = None
    names: str | None = None  # the file the fault is in, if no `breaks` returns it


def raw(path, edit):
    """Break the file at `path`: its bytes become `edit(bytes)`, b"" if absent."""
    def breaks():
        target = Path(path)
        target.write_bytes(edit(target.read_bytes() if target.exists() else b""))
        return target
    return breaks


def at(offset, value):
    """A `raw` edit: `value` over the bytes at `offset`."""
    return lambda old: old[:offset] + value + old[offset + len(value):]


def record(path, name, value):
    """Break the container at `path`: record `name` set to `value` as
    `rewrite_record` sets it; a callable `value` maps the stored array."""
    def breaks():
        rewrite_record(path, path, name, value(read_container(path)[name])
                       if callable(value) else value)
        return Path(path)
    return breaks


def records(path, edit):
    """Break the container at `path`: its record list passed through `edit`."""
    def breaks():
        rewrite_container(path, path, edit)
        return Path(path)
    return breaks


def manifest(edit):
    """Break `data/manifest.json`: its JSON value passed through `edit`."""
    return raw("data/manifest.json", lambda old: json.dumps(edit(json.loads(old))).encode())


def poked(value, index=0):
    """A `record` value: a copy of the stored array with one entry set."""
    def poke(array):
        array = array.copy()
        array.flat[index] = value
        return array
    return poke


def stored_config(**changes):
    """A `record` value for `.config`: the stored config with `changes`."""
    return lambda old: json.dumps({**json.loads(old.tobytes()), **changes},
                                  sort_keys=True).encode()


def old_format():
    """Break `model.ckpt` into the layout before checkpoints were containers:
    a little-endian u32 header length, the JSON header, the float64 payloads."""
    arrays = read_container(CKPT)
    config = json.loads(arrays.pop(".config").tobytes())
    header = json.dumps({"config": config, "params": [
        {"name": name, "shape": list(a.shape)} for name, a in arrays.items()]}).encode()
    Path(CKPT).write_bytes(len(header).to_bytes(4, "little") + header
                           + b"".join(a.tobytes() for a in arrays.values()))
    return Path(CKPT)


def _inputs(command, data="data", checkpoint=CKPT):
    both = f"--checkpoint {checkpoint} --data {data}"
    return {"gen-data": "", "eval": both, "inspect-attention": both}.get(command, f"--data {data}")


COMMANDS = ("train", "ablate", "gen-data", "eval", "inspect-attention")
# A checkpoint starts: magic (4), version (2), the record count (4) at byte 6,
# then the `.config` record: name length (2), ".config" (7) at byte 12, dtype
# code (1) at byte 19, rank (1) and its one extent (4) at byte 21. A feature
# file's first record, "appearance", has its name at byte 12, its code at 22.
COUNT, CONFIG_NAME, CONFIG_CODE, CONFIG_EXTENT, APPEARANCE_CODE = 6, 12, 19, 21, 22
NUL_ENTRY = manifest(lambda m: {"samples": [{"path": "a\x00b.drxf", "label": 0}]})
WRONG_FIRST_LABEL = manifest(lambda m: {"samples": [
    dict(m["samples"][0], label=(m["samples"][0]["label"] + 1) % 4), *m["samples"][1:]]})

ROWS = [
    # Settings: `--set` items, config files and `--seed`.
    Row("config-file-no-equals", "config", 2, f"{TRAIN} --config run.cfg",
        "run.cfg:1: expected key=value, got 'd 16'", raw("run.cfg", lambda _: b"d 16\n")),
    Row("set-no-equals", "config", 2, "gen-data --out out --set 'd 16'",
        "--set: expected key=value, got 'd 16'"),
    Row("config-file-empty-key", "config", 2, f"{TRAIN} --config run.cfg",
        "run.cfg:1: expected key=value, got '= 5'", raw("run.cfg", lambda _: b" = 5\n")),
    Row("set-empty-key", "config", 2, "gen-data --out out --set =5",
        "--set: expected key=value, got '=5'"),
    # Absent data and checkpoint: the settings are typed before either is opened.
    *(Row(f"set-before-inputs-{command}", "config", 2,
          f"{command} {_inputs(command, 'absent', 'absent.ckpt')} --out out --set no_equals",
          "--set: expected key=value, got 'no_equals'") for command in COMMANDS),
    *(Row(f"train-set-{item}", "config", 2, f"{TRAIN} --set {item}", fragment)
      for item, fragment in [
          ("bogus=1", "unknown config key: bogus"),
          ("learning_rate=nan", "learning_rate must be finite, got nan"),
          ("learning_rate=inf", "learning_rate must be finite, got inf"),
          ("layer_norm_eps=nan", "layer_norm_eps must be finite, got nan"),
          ("delta=nan", "delta must be finite, got nan"),
          ("grad_clip=nan", "grad_clip must be finite, got nan"),
          ("seed=-3", "seed must be >= 0, got -3"),
          ("no_equals_sign", "--set: expected key=value, got 'no_equals_sign'"),
          ("layer_norm_eps=0", "layer_norm_eps must be positive, got 0.0"),
          ("grad_clip=-1", "grad_clip must be >= 0, got -1.0")]),
    Row("config-file-non-utf8", "config", 2, f"{TRAIN} --config run.cfg",
        "'utf-8' codec can't decode byte 0xe9", raw("run.cfg", lambda _: b"d=8\n# caf\xe9\n")),
    *(Row(f"seed-flag-negative-{command}", "config", 2,
          f"{command} {_inputs(command)} --out out --seed -1", "seed must be >= 0, got -1")
      for command in ("gen-data", "train", "ablate")),
    Row("gen-data-set-wat=3", "config", 2, "gen-data --out out --set wat=3",
        "unknown generator key: wat"),
    *(Row(f"gen-data-set-{item}", "config", 2, f"gen-data --out out --set {item}", fragment)
      for item, fragment in [
          ("samples=0", "samples must be positive, got 0"),
          ("noise_sigma=nan", "noise_sigma must be finite, got nan"),
          ("noise_sigma=inf", "noise_sigma must be finite, got inf"),
          ("seed=-1", "seed must be >= 0, got -1")]),
    # Usage errors: the checkpoint's config carries the seed, so these commands take none.
    *(Row(f"usage-seed-{command}", "usage", 2, f"{command} {_inputs(command)} --out out --seed 1",
          "unrecognized arguments: --seed 1") for command in ("eval", "inspect-attention")),
    Row("usage-no-data", "usage", 2, "train --out out",
        "the following arguments are required: --data"),
    # `--set` on eval and inspect-attention, checked against the stored config.
    *(Row(f"override-{case}-{command}", "override", code,
          f"{command} {_inputs(command)} --out out --set {item}", fragment,
          names=CKPT if code == 4 else None)
      for command in ("eval", "inspect-attention") for case, item, code, fragment in [
          ("shape-mismatch", "d=16", 4, "shape mismatch for"),
          ("invalid-value", "d_f_fusion=2", 2, "d_f_fusion must lie in [0, 1], got 2.0"),
          ("unknown-key", "bogus=1", 2, "unknown config key: bogus"),
          ("nan-value", "delta=nan", 2, "delta must be finite, got nan"),
          ("inf-value", "learning_rate=inf", 2, "learning_rate must be finite, got inf"),
          ("negative-seed", "seed=-3", 2, "seed must be >= 0, got -3")]),
    # Paths that cannot be opened or made.
    Row("missing-config-file", "path", 2, f"{TRAIN} --config absent.cfg",
        "No such file or directory", names="absent.cfg"),
    Row("missing-dataset", "path", 3, "train --data absent --out out", "no such file",
        names="absent/manifest.json"),
    Row("missing-manifest", "path", 3, "train --data . --out out", "no such file",
        names="manifest.json"),
    Row("missing-checkpoint", "path", 4, "eval --checkpoint absent.ckpt --data data",
        "No such file or directory", names="absent.ckpt"),
    Row("missing-feature-file", "path", 3,
        "inspect-attention --checkpoint model.ckpt --data absent.drxf --out out",
        "No such file or directory", names="absent.drxf"),
    # The data is absent: had it been read before `--out` was checked, the
    # exit would be 3. `gen-data` reads none; `TestConfigPlumbing::
    # test_gen_data_makes_out_before_generating` checks that it makes none first.
    *(Row(f"out-{case}-{command}", "path", 2, f"{command} {_inputs(command, 'absent')} --out {out}",
          "cannot make --out", raw("blocker", lambda _: b"kept"), names=out)
      for command in COMMANDS
      for case, out in [("file", "blocker"), ("under-file", "blocker/sub")]),
    *(Row(f"nul-{case}", "path", code, argv, "embedded null byte", breaks, names=name)
      for case, code, argv, breaks, name in [
          ("manifest-entry-eval", 3, EVAL, NUL_ENTRY, "data/a\x00b.drxf"),
          ("checkpoint", 4, "eval --checkpoint a\x00b.ckpt --data data", None, "a\x00b.ckpt"),
          ("config", 2, f"{TRAIN} --config a\x00b.cfg", None, "a\x00b.cfg"),
          ("out", 2, "train --data data --out a\x00b", None, "a\x00b"),
          ("manifest-entry-train", 3, TRAIN, NUL_ENTRY, "data/a\x00b.drxf")]),
    # A dataset's manifest.
    *(Row(f"manifest-{case}", "manifest", 3, TRAIN, fragment, manifest(edit))
      for case, edit, fragment in [
          ("no-path", lambda m: {"samples": [{"label": 0}]}, "entry needs a string path"),
          ("list", lambda m: [], "must be an object with a samples list"),
          ("non-string-path", lambda m: {"samples": [{"path": 5, "label": 0}]},
           "entry needs a string path"),
          ("string-label", lambda m: {"samples": [dict(e, label=str(e["label"]))
                                                  for e in m["samples"]]},
           "entry needs a string path and an integer label"),
          ("bool-label", lambda m: {"samples": [dict(e, label=True) for e in m["samples"]]},
           "entry needs a string path and an integer label"),
          ("empty-samples", lambda m: {"samples": []}, "lists no samples")]),
    Row("manifest-non-utf8", "manifest", 3, TRAIN, "not valid JSON",
        raw("data/manifest.json", lambda old: b"\xff" + old)),
    *(Row(f"manifest-label-mismatch-{argv.split()[0]}", "manifest", 3, argv, "label mismatch",
          WRONG_FIRST_LABEL, names=FIRST) for argv in [INSPECT, f"{TRAIN} {TINY}"]),
    # A dataset's feature files.
    Row("feature-nan", "feature file", 3, EVAL, "appearance features hold non-finite",
        record(FIRST, "appearance", poked(np.nan))),
    Row("feature-nan-label", "feature file", 3, EVAL, "label tensor must hold one integral value",
        record(FIRST, "label", poked(np.nan))),
    Row("feature-name-non-utf8", "feature file", 3, EVAL, "tensor name is not UTF-8",
        raw(FIRST, at(12, b"\xff"))),
    Row("feature-name-repeated", "feature file", 3, EVAL,
        "tensor 'appearance' appears more than once",
        records(FIRST, lambda rs: [("appearance", np.ones((2, 12), "<f4")), *rs])),
    Row("feature-dtype-code-7", "feature file", 3, EVAL,
        "unknown dtype code 7 for tensor 'appearance'", raw(FIRST, at(APPEARANCE_CODE, b"\x07"))),
    Row("feature-trailing-bytes", "feature file", 3, EVAL, "3 trailing bytes after the payload CRC",
        raw(FIRST, lambda old: old + bytes(3))),
    *(Row(f"feature-{case}", "feature file", 3, argv, fragment, breaks)
      for case, argv, fragment, breaks in [
          ("f8", EVAL, "tensor 'appearance' is <f8, not <f4",
           record(FIRST, "appearance", lambda a: a.astype("<f8"))),
          ("u1", EVAL, "tensor 'appearance' is |u1, not <f4",
           record(FIRST, "appearance", lambda a: np.zeros(a.shape, "|u1"))),
          # Each earlier sample trains first, unless the file is refused as read.
          ("1-d-question", f"{TRAIN} {TINY}", "question features must be 2-D, got (10,)",
           record(LAST, "question", lambda a: a[0])),
          ("fourth-file-flipped-byte", f"{TRAIN} {TINY}", "payload CRC mismatch",
           raw(LAST, lambda old: old[:-5] + bytes([old[-5] ^ 0x01]) + old[-4:])),
          # Widths the model does not take, refused as each file is read, so
          # a bad last file stops `train` and `ablate` before their first step.
          *((f"{name}-width-{argv.split()[0]}", argv,
             f"{modality} features must be (n, {width}), got ({rows}, {width + 1})",
             record(path, name, lambda a: np.zeros((a.shape[0], a.shape[1] + 1), "<f4")))
            for name, modality, width, rows, argv, path in [
                ("appearance", "appearance", 12, 10, EVAL, FIRST),
                ("motion", "motion", 16, 5, INSPECT, FIRST),
                ("question", "question", 10, 3, f"{TRAIN} {TINY}", LAST),
                ("answer2", "answer", 10, 2, f"ablate --data data --out out {TINY}", LAST)])]),
    # Checkpoints.
    *(Row(f"ckpt-stored-config-{case}-{extra_id}", "checkpoint", 4, f"{EVAL} {extra}",
          "stored config invalid", record(CKPT, ".config", stored_config(**{key: value})))
      for case, key, value in [
          ("out-of-range", "d_f_fusion", 2.0), ("str-int", "d", "8"), ("float-int", "d", 8.0),
          ("null", "heads", None), ("str-bool", "masking_enabled", "no"),
          ("nan", "learning_rate", float("nan")), ("inf", "delta", float("inf")),
          ("negative-seed", "seed", -5)]
      for extra_id, extra in [("plain", ""), ("with-set", "--set loss_mode=probability-hinge")]),
    *(Row(f"ckpt-{case}", "checkpoint", 4, EVAL, fragment, breaks)
      for case, breaks, fragment in [
          ("config-number", record(CKPT, ".config", b"5"), ".config record is not a JSON object"),
          ("config-list", record(CKPT, ".config", b"[1, 2]"), "is not a JSON object"),
          # A config that is a number, not bytes: the record's dtype is checked.
          ("config-f8", record(CKPT, ".config", np.array([5.0])),
           "record '.config' is <f8, not |u1"),
          ("param-f4", record(CKPT, "decoder.w_a", np.ones((8, 8), "<f4")),
           "record 'decoder.w_a' is <f4, not <f8"),
          # Every record has a rank and extents; a shape unlike the model's is refused.
          ("param-scalar", record(CKPT, "decoder.w_a", np.array(1.0)),
           "shape mismatch for 'decoder.w_a'"),
          # Extents are stored unsigned: a -1 reads as 2**32 - 1, past the end.
          ("config-extent-past-eof", raw(CKPT, at(CONFIG_EXTENT, b"\xff" * 4)),
           "truncated: file ends at"),
          # Names are bytes on disk; one that is not UTF-8 is refused.
          ("name-non-utf8", raw(CKPT, at(CONFIG_NAME, b"\xff")), "tensor name is not UTF-8"),
          ("three-bytes", raw(CKPT, lambda old: old[:3]), "does not start with DRXF"),
          # More records than the file holds: a name runs past the end.
          ("count-past-eof", raw(CKPT, at(COUNT, b"\xff\xff")), "truncated: file ends at"),
          ("config-non-utf8", record(CKPT, ".config", b"\xff\xfe"), "record is not valid JSON"),
          ("config-truncated-json", record(CKPT, ".config", b"{"), "record is not valid JSON"),
          # The last payload byte, just before the CRC.
          ("flipped-payload-bit",
           raw(CKPT, lambda old: old[:-5] + bytes([old[-5] ^ 0x01]) + old[-4:]),
           "payload CRC mismatch"),
          ("dtype-code-7", raw(CKPT, at(CONFIG_CODE, b"\x07")),
           "unknown dtype code 7 for tensor '.config'"),
          ("param-u1", record(CKPT, "decoder.b_out", np.zeros(1, "|u1")),
           "record 'decoder.b_out' is |u1, not <f8"),
          ("config-missing", record(CKPT, ".config", None), "no .config record"),
          ("old-format", old_format,
           "does not start with DRXF: not a checkpoint, or an old-format one")]),
    *(Row(f"ckpt-param-{case}-{name}-first", "checkpoint", 4, EVAL,
          f"parameter {name!r} holds NaN or infinite values", record(CKPT, name, poked(value)))
      for name, case, value in [("decoder.b_out", "nan", np.nan), ("decoder.w_a", "inf", np.inf)]),
    # The layout faults through `eval`, then once more through `inspect-attention`.
    *(Row(f"ckpt-param-{case}-{argv.split()[0]}", "checkpoint", 4, argv, fragment,
          record(CKPT, name, value))
      for argv, shape_fragment in [(EVAL, "shape mismatch for 'decoder.w_a': stored (2, 2), "
                                           "model (8, 8)"), (INSPECT, "shape mismatch")]
      for case, name, value, fragment in [
          ("shape-mismatch", "decoder.w_a", np.zeros((2, 2)), shape_fragment),
          ("missing", "decoder.w_a", None, "missing parameters: decoder.w_a"),
          ("unknown", "mystery", np.zeros(3), "unknown parameters: mystery")]),
    *(Row(f"ckpt-{case}", "checkpoint", 4, argv, fragment, raw(CKPT, edit))
      for case, argv, edit, fragment in [
          ("truncated-eval", EVAL, lambda old: old[:-16], "truncated: file ends at"),
          ("truncated-inspect-attention", INSPECT, lambda old: old[:-16],
           "truncated: file ends at"),
          ("trailing-bytes", EVAL, lambda old: old + bytes(8),
           "8 trailing bytes after the payload CRC")]),
    *(Row(f"ckpt-param-{case}-{name}-last", "checkpoint", 4, EVAL,
          f"parameter {name!r} holds NaN or infinite values",
          record(CKPT, name, poked(value, -1)))
      for name, case, value in [("decoder.b_out", "nan", np.nan), ("decoder.w_a", "inf", np.inf)]),
    Row("ckpt-param-repeated", "checkpoint", 4, EVAL,
        "tensor 'decoder.b_out' appears more than once",
        records(CKPT, lambda rs: [*rs, ("decoder.b_out", np.full(1, 7.0))])),
]

BY_ID = {row.id: row for row in ROWS}


def _files():
    return {path: path.read_bytes() for path in Path(".").rglob("*") if path.is_file()}


def check(row, capsys, monkeypatch, workdir, dataset_dir, checkpoint):
    """Run `row` in `workdir`, made here, on fresh copies of the shared
    inputs, and assert what every refusal holds (see the module docstring)."""
    shutil.copytree(dataset_dir, workdir / "data")
    shutil.copy(checkpoint, workdir / CKPT)
    monkeypatch.chdir(workdir)
    broken = row.breaks() if row.breaks else None
    named = row.names or broken
    argv = shlex.split(row.argv)
    before = _files()
    code, err = main(argv), capsys.readouterr().err
    line = err.removesuffix("\n")
    assert code == row.code and err == line + "\n" and line.isprintable(), (code, err)
    assert "Traceback" not in line
    assert line.startswith(PREFIX[row.code]) and row.fragment in line, line
    assert _files() == before, "a refused run wrote or changed a file"
    if row.code == EXIT_CONFIG and "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).is_dir(), "--out was made"
    if named is not None:
        assert line.count(shown(named)) == 1, line
