"""End-to-end checks for the command-line entry points."""

import dataclasses
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drax
import drax.cli
import drax.data
from drax.checkpoint import load_model, read_checkpoint, save_checkpoint
from drax.cli import (
    ABLATION_VARIANTS,
    _write_jsonl,
    build_parser,
    main,
    parse_config_file,
    settings,
)
from drax.data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    read_features,
    save_dataset,
    write_features,
)
from drax.model import DraxConfig, DraxModel
from helpers import rewrite_record


TINY_MODEL_SETS = [
    "--set", "d=8",
    "--set", "heads=2",
    "--set", "layers=1",
    "--set", "appearance_dim=12",
    "--set", "motion_dim=16",
    "--set", "text_dim=10",
    "--set", "max_positions=14",
    "--set", "epochs=2",
    "--set", "learning_rate=0.01",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Tiny on-disk dataset; appearance rows (10) divide by motion rows (5)."""
    directory = tmp_path_factory.mktemp("cli-data")
    spec = SyntheticSpec(
        samples=4, frames=8, clips=3, question_len=3, answer_len=2,
        signal_dims=4, distractor_tokens=2, noise_sigma=0.5, seed=5,
        appearance_dim=12, motion_dim=16, text_dim=10,
    )
    save_dataset(generate_synthetic(spec), directory, spec=spec)
    return directory


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    """A one-epoch tiny checkpoint shared by the override tests."""
    run = tmp_path_factory.mktemp("cli-run")
    assert main([
        "train", "--data", str(dataset_dir), "--out", str(run),
        "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
    ]) == 0
    return run / "model.ckpt"


def _summary(eval_dir):
    lines = (eval_dir / "eval.jsonl").read_text().splitlines()
    return json.loads(lines[-1])


class TestConfigPlumbing:
    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nd = 16\nheads=2\nloss_mode = probability-hinge\n")
        assert parse_config_file(path) == {
            "d": "16", "heads": "2", "loss_mode": "probability-hinge"
        }

    def test_malformed_line_rejected(self, tmp_path, capsys):
        # A file line and a `--set` item share one error form; only where differs.
        path = tmp_path / "bad.cfg"
        path.write_text("d 16\n")
        from drax.model import ConfigError
        expected = f"{path}:1: expected key=value, got 'd 16'"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            parse_config_file(path)
        assert main(["gen-data", "--out", str(tmp_path / "o"), "--set", "d 16"]) == 2
        assert capsys.readouterr().err == "config error: --set: expected key=value, got 'd 16'\n"

    def test_empty_key_rejected(self, tmp_path, capsys):
        # An empty key is the same error, so the message names the item.
        path = tmp_path / "bad.cfg"
        path.write_text(" = 5\n")
        from drax.model import ConfigError
        expected = f"{path}:1: expected key=value, got '= 5'"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            parse_config_file(path)
        assert main(["gen-data", "--out", str(tmp_path / "o"), "--set", "=5"]) == 2
        assert capsys.readouterr().err == "config error: --set: expected key=value, got '=5'\n"

    def test_bom_config_file_is_read(self, tmp_path):
        """Windows Notepad starts a UTF-8 file with a byte-order mark; the
        first key is still `d`, not `\\ufeffd`."""
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfd=8\nheads=2\n")
        assert parse_config_file(path) == {"d": "8", "heads": "2"}
        # A valid config gets past the config step: the missing data exits 3.
        assert main([
            "train", "--config", str(path), "--data", str(tmp_path / "absent"),
            "--out", str(tmp_path / "o"),
        ]) == 3

    @pytest.mark.parametrize("command", ["train", "ablate", "gen-data", "eval",
                                         "inspect-attention"])
    def test_every_command_types_set_items(self, tmp_path, capsys, command):
        """A malformed `--set` exits 2 before `--out` is made and before any
        checkpoint or data file is opened (neither path exists)."""
        data = ["--data", str(tmp_path / "absent-data")]
        checkpoint = ["--checkpoint", str(tmp_path / "absent.ckpt")]
        inputs = {"train": data, "ablate": data, "gen-data": [],
                  "eval": checkpoint + data, "inspect-attention": checkpoint + data}[command]
        out = tmp_path / "o"
        assert main([command, *inputs, "--out", str(out), "--set", "no_equals"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'no_equals'" in err
        assert not out.exists()

    def test_config_then_set_then_seed(self, dataset_dir, tmp_path):
        """`--config` < `--set` < `--seed`, and a later `--set` wins. Values
        merge as strings and are typed once, so the file's `d=eight`, which
        `--set d=8` replaces, is never parsed."""
        path = tmp_path / "run.cfg"
        path.write_text("d=eight\nheads=1\ndelta=0.1\nseed=3\n")
        out = tmp_path / "o"
        assert main([
            "train", "--config", str(path), "--data", str(dataset_dir), "--out", str(out),
            *TINY_MODEL_SETS, "--set", "epochs=1", "--set", "seed=5", "--seed", "11",
        ]) == 0
        stored, _ = read_checkpoint(out / "model.ckpt")
        assert (stored["d"], stored["heads"], stored["delta"]) == (8, 2, 0.1)
        assert (stored["epochs"], stored["seed"]) == (1, 11)

    def test_unknown_key_is_exit_2(self, dataset_dir, tmp_path, capsys):
        # A non-finite float is refused the same way, before any training.
        # So are an item without "=" and values outside a field's range.
        for item in ("bogus=1", "learning_rate=nan", "learning_rate=inf",
                     "layer_norm_eps=nan", "delta=nan", "grad_clip=nan", "seed=-3",
                     "no_equals_sign", "layer_norm_eps=0", "grad_clip=-1"):
            code = main([
                "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                "--set", item,
            ])
            assert code == 2, item
            assert item.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_missing_config_file_is_exit_2(self, dataset_dir, tmp_path):
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
            "--config", str(tmp_path / "absent.cfg"),
        ])
        assert code == 2

    def test_non_utf8_config_file_is_exit_2(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"d=8\n# caf\xe9\n")
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
            "--config", str(path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config file")

    def test_missing_dataset_is_exit_3(self, tmp_path):
        code = main([
            "train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_missing_checkpoint_is_exit_4(self, dataset_dir, tmp_path):
        code = main([
            "eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
            "--data", str(dataset_dir),
        ])
        assert code == 4

    def test_set_overrides_win_over_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d=16\nheads=2\n")
        parser = build_parser()
        args = parser.parse_args([
            "train", "--config", str(path), "--set", "d=8",
            "--data", "x", "--out", "y",
        ])
        config = DraxConfig.from_dict(settings(DraxConfig, args))
        assert config.d == 8 and config.heads == 2

    @pytest.mark.parametrize("text, value", [("yes", True), ("On", True), ("no", False)])
    def test_bool_override_words(self, text, value):
        args = build_parser().parse_args([
            "train", "--set", f"masking_enabled={text}", "--data", "x", "--out", "y",
        ])
        assert DraxConfig.from_dict(settings(DraxConfig, args)).masking_enabled is value

    def test_seed_flag_overrides_config(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "train", "--set", "seed=3", "--seed", "11", "--data", "x", "--out", "y",
        ])
        assert DraxConfig.from_dict(settings(DraxConfig, args)).seed == 11

    @pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
    def test_negative_seed_flag_is_exit_2(self, dataset_dir, tmp_path, capsys, command):
        args = [] if command == "gen-data" else ["--data", str(dataset_dir)]
        out = tmp_path / "o"
        assert main([command, "--out", str(out), "--seed", "-1", *args]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_seed_is_a_usage_error_with_a_checkpoint(self, command, capsys):
        # The checkpoint's config carries the seed, so these commands take none.
        with pytest.raises(SystemExit) as exc:
            main([command, "--checkpoint", "c.ckpt", "--data", "d", "--out", "o",
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "inspect-attention", "ablate",
                                         "gen-data"])
    def test_out_that_cannot_be_a_directory_is_exit_2(self, dataset_dir, checkpoint, tmp_path,
                                                       capsys, monkeypatch, command):
        """An `--out` that names a file, or a path under one, exits 2 with one
        line naming it, before any data is read or made."""
        def no_data(*args, **kwargs):
            raise AssertionError("data was read or made before --out was checked")

        for name in ("load_dataset", "iter_dataset", "read_features", "generate_synthetic"):
            monkeypatch.setattr(drax.cli, name, no_data)
        data = ["--data", str(dataset_dir)]
        inputs = {"gen-data": [], "train": data, "ablate": data,
                  "eval": ["--checkpoint", str(checkpoint), *data],
                  "inspect-attention": ["--checkpoint", str(checkpoint), *data]}[command]
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        for out in (blocker, blocker / "sub"):
            assert main([command, *inputs, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert str(out) in err
        assert blocker.read_text() == "kept"


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        code = main([
            "gen-data", "--out", str(out), "--seed", "9",
            "--set", "samples=3", "--set", "frames=5", "--set", "clips=3",
            "--set", "question_len=2", "--set", "answer_len=2",
            "--set", "signal_dims=3", "--set", "distractor_tokens=1",
            "--set", "appearance_dim=8", "--set", "motion_dim=9",
            "--set", "text_dim=7",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["samples"]) == 3
        assert manifest["spec"]["seed"] == 9

    def test_unknown_generator_key_is_exit_2(self, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path / "g"), "--set", "wat=3"])
        assert code == 2

    def test_invalid_spec_is_exit_2(self, tmp_path):
        for item in ("samples=0", "noise_sigma=nan", "noise_sigma=inf", "seed=-1"):
            code = main(["gen-data", "--out", str(tmp_path / "g"), "--set", item])
            assert code == 2, item
        assert not (tmp_path / "g").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["--set", "samples=2", "--set", "frames=4", "--set", "clips=3",
                "--set", "question_len=2", "--set", "answer_len=2",
                "--set", "signal_dims=2", "--set", "distractor_tokens=1",
                "--set", "appearance_dim=6", "--set", "motion_dim=7",
                "--set", "text_dim=5", "--seed", "4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(out1), *args]) == 0
        assert main(["gen-data", "--out", str(out2), *args]) == 0
        for name in ("manifest.json", "sample_00000.drxf", "sample_00001.drxf"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestTrainEval:
    def test_train_then_eval_round_trip(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(run),
            "--seed", "0", *TINY_MODEL_SETS,
        ])
        assert code == 0
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            record = json.loads(line)
            assert record["epoch"] == i
            assert set(record) == {"epoch", "loss", "accuracy", "mask_density"}
        capsys.readouterr()

        evalout = tmp_path / "ev"
        code = main([
            "eval", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(dataset_dir), "--out", str(evalout),
        ])
        assert code == 0
        records = [json.loads(l) for l in (evalout / "eval.jsonl").read_text().splitlines()]
        samples = [r for r in records if r["record"] == "sample"]
        summary = [r for r in records if r["record"] == "summary"]
        assert len(samples) == 4 and len(summary) == 1
        assert [s["index"] for s in samples] == [0, 1, 2, 3]
        hits = sum(s["correct"] for s in samples)
        assert summary[0]["accuracy"] == pytest.approx(hits / 4)

    def test_same_seed_byte_identical_outputs(self, dataset_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            assert main([
                "train", "--data", str(dataset_dir), "--out", str(run),
                "--seed", "7", *TINY_MODEL_SETS,
            ]) == 0
            outs.append(run)
        assert (outs[0] / "metrics.jsonl").read_bytes() == (outs[1] / "metrics.jsonl").read_bytes()
        assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()

    def test_zero_learning_rate_keeps_initialization(self, dataset_dir, tmp_path):
        run = tmp_path / "frozen"
        assert main([
            "train", "--data", str(dataset_dir), "--out", str(run),
            "--seed", "0", *TINY_MODEL_SETS, "--set", "learning_rate=0",
            "--set", "epochs=1",
        ]) == 0
        config_dict, arrays = read_checkpoint(run / "model.ckpt")
        from drax.model import DraxModel
        fresh = DraxModel(DraxConfig.from_dict(config_dict))
        for name, array in fresh.param_arrays().items():
            np.testing.assert_array_equal(array, arrays[name])

    def test_eval_stdout_mode(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main([
            "train", "--data", str(dataset_dir), "--out", str(run),
            "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
        ])
        capsys.readouterr()
        assert main([
            "eval", "--checkpoint", str(run / "model.ckpt"), "--data", str(dataset_dir),
        ]) == 0
        out = capsys.readouterr().out
        json_lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(json_lines) == 5
        assert json.loads(json_lines[-1])["record"] == "summary"


class TestCheckpointOverrides:
    """`--set` on eval/inspect-attention: checked against the stored config."""

    def test_loss_mode_override_changes_summary_loss(self, checkpoint, dataset_dir, tmp_path):
        base = ["eval", "--checkpoint", str(checkpoint), "--data", str(dataset_dir)]
        assert main([*base, "--out", str(tmp_path / "plain")]) == 0
        assert main([
            *base, "--out", str(tmp_path / "prob"), "--set", "loss_mode=probability-hinge",
        ]) == 0
        plain, prob = _summary(tmp_path / "plain"), _summary(tmp_path / "prob")
        assert prob["loss"] != plain["loss"]
        assert prob["accuracy"] == plain["accuracy"]

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    @pytest.mark.parametrize(
        "override, code",
        [("d=16", 4), ("d_f_fusion=2", 2), ("bogus=1", 2), ("delta=nan", 2),
         ("learning_rate=inf", 2), ("seed=-3", 2)],
        ids=["shape-mismatch", "invalid-value", "unknown-key", "nan-value", "inf-value",
             "negative-seed"],
    )
    def test_bad_override_exit_code(self, checkpoint, dataset_dir, tmp_path, capsys,
                                    command, override, code):
        assert main([
            command, "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
            "--out", str(tmp_path / "out"), "--set", override,
        ]) == code
        prefix = "checkpoint error" if code == 4 else "config error"
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("extra", [[], ["--set", "loss_mode=probability-hinge"]],
                             ids=["plain", "with-set"])
    @pytest.mark.parametrize(
        "key, value",
        [("d_f_fusion", 2.0), ("d", "8"), ("d", 8.0), ("heads", None),
         ("masking_enabled", "no"), ("learning_rate", float("nan")), ("delta", float("inf")),
         ("seed", -5)],
        ids=["out-of-range", "str-int", "float-int", "null", "str-bool", "nan", "inf",
             "negative-seed"],
    )
    def test_invalid_stored_config_is_exit_4(self, checkpoint, dataset_dir, tmp_path, capsys,
                                             key, value, extra):
        config, _ = read_checkpoint(checkpoint)
        bad = tmp_path / "bad.ckpt"
        rewrite_record(checkpoint, bad, ".config",
                       json.dumps(dict(config, **{key: value}), sort_keys=True).encode("utf-8"))
        assert main([
            "eval", "--checkpoint", str(bad), "--data", str(dataset_dir),
            "--out", str(tmp_path / "out"), *extra,
        ]) == 4
        assert "checkpoint config invalid" in capsys.readouterr().err


class TestNonFiniteFeatures:
    @staticmethod
    def _poison(data, monkeypatch, name, value):
        """Rewrite sample 0 with tensor `name` replaced by `value`.

        write_features checks the bundle, then serializes `_tensor_records`;
        swapping those records yields a well-formed file (valid CRC) that
        holds what no valid bundle holds.
        """
        good = read_features(data / "sample_00000.drxf")
        records = [(key, value if key == name else array)
                   for key, array in drax.data._tensor_records(good)]
        with monkeypatch.context() as patched:
            patched.setattr(drax.data, "_tensor_records", lambda _: records)
            write_features(good, data / "sample_00000.drxf")

    def test_nan_feature_file_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys,
                                        monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        appearance = read_features(data / "sample_00000.drxf").appearance
        self._poison(data, monkeypatch, "appearance", np.full_like(appearance, np.nan))
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_nan_label_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        self._poison(data, monkeypatch, "label", np.array([np.nan]))
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert "label" in err and "Traceback" not in err


class TestMalformedManifest:
    """A manifest that is valid JSON but not shaped as `save_dataset` writes
    it is a data error (exit 3) that names the entry, not a traceback."""

    @pytest.mark.parametrize("edit", [
        lambda manifest: {"samples": [{"label": 0}]},
        lambda manifest: [],
        lambda manifest: {"samples": [{"path": 5, "label": 0}]},
        lambda manifest: {"samples": [dict(entry, label=str(entry["label"]))
                                      for entry in manifest["samples"]]},
        lambda manifest: {"samples": [dict(entry, label=True) for entry in manifest["samples"]]},
    ], ids=["no-path", "list", "non-string-path", "string-label", "bool-label"])
    def test_train_exits_3(self, dataset_dir, tmp_path, capsys, edit):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps(edit(manifest)))
        assert main([
            "train", "--data", str(data), "--out", str(tmp_path / "run"), *TINY_MODEL_SETS,
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: manifest") and "label mismatch" not in err

    def test_empty_samples_list_exits_3(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        (data / "manifest.json").write_text(json.dumps({"samples": []}))
        assert main([
            "train", "--data", str(data), "--out", str(tmp_path / "run"), *TINY_MODEL_SETS,
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: dataset under") and err.rstrip().endswith("is empty")

    def test_non_utf8_manifest_exits_3(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        (data / "manifest.json").write_bytes(b"\xff" + (data / "manifest.json").read_bytes())
        assert main([
            "train", "--data", str(data), "--out", str(tmp_path / "run"), *TINY_MODEL_SETS,
        ]) == 3
        assert capsys.readouterr().err.startswith("data error: manifest is not valid JSON")

    def test_nul_byte_in_path_exits_3(self, checkpoint, dataset_dir, tmp_path, capsys):
        # The OS refuses such a path with ValueError, not OSError.
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        (data / "manifest.json").write_text(json.dumps(
            {"samples": [{"path": "a\u0000b.drxf", "label": 0}]}))
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read feature file") and err.count("\n") == 1


class TestMalformedFeatureFile:
    """Bytes the payload CRC does not cover are checked too (exit 3)."""

    def _eval(self, checkpoint, data):
        return main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)])

    def test_non_utf8_tensor_name_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        path = data / "sample_00000.drxf"
        raw = bytearray(path.read_bytes())
        # Magic (4), version (2), count (4), then the first name's length (2).
        assert raw[12:22] == b"appearance"
        raw[12] = 0xFF
        path.write_bytes(bytes(raw))
        assert self._eval(checkpoint, data) == 3
        assert "tensor name is not UTF-8" in capsys.readouterr().err

    def test_repeated_tensor_name_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys,
                                            monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        path = data / "sample_00000.drxf"
        good = read_features(path)
        records = [("appearance", np.ones((2, 6)))] + drax.data._tensor_records(good)
        monkeypatch.setattr(drax.data, "_tensor_records", lambda _: records)
        write_features(good, path)
        assert self._eval(checkpoint, data) == 3
        assert "'appearance' appears more than once" in capsys.readouterr().err

    def test_unknown_dtype_code_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        path = data / "sample_00000.drxf"
        raw = bytearray(path.read_bytes())
        # The first name, "appearance", ends at byte 22; its dtype code follows.
        assert raw[12:22] == b"appearance" and raw[22] == 0
        raw[22] = 7
        path.write_bytes(bytes(raw))
        assert self._eval(checkpoint, data) == 3
        assert "unknown dtype code 7 for tensor 'appearance'" in capsys.readouterr().err

    def test_trailing_bytes_are_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        path = data / "sample_00000.drxf"
        path.write_bytes(path.read_bytes() + bytes(3))
        assert self._eval(checkpoint, data) == 3
        assert "3 trailing bytes after the payload CRC" in capsys.readouterr().err


def _patch(offset, value):
    """An edit that copies a checkpoint with `value` over the bytes at `offset`."""
    def edit(src, dst):
        raw = bytearray(src.read_bytes())
        raw[offset:offset + len(value)] = value
        dst.write_bytes(bytes(raw))
    return edit


# A checkpoint starts: magic (4), version (2), the record count (4) at byte 6,
# then the `.config` record: name length (2), ".config" (7) at byte 12, dtype
# code (1) at byte 19, rank (1) and its one extent (4) at byte 21.
COUNT, CONFIG_NAME, CONFIG_CODE, CONFIG_EXTENT = 6, 12, 19, 21


class TestMalformedCheckpointHeader:
    """A checkpoint whose bytes are not what `save_checkpoint` writes is a
    checkpoint error (exit 4), one line that names what is wrong. Each case
    once edited the old JSON header; each now makes the fault the container
    or the `.config` record check refuses in its place."""

    @pytest.mark.parametrize("edit, message", [
        (lambda src, dst: rewrite_record(src, dst, ".config", b"5"), "not a JSON object"),
        (lambda src, dst: rewrite_record(src, dst, ".config", b"[1, 2]"), "not a JSON object"),
        # A config that is a number, not bytes: the record's dtype is checked.
        (lambda src, dst: rewrite_record(src, dst, ".config", np.array([5.0])),
         "record '.config' is <f8, not |u1"),
        # A parameter entry of the wrong type: a parameter record not float64.
        (lambda src, dst: rewrite_record(src, dst, "decoder.w_a", np.ones((8, 8), "<f4")),
         "record 'decoder.w_a' is <f4, not <f8"),
        # Every record has a rank and extents; a shape unlike the model's is refused.
        (lambda src, dst: rewrite_record(src, dst, "decoder.w_a", np.array(1.0)),
         "shape mismatch for 'decoder.w_a'"),
        # Extents are stored unsigned: a -1 reads as 2**32 - 1, past the end.
        (_patch(CONFIG_EXTENT, b"\xff" * 4), "truncated: file ends at byte"),
        # Names are bytes on disk; one that is not UTF-8 is refused.
        (_patch(CONFIG_NAME, b"\xff"), "tensor name is not UTF-8"),
    ], ids=["number", "config-list", "params-number", "entry-list", "no-shape",
            "negative-dim", "non-string-name"])
    def test_eval_exits_4(self, checkpoint, dataset_dir, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.ckpt"
        edit(checkpoint, bad)
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda src, dst: dst.write_bytes(src.read_bytes()[:3]), "does not start with DRXF"),
        # More records than the file holds: a name runs past the end.
        (_patch(COUNT, b"\xff\xff"), "truncated: file ends at byte"),
        (lambda src, dst: rewrite_record(src, dst, ".config", b"\xff\xfe"),
         ".config record is not valid JSON"),
        (lambda src, dst: rewrite_record(src, dst, ".config", b"{"),
         ".config record is not valid JSON"),
    ], ids=["three-bytes", "length-past-eof", "non-utf8", "truncated-json"])
    def test_unreadable_header_exits_4(self, checkpoint, dataset_dir, tmp_path, capsys,
                                       edit, message):
        bad = tmp_path / "bad.ckpt"
        edit(checkpoint, bad)
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and message in err and err.count("\n") == 1


class TestCheckpointContainer:
    """A checkpoint is a DRXF container: its CRC, dtype codes, record dtypes
    and `.config` record are checked (exit 4)."""

    def _eval(self, bad, dataset_dir, capsys):
        code = main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir)])
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1
        return code, err

    def test_flipped_payload_bit_exits_4(self, checkpoint, dataset_dir, tmp_path, capsys):
        raw = bytearray(checkpoint.read_bytes())
        raw[-5] ^= 0x01  # the last payload byte, just before the CRC
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        code, err = self._eval(bad, dataset_dir, capsys)
        assert code == 4 and "payload CRC mismatch" in err

    def test_unknown_dtype_code_exits_4(self, checkpoint, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _patch(CONFIG_CODE, bytes([7]))(checkpoint, bad)
        code, err = self._eval(bad, dataset_dir, capsys)
        assert code == 4 and "unknown dtype code 7 for tensor '.config'" in err

    def test_parameter_record_not_float64_exits_4(self, checkpoint, dataset_dir, tmp_path,
                                                  capsys):
        bad = tmp_path / "bad.ckpt"
        rewrite_record(checkpoint, bad, "decoder.b_out", np.zeros(1, "|u1"))
        code, err = self._eval(bad, dataset_dir, capsys)
        assert code == 4 and "record 'decoder.b_out' is |u1, not <f8" in err

    def test_missing_config_record_exits_4(self, checkpoint, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        rewrite_record(checkpoint, bad, ".config", None)
        code, err = self._eval(bad, dataset_dir, capsys)
        assert code == 4 and "checkpoint has no .config record" in err

    def test_old_format_checkpoint_exits_4(self, checkpoint, dataset_dir, tmp_path, capsys):
        # The layout before checkpoints were containers: a little-endian u32
        # header length, the JSON header, then the raw float64 payloads.
        config, arrays = read_checkpoint(checkpoint)
        header = json.dumps({"config": config, "params": [
            {"name": name, "shape": list(a.shape)} for name, a in arrays.items()]}).encode()
        bad = tmp_path / "old.ckpt"
        bad.write_bytes(len(header).to_bytes(4, "little") + header
                        + b"".join(a.tobytes() for a in arrays.values()))
        code, err = self._eval(bad, dataset_dir, capsys)
        assert code == 4 and "an old-format checkpoint" in err


class TestNulBytePaths:
    """A path holding a NUL byte is refused with its exit code and one
    printable error line; the OS refuses such a path with ValueError, not
    OSError."""

    @pytest.mark.parametrize("where, code, prefix", [
        ("manifest", 3, "data error: cannot read feature file ds/a\\x00b.drxf"),
        ("--checkpoint", 4, "checkpoint error: cannot read checkpoint a\\x00b.ckpt"),
        ("--config", 2, "config error: cannot read config file a\\x00b.cfg"),
        ("--out", 2, "config error: cannot make output directory a\\x00b"),
    ])
    def test_exits_with_one_printable_line(self, checkpoint, dataset_dir, tmp_path, capsys,
                                           monkeypatch, where, code, prefix):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(dataset_dir, "ds")
        argv = {
            "manifest": ["eval", "--checkpoint", str(checkpoint), "--data", "ds"],
            "--checkpoint": ["eval", "--checkpoint", "a\x00b.ckpt", "--data", "ds"],
            "--config": ["train", "--config", "a\x00b.cfg", "--data", "ds", "--out", "o"],
            "--out": ["train", "--data", "ds", "--out", "a\x00b"],
        }[where]
        if where == "manifest":
            Path("ds/manifest.json").write_text(json.dumps(
                {"samples": [{"path": "a\u0000b.drxf", "label": 0}]}))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1 and err[:-1].isprintable()


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("name, value", [("decoder.b_out", np.nan), ("decoder.w_a", np.inf)])
    def test_non_finite_parameter_is_exit_4(self, checkpoint, dataset_dir, tmp_path, capsys,
                                            name, value):
        model = load_model(checkpoint)
        model.store.params[name].data.flat[0] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(model, bad)
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir),
                     "--out", str(out)]) == 4
        assert f"parameter {name!r} holds NaN or infinite values" in capsys.readouterr().err
        assert not (out / "eval.jsonl").exists()


class _HalfWrite:
    """A file handle that keeps the first half of a write, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, chunk):
        self.handle.write(chunk[:len(chunk) // 2])
        raise OSError(28, "No space left on device")


class TestAtomicWrites:
    """A write that fails partway leaves the previous file byte-identical."""

    @pytest.mark.parametrize("target", [
        "model.ckpt", "metrics.jsonl", "sample_00001.drxf", "manifest.json",
    ])
    def test_failed_write_keeps_previous_file(self, dataset_dir, tmp_path, monkeypatch,
                                              target):
        bundles = load_dataset(dataset_dir)
        config = DraxConfig(d=8, heads=2, layers=1, appearance_dim=12, motion_dim=16,
                            text_dim=10, max_positions=14)

        def write(version):
            if target == "model.ckpt":
                save_checkpoint(DraxModel(dataclasses.replace(config, seed=version)),
                                tmp_path / target)
            elif target == "metrics.jsonl":
                _write_jsonl(tmp_path / target, [{"epoch": 1, "loss": 0.5 + version}])
            else:
                save_dataset(bundles[version:] + bundles[:version], tmp_path)

        write(0)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        real_open = open

        def failing_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return _HalfWrite(handle) if target in Path(path).name else handle

        monkeypatch.setattr(drax.data, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            write(1)
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert after.keys() == before.keys()  # no temporary file left behind
        assert after[target] == before[target]
        monkeypatch.undo()
        write(1)
        assert (tmp_path / target).read_bytes() != before[target]


class TestInspectAttention:
    def test_trace_schema_and_densities(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main([
            "train", "--data", str(dataset_dir), "--out", str(run),
            "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
        ])
        capsys.readouterr()
        trace_dir = tmp_path / "trace"
        assert main([
            "inspect-attention", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(dataset_dir), "--out", str(trace_dir),
        ]) == 0
        records = [json.loads(l) for l in (trace_dir / "trace.jsonl").read_text().splitlines()]
        masks = [r for r in records if r["record"] == "mask"]
        densities = [r for r in records if r["record"] == "density"]
        # 1 layer: 2 cross sites and 1 fusion site for stage 1, stage 2 and
        # each of the 4 candidates = 18 sites, 2 heads each. Every candidate
        # lists all of its sites before the next candidate's.
        sites = [
            f"{prefix}/{site}"
            for prefix in ["stage1", "stage2"] + [f"stage3/cand{c}" for c in range(4)]
            for site in ("layer1/into1", "layer1/into2", "fusion")
        ]
        assert [(r["record"], r["site"], r.get("head")) for r in records] == [
            line for site in sites
            for line in [("mask", site, 0), ("mask", site, 1), ("density", site, None)]
        ]
        assert len(densities) == 18
        assert len(masks) == 36
        for record in masks:
            weights = np.array(record["pre_weights"])
            mask = np.array(record["mask"], dtype=bool)
            post = np.array(record["post_weights"])
            tau = np.array(record["tau"])
            rho = np.array(record["rho"])
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
            np.testing.assert_allclose(rho, weights.max(axis=-1), atol=0)
            np.testing.assert_allclose(tau, rho * record["d_f"], atol=0)
            np.testing.assert_array_equal(mask, weights < tau[:, None])
            np.testing.assert_array_equal(post, weights * ~mask)
        by_site = {r["site"]: r["density"] for r in densities}
        mask_mean = {}
        for record in masks:
            mask_mean.setdefault(record["site"], []).append(np.mean(record["mask"]))
        for site, density in by_site.items():
            assert density == pytest.approx(np.mean(mask_mean[site]))

    def test_zero_factor_trace_has_zero_density(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main([
            "train", "--data", str(dataset_dir), "--out", str(run),
            "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
            "--set", "d_f_initial=0", "--set", "delta=0", "--set", "d_f_fusion=0",
        ])
        capsys.readouterr()
        trace_dir = tmp_path / "trace"
        assert main([
            "inspect-attention", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(dataset_dir), "--out", str(trace_dir),
        ]) == 0
        records = [json.loads(l) for l in (trace_dir / "trace.jsonl").read_text().splitlines()]
        for record in records:
            if record["record"] == "density":
                assert record["density"] == 0.0

    def test_accepts_single_feature_file(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main([
            "train", "--data", str(dataset_dir), "--out", str(run),
            "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
        ])
        capsys.readouterr()
        trace_dir = tmp_path / "trace"
        assert main([
            "inspect-attention", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(dataset_dir / "sample_00001.drxf"), "--out", str(trace_dir),
        ]) == 0
        assert (trace_dir / "trace.jsonl").exists()

    def test_dataset_directory_reads_only_the_first_file(self, checkpoint, dataset_dir,
                                                         tmp_path, monkeypatch, capsys):
        read = []
        real = drax.data.read_features

        def counted(path):
            read.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(drax.data, "read_features", counted)
        monkeypatch.setattr(drax.cli, "read_features", counted)
        assert len(json.loads((dataset_dir / "manifest.json").read_text())["samples"]) == 4
        assert main([
            "inspect-attention", "--checkpoint", str(checkpoint),
            "--data", str(dataset_dir), "--out", str(tmp_path / "dir"),
        ]) == 0
        assert read == ["sample_00000.drxf"]
        monkeypatch.undo()
        assert main([
            "inspect-attention", "--checkpoint", str(checkpoint),
            "--data", str(dataset_dir / "sample_00000.drxf"), "--out", str(tmp_path / "file"),
        ]) == 0
        traced = (tmp_path / "dir" / "trace.jsonl").read_bytes()
        assert traced == (tmp_path / "file" / "trace.jsonl").read_bytes()

    def test_missing_feature_file_is_exit_3(self, checkpoint, tmp_path, capsys):
        assert main([
            "inspect-attention", "--checkpoint", str(checkpoint),
            "--data", str(tmp_path / "absent.drxf"), "--out", str(tmp_path / "trace"),
        ]) == 3
        assert capsys.readouterr().err.startswith("data error: cannot read feature file")

    def test_first_entry_label_checked_against_manifest(self, checkpoint, dataset_dir,
                                                        tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        first = manifest["samples"][0]
        first["label"] = (first["label"] + 1) % 4
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main([
            "inspect-attention", "--checkpoint", str(checkpoint),
            "--data", str(data), "--out", str(tmp_path / "trace"),
        ]) == 3
        assert "label mismatch" in capsys.readouterr().err


class TestAblate:
    def test_emits_exactly_the_seven_variants(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "abl"
        code = main([
            "ablate", "--data", str(dataset_dir), "--out", str(out),
            "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
        ])
        assert code == 0
        records = [json.loads(l) for l in (out / "ablation.jsonl").read_text().splitlines()]
        assert [r["variant"] for r in records] == [name for name, _ in ABLATION_VARIANTS]
        assert len(records) == 7
        for record in records:
            assert set(record) == {"variant", "epochs_run", "train_loss", "train_accuracy"}
            assert 0.0 <= record["train_accuracy"] <= 1.0

    def test_variant_overrides_are_valid_configs(self):
        import dataclasses
        base = DraxConfig()
        names = set()
        for name, overrides in ABLATION_VARIANTS:
            names.add(name)
            dataclasses.replace(base, **overrides).validate()
        assert len(names) == 7


def _load_tool(name):
    """A script under `tools/` loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenScript:
    def test_names_the_file_whose_hash_differs(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        golden = json.loads((root / "GOLDEN.json").read_text())
        assert sorted(golden) == sorted([
            "run/metrics.jsonl", "run/model.ckpt", "eval/eval.jsonl", "trace/trace.jsonl",
            "mixed/trace.jsonl", "abl/ablation.jsonl", "default/manifest.json",
            *(f"default/sample_{i:05d}.drxf" for i in range(8)),
            *(f"grid/{name}" for name in ("tiny", "deep", "capped", "above-one", "off",
                                          "anchors", "default")),
        ])
        golden["run/model.ckpt"] = "0" * 64
        golden["grid/anchors"] = "0" * 64
        expect = tmp_path / "GOLDEN.json"
        expect.write_text(json.dumps(golden))
        done = subprocess.run(
            [sys.executable, str(root / "tools" / "golden.py"), "--expect", str(expect)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        # Stored hashes are one host's; on another host more files may differ,
        # but exactly the files whose printed hash differs are named.
        printed = dict(line.split()[::-1] for line in done.stdout.splitlines())
        named = [line.split(": ")[1] for line in done.stderr.splitlines()
                 if line.startswith("hash differs: ")]
        assert "run/model.ckpt" in named and "grid/anchors" in named
        assert named == sorted(name for name in golden if printed[name] != golden[name])

    def test_grid_hash_repeats(self):
        """One config's grid hash is the same twice, and differs from another's."""
        golden = _load_tool("golden")
        first = golden.grid_hash("tiny")
        assert len(first) == 64
        assert golden.grid_hash("tiny") == first
        assert golden.grid_hash("off") != first


class TestBlasThreadCount:
    def test_train_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        """`train` at one and two BLAS threads writes the same bytes.
        OpenBLAS splits a dot product over threads above 10,000 entries, and
        `motion_dim=2048` gives the tiny model a 16,384-entry
        `embed.motion.w`, so the gradient norm crosses that cut. With golden's
        four samples the last-bit differences happen not to reach an update;
        with eight they do."""
        shapes = ["--set", "appearance_dim=12", "--set", "motion_dim=2048",
                  "--set", "text_dim=10"]
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--seed", "5", "--set", "samples=8",
                     "--set", "frames=8", "--set", "clips=3", "--set", "question_len=3",
                     "--set", "answer_len=2", "--set", "signal_dims=4",
                     "--set", "distractor_tokens=2", *shapes]) == 0
        src = str(Path(drax.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, "-m", "drax.cli", "train", "--data", str(data),
                 "--out", str(out), "--seed", "0", "--set", "d=8", "--set", "heads=2",
                 "--set", "layers=1", *shapes, "--set", "max_positions=14",
                 "--set", "learning_rate=0.01", "--set", "epochs=3"],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append([(out / name).read_bytes() for name in ("model.ckpt", "metrics.jsonl")])
        assert outputs[0] == outputs[1]


class TestPairsScript:
    """`tools/pairs.py` summarised on canned results, without running the benchmark."""

    @staticmethod
    def _run(**values):
        return {"failed": 0, "attempted": 10,
                "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}

    def test_summary_counts_wins_by_direction(self):
        pairs = _load_tool("pairs")
        end_to_end = [{"name": "cost", "unit": "ratio", "better": "lower"},
                      {"name": "rate", "unit": "1/s", "better": "higher"}]
        runs = [((1.0, 5.0), (0.9, 5.0)), ((1.2, 4.0), (1.2, 4.5)),
                ((1.1, 6.0), (1.3, 5.5)), ((1.0, 5.0), (0.8, 6.0))]
        canned = [(self._run(cost=p[0], rate=p[1]), self._run(cost=c[0], rate=c[1]))
                  for p, c in runs]
        cost, rate = pairs.compare(end_to_end, canned)
        assert (cost["wins"], cost["ties"], cost["pairs"]) == (2, 1, 4)
        assert (rate["wins"], rate["ties"]) == (2, 1)
        assert cost["parent"] == pytest.approx((1.0, 1.05, 1.125))
        assert cost["change"] == pytest.approx((0.875, 1.05, 1.225))
        line = pairs.format_rows([cost])[0]
        assert line.startswith("cost (ratio, lower is better): parent median 1.05 ")
        assert line.endswith("change won 2 of 4 pairs (1 tied)")
        assert pairs.parse_run(0, "# env\n" + json.dumps(canned[0][0]), "p") == canned[0][0]

    @pytest.mark.parametrize("parent, change, expect", [
        # Won 9 of 10, and the median gap 0.07 exceeds the parent's quartile
        # distance 0.04.
        ([1.0, 1.04] * 5, [0.95] * 9 + [1.2], "gain (change won 9 of 10 pairs; median gap"),
        # Won 8 of 10: no gain, and no rise beyond the 25% bound.
        ([1.0, 1.04] * 5, [0.95] * 8 + [1.2] * 2, "within bound (change won 8 of 10 pairs; "
                                                  "change median -6.9% against the parent's"),
        ([1.0] * 10, [1.3] * 10, "regression (change median worse by 0.3, 30.0% of"),
        ([1.0, 1.6] * 5, [1.0] * 10, "unresolved (parent quartile distance 0.6, 46.2% of"),
        # As wide a parent spread, but every change run beats every parent run.
        ([1.0, 1.6] * 5, [0.9] * 8 + [0.95] * 2, "within bound (change won 10 of 10"),
    ], ids=["gain", "within-bound", "regression", "unresolved", "separated"])
    def test_verdict_per_metric(self, parent, change, expect):
        pairs = _load_tool("pairs")
        metric = {"name": "cost", "unit": "ratio", "better": "lower", "bound": 0.25}
        canned = [(self._run(cost=p), self._run(cost=c)) for p, c in zip(parent, change)]
        (row,) = pairs.compare([metric], canned)
        assert pairs.verdict(row).startswith(f"cost: {expect}")
        # The same runs with the direction flipped and values negated agree.
        flipped = dict(metric, better="higher")
        negated = [(self._run(cost=-p), self._run(cost=-c)) for p, c in zip(parent, change)]
        (row,) = pairs.compare([flipped], negated)
        assert pairs.verdict(row).split(" (")[0] == f"cost: {expect}".split(" (")[0]

    def test_process_moded_side_is_flagged(self):
        """A side whose values split into two clusters farther apart than the
        bound times its median gets one `process-moded` line; a unimodal side
        gets none, and the verdict reads the same without the flag."""
        pairs = _load_tool("pairs")
        metric = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        parent = [0.050, 0.052, 0.051, 0.080, 0.082, 0.049, 0.081, 0.050, 0.083, 0.052]
        change = [0.053, 0.054, 0.052, 0.055, 0.053, 0.056, 0.054, 0.052, 0.055, 0.053]
        (row,) = pairs.compare([metric], [(self._run(setup_s=p), self._run(setup_s=c))
                                          for p, c in zip(parent, change)])
        assert row["modes"] == {"parent": pytest.approx(0.028)}
        assert pairs.mode_lines(row) == [
            "process-moded setup_s: parent values split into two clusters 0.028 apart, "
            "53.8% of its median > bound 25%"]
        assert pairs.verdict(row) == pairs.verdict(dict(row, modes={}))

    def test_ratio_interval(self):
        pairs = _load_tool("pairs")
        # Every pair's ratio is 0.5, so every resample's median is too.
        assert pairs.ratio_interval([1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0]) == (0.5, 0.5, 0.5)
        rng = np.random.default_rng(3)
        parent = rng.uniform(1.0, 2.0, size=10)
        change = parent * rng.uniform(0.8, 1.2, size=10)
        median, low, high = pairs.ratio_interval(parent, change)
        assert median == np.median(change / parent)
        assert low <= median <= high and low < high
        assert pairs.ratio_interval(parent, change) == (median, low, high)
        (row,) = pairs.compare([{"name": "cost", "unit": "u", "better": "lower"}],
                               [(self._run(cost=p), self._run(cost=c))
                                for p, c in zip(parent, change)])
        assert row["ratio"] == (median, low, high)

    @pytest.mark.parametrize("code, stdout, message", [
        (1, '{"failed": 0, "metrics": {}}\n', "exited with code 1"),
        (0, "# no summary\n", "no JSON summary"),
        (0, "", "no JSON summary"),
        (0, '{"failed": 2, "attempted": 9, "metrics": {}}\n', "2 of 9 ops failed"),
    ], ids=["exit-code", "no-json", "no-output", "failed-ops"])
    def test_bad_run_names_pair_and_side(self, code, stdout, message):
        pairs = _load_tool("pairs")
        with pytest.raises(pairs.RunError, match=f"^pair 3 change: .*{message}"):
            pairs.parse_run(code, stdout, "pair 3 change")

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_pairs_below_one_is_usage_error(self, count, tmp_path, capsys):
        pairs = _load_tool("pairs")
        with pytest.raises(SystemExit) as exc:
            pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", count])
        assert exc.value.code == 2
        assert "--pairs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workload", ["all", "nope"])
    def test_unknown_workload_is_usage_error(self, workload, tmp_path, capsys, monkeypatch):
        """A name `bench/run.py` accepts but the benchmark does not declare
        (`all` prints a table, not a JSON summary) fails before any run."""
        pairs = _load_tool("pairs")
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"workloads": [{"name": "w"}], "run_seconds": 1, "end_to_end": []}))

        def refuse(*args):
            raise AssertionError("a benchmark run started")

        monkeypatch.setattr(pairs, "run_once", refuse)
        with pytest.raises(SystemExit) as exc:
            pairs.main([str(tmp_path), str(tmp_path), "--workload", workload])
        assert exc.value.code == 2
        assert f"--workload must be one of w, got {workload!r}" in capsys.readouterr().err


class TestReadmeKeys:
    """The README's key lists follow the dataclasses, so a key added without
    docs, or a default changed without them, fails here."""

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_config_table_matches_draxconfig(self):
        block = self.readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        rows = [line.split("|")[1:3] for line in block.split("\n\n", 1)[0].splitlines()]
        documented = [(key.strip().strip("`"), text.strip().strip("`")) for key, text in rows]
        assert [key for key, _ in documented] == [f.name for f in dataclasses.fields(DraxConfig)]
        for field, (_, text) in zip(dataclasses.fields(DraxConfig), documented):
            if isinstance(field.default, bool):
                assert text == str(field.default).lower(), field.name
            elif isinstance(field.default, (int, float)):
                assert float(text) == field.default, field.name
            else:
                assert text == field.default, field.name

    def test_generator_sentence_matches_syntheticspec(self):
        sentence = self.readme.split("Generator keys for `gen-data` (`SyntheticSpec`):", 1)[1]
        keys = re.findall(r"`(\w+)`", sentence.split(".", 1)[0])
        assert keys == [f.name for f in dataclasses.fields(SyntheticSpec)]
