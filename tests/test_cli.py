"""End-to-end checks for the command-line entry points."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drax
import drax.cli
import drax.data
from drax.checkpoint import read_checkpoint, save_checkpoint
from drax.cli import (
    ABLATION_VARIANTS,
    _write_jsonl,
    build_parser,
    main,
    parse_config_file,
    settings,
)
from drax.data import SyntheticSpec, load_dataset, save_dataset
from drax.model import DraxConfig, DraxModel
from helpers import TINY_MODEL_SETS, assert_each_row_named_once
from refusals import ROWS


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

    def test_gen_data_makes_out_before_generating(self, tmp_path, monkeypatch, capsys):
        """An `--out` that cannot be a directory exits 2 before any sample is made."""
        monkeypatch.setattr("drax.cli.generate_synthetic", lambda spec: 1 / 0)
        (tmp_path / "blocker").write_text("kept")
        assert main(["gen-data", "--out", str(tmp_path / "blocker")]) == 2
        assert "cannot make --out" in capsys.readouterr().err

    def test_malformed_line_rejected(self, refused):
        refused("config-file-no-equals", "set-no-equals")

    def test_empty_key_rejected(self, refused):
        refused("config-file-empty-key", "set-empty-key")

    @pytest.mark.parametrize("row", [
        "set-before-inputs-train", "set-before-inputs-ablate", "set-before-inputs-gen-data",
        "set-before-inputs-eval", "set-before-inputs-inspect-attention",
    ], ids=lambda row: row.removeprefix("set-before-inputs-"))
    def test_every_command_types_set_items(self, refused, row):
        refused(row)

    def test_unknown_key_is_exit_2(self, refused):
        refused("train-set-bogus=1", "train-set-learning_rate=nan", "train-set-learning_rate=inf",
                "train-set-layer_norm_eps=nan", "train-set-delta=nan", "train-set-grad_clip=nan",
                "train-set-seed=-3", "train-set-no_equals_sign", "train-set-layer_norm_eps=0",
                "train-set-grad_clip=-1")

    def test_non_utf8_config_file_is_exit_2(self, refused):
        refused("config-file-non-utf8")

    @pytest.mark.parametrize("row", [
        "seed-flag-negative-gen-data", "seed-flag-negative-train", "seed-flag-negative-ablate",
    ], ids=lambda row: row.removeprefix("seed-flag-negative-"))
    def test_negative_seed_flag_is_exit_2(self, refused, row):
        refused(row)

    @pytest.mark.parametrize("row", ["usage-seed-eval", "usage-seed-inspect-attention"],
                             ids=lambda row: row.removeprefix("usage-seed-"))
    def test_seed_is_a_usage_error_with_a_checkpoint(self, refused, row):
        refused(row)

    def test_missing_config_file_is_exit_2(self, refused):
        refused("missing-config-file")

    def test_missing_dataset_is_exit_3(self, refused):
        refused("missing-dataset")

    def test_missing_checkpoint_is_exit_4(self, refused):
        refused("missing-checkpoint")

    @pytest.mark.parametrize("rows", [
        ("out-file-train", "out-under-file-train"),
        ("out-file-ablate", "out-under-file-ablate"),
        ("out-file-gen-data", "out-under-file-gen-data"),
        ("out-file-eval", "out-under-file-eval"),
        ("out-file-inspect-attention", "out-under-file-inspect-attention"),
    ], ids=lambda rows: rows[0].removeprefix("out-file-"))
    def test_out_that_cannot_be_a_directory_is_exit_2(self, refused, rows):
        refused(*rows)

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

    def test_unknown_generator_key_is_exit_2(self, refused):
        refused("gen-data-set-wat=3")

    def test_invalid_spec_is_exit_2(self, refused):
        refused("gen-data-set-samples=0", "gen-data-set-noise_sigma=nan",
                "gen-data-set-noise_sigma=inf", "gen-data-set-seed=-1")

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

    def test_eval_stdout_mode(self, checkpoint, dataset_dir, capsys):
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset_dir)]) == 0
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

    @pytest.mark.parametrize("row", [
        "override-shape-mismatch-eval", "override-invalid-value-eval", "override-unknown-key-eval",
        "override-nan-value-eval", "override-inf-value-eval", "override-negative-seed-eval",
        "override-shape-mismatch-inspect-attention", "override-invalid-value-inspect-attention",
        "override-unknown-key-inspect-attention", "override-nan-value-inspect-attention",
        "override-inf-value-inspect-attention", "override-negative-seed-inspect-attention",
    ], ids=lambda row: row.removeprefix("override-"))
    def test_bad_override_exit_code(self, refused, row):
        refused(row)

    @pytest.mark.parametrize("row", [
        "ckpt-stored-config-out-of-range-plain", "ckpt-stored-config-out-of-range-with-set",
        "ckpt-stored-config-str-int-plain", "ckpt-stored-config-str-int-with-set",
        "ckpt-stored-config-float-int-plain", "ckpt-stored-config-float-int-with-set",
        "ckpt-stored-config-null-plain", "ckpt-stored-config-null-with-set",
        "ckpt-stored-config-str-bool-plain", "ckpt-stored-config-str-bool-with-set",
        "ckpt-stored-config-nan-plain", "ckpt-stored-config-nan-with-set",
        "ckpt-stored-config-inf-plain", "ckpt-stored-config-inf-with-set",
        "ckpt-stored-config-negative-seed-plain", "ckpt-stored-config-negative-seed-with-set",
    ], ids=lambda row: row.removeprefix("ckpt-stored-config-"))
    def test_invalid_stored_config_is_exit_4(self, refused, row):
        refused(row)

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
    def test_trace_schema_and_densities(self, checkpoint, dataset_dir, tmp_path):
        trace_dir = tmp_path / "trace"
        assert main([
            "inspect-attention", "--checkpoint", str(checkpoint),
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

    def test_accepts_single_feature_file(self, checkpoint, dataset_dir, tmp_path):
        trace_dir = tmp_path / "trace"
        assert main([
            "inspect-attention", "--checkpoint", str(checkpoint),
            "--data", str(dataset_dir / "sample_00001.drxf"), "--out", str(trace_dir),
        ]) == 0
        assert (trace_dir / "trace.jsonl").exists()

    def test_dataset_directory_reads_only_the_first_file(self, checkpoint, dataset_dir,
                                                         tmp_path, monkeypatch, capsys):
        read = []
        real = drax.data.read_features

        def counted(path, check=None):
            read.append(Path(path).name)
            return real(path, check)

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

    def test_missing_feature_file_is_exit_3(self, refused):
        refused("missing-feature-file")

    def test_first_entry_label_checked_against_manifest(self, refused):
        refused("manifest-label-mismatch-inspect-attention")

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


class TestRefusedInputs:
    @pytest.mark.parametrize("row", [
        pytest.param("usage-no-data", id="no-data"),
        pytest.param("feature-f8", id="f8-feature"),
        pytest.param("feature-u1", id="u1-feature"),
        "feature-1-d-question", "feature-fourth-file-flipped-byte",
        "feature-appearance-width-eval", "feature-motion-width-inspect-attention",
        "feature-question-width-train", "feature-answer2-width-ablate",
    ], ids=lambda row: row.removeprefix("feature-"))
    def test_refused(self, refused, row):
        refused(row)


class TestNulBytePaths:
    @pytest.mark.parametrize("row", [
        pytest.param("nul-manifest-entry-eval",
                     id="manifest-3-data error: cannot read feature file ds/a\\x00b.drxf"),
        pytest.param("nul-checkpoint",
                     id="--checkpoint-4-checkpoint error: cannot read checkpoint a\\x00b.ckpt"),
        pytest.param("nul-config",
                     id="--config-2-config error: cannot read config file a\\x00b.cfg"),
        pytest.param("nul-out", id="--out-2-config error: cannot make output directory a\\x00b"),
    ])
    def test_exits_with_one_printable_line(self, refused, row):
        refused(row)


class TestMalformedManifest:
    def test_nul_byte_in_path_exits_3(self, refused):
        refused("nul-manifest-entry-train")

    @pytest.mark.parametrize("row", [
        "manifest-no-path", "manifest-list", "manifest-non-string-path", "manifest-string-label",
        "manifest-bool-label",
    ], ids=lambda row: row.removeprefix("manifest-"))
    def test_train_exits_3(self, refused, row):
        refused(row)

    def test_empty_samples_list_exits_3(self, refused):
        refused("manifest-empty-samples")

    def test_non_utf8_manifest_exits_3(self, refused):
        refused("manifest-non-utf8")


class TestNonFiniteFeatures:
    def test_nan_feature_file_is_exit_3(self, refused):
        refused("feature-nan")

    def test_nan_label_is_exit_3(self, refused):
        refused("feature-nan-label")


class TestMalformedFeatureFile:
    def test_non_utf8_tensor_name_is_exit_3(self, refused):
        refused("feature-name-non-utf8")

    def test_repeated_tensor_name_is_exit_3(self, refused):
        refused("feature-name-repeated")

    def test_unknown_dtype_code_is_exit_3(self, refused):
        refused("feature-dtype-code-7")

    def test_trailing_bytes_are_exit_3(self, refused):
        refused("feature-trailing-bytes")


class TestMalformedCheckpointHeader:
    @pytest.mark.parametrize("row", [
        pytest.param("ckpt-config-number", id="number"),
        pytest.param("ckpt-config-list", id="config-list"),
        pytest.param("ckpt-config-f8", id="params-number"),
        pytest.param("ckpt-param-f4", id="entry-list"),
        pytest.param("ckpt-param-scalar", id="no-shape"),
        pytest.param("ckpt-config-extent-past-eof", id="negative-dim"),
        pytest.param("ckpt-name-non-utf8", id="non-string-name"),
    ])
    def test_eval_exits_4(self, refused, row):
        refused(row)

    @pytest.mark.parametrize("row", [
        pytest.param("ckpt-three-bytes", id="three-bytes"),
        pytest.param("ckpt-count-past-eof", id="length-past-eof"),
        pytest.param("ckpt-config-non-utf8", id="non-utf8"),
        pytest.param("ckpt-config-truncated-json", id="truncated-json"),
    ])
    def test_unreadable_header_exits_4(self, refused, row):
        refused(row)


class TestCheckpointContainer:
    def test_flipped_payload_bit_exits_4(self, refused):
        refused("ckpt-flipped-payload-bit")

    def test_unknown_dtype_code_exits_4(self, refused):
        refused("ckpt-dtype-code-7")

    def test_parameter_record_not_float64_exits_4(self, refused):
        refused("ckpt-param-u1")

    def test_missing_config_record_exits_4(self, refused):
        refused("ckpt-config-missing")

    def test_old_format_checkpoint_exits_4(self, refused):
        refused("ckpt-old-format")


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("row", [
        pytest.param("ckpt-param-nan-decoder.b_out-first", id="decoder.b_out-nan"),
        pytest.param("ckpt-param-inf-decoder.w_a-first", id="decoder.w_a-inf"),
    ])
    def test_non_finite_parameter_is_exit_4(self, refused, row):
        refused(row)


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

    def test_refused_input_kinds_match_the_table(self):
        """Each kind of refused input is documented with exactly the exit
        codes of its rows in `tests/refusals.py`."""
        block = self.readme.split("| kind | exit codes | refused |\n| --- | --- | --- |\n", 1)[1]
        rows = [line.split("|")[1:3] for line in block.split("\n\n", 1)[0].splitlines()]
        documented = {(kind.strip(), int(code)) for kind, codes in rows
                      for code in codes.split(",")}
        assert documented == {(row.kind, row.code) for row in ROWS}



def test_every_refused_input_row_is_placed():
    """Each row of `refusals.ROWS` runs: exactly one test names its id."""
    assert_each_row_named_once(ROWS)

class TestChangelog:
    def test_entries_fit_in_100_columns(self):
        """CHANGES.md lines from the first `## PR ` on fit in 100 columns (tables, URLs exempt)."""
        text = (Path(__file__).resolve().parents[1] / "CHANGES.md").read_text(encoding="utf-8")
        sections = text[text.index("\n## PR "):].splitlines()
        assert [line for line in sections if len(line) > 100 and not line.startswith("|")
                and "://" not in line] == []
