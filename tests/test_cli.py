"""End-to-end checks for the command-line entry points."""

import json
import shutil
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from drax.checkpoint import load_model, read_checkpoint, save_checkpoint
from drax.cli import ABLATION_VARIANTS, build_parser, main, parse_config_file
from drax.data import SyntheticSpec, generate_synthetic, read_features, save_dataset, write_features
from drax.model import DraxConfig


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

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("d 16\n")
        from drax.model import ConfigError
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_unknown_key_is_exit_2(self, dataset_dir, tmp_path, capsys):
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
            "--set", "bogus=1",
        ])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_is_exit_2(self, dataset_dir, tmp_path):
        code = main([
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
            "--config", str(tmp_path / "absent.cfg"),
        ])
        assert code == 2

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
        from drax.cli import build_config
        config = build_config(args)
        assert config.d == 8 and config.heads == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "train", "--set", "seed=3", "--seed", "11", "--data", "x", "--out", "y",
        ])
        from drax.cli import build_config
        assert build_config(args).seed == 11


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
        code = main(["gen-data", "--out", str(tmp_path / "g"), "--set", "samples=0"])
        assert code == 2

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
        [("d=16", 4), ("d_f_fusion=2", 2), ("bogus=1", 2)],
        ids=["shape-mismatch", "invalid-value", "unknown-key"],
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
         ("masking_enabled", "no")],
        ids=["out-of-range", "str-int", "float-int", "null", "str-bool"],
    )
    def test_invalid_stored_config_is_exit_4(self, checkpoint, dataset_dir, tmp_path, capsys,
                                             key, value, extra):
        raw = checkpoint.read_bytes()
        (length,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4:4 + length])
        header["config"][key] = value
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + length:])
        assert main([
            "eval", "--checkpoint", str(bad), "--data", str(dataset_dir),
            "--out", str(tmp_path / "out"), *extra,
        ]) == 4
        assert "checkpoint config invalid" in capsys.readouterr().err


class TestNonFiniteFeatures:
    def test_nan_feature_file_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        good = read_features(data / "sample_00000.drxf")
        # write_features only reads the bundle's fields, so a plain namespace
        # yields a well-formed file (valid CRC) whose payload holds NaNs.
        poisoned = SimpleNamespace(**{
            name: getattr(good, name)
            for name in ("appearance", "motion", "question", "answers", "label")
        })
        poisoned.appearance = np.full_like(good.appearance, np.nan)
        write_features(poisoned, data / "sample_00000.drxf")
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_nan_label_is_exit_3(self, checkpoint, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        good = read_features(data / "sample_00000.drxf")
        poisoned = SimpleNamespace(**vars(good))
        poisoned.label = np.nan
        write_features(poisoned, data / "sample_00000.drxf")
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert "label" in err and "Traceback" not in err


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
