"""Inputs shared by the CLI tests, and `refused`, which runs rows of the
table of refused inputs on them."""

import pytest

from drax.cli import main
from drax.data import SyntheticSpec, generate_synthetic, save_dataset
from helpers import TINY_MODEL_SETS
import refusals


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
def checkpoint(dataset_dir, tmp_path_factory):
    """A one-epoch tiny checkpoint trained on `dataset_dir`."""
    run = tmp_path_factory.mktemp("cli-run")
    assert main([
        "train", "--data", str(dataset_dir), "--out", str(run),
        "--seed", "0", *TINY_MODEL_SETS, "--set", "epochs=1",
    ]) == 0
    return run / "model.ckpt"


@pytest.fixture
def refused(capsys, monkeypatch, tmp_path, dataset_dir, checkpoint):
    """Run rows of `refusals.ROWS`, by id, each in a directory of its own
    (`refusals.check`)."""
    def run(*ids):
        for row_id in ids:
            refusals.check(refusals.BY_ID[row_id], capsys, monkeypatch, tmp_path / row_id,
                           dataset_dir, checkpoint)
    return run
