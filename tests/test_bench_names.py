"""The traced benchmark run (`bench/run.py --trace 1`) replaces library
functions by name and fails with a KeyError when one of those names is
gone; this checks every name it patches without running it."""

import importlib.util
from pathlib import Path

import drax


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_defined_on_its_owner():
    names = [(drax.tensor, "_from_op")]
    names += [(owner, attr) for owner, attr, _, _ in _load_spans().patch_table(drax)]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in names if attr not in vars(owner)]
    assert missing == []
