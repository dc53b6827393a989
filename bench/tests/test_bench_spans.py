"""Span arithmetic and patch hygiene of the traced run."""

import argparse
import time

import pytest

import drax
import run
import spans
from workloads import GradcheckTiny


def test_self_time_of_hand_built_tree():
    tree = [
        (0, -1, 0, "bench.op", 0, 100),
        (1, 0, 0, "tensor.matmul", 10, 40),
        (2, 1, 0, "tensor.add", 15, 25),
        (3, 0, 0, "model.stage1", 50, 90),
        (4, 3, 0, "tensor.add", 60, 70),
        (5, 3, 0, "tensor.mul", 65, 80),  # overlaps its sibling: covered once
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 30, 1: 20, 2: 10, 3: 20, 4: 10, 5: 15}
    totals = spans.per_op_totals(tree, {(0, "tensor.ops"): 3.0, (1, "tensor.ops"): 9.0}, [0])
    assert totals["tensor.add.calls"] == 2
    assert totals["tensor.add.ns"] == 20
    assert totals["tensor.self_ns"] == 20 + 10 + 10 + 15
    assert totals["model.stage1.self_ns"] == 20
    assert totals["bench.self_ns"] == 30
    assert totals["tensor.ops"] == 3.0


def test_self_times_add_up_to_the_root_of_each_op():
    tree = [
        (0, -1, 0, "bench.op", 0, 50),
        (1, 0, 0, "tensor.add", 5, 20),
        (2, -1, 1, "bench.op", 60, 90),
        (3, 2, 1, "tensor.mul", 61, 62),
    ]
    spans.check_self_time_sums(tree, [0, 1])
    broken = tree + [(4, 1, 0, "tensor.mul", 15, 30)]  # ends after its parent
    with pytest.raises(RuntimeError):
        spans.check_self_time_sums(broken, [0, 1])


def _patched_names(table=None):
    names = [(drax.tensor, "_from_op")]
    names += [(owner, attr) for owner, attr, *_ in (table or spans.patch_table(drax))]
    return {(owner, attr): vars(owner)[attr] for owner, attr in names}


def test_traced_run_restores_every_patched_name(tmp_path, monkeypatch):
    before = _patched_names()
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = argparse.Namespace(workload="gradcheck-tiny", seed=0, seconds=0.2, trace=1)
    result = run.run_traced(GradcheckTiny, args, tmp_path, time.perf_counter() + 60)
    assert _patched_names() == before
    metrics = result["metrics"]
    assert result["failed"] == 0
    assert metrics["tensor.ops"][0] > 0
    # Two forwards of four candidates per op, plus the forward that op 0
    # runs for the shared backward.
    assert metrics["model.stage3.calls"][0] * result["ops"] == 8 * result["ops"] + 4
    modules = sum(metrics[f"{m}.self_ms"][0] for m in run.MODULES)
    assert abs(modules - metrics["trace.op_ms"][0]) <= 1e-9 * metrics["trace.op_ms"][0]


def test_failed_install_restores_what_it_patched(monkeypatch):
    table = spans.patch_table(drax)
    before = _patched_names(table)
    monkeypatch.setattr(spans, "patch_table", lambda _: table + [(drax.train, "missing", "x",
                                                                 None)])
    recorder = spans.Recorder()
    with pytest.raises(KeyError):
        recorder.install(drax)
    assert _patched_names(table) == before
