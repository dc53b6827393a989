"""Benchmark of drax: three workloads, end-to-end metrics, and a traced
per-layer breakdown.

Run from the repository root:

    python3 bench/run.py                       # every workload, printed as a table
    python3 bench/run.py --workload train-default --seed 3 --seconds 30 --trace 0

One process drives one workload with a single closed-loop client: the next
op starts when the previous one returns. BLAS is pinned to one thread.

With `--trace 0` the run is seven rounds, each of which sets the workload up
afresh and then runs ops for a seventh of the time, so that the set-ups
sample the host's speed across the whole run. It reports the end-to-end
metrics: median set-up time over the rounds, the op's relative cost (p50,
p95 and mean) and peak RSS. It also prints, bound by nothing, ops per
second, op latency p50 and p95 in ms, and the error rate.

An op's relative cost is its wall time over the mean time of the two
calibration-kernel runs that bracket it (see calibration.py): the kernel is
timed before every op and once after the last. On a host whose cores slow
by up to 1.8x for seconds at a time, because other machines share them,
that ratio moves with the library and hardly with the host: over ten 30-s
runs per workload on a 2-vCPU VM, the median op wall time spread by 13-19%
(quartile distance over median) and the median relative cost by 0.8-2.2%.

With `--trace 1` the run measures untraced ops for half the time, then
traces ops for the other half with the library's public functions wrapped
(see spans.py), and reports per-op calls, inclusive and self times per
layer. Every op's output is checked in both modes (see workloads.py); a
failed check or an exception counts as a failed op.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with the
environment, is written under `bench/out/`, and so are the spans of a traced
run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("train-default", "eval-default", "gradcheck-tiny")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROUNDS = 7  # set-ups per untraced run, each followed by its share of the ops
WARMUP_OPS = 3  # per round
MIN_OPS = 200  # over all rounds, so that at least ten ops lie beyond p95
TRACED_OP_CAP = 40  # bounds the spans held in memory
HARD_LIMIT_S = 150.0  # the whole run stops measuring after this, to exit well within 180 s

# Metrics of the traced run, in the order BENCHMARK.json lists them.
SPAN_MS = (
    "tensor.backward", "model.stage1", "model.stage2", "model.stage3",
    "train.sgd_step", "train.zero_grad", "train.train_epoch", "train.evaluate",
    "data.read_features",
)
SPAN_SELF_MS = (
    "model.embed_tokens", "model.answer_decoder", "model.hinge_loss",
    "attention.self_attention_encoder", "attention.cross_encoder_layer",
    "attention.scaled_scores", "attention.attended_values", "distraction.mask",
    "fusion.vector_space_transform", "fusion.cross_aligned_fuse",
)
SPAN_CALLS = (
    "tensor.matmul", "tensor.layer_norm", "tensor.softmax", "tensor.index",
    "tensor.concat", "model.stage3", "distraction.mask",
)
MODULES = ("tensor", "attention", "distraction", "fusion", "model", "train", "data", "bench")
SETUP_MS = (
    "data.generate_synthetic", "data.save_dataset", "checkpoint.save_checkpoint",
    "checkpoint.load_model",
)


def environment() -> dict:
    import numpy

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load = os.getloadavg()
    return {
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "blas": _blas_name(numpy),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": cpus,
        "loadavg_start": [round(v, 2) for v in load],
        "quiet": load[0] < 0.5 * cpus,
    }


def _blas_name(numpy) -> str | None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return None


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def relative_costs(op_seconds, kernel_seconds) -> list[float]:
    """Op i's time over the mean of kernel runs i and i + 1, which bracket it."""
    assert len(kernel_seconds) == len(op_seconds) + 1
    return [2.0 * op / (kernel_seconds[i] + kernel_seconds[i + 1])
            for i, op in enumerate(op_seconds)]


class Runner:
    """Runs one workload's ops, timing and checking each."""

    def __init__(self, workload, deadline: float, kernel=None):
        self.workload = workload
        self.deadline = deadline
        self.kernel = kernel  # when given, timed just before every op
        self.kernel_times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run_ops(self, seconds: float, min_ops: int, max_ops: int | None = None,
                op=None) -> list[float]:
        """Run ops until `seconds` have passed and `min_ops` are done; op seconds.

        Ops are numbered from 0 in every call, so each phase of a run starts
        at the same place in the workload's input sequence. With a calibration
        kernel, `kernel_times` holds its time before each op of the last call
        and once after the last op.
        """
        durations = []
        self.kernel_times = []
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if max_ops is not None and len(durations) >= max_ops:
                break
            if now >= self.deadline or (now - start >= seconds and len(durations) >= min_ops):
                break
            durations.append(self.one_op(len(durations), op or self.workload.op))
        if self.kernel is not None:
            self.time_kernel()
        return durations

    def time_kernel(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.kernel_times.append(time.perf_counter() - t0)

    def one_op(self, i: int, op) -> float:
        self.workload.prepare(i)
        if self.kernel is not None:
            self.time_kernel()
        ok = False
        t0 = time.perf_counter()
        try:
            result = op(i)
            elapsed = time.perf_counter() - t0
            ok = self.workload.check(i, result)
        except Exception:  # an op or check that raises is a failed op
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 0 if ok else 1
        return elapsed


def run_untraced(make_workload, args, workdir, deadline) -> dict:
    from calibration import CalibrationKernel

    kernel = CalibrationKernel()
    setup_times, durations, kernel_times, costs = [], [], [], []
    attempted = failed = 0
    for k in range(ROUNDS):
        round_dir = workdir / f"round{k}"
        round_dir.mkdir()
        workload = make_workload()
        t0 = time.perf_counter()
        workload.setup(args.seed, round_dir)
        setup_times.append(time.perf_counter() - t0)
        runner = Runner(workload, deadline, kernel)
        runner.run_ops(0.0, WARMUP_OPS, WARMUP_OPS)
        ops = runner.run_ops(args.seconds / ROUNDS, math.ceil(MIN_OPS / ROUNDS))
        durations += ops
        kernel_times += runner.kernel_times
        costs += relative_costs(ops, runner.kernel_times)
        attempted += runner.attempted
        failed += runner.failed
        del workload, runner  # one round's state at a time, so peak RSS is one set-up's
        shutil.rmtree(round_dir)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_rel_p50": (statistics.median(costs), "ratio"),
        "op_rel_p95": (percentile(costs, 95), "ratio"),
        "op_rel_mean": (statistics.mean(costs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(durations), "ms"),
        "op_ms_p95": (1e3 * percentile(durations, 95), "ms"),
        "calibration_ms_p50": (1e3 * statistics.median(kernel_times), "ms"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "wall": wall,
            "ops": len(durations), "op_ms": [round(1e3 * d, 4) for d in durations],
            "calibration_ms": [round(1e3 * d, 4) for d in kernel_times]}


def run_traced(make_workload, args, workdir, deadline) -> dict:
    import drax
    from spans import (
        OUTSIDE_OPS, SETUP, Recorder, check_self_time_sums, per_op_totals, write_spans,
    )

    workload = make_workload()
    recorder = Recorder()
    recorder.install(drax)
    try:
        recorder.span("bench.setup", workload.setup, args.seed, workdir)
    finally:
        recorder.restore()
    runner = Runner(workload, deadline)
    runner.run_ops(0.0, WARMUP_OPS, WARMUP_OPS)
    untraced = runner.run_ops(args.seconds / 2.0, 1)

    def traced_op(i):
        recorder.op_id = i
        try:
            return recorder.span("bench.op", workload.op, i)
        finally:
            recorder.op_id = OUTSIDE_OPS

    recorder.op_id = OUTSIDE_OPS
    recorder.install(drax)
    try:
        traced = runner.run_ops(args.seconds / 2.0, 1, TRACED_OP_CAP, traced_op)
    finally:
        recorder.restore()
    ops = len(traced)
    op_ids = range(ops)
    check_self_time_sums(recorder.spans, op_ids)
    tot = per_op_totals(recorder.spans, recorder.counts, op_ids)
    setup = per_op_totals(recorder.spans, recorder.counts, [SETUP])
    metrics = {"tensor.ops": (tot["tensor.ops"] / ops, "count")}
    for label in SPAN_CALLS:
        metrics[f"{label}.calls"] = (tot[f"{label}.calls"] / ops, "count")
    tensor_self = tot["tensor.self_ns"] - tot["tensor.backward.self_ns"]
    metrics["tensor.op.self_ms"] = (tensor_self / ops / 1e6, "ms")
    for label in SPAN_MS:
        metrics[f"{label}.ms"] = (tot[f"{label}.ns"] / ops / 1e6, "ms")
    for label in SPAN_SELF_MS:
        metrics[f"{label}.self_ms"] = (tot[f"{label}.self_ns"] / ops / 1e6, "ms")
    computed = tot["distraction.weights_computed"]
    metrics["distraction.masked_fraction"] = (
        tot["distraction.weights_zeroed"] / computed if computed else 0.0, "ratio")
    metrics["data.bytes_read"] = (tot["data.bytes_read"] / ops, "bytes")
    for label in SETUP_MS:
        metrics[f"{label}.ms"] = (setup[f"{label}.ns"] / 1e6, "ms")
    metrics["checkpoint.bytes"] = (setup["checkpoint.bytes"], "bytes")
    for module in MODULES:
        metrics[f"{module}.self_ms"] = (tot[f"{module}.self_ns"] / ops / 1e6, "ms")
    metrics["trace.op_ms"] = (tot["bench.op.ns"] / ops / 1e6, "ms")
    metrics["trace.overhead"] = (statistics.mean(traced) / statistics.mean(untraced), "ratio")
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
    write_spans(recorder.spans, spans_path)
    return {"attempted": runner.attempted, "failed": runner.failed, "metrics": metrics,
            "ops": ops, "spans": str(spans_path)}


def run_one(args) -> int:
    deadline = time.perf_counter() + HARD_LIMIT_S
    for name in BLAS_VARS:
        os.environ[name] = "1"  # before numpy loads; one thread measured no slower here
    src = ROOT / "src"
    if not (src / "drax" / "__init__.py").is_file():
        print(f"error: no drax sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    from workloads import WORKLOADS

    env = environment()
    if not env["quiet"]:
        print(f"warning: machine is not quiet (load average {env['loadavg_start']} "
              f"on {env['nproc']} CPUs); timings may be inflated", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = run_traced if args.trace else run_untraced
        result = measure(WORKLOADS[args.workload], args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, measured_ops=result["ops"],
                  error_rate=failed / attempted, environment=env)
    wall = result.get("wall", {})
    if wall:
        record["wall"] = {name: {"value": v, "unit": u} for name, (v, u) in wall.items()}
    for key in ("op_ms", "calibration_ms", "spans"):
        if key in result:
            record[key] = result[key]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    print(f"# error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name} {value:.6g} {unit}")
    for name, (value, unit) in wall.items():
        print(f"# wall {name} {value:.6g} {unit} (host-speed dependent, not bounded)")
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        wall = [line.split()[2:5] for line in lines if line.startswith("# wall ")]
        rows.append((name, json.loads(lines[-1]), wall))
    for name, summary, wall in rows:
        rate = summary["failed"] / summary["attempted"]
        print(f"{name}: error_rate {rate:.4f} ({summary['failed']}/{summary['attempted']})")
        for metric, entry in summary["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        for metric, value, unit in wall:
            print(f"  {metric:<40} {float(value):>14.6g} {unit}  (wall time, not bounded)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
