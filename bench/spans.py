"""Span recorder for the traced run.

`Recorder.install` replaces each public library function named in
`patch_table` at the name its callers look up (a module attribute or a class attribute),
with a wrapper that records one span per call. `Recorder.restore` puts every
original back. Spans stay in memory as tuples
`(span_id, parent_id, op_id, label, start_ns, end_ns)` and are written out
when the run ends. A label is `<module>.<function>`; its first part is the
layer the time is attributed to.

Self time is a span's duration minus the part of it that its child spans
cover, so within one op the self times of all its spans add up to the
duration of the op's root span.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

SETUP = -1  # op id of spans recorded during set-up
OUTSIDE_OPS = -2  # op id between traced ops; such spans are never aggregated

TENSOR_OPS = (
    "add", "sub", "mul", "neg", "matmul", "transpose", "reshape", "index", "concat",
    "tensor_sum", "tensor_mean", "pow_const", "exp", "softmax", "elu", "relu", "layer_norm",
)


def _stage_label(args, kwargs) -> str:
    index = args[1] if len(args) > 1 else kwargs["index"]
    return f"model.stage{index + 1}"


def _count_masked(recorder, args, result):
    masker, attn = args[0], args[1]
    computed = attn.weights.data.size
    recorder.count("distraction.weights_computed", computed)
    if masker.mode != "off":
        recorder.count("distraction.weights_zeroed", masker.records[-1].density * computed)


def _count_bytes_read(recorder, args, result):
    recorder.count("data.bytes_read", os.path.getsize(args[0]))


def _count_checkpoint_bytes(recorder, args, result):
    recorder.count("checkpoint.bytes", os.path.getsize(args[1]))


def patch_table(drax):
    """(owner, attribute, label, on_return) for every patched name.

    A label is a string, or a function of the call's arguments. A function
    imported by name into another module is patched there too, because that
    module's callers look it up in their own namespace.
    """
    T, A, D, F, M = drax.tensor, drax.attention, drax.distraction, drax.fusion, drax.model
    table = [(T, name, f"tensor.{name}", None) for name in TENSOR_OPS]
    table += [
        (T, "backward", "tensor.backward", None),
        (A, "self_attention_encoder", "attention.self_attention_encoder", None),
        (A, "cross_encoder_layer", "attention.cross_encoder_layer", None),
        (A, "scaled_scores", "attention.scaled_scores", None),
        (A, "attended_values", "attention.attended_values", None),
        (F, "scaled_scores", "attention.scaled_scores", None),
        (F, "attended_values", "attention.attended_values", None),
        (M, "run_encoder_stack", "attention.run_encoder_stack", None),
        (D.MaskController, "apply", "distraction.mask", _count_masked),
        (M, "vector_space_transform", "fusion.vector_space_transform", None),
        (M, "cross_aligned_fuse", "fusion.cross_aligned_fuse", None),
        (M.DraxModel, "embed_tokens", "model.embed_tokens", None),
        (M.DraxModel, "run_stage", _stage_label, None),
        (M, "answer_decoder", "model.answer_decoder", None),
        (M, "hinge_loss", "model.hinge_loss", None),
        (M.DraxModel, "zero_grad", "train.zero_grad", None),
        (drax.train, "train_epoch", "train.train_epoch", None),
        (drax.train, "evaluate", "train.evaluate", None),
        (drax.train, "sgd_step", "train.sgd_step", None),
        (drax.data, "read_features", "data.read_features", _count_bytes_read),
        (drax.data, "save_dataset", "data.save_dataset", None),
        (drax.data, "generate_synthetic", "data.generate_synthetic", None),
        (drax.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint",
         _count_checkpoint_bytes),
        (drax.checkpoint, "load_model", "checkpoint.load_model", None),
    ]
    return table


class Recorder:
    """Collects spans and counters; one op is traced at a time, on one thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op_id = SETUP
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.op_id, name)] += amount

    def wrap(self, fn, label, on_return=None):
        """A stand-in for `fn` that records a span (and optional counters) per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            name = label if isinstance(label, str) else label(args, kwargs)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op_id, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def span(self, label: str, fn, *args, **kwargs):
        """Run `fn` under a span of its own, for the benchmark's root spans."""
        return self.wrap(fn, label)(*args, **kwargs)

    def install(self, drax) -> None:
        if self._patched:
            raise RuntimeError("recorder is already installed")
        try:
            self._patch(drax.tensor, "_from_op", self._counted(drax.tensor._from_op))
            for owner, attr, label, on_return in patch_table(drax):
                self._patch(owner, attr, self.wrap(vars(owner)[attr], label, on_return))
        except BaseException:
            self.restore()
            raise

    def _counted(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op_id, "tensor.ops")] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, _, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = end - start - covered
    return out


def per_op_totals(spans, counts, op_ids) -> dict[str, float]:
    """Sum calls, inclusive ns, self ns and counters over the given ops.

    Keys are `<label>.calls`, `<label>.ns`, `<label>.self_ns`,
    `<module>.self_ns` and each counter name. Only spans recorded inside
    one of `op_ids` are summed.
    """
    op_ids = set(op_ids)
    chosen = [s for s in spans if s[2] in op_ids]
    selfs = self_times(chosen)
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, _, label, start, end in chosen:
        totals[f"{label}.calls"] += 1
        totals[f"{label}.ns"] += end - start
        totals[f"{label}.self_ns"] += selfs[span_id]
        totals[f"{label.split('.')[0]}.self_ns"] += selfs[span_id]
    for (op_id, name), value in counts.items():
        if op_id in op_ids:
            totals[name] += value
    return totals


def check_self_time_sums(spans, op_ids) -> None:
    """Within each op, the self times of its spans must add up to its root span."""
    wanted = set(op_ids)
    chosen = [s for s in spans if s[2] in wanted]
    selfs = self_times(chosen)
    sums: dict[int, int] = defaultdict(int)
    roots: dict[int, int] = {}
    for span_id, parent, op_id, _, start, end in chosen:
        sums[op_id] += selfs[span_id]
        if parent < 0:
            roots[op_id] = end - start
    if sums != roots:
        raise RuntimeError("per-layer self times do not add up to the traced op durations")


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("span_id\tparent_id\top_id\tlabel\tstart_ns\tend_ns\n")
        for span in spans:
            out.write("\t".join(str(v) for v in span) + "\n")
