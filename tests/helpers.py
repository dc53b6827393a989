"""Shared numeric test utilities: finite differences, brute-force oracles,
the composite head split/merge that the fused attention ops replace, the
composite encoder blocks that the fused block ops replace, the select
form of the ELU kernel that the branch-free one replaces, the graph-search
backward that creation-order backward replaces, DRXF container rewriters,
the tiny model settings the CLI tests train with, the check that each
row of a test table is named by exactly one test, and a loader for the
scripts under `tools/`."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from drax import data
from drax import tensor as T

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


def rewrite_container(src, dst, edit):
    """Copy the DRXF container at `src` to `dst` with its (name, array)
    records, a list in file order, passed through `edit`. The copy is well
    formed, CRC included, so it holds what no writer of drax writes."""
    records = edit(list(data.read_container(src).items()))
    with open(dst, "wb") as out:
        data.write_container(records, out)


def rewrite_record(src, dst, name, value):
    """`rewrite_container` with record `name` set to `value` (bytes are
    stored as `|u1`): replaced in place, appended if `src` has no such
    record, or dropped if `value` is None."""
    value = np.frombuffer(value, dtype="|u1") if isinstance(value, bytes) else value
    rewrite_container(src, dst, lambda records: [
        (k, v) for k, v in {**dict(records), name: value}.items() if v is not None])


def finite_difference(f, x, step=1e-6):
    """Central-difference gradient of scalar-valued f with respect to array x.

    `f` takes no arguments and must read the current contents of `x`; entries
    of `x` are perturbed in place one at a time and restored afterwards.
    """
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + step
        hi = f()
        x[idx] = original - step
        lo = f()
        x[idx] = original
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic, numeric):
    """max over entries of |a - n| / max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss, params, step=1e-6, tol=1e-7):
    """Compare backward() gradients of every parameter against finite differences.

    `build_loss` returns a scalar Tensor built from the current parameter
    values. Returns the worst relative error seen.
    """
    loss = build_loss()
    for p in params:
        p.zero_grad()
    T.backward(loss)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

        def value():
            with T.no_grad():
                return build_loss().item()

        numeric = finite_difference(value, p.data, step=step)
        err = relative_error(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for {getattr(p, 'name', '?')}: {err:.3e}"
    return worst


def matmul_oracle(a, b):
    """Triple-loop matrix product for 2-D arrays."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def softmax_oracle(row):
    """Direct exp/sum softmax of a 1-D array (no stabilization tricks)."""
    e = np.exp(row - np.max(row))
    return e / e.sum()


def split_heads(x, head_count):
    """(n, d) -> (heads, n, d/heads) as reshape + transpose tape ops."""
    n, d = x.shape
    return T.transpose(T.reshape(x, (n, head_count, d // head_count)), (1, 0, 2))


def merge_heads(x):
    """(heads, n, d/heads) -> (n, d), inverse of split_heads, as tape ops."""
    h, n, dh = x.shape
    return T.reshape(T.transpose(x, (1, 0, 2)), (n, h * dh))


def self_attention_composite(x, w_q, w_k, w_v, w_o, gain, bias, heads, scale, eps=1e-5):
    """`T.self_attention_block` as the six ops it fuses."""
    mixed = T.head_mix(T.head_softmax(x, w_q, x, w_k, heads, scale), T.matmul(x, w_v))
    return T.layer_norm(T.add(x, T.matmul(mixed, w_o)), gain, bias, eps)


def feed_forward_composite(x, w1, b1, w2, b2, gain, bias, eps=1e-5):
    """`T.feed_forward_block` as the five ops it fuses."""
    hidden = T.elu(T.affine(x, w1, b1))
    return T.layer_norm(T.add(x, T.affine(hidden, w2, b2)), gain, bias, eps)


def elu_select(xd):
    """`T._elu` as two `np.where` selects on the sign: (data, vjp)."""
    negative = np.minimum(xd, 0.0)
    np.expm1(negative, out=negative)
    data = np.where(xd >= 0.0, xd, negative)

    def vjp(g):
        return g * np.where(xd >= 0.0, 1.0, negative + 1.0)

    return data, vjp


def attend_composite(x, weights, src, w_v, w_o, b_o):
    """`T.attend` as the four ops it fuses."""
    return T.add(x, T.affine(T.head_mix(weights, T.matmul(src, w_v)), w_o, b_o))


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def reference_backward(loss):
    """`T.backward` as a depth-first topological sort of the graph, then one
    reverse sweep with every leaf gradient copied: the oracle for the
    creation-order walk."""
    if loss.data.size != 1:
        raise T.ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    flowing = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.is_leaf():
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parts = node._vjp(g)
        for parent, part in zip(node._parents, parts):
            if part is None or not parent.requires_grad:
                continue
            held = flowing.get(id(parent))
            flowing[id(parent)] = part if held is None else held + part


def assert_each_row_named_once(rows):
    """Assert that the ids of a table's `rows` are unique, non-empty and
    printable, and that each is the value of exactly one string literal in
    the test modules (`tests/test_*.py`): the one test that runs that row."""
    ids = [row.id for row in rows]
    assert all(i and i.isprintable() for i in ids), ids
    known = set(ids)
    assert len(known) == len(ids), sorted({i for i in ids if ids.count(i) > 1})
    named = Counter(node.value for path in Path(__file__).parent.glob("test_*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Constant) and node.value in known)
    counts = {i: named[i] for i in ids if named[i] != 1}
    assert not counts, f"ids not named by exactly one test: {counts}"


def load_tool(name):
    """A script under `tools/` loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
