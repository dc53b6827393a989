"""A fixed unit of work that measures how fast the core runs right now.

The host the benchmark was sized on shares its cores with other machines.
The same op's wall time swings by up to 1.8x within seconds, in states that
last 2-20 s, and the process's CPU time swings alike: it is the core that
slows, not the scheduler. The runner times `CalibrationKernel` just before
every op and reports the op's time over the kernel's, a ratio from which the
host's speed state mostly divides out.

The kernel does what the library's ops spend their time on, in about the
same mix: a small reverse-mode tape (object creation, closures, a graph walk
and small numpy ops, like `drax.tensor`) and a loop of softmax-like
reductions and ufuncs on small arrays. Its inputs are fixed, so it does the
same work on every call and in every run. It does not import the library,
so a change to the library cannot change it. It takes 2.3-4.9 ms on one
vCPU of a shared 2-vCPU VM, depending on what the host's other tenants do.
"""

from __future__ import annotations

import numpy as np


class _Node:
    __slots__ = ("data", "grad", "parents", "back")

    def __init__(self, data, parents=(), back=None):
        self.data = data
        self.grad = None
        self.parents = parents
        self.back = back


def _accumulate(node, grad):
    node.grad = grad if node.grad is None else node.grad + grad


def _matmul(a, b):
    out = _Node(a.data @ b.data, (a, b))

    def back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    out.back = back
    return out


def _add_row(a, b):
    out = _Node(a.data + b.data, (a, b))

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0))

    out.back = back
    return out


def _tanh(a):
    t = np.tanh(a.data)
    out = _Node(t, (a,))
    out.back = lambda g: _accumulate(a, g * (1.0 - t * t))
    return out


def _softmax(a):
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = _Node(p, (a,))
    out.back = lambda g: _accumulate(a, p * (g - (g * p).sum(axis=-1, keepdims=True)))
    return out


def _transpose(a):
    out = _Node(a.data.T, (a,))
    out.back = lambda g: _accumulate(a, g.T)
    return out


def _total(a):
    out = _Node(np.array(a.data.sum()), (a,))
    out.back = lambda g: _accumulate(a, np.full(a.data.shape, float(g)))
    return out


def _backward(root):
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for parent in node.parents:
            visit(parent)
        order.append(node)

    visit(root)
    root.grad = np.ones(())
    for node in reversed(order):
        if node.back is not None and node.grad is not None:
            node.back(node.grad)


class CalibrationKernel:
    TAPE_PASSES = 10
    REDUCTION_STEPS = 60

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.tokens = rng.normal(size=(6, 8))
        self.weights = [rng.normal(size=(8, 8)) / 3.0 for _ in range(4)]
        self.bias = rng.normal(size=(8,))
        self.rows = rng.normal(size=(16, 64))
        self.mix = rng.normal(size=(64, 64)) / 8.0
        self.small = rng.normal(size=(8, 8))

    def __call__(self) -> float:
        total = 0.0
        for _ in range(self.TAPE_PASSES):
            x = _Node(self.tokens)
            w = [_Node(array) for array in self.weights]
            b = _Node(self.bias)
            q, k, v = _matmul(x, w[0]), _matmul(x, w[1]), _matmul(x, w[2])
            attn = _softmax(_matmul(q, _transpose(k)))
            h = _tanh(_add_row(_matmul(_matmul(attn, v), w[3]), b))
            loss = _total(_tanh(_matmul(_softmax(_matmul(h, _transpose(h))), h)))
            _backward(loss)
            total += float(loss.data) + float(w[0].grad[0, 0])
        x = self.rows
        for _ in range(self.REDUCTION_STEPS):
            y = x @ self.mix
            y = y - y.max(axis=1, keepdims=True)
            e = np.exp(y)
            x = e / e.sum(axis=1, keepdims=True)
            total += float(np.tanh(self.small * 2.0 + 1.0).sum())
            total += sum(k * k for k in range(20))
        return total + float(x[0, 0])
