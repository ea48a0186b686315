"""A frozen yardstick for the machine's current speed.

On a shared VM the speed of the same code drifts by a third or more over
seconds to minutes, as neighbours load the cores. A run cannot avoid that, but
it can measure it: a fixed kernel is timed just before and just after each
unit of work, and the unit's time is scaled by ``NOMINAL_S / kernel time``.
A slower program still reads slower; a slower machine mostly does not.

The kernel is shaped like the program's hot path, so it slows down in the same
way: a small reverse-mode graph over (T=70, d=16) float32 arrays, one node
object and one closure per op, the same op mix as an encoder layer. It lives
here, not in the program, so no change to the program can move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median kernel time on an idle 2-vCPU Xeon; scales are about 1 on such a machine
NOMINAL_S = 1.25e-3
REPEATS = 7


class _Node:
    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.parents = parents
        self.backward = backward


def _op(data, *parents):
    def backward(g):
        return g

    return _Node(data, parents, backward)


def _layer(h: _Node, w1, w2, wq, gamma) -> _Node:
    mu = h.data.mean(axis=-1, keepdims=True)
    var = h.data.var(axis=-1, keepdims=True)
    n = _op((h.data - mu) / np.sqrt(var + 1e-5) * gamma, h)
    a = _op(n.data @ w1, n)
    s = _op(1.0 / (1.0 + np.exp(-a.data)), a)
    a = _op(a.data * s.data, a, s)
    f = _op(a.data @ w2, a)
    h = _op(h.data + 0.5 * f.data, h, f)
    q = _op((h.data @ wq).reshape(70, 2, 8).transpose(1, 0, 2), h)
    logits = _op(q.data @ q.data.transpose(0, 2, 1) * 0.35, q)
    e = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
    p = _op(e / e.sum(axis=-1, keepdims=True), logits)
    ctx = _op((p.data @ q.data).transpose(1, 0, 2).reshape(70, 16), p, q)
    return _op(h.data + ctx.data, h, ctx)


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        f32 = np.float32
        self._x = rng.normal(size=(70, 16)).astype(f32)
        self._w1 = (rng.normal(size=(16, 32)) / 4).astype(f32)
        self._w2 = (rng.normal(size=(32, 16)) / 6).astype(f32)
        self._wq = (rng.normal(size=(16, 16)) / 4).astype(f32)
        self._gamma = np.ones(16, dtype=f32)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        h = _Node(self._x)
        for _ in range(6):
            h = _layer(h, self._w1, self._w2, self._wq, self._gamma)
        if not math.isfinite(float(h.data[0, 0])):
            raise RuntimeError("yardstick kernel produced a non-finite value")
        return time.perf_counter() - t0

    def read(self) -> float:
        """Median kernel time in seconds, now."""
        return statistics.median(self._kernel() for _ in range(REPEATS))

    def scale(self, before: float, after: float) -> float:
        """Factor that brings a unit timed between two readings to nominal speed."""
        return NOMINAL_S / ((before + after) / 2.0)
