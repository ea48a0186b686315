"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray and remembers the op that produced it. Tensors are
created in execution order, so the monotonically increasing creation id gives
a topological order of the implicit graph for free; `backward` walks reachable
nodes in reverse creation order, then releases the graph it walked, so a
step's activations are freed before the next step builds its graph. Gradients
for a tensor that feeds several downstream ops (including a parameter reused
across shared layers) accumulate by summation at the leaf: the first
contribution is copied into a buffer of the tensor's own dtype and shape, later
ones add into it in place, so no two tensors ever share a gradient buffer.

Ops take a leading batch: matmul multiplies (..., n, k) by a (k, m) weight, or
two equal-rank operands with matching leading dims. The weight form takes an
optional (m,) bias operand, added in place to the product, so an affine
projection is one graph node. A batch of utterances is packed: one (N, d)
array whose slot b owns the next `lengths[b]` rows, N being their sum. The
depthwise convolution runs along each slot's rows, and `attention` is one
node that computes softmax(q k^T + bias ln 2) v with optional 0/1 dropout
masks per slot, on (N, h, dh) rows, in L2-sized tiles of query rows, with a
closed-form backward. Its weights are powers of 2: every tile reads its keys
from one contiguous copy per call, scaled by log2(e), so the logits come out
in base-2 units and `exp2` replaces `exp`; the tiles of a forward-only pass
share one scratch array, and the row-max shift runs only where a tile's row
sums fail to prove every row max inside a safe band.

Each module of a Conformer block, its residual included, is one node as
well: `feed_forward`, `self_attention` (whose core is `attention`'s) and
`conv_module`. They and the primitive ops share every formula through
private numpy helpers (`_norm`, `_affine`, `_conv`, `_attend`, the sigmoid
and swish derivatives, ...), and a module node runs its chain's float
operations in the chain's order, so it is bitwise equal to the chain of
primitive ops it replaces. Inside `no_grad()` ops keep no parents and no
backward closure, so a forward-only pass builds no graph.

Precision is a process-global setting: float32 for training speed, float64 for
finite-difference verification. Tensors keep the dtype they were created with.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

_DTYPES = {"float32": np.float32, "float64": np.float64}
LOG2E = math.log2(math.e)  # e^x = 2^(x log2(e)): the attention core's logits are base 2
_LN_EPS = 1e-5  # layer norm's variance floor, in `layer_norm` and every module node
_default_dtype = np.float32

_ids = itertools.count()
_grad_enabled = True


def set_default_dtype(name: str) -> None:
    global _default_dtype
    if name not in _DTYPES:
        raise ConfigError(f"unknown precision {name!r}, expected float32/float64")
    _default_dtype = _DTYPES[name]


def get_default_dtype() -> np.dtype:
    return np.dtype(_default_dtype)


@contextmanager
def precision(name: str):
    global _default_dtype
    prev = _default_dtype
    set_default_dtype(name)
    try:
        yield
    finally:
        _default_dtype = prev


@contextmanager
def no_grad():
    """Within this block, op results record no graph and require no gradient."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    # ---- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = None
        out._id = next(_ids)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a private copy: g may be a read-only broadcast view, or an array
            # another tensor's backward also hands out
            if g.shape != self.data.shape:
                g = np.broadcast_to(g, self.data.shape)
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # ---- arithmetic ---------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._result(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return Tensor._result(a.data - b.data, (a, b), backward)

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._result(-a.data, (a,), backward)

    def __mul__(self, other):
        other = Tensor._wrap(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._result(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        a = self
        basic = all(isinstance(k, (slice, int, np.integer)) or k is Ellipsis or k is None
                    for k in (key if isinstance(key, tuple) else (key,)))

        def backward(g):
            if a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                if basic:  # a view selects each element at most once
                    a.grad[key] += g
                else:      # an index array may repeat an element
                    np.add.at(a.grad, key, g)

        return Tensor._result(a.data[key], (a,), backward)

    # ---- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        a = self
        orig = a.data.shape

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(orig))

        return Tensor._result(a.data.reshape(*shape), (a,), backward)

    def transpose(self, axes):
        a = self
        inv = np.argsort(axes)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.transpose(inv))

        return Tensor._result(a.data.transpose(axes), (a,), backward)

    # ---- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims))

        return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims=False):
        a = self
        count = a.data.size if axis is None else np.prod(
            [a.data.shape[ax] for ax in np.atleast_1d(axis)]
        )

        def backward(g):
            if a.requires_grad:
                a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims) / count)

        return Tensor._result(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)

    def abs(self):
        a = self
        sign = np.sign(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * sign)

        return Tensor._result(np.abs(a.data), (a,), backward)

    # ---- backward pass ------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar loss into all reachable leaves.

        The graph is released as it is walked: every visited node drops its
        parents and backward closure, and intermediates their gradients.
        """
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.data.shape}")
        nodes: dict[int, Tensor] = {}
        stack = [self]
        while stack:
            t = stack.pop()
            if t._id not in nodes and t.requires_grad:
                nodes[t._id] = t
                stack.extend(t._parents)
        self.grad = np.ones_like(self.data)
        for t in sorted(nodes.values(), key=lambda n: n._id, reverse=True):
            if t._backward is not None:
                if t.grad is not None:
                    t._backward(t.grad)
                if t is not self:
                    t.grad = None  # free intermediate buffers; leaves keep theirs
            t._parents = ()
            t._backward = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# The constant vectors of `_sum_rows` and `_sum_last`, built once and read-only:
# one `scale`-filled buffer per (scale, dtype), grown to the longest length
# asked for and sliced (N varies per batch, the slot length per utterance).
_fills: dict[tuple[float, np.dtype], np.ndarray] = {}


def _fill_vector(n: int, scale: float, dtype: np.dtype) -> np.ndarray:
    key = (scale, dtype)
    buf = _fills.get(key)
    if buf is None or buf.shape[0] < n:
        buf = _fills[key] = np.full(n, scale, dtype)
        buf.flags.writeable = False
    return buf[:n]


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Column sums of an (n, m) array, as a vector-matrix product.

    numpy's reduce over a short trailing axis runs several times slower than
    the BLAS product, and these reductions run for every bias and norm.
    """
    return _fill_vector(x.shape[0], 1.0, x.dtype) @ x


def _sum_last(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """`scale` times the sum over the last axis, kept as a length-1 axis (see `_sum_rows`)."""
    return (x @ _fill_vector(x.shape[-1], scale, x.dtype))[..., None]


def _sum_along(x: np.ndarray, axis: int) -> np.ndarray:
    return _sum_last(x) if axis in (-1, x.ndim - 1) else x.sum(axis=axis, keepdims=True)


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


# ---- shared kernels ---------------------------------------------------------
# Each formula exists once, in these numpy helpers. The primitive ops and the
# fused Conformer module nodes below both call them, so a module node runs the
# very float operations, in the same order, as its chain of primitive ops.
# A *_grads helper given Tensor parameters accumulates their gradients and
# returns the input's.


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """a @ w, plus b added in place to every row when given."""
    out = a @ w
    if b is not None:
        out += b
    return out


def _affine_grads(g: np.ndarray, a: np.ndarray, w: Tensor, b: Tensor | None) -> None:
    """Accumulate the (k, m) weight's and (m,) bias's gradients of a @ w + b.

    Both serve every row, so they are taken from one (-1, m) view of g.
    """
    k, m = w.data.shape
    g2 = g.reshape(-1, m)
    if w.requires_grad:
        w._accumulate(a.reshape(-1, k).T @ g2)
    if b is not None and b.requires_grad:
        b._accumulate(_sum_rows(g2))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _swish(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, s): y = x * s, s = sigmoid(x)."""
    s = _sigmoid(x)
    return x * s, s


def _sigmoid_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return g * s * (1.0 - s)


def _swish_grad(g: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The input gradient of `_swish`'s y = x * s."""
    return g * (s + y * (1.0 - s))


def _norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
          eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: (y, xhat, inv), y = xhat * gamma + beta.

    The input is centred once and the variance taken from the centred values.
    """
    d = x.shape[-1]
    if d < 2:
        raise DimensionError(f"layer_norm needs last dim >= 2, got {d}")
    xhat = x - _sum_last(x, 1.0 / d)
    inv = _sum_last(np.square(xhat), 1.0 / d)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y, xhat, inv


def _norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: Tensor,
                beta: Tensor, need_x: bool) -> np.ndarray | None:
    d = xhat.shape[-1]
    gxhat = g * xhat
    if gamma.requires_grad:
        gamma._accumulate(_sum_rows(gxhat.reshape(-1, d)))
    if beta.requires_grad:
        beta._accumulate(_sum_rows(g.reshape(-1, d)))
    if not need_x:
        return None
    # (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)) * inv
    gxhat *= gamma.data
    gx = g * gamma.data
    gx -= _sum_last(gx, 1.0 / d)
    gx -= xhat * _sum_last(gxhat, 1.0 / d)
    gx *= inv
    return gx


def check_lengths(n: int, lengths: Sequence[int] | None) -> list[int]:
    """The slot lengths of n packed rows (default: one slot of all n), checked."""
    lengths = [n] if lengths is None else [int(t) for t in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise ContractError(f"slot lengths {lengths} do not pack {n} rows")
    return lengths


def _gapped(lengths: list[int], gap: int) -> list[tuple[int, int, int]]:
    """Each slot's (packed row, gapped row, length), where the gapped layout puts
    `gap` rows between consecutive slots."""
    rows, at = [], 0
    for b, t in enumerate(lengths):
        rows.append((at, at + b * gap, t))
        at += t
    return rows


def _conv(x: np.ndarray, kernel: np.ndarray,
          lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Depthwise 'same' convolution along each slot's rows of a packed (N, d) x.

    Returns (y, xpad). xpad is the one zero-padded input: every slot is copied
    to its own row range, with k // 2 zero rows before, between and after the
    slots, so one pass over all of it never mixes two slots. The pass also
    yields the rows between slots, which y leaves out.
    """
    k, d = kernel.shape
    if k % 2 == 0:
        raise ConfigError(f"depthwise kernel length must be odd, got {k}")
    pad = k // 2
    slots = _gapped(lengths, pad)
    rows = x.shape[0] + (len(lengths) - 1) * pad  # output rows, gaps included
    xpad = np.zeros((rows + k - 1, d), dtype=x.dtype)
    for at, gat, t in slots:
        xpad[pad + gat:pad + gat + t] = x[at:at + t]
    y = kernel[0] * xpad[:rows]
    for j in range(1, k):
        y += kernel[j] * xpad[j:j + rows]
    if len(slots) > 1:
        y = np.concatenate([y[gat:gat + t] for _, gat, t in slots])
    return y, xpad


def _conv_grads(g: np.ndarray, xpad: np.ndarray, kernel: Tensor, lengths: list[int],
                need_x: bool) -> np.ndarray | None:
    k, d = kernel.data.shape
    pad = k // 2
    slots = _gapped(lengths, pad)
    rows = xpad.shape[0] - (k - 1)
    if len(slots) > 1:  # g in the gapped layout, zeros between slots
        g1 = np.zeros((rows, d), g.dtype)
        for at, gat, t in slots:
            g1[gat:gat + t] = g[at:at + t]
        g = g1
    if kernel.requires_grad:
        gk = np.empty_like(kernel.data)
        for j in range(k):
            gk[j] = _sum_rows(xpad[j:j + rows] * g)
        kernel._accumulate(gk)
    if not need_x:
        return None
    gpad = np.zeros_like(xpad)
    for j in range(k):
        gpad[j:j + rows] += kernel.data[j] * g
    if len(slots) == 1:
        return gpad[pad:pad + rows]
    return np.concatenate([gpad[pad + gat:pad + gat + t] for _, gat, t in slots])


# Query rows per attention tile: a tile's (h, rows, T_b) logits take at most
# about this many bytes, so every pass over a tile runs from L2 (2 MiB per
# core on the machine the budget was measured on). At 2 float32 heads a slot
# of up to 256 frames is one tile; a slot wider than the budget takes one-row
# tiles. Without a graph, every tile of a call writes into one scratch array
# sized for the call's largest tile (against one fresh array per tile:
# sli-long sli_frames_per_s.m8 +2.8%, 9 of 10 benchmark pairs).
_TILE_BYTES = 512 * 1024
# The core's logits are base 2: the keys' copy is scaled by log2(e) and a
# bias comes in log2 units, so a tile holds x log2(e) for the natural logits
# x, and exp2 of it is e^x. Natural units below, base 2 in the code: exp2 may
# skip the row-max shift when every row max of a tile lies in
# [-_BAND, _BAND], compared as [-_BAND log2(e), _BAND log2(e)] on the tile.
# Above the band a row sum could overflow: within it every term is at most
# e^20 (4.9e8), so a row sum stays below the float32 limit e^88.7 for any
# T_b < 1e29, with room left for the products with v and, in the backward,
# with dO V^T. Below the band the terms that exp2 flushes to zero would stop
# being negligible: within it the largest term is at least e^-20, and a term
# lost to underflow (logit < -87.3, 2^-126 the smallest normal float32) is
# under e^-67 of it, so even T_b < 1e22 of them sum to far below float32
# rounding (2^-24). float64's limits are wider on both sides.
#
# Every slot, however short, reads the band off the row sums s, which the
# forward needs anyway: the check costs no pass of its own, so it pays at any
# T_b, and no row-max pass runs. exp2 the unshifted logits, then keep the tile
# if every s lies in [T_b e^(-20 + m), e^(20 - m)], m = _BAND_MARGIN (a row
# sum of 2^(x log2(e)) is a row sum of e^x, so the bounds keep their natural
# form). With M a row's max of the tile's logits over log2(e) and u the unit
# roundoff, assume exp2 is within 4 ulp of the exact power, a relative error
# of at most 8u (a subnormal result within 2^-126 of it); numpy 2.4's float64
# exp2 measured at most 0.7 ulp, its float32 exp2 at most 1 ulp on results
# below 2^126 and 2.9 ulp above, and `tests/test_autodiff.py` pins the 4 ulp.
# A computed sum of T_b nonnegative terms, in any order, is within
# gamma = T_b u / (1 - T_b u) of the exact one. The row-max path compares
# against _BAND2 rounded to the tile's dtype, which moves the band's edges by
# 20u at most, far inside the margin. So:
# - if M > 20, the largest term is above e^20 (1 - 8u) (or is inf), and
#   s > e^20 (1 - 8u)(1 - gamma) > e^(20 - m);
# - if M < -20, every term is at most e^-20 (1 + 8u), and
#   s <= T_b e^-20 (1 + 8u)(1 + gamma) < T_b e^(-20 + m);
# both whenever (1 + 8u)(1 + gamma) < e^m. For m = 0.01 that holds up to
# T_b = _BAND_MAX_FRAMES = 2^16 in float32: T_b u <= 2^-8, so gamma < 0.004
# against e^0.01 - 1 = 0.01005, which also covers rounding the bounds to
# float32 (float64's u is 2^29 times smaller). A tile that passes thus has
# every row max in the band, exactly where the shift is skipped anyway, so
# its bits are those of the row-max path. A tile that fails (NaN and +-inf
# rows included) recomputes its logits and takes the row-max path, and so do
# the call's later tiles without trying the band first, so a failure wastes
# one tile's q k^T, exp2 and row sums per call, not one per tile. timeit,
# every logit out of the band, 2 float32 heads of 8, against the row-max
# path alone: 1.02x at T_b = 800 (10 tiles), 1.15x for two 400-frame slots,
# but 1.9x for a lone 200-frame slot, whose one tile is the whole call.
_BAND = 20.0
_BAND_MAX_FRAMES = 2 ** 16
_BAND_MARGIN = 0.01
_BAND_LO, _BAND_HI = math.exp(_BAND_MARGIN - _BAND), math.exp(_BAND - _BAND_MARGIN)
_BAND2 = _BAND * LOG2E  # the band in the tile's base-2 units


def _slot_lengths(n: int, h: int, bias: np.ndarray | None,
                  keep: Sequence[np.ndarray] | None, lengths: Sequence[int] | None) -> list[int]:
    """The slot lengths of n packed rows (default one slot), checked with bias and keep."""
    lengths = check_lengths(n, lengths)
    T = max(lengths)
    if bias is not None and bias.shape != (T, T):
        raise DimensionError(f"attention bias must be ({T}, {T}), got {bias.shape}")
    if keep is not None and (len(keep) != len(lengths) or any(
            m.shape != (h, t, t) for m, t in zip(keep, lengths))):
        raise DimensionError(f"attention keep masks must be (h, T_b, T_b) per slot "
                             f"for lengths {lengths}")
    return lengths


def _heads(a: np.ndarray, at: int, t: int) -> np.ndarray:
    """Rows [at, at + t) of an (N, h, d) array as an (h, t, d) view."""
    return a[at:at + t].transpose(1, 0, 2)


def _logits(qt: np.ndarray, kt: np.ndarray, bias, r0: int, out: np.ndarray) -> np.ndarray:
    """A tile's (h, rows, T_b) logits q k^T plus its rows of `bias`, into `out`."""
    e = np.matmul(qt, kt, out=out)
    if bias is not None:
        e += bias[r0:r0 + e.shape[1], :e.shape[2]]
    return e


def _exp_sums(e: np.ndarray) -> np.ndarray:
    """2^e in place, then its (h, rows, 1) row sums."""
    np.exp2(e, out=e)
    return _sum_last(e)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias, keep, scale: float,
            lengths: list[int], graph: bool) -> tuple[np.ndarray, list]:
    """`attention`'s forward on packed (N, h, d) rows: (out, what the backward keeps).

    Nothing is kept unless `graph`; `scale` is the kept weights' scale.
    """
    n, h, _ = q.shape
    out = np.empty(v.shape, dtype=q.dtype)
    saved = []
    kt_all = np.empty((h, k.shape[-1], n), k.dtype)  # (h, dh, N): a slot's keys are columns
    np.multiply(k.transpose(1, 2, 0), LOG2E, out=kt_all)  # so q k^T comes out in log2 units
    tile_cells = max(1, _TILE_BYTES // (h * out.itemsize))  # rows x T_b per tile
    scratch = np.empty(0, out.dtype)  # without a graph, every tile's logits
    speculate = True  # until a tile of this call fails the row-sum check
    at = 0
    for b, tb in enumerate(lengths):
        qb, ob, vb = (_heads(a, at, tb) for a in (q, out, v))
        kt = kt_all[:, :, at:at + tb]
        at += tb
        rows = min(tb, max(1, tile_cells // tb))
        if not graph and scratch.size < h * rows * tb:  # grown to the call's largest tile
            scratch = np.empty(h * rows * tb, out.dtype)
        # a graph keeps the whole exp'd block and the row sums for the backward
        e_all = np.empty((h, tb, tb), out.dtype) if graph else None
        s_all = np.empty((h, tb, 1), out.dtype) if graph else None
        for r0 in range(0, tb, rows):
            r1 = min(r0 + rows, tb)
            qt = qb[:, r0:r1]
            dest = (e_all[:, r0:r1] if graph
                    else scratch[:h * (r1 - r0) * tb].reshape(h, r1 - r0, tb))
            if speculate and tb <= _BAND_MAX_FRAMES:  # exp2 unshifted, check the row sums
                with np.errstate(over="ignore", invalid="ignore"):
                    e = _logits(qt, kt, bias, r0, dest)
                    s = _exp_sums(e)
                speculate = tb * _BAND_LO <= s.min() and s.max() <= _BAND_HI  # NaN fails
            if not speculate or tb > _BAND_MAX_FRAMES:  # the row-max path
                e = _logits(qt, kt, bias, r0, dest)
                mx = np.fmax.reduce(e, axis=-1, keepdims=True)  # max on finite rows, faster
                if not np.abs(mx).max() <= _BAND2:  # NaN, -inf: shift
                    e -= mx
                s = _exp_sums(e)
            o = ob[:, r0:r1]
            if keep is None:
                np.divide(e @ vb, s, out=o)
            else:  # s: the row sums before dropout
                kb = keep[b][:, r0:r1]
                np.divide((e * kb if graph else np.multiply(e, kb, out=e)) @ vb, s, out=o)
                o *= scale
            if graph:
                s_all[:, r0:r1] = s
        if graph:
            saved.append((e_all, s_all))
    return out, saved


def _attend_grads(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                  out: np.ndarray, saved: list, keep, scale: float, lengths: list[int],
                  need: tuple[bool, bool, bool]) -> list[np.ndarray | None]:
    """`attention`'s backward: the (N, h, d) gradients of q, k and v where `need`ed."""
    gq, gk, gv = (np.empty(a.shape, a.dtype) if wanted else None
                  for wanted, a in zip(need, (q, k, v)))
    if gq is not None or gk is not None:
        vt_all = np.ascontiguousarray(v.transpose(1, 2, 0))  # (h, dv, N), as the forward's keys
    at = 0
    for b, (tb, (e, s)) in enumerate(zip(lengths, saved)):
        do = _heads(g, at, tb)
        r = scale / s  # W = e * keep * r
        if gv is not None:
            w = e if keep is None else e * keep[b]
            _heads(gv, at, tb)[...] = np.swapaxes(w, -1, -2) @ (do * r)
        if gq is not None or gk is not None:
            # dS / r, its row scale r applied to the (T_b, dh) products instead
            ds = do @ vt_all[:, :, at:at + tb]  # dL/dW
            if keep is not None:
                ds *= keep[b]
            ds -= _sum_last(do * _heads(out, at, tb), 1.0 / scale)
            ds *= e
            if gq is not None:
                np.multiply(ds @ _heads(k, at, tb), r, out=_heads(gq, at, tb))
            if gk is not None:
                _heads(gk, at, tb)[...] = np.swapaxes(ds, -1, -2) @ (_heads(q, at, tb) * r)
        at += tb
    return [gq, gk, gv]


# ---- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product of (..., n, k) by a (k, m) weight, or of two equal-rank
    operands whose leading (batch/head) dims match.

    The weight form takes an optional (m,) `bias`, added to every row.
    """
    a, b = Tensor._wrap(a), Tensor._wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or (b.data.ndim != 2 and a.data.ndim != b.data.ndim):
        raise DimensionError(f"matmul expects (..., n, k) @ (k, m) or equal-rank operands, "
                             f"got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if a.data.ndim == b.data.ndim and a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(f"matmul batch dimensions disagree: {a.shape} @ {b.shape}")
    parents = (a, b)
    if bias is not None:
        bias = Tensor._wrap(bias)
        if b.data.ndim != 2 or bias.data.shape != b.data.shape[1:]:
            raise DimensionError(f"matmul bias must be ({b.data.shape[-1]},) with a (k, m) "
                                 f"weight, got {a.shape} @ {b.shape} + {bias.shape}")
        parents = (a, b, bias)
    out = _affine(a.data, b.data, None if bias is None else bias.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.data.ndim == 2:
            _affine_grads(g, a.data, b, bias)
        elif b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return Tensor._result(out, parents, backward)


# ---- nonlinearities ---------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_sigmoid_grad(g, s))

    return Tensor._result(s, (x,), backward)


def swish(x: Tensor) -> Tensor:
    y, s = _swish(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_swish_grad(g, s, y))

    return Tensor._result(y, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis` (max-subtraction), computed in one buffer."""
    if x.data.ndim == 0 or x.data.shape[axis] == 0:
        raise DimensionError("softmax requires a non-empty axis")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= _sum_along(y, axis)

    def backward(g):
        if x.requires_grad:
            gx = g * y
            gx -= y * _sum_along(gx, axis)
            x._accumulate(gx)

    return Tensor._result(y, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None = None,
              keep: Sequence[np.ndarray] | None = None, keep_scale: float = 1.0,
              lengths: Sequence[int] | None = None) -> Tensor:
    """softmax(q k^T + bias ln 2) v as one node, computed per slot on packed rows.

    `bias` is in log2 units, the unit `encoder.relative_position_bias`
    returns: the core works in base 2, so the weights are
    2^(q k^T log2(e) + bias), which is e^(q k^T + bias ln 2).

    q and k are (N, h, dh) and v is (N, h, dv). Slot b owns the next
    `lengths[b]` = T_b rows (default: one slot of all N), and only its
    (h, T_b, T_b) block is computed, in tiles of query rows whose
    (h, rows, T_b) logits fit `_TILE_BYTES`, so a long slot's passes run from
    L2: base-2 logits q (k log2(e))^T plus `bias[:T_b, :T_b]` of a constant
    (T, T) bias, T the longest slot, the row maxima, a shift by them unless
    the tile's maxima all lie in the safe band [-_BAND, _BAND] in natural
    units (softmax is shift-invariant), exp2 and the row sums, then the
    optional 0/1 `keep[b]` (h, T_b, T_b), bool or of q's float dtype, drops
    weights (inverted dropout, the kept ones scaled by `keep_scale`); both
    mask dtypes give the same bits, a float one without a cast per multiply.
    The weights are never normalised: the (h, rows, dv) product with v is
    divided by the row sums instead, which with dropout are taken before the
    mask.

    Every slot of up to `_BAND_MAX_FRAMES` frames, however short, first
    tries without the row-max pass: a tile exp2s its unshifted logits and is
    kept if every row sum, which costs nothing extra, lies within bounds that
    prove every row max in the band; otherwise its logits are recomputed and
    take the path above, with the same bits, and so do the call's later
    tiles in every slot. Every tile reads its slot's keys as columns of one
    contiguous (h, dh, N) copy of k, scaled by log2(e), made per call (the
    backward reads the natural v the same way for dO V^T), so BLAS gets a
    plain operand instead of a strided view, and without a graph every tile
    writes its logits into one scratch array.

    A graph writes each tile into the slot's whole exp'd block e and saves it
    with its row sums s; the softmax is P = e / s (whatever shift each row
    took), the same P as e^(logits) would give up to rounding, so the
    backward reads the natural q, k and v, and the dropped weights are
    W = P * keep * scale. The backward is the closed form dV = W^T dO,
    dP = (dO V^T) * keep * scale, dS = P * (dP - rowsum(dP * P)), dQ = dS K,
    dK = dS^T Q, where rowsum(dP * P) = rowsum(dO * O) needs no T x T pass
    (Rabe & Staats, arXiv 2112.05682; Dao et al., FlashAttention,
    arXiv 2205.14135).
    """
    q, k, v = Tensor._wrap(q), Tensor._wrap(k), Tensor._wrap(v)
    shape = q.data.shape
    if len(shape) != 3 or k.data.shape != shape or v.data.shape[:-1] != shape[:-1] \
            or v.data.ndim != 3:
        raise DimensionError(f"attention expects q, k (N, h, dh) and v (N, h, dv), "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    lengths = _slot_lengths(shape[0], shape[1], bias, keep, lengths)
    scale = keep_scale if keep is not None else 1.0
    graph = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    out, saved = _attend(q.data, k.data, v.data, bias, keep, scale, lengths, graph)

    def backward(g):
        grads = _attend_grads(g, q.data, k.data, v.data, out, saved, keep, scale, lengths,
                              (q.requires_grad, k.requires_grad, v.requires_grad))
        for t, gt in zip((q, k, v), grads):
            if gt is not None:
                t._accumulate(gt)

    return Tensor._result(out, (q, k, v), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize the last axis with population variance, then affine."""
    y, xhat, inv = _norm(x.data, gamma.data, beta.data, eps)

    def backward(g):
        gx = _norm_grads(g, xhat, inv, gamma, beta, x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._result(y, (x, gamma, beta), backward)


def depthwise_conv1d(x: Tensor, kernel: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Per-channel 1-D convolution along each slot's rows, zero 'same' padding.

    x is packed (N, d), slot b owning the next `lengths[b]` rows (default: one
    slot of all N); kernel is k x d with k odd; output is (N, d).
    """
    if x.data.ndim != 2 or kernel.data.ndim != 2 or x.data.shape[-1] != kernel.data.shape[1]:
        raise DimensionError(f"depthwise_conv1d shape mismatch: x {x.shape}, kernel {kernel.shape}")
    lengths = check_lengths(x.data.shape[0], lengths)
    y, xpad = _conv(x.data, kernel.data, lengths)

    def backward(g):
        gx = _conv_grads(g, xpad, kernel, lengths, x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._result(y, (x, kernel), backward)


# ---- Conformer modules ------------------------------------------------------
# Each module of a Conformer block, its residual included, is one node with a
# closed-form backward. Where x feeds nothing but the module, as in a block,
# it is bitwise equal to the module's chain of the primitive ops above: every
# float operation, each gradient sum over several consumers included, runs in
# the chain's order.


def _check_params(node: str, params: Sequence[Tensor], shapes: Sequence[tuple]) -> None:
    got = [p.data.shape for p in params]
    if got != [tuple(s) for s in shapes]:
        raise DimensionError(f"{node} parameters must be shaped {list(shapes)}, got {got}")


def feed_forward(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """x + (swish(LN(x) W1 + b1) W2 + b2) / 2, the half-step feed-forward module.

    x is (..., d), W1 (d, f) and W2 (f, d); LN is `layer_norm` with gamma, beta.
    """
    d = x.data.shape[-1]
    f = w1.data.shape[-1]
    _check_params("feed_forward", (gamma, beta, w1, b1, w2, b2),
                  ((d,), (d,), (d, f), (f,), (f, d), (d,)))
    n, xhat, inv = _norm(x.data, gamma.data, beta.data, _LN_EPS)
    y, s = _swish(_affine(n, w1.data, b1.data))
    out = _affine(y, w2.data, b2.data)
    out *= 0.5
    out += x.data

    def backward(g):
        gf = g * 0.5
        _affine_grads(gf, y, w2, b2)
        ga = _swish_grad(gf @ w2.data.T, s, y)
        _affine_grads(ga, n, w1, b1)
        gx = _norm_grads(ga @ w1.data.T, xhat, inv, gamma, beta, x.requires_grad)
        if gx is not None:
            gx += g
            x._accumulate(gx)

    return Tensor._result(out, (x, gamma, beta, w1, b1, w2, b2), backward)


def self_attention(x: Tensor, gamma: Tensor, beta: Tensor, wq: Tensor, bq: Tensor,
                   wk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor, heads: int,
                   bias: np.ndarray | None = None, keep: Sequence[np.ndarray] | None = None,
                   keep_scale: float = 1.0, lengths: Sequence[int] | None = None) -> Tensor:
    """x + MHSA(LN(x)) Wo + bo, the multi-head self-attention module, on packed
    (N, d) rows.

    With n = LN(x): q = (n Wq + bq) / sqrt(dh), k = n Wk (a key bias would
    shift a whole row of logits, which softmax cancels) and v = n Wv + bv, each
    viewed as (N, heads, dh), dh = d / heads. The core is `attention`'s, with
    its `bias` (in log2 units, added to the base-2 logits), `keep`,
    `keep_scale` and slot `lengths`; its (N, heads, dh) output is viewed as
    (N, d) again before Wo.
    """
    if x.data.ndim != 2 or heads < 1 or x.data.shape[-1] % heads:
        raise DimensionError(f"self_attention expects (N, d) with d divisible by "
                             f"{heads} heads, got {x.shape}")
    N, d = x.data.shape
    dh = d // heads
    params = (x, gamma, beta, wq, bq, wk, wv, bv, wo, bo)
    _check_params("self_attention", params[1:],
                  ((d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)))
    lengths = _slot_lengths(N, heads, bias, keep, lengths)
    scale = keep_scale if keep is not None else 1.0
    graph = _grad_enabled and any(p.requires_grad for p in params)

    n, xhat, inv = _norm(x.data, gamma.data, beta.data, _LN_EPS)
    # scale q (T x dh per head), not the T x T logits: same product, fewer multiplies
    qscale = x.data.dtype.type(1.0 / np.sqrt(dh))
    q = _affine(n, wq.data, bq.data).reshape(N, heads, dh)
    q *= qscale
    k = (n @ wk.data).reshape(N, heads, dh)
    v = _affine(n, wv.data, bv.data).reshape(N, heads, dh)
    o, saved = _attend(q, k, v, bias, keep, scale, lengths, graph)
    ctx = o.reshape(N, d)
    out = _affine(ctx, wo.data, bo.data)
    out += x.data

    def backward(g):
        _affine_grads(g, ctx, wo, bo)
        gq, gk, gv = _attend_grads((g @ wo.data.T).reshape(N, heads, dh), q, k, v, o, saved,
                                   keep, scale, lengths, (True, True, True))
        gq *= qscale
        gq, gk, gv = gq.reshape(N, d), gk.reshape(N, d), gv.reshape(N, d)
        _affine_grads(gq, n, wq, bq)
        _affine_grads(gk, n, wk, None)
        _affine_grads(gv, n, wv, bv)
        # n's three consumers are summed in reverse creation order: v, k, q
        gn = gv @ wv.data.T
        gn += gk @ wk.data.T
        gn += gq @ wq.data.T
        gx = _norm_grads(gn, xhat, inv, gamma, beta, x.requires_grad)
        if gx is not None:
            gx += g
            x._accumulate(gx)

    return Tensor._result(out, params, backward)


def conv_module(x: Tensor, gamma: Tensor, beta: Tensor, pw1: Tensor, pb1: Tensor,
                dw: Tensor, pw2: Tensor, pb2: Tensor,
                lengths: Sequence[int] | None = None) -> Tensor:
    """x + swish(dwconv(GLU(LN(x) P1 + p1))) P2 + p2, the convolution module.

    x is packed (N, d), slot b owning the next `lengths[b]` rows (default: one
    slot of all N), P1 (d, 2d), the depthwise kernel dw (k, d) with k odd and
    P2 (d, d). GLU(a) = a[:, :d] * sigmoid(a[:, d:]). The convolution runs
    within each slot (see `_conv`), so no frame of one slot reaches another.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"conv_module expects (N, d), got {x.shape}")
    N, d = x.data.shape
    _check_params("conv_module", (gamma, beta, pw1, pb1, dw, pw2, pb2),
                  ((d,), (d,), (d, 2 * d), (2 * d,), (dw.data.shape[0], d), (d, d), (d,)))
    lengths = check_lengths(N, lengths)
    n, xhat, inv = _norm(x.data, gamma.data, beta.data, _LN_EPS)
    a = _affine(n, pw1.data, pb1.data)
    a1 = a[:, :d]
    s = _sigmoid(a[:, d:])
    glu = a1 * s
    c, xpad = _conv(glu, dw.data, lengths)
    y, sc = _swish(c)
    out = _affine(y, pw2.data, pb2.data)
    out += x.data

    def backward(g):
        _affine_grads(g, y, pw2, pb2)
        gglu = _conv_grads(_swish_grad(g @ pw2.data.T, sc, y), xpad, dw, lengths, True)
        # as the chain's two slice nodes did: each half added into zeros
        ga = np.zeros_like(a)
        ga[:, d:] += _sigmoid_grad(gglu * a1, s)
        ga[:, :d] += gglu * s
        _affine_grads(ga, n, pw1, pb1)
        gx = _norm_grads(ga @ pw1.data.T, xhat, inv, gamma, beta, x.requires_grad)
        if gx is not None:
            gx += g
            x._accumulate(gx)

    return Tensor._result(out, (x, gamma, beta, pw1, pb1, dw, pw2, pb2), backward)


# ---- verification oracle ----------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    The error is measured per parameter as ||analytic - numeric|| over
    max(||analytic||, ||numeric||); comparing element by element instead would
    let finite-difference round-off dominate on entries whose gradient happens
    to be orders of magnitude below the rest of the parameter.

    `f` must rebuild the loss from `params` on every call. Run under float64.
    """
    if not (0.0 < eps <= 1e-2):
        raise ContractError(f"grad_check eps must be in (0, 1e-2], got {eps}")
    params = list(params)
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(f().data)
            flat[i] = orig - eps
            lm = float(f().data)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"non-finite loss while probing parameter {p.name or p}")
            numeric[i] = (lp - lm) / (2.0 * eps)
        gflat = ga.reshape(-1)
        err = np.linalg.norm(gflat - numeric) / max(
            np.linalg.norm(gflat), np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(err))
    for p in params:
        p.grad = None
    return worst
