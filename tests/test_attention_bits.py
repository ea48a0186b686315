"""The attention core against its frozen predecessor, bit for bit.

`reference_attention` keeps the forward and backward from before the tiles
shared one scratch array and the shift was decided from the row sums; it
reads the keys from the same per-call (h, dh, N) copy. Every case here
compares outputs, the saved block and row sums, and the q, k and v gradients
with `np.array_equal`: on both sides of the band (logit gains x1, x40 and
x400), on both sides of a tile boundary, with a one-row last tile, with
one-row tiles wider than the tile budget, on slots of 1 to 800 frames,
short ones included, packed, with and without bias and dropout, in a graph
and without one, in float32 and float64, with narrow and wide heads. The
logits read from the key copy are checked against the strided product of
the packed rows to a rounding bound, since BLAS may sum the two in
different orders. Biases are in the core's log2 units; the band
cases state their row maxima in natural units and convert them.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import reference_attention as ref
from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor

# 571 frames: tiles of 114 float32 (57 float64) rows at 2 heads, and a one-row last tile
LENGTHS = [[1], [40], [50], [63], [64], [65], [200], [257], [800],
           [800, 40, 257, 1], [65, 64, 63, 1], [40, 200, 63], [571, 9]]
# (lengths, head width): heads of 8, and one packed case with heads of 32
CASES = [pytest.param(ls, 8, id="+".join(map(str, ls))) for ls in LENGTHS] + [
    pytest.param([800, 40, 257, 1], 32, id="800+40+257+1-dh32")]


def _inputs(seed, lengths, h, dh, dtype, gain):
    r = np.random.default_rng(seed)
    N, T = sum(lengths), max(lengths)
    q, k, v = (r.normal(size=(N, h, dh)).astype(dtype) for _ in range(3))
    q *= gain
    return q, k, v, (gain * r.normal(size=(T, T))).astype(dtype), r


def _assert_same(q, k, v, bias, keep, scale, lengths, graph, r):
    out, saved = ad._attend(q, k, v, bias, keep, scale, lengths, graph)
    want, want_saved = ref.attend(q, k, v, bias, keep, scale, lengths, graph)
    np.testing.assert_array_equal(out, want)
    if not graph:
        return
    for (e, s), (e_ref, s_ref) in zip(saved, want_saved):
        np.testing.assert_array_equal(e, e_ref)
        np.testing.assert_array_equal(s, s_ref)
    g = r.normal(size=out.shape).astype(out.dtype)
    need = (True, True, True)
    for got, exp in zip(ad._attend_grads(g, q, k, v, out, saved, keep, scale, lengths, need),
                        ref.attend_grads(g, q, k, v, want, want_saved, keep, scale, lengths,
                                         need)):
        np.testing.assert_array_equal(got, exp)


def _assert_same_with_and_without_graph(q, k, v, bias, lengths, r):
    with np.errstate(over="ignore", invalid="ignore"):  # gain x400 overflows both sides alike
        for with_bias, p, graph in itertools.product((False, True), (0.0, 0.3), (False, True)):
            keep = [r.random((q.shape[1], t, t)) >= p for t in lengths] if p else None
            _assert_same(q, k, v, bias if with_bias else None, keep, 1.0 / (1.0 - p), lengths,
                         graph, r)


@pytest.mark.parametrize("gain", [1.0, 40.0, 400.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("lengths,dh", CASES)
def test_attention_is_bitwise_the_reference(lengths, dh, dtype, gain):
    q, k, v, bias, r = _inputs(sum(lengths), lengths, 2, dh, dtype, gain)
    _assert_same_with_and_without_graph(q, k, v, bias, lengths, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_slot_past_the_tile_budget_takes_one_row_tiles(monkeypatch, dtype):
    # a 100-cell budget: a 101-frame slot's tiles are single rows wider than
    # the budget, so the no-graph scratch array must hold one more cell
    h, cells = 2, 100
    monkeypatch.setattr(ad, "_TILE_BYTES", h * np.dtype(dtype).itemsize * cells)
    lengths = [cells + 1, 40, cells + 1]
    q, k, v, bias, r = _inputs(12, lengths, h, 8, dtype, 1.0)
    _assert_same_with_and_without_graph(q, k, v, bias, lengths, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("dh", [2, 8, 31, 32, 128])
@pytest.mark.parametrize("T", [64, 200, 800])
def test_copied_keys_give_the_strided_product_to_rounding(T, dh, dtype):
    # the core reads a slot's keys as columns of the call's (h, dh, N) copy,
    # scaled by log2(e); BLAS may sum q k^T's dot products in another order
    # there than on the strided view of the packed rows, scaled alike. Each
    # computed sum of dh products is within about dh u of sum |q_i k_i| of
    # the exact one (u the unit roundoff), so the two are within twice that
    # of each other
    r = np.random.default_rng(T + dh)
    k = r.normal(size=(T + 750, 2, dh)).astype(dtype)
    view = k[750:].transpose(1, 2, 0) * ad.LOG2E  # keeps the packed rows' strides
    copy = (k.transpose(1, 2, 0) * ad.LOG2E).copy()[:, :, 750:]
    assert not view.flags.c_contiguous
    q = r.normal(size=(2, 81, dh)).astype(dtype)
    for rows in (1, 2, 81):
        qt = q[:, :rows]
        got = ad._logits(qt, copy, None, 0, np.empty((2, rows, T), dtype))
        bound = 2 * dh * np.finfo(dtype).eps * (np.abs(qt) @ np.abs(copy))
        assert np.all(np.abs(qt @ view - got) <= bound)


def _count_logits(monkeypatch):
    calls = []
    original = ad._logits

    def counted(*args):
        calls.append(args[0].shape[1])
        return original(*args)

    monkeypatch.setattr(ad, "_logits", counted)
    return calls


@pytest.mark.parametrize("T", [64, 200, 800])
@pytest.mark.parametrize("top,fallback", [(10.0, False), (-19.5, True), (19.995, True),
                                          (-19.999, True), (25.0, True), (-25.0, True)])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_row_sums_outside_the_bounds_take_the_row_max_path(monkeypatch, T, top, fallback, p):
    # logits = bias: each row's natural maximum is `top`, its other terms far
    # below, so within the band (|top| <= 20) the row sum is about e^top:
    # below T e^-19.99 at -19.5 and above e^19.99 at 19.995, where the
    # speculative exp2 is discarded although the reference skips the shift too
    r = np.random.default_rng(int(T + 1000 * abs(top)))
    spread = r.uniform(-60.0, -30.0, size=(T, T))
    spread[np.arange(T), r.integers(0, T, size=T)] = 0.0
    bias = ((top + spread) * ad.LOG2E).astype(np.float32)
    zeros = np.zeros((T, 2, 8), np.float32)
    v = r.normal(size=(T, 2, 8)).astype(np.float32)
    keep = [r.random((2, T, T)) >= p] if p else None
    calls = _count_logits(monkeypatch)
    for graph in (False, True):
        calls.clear()
        _assert_same(zeros, zeros, v, bias, keep, 1.0 / (1.0 - p), [T], graph, r)
        tiles = len(range(0, T, max(1, ad._TILE_BYTES // (2 * 4) // T)))
        assert len(calls) == tiles + fallback  # only the first failing tile is exp'd twice


def test_a_failed_tile_ends_the_calls_speculation(monkeypatch):
    # every logit is 72 (104 in base 2), far above the band: the call's first
    # tile is exp'd twice, the other nine of the 800-frame slot and the
    # 200-frame slot once
    q = np.full((1000, 2, 8), 3.0, np.float32)
    v = np.random.default_rng(9).normal(size=q.shape).astype(np.float32)
    calls = _count_logits(monkeypatch)
    for graph in (False, True):
        calls.clear()
        _assert_same(q, q, v, None, None, 1.0, [800, 200], graph, np.random.default_rng(10))
        assert len(calls) == 10 + 1 + 1


def test_a_failed_short_first_slot_ends_the_calls_speculation(monkeypatch):
    # every logit is 72, far above the band: the 40-frame slot's one tile is
    # exp'd twice, the 800-frame slot's ten tiles once each
    q = np.full((840, 2, 8), 3.0, np.float32)
    v = np.random.default_rng(11).normal(size=q.shape).astype(np.float32)
    calls = _count_logits(monkeypatch)
    for graph in (False, True):
        calls.clear()
        _assert_same(q, q, v, None, None, 1.0, [40, 800], graph, np.random.default_rng(12))
        assert calls == [40, 40] + [81] * 9 + [71]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("T", [40, 63])
def test_a_short_slot_is_the_same_alone_as_behind_a_failed_slot(T, dtype):
    # the first slot's logits (about 72) fail the row-sum check, so the short
    # slot behind it takes the row-max path, which skips the shift on its
    # in-band logits; alone, it passes the check. The bits agree
    lengths = [200, T]
    q, k, v, bias, r = _inputs(T, lengths, 2, 8, dtype, 1.0)
    q[:200] = k[:200] = 3.0
    for p, graph in itertools.product((0.0, 0.3), (False, True)):
        keep = [r.random((2, t, t)) >= p for t in lengths] if p else None
        out, saved = ad._attend(q, k, v, bias, keep, 1.0 / (1.0 - p), lengths, graph)
        alone, alone_saved = ad._attend(q[200:], k[200:], v[200:], bias[:T, :T],
                                        keep and keep[1:], 1.0 / (1.0 - p), [T], graph)
        np.testing.assert_array_equal(out[200:], alone)
        for got, want in zip(saved[1:], alone_saved):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def test_the_speculative_pass_adds_no_warning():
    # NaN and inf inputs: the reference's warnings, and no more
    T = 200
    q, k, v, bias, r = _inputs(5, [T], 2, 8, np.float32, 1.0)
    q[3, 0, 0] = np.nan
    k[7, 1, 2] = np.inf
    bias[11, :] = 300.0  # a row whose exp2 overflows without the shift

    def caught(fn):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out, _ = fn(q, k, v, bias, None, 1.0, [T], False)
        return out, sorted(str(w.message) for w in seen)

    out, seen = caught(ad._attend)
    want, want_seen = caught(ref.attend)
    np.testing.assert_array_equal(out, want)
    assert seen == want_seen and seen


def test_forward_only_call_peaks_at_one_tile():
    # one scratch tile for all of a slot's tiles, plus O(N h dh) arrays: the
    # output, the keys' copy, one tile's products and row sums
    T, h, dh = 800, 2, 8
    q, k, v, bias, _ = _inputs(7, [T], h, dh, np.float32, 1.0)
    with ad.no_grad():
        ad.attention(Tensor(q), Tensor(k), Tensor(v), bias)
        tracemalloc.start()
        try:
            ad.attention(Tensor(q), Tensor(k), Tensor(v), bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < ad._TILE_BYTES + 5 * T * h * (dh + 1) * 4
