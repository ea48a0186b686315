import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor
from sharedformer.errors import ConfigError, ContractError, DimensionError


def rng(seed):
    return np.random.default_rng(seed)


# ---- matmul -----------------------------------------------------------------


def test_matmul_identity(float64):
    b = rng(0).normal(size=(2, 3))
    out = ad.matmul(Tensor(np.eye(2)), Tensor(b))
    np.testing.assert_allclose(out.data, b)


def test_matmul_hand_case(float64):
    out = ad.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5], [6]]))
    np.testing.assert_array_equal(out.data, [[17], [39]])


def test_matmul_against_triple_loop(float64):
    for seed in range(20):
        a = rng(seed).normal(size=(5, 4))
        b = rng(seed + 100).normal(size=(4, 3))
        expect = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for t in range(4):
                    expect[i, j] += a[i, t] * b[t, j]
        np.testing.assert_allclose(ad.matmul(Tensor(a), Tensor(b)).data, expect, atol=1e-6)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_batched_matmul_matches_per_slice(float64):
    a = rng(1).normal(size=(3, 4, 5))
    b = rng(2).normal(size=(3, 5, 2))
    out = ad.matmul(Tensor(a), Tensor(b)).data
    for h in range(3):
        np.testing.assert_allclose(out[h], a[h] @ b[h], atol=1e-12)


def test_matmul_leading_dims_against_weight(float64):
    a = Tensor(rng(3).normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng(4).normal(size=(4, 5)), requires_grad=True)
    out = ad.matmul(a, w)
    for b in range(2):
        np.testing.assert_allclose(out.data[b], a.data[b] @ w.data, atol=1e-12)
    coeff = Tensor(rng(5).normal(size=(2, 3, 5)))
    assert ad.grad_check(lambda: (ad.matmul(a, w) * coeff).sum(), [a, w], eps=1e-6) <= 1e-8


def test_matmul_four_dim_heads(float64):
    a = Tensor(rng(6).normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng(7).normal(size=(2, 3, 5, 2)), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(a, b).data, a.data @ b.data, atol=1e-12)
    coeff = Tensor(rng(8).normal(size=(2, 3, 4, 2)))
    assert ad.grad_check(lambda: (ad.matmul(a, b) * coeff).sum(), [a, b], eps=1e-6) <= 1e-8
    with pytest.raises(DimensionError):
        ad.matmul(a, Tensor(np.ones((3, 2, 5, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones((4, 5))), b)


def test_matmul_bias_matches_separate_add(float64):
    a = Tensor(rng(9).normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng(10).normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng(11).normal(size=5), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(a, w, b).data, a.data @ w.data + b.data, atol=1e-12)
    coeff = Tensor(rng(12).normal(size=(2, 3, 5)))
    assert ad.grad_check(lambda: (ad.matmul(a, w, b) * coeff).sum(), [a, w, b], eps=1e-6) <= 1e-7


def test_matmul_bias_contract():
    a = Tensor(np.ones((2, 3, 4)))
    w = Tensor(np.ones((4, 5)))
    for bad in (np.ones(4), np.ones((1, 5)), np.ones((3, 5))):
        with pytest.raises(DimensionError):
            ad.matmul(a, w, Tensor(bad))
    with pytest.raises(DimensionError):  # a bias belongs to the (k, m) weight form only
        ad.matmul(a, Tensor(np.ones((2, 4, 5))), Tensor(np.ones(5)))


# ---- softmax ----------------------------------------------------------------


def test_softmax_symmetry(float64):
    out = ad.softmax(Tensor([2.5, 2.5, 2.5]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_softmax_closed_form(float64):
    out = ad.softmax(Tensor([0.0, np.log(2.0)]))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_shift_invariance_and_sum(xs):
    with ad.precision("float64"):
        a = ad.softmax(Tensor(xs)).data
        b = ad.softmax(Tensor(np.asarray(xs) + 100.0)).data
    assert abs(a.sum() - 1.0) <= 1e-6
    assert np.all(a > 0)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        ad.softmax(Tensor(np.zeros(0)))


# ---- attention --------------------------------------------------------------


LN2 = math.log(2.0)  # attention's bias is in log2 units: times ln 2, natural ones


def _attention_inputs(seed, lengths=(5, 5), h=2, dh=3):
    """Packed q, k, v (N, h, dh) for slots of `lengths`, a (T, T) bias for the
    longest slot and an (N, h, dh) coefficient array."""
    r = rng(seed)
    N, T = sum(lengths), max(lengths)
    q, k, v = (Tensor(r.normal(size=(N, h, dh)), requires_grad=True) for _ in range(3))
    return q, k, v, r.normal(size=(T, T)), Tensor(r.normal(size=(N, h, dh)))


def _keep_masks(seed, h, lengths, p):
    r = rng(seed)
    return [r.random((h, t, t)) >= p for t in lengths]


@pytest.mark.parametrize("lengths,p", [([5, 5], 0.0), ([5, 3], 0.0), ([5, 3], 0.4)],
                         ids=["unpadded", "padded", "dropout"])
def test_attention_finite_difference(float64, lengths, p):
    q, k, v, bias, coeff = _attention_inputs(0, lengths)
    keep = _keep_masks(1, 2, lengths, p) if p else None

    def f():
        return (ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - p), lengths) * coeff).sum()

    assert ad.grad_check(f, [q, k, v], eps=1e-6) <= 1e-7


def test_attention_single_slot_matches_softmax_chain(float64):
    q, k, v, bias, _ = _attention_inputs(2, lengths=(5,))
    qh, kh, vh = (t.transpose((1, 0, 2)) for t in (q, k, v))  # (h, T, dh)
    # attention's bias is in log2 units, the softmax's in natural ones
    weights = ad.softmax(ad.matmul(qh, kh.transpose((0, 2, 1))) + Tensor(bias * LN2))
    np.testing.assert_allclose(ad.attention(q, k, v, bias).data,
                               ad.matmul(weights, vh).data.transpose(1, 0, 2), atol=1e-12)


def test_attention_slots_are_isolated(float64):
    lengths = [5, 2]
    q, k, v, bias, coeff = _attention_inputs(3, lengths)
    out = ad.attention(q, k, v, bias, _keep_masks(4, 2, lengths, 0.3), 1 / 0.7, lengths)
    coeff.data[:5] = 0.0  # a loss on the second slot only
    (out * coeff).sum().backward()
    for t in (q, k, v):  # the first slot's rows neither feed nor receive anything
        assert np.all(t.grad[:5] == 0.0)
    # the second slot's rows match the same slot run alone
    short = [Tensor(t.data[5:]) for t in (q, k, v)]
    ref = ad.attention(*short, bias[:2, :2], _keep_masks(4, 2, lengths, 0.3)[1:], 1 / 0.7)
    np.testing.assert_array_equal(out.data[5:], ref.data)


def test_attention_graph_and_no_grad_forward_agree(float64):
    q, k, v, bias, _ = _attention_inputs(5, [4, 5])
    keep = _keep_masks(6, 2, [4, 5], 0.2)
    graph = ad.attention(q, k, v, bias, keep, 1.25, [4, 5])
    with ad.no_grad():
        plain = ad.attention(q, k, v, bias, keep, 1.25, [4, 5])
    assert graph.requires_grad and not plain.requires_grad
    np.testing.assert_array_equal(graph.data, plain.data)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("lengths", [[70, 41], [200]], ids=["desk", "long"])
def test_attention_float_and_bool_masks_give_the_same_bits(precision, lengths):
    # the block casts its masks to 0/1 floats once; e * 1.0 and e * 0.0 are
    # the products a bool mask's cast gives, forward and backward alike
    r = rng(sum(lengths))
    N, T = sum(lengths), max(lengths)
    data = [r.normal(size=(N, 2, 8)) for _ in range(3)]
    bias = r.normal(size=(T, T)).astype(precision)
    coeff = r.normal(size=(N, 2, 8))
    masks = _keep_masks(3, 2, lengths, 0.3)
    results = []
    with ad.precision(precision):
        for keep in (masks, [m.astype(precision) for m in masks]):
            with ad.no_grad():
                plain = ad.attention(*(Tensor(a) for a in data), bias, keep, 1 / 0.7, lengths)
            q, k, v = (Tensor(a, requires_grad=True) for a in data)
            out = ad.attention(q, k, v, bias, keep, 1 / 0.7, lengths)
            (out * Tensor(coeff)).sum().backward()
            results.append([plain.data, out.data, q.grad, k.grad, v.grad])
    for got, want in zip(*results):
        assert got.dtype == precision
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_exp2_is_within_the_band_proofs_error(dtype):
    # the row-sum band proof beside `ad._BAND` assumes exp2 within 4 ulp of
    # the exact power for normal results, and within the smallest normal of
    # it for subnormal ones, over the whole exponent range; the reference is
    # exp2 in float64 for float32 and in the longer long double for float64
    info = np.finfo(dtype)
    wide = np.float64 if dtype == np.float32 else np.longdouble
    if np.finfo(wide).nmant <= info.nmant + 8:
        pytest.skip("this platform's long double is no wider than float64")
    lo, hi = info.minexp - info.nmant, info.maxexp  # 2^lo is the smallest subnormal
    r = rng(info.bits)
    x = np.concatenate([np.linspace(lo, hi, 200_001), r.uniform(lo, hi, 200_000),
                        r.uniform(-60.0, 60.0, 200_000)]).astype(dtype)
    x = x[x < hi]  # 2^hi overflows
    got = np.exp2(x).astype(wide)
    want = np.exp2(x.astype(wide))
    normal = want >= info.smallest_normal
    ulp = np.spacing(want[normal].astype(dtype)).astype(wide)
    assert np.all(np.abs(got[normal] - want[normal]) <= 4 * ulp)
    assert np.all(np.abs(got[~normal] - want[~normal]) <= info.smallest_normal)
    assert np.exp2(dtype(-np.inf)) == 0.0 and np.isnan(np.exp2(dtype(np.nan)))


@pytest.fixture
def small_tiles(monkeypatch):
    """Tiles of a few query rows (6 at 13 float32 frames, 3 at 13 float64
    frames, with a shorter last tile)."""
    monkeypatch.setattr(ad, "_TILE_BYTES", 700)


def _brute_attention(q, k, v, bias, keep, scale, lengths):
    """Per slot of packed rows, in float64: logits with `bias` converted from
    attention's log2 units to natural ones, max-shifted softmax, dropout,
    weights @ v."""
    q, k, v = (np.asarray(t, np.float64).transpose(1, 0, 2) for t in (q, k, v))  # (h, N, d)
    bias = np.asarray(bias, np.float64)  # converted in float64, not the bias's dtype
    out = np.zeros(v.shape)
    at = 0
    for b, t in enumerate(lengths or [q.shape[1]]):
        rows = slice(at, at + t)
        logits = q[:, rows] @ np.swapaxes(k[:, rows], -1, -2) + bias[:t, :t] * LN2
        p = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        if keep is not None:
            p = p * keep[b] * scale
        out[:, rows] = p @ v[:, rows]
        at += t
    return out.transpose(1, 0, 2)


_TILED = pytest.mark.parametrize("lengths,p", [([13, 13], 0.0), ([13, 7], 0.0), ([13, 7], 0.3)],
                                 ids=["unpadded", "padded", "dropout"])


@_TILED
def test_attention_tiles_match_brute_force(float64, small_tiles, lengths, p):
    q, k, v, bias, _ = _attention_inputs(10, lengths)
    keep = _keep_masks(11, 2, lengths, p) if p else None
    out = ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - p), lengths)
    ref = _brute_attention(q.data, k.data, v.data, bias, keep, 1.0 / (1.0 - p), lengths)
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)


@_TILED
def test_attention_tiles_finite_difference(float64, small_tiles, lengths, p):
    lengths = [9, 9] if lengths[1] == 13 else [9, 5]
    q, k, v, bias, coeff = _attention_inputs(12, lengths)
    keep = _keep_masks(13, 2, lengths, p) if p else None

    def f():
        return (ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - p), lengths) * coeff).sum()

    assert ad.grad_check(f, [q, k, v], eps=1e-6) <= 1e-7


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_tiled_padded_slot_equals_slot_alone(small_tiles, p):
    lengths = [13, 11]
    q, k, v, bias, _ = _attention_inputs(14, lengths)
    bias = bias.astype(np.float32)
    keep = _keep_masks(15, 2, lengths, p) if p else None
    with ad.no_grad():
        out = ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - p), lengths)
        alone = ad.attention(*(Tensor(t.data[13:]) for t in (q, k, v)), bias[:11, :11],
                             keep and keep[1:], 1.0 / (1.0 - p))
    np.testing.assert_array_equal(out.data[13:], alone.data)


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_tiled_graph_and_no_grad_agree(small_tiles, p):
    q, k, v, bias, _ = _attention_inputs(16, [13, 8])
    bias = bias.astype(np.float32)
    keep = _keep_masks(17, 2, [13, 8], p) if p else None
    graph = ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - p), [13, 8])
    with ad.no_grad():
        plain = ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - p), [13, 8])
    np.testing.assert_array_equal(graph.data, plain.data)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("gain", [40.0, 400.0])
def test_attention_large_logits_take_the_shift(small_tiles, precision, gain):
    # row maxima far outside the band: exp without the shift would overflow
    q, k, v, bias, _ = _attention_inputs(18, [13, 9])
    with ad.precision(precision):
        q, k, v = (Tensor(t.data * (gain if t is q else 1.0)) for t in (q, k, v))
        bias = (gain * bias).astype(precision)
        out = ad.attention(q, k, v, bias, lengths=[13, 9])
    ref = _brute_attention(q.data, k.data, v.data, bias, None, 1.0, [13, 9])
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-3 if precision == "float32" else 1e-10)


@pytest.mark.parametrize("top", [-19.5, 19.5, -25.0, 25.0, -300.0, 300.0])
def test_attention_row_maxima_near_the_band(small_tiles, top):
    # logits = bias: each row's natural maximum is `top`, the rest spread far
    # below it, down to terms whose exp2 flushes to zero without the shift
    T = 13
    spread = rng(19).uniform(-200.0, -0.5, size=(T, T))
    spread[np.arange(T), rng(20).integers(0, T, size=T)] = 0.0
    bias = ((top + spread) * ad.LOG2E).astype(np.float32)
    zeros = Tensor(np.zeros((T, 2, 3), np.float32))
    v = rng(21).normal(size=(T, 2, 4)).astype(np.float32)
    out = ad.attention(zeros, zeros, Tensor(v), bias)
    ref = _brute_attention(zeros.data, zeros.data, v, bias, None, 1.0, None)
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-6)


def test_attention_contract():
    q, k, v, bias, _ = _attention_inputs(7)
    with pytest.raises(DimensionError):
        ad.attention(q, Tensor(k.data[:9]), v)
    with pytest.raises(DimensionError):
        ad.attention(q, k, v, bias[:4, :4], lengths=[5, 5])
    with pytest.raises(DimensionError):
        ad.attention(q, k, v, keep=_keep_masks(0, 2, [5, 4], 0.1), lengths=[5, 5])
    with pytest.raises(ContractError):
        ad.attention(q, k, v, lengths=[10, 0])
    with pytest.raises(ContractError):
        ad.attention(q, k, v, lengths=[5])


# ---- layer_norm -------------------------------------------------------------


def test_layer_norm_constant_vector(float64):
    out = ad.layer_norm(Tensor([3.0] * 5), Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.max(np.abs(out.data)) <= np.sqrt(1e-5)


def test_layer_norm_two_points(float64):
    out = ad.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_rejects_scalar_axis():
    with pytest.raises(DimensionError):
        ad.layer_norm(Tensor([1.0]), Tensor([1.0]), Tensor([0.0]))


def test_layer_norm_gradient(float64):
    x = Tensor(rng(0).normal(size=6), requires_grad=True)
    g = Tensor(rng(1).normal(size=6), requires_grad=True)
    b = Tensor(rng(2).normal(size=6), requires_grad=True)
    err = ad.grad_check(lambda: ad.layer_norm(x, g, b).sum(), [x, g, b])
    assert err <= 1e-4


# ---- depthwise conv ---------------------------------------------------------


def test_depthwise_delta_kernel(float64):
    x = rng(0).normal(size=(6, 2))
    kernel = np.zeros((3, 2))
    kernel[1, 0] = 1.0  # identity on channel 0
    out = ad.depthwise_conv1d(Tensor(x), Tensor(kernel)).data
    np.testing.assert_allclose(out[:, 0], x[:, 0])
    np.testing.assert_allclose(out[:, 1], 0.0)


def test_depthwise_box_kernel(float64):
    out = ad.depthwise_conv1d(Tensor([[1.0], [2.0], [3.0]]), Tensor([[1.0], [1.0], [1.0]]))
    np.testing.assert_array_equal(out.data[:, 0], [3.0, 6.0, 5.0])


def test_depthwise_even_kernel_rejected():
    with pytest.raises(ConfigError):
        ad.depthwise_conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((4, 2))))


def test_depthwise_against_sliding_window(float64):
    for seed in range(20):
        T, d, k = 9, 3, 5
        x = rng(seed).normal(size=(T, d))
        kernel = rng(seed + 50).normal(size=(k, d))
        expect = np.zeros((T, d))
        pad = k // 2
        for t in range(T):
            for c in range(d):
                for j in range(k):
                    src = t + j - pad
                    if 0 <= src < T:
                        expect[t, c] += kernel[j, c] * x[src, c]
        out = ad.depthwise_conv1d(Tensor(x), Tensor(kernel)).data
        np.testing.assert_allclose(out, expect, atol=1e-6)


def test_depthwise_batch_matches_per_row(float64):
    lengths = [7, 2, 5]
    x = Tensor(rng(9).normal(size=(14, 2)), requires_grad=True)
    kernel = Tensor(rng(10).normal(size=(5, 2)), requires_grad=True)
    out = ad.depthwise_conv1d(x, kernel, lengths).data
    for rows in (slice(0, 7), slice(7, 9), slice(9, 14)):  # each slot as if alone
        np.testing.assert_allclose(out[rows], ad.depthwise_conv1d(Tensor(x.data[rows]),
                                                                  kernel).data, atol=1e-12)
    coeff = Tensor(rng(11).normal(size=(14, 2)))
    assert ad.grad_check(lambda: (ad.depthwise_conv1d(x, kernel, lengths) * coeff).sum(),
                         [x, kernel], eps=1e-6) <= 1e-8


# ---- reduction vectors ------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reduction_vectors_are_cached_read_only_and_exact(monkeypatch, dtype):
    monkeypatch.setattr(ad, "_fills", {})
    dtype = np.dtype(dtype)
    for n, scale in ((5, 1.0), (40, 1.0), (7, 1.0), (16, 1.0 / 16), (7, 1.0 / 0.9),
                     (40, 1.0), (1, 1.0), (3, 1.0 / 16)):
        fill = ad._fill_vector(n, scale, dtype)
        np.testing.assert_array_equal(fill, np.full(n, scale, dtype))
        assert fill.dtype == dtype and not fill.flags.writeable
    # one buffer per (scale, dtype), grown to the longest n asked for
    assert {key: buf.shape for key, buf in ad._fills.items()} == {
        (1.0, dtype): (40,), (1.0 / 16, dtype): (16,), (1.0 / 0.9, dtype): (7,)}
    x = rng(0).normal(size=(33, 16)).astype(dtype)
    np.testing.assert_array_equal(ad._sum_rows(x), np.ones(33, dtype) @ x)
    np.testing.assert_array_equal(ad._sum_last(x, 0.25),
                                  (x @ np.full(16, 0.25, dtype))[:, None])


# ---- backward ---------------------------------------------------------------


def test_backward_sum_gives_ones(float64):
    x = Tensor(rng(0).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_zero_scale_gives_zeros(float64):
    x = Tensor(rng(0).normal(size=5), requires_grad=True)
    (x * 0.0).sum().backward()
    np.testing.assert_array_equal(x.grad, np.zeros(5))


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_backward_accumulates_on_reuse(float64):
    # one leaf feeding two separate nodes must sum both contributions
    w = Tensor(rng(0).normal(size=(3, 3)), requires_grad=True)
    a = Tensor(rng(1).normal(size=(3, 3)))
    b = Tensor(rng(2).normal(size=(3, 3)))
    (ad.matmul(w, a).sum() + ad.matmul(w, b).sum()).backward()
    expect = np.ones((3, 3)) @ a.data.T + np.ones((3, 3)) @ b.data.T
    np.testing.assert_allclose(w.grad, expect, atol=1e-12)


def test_backward_self_sum_doubles(float64):
    x = Tensor(rng(0).normal(size=(2, 3)), requires_grad=True)
    (x + x).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_leaf_grad_from_reduction_is_writable(float64):
    # sum/mean backward hand out read-only broadcast views of one value
    for reduce in (lambda t: t.sum(axis=0), lambda t: t.mean(axis=1, keepdims=True)):
        x = Tensor(rng(1).normal(size=(3, 4)), requires_grad=True)
        reduce(x).sum().backward()
        assert x.grad.flags.writeable and x.grad.shape == (3, 4)
        x.grad += 1.0


def test_leaf_grads_share_no_memory(float64):
    # add hands the same g to both operands, reshape/transpose hand out views
    a = Tensor(rng(2).normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng(3).normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng(4).normal(size=(4, 3)), requires_grad=True)
    d = Tensor(rng(5).normal(size=(12,)), requires_grad=True)
    h = a + b + c.transpose((1, 0)) + d.reshape(3, 4)
    (h * 2.0).sum().backward()
    grads = [a.grad, b.grad, c.grad, d.grad]
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            assert not np.shares_memory(grads[i], grads[j])


@pytest.mark.parametrize("key", [(Ellipsis, slice(None, 3)), (Ellipsis, slice(3, None)),
                                 np.array([0, 2, 2])], ids=["low-half", "high-half", "repeated"])
def test_getitem_gradient_against_add_at(float64, key):
    x = Tensor(rng(6).normal(size=(3, 2, 6)), requires_grad=True)
    coeff = rng(7).normal(size=x.data[key].shape)
    (x[key] * Tensor(coeff)).sum().backward()
    expect = np.zeros_like(x.data)
    np.add.at(expect, key, coeff)
    np.testing.assert_array_equal(x.grad, expect)
    if isinstance(key, np.ndarray):  # the repeated row is counted twice
        x.grad = None
        x[key].sum().backward()
        np.testing.assert_array_equal(x.grad[:, 0, 0], [1.0, 0.0, 2.0])


def test_backward_releases_the_graph(float64):
    w = Tensor(rng(0).normal(size=(3, 3)), requires_grad=True)
    h = ad.swish(ad.matmul(Tensor(rng(1).normal(size=(2, 3))), w))
    loss = (h * 2.0).sum()
    loss.backward()
    for node in (h, loss):
        assert node._parents == () and node._backward is None
    assert h.grad is None and w.grad is not None


def test_no_grad_builds_no_graph(float64):
    w = Tensor(rng(0).normal(size=(3, 3)), requires_grad=True)
    with ad.no_grad():
        y = ad.softmax(ad.matmul(w, w) + 1.0)
    assert y._parents == () and y._backward is None and not y.requires_grad
    z = ad.matmul(w, w)  # recording resumes after the block
    assert z.requires_grad and z._parents


def test_composed_ops_finite_difference(float64):
    x = Tensor(rng(3).normal(size=(4, 5)), requires_grad=True)
    w = Tensor(rng(4).normal(size=(5, 6)), requires_grad=True)
    gamma = Tensor(np.ones(6), requires_grad=True)
    beta = Tensor(np.zeros(6), requires_grad=True)
    coeff = Tensor(rng(5).normal(size=(4, 6)))

    def f():
        h = ad.layer_norm(ad.matmul(x, w), gamma, beta)
        return (ad.softmax(h) * coeff).sum()

    assert ad.grad_check(f, [x, w, gamma, beta], eps=1e-6) <= 1e-7


def test_composed_ops_finite_difference_float32():
    ad.set_default_dtype("float32")
    x = Tensor(rng(3).normal(size=(4, 5)), requires_grad=True)
    w = Tensor(rng(4).normal(size=(5, 6)), requires_grad=True)
    coeff = Tensor(rng(5).normal(size=(4, 6)))

    def f():
        return (ad.softmax(ad.matmul(x, w)) * coeff).sum()

    # forward in float32, probed with a coarse step
    assert ad.grad_check(f, [x, w], eps=1e-2) <= 1e-1


# ---- grad_check oracle ------------------------------------------------------


def test_grad_check_linear_is_exact(float64):
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    c = Tensor(np.array([[3.0]]))
    assert ad.grad_check(lambda: (w * c).sum(), [w]) <= 1e-10


def test_grad_check_quadratic(float64):
    w = Tensor(np.array([[3.0]]), requires_grad=True)
    assert ad.grad_check(lambda: (w * w).sum(), [w], eps=1e-4) <= 1e-7


def test_grad_check_eps_contract():
    w = Tensor(np.array([[1.0]]), requires_grad=True)
    with pytest.raises(ContractError):
        ad.grad_check(lambda: (w * w).sum(), [w], eps=0.5)


@pytest.mark.parametrize("seed", range(20))
def test_every_op_gradient_randomized(float64, seed):
    r = rng(seed)
    x = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(4, 4)), requires_grad=True)
    gamma = Tensor(r.normal(size=4) + 1.0, requires_grad=True)
    beta = Tensor(r.normal(size=4), requires_grad=True)
    kernel = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    coeff = Tensor(r.normal(size=(3, 4)))

    def f():
        h = ad.matmul(x, w)
        h = ad.layer_norm(h, gamma, beta)
        h = ad.depthwise_conv1d(h, kernel)
        h = ad.swish(h) + ad.sigmoid(h)
        h = ad.softmax(h, axis=-1)
        return (h * coeff).abs().mean()

    assert ad.grad_check(f, [x, w, gamma, beta, kernel], eps=1e-6) <= 1e-4


def test_precision_context_restores():
    before = ad.get_default_dtype()
    with ad.precision("float64"):
        assert ad.get_default_dtype() == np.float64
    assert ad.get_default_dtype() == before


def test_unknown_precision_rejected():
    with pytest.raises(ConfigError):
        ad.set_default_dtype("float16")
