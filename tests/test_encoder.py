import contextlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sharedformer import autodiff as ad
from sharedformer import encoder
from sharedformer.autodiff import Tensor
from sharedformer.config import RunConfig, apply_preset
from sharedformer.encoder import (ConformerConfig, ParameterStore, conformer_block, forward,
                                  load_checkpoint, pack, param_count,
                                  relative_position_bias, sample_depth, save_checkpoint,
                                  sli_forward, store_from_checkpoint)
from sharedformer.errors import ConfigError, ContractError
from sharedformer.rng import substream
from sharedformer.training import mpc_loss, predictor_apply


def rng(seed):
    return np.random.default_rng(seed)


def tiny_config(**overrides):
    base = dict(input_dim=5, model_dim=6, num_heads=2, ff_dim=7, conv_kernel=3,
                max_layers=3, share_params=True, dropout=0.1)
    base.update(overrides)
    return ConformerConfig(**base)


def desk_store(seed=0, **overrides):
    cfg = ConformerConfig(**overrides) if overrides else ConformerConfig()
    return ParameterStore.init(cfg, substream(seed, "init"))


# ---- config contracts -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ConformerConfig(model_dim=10, num_heads=4)
    with pytest.raises(ConfigError):
        ConformerConfig(conv_kernel=4)
    with pytest.raises(ConfigError):
        ConformerConfig(max_layers=0)
    for name in ("input_dim", "model_dim", "num_heads", "ff_dim", "conv_kernel"):
        with pytest.raises(ConfigError, match=name):
            ConformerConfig(**{name: -1})


# ---- block ------------------------------------------------------------------


def test_block_preserves_shape(float64):
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(0, "init"))
    for T in (1, 4, 11):
        x = Tensor(rng(T).normal(size=(T, cfg.model_dim)))
        out = conformer_block(x, store.layer_group(0), cfg, [T])
        assert out.shape == (T, cfg.model_dim)


def _tensors_created(fn):
    start = next(ad._ids)
    fn()
    return next(ad._ids) - start - 1


@pytest.mark.parametrize("dropout,count", [(False, 5), (True, 5)])
def test_block_graph_size(dropout, count):
    store = desk_store()
    x = Tensor(rng(0).normal(size=(20, 16)))
    assert _tensors_created(lambda: conformer_block(
        x, store.layer_group(0), store.config, [20], [rng(1)] if dropout else None)) == count


def test_block_zero_weights_reduces_to_layer_norm(float64):
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(0, "init"))
    group = store.layer_group(0)
    for name, p in group.items():
        if not name.endswith(("norm.gamma", "norm.beta")):
            p.data[:] = 0.0
    x = Tensor(rng(5).normal(size=(9, cfg.model_dim)))
    out = conformer_block(x, group, cfg, [9])
    expect = ad.layer_norm(x, group["out.norm.gamma"], group["out.norm.beta"])
    np.testing.assert_allclose(out.data, expect.data, atol=1e-12)


def test_block_gradient_finite_difference(float64):
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(1, "init"))
    group = store.layer_group(0)
    x = rng(2).normal(size=(4, cfg.model_dim))
    coeff = Tensor(rng(3).normal(size=(4, cfg.model_dim)))

    def f():
        return (conformer_block(Tensor(x), group, cfg, [4]) * coeff).sum()

    assert ad.grad_check(f, list(group.values()), eps=1e-6) <= 1e-4


def test_padded_batch_gradient_finite_difference(float64):
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(1, "init"))
    lengths = [6, 3, 5]
    x = rng(2).normal(size=(14, cfg.input_dim))
    coeff = rng(3).normal(size=(14, cfg.model_dim))

    def f():
        dropout = [substream(0, "dropout", 1, slot) for slot in range(3)]
        out, _ = forward(Tensor(x), store, 2, rngs=dropout, lengths=lengths)
        return (out * Tensor(coeff)).sum()

    assert ad.grad_check(f, [p for _, p in store.named_parameters()], eps=1e-6) <= 1e-4


def test_attention_rows_sum_to_one(float64, monkeypatch):
    recorded = []
    original = ad._attend

    def spy(q, k, v, *args):
        recorded.append((q, k, v.shape, args))
        return original(q, k, v, *args)

    monkeypatch.setattr(ad, "_attend", spy)
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(4, "init"))
    conformer_block(Tensor(rng(0).normal(size=(7, cfg.model_dim))), store.layer_group(0),
                    cfg, [7])
    assert recorded
    for q, k, v_shape, args in recorded:
        # with v = 1 each output is the sum of its row of attention weights
        out, _ = original(q, k, np.ones(v_shape[:-1] + (1,)), *args)
        np.testing.assert_allclose(out, 1.0, atol=1e-6)


def _composite_attention(x, g, cfg, rngs, lengths):
    """The attention module as a chain of plain ops on a zero-padded (B, T, d)
    batch: full (B, h, T, T) logits with a -inf key-padding bias, softmax, and
    a float inverted-dropout mask."""
    B, T, d = x.shape
    h, dh, p = cfg.num_heads, cfg.head_dim, cfg.dropout
    n = ad.layer_norm(x, g["attn.norm.gamma"], g["attn.norm.beta"])

    def heads(t):
        return t.reshape(B, T, h, dh).transpose((0, 2, 1, 3))

    q = heads(ad.matmul(n, g["attn.wq"], g["attn.bq"])) * (1.0 / np.sqrt(dh))
    k = heads(n @ g["attn.wk"])
    v = heads(ad.matmul(n, g["attn.wv"], g["attn.bv"]))
    real = np.arange(T) < np.asarray(lengths)[:, None]
    # the position bias comes in attention's log2 units: times ln 2 for softmax
    bias = np.where(real, 0.0, -np.inf)[:, None, None, :] + relative_position_bias(
        T, dh, np.float64) * math.log(2.0)
    weights = ad.softmax(ad.matmul(q, k.transpose((0, 1, 3, 2))) + Tensor(bias))
    mask = np.zeros(weights.shape)
    for b, (r, t) in enumerate(zip(rngs, lengths)):
        mask[b, :, :t, :t] = (r.random((h, t, t)) >= p) / (1.0 - p)
    ctx = ad.matmul(weights * Tensor(mask), v).transpose((0, 2, 1, 3)).reshape(B, T, d)
    return ad.matmul(ctx, g["attn.wo"], g["attn.bo"])


def test_attention_matches_composite_chain(float64):
    cfg = tiny_config(dropout=0.3)
    group = ParameterStore.init(cfg, substream(2, "init")).layer_group(0)
    lengths = [6, 4, 2]
    real = (np.arange(6) < np.asarray(lengths)[:, None])[..., None]
    rows = real[..., 0]  # the packed rows, slot by slot, out of the padded (3, 6) grid
    x_pad = rng(7).normal(size=(3, 6, cfg.model_dim))
    coeff = rng(8).normal(size=(3, 6, cfg.model_dim)) * real

    def node(x, rngs):
        keep = [r.random((cfg.num_heads, t, t)) >= cfg.dropout for r, t in zip(rngs, lengths)]
        bias = relative_position_bias(6, cfg.head_dim, np.float64)
        return ad.self_attention(x, *encoder._module_params(group, "attn"),
                                 cfg.num_heads, bias, keep, 1.0 / (1.0 - cfg.dropout), lengths)

    def padded(a):
        out = np.zeros((3, 6, cfg.model_dim))
        out[rows] = a
        return out

    outs, grads = [], []
    for packed, attend in ((True, node),
                           (False, lambda x, rngs: x + _composite_attention(
                               x, group, cfg, rngs, lengths))):
        x = Tensor(x_pad[rows] if packed else x_pad, requires_grad=True)
        out = attend(x, [substream(0, "dropout", 3, slot) for slot in range(3)])
        (out * Tensor(coeff[rows] if packed else coeff)).sum().backward()
        outs.append(padded(out.data) if packed else out.data * real)
        grads.append({name: p.grad for name, p in group.items() if name.startswith("attn.")})
        grads[-1]["x"] = padded(x.grad) if packed else x.grad * real
        for p in group.values():
            p.grad = None
    np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-12)
    for name, g in grads[0].items():
        np.testing.assert_allclose(g, grads[1][name], rtol=0, atol=1e-12, err_msg=name)


def _position_bias_formula(T, head_dim, dtype):
    # the natural formula, times log2(e) in float64 before the cast
    delta = np.arange(T)[:, None] - np.arange(T)[None, :]
    freqs = 1.0 / (10000.0 ** (2 * np.arange(head_dim // 2) / head_dim))
    f = np.sin(delta[..., None] * freqs).mean(axis=-1) / np.sqrt(head_dim)
    return (f * ad.LOG2E).astype(dtype)


def test_position_bias_one_table_grown_to_longest(monkeypatch):
    monkeypatch.setattr(encoder, "_pos_bias_cache", {})
    for T in (40, 100, 7, 250, 100, 1):
        np.testing.assert_array_equal(relative_position_bias(T, 8, np.float32),
                                      _position_bias_formula(T, 8, np.float32))
    assert len(encoder._pos_bias_cache) == 1
    assert next(iter(encoder._pos_bias_cache.values())).shape == (250, 250)


def test_position_bias_builds_in_linear_memory(monkeypatch):
    monkeypatch.setattr(encoder, "_pos_bias_cache", {})
    T = 800
    tracemalloc.start()
    try:
        relative_position_bias(T, 8, np.float32)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a (T, T) float32 table alone would be 4 T^2 = 2.56 MB
    assert peak < 320 * T and kept < 16 * T


def test_position_bias_table_is_read_only(monkeypatch):
    monkeypatch.setattr(encoder, "_pos_bias_cache", {})
    table = relative_position_bias(30, 8, np.float64)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[3, 1] = 0.0
    np.testing.assert_array_equal(relative_position_bias(30, 8, np.float64),
                                  _position_bias_formula(30, 8, np.float64))


# ---- stack ------------------------------------------------------------------


def test_forward_zero_layers_is_frontend(float64):
    store = desk_store()
    x = rng(0).normal(size=(10, 16))
    emb, trace = forward(Tensor(x), store, 0, collect_trace=True)
    assert trace.depth == 0 and len(trace.embeddings) == 1
    expect = x @ store.params["frontend.w"].data + store.params["frontend.b"].data
    np.testing.assert_allclose(emb.data, expect, atol=1e-12)


def test_shared_group_feeds_every_layer(float64):
    store = desk_store()
    x = Tensor(rng(1).normal(size=(8, 16)))
    _, base = forward(x, store, 4, collect_trace=True)
    store.params["layer.shared.ff1.w1"].data[0, 0] += 0.5
    _, bumped = forward(x, store, 4, collect_trace=True)
    for i in range(1, 5):
        assert not np.allclose(base.embeddings[i], bumped.embeddings[i])


def test_unshared_layer_change_is_causal(float64):
    store = desk_store(share_params=False)
    x = Tensor(rng(2).normal(size=(8, 16)))
    _, base = forward(x, store, 5, collect_trace=True)
    for name, p in store.layer_group(2).items():  # third layer
        if not name.endswith("norm.gamma"):
            p.data[:] = 0.0
    _, changed = forward(x, store, 5, collect_trace=True)
    for i in range(0, 3):
        np.testing.assert_array_equal(base.embeddings[i], changed.embeddings[i])
    for i in range(3, 6):
        assert not np.allclose(base.embeddings[i], changed.embeddings[i])


def test_unshared_depth_beyond_layers_rejected(float64):
    store = desk_store(share_params=False, max_layers=4)
    with pytest.raises(ContractError):
        forward(Tensor(np.zeros((4, 16))), store, 5)


def test_prefix_property_bitwise(float64):
    store = desk_store()
    x = Tensor(rng(3).normal(size=(12, 16)))
    _, deep = forward(x, store, 8, collect_trace=True)
    _, shallow = forward(x, store, 5, collect_trace=True)
    for i in range(6):
        np.testing.assert_array_equal(deep.embeddings[i], shallow.embeddings[i])


# ---- one rank ---------------------------------------------------------------


def _assert_batch_of_one(one, one_trace, batch, batch_trace, T):
    assert one.shape == (T, 16) and batch.shape == (T, 16)
    np.testing.assert_array_equal(one.data, batch.data)
    assert one_trace.depth == batch_trace.depth
    for a, b in zip(one_trace.embeddings, batch_trace.embeddings):
        assert a.shape == (T, 16)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("graph", [True, False], ids=["graph", "no_grad"])
def test_single_utterance_is_a_batch_of_one(float64, graph):
    store = desk_store()
    x = rng(7).normal(size=(13, 16))
    packed, lengths = pack([x])
    with contextlib.nullcontext() if graph else ad.no_grad():
        one, one_trace = forward(Tensor(x), store, 6, collect_trace=True)
        batch, batch_trace = forward(Tensor(packed), store, 6, collect_trace=True,
                                     lengths=lengths)
    _assert_batch_of_one(one, one_trace, batch, batch_trace, 13)


def test_single_utterance_train_mode_is_a_batch_of_one(float64):
    store = desk_store()
    x = rng(8).normal(size=(11, 16))
    coeff = rng(9).normal(size=(11, 16))
    runs = []
    for lengths in (None, [11]):
        store.zero_grad()
        out, trace = forward(Tensor(x), store, 5, collect_trace=True,
                             rngs=[substream(0, "dropout", 1, 0)], lengths=lengths)
        (out * Tensor(coeff)).sum().backward()
        runs.append((out, trace, {n: p.grad.copy() for n, p in store.named_parameters()
                                  if p.grad is not None}))
    (one, one_trace, one_grads), (batch, batch_trace, batch_grads) = runs
    _assert_batch_of_one(one, one_trace, batch, batch_trace, 11)
    assert one_grads.keys() == batch_grads.keys()
    for name, g in one_grads.items():
        np.testing.assert_array_equal(g, batch_grads[name], err_msg=name)


def test_block_rejects_rank_three_input():
    store = desk_store()
    with pytest.raises(ContractError):
        conformer_block(Tensor(np.zeros((1, 20, 16), np.float32)), store.layer_group(0),
                        store.config, [20])
    with pytest.raises(ContractError):  # the slots must cover the rows exactly
        conformer_block(Tensor(np.zeros((20, 16), np.float32)), store.layer_group(0),
                        store.config, [12, 7])


def test_batch_needs_one_dropout_generator_per_slot():
    store = desk_store()
    x = Tensor(np.zeros((10, 16), np.float32))
    for dropout in (rng(0), [rng(0)]):
        with pytest.raises(ContractError, match="list of 2 generators"):
            forward(x, store, 1, rngs=dropout, lengths=[5, 5])
        with pytest.raises(ContractError, match="list of 2 generators"):
            conformer_block(Tensor(np.zeros((10, 16), np.float32)), store.layer_group(0),
                            store.config, [5, 5], dropout)


# ---- packed slots -----------------------------------------------------------

SLOTS = [3, 9, 1, 7, 2]  # one frame, and slots shorter than a 5-tap kernel


def _packed_run(store, x, graph):
    """Forward embedding and trace of 4 layers over the packed slots."""
    dropout = [substream(5, "dropout", slot) for slot in range(len(SLOTS))]
    with contextlib.nullcontext() if graph else ad.no_grad():
        return forward(Tensor(x), store, 4, collect_trace=True,
                       rngs=dropout if graph else None, lengths=SLOTS)


@pytest.mark.parametrize("graph", [True, False], ids=["graph", "no_grad"])
def test_perturbing_one_slot_leaves_the_others_bitwise(graph):
    store = desk_store(conv_kernel=5)
    x = rng(10).normal(size=(sum(SLOTS), 16))
    bumped = x.copy()
    bumped[3:12] += rng(11).normal(scale=3.0, size=(9, 16))  # slot 1
    base, base_trace = _packed_run(store, x, graph)
    out, trace = _packed_run(store, bumped, graph)
    others = np.r_[0:3, 12:sum(SLOTS)]
    assert not np.array_equal(out.data[3:12], base.data[3:12])
    np.testing.assert_array_equal(out.data[others], base.data[others])
    for a, b in zip(trace.embeddings, base_trace.embeddings):  # every block's output
        np.testing.assert_array_equal(a[others], b[others])


def test_packed_slot_matches_the_slot_alone(float64):
    store = desk_store(conv_kernel=5, share_params=False)
    frames = [rng(12 + b).normal(size=(t, 16)) for b, t in enumerate(SLOTS)]
    x, lengths = pack(frames)
    packed, trace = forward(Tensor(x), store, 8, collect_trace=True, lengths=lengths)
    at = 0
    for f in frames:
        alone, alone_trace = forward(Tensor(f), store, 8, collect_trace=True)
        rows = slice(at, at + len(f))
        np.testing.assert_allclose(packed.data[rows], alone.data, rtol=1e-12)
        for a, b in zip(trace.embeddings, alone_trace.embeddings):
            np.testing.assert_allclose(a[rows], b, rtol=1e-12)
        at += len(f)


def test_packed_block_finite_difference(float64):
    cfg = tiny_config(conv_kernel=5)
    group = ParameterStore.init(cfg, substream(13, "init")).layer_group(0)
    lengths = [1, 2, 3, 7, 9]
    x = Tensor(rng(14).normal(size=(sum(lengths), cfg.model_dim)), requires_grad=True)
    coeff = Tensor(rng(15).normal(size=x.shape))

    def f():
        return (conformer_block(x, group, cfg, lengths) * coeff).sum()

    assert ad.grad_check(f, [x, *group.values()], eps=1e-6) <= 1e-4


# ---- depth sampling ---------------------------------------------------------


def test_sample_depth_degenerate():
    r = rng(0)
    assert all(sample_depth(8, 8, r) == 8 for _ in range(100))


def test_sample_depth_mean():
    r = rng(1)
    draws = [sample_depth(2, 8, r) for _ in range(100_000)]
    assert abs(np.mean(draws) - 5.0) <= 0.05


def test_sample_depth_uniform_frequencies():
    r = rng(2)
    draws = np.array([sample_depth(2, 8, r) for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=9)[2:9] / draws.size
    np.testing.assert_allclose(freqs, 1 / 7, atol=0.01)
    # chi-square against the uniform null
    expected = draws.size / 7
    chi2 = float(((np.bincount(draws, minlength=9)[2:9] - expected) ** 2 / expected).sum())
    assert chi2 < 22.46  # 0.1% critical value, 6 dof


def test_sample_depth_contract():
    with pytest.raises(ConfigError):
        sample_depth(5, 3, rng(0))


# ---- shallow inference ------------------------------------------------------


def test_sli_full_depth_matches_forward(float64):
    store = desk_store()
    x = Tensor(rng(5).normal(size=(9, 16)))
    full, _ = forward(x, store, 8)
    np.testing.assert_array_equal(sli_forward(x, store, 8).data, full.data)


def test_sli_matches_trace_entry(float64):
    store = desk_store()
    x = Tensor(rng(6).normal(size=(9, 16)))
    _, trace = forward(x, store, 8, collect_trace=True)
    np.testing.assert_array_equal(sli_forward(x, store, 5).data, trace.embeddings[5])


def test_sli_runs_exactly_m_blocks(float64):
    store = desk_store()
    store.block_applications = 0
    sli_forward(Tensor(np.zeros((4, 16))), store, 5)
    assert store.block_applications == 5


def test_sli_range_contract(float64):
    store = desk_store()
    with pytest.raises(ContractError):
        sli_forward(Tensor(np.zeros((4, 16))), store, 9)
    with pytest.raises(ContractError):
        sli_forward(Tensor(np.zeros((4, 16))), store, 0)


def test_block_count_affine_in_depth(float64):
    store = desk_store()
    x = Tensor(np.zeros((4, 16)))
    counts = {}
    for n in (4, 6, 8):
        store.block_applications = 0
        forward(x, store, n)
        counts[n] = store.block_applications
    assert counts[8] - counts[4] == 2 * (counts[6] - counts[4])


# ---- parameter accounting ---------------------------------------------------


def test_param_count_shared_independent_of_depth():
    for H in (2, 5, 8):
        counts = param_count(ConformerConfig(max_layers=H, share_params=True))
        assert counts["total_encoder"] == counts["per_layer"] + counts["frontend"]


def test_param_count_layer_ratio_is_depth():
    for H in (2, 5, 8):
        shared = param_count(ConformerConfig(max_layers=H, share_params=True))
        unshared = param_count(ConformerConfig(max_layers=H, share_params=False))
        layer_shared = shared["total_encoder"] - shared["frontend"]
        layer_unshared = unshared["total_encoder"] - unshared["frontend"]
        assert layer_unshared == H * layer_shared


def test_param_count_matches_store():
    cfg = ConformerConfig()
    store = ParameterStore.init(cfg, substream(0, "init"))
    counts = param_count(cfg)
    total = sum(p.data.size for n, p in store.named_parameters()
                if n.startswith(("frontend.", "layer.")))
    assert total == counts["total_encoder"]
    pred = sum(p.data.size for n, p in store.named_parameters() if n.startswith("predictor."))
    assert pred == counts["predictor"]


def test_param_count_paper_scale_reported():
    paper = RunConfig()
    apply_preset(paper, "paper")
    counts = param_count(paper.model)
    unshared = param_count(replace(paper.model, share_params=False))
    # the layer-parameter portion shrinks by exactly the layer count
    ratio = (unshared["total_encoder"] - unshared["frontend"]) / (
        counts["total_encoder"] - counts["frontend"])
    assert ratio == 8.0
    print(f"paper-scale per_layer={counts['per_layer'] / 1e6:.2f}M, "
          f"param_reduction={unshared['total_encoder'] / counts['total_encoder']:.3f}x "
          f"(paper: 7.8x)")


# ---- flat parameter buffer --------------------------------------------------


@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
def test_parameters_are_views_of_the_store_buffer(share):
    store = desk_store(seed=2, share_params=share)
    offset = 0
    for name, p in store.named_parameters():
        assert p.data.base is store.buffer and p.data.dtype == store.buffer.dtype
        span = store.span(name)
        assert span == slice(offset, offset + p.data.size)  # checkpoint order, no gaps
        np.testing.assert_array_equal(store.buffer[span], p.data.ravel())
        offset = span.stop
    assert offset == store.buffer.size


def test_store_init_values_survive_the_copy_into_the_buffer():
    cfg = ConformerConfig(share_params=False)
    shapes = encoder.param_shapes(cfg)
    init_rng = substream(1, "init")
    # the same draws ParameterStore.init makes, kept as separate arrays
    loose = {n: encoder._init_tensor(n, shape, init_rng).data for n, shape in shapes.items()}
    store = ParameterStore.init(cfg, substream(1, "init"))
    for name, p in store.params.items():
        np.testing.assert_array_equal(p.data, loose[name])


def test_prefix_spans_are_contiguous_past_ten_layers():
    store = desk_store(share_params=False, max_layers=11)
    names = [n for n, _ in store.named_parameters()]
    for i in (1, 10):
        span = store.span(f"layer.{i}.")
        inside = [n for n in names if n.startswith(f"layer.{i}.")]
        assert span.stop - span.start == sum(store.params[n].data.size for n in inside)
        assert all(store.span(n).start >= span.start and store.span(n).stop <= span.stop
                   for n in inside)
    with pytest.raises(ContractError):
        store.span("layer.11.")


def test_flat_grad_gathers_in_layout_with_zeros_for_missing():
    store = desk_store(seed=3, share_params=False, max_layers=2)
    r = rng(4)
    for i, (name, p) in enumerate(store.named_parameters()):
        p.grad = r.normal(size=p.data.shape).astype(p.data.dtype) if i % 3 else None
    expect = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                             for _, p in store.named_parameters()])
    np.testing.assert_array_equal(store.flat_grad(), expect)
    views = store.unflatten(store.flat_grad())
    assert list(views) == [n for n, _ in store.named_parameters()]
    assert all(views[n].shape == p.data.shape for n, p in store.named_parameters())


def test_detached_parameter_is_a_contract_error():
    store = desk_store()
    store.check_layout()
    store.params["predictor.b"].data = store.params["predictor.b"].data.copy()
    with pytest.raises(ContractError, match="predictor.b"):
        store.check_layout()


def test_mixed_dtype_parameters_rejected():
    params = {"a": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}
    with ad.precision("float64"):
        params["b"] = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ContractError, match="dtype"):
        ParameterStore(None, params)


# ---- checkpoints ------------------------------------------------------------


@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
def test_flat_moments_write_the_bytes_of_per_name_tensors(tmp_path, share):
    store = desk_store(seed=2, share_params=share)
    r = rng(3)
    moments = {prefix: r.normal(size=store.buffer.shape).astype(np.float32)
               for prefix in ("adam.v.", "adam.m.")}
    per_name = {prefix + name: a for prefix, flat in sorted(moments.items())
                for name, a in store.unflatten(flat).items()}
    save_checkpoint(tmp_path / "flat.ckpt", store, {"train.step": "3"}, moments=moments)
    _, tensors = load_checkpoint(tmp_path / "flat.ckpt")
    # after the parameters, one float32 tensor per parameter and prefix, in name order
    assert list(tensors) == [n for n, _ in store.named_parameters()] + list(per_name)
    for name, a in per_name.items():
        np.testing.assert_array_equal(tensors[name], a, err_msg=name)
    with pytest.raises(ContractError, match="adam.m."):
        save_checkpoint(tmp_path / "bad.ckpt", store, moments={"adam.m.": np.zeros(3)})


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = desk_store(seed=3)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, store, {"note": "x"})
    cfg, tensors = load_checkpoint(a)
    restored = store_from_checkpoint(cfg, tensors)
    save_checkpoint(b, restored, {"note": cfg["note"]})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_restores_forward(tmp_path):
    store = desk_store(seed=4)
    x = rng(0).normal(size=(7, 16)).astype(np.float32)
    out, _ = forward(Tensor(x), store, 8)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store)
    restored = store_from_checkpoint(*load_checkpoint(path))
    out2, _ = forward(Tensor(x), restored, 8)
    np.testing.assert_array_equal(out.data, out2.data)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    from sharedformer import encoder
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, desk_store(seed=5))
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(encoder.os, "fsync", disk_full)
    with pytest.raises(OSError):
        save_checkpoint(path, desk_store(seed=6))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]


def test_config_from_dict_rejects_malformed_values():
    with pytest.raises(ConfigError):
        ConformerConfig.from_dict({"share_params": "maybe"})
    with pytest.raises(ConfigError):
        ConformerConfig.from_dict({"model_dim": "16.5"})
    full = ConformerConfig().to_dict()
    assert ConformerConfig.from_dict({**full, "share_params": "False"}).share_params is False
