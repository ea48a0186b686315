"""The fused Conformer module nodes against their chains of primitive ops."""

import numpy as np
import pytest

import composite_block as chain
from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor
from sharedformer.encoder import (ConformerConfig, Padding, ParameterStore, _module_params,
                                  relative_position_bias)
from sharedformer.errors import DimensionError
from sharedformer.rng import substream

LENGTHS = [9, 4, 7]


def tiny_config(share=True, dropout=0.2):
    return ConformerConfig(input_dim=5, model_dim=6, num_heads=2, ff_dim=7, conv_kernel=3,
                           max_layers=2, share_params=share, dropout=dropout)


def _attention_args(x, cfg, keep, lengths):
    bias = relative_position_bias(x.shape[1], cfg.head_dim, x.data.dtype)
    return cfg.num_heads, bias, keep, 1.0 / (1.0 - cfg.dropout), lengths


# module -> (fused node, primitive chain), each (x, layer group, cfg, pad, keep) -> Tensor
MODULES = {
    "ff": (lambda x, g, cfg, pad, keep: ad.feed_forward(x, *_module_params(g, "ff2", "ff")),
           lambda x, g, cfg, pad, keep: chain.feed_forward(x, g, "ff2")),
    "attn": (lambda x, g, cfg, pad, keep: ad.self_attention(
                 x, *_module_params(g, "attn", "attn"),
                 *_attention_args(x, cfg, keep, pad.lengths)),
             lambda x, g, cfg, pad, keep: chain.attention(x, g, cfg, keep, pad.lengths)),
    "conv": (lambda x, g, cfg, pad, keep: ad.conv_module(
                 x, *_module_params(g, "conv", "conv"), pad.frame_mask),
             lambda x, g, cfg, pad, keep: chain.conv_module(x, g, pad.frame_mask)),
}


def _run_twice(module, store, x_data, pad, keep, coeff):
    """Apply `module` as two layers (the same group twice when shared), then
    backward: output, input gradient and the store's flat gradient."""
    store.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    h = x
    for i in range(2):
        h = module(h, store.layer_group(i), store.config, pad, keep)
    (h * Tensor(coeff)).sum().backward()
    return h.data, x.grad, store.flat_grad().copy()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("lengths", [LENGTHS, [9, 9, 9]], ids=["padded", "full"])
@pytest.mark.parametrize("module", ["ff", "attn", "attn-dropout", "conv"])
def test_module_node_is_bitwise_its_primitive_chain(precision, share, lengths, module):
    kind, dropout = module.split("-")[0], module.endswith("dropout")
    with ad.precision(precision):
        cfg = tiny_config(share)
        store = ParameterStore.init(cfg, substream(7, "init"))
        r = np.random.default_rng(8)
        x = r.normal(size=(3, 9, cfg.model_dim))
        coeff = r.normal(size=x.shape)
        pad = Padding.of(lengths, 9, ad.get_default_dtype())
        keep = chain.keep_masks(cfg, [substream(9, "dropout", b) for b in range(3)],
                                lengths) if dropout else None
        fused, composite = (_run_twice(fn, store, x, pad, keep, coeff) for fn in MODULES[kind])
    assert fused[0].dtype == np.dtype(precision)
    for name, a, b in zip(("output", "input gradient", "parameter gradients"), fused, composite):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert np.any(fused[2] != 0.0)


@pytest.mark.parametrize("module", ["ff", "attn", "attn-dropout", "conv"])
def test_module_node_finite_difference(float64, module):
    kind, dropout = module.split("-")[0], module.endswith("dropout")
    cfg = tiny_config(dropout=0.3)
    store = ParameterStore.init(cfg, substream(10, "init"))
    group = store.layer_group(0)
    r = np.random.default_rng(11)
    x = Tensor(r.normal(size=(3, 9, cfg.model_dim)), requires_grad=True)
    coeff = Tensor(r.normal(size=x.shape))
    pad = Padding.of(LENGTHS, 9, np.float64)
    keep = chain.keep_masks(cfg, [substream(12, "dropout", b) for b in range(3)],
                            LENGTHS) if dropout else None
    node = MODULES[kind][0]
    prefix = {"ff": "ff2.", "attn": "attn.", "conv": "conv."}[kind]
    params = [x] + [p for name, p in group.items() if name.startswith(prefix)]

    def f():
        return (node(x, group, cfg, pad, keep) * coeff).sum()

    assert ad.grad_check(f, params, eps=1e-6) <= 1e-6


def test_no_grad_module_nodes_match_their_graphs(float64):
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(13, "init"))
    x = Tensor(np.random.default_rng(14).normal(size=(3, 9, cfg.model_dim)))
    pad = Padding.of(LENGTHS, 9, np.float64)
    for node, _ in MODULES.values():
        graph = node(x, store.layer_group(0), cfg, pad, None)
        with ad.no_grad():
            plain = node(x, store.layer_group(0), cfg, pad, None)
        assert graph.requires_grad and not plain.requires_grad
        np.testing.assert_array_equal(graph.data, plain.data)


def test_module_node_shape_contracts():
    cfg = tiny_config()
    group = ParameterStore.init(cfg, substream(15, "init")).layer_group(0)
    x = Tensor(np.zeros((2, 5, cfg.model_dim), np.float32))
    pad = Padding.of([5, 3], 5, np.float32)
    ff = _module_params(group, "ff1", "ff")
    with pytest.raises(DimensionError):
        ad.feed_forward(x, *ff[:2], ff[4], ff[3], ff[2], ff[5])  # w1 and w2 swapped
    with pytest.raises(DimensionError):
        ad.self_attention(x, *_module_params(group, "attn", "attn"), 4)  # 6 is not 4 heads
    with pytest.raises(DimensionError):
        ad.self_attention(Tensor(x.data[0]), *_module_params(group, "attn", "attn"), 2)
    with pytest.raises(DimensionError):
        ad.conv_module(x, *_module_params(group, "conv", "conv"), pad.frame_mask[:, :4])
