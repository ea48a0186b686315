"""The fused Conformer module nodes against their chains of primitive ops."""

import numpy as np
import pytest

import composite_block as chain
from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor
from sharedformer.encoder import (ConformerConfig, ParameterStore, _module_params,
                                  relative_position_bias)
from sharedformer.errors import ContractError, DimensionError
from sharedformer.rng import substream

LENGTHS = [9, 4, 7]


def tiny_config(share=True, dropout=0.2):
    return ConformerConfig(input_dim=5, model_dim=6, num_heads=2, ff_dim=7, conv_kernel=3,
                           max_layers=2, share_params=share, dropout=dropout)


def _attention_args(x, cfg, keep, lengths):
    bias = relative_position_bias(max(lengths), cfg.head_dim, x.data.dtype)
    return cfg.num_heads, bias, keep, 1.0 / (1.0 - cfg.dropout), lengths


# module -> (fused node, primitive chain), each (x, layer group, cfg, lengths, keep) -> Tensor
MODULES = {
    "ff": (lambda x, g, cfg, lengths, keep: ad.feed_forward(x, *_module_params(g, "ff2")),
           lambda x, g, cfg, lengths, keep: chain.feed_forward(x, g, "ff2")),
    "attn": (lambda x, g, cfg, lengths, keep: ad.self_attention(
                 x, *_module_params(g, "attn"), *_attention_args(x, cfg, keep, lengths)),
             lambda x, g, cfg, lengths, keep: chain.attention(x, g, cfg, keep, lengths)),
    "conv": (lambda x, g, cfg, lengths, keep: ad.conv_module(
                 x, *_module_params(g, "conv"), lengths),
             lambda x, g, cfg, lengths, keep: chain.conv_module(x, g, lengths)),
}


def _run_twice(module, store, x_data, lengths, keep, coeff):
    """Apply `module` as two layers (the same group twice when shared), then
    backward: output, input gradient and the store's flat gradient."""
    store.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    h = x
    for i in range(2):
        h = module(h, store.layer_group(i), store.config, lengths, keep)
    (h * Tensor(coeff)).sum().backward()
    return h.data, x.grad, store.flat_grad().copy()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
# "padded": three slots of unequal lengths; "full": three of the same length
@pytest.mark.parametrize("lengths", [LENGTHS, [9, 9, 9]], ids=["padded", "full"])
@pytest.mark.parametrize("module", ["ff", "attn", "attn-dropout", "conv"])
def test_module_node_is_bitwise_its_primitive_chain(precision, share, lengths, module):
    kind, dropout = module.split("-")[0], module.endswith("dropout")
    with ad.precision(precision):
        cfg = tiny_config(share)
        store = ParameterStore.init(cfg, substream(7, "init"))
        r = np.random.default_rng(8)
        x = r.normal(size=(sum(lengths), cfg.model_dim))
        coeff = r.normal(size=x.shape)
        keep = chain.keep_masks(cfg, [substream(9, "dropout", b) for b in range(3)],
                                lengths) if dropout else None
        fused, composite = (_run_twice(fn, store, x, lengths, keep, coeff)
                            for fn in MODULES[kind])
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
    x = Tensor(r.normal(size=(sum(LENGTHS), cfg.model_dim)), requires_grad=True)
    coeff = Tensor(r.normal(size=x.shape))
    keep = chain.keep_masks(cfg, [substream(12, "dropout", b) for b in range(3)],
                            LENGTHS) if dropout else None
    node = MODULES[kind][0]
    prefix = {"ff": "ff2.", "attn": "attn.", "conv": "conv."}[kind]
    params = [x] + [p for name, p in group.items() if name.startswith(prefix)]

    def f():
        return (node(x, group, cfg, LENGTHS, keep) * coeff).sum()

    assert ad.grad_check(f, params, eps=1e-6) <= 1e-6


def test_conv_module_finite_difference_over_short_slots(float64):
    # single-frame slots and slots shorter than the 5-tap kernel, next to longer ones
    cfg = ConformerConfig(input_dim=5, model_dim=6, num_heads=2, ff_dim=7, conv_kernel=5,
                          max_layers=1)
    group = ParameterStore.init(cfg, substream(16, "init")).layer_group(0)
    lengths = [1, 2, 3, 7, 9]
    r = np.random.default_rng(17)
    x = Tensor(r.normal(size=(sum(lengths), cfg.model_dim)), requires_grad=True)
    coeff = Tensor(r.normal(size=x.shape))
    params = [x] + [p for name, p in group.items() if name.startswith("conv.")]

    def f():
        return (ad.conv_module(x, *_module_params(group, "conv"), lengths)
                * coeff).sum()

    assert ad.grad_check(f, params, eps=1e-6) <= 1e-6


def test_no_grad_module_nodes_match_their_graphs(float64):
    cfg = tiny_config()
    store = ParameterStore.init(cfg, substream(13, "init"))
    x = Tensor(np.random.default_rng(14).normal(size=(sum(LENGTHS), cfg.model_dim)))
    for node, _ in MODULES.values():
        graph = node(x, store.layer_group(0), cfg, LENGTHS, None)
        with ad.no_grad():
            plain = node(x, store.layer_group(0), cfg, LENGTHS, None)
        assert graph.requires_grad and not plain.requires_grad
        np.testing.assert_array_equal(graph.data, plain.data)


def test_module_node_shape_contracts():
    cfg = tiny_config()
    group = ParameterStore.init(cfg, substream(15, "init")).layer_group(0)
    x = Tensor(np.zeros((8, cfg.model_dim), np.float32))
    ff = _module_params(group, "ff1")
    with pytest.raises(DimensionError):
        ad.feed_forward(x, *ff[:2], ff[4], ff[3], ff[2], ff[5])  # w1 and w2 swapped
    with pytest.raises(DimensionError):
        ad.self_attention(x, *_module_params(group, "attn"), 4)  # 6 is not 4 heads
    with pytest.raises(DimensionError):
        ad.self_attention(Tensor(x.data[None]), *_module_params(group, "attn"), 2)
    with pytest.raises(DimensionError):
        ad.conv_module(Tensor(x.data[None]), *_module_params(group, "conv"))
    with pytest.raises(ContractError):  # the slots must cover the rows exactly
        ad.conv_module(x, *_module_params(group, "conv"), [5, 4])
