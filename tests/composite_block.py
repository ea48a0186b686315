"""The Conformer block as a chain of primitive autodiff ops: the oracle for the
fused module nodes (`autodiff.feed_forward`, `self_attention`, `conv_module`).

Each function builds its module from `layer_norm`, `matmul`, `swish`,
`sigmoid`, `depthwise_conv1d`, slicing, reshapes and elementwise ops, one
node per op, on the same packed (N, d) rows, with the same parameters and
dropout draws as the fused node. The fused nodes promise bitwise equality
with these chains.
"""

import numpy as np

from sharedformer import autodiff as ad
from sharedformer.encoder import relative_position_bias


def feed_forward(x, g, which):
    h = ad.layer_norm(x, g[f"{which}.norm.gamma"], g[f"{which}.norm.beta"])
    h = ad.swish(ad.matmul(h, g[f"{which}.w1"], g[f"{which}.b1"]))
    return x + 0.5 * ad.matmul(h, g[f"{which}.w2"], g[f"{which}.b2"])


def keep_masks(cfg, rngs, lengths):
    return [r.random((cfg.num_heads, tb, tb)) >= cfg.dropout for r, tb in zip(rngs, lengths)]


def attention(x, g, cfg, keep, lengths):
    N, d = x.shape
    h, dh = cfg.num_heads, cfg.head_dim
    n = ad.layer_norm(x, g["attn.norm.gamma"], g["attn.norm.beta"])
    q = ad.matmul(n, g["attn.wq"], g["attn.bq"]).reshape(N, h, dh) * (1.0 / np.sqrt(dh))
    k = (n @ g["attn.wk"]).reshape(N, h, dh)
    v = ad.matmul(n, g["attn.wv"], g["attn.bv"]).reshape(N, h, dh)
    bias = (relative_position_bias(max(lengths), dh, x.data.dtype)
            if cfg.pos_bias == "relative-bias" else None)
    ctx = ad.attention(q, k, v, bias, keep, 1.0 / (1.0 - cfg.dropout), lengths)
    return x + ad.matmul(ctx.reshape(N, d), g["attn.wo"], g["attn.bo"])


def conv_module(x, g, lengths):
    d = x.shape[-1]
    h = ad.layer_norm(x, g["conv.norm.gamma"], g["conv.norm.beta"])
    h = ad.matmul(h, g["conv.pw1"], g["conv.pb1"])
    h = h[:, :d] * ad.sigmoid(h[:, d:])  # GLU
    h = ad.depthwise_conv1d(h, g["conv.dw"], lengths)
    h = ad.swish(h)
    return x + ad.matmul(h, g["conv.pw2"], g["conv.pb2"])


def conformer_block(x, group, cfg, lengths, rngs=None):
    """`encoder.conformer_block`'s contract and dropout draws, as a primitive-op chain."""
    keep = None
    if rngs is not None and cfg.dropout > 0.0:
        keep = keep_masks(cfg, rngs, lengths)
    h = feed_forward(x, group, "ff1")
    h = attention(h, group, cfg, keep, lengths)
    h = conv_module(h, group, lengths)
    h = feed_forward(h, group, "ff2")
    return ad.layer_norm(h, group["out.norm.gamma"], group["out.norm.beta"])
