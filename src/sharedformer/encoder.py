"""Conformer encoder stack with optional cross-layer parameter sharing.

Block structure (macaron): half-step FF, multi-head self-attention, depthwise
convolution module, half-step FF, final layer norm, residuals throughout.
A block is five graph nodes: one `autodiff` node per module, its residual
included, then the output layer norm.
Depth is chosen per call, the same shared parameter group being applied N
times when sharing is on. A traced forward keeps every per-layer embedding
for the diagnostics suite; shallow inference is just a prefix of the stack.
A batch runs packed: one (N, d) array of its utterances' frames, slot b
owning the next lengths[b] rows, so every per-frame op runs on real frames
only, as one 2-D array. One (T, D) utterance is a packed batch of one slot.

Checkpoint format (little-endian): magic "LCCK", u32 version=1, u32 config
byte length + utf-8 key=value lines, u64 tensor count, then per tensor u32
name length + name, u32 rank, u32 dims, f32 data.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
from dataclasses import Field, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import codec
from .autodiff import Tensor
from .errors import ConfigError, ContractError, FormatError

CHECKPOINT_MAGIC = b"LCCK"


@dataclass
class ConformerConfig:
    input_dim: int = 16
    model_dim: int = 16
    num_heads: int = 2
    ff_dim: int = 32
    conv_kernel: int = 7
    max_layers: int = 8
    share_params: bool = True
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("input_dim", "model_dim", "num_heads", "ff_dim", "conv_kernel"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.model_dim < 2:  # layer norm needs two features to normalise
            raise ConfigError(f"model_dim must be >= 2, got {self.model_dim}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if self.max_layers < 1:
            raise ConfigError(f"max_layers must be >= 1, got {self.max_layers}")
        if self.conv_kernel % 2 == 0:
            raise ConfigError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        # the relative bias is a mean over head_dim // 2 sinusoids: NaN over none
        if self.head_dim < 2:
            raise ConfigError(f"the relative position bias needs model_dim // num_heads >= 2, "
                              f"got {self.model_dim} // {self.num_heads}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    def to_dict(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "ConformerConfig":
        """The model a checkpoint's config block describes; it must name every key."""
        values = {f.name: parse_field(f, d[f.name], f"model.{f.name}")
                  for f in fields(cls) if f.name in d}
        missing = [f.name for f in fields(cls) if f.name not in values]
        if missing:
            raise FormatError(f"checkpoint config lacks model key {missing[0]!r}")
        # older blocks name the one bias every model runs; another is a model this code lacks
        if d.get("pos_bias", "relative-bias") != "relative-bias":
            raise FormatError(f"checkpoint config has pos_bias={d['pos_bias']!r}; only "
                              f"'relative-bias' is supported")
        return cls(**values)


_BOOLS = {"true": True, "True": True, "1": True, "false": False, "False": False, "0": False}
_PARSERS = {"bool": _BOOLS.__getitem__, "int": int, "float": float, "str": str}


def parse_field(f: Field, raw: str, where: str):
    """Typed value of config field ``f`` from its string form (``where`` names it in errors)."""
    parse = _PARSERS[f.type]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where} must be {f.type}, got {raw!r}") from None


@dataclass
class LayerTrace:
    """Per-layer embeddings for one forward pass; entry 0 is the frontend output."""
    embeddings: list[np.ndarray]

    def __post_init__(self):
        shapes = {e.shape for e in self.embeddings}
        if len(shapes) > 1:
            raise ContractError(f"trace embeddings disagree on shape: {shapes}")

    @property
    def depth(self) -> int:
        return len(self.embeddings) - 1


# parameter names inside one layer group, in init order
_LAYER_SHAPES = (
    ("ff1.norm.gamma", "d"), ("ff1.norm.beta", "d"),
    ("ff1.w1", "d*ff"), ("ff1.b1", "ff"), ("ff1.w2", "ff*d"), ("ff1.b2", "d"),
    ("attn.norm.gamma", "d"), ("attn.norm.beta", "d"),
    # no key bias: it shifts every logit in a row equally, which softmax cancels
    ("attn.wq", "d*d"), ("attn.bq", "d"), ("attn.wk", "d*d"),
    ("attn.wv", "d*d"), ("attn.bv", "d"), ("attn.wo", "d*d"), ("attn.bo", "d"),
    ("conv.norm.gamma", "d"), ("conv.norm.beta", "d"),
    ("conv.pw1", "d*2d"), ("conv.pb1", "2d"), ("conv.dw", "k*d"),
    ("conv.pw2", "d*d"), ("conv.pb2", "d"),
    ("ff2.norm.gamma", "d"), ("ff2.norm.beta", "d"),
    ("ff2.w1", "d*ff"), ("ff2.b1", "ff"), ("ff2.w2", "ff*d"), ("ff2.b2", "d"),
    ("out.norm.gamma", "d"), ("out.norm.beta", "d"),
)


def _shape_of(spec: str, cfg: ConformerConfig) -> tuple[int, ...]:
    d, ff, k = cfg.model_dim, cfg.ff_dim, cfg.conv_kernel
    return {
        "d": (d,), "ff": (ff,), "2d": (2 * d,),
        "d*ff": (d, ff), "ff*d": (ff, d), "d*d": (d, d),
        "d*2d": (d, 2 * d), "k*d": (k, d),
    }[spec]


def param_shapes(cfg: ConformerConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's name and shape, in init order."""
    d, D = cfg.model_dim, cfg.input_dim
    prefixes = ["layer.shared."] if cfg.share_params else [
        f"layer.{i}." for i in range(cfg.max_layers)
    ]
    shapes = {"frontend.w": (D, d), "frontend.b": (d,)}
    for prefix in prefixes:
        for name, spec in _LAYER_SHAPES:
            shapes[prefix + name] = _shape_of(spec, cfg)
    shapes.update({"predictor.w": (d, D), "predictor.b": (D,)})
    return shapes


def _init_tensor(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """Norm gains start at one, biases (rank 1) at zero, weights uniform(+-1/sqrt(fan_in))."""
    if name.endswith("gamma"):
        data = np.ones(shape)
    elif len(shape) == 1:
        data = np.zeros(shape)
    else:
        bound = 1.0 / np.sqrt(shape[0])
        data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True, name=name)


class ParameterStore:
    """All trainable tensors, keyed by name, backed by one flat buffer.

    Shared mode keeps exactly one layer group under the "layer.shared." prefix
    and aliases it for every application; unshared mode keeps max_layers
    independent groups "layer.<i>.".

    The constructor copies every tensor's values into `buffer`, one contiguous
    array of the tensors' common dtype laid out in `named_parameters()` order
    (sorted by name, which is also the checkpoint order), and rebinds each
    tensor's `.data` to its view of it. The names under any prefix, such as
    "layer.3.", therefore fill one contiguous `span`, and an optimizer can
    update every parameter with whole-buffer operations. Gradients stay per
    tensor, as autodiff sets them; `flat_grad` gathers them into a second
    buffer of the same layout.
    """

    def __init__(self, config: ConformerConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.block_applications = 0  # op counter for compute assertions
        named = sorted(params.items())
        dtypes = {p.data.dtype for _, p in named}
        if len(dtypes) != 1:
            raise ContractError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        self.buffer = np.empty(sum(p.data.size for _, p in named), dtype=dtypes.pop())
        self._grad = np.empty_like(self.buffer)
        self._zeros = np.zeros(max(p.data.size for _, p in named), dtype=self.buffer.dtype)
        self._spans: dict[str, slice] = {}
        self._layout: list[tuple[str, Tensor, np.ndarray]] = []
        offset = 0
        for name, p in named:
            span = slice(offset, offset + p.data.size)
            view = self.buffer[span].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._spans[name] = span
            self._layout.append((name, p, view))
            offset = span.stop

    @classmethod
    def init(cls, config: ConformerConfig, rng: np.random.Generator) -> "ParameterStore":
        params = {name: _init_tensor(name, shape, rng)
                  for name, shape in param_shapes(config).items()}
        return cls(config, params)

    def layer_group(self, i: int) -> dict[str, Tensor]:
        prefix = "layer.shared." if self.config.share_params else f"layer.{i}."
        return {name: self.params[prefix + name] for name, _ in _LAYER_SHAPES}

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return sorted(self.params.items())

    def zero_grad(self) -> None:
        for _, p in self.params.items():
            p.grad = None

    def span(self, prefix: str) -> slice:
        """The slice of the flat layout holding every parameter whose name starts with `prefix`."""
        inside = [s for name, s in self._spans.items() if name.startswith(prefix)]
        if not inside:
            raise ContractError(f"no parameter name starts with {prefix!r}")
        return slice(inside[0].start, inside[-1].stop)

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views of a flat array in this store's layout, by name."""
        return {name: flat[self._spans[name]].reshape(view.shape)
                for name, _, view in self._layout}

    def flat_grad(self) -> np.ndarray:
        """Every parameter's gradient, zeros where it has none, in the flat layout.

        The result is one preallocated buffer that the next call overwrites.
        """
        np.concatenate([self._zeros[:view.size] if p.grad is None else p.grad
                        for _, p, view in self._layout], axis=None, out=self._grad)
        return self._grad

    def check_layout(self) -> None:
        """Raise ContractError unless every parameter is still the tensor viewing `buffer`.

        Rebinding a tensor's `.data`, or swapping a tensor in `params`, detaches
        it from the buffer, and a whole-buffer update would miss it.
        """
        for name, p, view in self._layout:
            if self.params.get(name) is not p or p.data is not view:
                raise ContractError(f"parameter {name!r} no longer views the store buffer")
        if len(self.params) != len(self._layout):
            raise ContractError("parameters were added to the store after it was built")


# ---- block -------------------------------------------------------------------

_pos_bias_cache: dict[tuple[int, str], np.ndarray] = {}


def relative_position_bias(T: int, head_dim: int, dtype) -> np.ndarray:
    """Fixed sinusoidal bias over relative frame offsets, added to attn logits.

    In log2 units, as `autodiff.attention` takes it: the natural bias times
    log2(e), scaled in float64 before the cast to `dtype`.

    Entry (i, j) depends only on i - j, so the (T, T) table is a read-only
    view over the 2T - 1 offsets: row i of the reversed sliding window over
    f(T-1), ..., f(1-T) starts at offset i and ends at i - (T - 1). One table
    per head size and dtype, grown to the longest T asked for, serves every
    shorter T as a view.
    """
    key = (head_dim, np.dtype(dtype).str)
    table = _pos_bias_cache.get(key)
    if table is None or table.shape[0] < T:
        delta = np.arange(T - 1, -T, -1)
        freqs = 1.0 / (10000.0 ** (2 * np.arange(head_dim // 2) / head_dim))
        f = np.sin(delta[:, None] * freqs).mean(axis=-1) / np.sqrt(head_dim)
        f = (f * ad.LOG2E).astype(dtype)
        table = _pos_bias_cache[key] = np.lib.stride_tricks.sliding_window_view(f, T)[::-1]
    return table[:T, :T]


# each module's parameter names by prefix (ff1, attn, conv, ff2, out): its
# _LAYER_SHAPES entries, whose init order is also its node's argument order
_MODULE_PARAMS = {prefix: tuple(name for name, _ in entries) for prefix, entries in
                  itertools.groupby(_LAYER_SHAPES, lambda entry: entry[0].partition(".")[0])}


def _module_params(group: dict[str, Tensor], prefix: str) -> list[Tensor]:
    return [group[name] for name in _MODULE_PARAMS[prefix]]


def conformer_block(x: Tensor, group: dict[str, Tensor], cfg: ConformerConfig,
                    lengths: list[int], rngs: list[np.random.Generator] | None = None) -> Tensor:
    """One block on packed (N, d) rows, slot b owning the next `lengths[b]` rows.

    Five graph nodes: the ff1, attention, convolution and ff2 modules, each
    with its residual, then the output layer norm. Attention dropout runs
    exactly when `rngs`, a list of one generator per slot, is given.
    """
    B = len(lengths)
    if x.data.ndim != 2 or x.shape != (sum(lengths), cfg.model_dim):
        raise ContractError(f"block input must be {sum(lengths)} x {cfg.model_dim} for "
                            f"slot lengths {lengths}, got {x.shape}")
    if rngs is not None and (not isinstance(rngs, list) or len(rngs) != B):
        raise ContractError(f"rngs must be a list of {B} generators, one per slot")
    h = cfg.num_heads
    bias = relative_position_bias(max(lengths), cfg.head_dim, x.data.dtype)
    keep = None
    if rngs is not None and cfg.dropout > 0.0:
        # each slot draws its (h, T_b, T_b) block from its own generator, so a
        # slot sees the same draws as it would alone; cast once to 0/1 floats,
        # so the core's three multiplies by it need no cast of their own
        keep = [(r.random((h, tb, tb)) >= cfg.dropout).astype(x.data.dtype)
                for r, tb in zip(rngs, lengths)]
    x = ad.feed_forward(x, *_module_params(group, "ff1"))
    x = ad.self_attention(x, *_module_params(group, "attn"), h, bias, keep,
                          1.0 / (1.0 - cfg.dropout), lengths)
    x = ad.conv_module(x, *_module_params(group, "conv"), lengths)
    x = ad.feed_forward(x, *_module_params(group, "ff2"))
    return ad.layer_norm(x, *_module_params(group, "out"))


# ---- stack -------------------------------------------------------------------


def forward(x: Tensor | np.ndarray, store: ParameterStore, n_layers: int,
            collect_trace: bool = False, rngs: list[np.random.Generator] | None = None,
            lengths: list[int] | None = None) -> tuple[Tensor, LayerTrace | None]:
    """Encoder stack over packed (N, D) rows.

    Slot b owns the next `lengths[b]` rows (default: one slot of all N), and
    no row reaches another slot's output. The embedding and every trace entry
    are (N, d) in the same layout; trace entries are the layer outputs
    themselves, not copies (no op writes into an earlier output), so the last
    entry is the embedding's own array. Dropout runs exactly when `rngs`, a
    list of one generator per slot, is given.
    """
    cfg = store.config
    if not (0 <= n_layers <= cfg.max_layers):
        raise ContractError(f"n_layers {n_layers} outside [0, {cfg.max_layers}]")
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.data.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ContractError(f"input must be N x D packed frames, D = {cfg.input_dim}; "
                            f"got {x.shape}")
    lengths = ad.check_lengths(x.shape[0], lengths)
    h = ad.matmul(x, store.params["frontend.w"], store.params["frontend.b"])
    trace = [h.data] if collect_trace else None
    # a saturated sigmoid's exp overflows to inf and gives exactly 0; any other
    # overflow reaches the output as inf or nan, which training rejects
    with np.errstate(over="ignore"):
        for i in range(n_layers):
            store.block_applications += len(lengths)
            h = conformer_block(h, store.layer_group(i), cfg, lengths, rngs)
            if collect_trace:
                trace.append(h.data)
    return h, (LayerTrace(trace) if collect_trace else None)


def pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """(T_b, D) arrays as one packed (N, D) array of the default dtype, and the T_b."""
    dims = {a.shape[1] for a in arrays}
    if len(dims) > 1:
        raise ContractError(f"utterances disagree on feature dim: {sorted(dims)}")
    return (np.concatenate(arrays, dtype=ad.get_default_dtype()),
            [a.shape[0] for a in arrays])


# frames per pack of a pass without a graph: on 300 synth utterances (2-vCPU VM) one
# unbounded pack traced 1.25x slower than 8-utterance packs and peaked 14 MB higher;
# 2048 frames traced no slower than those on 100, 300 and 20 long (50-800) utterances
PACK_FRAMES = 2048


def pack_runs(lengths: list[int]) -> list[slice]:
    """Consecutive runs of utterance lengths to pack, in order, greedily: each run
    holds at most PACK_FRAMES frames, or is a single longer utterance."""
    starts, frames = [], 0
    for i, n in enumerate(lengths):
        if not starts or frames + n > PACK_FRAMES:
            starts.append(i)
            frames = 0
        frames += n
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(lengths)])]


def sample_depth(low: int, high: int, rng: np.random.Generator) -> int:
    """Integer depth drawn uniformly from {low, ..., high} inclusive."""
    if not (0 <= low <= high):
        raise ConfigError(f"need 0 <= low <= high, got ({low}, {high})")
    return int(rng.integers(low, high + 1))


def sli_forward(x: Tensor | np.ndarray, store: ParameterStore, m: int) -> Tensor:
    """Inference with only the first m layers; no dropout, no masking, no graph."""
    if not (1 <= m <= store.config.max_layers):
        raise ContractError(f"SLI layer count {m} outside [1, {store.config.max_layers}]")
    with ad.no_grad():
        emb, _ = forward(x, store, m)
    return emb


def param_count(cfg: ConformerConfig) -> dict[str, int]:
    d, D, ff, k, H = cfg.model_dim, cfg.input_dim, cfg.ff_dim, cfg.conv_kernel, cfg.max_layers
    per_layer = sum(int(np.prod(_shape_of(spec, cfg))) for _, spec in _LAYER_SHAPES)
    frontend = D * d + d
    predictor = d * D + D
    groups = 1 if cfg.share_params else H
    return {
        "frontend": frontend,
        "per_layer": per_layer,
        "total_encoder": per_layer * groups + frontend,
        "predictor": predictor,
    }


# ---- checkpoint I/O ----------------------------------------------------------


def save_checkpoint(path, store: ParameterStore, extra_config: dict[str, str] | None = None,
                    extra_tensors: dict[str, np.ndarray] | None = None) -> None:
    """Write `store` (plus extra config lines and tensors) atomically to `path`.

    The extra tensors, such as Adam's flat "adam.m" and "adam.v", follow the
    parameters in name order, each in float32 and its own shape. Headers and
    arrays are written one after another, never joined into one copy of the file.
    """
    cfg_lines = dict(store.config.to_dict())
    cfg_lines.update(extra_config or {})
    cfg_blob = "".join(f"{k}={v}\n" for k, v in sorted(cfg_lines.items()))
    tensors = [(name, p.data) for name, p in store.named_parameters()]
    tensors += sorted((extra_tensors or {}).items())
    parts = [codec.header(CHECKPOINT_MAGIC), codec.string(cfg_blob),
             struct.pack("<Q", len(tensors))]
    for name, arr in tensors:
        parts.append(codec.string(name) + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").reshape(-1))
    # write a sibling temp file and rename it over `path`, so a crash or a
    # failed write never leaves a torn checkpoint in place of the last good one
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


Checkpoint = tuple[dict[str, str], dict[str, np.ndarray]]  # config block, named tensors


def load_checkpoint(path) -> Checkpoint:
    r = codec.Reader(path, "checkpoint")
    r.header(CHECKPOINT_MAGIC)
    config: dict[str, str] = {}
    for line in r.string("config block").splitlines():
        if line:
            key, _, value = line.partition("=")
            config[key] = value
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("Q", "tensor count")[0]):
        name = r.string("tensor name")
        at = r.off
        rank = r.u32("rank")
        dims = r.unpack(f"{rank}I", "dims") if rank <= 32 else ()
        # an empty tensor may carry any other dims, but numpy refuses huge or many
        if rank > 32 or math.prod(max(n, 1) for n in dims) > 1 << 30:
            raise FormatError(f"implausible shape for tensor {name!r}: rank {rank}, "
                              f"dims {dims}", offset=at)
        arr = np.frombuffer(r.take(4 * math.prod(dims), "tensor data"), dtype="<f4").reshape(dims)
        tensors[name] = arr.copy()
    return config, tensors


def store_from_checkpoint(config: dict[str, str], tensors: dict[str, np.ndarray]) -> ParameterStore:
    """Parameter store from a checkpoint, whose model tensors must be finite and match its config."""
    cfg = ConformerConfig.from_dict(config)
    expected = param_shapes(cfg)
    params: dict[str, Tensor] = {}
    for name, arr in tensors.items():
        if name.startswith(("frontend.", "layer.", "predictor.")):
            if name not in expected:
                raise FormatError(f"checkpoint tensor {name!r} does not belong to its model config")
            if arr.shape != expected[name]:
                raise FormatError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                                  f"config needs {expected[name]}")
            params[name] = Tensor(arr, requires_grad=True, name=name)
    missing = [name for name in expected if name not in params]
    if missing:
        raise FormatError(f"checkpoint lacks {len(missing)} model tensors, first {missing[0]!r}")
    store = ParameterStore(cfg, params)
    if not np.isfinite(store.buffer).all():
        name = next(n for n, a in store.unflatten(store.buffer).items() if not np.isfinite(a).all())
        raise FormatError(f"checkpoint tensor {name!r} holds NaN or inf")
    return store
