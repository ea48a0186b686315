"""Measurements behind the efficiency and layer-similarity claims.

Includes consecutive-layer transition metrics (L2 / cosine), a per-layer
decomposition of the shared parameter gradient, analytic multiply-accumulate
counts with depth-policy ratios, deterministic PCA scatter projections, and a
frozen-feature linear probe with a shallow-inference sweep.

Every forward-only diagnostic runs one packed batch per chunk of
length-sorted utterances through a single traced forward without a graph,
then cuts each utterance's trace entries out by its row range. Depth m is a
prefix of the stack, so the shallow-inference sweep reads every requested
depth from one trace at the deepest of them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ConformerConfig, LayerTrace, ParameterStore, forward, pack
from .errors import ContractError, InvariantError
from .features import FeatureSequence, LabeledCorpus
from .masking import MaskConfig, mask_utterance
from .rng import substream
from .training import batch_loss, check_depth

SCHEMA_VERSION = 1


# ---- traced passes -----------------------------------------------------------


def _traced_passes(store: ParameterStore, frames: list[np.ndarray], depth: int,
                   batch_size: int) -> list[LayerTrace]:
    """Depth-`depth` traces of (T_i, D) utterances, one per utterance in the given order.

    Utterances are stable-sorted by length and packed into chunks of
    `batch_size`, each run as one traced forward without a graph; every trace
    keeps its utterance's row range of each entry.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    order = sorted(range(len(frames)), key=lambda i: frames[i].shape[0])
    traces: list[LayerTrace] = [None] * len(frames)
    with ad.no_grad():
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            x, lengths = pack([frames[i] for i in chunk])
            _, trace = forward(x, store, depth, collect_trace=True, lengths=lengths)
            at = 0
            for i, n in zip(chunk, lengths):
                traces[i] = LayerTrace([e[at:at + n] for e in trace.embeddings])
                at += n
    return traces


# ---- layer transitions -------------------------------------------------------


@dataclass
class ConsistencyReport:
    l2_mean: list[float]       # entry i: transition i -> i+1
    cos_mean: list[float]
    num_frames: int

    def mean_cosine(self, from_layer: int = 0) -> float:
        vals = self.cos_mean[from_layer:]
        return float(np.mean(vals))


def layer_transitions(traces: list[LayerTrace]) -> ConsistencyReport:
    """Frame-wise L2 distance and cosine similarity between consecutive layers,
    averaged over all frames of all traces.

    Each trace is one (H+1, T, d) float64 stack, so every layer's frame norms
    are computed once and every transition is one pass over the stack.
    """
    if not traces:
        raise ContractError("need at least one trace")
    depth = traces[0].depth
    if any(t.depth != depth for t in traces):
        raise ContractError("traces disagree on depth")
    l2_sums = np.zeros(depth)
    cos_sums = np.zeros(depth)
    total = 0
    for trace in traces:
        h = np.array(trace.embeddings, dtype=np.float64)  # (H+1, T, d)
        total += h.shape[1]
        a, b = h[:-1], h[1:]
        l2_sums += np.sqrt(((b - a) ** 2).sum(axis=2)).sum(axis=1)
        norms = np.sqrt((h ** 2).sum(axis=2))  # (H+1, T)
        denom = np.maximum(norms[:-1] * norms[1:], 1e-12)
        cos_sums += ((a * b).sum(axis=2) / denom).sum(axis=1)
    return ConsistencyReport(
        l2_mean=[float(v / total) for v in l2_sums],
        cos_mean=[float(v / total) for v in cos_sums],
        num_frames=total,
    )


# ---- gradient decomposition --------------------------------------------------


@dataclass
class GradDecomposition:
    contributions: list[np.ndarray]   # flattened g_i per layer application
    total: np.ndarray                 # flattened gradient of the shared group
    norms: list[float]
    pairwise_cosine: np.ndarray       # N x N
    last_layer_ratio: float           # ||g|| / (N * ||g_N||)
    sum_rel_error: float

    def assert_sum_identity(self, tol: float = 1e-6) -> None:
        if self.sum_rel_error > tol:
            raise InvariantError(
                f"per-layer gradient contributions sum off by {self.sum_rel_error:.3e} (> {tol})")


def _shared_group_names(store: ParameterStore) -> list[str]:
    return sorted(k for k in store.params if k.startswith("layer.shared."))


def gradient_decomposition(store: ParameterStore, batch: list[FeatureSequence],
                           n_layers: int, mask_cfg: MaskConfig | None = None) -> GradDecomposition:
    """Split the shared-group gradient into per-layer-application contributions.

    An unshared view of the store holds one independent copy of the shared
    group per application, so each copy's gradient isolates that layer's
    contribution; their sum is verified against a standard shared backward on
    the identical loss.
    """
    cfg = store.config
    if not cfg.share_params:
        raise ContractError("gradient decomposition requires a parameter-shared store")
    if not batch:
        raise ContractError("empty batch")
    mask_cfg = mask_cfg or MaskConfig()
    short = [n[len("layer.shared."):] for n in _shared_group_names(store)]
    masked = [mask_utterance(seq, mask_cfg) for seq in batch]

    # the view store copies every value into its own buffer, so its tensors
    # share neither data nor gradients with the store it was built from
    view = {k: Tensor(v.data, requires_grad=True, name=k)
            for k, v in store.params.items() if not k.startswith("layer.")}
    for i in range(n_layers):
        for name in short:
            view[f"layer.{i}.{name}"] = Tensor(store.params["layer.shared." + name].data,
                                               requires_grad=True)
    unshared = ParameterStore(replace(cfg, share_params=False), view)
    batch_loss(unshared, batch, masked, n_layers, "all-frames").backward()
    grad = unshared.flat_grad()
    contributions = [grad[unshared.span(f"layer.{i}.")] for i in range(n_layers)]

    # reference: one shared group applied n_layers times
    store.zero_grad()
    batch_loss(store, batch, masked, n_layers, "all-frames").backward()
    total = store.flat_grad()[store.span("layer.shared.")].copy()
    store.zero_grad()

    summed = np.sum(contributions, axis=0)
    rel = float(np.linalg.norm(summed - total) / max(np.linalg.norm(total), 1e-12))
    norms = [float(np.linalg.norm(g)) for g in contributions]
    n = len(contributions)
    cos = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            denom = max(norms[i] * norms[j], 1e-12)
            cos[i, j] = cos[j, i] = float(contributions[i] @ contributions[j]) / denom
    ratio = float(np.linalg.norm(total) / max(n * norms[-1], 1e-12))
    return GradDecomposition(contributions, total, norms, cos, ratio, rel)


# ---- 2-D projection ----------------------------------------------------------


@dataclass
class Projection2D:
    coords: list[np.ndarray]          # per layer: (num_frames, 2)
    explained_variance: np.ndarray    # top-2 eigenvalue shares
    degenerate: bool = False


def project_2d(trace: LayerTrace, frame_range: tuple[int, int]) -> Projection2D:
    """PCA scatter of the selected frames, fitted on the pool of all layers."""
    start, end = frame_range
    if end - start < 3:
        raise ContractError(f"frame range must cover >= 3 frames, got {frame_range}")
    layers = [e[start:end].astype(np.float64) for e in trace.embeddings]
    pool = np.concatenate(layers, axis=0)
    center = pool.mean(axis=0)
    pool = pool - center
    cov_scale = pool.shape[0]
    u, s, vt = np.linalg.svd(pool, full_matrices=False)
    var = s ** 2 / cov_scale
    if var.sum() <= 1e-24:
        zero = [np.zeros((end - start, 2)) for _ in layers]
        return Projection2D(zero, np.zeros(2), degenerate=True)
    components = vt[:2]
    coords = [(layer - center) @ components.T for layer in layers]
    share = var[:2] / var.sum() if var.size >= 2 else np.array([1.0, 0.0])
    return Projection2D(coords, share)


# ---- FLOP accounting ---------------------------------------------------------


@dataclass
class FlopReport:
    frontend: int
    per_block: int
    predictor: int
    max_layers: int

    def flops(self, n_layers: int) -> int:
        return self.frontend + n_layers * self.per_block + self.predictor

    def block_flops(self, n_layers: int) -> int:
        return n_layers * self.per_block

    def sli_ratio_at(self, m: int) -> float:
        return m / self.max_layers

    def expected_training_ratio(self, low: int, high: int) -> float:
        """Expected block compute of depth drawn from U(low, high) vs fixed full depth."""
        check_depth(low, high, self.max_layers)
        return (low + high) / 2.0 / self.max_layers


def flop_report(cfg: ConformerConfig, T: int) -> FlopReport:
    """Analytic multiply-accumulate counts; norms and softmax are not counted."""
    d, D, ff, k = cfg.model_dim, cfg.input_dim, cfg.ff_dim, cfg.conv_kernel
    ff_macs = 2 * T * d * ff           # one feed-forward (in + out projection)
    attn_macs = 4 * T * d * d + 2 * T * T * d
    conv_macs = T * d * 2 * d + T * k * d + T * d * d
    per_block = 2 * ff_macs + attn_macs + conv_macs
    return FlopReport(frontend=T * D * d, per_block=per_block, predictor=T * d * D,
                      max_layers=cfg.max_layers)


# ---- linear probe ------------------------------------------------------------


@dataclass
class ProbeResult:
    layer: int
    accuracy: float
    per_class_accuracy: list[float]


@dataclass
class ProbeConfig:
    steps: int = 400
    lr: float = 0.5
    momentum: float = 0.9


def linear_probe(train_x: np.ndarray, train_y: np.ndarray,
                 test_x: np.ndarray, test_y: np.ndarray,
                 num_classes: int, layer: int = 0,
                 config: ProbeConfig | None = None) -> ProbeResult:
    """Affine softmax classifier on frozen features, full-batch gradient descent.

    Deterministic: zero init, fixed step budget, train-split standardization.
    The loop is class-major: features are (d, n) and logits (C, n), so the
    softmax max and sum run across C rows of length n, not along a short
    trailing class axis.
    """
    for split, y in (("train", train_y), ("test", test_y)):
        if y.size and (y.min() < 0 or y.max() >= num_classes):
            raise ContractError(f"probe {split} labels must lie in [0, {num_classes - 1}], "
                                f"found [{y.min()}, {y.max()}]")
    if len(np.unique(train_y)) < 2:
        raise ContractError("probe needs at least two classes in the training labels")
    config = config or ProbeConfig()
    mu = train_x.mean(axis=0)
    sd = np.maximum(train_x.std(axis=0), 1e-8)
    xtr = np.ascontiguousarray(((train_x - mu) / sd).T, dtype=np.float64)  # (d, n)
    xte = ((test_x - mu) / sd).astype(np.float64, copy=False)
    d, n = xtr.shape
    w = np.zeros((num_classes, d))
    b = np.zeros((num_classes, 1))
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    onehot = np.zeros((num_classes, n))
    onehot[train_y, np.arange(n)] = 1.0
    ones = np.ones((n, 1))
    for _ in range(config.steps):
        # z holds the logits, then the softmax, then the logit gradient
        z = w @ xtr + b
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        z -= onehot
        z /= n
        gw = z @ xtr.T
        gb = z @ ones  # a BLAS row sum, as in autodiff._sum_rows
        vw = config.momentum * vw - config.lr * gw
        vb = config.momentum * vb - config.lr * gb
        w += vw
        b += vb
    pred = np.argmax(xte @ w.T + b.T, axis=1)
    acc = float(np.mean(pred == test_y))
    per_class = []
    for c in range(num_classes):
        mask = test_y == c
        per_class.append(float(np.mean(pred[mask] == c)) if mask.any() else float("nan"))
    return ProbeResult(layer, acc, per_class)


def probe_split(corpus: LabeledCorpus, seed: int, test_fraction: float = 0.2) -> tuple[list[int], list[int]]:
    """Disjoint train/held-out utterance split for probing."""
    n = len(corpus.sequences)
    perm = substream(seed, "probe").permutation(n)
    cut = max(1, int(round(n * test_fraction)))
    if cut >= n:
        raise ContractError("probe split would consume the whole corpus")
    return [int(i) for i in perm[cut:]], [int(i) for i in perm[:cut]]


def _pooled(traces: list[LayerTrace], m: int) -> np.ndarray:
    return np.concatenate([t.embeddings[m] for t in traces]).astype(np.float64)


def layer_embeddings(store: ParameterStore, corpus: LabeledCorpus, idx: list[int],
                     m: int, batch_size: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Pooled frame embeddings and labels for the given utterances at depth m."""
    if not (1 <= m <= store.config.max_layers):
        raise ContractError(f"SLI layer count {m} outside [1, {store.config.max_layers}]")
    traces = _traced_passes(store, [corpus.sequences[i].frames for i in idx], m, batch_size)
    return _pooled(traces, m), np.concatenate([corpus.labels[i] for i in idx])


def sli_sweep(store: ParameterStore, corpus: LabeledCorpus, layers: list[int],
              seed: int = 0, probe_config: ProbeConfig | None = None,
              batch_size: int = 8) -> list[ProbeResult]:
    """One linear probe per shallow-inference depth; results sorted by depth.

    Each probe split is traced once, at the deepest requested depth; depth m
    is entry m of that trace.
    """
    H = store.config.max_layers
    if not layers:
        raise ContractError("sweep needs at least one layer")
    for m in layers:
        if not (1 <= m <= H):
            raise ContractError(f"sweep layer {m} outside [1, {H}]")
    splits = []
    for idx in probe_split(corpus, seed):
        traces = _traced_passes(store, [corpus.sequences[i].frames for i in idx],
                                max(layers), batch_size)
        splits.append((traces, np.concatenate([corpus.labels[i] for i in idx])))
    (train_traces, ytr), (test_traces, yte) = splits
    return [linear_probe(_pooled(train_traces, m), ytr, _pooled(test_traces, m), yte,
                         corpus.num_classes, layer=m, config=probe_config)
            for m in sorted(set(layers))]


# ---- report emission ---------------------------------------------------------


def write_report(path_base: str | Path, header: list[str], rows: list[list]) -> None:
    """Write rows as <base>.csv and <base>.jsonl (with schema_version)."""
    base = Path(path_base)
    with open(base.with_suffix(".csv"), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    with open(base.with_suffix(".jsonl"), "w", encoding="utf-8") as f:
        for row in rows:
            obj = {"schema_version": SCHEMA_VERSION}
            obj.update(dict(zip(header, row)))
            f.write(json.dumps(obj) + "\n")


def collect_traces(store: ParameterStore, corpus: LabeledCorpus, idx: list[int],
                   mask_cfg: MaskConfig | None = None, masked: bool = True,
                   batch_size: int = 8) -> list[LayerTrace]:
    """Full-depth traces of the given utterances (fixed masks), in `idx` order."""
    mask_cfg = mask_cfg or MaskConfig()
    seqs = [corpus.sequences[i] for i in idx]
    if masked:
        seqs = [mask_utterance(seq, mask_cfg)[1] for seq in seqs]
    return _traced_passes(store, [seq.frames for seq in seqs], store.config.max_layers,
                          batch_size)
