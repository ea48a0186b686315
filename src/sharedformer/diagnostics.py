"""Measurements behind the efficiency and layer-similarity claims.

Includes consecutive-layer transition metrics (L2 / cosine), a per-layer
decomposition of the shared parameter gradient, analytic multiply-accumulate
counts with depth-policy ratios, deterministic PCA scatter projections, and a
frozen-feature linear probe with a shallow-inference sweep.

Every forward-only diagnostic makes one trace of its utterances, entry m
holding every utterance's depth-m rows in the caller's order; each of
`encoder.pack_runs`' runs goes through one traced forward without a graph.
Depth m is a prefix of the stack, so `layer_embeddings`, the probe's one
embedding path, reads every requested depth from one trace at the deepest.
The probe's recipe is fixed: `PROBE_STEPS` full-batch steps of momentum
`PROBE_MOMENTUM` at rate `PROBE_LR`, trained on four fifths of the
utterances and scored on the held-out fifth.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ConformerConfig, LayerTrace, ParameterStore, forward, pack, pack_runs
from .errors import ContractError, InvariantError
from .features import FeatureSequence, LabeledCorpus
from .masking import MaskConfig, apply_masks, fixed_plan
from .rng import substream
from .training import batch_loss, check_depth

SCHEMA_VERSION = 1
PROBE_STEPS, PROBE_LR, PROBE_MOMENTUM = 400, 0.5, 0.9


# ---- traced passes -----------------------------------------------------------


def _traced_pass(store: ParameterStore, frames: list[np.ndarray], depth: int) -> LayerTrace:
    """Depth-`depth` trace of (T_i, D) utterances, their rows in the given order.

    Each of `pack_runs`' runs is packed and run as one traced forward without
    a graph. A lone run's trace is returned as `forward` made it; several
    runs write their rows into one (N, d) array per entry.
    """
    if not frames:
        raise ContractError("a traced pass needs at least one utterance")
    runs = pack_runs([f.shape[0] for f in frames])
    pooled, at = None, 0
    with ad.no_grad():
        for run in runs:
            x, lengths = pack(frames[run])
            _, trace = forward(x, store, depth, collect_trace=True, lengths=lengths)
            if len(runs) == 1:
                return trace
            if pooled is None:
                n = sum(f.shape[0] for f in frames)
                pooled = [np.empty((n, e.shape[1]), e.dtype) for e in trace.embeddings]
            for out, e in zip(pooled, trace.embeddings):
                out[at:at + len(e)] = e
            at += len(x)
    return LayerTrace(pooled)


# ---- layer transitions -------------------------------------------------------


@dataclass
class ConsistencyReport:
    l2_mean: list[float]       # entry i: transition i -> i+1
    cos_mean: list[float]
    num_frames: int

    def mean_cosine(self, from_layer: int = 0) -> float:
        vals = self.cos_mean[from_layer:]
        return float(np.mean(vals))


def layer_transitions(trace: LayerTrace) -> ConsistencyReport:
    """Frame-wise L2 distance and cosine similarity between consecutive layers,
    averaged over every frame of the trace.

    Walks the trace's consecutive entry pairs in float64; each entry is
    converted, and its frame norms computed, once.
    """
    l2_mean, cos_mean = [], []
    total = trace.embeddings[0].shape[0]
    a = trace.embeddings[0].astype(np.float64)
    na = np.sqrt((a ** 2).sum(axis=1))
    for e in trace.embeddings[1:]:
        b = e.astype(np.float64)
        nb = np.sqrt((b ** 2).sum(axis=1))
        l2_mean.append(float(np.sqrt(((b - a) ** 2).sum(axis=1)).sum() / total))
        cos_mean.append(float(((a * b).sum(axis=1) / np.maximum(na * nb, 1e-12)).sum() / total))
        a, na = b, nb
    return ConsistencyReport(l2_mean=l2_mean, cos_mean=cos_mean, num_frames=total)


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
    plans = [fixed_plan(seq, mask_cfg) for seq in batch]

    # the view store copies every value into its own buffer, so its tensors
    # share neither data nor gradients with the store it was built from
    view = {k: Tensor(v.data, requires_grad=True, name=k)
            for k, v in store.params.items() if not k.startswith("layer.")}
    for i in range(n_layers):
        for name in short:
            view[f"layer.{i}.{name}"] = Tensor(store.params["layer.shared." + name].data,
                                               requires_grad=True)
    unshared = ParameterStore(replace(cfg, share_params=False), view)
    batch_loss(unshared, batch, plans, n_layers, "all-frames").backward()
    grad = unshared.flat_grad()
    contributions = [grad[unshared.span(f"layer.{i}.")] for i in range(n_layers)]

    # reference: one shared group applied n_layers times
    store.zero_grad()
    batch_loss(store, batch, plans, n_layers, "all-frames").backward()
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
    weights: np.ndarray   # (C, d + 1) float32 on standardized features; last column the bias


def linear_probe(train_x: list[np.ndarray], train_y: np.ndarray,
                 test_x: list[np.ndarray], test_y: np.ndarray,
                 num_classes: int, layers: list[int] | None = None) -> list[ProbeResult]:
    """Affine softmax classifiers on frozen features, one per depth, fitted together.

    `train_x[i]` and `test_x[i]` are depth i's (n, d) frames, all depths
    sharing `train_y` and `test_y`; `layers[i]` labels result i (default i).
    Each depth is standardized in float64 over the train split, then every
    depth runs in one full-batch gradient descent on an (L, d + 1, n) float32
    stack whose last feature row is ones, so the bias is a weight column.
    Deterministic: zero init and a fixed step budget, and every depth's
    arithmetic is its own slice of each stacked product, so a depth gets the
    same bits alone or in a sweep.
    """
    for split, y in (("train", train_y), ("test", test_y)):
        if y.size and (y.min() < 0 or y.max() >= num_classes):
            raise ContractError(f"probe {split} labels must lie in [0, {num_classes - 1}], "
                                f"found [{y.min()}, {y.max()}]")
    if len(np.unique(train_y)) < 2:
        raise ContractError("probe needs at least two classes in the training labels")
    layers = list(range(len(train_x))) if layers is None else list(layers)
    if not train_x or not len(train_x) == len(test_x) == len(layers):
        raise ContractError(f"probe needs one train and one test array per depth, got "
                            f"{len(train_x)}, {len(test_x)} for {len(layers)} depths")
    if len({x.shape[1] for x in [*train_x, *test_x]}) != 1:
        raise ContractError("probe features must share one width across depths and splits")
    L, (n, d) = len(layers), train_x[0].shape
    xtr = np.ones((L, d + 1, n), dtype=np.float32)
    xte = np.ones((L, d + 1, len(test_y)), dtype=np.float32)
    for i, (tr, te) in enumerate(zip(train_x, test_x)):
        tr = np.asarray(tr, dtype=np.float64)
        mu = tr.mean(axis=0)
        sd = np.maximum(tr.std(axis=0), 1e-8)
        xtr[i, :d] = ((tr - mu) / sd).T
        xte[i, :d] = ((te - mu) / sd).T
    onehot = np.zeros((num_classes, n), dtype=np.float32)
    onehot[train_y, np.arange(n)] = 1.0
    xtr_t = xtr.transpose(0, 2, 1)
    y_xt = onehot @ xtr_t                  # (L, C, d + 1): the one-hot part of every gradient
    w = np.zeros((L, num_classes, d + 1), dtype=np.float32)
    v = np.zeros_like(w)
    g = np.empty_like(w)
    z = np.empty((L, num_classes, n), dtype=np.float32)
    col = np.empty((L, 1, n), dtype=np.float32)
    step = np.float32(PROBE_LR / n)
    momentum = np.float32(PROBE_MOMENTUM)
    for _ in range(PROBE_STEPS):
        # z holds the logits, then the softmax; g is n times the weight gradient
        np.matmul(w, xtr, out=z)
        np.max(z, axis=1, keepdims=True, out=col)
        z -= col
        np.exp(z, out=z)
        np.sum(z, axis=1, keepdims=True, out=col)
        z /= col
        np.matmul(z, xtr_t, out=g)
        g -= y_xt
        g *= step
        v *= momentum
        v -= g
        w += v
    pred = np.argmax(w @ xte, axis=1)      # (L, n_test)
    results = []
    for m, p, wm in zip(layers, pred, w):
        hit = p == test_y
        per_class = [float(np.mean(hit[test_y == c])) if (test_y == c).any() else float("nan")
                     for c in range(num_classes)]
        results.append(ProbeResult(m, float(np.mean(hit)), per_class, wm))
    return results


def probe_split(corpus: LabeledCorpus, seed: int) -> tuple[list[int], list[int]]:
    """Disjoint train/held-out utterance split for probing; a fifth is held out."""
    n = len(corpus.sequences)
    perm = substream(seed, "probe").permutation(n)
    cut = max(1, round(n / 5))
    if cut >= n:
        raise ContractError("probe split would consume the whole corpus")
    return [int(i) for i in perm[cut:]], [int(i) for i in perm[:cut]]


def layer_embeddings(store: ParameterStore, corpus: LabeledCorpus, idx: list[int],
                     depths: list[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Pooled float64 frame embeddings at each depth, and the labels, of the given utterances.

    Entry i of the list is depth `depths[i]`'s (frames, d) array, the
    utterances in `idx` order. One trace at the deepest depth serves every
    depth, since depth m is entry m of it. Depth 0 is the frontend output,
    an affine map of the raw frames.
    """
    H = store.config.max_layers
    if not depths or not all(0 <= m <= H for m in depths):
        raise ContractError(f"layer embeddings need one or more depths in [0, {H}], got {depths}")
    trace = _traced_pass(store, [corpus.sequences[i].frames for i in idx], max(depths))
    return ([trace.embeddings[m].astype(np.float64) for m in depths],
            np.concatenate([corpus.labels[i] for i in idx]))


def sli_sweep(store: ParameterStore, corpus: LabeledCorpus, layers: list[int],
              seed: int = 0) -> list[ProbeResult]:
    """Linear probes at shallow-inference depths 0..max_layers; results sorted by depth.

    Depth 0 is the frontend output, the raw-frame baseline. Each probe split
    takes its embeddings from one `layer_embeddings` call, and one
    `linear_probe` call fits every depth.
    """
    depths = sorted(set(layers))
    (xtr, ytr), (xte, yte) = (layer_embeddings(store, corpus, idx, depths)
                              for idx in probe_split(corpus, seed))
    return linear_probe(xtr, ytr, xte, yte, corpus.num_classes, layers=depths)


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
                   mask_cfg: MaskConfig | None = None) -> LayerTrace:
    """Full-depth trace of the given utterances under their fixed masks; entry m
    holds every utterance's depth-m rows, in `idx` order."""
    mask_cfg = mask_cfg or MaskConfig()
    seqs = [corpus.sequences[i] for i in idx]
    masked = [apply_masks(seq.frames, [fixed_plan(seq, mask_cfg)]) for seq in seqs]
    return _traced_pass(store, masked, store.config.max_layers)
