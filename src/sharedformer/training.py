"""Masked-reconstruction pretraining loop.

Per iteration: draw a depth uniformly from the configured range (fixed:N is
the range N..N), mask each batch utterance, pack the batch into one
(N, D) array of all its frames (each utterance a contiguous row range), run
that many encoder layers over it, predict the clean frames with the linear
head and take the L1 loss (each utterance's mean over its frames, averaged
over the batch). One backward
pass and one Adam step under the warmup/inverse-sqrt schedule follow.
Validation runs at full depth without dropout and without a graph, one
packed batch per run of `pack_runs` (at most `PACK_FRAMES` frames), using a
fixed mask per utterance (seeded by its id) so the validation loss is
deterministic; the checkpoint with the best validation loss is retained.

All per-step randomness is derived from (seed, stream, step), so resuming
from a checkpoint reproduces the uninterrupted run bitwise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import (Checkpoint, ConformerConfig, ParameterStore, forward, pack,
                      pack_runs, sample_depth, save_checkpoint, store_from_checkpoint)
from .errors import ConfigError, ContractError, DivergenceError, FormatError
from .features import FeatureSequence, LabeledCorpus
from .masking import MaskConfig, MaskPlan, mask_utterance
from .rng import substream


@dataclass
class TrainConfig:
    batch_size: int = 8
    max_steps: int = 2000
    warmup_steps: int = 200
    peak_scale: float = 0.5
    validation_every: int = 100
    seed: int = 0
    depth: str = "uniform:2:8"  # "fixed:N" | "uniform:L:H"
    loss_mode: str = "all-frames"  # "all-frames" | "masked-only"
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_steps < 1:
            raise ConfigError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.validation_every < 1:
            raise ConfigError(f"validation_every must be >= 1, got {self.validation_every}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not 0.0 < self.peak_scale < np.inf:
            raise ConfigError(f"peak_scale must be finite and > 0, got {self.peak_scale}")
        parse_depth(self.depth)
        if self.loss_mode not in ("all-frames", "masked-only"):
            raise ConfigError(f"loss_mode must be 'all-frames' or 'masked-only', got {self.loss_mode!r}")


def parse_depth(spec: str) -> tuple[int, int]:
    """Depth range (low, high) of a "fixed:N" or "uniform:L:H" spec; fixed:N is (N, N)."""
    parts = spec.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return int(parts[1]), int(parts[1])
        if parts[0] == "uniform" and len(parts) == 3:
            return int(parts[1]), int(parts[2])
    except ValueError:
        pass
    raise ConfigError(f"depth must be 'fixed:N' or 'uniform:L:H', got {spec!r}")


def check_depth(low: int, high: int, max_layers: int) -> None:
    """The one depth rule: 0 <= low <= high <= max_layers."""
    if not (0 <= low <= high <= max_layers):
        raise ConfigError(f"depth range ({low}, {high}) must satisfy "
                          f"0 <= L <= H <= model.max_layers = {max_layers}")


# ---- building blocks ---------------------------------------------------------


def predictor_apply(embeddings: Tensor, store: ParameterStore) -> Tensor:
    """Per-frame affine map from model_dim back to the input feature space."""
    if embeddings.shape[-1] != store.config.model_dim:
        raise ContractError(f"embeddings are {embeddings.shape}, expected T x {store.config.model_dim}")
    return ad.matmul(embeddings, store.params["predictor.w"], store.params["predictor.b"])


def mpc_loss(pred: Tensor, target, plans: list[MaskPlan] | None = None,
             mode: str = "all-frames", lengths: list[int] | None = None) -> Tensor:
    """Mean L1 distance between a packed (N, D) prediction and the clean frames.

    Slot b owns the next `lengths[b]` rows (default: one slot of all N). Each
    slot's loss is its mean over its rows, or over its plan's masked frames in
    masked-only mode, which needs one plan per slot. The result is the mean
    over slots, as one (N, 1) weight column on the absolute errors.
    """
    if pred.data.ndim != 2 or pred.shape != target.shape:
        raise ContractError(f"prediction {pred.shape} vs target {target.shape}, need N x D")
    if mode not in ("all-frames", "masked-only"):
        raise ContractError(f"unknown loss mode {mode!r}")
    N, D = pred.shape
    lengths = ad.check_lengths(N, lengths)
    B = len(lengths)
    if mode == "masked-only" and (plans is None or len(plans) != B or any(
            p.num_masked == 0 or p.total_frames != n for p, n in zip(plans, lengths))):
        raise ContractError("masked-only loss needs one plan per slot, each with a masked "
                            "frame and the slot's length")
    weight = np.zeros((N, 1))
    at = 0
    for b, n in enumerate(lengths):
        if mode == "all-frames":
            weight[at:at + n] = 1.0 / n
        else:
            rows = plans[b].mask_rows()
            weight[at:at + n][rows] = 1.0 / rows.sum()
        at += n
    return ((pred - target).abs() * Tensor(weight / (B * D))).sum()


def noam_lr(step: int, warmup: int, model_dim: int, scale: float) -> float:
    """Warmup-then-inverse-sqrt schedule: scale * d^-1/2 * min(s^-1/2, s * w^-3/2)."""
    if step < 1:
        raise ContractError(f"step must be >= 1, got {step}")
    return scale * model_dim ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


@dataclass
class TrainState:
    """Where a run stands, and under which seed: everything a checkpoint adds to the model.

    Each numeric field is one line of the checkpoint's train.* block,
    train.<field>=repr(value); a run keeps `best_val_loss` a Python float,
    since numpy scalars repr differently. `m` and `v` are Adam's moments,
    flat arrays in the store's layout that `adam_step` creates at step 1 and
    updates in place, None before it; a checkpoint holds them as its
    `adam.m` and `adam.v` tensors.
    """
    step: int = 0  # Adam steps taken
    best_val_loss: float = float("inf")
    best_step: int = 0
    cum_layer_apps: int = 0
    seed: int | None = None  # None: the checkpoint records no seed
    m: np.ndarray | None = field(default=None, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, repr=False, compare=False)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9


def adam_step(state: TrainState, store: ParameterStore, lr: float) -> None:
    """One bias-corrected Adam update of every parameter, as whole-buffer operations.

    The gradients are gathered into the store's flat layout (zeros where a
    parameter has none) and checked for finiteness before anything changes.
    Then `state.step` advances, and `state.m`, `state.v` and the store's
    parameter buffer are updated in place, each element by the same
    expressions, in the same order, as a per-tensor loop.
    """
    store.check_layout()
    g = store.flat_grad()
    if not np.isfinite(g).all():
        name = next(n for n, a in store.unflatten(g).items() if not np.isfinite(a).all())
        raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m, state.v = np.zeros_like(store.buffer), np.zeros_like(store.buffer)
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    store.buffer -= (lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)


# ---- training loop -----------------------------------------------------------


@dataclass
class TrainResult:
    store: ParameterStore
    metrics: list[dict]
    best_step: int
    best_val_loss: float
    cum_layer_apps: int


def split_corpus(corpus: LabeledCorpus, seed: int, val_fraction: float) -> tuple[list[int], list[int]]:
    """Deterministic train/validation index split by shuffled utterance order."""
    n = len(corpus.sequences)
    if n < 2:
        raise ContractError("need at least 2 utterances to split train/validation")
    perm = substream(seed, "data").permutation(n)
    val_count = max(1, int(round(n * val_fraction)))
    if val_count >= n:
        raise ContractError("validation split would consume the whole corpus")
    return [int(i) for i in perm[val_count:]], [int(i) for i in perm[:val_count]]


def batch_loss(store: ParameterStore, clean: list[FeatureSequence],
               masked: list[tuple[MaskPlan, FeatureSequence]], n_layers: int, mode: str,
               dropout_rngs: list[np.random.Generator] | None = None) -> Tensor:
    """MPC loss of one packed batch: one forward, one predictor, one loss.

    `masked` holds each utterance's plan and corrupted copy; dropout is on
    when one generator per slot is given.
    """
    x, lengths = pack([c.frames for _, c in masked])
    emb, _ = forward(x, store, n_layers, rngs=dropout_rngs, lengths=lengths)
    pred = predictor_apply(emb, store)
    return mpc_loss(pred, pack([seq.frames for seq in clean])[0],
                    [plan for plan, _ in masked], mode, lengths)


def validation_loss(store: ParameterStore, clean: list[FeatureSequence],
                    masked: list[tuple[MaskPlan, FeatureSequence]], mode: str) -> float:
    """Full-depth loss of the validation utterances, one `batch_loss` per run of
    `pack_runs`, the runs weighted by utterance."""
    total = 0.0
    with ad.no_grad():
        for run in pack_runs([seq.num_frames for seq in clean]):
            loss = batch_loss(store, clean[run], masked[run], store.config.max_layers, mode)
            total += float(loss.data) * len(clean[run])
    return total / len(clean)


def train(corpus: LabeledCorpus, model_cfg: ConformerConfig, cfg: TrainConfig,
          mask_cfg: MaskConfig | None = None, out_dir: str | Path | None = None,
          resume_from: Checkpoint | None = None, echo: str | None = None) -> TrainResult:
    """Pretrain in float32; every input is checked before `out_dir` is written.

    A `resume_from` checkpoint's model config must be `model_cfg`, its seed
    (when it records one) `cfg.seed`, and its step at most `cfg.max_steps`;
    past step 0 it must hold Adam's moments, `adam.m` and `adam.v`, and at
    step 0 neither. Each checkpoint written holds the run's `TrainState`: its
    train.* lines and, once Adam has stepped, both moments. The directory is
    written in one order: the metrics file cut back to the resume step,
    `echo` as resolved_config.ini, then rows and checkpoints.
    """
    with ad.precision("float32"):
        return _train_impl(corpus, model_cfg, cfg, mask_cfg, out_dir, resume_from, echo)


def _train_impl(corpus: LabeledCorpus, model_cfg: ConformerConfig, cfg: TrainConfig,
                mask_cfg: MaskConfig | None, out_dir: str | Path | None,
                resume_from: Checkpoint | None, echo: str | None) -> TrainResult:
    mask_cfg = mask_cfg or MaskConfig()

    train_idx, val_idx = split_corpus(corpus, cfg.seed, cfg.val_fraction)

    if resume_from is not None:
        ck_cfg, tensors = resume_from
        store = store_from_checkpoint(ck_cfg, tensors)
        if store.config != model_cfg:
            raise ContractError(f"model {model_cfg} is not the resume checkpoint's {store.config}")
        state = train_state(ck_cfg)
        state.m, state.v = _adam_moments(store, tensors, state.step)
        if state.seed not in (None, cfg.seed):
            raise ContractError(f"seed {cfg.seed} is not the resume checkpoint's {state.seed}")
        if cfg.max_steps < state.step:
            raise ConfigError(f"train.max_steps={cfg.max_steps} is below the resume "
                              f"checkpoint's step {state.step}")
        state.seed = cfg.seed  # a checkpoint that records no seed continues under cfg's
    else:
        store = ParameterStore.init(model_cfg, substream(cfg.seed, "init"))
        state = TrainState(seed=cfg.seed)
    low, high = parse_depth(cfg.depth)
    check_depth(low, high, store.config.max_layers)
    corpus.check_dim(store.config.input_dim)
    val_clean = [corpus.sequences[i] for i in val_idx]
    val_masked = [mask_utterance(seq, mask_cfg) for seq in val_clean]  # fixed, by utterance id

    out_dir = Path(out_dir) if out_dir is not None else None
    metrics_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "metrics.jsonl"
        # a resumed run continues the rows of the run it resumes, cut back to
        # the checkpoint step, so the file matches an uninterrupted run's
        if resume_from is not None and path.exists():
            _truncate_metrics(path, state.step)
        if echo is not None:
            (out_dir / "resolved_config.ini").write_text(echo, encoding="utf-8")
        metrics_file = open(path, "a" if resume_from is not None else "w",
                            encoding="utf-8")

    def checkpoint(name: str) -> None:
        if out_dir is not None:
            os.fsync(metrics_file.fileno())
            _save_train_checkpoint(out_dir / name, store, state)

    metrics: list[dict] = []
    try:
        for step in range(state.step + 1, cfg.max_steps + 1):
            n_layers = sample_depth(low, high, substream(cfg.seed, "depth", step))
            batch_rng = substream(cfg.seed, "data", step)
            replace = len(train_idx) < cfg.batch_size
            batch = batch_rng.choice(train_idx, size=cfg.batch_size, replace=replace)

            clean = [corpus.sequences[int(i)] for i in batch]
            masked = [mask_utterance(seq, mask_cfg, substream(cfg.seed, "mask", step, slot))
                      for slot, seq in enumerate(clean)]
            rngs = [substream(cfg.seed, "dropout", step, slot) for slot in range(len(clean))]
            loss = batch_loss(store, clean, masked, n_layers, cfg.loss_mode, rngs)
            train_loss = float(loss.data)
            try:
                if not np.isfinite(train_loss):
                    raise DivergenceError(f"training loss became non-finite at step {step}")
                store.zero_grad()
                loss.backward()
                lr = noam_lr(step, cfg.warmup_steps, model_cfg.model_dim, cfg.peak_scale)
                adam_step(state, store, lr)
            except DivergenceError:
                # keep the last good state: adam_step rejects a non-finite
                # gradient before it updates anything, its step included
                checkpoint("final.ckpt")
                raise
            state.cum_layer_apps += n_layers * cfg.batch_size

            val = None
            # validation stays on the fixed grid even when max_steps is not a
            # multiple, so a shorter run logs a prefix of the longer run's rows
            if step % cfg.validation_every == 0:
                val = validation_loss(store, val_clean, val_masked, cfg.loss_mode)

            row = {"step": step, "sampled_depth": n_layers, "lr": lr,
                   "train_loss": train_loss, "val_loss": val,
                   "cum_layer_apps": state.cum_layer_apps}
            metrics.append(row)
            # the row leaves the process, and `checkpoint` fsyncs it, before any
            # checkpoint of its step, so none is ahead of the rows on disk
            if metrics_file is not None:
                metrics_file.write(json.dumps(row) + "\n")
                metrics_file.flush()

            if val is not None and val < state.best_val_loss:
                state.best_val_loss, state.best_step = val, step
                checkpoint("best.ckpt")
        checkpoint("final.ckpt")
    finally:
        if metrics_file is not None:
            metrics_file.close()
    return TrainResult(store, metrics, state.best_step, state.best_val_loss, state.cum_layer_apps)


# ---- train-state checkpointing ----------------------------------------------


_MOMENTS = ("m", "v")
# each numeric TrainState field and its parse; the one table of the train.* block
_TRAIN_KEYS = tuple((f.name, float if f.type == "float" else int)
                    for f in fields(TrainState) if f.name not in _MOMENTS)


def _save_train_checkpoint(path, store: ParameterStore, state: TrainState) -> None:
    extra_cfg = {f"train.{key}": repr(getattr(state, key)) for key, _ in _TRAIN_KEYS}
    moments = {f"adam.{key}": getattr(state, key) for key in _MOMENTS
               if getattr(state, key) is not None}
    save_checkpoint(path, store, extra_cfg, moments)


def train_state(ck_cfg: dict[str, str]) -> TrainState:
    """A checkpoint's train.* block; an absent key keeps its TrainState default.

    Counts and the seed must be non-negative integers and the loss a number;
    anything else is a FormatError.
    """
    state = TrainState()
    for key, parse in _TRAIN_KEYS:
        raw = ck_cfg.get(f"train.{key}")
        if raw is None:
            continue
        try:
            value = parse(raw)
        except ValueError:
            value = None
        if value is None or (parse is int and value < 0) or (parse is float and np.isnan(value)):
            kind = "a non-negative int" if parse is int else "a number"
            raise FormatError(f"checkpoint train.{key} must be {kind}, got {raw!r}")
        setattr(state, key, value)
    return state


def _adam_moments(store: ParameterStore, tensors: dict[str, np.ndarray],
                  step: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A checkpoint's `adam.m` and `adam.v` as fresh flat buffers in the store's layout.

    The one rule: a checkpoint past step 0 holds both, each finite and of the
    store buffer's shape; a step-0 checkpoint, written before the first Adam
    step, holds neither (None, None). Anything else is a FormatError.
    """
    names = [f"adam.{key}" for key in _MOMENTS]
    if step == 0:
        held = [name for name in names if name in tensors]
        if held:
            raise FormatError(f"checkpoint at train.step=0 holds {held[0]!r}, "
                              f"which only Adam's first step writes")
        return None, None
    moments = []
    for name in names:
        flat = tensors.get(name)
        if flat is None:
            raise FormatError(f"checkpoint at train.step={step} needs {name}, "
                              f"one flat tensor in the model's layout")
        if flat.shape != store.buffer.shape:
            raise FormatError(f"checkpoint tensor {name!r} has shape {flat.shape}, "
                              f"the model's layout {store.buffer.shape}")
        if not np.isfinite(flat).all():
            param = next(n for n, a in store.unflatten(flat).items() if not np.isfinite(a).all())
            raise FormatError(f"checkpoint tensor {name!r} holds NaN or inf, "
                              f"first in parameter {param!r}")
        moments.append(np.array(flat, dtype=store.buffer.dtype))
    return tuple(moments)


def _truncate_metrics(path: Path, step: int) -> None:
    """Cut a metrics file in place to its complete rows up to and including ``step``.

    Every row read must be a flat JSON object with an integer "step". A
    malformed row, or complete rows that end before ``step`` (the file has
    lost rows the checkpoint already covers), is a FormatError, and the file
    is left as it is.
    """
    offset = last = 0
    with open(path, "r+b") as f:
        for line in f:
            if not line.endswith(b"\n"):
                break
            try:
                row = json.loads(line)
            except (ValueError, RecursionError):  # nesting too deep to parse
                row = None
            if not (isinstance(row, dict) and type(row.get("step")) is int
                    and not any(isinstance(v, (dict, list)) for v in row.values())):
                raise FormatError(f"{path}: malformed row at byte {offset}")
            row_step = row["step"]
            if row_step > step:
                break
            offset += len(line)
            last = row_step
        if last < step:
            raise FormatError(f"{path}: rows end at step {last}, before the resume "
                              f"checkpoint's step {step}")
        f.truncate(offset)
