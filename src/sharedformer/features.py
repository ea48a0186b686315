"""Acoustic feature files and a synthetic labeled corpus.

Binary formats (little-endian):
  features: magic "LCFB", u32 version=1, u32 count; per sequence u32 id_len +
            utf-8 id, u32 T, u32 D, f32 frame_shift_ms, T*D f32 row-major.
  labels:   magic "LCLB", u32 version=1, u32 count; per sequence u32 id_len +
            id, u32 T, u32 C, T u16 labels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .errors import ConfigError, ContractError, FormatError, InputError
from .rng import substream

FEATURE_MAGIC = b"LCFB"
LABEL_MAGIC = b"LCLB"
MAX_CLASSES = 1 << 16  # labels are stored as u16


@dataclass
class FeatureSequence:
    utterance_id: str
    frames: np.ndarray  # T x D, float32
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise InputError(f"frames must be a T x D matrix with T,D >= 1, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise InputError(f"non-finite frame values in utterance {self.utterance_id!r}")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class LabeledCorpus:
    sequences: list[FeatureSequence]
    labels: list[np.ndarray] = field(default_factory=list)  # per sequence, length T, int
    num_classes: int = 0

    def __post_init__(self):
        for seq, lab in zip(self.sequences, self.labels):
            if len(lab) != seq.num_frames:
                raise InputError(f"label length {len(lab)} != frames {seq.num_frames} for {seq.utterance_id!r}")
            if self.num_classes and lab.size and int(lab.max()) >= self.num_classes:
                raise InputError(f"label id >= num_classes in {seq.utterance_id!r}")

    def check_dim(self, input_dim: int) -> None:
        """Reject a corpus whose frames a model of `input_dim` inputs cannot read."""
        if self.sequences and self.sequences[0].dim != input_dim:
            raise ContractError(f"feature dim mismatch: the model expects {input_dim}, "
                                f"the corpus has {self.sequences[0].dim}")


# ---- binary round trips ------------------------------------------------------


def save_features(sequences: list[FeatureSequence], path) -> None:
    parts = [codec.header(FEATURE_MAGIC), struct.pack("<I", len(sequences))]
    for seq in sequences:
        T, D = seq.frames.shape
        parts.append(codec.string(seq.utterance_id))
        parts.append(struct.pack("<IIf", T, D, float(seq.frame_shift_ms)))
        parts.append(np.ascontiguousarray(seq.frames, dtype="<f4").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_features(path) -> list[FeatureSequence]:
    r = codec.Reader(path, "feature file")
    r.header(FEATURE_MAGIC)
    out = []
    for _ in range(r.u32("sequence count")):
        uid = r.string("utterance id")
        T, D, shift = r.unpack("IIf", "shape")
        if T < 1 or D < 1 or T * D > 1 << 30:
            raise FormatError(f"implausible shape {T}x{D}", offset=r.off - 12)
        if out and D != out[0].dim:
            raise FormatError(f"utterance {uid!r} has feature dim {D}, the first "
                              f"utterance {out[0].dim}", offset=r.off - 8)
        frames = np.frombuffer(r.take(4 * T * D, "frame data"), dtype="<f4").reshape(T, D)
        out.append(FeatureSequence(uid, frames.copy(), shift))
    return out


def save_labels(corpus: LabeledCorpus, path) -> None:
    # one check over the whole corpus: a label outside u16 would wrap silently
    every = np.concatenate(corpus.labels) if corpus.labels else np.zeros(0, dtype=np.int64)
    if every.size and not (0 <= int(every.min()) and int(every.max()) < MAX_CLASSES):
        raise ContractError(f"labels span {int(every.min())}..{int(every.max())}, "
                            f"the label file holds 0..{MAX_CLASSES - 1}")
    parts = [codec.header(LABEL_MAGIC), struct.pack("<I", len(corpus.labels))]
    for seq, lab in zip(corpus.sequences, corpus.labels):
        parts.append(codec.string(seq.utterance_id))
        parts.append(struct.pack("<II", len(lab), corpus.num_classes))
        parts.append(np.ascontiguousarray(lab, dtype="<u2").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_labels(path) -> tuple[dict[str, np.ndarray], int]:
    """Returns (labels keyed by utterance id, num_classes).

    Every record must carry the same class count C and only labels below C.
    """
    r = codec.Reader(path, "label file")
    r.header(LABEL_MAGIC)
    labels: dict[str, np.ndarray] = {}
    num_classes = None
    for _ in range(r.u32("count")):
        uid = r.string("utterance id")
        at = r.off
        T, C = r.unpack("II", "shape")
        if num_classes is not None and C != num_classes:
            raise FormatError(f"class count {C} for {uid!r} disagrees with {num_classes}", offset=at + 4)
        num_classes = C
        lab = np.frombuffer(r.take(2 * T, "label data"), dtype="<u2").astype(np.int64)
        if lab.size and int(lab.max()) >= C:
            raise FormatError(f"label {int(lab.max())} >= class count {C} for {uid!r}", offset=at + 8)
        labels[uid] = lab
    return labels, num_classes or 0


# ---- synthetic corpus --------------------------------------------------------


def synth_corpus(seed: int, num_utts: int, t_range: tuple[int, int], dim: int,
                 num_classes: int, noise_sigma: float = 0.1,
                 self_transition: float = 0.9) -> LabeledCorpus:
    """Deterministic Markov-chain corpus with one emission mean per latent state.

    Each utterance follows a first-order chain over C states (uniform start,
    symmetric off-diagonal transitions), emitting its state mean plus Gaussian
    noise. Labels are the state ids, so raw frames are linearly separable.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if dim < 4:
        raise ConfigError(f"dim must be >= 4, got {dim}")
    t_min, t_max = t_range
    if not (1 <= t_min <= t_max):
        raise ConfigError(f"invalid t_range {t_range}")
    if not (0.0 <= self_transition < 1.0):
        raise ConfigError(f"self_transition must be in [0, 1), got {self_transition}")
    rng = substream(seed, "corpus")
    means = rng.normal(0.0, 1.0, size=(num_classes, dim))
    sequences, labels = [], []
    for u in range(num_utts):
        T = int(rng.integers(t_min, t_max + 1))
        states = np.empty(T, dtype=np.int64)
        states[0] = rng.integers(num_classes)
        for t in range(1, T):
            if rng.random() < self_transition:
                states[t] = states[t - 1]
            else:
                hop = rng.integers(1, num_classes)  # any state except the current one
                states[t] = (states[t - 1] + hop) % num_classes
        frames = means[states]
        if noise_sigma > 0.0:
            frames = frames + noise_sigma * rng.normal(size=(T, dim))
        sequences.append(FeatureSequence(f"synth-{seed}-{u:05d}", frames.astype(np.float32)))
        labels.append(states)
    return LabeledCorpus(sequences, labels, num_classes)
