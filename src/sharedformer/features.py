"""Acoustic feature ingestion, log-mel extraction, and a synthetic labeled corpus.

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
from .errors import ConfigError, FormatError, InputError
from .rng import substream

FEATURE_MAGIC = b"LCFB"
LABEL_MAGIC = b"LCLB"
LOG_FLOOR = 1e-10


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
        frames = np.frombuffer(r.take(4 * T * D, "frame data"), dtype="<f4").reshape(T, D)
        out.append(FeatureSequence(uid, frames.copy(), shift))
    return out


def save_labels(corpus: LabeledCorpus, path) -> None:
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


# ---- log-mel extraction ------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters over rFFT bins; shape (n_fft//2 + 1, n_mels)."""
    n_bins = n_fft // 2 + 1
    freqs = np.arange(n_bins) * sample_rate / n_fft
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))
    fb = np.zeros((n_bins, n_mels))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[:, m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def logmel_extract(pcm, sample_rate: int, n_mels: int = 80,
                   frame_len_ms: float = 25.0, frame_shift_ms: float = 10.0,
                   utterance_id: str = "utt") -> FeatureSequence:
    """Log mel filterbank energies from 16-bit mono samples."""
    if sample_rate not in (8000, 16000):
        raise ConfigError(f"sample_rate must be 8000 or 16000, got {sample_rate}")
    if n_mels < 4:
        raise ConfigError(f"n_mels must be >= 4, got {n_mels}")
    pcm = np.asarray(pcm, dtype=np.float64)
    frame_len = int(round(sample_rate * frame_len_ms / 1000.0))
    frame_shift = int(round(sample_rate * frame_shift_ms / 1000.0))
    if pcm.size < frame_len:
        raise InputError(f"audio too short: {pcm.size} samples < one {frame_len}-sample frame")
    num_frames = 1 + (pcm.size - frame_len) // frame_shift
    n_fft = 1
    while n_fft < frame_len:
        n_fft *= 2
    window = np.hanning(frame_len)
    fb = mel_filterbank(n_mels, n_fft, sample_rate)
    idx = np.arange(frame_len) + frame_shift * np.arange(num_frames)[:, None]
    spec = np.abs(np.fft.rfft(pcm[idx] * window, n=n_fft, axis=1)) ** 2
    feats = np.log(np.maximum(spec @ fb, LOG_FLOOR))
    return FeatureSequence(utterance_id, feats.astype(np.float32), frame_shift_ms)


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
