"""Time-alteration masking: contiguous frame blocks up to a target ratio.

A mask zeroes the frames of its plan's blocks; only the plan is random.
`apply_masks` is the one place that zeroes frames: one copy of a packed
batch with every slot's plan applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .features import FeatureSequence
from .rng import utterance_seed


@dataclass
class MaskConfig:
    block_len: int = 7
    ratio: float = 0.15

    def __post_init__(self):
        if not (0.0 < self.ratio < 0.5):
            raise ConfigError(f"mask ratio must be in (0, 0.5), got {self.ratio}")
        if self.block_len < 1:
            raise ConfigError(f"mask block_len must be >= 1, got {self.block_len}")


@dataclass
class MaskPlan:
    blocks: list[tuple[int, int]]  # (start, length), sorted, non-overlapping
    total_frames: int

    def __post_init__(self):
        prev_end = 0
        for start, length in self.blocks:
            if start < prev_end or start < 0 or start + length > self.total_frames or length < 1:
                raise ContractError(f"invalid mask block ({start}, {length}) for T={self.total_frames}")
            prev_end = start + length

    @property
    def num_masked(self) -> int:
        return sum(length for _, length in self.blocks)

    def mask_rows(self) -> np.ndarray:
        idx = np.zeros(self.total_frames, dtype=bool)
        for start, length in self.blocks:
            idx[start:start + length] = True
        return idx


def plan_masks(T: int, cfg: MaskConfig, rng: np.random.Generator) -> MaskPlan:
    """Place n = round-half-up(ratio*T/block_len) blocks, at least one, uniformly.

    Every placement of n non-overlapping full blocks is equally likely: n
    distinct sorted draws c from range(free + n), free = T - n*block_len,
    put block i at c_i + i*(block_len - 1). Only T < block_len leaves no room
    for a full block; that plan is the single block (0, T).
    """
    if T < 1:
        raise ContractError(f"T must be >= 1, got {T}")
    n = max(1, math.floor(cfg.ratio * T / cfg.block_len + 0.5))
    free = T - n * cfg.block_len
    if free < 0:
        return MaskPlan([(0, T)], T)
    c = sorted(rng.choice(free + n, size=n, replace=False).tolist())
    return MaskPlan([(ci + i * (cfg.block_len - 1), cfg.block_len) for i, ci in enumerate(c)], T)


def apply_masks(frames: np.ndarray, plans: list[MaskPlan]) -> np.ndarray:
    """Copy of a packed (N, D) array with every plan's rows zeroed; `frames` is
    left untouched. Plan b covers slot b, the next `plans[b].total_frames` rows."""
    rows = np.concatenate([np.zeros(0, dtype=bool)] + [p.mask_rows() for p in plans])
    if len(rows) != len(frames):
        raise ContractError(f"plans cover {len(rows)} frames, the array has {len(frames)}")
    out = frames.copy()
    out[rows] = 0.0
    return out


def fixed_plan(x: FeatureSequence, cfg: MaskConfig) -> MaskPlan:
    """The utterance's fixed mask plan, drawn from a generator seeded by its id,
    so validation and the diagnostics see the same mask on every call."""
    return plan_masks(x.num_frames, cfg, np.random.default_rng(utterance_seed(x.utterance_id)))
