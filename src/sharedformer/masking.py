"""Time-alteration masking: contiguous frame blocks up to a target ratio.

Default policy zeroes masked frames. A TERA-style mixed policy (zero /
unit-variance noise / keep, with configurable probabilities) is available but
not default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .features import FeatureSequence
from .rng import utterance_seed

MAX_REJECTION_ATTEMPTS = 1000


@dataclass
class MaskConfig:
    block_len: int = 7
    ratio: float = 0.15
    policy: str = "zero"  # "zero" | "tera"
    p_zero: float = 0.8  # tera only
    p_random: float = 0.1  # tera only; the remaining probability keeps the frames

    def __post_init__(self):
        if not (0.0 < self.ratio < 0.5):
            raise ConfigError(f"mask ratio must be in (0, 0.5), got {self.ratio}")
        if self.block_len < 1:
            raise ConfigError(f"mask block_len must be >= 1, got {self.block_len}")
        if self.policy not in ("zero", "tera"):
            raise ConfigError(f"mask policy must be 'zero' or 'tera', got {self.policy!r}")
        if not (self.p_zero >= 0.0 and self.p_random >= 0.0 and self.p_zero + self.p_random <= 1.0):
            raise ConfigError(f"need p_zero, p_random >= 0 and p_zero + p_random <= 1, "
                              f"got {self.p_zero}, {self.p_random}")


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


def plan_masks(T: int, block_len: int = 7, ratio: float = 0.15,
               rng: np.random.Generator | None = None) -> MaskPlan:
    """Place round-half-up(ratio*T/block_len) blocks, at least one, uniformly.

    Rejection sampling with a bounded attempt budget; falls back to greedy
    left-to-right placement. Blocks running past the end are truncated, so at
    most one block per plan is shorter than block_len.
    """
    if T < 1:
        raise ContractError(f"T must be >= 1, got {T}")
    if not (0.0 < ratio < 0.5):
        raise ContractError(f"ratio must be in (0, 0.5), got {ratio}")
    if block_len < 1:
        raise ContractError(f"block_len must be >= 1, got {block_len}")
    if rng is None:
        rng = np.random.default_rng(0)
    num_blocks = max(1, math.floor(ratio * T / block_len + 0.5))

    # sample where a full block fits; truncation only happens when T < block_len
    start_limit = max(1, T - block_len + 1)
    starts: list[int] = []
    for _ in range(MAX_REJECTION_ATTEMPTS):
        if len(starts) == num_blocks:
            break
        cand = int(rng.integers(0, start_limit))
        if all(cand + block_len <= s or s + block_len <= cand for s in starts):
            starts.append(cand)
    else:
        # greedy fallback: fill remaining blocks left-to-right into free gaps
        taken = sorted(starts)
        pos = 0
        while len(starts) < num_blocks and pos < T:
            if all(pos + block_len <= s or s + block_len <= pos for s in taken):
                starts.append(pos)
                taken = sorted(starts)
                pos += block_len
            else:
                pos += 1

    blocks = [(s, min(block_len, T - s)) for s in sorted(starts)]
    return MaskPlan(blocks, T)


def apply_masks(x: FeatureSequence, plan: MaskPlan, cfg: MaskConfig | None = None,
                rng: np.random.Generator | None = None) -> FeatureSequence:
    """Corrupted copy of x per the plan and the config's policy; x is left untouched."""
    if plan.total_frames != x.num_frames:
        raise ContractError(f"plan T={plan.total_frames} but sequence has {x.num_frames} frames")
    cfg = cfg or MaskConfig()
    frames = x.frames.copy()
    if cfg.policy == "zero":
        frames[plan.mask_rows()] = 0.0
    elif cfg.policy == "tera":
        if rng is None:
            raise ContractError("tera policy needs an rng")
        for start, length in plan.blocks:
            u = rng.random()
            if u < cfg.p_zero:
                frames[start:start + length] = 0.0
            elif u < cfg.p_zero + cfg.p_random:
                frames[start:start + length] = rng.normal(
                    0.0, 1.0, size=(length, x.dim)).astype(np.float32)
            # else: keep original frames
    else:
        raise ContractError(f"unknown mask policy {cfg.policy!r}")
    return FeatureSequence(x.utterance_id, frames, x.frame_shift_ms)


def mask_utterance(x: FeatureSequence, cfg: MaskConfig,
                   rng: np.random.Generator | None = None) -> tuple[MaskPlan, FeatureSequence]:
    """Plan and apply one utterance's mask, both drawing from the one generator `rng`.

    Without `rng` the mask is fixed by the utterance id (a generator seeded
    from it), which is how validation and the diagnostics see the same mask
    on every call.
    """
    if rng is None:
        rng = np.random.default_rng(utterance_seed(x.utterance_id))
    plan = plan_masks(x.num_frames, cfg.block_len, cfg.ratio, rng)
    return plan, apply_masks(x, plan, cfg, rng)
