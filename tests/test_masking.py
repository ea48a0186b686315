from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from sharedformer.errors import ConfigError, ContractError
from sharedformer.features import FeatureSequence
from sharedformer.masking import MaskConfig, MaskPlan, apply_masks, mask_utterance, plan_masks
from sharedformer.rng import substream


def rng(seed):
    return np.random.default_rng(seed)


def test_t100_gives_two_blocks():
    plan = plan_masks(100, MaskConfig(block_len=7, ratio=0.15), rng(0))
    assert len(plan.blocks) == 2
    assert plan.num_masked == 14


def test_minimum_one_block_covers_everything():
    plan = plan_masks(7, MaskConfig(block_len=7, ratio=0.15), rng(0))
    assert plan.blocks == [(0, 7)]


def test_t1000_block_count():
    # round-half-up(0.15 * 1000 / 7) = 21
    plan = plan_masks(1000, MaskConfig(), rng(3))
    assert len(plan.blocks) == 21
    assert plan.num_masked == 147


def test_mask_fraction_statistics():
    fractions = [plan_masks(500, MaskConfig(), rng(s)).num_masked / 500 for s in range(1000)]
    assert 0.13 <= np.mean(fractions) <= 0.17


def test_plans_deterministic():
    a = plan_masks(321, MaskConfig(), rng(42))
    b = plan_masks(321, MaskConfig(), rng(42))
    assert a.blocks == b.blocks


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.integers(1, 12), st.floats(0.01, 0.49), st.integers(0, 10_000))
def test_plan_invariants(T, block_len, ratio, seed):
    cfg = MaskConfig(block_len=block_len, ratio=ratio)
    plan = plan_masks(T, cfg, rng(seed))
    if T < block_len:
        assert plan.blocks == [(0, T)]
        return
    assert len(plan.blocks) == max(1, int(np.floor(ratio * T / block_len + 0.5)))
    prev_end = 0
    for start, length in plan.blocks:
        assert length == block_len
        assert start >= prev_end
        assert start + length <= T
        prev_end = start + length


def test_placement_is_uniform():
    # T = 30, ratio 0.45: two 7-frame blocks, C(16 + 2, 2) = 153 placements
    T, cfg = 30, MaskConfig(block_len=7, ratio=0.45)
    placements = [p for p in combinations(range(T - cfg.block_len + 1), 2)
                  if p[1] >= p[0] + cfg.block_len]
    assert len(placements) == 153
    g = rng(0)
    counts = Counter(tuple(s for s, _ in plan_masks(T, cfg, g).blocks)
                     for _ in range(200 * len(placements)))
    assert set(counts) == set(placements)
    assert chisquare([counts[p] for p in placements]).pvalue > 1e-3


def test_ratio_contract():
    with pytest.raises(ConfigError):
        MaskConfig(ratio=0.6)
    with pytest.raises(ContractError):
        plan_masks(0, MaskConfig(), rng(0))


def test_apply_empty_plan_is_identity():
    x = FeatureSequence("u", rng(0).normal(size=(20, 4)).astype(np.float32))
    out = apply_masks(x, MaskPlan([], 20))
    np.testing.assert_array_equal(out.frames, x.frames)


def test_apply_full_coverage_zeroes_everything():
    x = FeatureSequence("u", rng(0).normal(size=(14, 4)).astype(np.float32))
    plan = MaskPlan([(0, 7), (7, 7)], 14)
    out = apply_masks(x, plan)
    np.testing.assert_array_equal(out.frames, np.zeros((14, 4)))


def test_apply_single_block_rows():
    x = FeatureSequence("u", rng(1).normal(size=(30, 4)).astype(np.float32))
    out = apply_masks(x, MaskPlan([(10, 7)], 30))
    np.testing.assert_array_equal(out.frames[10:17], 0.0)
    np.testing.assert_array_equal(out.frames[:10], x.frames[:10])
    np.testing.assert_array_equal(out.frames[17:], x.frames[17:])
    # original untouched
    assert not np.all(x.frames[10:17] == 0.0)


def test_apply_t_mismatch():
    x = FeatureSequence("u", np.ones((10, 4), dtype=np.float32))
    with pytest.raises(ContractError):
        apply_masks(x, MaskPlan([(0, 7)], 20))


def test_training_mask_plans_and_applies_from_one_generator():
    x = FeatureSequence("u", np.ones((300, 4), dtype=np.float32))
    cfg = MaskConfig()
    g = substream(0, "mask", 1, 0)
    plan, out = mask_utterance(x, cfg, g)
    expect_g = substream(0, "mask", 1, 0)
    assert plan == plan_masks(x.num_frames, cfg, expect_g)
    np.testing.assert_array_equal(out.frames, apply_masks(x, plan).frames)
    # applying the plan draws nothing: the generator stops where the plan left it
    assert g.bit_generator.state == expect_g.bit_generator.state


def test_invalid_block_rejected():
    with pytest.raises(ContractError):
        MaskPlan([(5, 7), (8, 7)], 30)  # overlap
    with pytest.raises(ContractError):
        MaskPlan([(28, 7)], 30)  # runs past the end


@pytest.mark.parametrize("values", [dict(ratio=0.0), dict(ratio=0.5),
                                    dict(ratio=float("nan")), dict(block_len=0)])
def test_mask_config_contract(values):
    with pytest.raises(ConfigError):
        MaskConfig(**values)
