from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from sharedformer import autodiff as ad
from sharedformer.encoder import pack
from sharedformer.errors import ConfigError, ContractError
from sharedformer.features import FeatureSequence
from sharedformer.masking import MaskConfig, MaskPlan, apply_masks, fixed_plan, plan_masks
from sharedformer.rng import substream, utterance_seed


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
    x = rng(0).normal(size=(20, 4)).astype(np.float32)
    np.testing.assert_array_equal(apply_masks(x, [MaskPlan([], 20)]), x)


def test_apply_full_coverage_zeroes_everything():
    x = rng(0).normal(size=(14, 4)).astype(np.float32)
    out = apply_masks(x, [MaskPlan([(0, 7), (7, 7)], 14)])
    np.testing.assert_array_equal(out, np.zeros((14, 4)))


def test_apply_single_block_rows():
    x = rng(1).normal(size=(30, 4)).astype(np.float32)
    out = apply_masks(x, [MaskPlan([(10, 7)], 30)])
    np.testing.assert_array_equal(out[10:17], 0.0)
    np.testing.assert_array_equal(out[:10], x[:10])
    np.testing.assert_array_equal(out[17:], x[17:])
    # original untouched
    assert not np.all(x[10:17] == 0.0)


def test_apply_t_mismatch():
    # the plans must cover exactly the array's rows, slot after slot
    x = np.ones((10, 4), dtype=np.float32)
    for totals in ([20], [7], [7, 7], []):
        with pytest.raises(ContractError):
            apply_masks(x, [MaskPlan([(0, 7)], T) for T in totals])


def _slots_and_plans(draw):
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    plans = []
    for T in lengths:
        # distinct sorted edges, paired up: any set of separated blocks
        edges = sorted(draw(st.sets(st.integers(0, T), max_size=8)))
        plans.append(MaskPlan([(a, b - a) for a, b in zip(edges[::2], edges[1::2])], T))
    return lengths, plans


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 99))
def test_packed_masks_match_each_utterance_zeroed_alone(data, dtype, seed):
    lengths, plans = _slots_and_plans(data.draw)
    frames = [rng(seed + b).normal(size=(T, 3)).astype(np.float32) for b, T in enumerate(lengths)]
    with ad.precision(dtype):
        x = pack(frames)[0]
        before = x.copy()
        out = apply_masks(x, plans)
        alone = []
        for f, plan in zip(frames, plans):
            z = f.copy()
            z[plan.mask_rows()] = 0.0
            alone.append(z)
        want = pack(alone)[0]
    assert out.dtype == want.dtype == np.dtype(dtype)
    assert out.tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes()


def test_training_mask_plans_and_applies_from_one_generator():
    # a training slot's plan is the one draw from its ("mask", step, slot)
    # stream; applying it zeroes exactly the plan's rows and draws nothing
    x = np.ones((300, 4), dtype=np.float32)
    cfg = MaskConfig()
    plan = plan_masks(300, cfg, substream(0, "mask", 1, 0))
    assert plan == plan_masks(300, cfg, substream(0, "mask", 1, 0))
    zeroed = (apply_masks(x, [plan]) == 0.0).all(axis=1)
    np.testing.assert_array_equal(zeroed, plan.mask_rows())


def test_fixed_plan_is_seeded_by_the_utterance_id():
    cfg = MaskConfig()
    x = FeatureSequence("u-7", np.ones((300, 4), dtype=np.float32))
    want = plan_masks(300, cfg, np.random.default_rng(utterance_seed("u-7")))
    assert fixed_plan(x, cfg) == fixed_plan(x, cfg) == want
    assert fixed_plan(FeatureSequence("u-8", x.frames), cfg) != want


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
