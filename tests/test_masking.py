import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedformer.errors import ConfigError, ContractError
from sharedformer.features import FeatureSequence
from sharedformer.masking import MaskConfig, MaskPlan, apply_masks, plan_masks


def rng(seed):
    return np.random.default_rng(seed)


def test_t100_gives_two_blocks():
    plan = plan_masks(100, block_len=7, ratio=0.15, rng=rng(0))
    assert len(plan.blocks) == 2
    assert plan.num_masked == 14


def test_minimum_one_block_covers_everything():
    plan = plan_masks(7, block_len=7, ratio=0.15, rng=rng(0))
    assert plan.blocks == [(0, 7)]


def test_t1000_block_count():
    # round-half-up(0.15 * 1000 / 7) = 21; only a terminal block may truncate
    plan = plan_masks(1000, rng=rng(3))
    assert len(plan.blocks) == 21
    assert plan.num_masked == 147


def test_mask_fraction_statistics():
    fractions = [plan_masks(500, rng=rng(s)).num_masked / 500 for s in range(1000)]
    assert 0.13 <= np.mean(fractions) <= 0.17


def test_plans_deterministic():
    a = plan_masks(321, rng=rng(42))
    b = plan_masks(321, rng=rng(42))
    assert a.blocks == b.blocks


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 400), st.integers(0, 10_000))
def test_plan_invariants(T, seed):
    plan = plan_masks(T, rng=rng(seed))
    prev_end = 0
    short = 0
    for start, length in plan.blocks:
        assert start >= prev_end
        assert start + length <= T
        if length < 7:
            short += 1
            assert start + 7 > T  # truncation only at the right edge
        prev_end = start + length
    assert short <= 1


def test_ratio_contract():
    with pytest.raises(ContractError):
        plan_masks(100, ratio=0.6, rng=rng(0))
    with pytest.raises(ContractError):
        plan_masks(0, rng=rng(0))


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


def test_tera_policy_branches():
    x = FeatureSequence("u", np.ones((50, 4), dtype=np.float32))
    plan = MaskPlan([(0, 7), (10, 7), (20, 7), (30, 7), (40, 7)], 50)
    policy = MaskConfig(policy="tera", p_zero=0.4, p_random=0.3)
    seen = set()
    for seed in range(40):
        out = apply_masks(x, plan, policy, rng(seed))
        for start, length in plan.blocks:
            block = out.frames[start:start + length]
            if np.all(block == 0.0):
                seen.add("zero")
            elif np.all(block == 1.0):
                seen.add("keep")
            else:
                seen.add("random")
    assert seen == {"zero", "keep", "random"}


def test_invalid_block_rejected():
    with pytest.raises(ContractError):
        MaskPlan([(5, 7), (8, 7)], 30)  # overlap
    with pytest.raises(ContractError):
        MaskPlan([(28, 7)], 30)  # runs past the end


@pytest.mark.parametrize("values", [dict(policy="bogus"), dict(p_zero=-0.1),
                                    dict(p_random=-0.1), dict(p_zero=0.6, p_random=0.5)])
def test_mask_config_contract(values):
    with pytest.raises(ConfigError):
        MaskConfig(**{"policy": "tera", **values})
