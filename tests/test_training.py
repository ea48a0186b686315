import json
import os
import re

import composite_block
import numpy as np
import pytest

from sharedformer import autodiff as ad
from sharedformer import encoder
from sharedformer.autodiff import Tensor
from sharedformer.encoder import (ConformerConfig, ParameterStore, forward, load_checkpoint,
                                  pack, save_checkpoint)
from sharedformer.errors import ConfigError, ContractError, DivergenceError, FormatError
from sharedformer.features import synth_corpus
from sharedformer.masking import MaskConfig, MaskPlan, mask_utterance
from sharedformer.rng import substream
from sharedformer.training import (TrainConfig, TrainState, adam_step, batch_loss,
                                   mpc_loss, noam_lr, predictor_apply, train, train_state)


def rng(seed):
    return np.random.default_rng(seed)


def small_corpus(seed=3):
    return synth_corpus(seed, 24, (15, 30), 16, 4)


def quick_train_config(**overrides):
    base = dict(batch_size=4, max_steps=30, warmup_steps=10, validation_every=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---- predictor --------------------------------------------------------------


def test_predictor_zero_weights(float64):
    store = ParameterStore.init(ConformerConfig(), substream(0, "init"))
    store.params["predictor.w"].data[:] = 0.0
    store.params["predictor.b"].data[:] = 0.0
    out = predictor_apply(Tensor(rng(0).normal(size=(5, 16))), store)
    np.testing.assert_array_equal(out.data, np.zeros((5, 16)))


def test_predictor_identity(float64):
    store = ParameterStore.init(ConformerConfig(), substream(0, "init"))
    store.params["predictor.w"].data = np.eye(16)
    store.params["predictor.b"].data[:] = 0.0
    x = rng(1).normal(size=(5, 16))
    np.testing.assert_allclose(predictor_apply(Tensor(x), store).data, x, atol=1e-12)


def test_predictor_gradient(float64):
    store = ParameterStore.init(ConformerConfig(), substream(0, "init"))
    x = rng(2).normal(size=(4, 16))
    target = rng(3).normal(size=(4, 16))
    params = [store.params["predictor.w"], store.params["predictor.b"]]
    err = ad.grad_check(lambda: mpc_loss(predictor_apply(Tensor(x), store), target),
                        params, eps=1e-6)
    assert err <= 1e-4


def test_predictor_shape_contract(float64):
    store = ParameterStore.init(ConformerConfig(), substream(0, "init"))
    with pytest.raises(ContractError):
        predictor_apply(Tensor(np.zeros((5, 7))), store)


# ---- loss -------------------------------------------------------------------


def test_loss_zero_when_equal(float64):
    x = rng(0).normal(size=(6, 4))
    assert float(mpc_loss(Tensor(x), x).data) == 0.0


def test_loss_constant_offset(float64):
    x = rng(1).normal(size=(6, 4))
    loss = mpc_loss(Tensor(x + 0.5), x)
    np.testing.assert_allclose(float(loss.data), 0.5, atol=1e-12)


def test_loss_masked_only_full_plan_equals_all_frames(float64):
    x = rng(2).normal(size=(14, 4))
    pred = Tensor(rng(3).normal(size=(14, 4)))
    plans = [MaskPlan([(0, 7), (7, 7)], 14)]
    a = float(mpc_loss(pred, x, plans, "all-frames").data)
    b = float(mpc_loss(pred, x, plans, "masked-only").data)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_loss_masked_only_needs_masked_frames(float64):
    x = np.zeros((5, 3))
    with pytest.raises(ContractError):
        mpc_loss(Tensor(x), x, [MaskPlan([], 5)], "masked-only")
    with pytest.raises(ContractError):
        mpc_loss(Tensor(x), x, None, "masked-only")


def test_loss_shape_contract(float64):
    with pytest.raises(ContractError):
        mpc_loss(Tensor(np.zeros((3, 2))), np.zeros((2, 3)))


def test_loss_rejects_rank_three_input(float64):
    x = np.zeros((1, 6, 4))
    with pytest.raises(ContractError):
        mpc_loss(Tensor(x), x)
    with pytest.raises(ContractError):
        mpc_loss(Tensor(x), x, [MaskPlan([(0, 3)], 6)], "masked-only")


def test_loss_masked_only_over_packed_plans(float64):
    lengths = [6, 9, 4]
    x = rng(4).normal(size=(19, 3))
    pred = Tensor(rng(5).normal(size=(19, 3)))
    plans = [MaskPlan([(1, 2)], 6), MaskPlan([(0, 3), (6, 3)], 9), MaskPlan([(3, 1)], 4)]
    loss = mpc_loss(pred, x, plans, "masked-only", lengths)
    # each slot's mean L1 over its masked frames only, then the mean over slots
    err = np.abs(pred.data - x)
    slots = np.split(err, np.cumsum(lengths)[:-1])
    expect = np.mean([e[p.mask_rows()].mean() for e, p in zip(slots, plans)])
    np.testing.assert_allclose(float(loss.data), expect, rtol=0, atol=1e-12)
    with pytest.raises(ContractError):  # a plan must cover its slot's frames
        mpc_loss(pred, x, plans[::-1], "masked-only", lengths)
    with pytest.raises(ContractError):  # the slots must cover the rows exactly
        mpc_loss(pred, x, plans, "masked-only", [6, 9])


# ---- schedule ---------------------------------------------------------------


def test_noam_crossover():
    w, d, scale = 200, 16, 0.7
    expect = scale * d ** -0.5 * w ** -0.5
    np.testing.assert_allclose(noam_lr(w, w, d, scale), expect, rtol=1e-12)


def test_noam_linear_ramp():
    w, d, scale = 200, 16, 0.7
    crossover = noam_lr(w, w, d, scale)
    np.testing.assert_allclose(noam_lr(w // 4, w, d, scale), crossover / 4, rtol=1e-12)


def test_noam_inverse_sqrt_decay():
    w, d, scale = 200, 16, 0.7
    crossover = noam_lr(w, w, d, scale)
    np.testing.assert_allclose(noam_lr(4 * w, w, d, scale), crossover / 2, rtol=1e-12)


def test_noam_step_contract():
    with pytest.raises(ContractError):
        noam_lr(0, 100, 16, 1.0)


# ---- adam -------------------------------------------------------------------


def _scalar_store(value):
    return ParameterStore(None, {"w": Tensor(np.array([value]), requires_grad=True, name="w")})


def test_adam_zero_gradients_leave_params(float64):
    store = _scalar_store(1.5)
    store.params["w"].grad = np.zeros(1)
    state = TrainState()
    adam_step(state, store, lr=0.1)
    assert float(store.params["w"].data[0]) == 1.5
    assert state.step == 1


def test_adam_first_step_is_signed_lr(float64):
    store = _scalar_store(2.0)
    store.params["w"].grad = np.array([0.3])
    adam_step(TrainState(), store, lr=0.01)
    # bias correction makes the first update lr * g / (|g| + eps)
    np.testing.assert_allclose(float(store.params["w"].data[0]),
                               2.0 - 0.01 * 0.3 / (0.3 + 1e-9), rtol=1e-10)


def test_adam_two_steps_match_hand_recurrence(float64):
    b1, b2, eps, lr = 0.9, 0.98, 1e-9, 0.05
    w = 3.0
    m = v = 0.0
    store = _scalar_store(w)
    state = TrainState()
    for t in (1, 2):
        g = 2.0 * w  # d/dw of w^2, evaluated like the training loop would
        store.params["w"].grad = np.array([g])
        adam_step(state, store, lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(float(store.params["w"].data[0]), w, atol=1e-12)


def test_adam_nan_gradient_names_parameter(float64):
    store = _scalar_store(1.0)
    store.params["w"].grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="'w'"):
        adam_step(TrainState(), store, lr=0.1)


def _reference_adam(moments, named, t, lr, beta1=0.9, beta2=0.98, eps=1e-9):
    """Per-tensor Adam loop, the reference the whole-buffer update must equal bitwise."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in named:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = moments.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + eps)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
def test_adam_step_matches_per_tensor_loop_bitwise(precision, share):
    cfg = ConformerConfig(share_params=share)
    with ad.precision(precision):
        store = ParameterStore.init(cfg, substream(0, "init"))
        loose = {n: Tensor(p.data.copy(), requires_grad=True, name=n)
                 for n, p in store.named_parameters()}
    named = sorted(loose.items())
    state, moments = TrainState(), {}
    r = rng(9)
    for t in (1, 2, 3):
        for i, (name, p) in enumerate(store.named_parameters()):
            grad = r.normal(size=p.data.shape).astype(precision) if (i + t) % 4 else None
            p.grad, loose[name].grad = grad, grad
        lr = noam_lr(t, 2, cfg.model_dim, 0.5)
        adam_step(state, store, lr)
        _reference_adam(moments, named, t, lr)
        m, v = store.unflatten(state.m), store.unflatten(state.v)
        for name, p in named:
            np.testing.assert_array_equal(store.params[name].data, p.data)
            np.testing.assert_array_equal(m[name], moments[name][0])
            np.testing.assert_array_equal(v[name], moments[name][1])
    assert state.step == 3 and state.m.dtype == np.dtype(precision)


@pytest.mark.parametrize("clip", [0.5, 100.0], ids=["norm-above-clip", "norm-below-clip"])
def test_adam_grad_clip_matches_hand_recurrence(float64, clip):
    b1, b2, eps, lr = 0.9, 0.98, 1e-9, 0.05

    def two_tensor_store():
        return ParameterStore(None, {"a": Tensor(np.array([1.0, -2.0]), requires_grad=True),
                                     "b": Tensor(np.array([0.5]), requires_grad=True)})

    store, unclipped = two_tensor_store(), two_tensor_store()
    state, unclipped_state = TrainState(), TrainState()
    w, m, v = np.array([1.0, -2.0, 0.5]), np.zeros(3), np.zeros(3)
    # global norms 13, 0.37 and 3: with clip 0.5 steps 1 and 3 are clipped
    for t, g in enumerate(([3.0, -4.0, 12.0], [0.1, 0.3, -0.2], [-2.0, 1.0, 2.0]), start=1):
        g = np.array(g)
        for s, st in ((store, state), (unclipped, unclipped_state)):
            s.params["a"].grad, s.params["b"].grad = g[:2].copy(), g[2:].copy()
            adam_step(st, s, lr, grad_clip=clip if s is store else 0.0)
        norm = np.sqrt(np.sum(g * g))
        if norm > clip:
            g = g * (clip / norm)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(store.buffer, w, atol=1e-12)
    if clip > 13.0:  # a norm below the clip leaves the update unchanged
        np.testing.assert_array_equal(store.buffer, unclipped.buffer)
    else:
        assert np.abs(store.buffer - unclipped.buffer).max() > 1e-3


def test_adam_rejects_a_detached_parameter(float64):
    store = _scalar_store(1.0)
    store.params["w"].data = np.array([2.0])
    store.params["w"].grad = np.array([0.5])
    with pytest.raises(ContractError, match="'w'"):
        adam_step(TrainState(), store, lr=0.1)


# ---- training loop ----------------------------------------------------------


def test_fixed_depth_logged(tmp_path):
    result = train(small_corpus(), ConformerConfig(),
                   quick_train_config(max_steps=8, depth="fixed:8"))
    assert all(m["sampled_depth"] == 8 for m in result.metrics)


def test_training_deterministic(tmp_path):
    corpus = small_corpus()
    for sub in ("a", "b"):
        train(corpus, ConformerConfig(), quick_train_config(), out_dir=tmp_path / sub)
    assert (tmp_path / "a/metrics.jsonl").read_bytes() == (tmp_path / "b/metrics.jsonl").read_bytes()
    assert (tmp_path / "a/final.ckpt").read_bytes() == (tmp_path / "b/final.ckpt").read_bytes()


def test_resume_matches_uninterrupted(tmp_path):
    corpus = small_corpus()
    train(corpus, ConformerConfig(), quick_train_config(max_steps=30),
          out_dir=tmp_path / "full")
    train(corpus, ConformerConfig(), quick_train_config(max_steps=18),
          out_dir=tmp_path / "part")
    train(corpus, ConformerConfig(), quick_train_config(max_steps=30),
          out_dir=tmp_path / "part", resume_from=load_checkpoint(tmp_path / "part/final.ckpt"))
    assert (tmp_path / "full/final.ckpt").read_bytes() == (tmp_path / "part/final.ckpt").read_bytes()
    full = [json.loads(l) for l in (tmp_path / "full/metrics.jsonl").read_text().splitlines()]
    part = [json.loads(l) for l in (tmp_path / "part/metrics.jsonl").read_text().splitlines()]
    assert part == full
    assert part[17]["step"] == 18 and part[18]["step"] == 19  # continues at the saved step


def test_resume_from_best_matches_uninterrupted(tmp_path):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=8, validation_every=3)
    train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    metrics = (tmp_path / "metrics.jsonl").read_bytes()
    final = (tmp_path / "final.ckpt").read_bytes()
    best_cfg, _ = load_checkpoint(tmp_path / "best.ckpt")
    assert int(best_cfg["train.step"]) < 8  # the resume replays logged steps
    train(corpus, ConformerConfig(), cfg, out_dir=tmp_path,
          resume_from=load_checkpoint(tmp_path / "best.ckpt"))
    assert (tmp_path / "metrics.jsonl").read_bytes() == metrics
    assert (tmp_path / "final.ckpt").read_bytes() == final


def test_step_zero_checkpoint_holds_no_adam_tensors(tmp_path):
    corpus = small_corpus()
    train(corpus, ConformerConfig(), quick_train_config(max_steps=0), out_dir=tmp_path / "zero")
    cfg, tensors = load_checkpoint(tmp_path / "zero/final.ckpt")
    assert cfg["train.step"] == "0"
    assert not [n for n in tensors if n.startswith("adam.")]
    result = train(corpus, ConformerConfig(), quick_train_config(max_steps=2),
                   out_dir=tmp_path / "two")
    _, tensors = load_checkpoint(tmp_path / "two/final.ckpt")
    # after the parameters, one flat float32 tensor per moment, in name order
    assert list(tensors) == [n for n, _ in result.store.named_parameters()] + ["adam.m", "adam.v"]
    assert tensors["adam.m"].shape == tensors["adam.v"].shape == result.store.buffer.shape


def test_train_state_round_trips_through_its_checkpoints(tmp_path):
    corpus = small_corpus()
    train(corpus, ConformerConfig(), quick_train_config(max_steps=0, seed=4),
          out_dir=tmp_path / "zero")
    assert train_state(load_checkpoint(tmp_path / "zero/final.ckpt")[0]) == TrainState(seed=4)
    cfg = quick_train_config(max_steps=8, validation_every=3, seed=4)
    result = train(corpus, ConformerConfig(), cfg, out_dir=tmp_path / "run")
    best = result.best_step
    assert 0 < best < 8  # a mid-run state, with a finite best loss
    assert train_state(load_checkpoint(tmp_path / "run/best.ckpt")[0]) == TrainState(
        best, result.best_val_loss, best, result.metrics[best - 1]["cum_layer_apps"], 4)
    assert train_state(load_checkpoint(tmp_path / "run/final.ckpt")[0]) == TrainState(
        8, result.best_val_loss, best, result.cum_layer_apps, 4)


def test_checkpoint_without_train_block_parses_to_the_defaults(tmp_path):
    save_checkpoint(tmp_path / "bare.ckpt",
                    ParameterStore.init(ConformerConfig(), rng(0)))
    assert train_state(load_checkpoint(tmp_path / "bare.ckpt")[0]) == TrainState()


def _poison(name):
    def edit(tensors):
        tensors[name][-1] = np.nan  # the last element belongs to predictor.w
    return edit


@pytest.mark.parametrize("step,edit,message", [
    (2, lambda tensors: tensors.pop("adam.v"), "needs adam.v"),
    (2, lambda tensors: tensors.pop("adam.m"), "needs adam.m"),
    (2, lambda tensors: [tensors.pop(n) for n in ("adam.m", "adam.v")], "needs adam.m"),
    (2, lambda tensors: tensors.update({"adam.m": tensors["adam.m"][:-1]}), "'adam.m' has shape"),
    (2, lambda tensors: tensors.update({"adam.v": tensors["adam.v"][:, None]}),
     "'adam.v' has shape"),
    (2, _poison("adam.v"), "'adam.v' holds NaN or inf, first in parameter 'predictor.w'"),
    (0, lambda tensors: tensors.update(  # a flat zero moment; step 0 holds only parameters
        {"adam.m": np.zeros(sum(a.size for a in tensors.values()), np.float32)}),
     "train.step=0 holds 'adam.m'"),
], ids=["missing", "missing-m", "both-missing", "wrong-shape", "not-flat", "nan", "step-0-with-m"])
def test_resume_rejects_adam_tensors_that_miss_the_layout(tmp_path, step, edit, message):
    corpus = small_corpus()
    train(corpus, ConformerConfig(), quick_train_config(max_steps=step), out_dir=tmp_path)
    ck_cfg, tensors = load_checkpoint(tmp_path / "final.ckpt")
    assert ck_cfg["train.step"] == str(step)
    edit(tensors)
    with pytest.raises(FormatError, match=re.escape(message)):
        train(corpus, ConformerConfig(), quick_train_config(max_steps=4),
              resume_from=(ck_cfg, tensors))


def test_resume_copies_the_checkpoint_s_moments(tmp_path):
    corpus = small_corpus()
    train(corpus, ConformerConfig(), quick_train_config(max_steps=2), out_dir=tmp_path)
    ck_cfg, tensors = load_checkpoint(tmp_path / "final.ckpt")
    before = {name: tensors[name].copy() for name in ("adam.m", "adam.v")}
    train(corpus, ConformerConfig(), quick_train_config(max_steps=4), resume_from=(ck_cfg, tensors))
    for name, a in before.items():
        np.testing.assert_array_equal(tensors[name], a)


def test_resume_rejects_a_model_config_other_than_the_checkpoint_s(tmp_path):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=2)
    train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    metrics = (tmp_path / "metrics.jsonl").read_bytes()
    with pytest.raises(ContractError, match="model_dim"):
        train(corpus, ConformerConfig(model_dim=32), quick_train_config(max_steps=4),
              out_dir=tmp_path, resume_from=load_checkpoint(tmp_path / "final.ckpt"))
    assert (tmp_path / "metrics.jsonl").read_bytes() == metrics


def test_resume_rejects_a_seed_other_than_the_checkpoint_s(tmp_path):
    corpus = small_corpus()
    train(corpus, ConformerConfig(), quick_train_config(max_steps=2, seed=5), out_dir=tmp_path)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ContractError, match="seed 0 is not the resume checkpoint's 5"):
        train(corpus, ConformerConfig(), quick_train_config(max_steps=4),
              out_dir=tmp_path, resume_from=load_checkpoint(tmp_path / "final.ckpt"))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_resume_rejects_malformed_metrics_row(tmp_path):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=4, validation_every=2)
    train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    path = tmp_path / "metrics.jsonl"
    path.write_bytes(b'{"step": 1}\nnot json\n')
    with pytest.raises(FormatError):
        train(corpus, ConformerConfig(), cfg, out_dir=tmp_path,
              resume_from=load_checkpoint(tmp_path / "final.ckpt"))
    assert path.read_bytes() == b'{"step": 1}\nnot json\n'


def test_rows_reach_the_file_before_each_checkpoint_of_their_step(tmp_path, monkeypatch):
    from sharedformer import training
    original = training._save_train_checkpoint
    seen = []

    def spy(path, store, state):
        rows = (tmp_path / "metrics.jsonl").read_text().splitlines()
        seen.append((path.name, state.step, json.loads(rows[-1])["step"] if rows else 0))
        return original(path, store, state)

    monkeypatch.setattr(training, "_save_train_checkpoint", spy)
    train(small_corpus(), ConformerConfig(), quick_train_config(max_steps=8, validation_every=3),
          out_dir=tmp_path)
    assert "best.ckpt" in [name for name, _, _ in seen]
    assert all(step == last_row for _, step, last_row in seen)


@pytest.mark.parametrize("keep", [0, 1], ids=["empty", "one-row-then-a-partial-row"])
def test_resume_rejects_rows_that_end_before_the_checkpoint(tmp_path, keep):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=8, validation_every=3)
    train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    path = tmp_path / "metrics.jsonl"
    rows = path.read_bytes().splitlines(keepends=True)
    text = b"".join(rows[:keep]) + (b'{"step": 2' if keep else b"")
    path.write_bytes(text)
    best_cfg, _ = load_checkpoint(tmp_path / "best.ckpt")
    assert int(best_cfg["train.step"]) > 1
    with pytest.raises(FormatError, match="before the resume checkpoint"):
        train(corpus, ConformerConfig(), cfg, out_dir=tmp_path,
              resume_from=load_checkpoint(tmp_path / "best.ckpt"))
    assert path.read_bytes() == text


def test_cumulative_layer_applications(tmp_path):
    cfg = quick_train_config(max_steps=50, depth="uniform:2:8")
    result = train(small_corpus(), ConformerConfig(), cfg)
    assert result.cum_layer_apps == sum(m["sampled_depth"] * cfg.batch_size for m in result.metrics)


def test_validation_loss_is_deterministic(tmp_path):
    corpus = small_corpus()
    a = train(corpus, ConformerConfig(), quick_train_config(max_steps=10))
    b = train(corpus, ConformerConfig(), quick_train_config(max_steps=10))
    va = [m["val_loss"] for m in a.metrics if m["val_loss"] is not None]
    vb = [m["val_loss"] for m in b.metrics if m["val_loss"] is not None]
    assert va == vb and va


def test_a_step_builds_two_substreams_and_two_per_slot(monkeypatch):
    from sharedformer import training

    calls = []
    original = training.substream

    def counting(seed, name, *indices):
        calls.append((name, *indices))
        return original(seed, name, *indices)

    monkeypatch.setattr(training, "substream", counting)
    train(small_corpus(), ConformerConfig(),
          quick_train_config(max_steps=3, batch_size=5, validation_every=2))
    assert sorted(calls[:2]) == [("data",), ("init",)]  # the model and the split
    for step in (1, 2, 3):
        names = sorted(name for name, *indices in calls if indices[:1] == [step])
        assert names == ["data", "depth"] + ["dropout"] * 5 + ["mask"] * 5
    assert len(calls) == 2 + 3 * (2 + 2 * 5)


def test_validation_masks_each_utterance_once_per_run(monkeypatch):
    from sharedformer import training

    calls = []
    original = training.mask_utterance

    def counting(seq, cfg, *rngs):
        if not rngs:  # the fixed validation mask
            calls.append(seq.utterance_id)
        return original(seq, cfg, *rngs)

    monkeypatch.setattr(training, "mask_utterance", counting)
    corpus = small_corpus()
    result = train(corpus, ConformerConfig(), quick_train_config(max_steps=9, validation_every=3))
    assert sum(m["val_loss"] is not None for m in result.metrics) == 3
    val_ids = [corpus.sequences[i].utterance_id
               for i in training.split_corpus(corpus, 0, TrainConfig().val_fraction)[1]]
    assert calls == val_ids


@pytest.mark.parametrize("mode", ["all-frames", "masked-only"])
def test_validation_loss_across_pack_runs_is_the_utterance_mean(float64, spanning_corpus, mode):
    from sharedformer.training import validation_loss

    store = ParameterStore.init(ConformerConfig(), substream(6, "init"))
    clean = spanning_corpus.sequences
    masked = [mask_utterance(seq, MaskConfig()) for seq in clean]
    with ad.no_grad():
        alone = [float(batch_loss(store, [c], [m], 8, mode).data) for c, m in zip(clean, masked)]
    assert validation_loss(store, clean, masked, mode) == pytest.approx(np.mean(alone),
                                                                        rel=1e-12, abs=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the run diverges on purpose
def test_divergence_preserves_last_checkpoint(tmp_path):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=40, peak_scale=1e30, warmup_steps=1)
    with pytest.raises(DivergenceError):
        train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    assert (tmp_path / "final.ckpt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergent run diverges on purpose
@pytest.mark.parametrize("diverge", [False, True], ids=["run", "divergence"])
def test_rows_are_fsynced_before_each_checkpoint(tmp_path, monkeypatch, diverge):
    # one entry per checkpoint fsync: did the metrics file's latest fsync
    # come after its latest row?
    metrics, synced, checkpoints = tmp_path / "metrics.jsonl", [None], []
    real_fsync = os.fsync

    def spy(fd):
        st = os.fstat(fd)
        if os.path.samestat(st, metrics.stat()):
            synced[0] = st.st_size
        else:  # a checkpoint's temp file
            checkpoints.append(synced[0] == metrics.stat().st_size)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    if diverge:
        with pytest.raises(DivergenceError):
            train(small_corpus(), ConformerConfig(),
                  quick_train_config(max_steps=40, peak_scale=1e30, warmup_steps=1),
                  out_dir=tmp_path)
        assert metrics.read_text() and checkpoints and all(checkpoints)
    else:
        result = train(small_corpus(), ConformerConfig(),
                       quick_train_config(max_steps=6, validation_every=2), out_dir=tmp_path)
        vals = [m["val_loss"] for m in result.metrics if m["val_loss"] is not None]
        bests = sum(v < min(vals[:i], default=np.inf) for i, v in enumerate(vals))
        assert len(vals) == 3 and checkpoints == [True] * (bests + 1)  # best.ckpt's, final.ckpt


def test_train_config_contracts():
    with pytest.raises(ConfigError):
        TrainConfig(warmup_steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(depth="linear")


def test_depth_range_beyond_model_rejected_before_step_one(tmp_path):
    with pytest.raises(ConfigError):
        train(small_corpus(), ConformerConfig(max_layers=3),
              quick_train_config(depth="uniform:2:8"), out_dir=tmp_path)
    assert not (tmp_path / "metrics.jsonl").exists()


# ---- packed batches ----------------------------------------------------------


def _masked_batch(seqs, step=1):
    return [mask_utterance(seq, MaskConfig(), substream(0, "mask", step, slot))
            for slot, seq in enumerate(seqs)]


def _dropout_rngs(n, step=1):
    return [substream(0, "dropout", step, slot) for slot in range(n)]


@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("mode", ["all-frames", "masked-only"])
def test_batched_loss_matches_per_utterance(float64, share, mode):
    """One packed graph gives the per-utterance losses' mean and its gradients."""
    seqs = synth_corpus(5, 5, (20, 50), 16, 4).sequences
    assert len({s.num_frames for s in seqs}) > 1
    store = ParameterStore.init(ConformerConfig(share_params=share), substream(0, "init"))
    masked = _masked_batch(seqs)
    depth = 6

    store.zero_grad()
    loss = batch_loss(store, seqs, masked, depth, mode, _dropout_rngs(len(seqs)))
    loss.backward()
    batched = {n: p.grad.copy() for n, p in store.named_parameters() if p.grad is not None}

    store.zero_grad()
    total = 0.0
    for slot, (seq, (plan, corrupted)) in enumerate(zip(seqs, masked)):
        emb, _ = forward(Tensor(corrupted.frames), store, depth,
                         rngs=[_dropout_rngs(len(seqs))[slot]])
        # this utterance's L1 mean over its frames, or over its masked frames
        rows = slice(None) if mode == "all-frames" else plan.mask_rows()
        err = predictor_apply(emb, store)[rows] - Tensor(seq.frames[rows])
        part = err.abs().mean() * (1.0 / len(seqs))
        part.backward()
        total += float(part.data)
    per_utt = {n: p.grad for n, p in store.named_parameters() if p.grad is not None}

    assert abs(float(loss.data) - total) <= 1e-12
    assert batched.keys() == per_utt.keys()
    for name, g in per_utt.items():
        np.testing.assert_allclose(batched[name], g, rtol=1e-9, atol=1e-13, err_msg=name)


def test_other_slots_values_change_no_slot_output_or_gradient(float64):
    store = ParameterStore.init(ConformerConfig(), substream(1, "init"))
    seqs = synth_corpus(6, 3, (10, 30), 16, 4).sequences
    x, lengths = pack([s.frames for s in seqs])
    target = pack([s.frames[::-1] for s in seqs])[0]
    mid = slice(lengths[0], lengths[0] + lengths[1])  # the second slot's rows

    def run(x):
        store.zero_grad()
        emb, _ = forward(Tensor(x), store, 4, rngs=_dropout_rngs(3), lengths=lengths)
        mpc_loss(predictor_apply(emb, store)[mid], target[mid]).backward()
        return emb.data, {n: p.grad.copy() for n, p in store.named_parameters()}

    emb, grads = run(x)
    others = np.ones(len(x), bool)
    others[mid] = False
    noise = rng(7).normal(scale=3.0, size=x.shape)
    emb2, grads2 = run(np.where(others[:, None], noise, x))
    np.testing.assert_allclose(emb2[mid], emb[mid], rtol=1e-12, atol=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(grads2[name], g, rtol=1e-10, atol=1e-14, err_msg=name)


def test_training_step_runs_one_backward(monkeypatch):
    calls = []
    original = Tensor.backward

    def counting(self):
        calls.append(self.shape)
        return original(self)

    monkeypatch.setattr(Tensor, "backward", counting)
    train(small_corpus(), ConformerConfig(), quick_train_config(max_steps=4, validation_every=2))
    assert len(calls) == 4  # validation builds no graph


def test_step_graph_does_not_grow_with_batch_size():
    corpus = small_corpus()

    def tensors_created(batch_size):
        start = next(ad._ids)
        train(corpus, ConformerConfig(), quick_train_config(
            max_steps=1, batch_size=batch_size, depth="fixed:4", validation_every=10))
        return next(ad._ids) - start

    assert tensors_created(2) == tensors_created(8)


@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
def test_training_with_the_primitive_chain_block_is_bitwise_equal(monkeypatch, share):
    corpus = small_corpus()
    model = ConformerConfig(max_layers=4, share_params=share)
    cfg = quick_train_config(max_steps=6, validation_every=3, depth="uniform:2:4")
    runs = []
    for block in (encoder.conformer_block, composite_block.conformer_block):
        monkeypatch.setattr(encoder, "conformer_block", block)
        start = next(ad._ids)
        result = train(corpus, model, cfg)
        runs.append((result, next(ad._ids) - start))
    (fused, fused_nodes), (chained, chained_nodes) = runs
    assert chained_nodes > 2 * fused_nodes  # the chain really ran
    assert [json.dumps(r) for r in fused.metrics] == [json.dumps(r) for r in chained.metrics]
    assert fused.store.buffer.tobytes() == chained.store.buffer.tobytes()
