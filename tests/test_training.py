import json

import numpy as np
import pytest

from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor
from sharedformer.encoder import (ConformerConfig, ParameterStore, forward,
                                  load_checkpoint)
from sharedformer.errors import ConfigError, ContractError, DivergenceError, FormatError
from sharedformer.features import synth_corpus
from sharedformer.masking import MaskConfig, MaskPlan, mask_utterance
from sharedformer.rng import substream
from sharedformer.training import (AdamState, TrainConfig, adam_step, batch_loss,
                                   mpc_loss, noam_lr, predictor_apply, train)


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
    plan = MaskPlan([(0, 7), (7, 7)], 14)
    a = float(mpc_loss(pred, x, plan, "all-frames").data)
    b = float(mpc_loss(pred, x, plan, "masked-only").data)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_loss_masked_only_needs_masked_frames(float64):
    x = np.zeros((5, 3))
    with pytest.raises(ContractError):
        mpc_loss(Tensor(x), x, MaskPlan([], 5), "masked-only")


def test_loss_shape_contract(float64):
    with pytest.raises(ContractError):
        mpc_loss(Tensor(np.zeros((3, 2))), np.zeros((2, 3)))


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
    store = ParameterStore.__new__(ParameterStore)
    store.config = None
    store.params = {"w": Tensor(np.array([value]), requires_grad=True, name="w")}
    store.block_applications = 0
    return store


def test_adam_zero_gradients_leave_params(float64):
    store = _scalar_store(1.5)
    store.params["w"].grad = np.zeros(1)
    state = AdamState()
    adam_step(state, store, lr=0.1)
    assert float(store.params["w"].data[0]) == 1.5
    assert state.step == 1


def test_adam_first_step_is_signed_lr(float64):
    store = _scalar_store(2.0)
    store.params["w"].grad = np.array([0.3])
    adam_step(AdamState(), store, lr=0.01)
    # bias correction makes the first update lr * g / (|g| + eps)
    np.testing.assert_allclose(float(store.params["w"].data[0]),
                               2.0 - 0.01 * 0.3 / (0.3 + 1e-9), rtol=1e-10)


def test_adam_two_steps_match_hand_recurrence(float64):
    b1, b2, eps, lr = 0.9, 0.98, 1e-9, 0.05
    w = 3.0
    m = v = 0.0
    store = _scalar_store(w)
    state = AdamState()
    for t in (1, 2):
        g = 2.0 * w  # d/dw of w^2, evaluated like the training loop would
        store.params["w"].grad = np.array([g])
        adam_step(state, store, lr, b1, b2, eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(float(store.params["w"].data[0]), w, atol=1e-12)


def test_adam_nan_gradient_names_parameter(float64):
    store = _scalar_store(1.0)
    store.params["w"].grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="'w'"):
        adam_step(AdamState(), store, lr=0.1)


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
          out_dir=tmp_path / "part", resume_from=tmp_path / "part/final.ckpt")
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
          resume_from=tmp_path / "best.ckpt")
    assert (tmp_path / "metrics.jsonl").read_bytes() == metrics
    assert (tmp_path / "final.ckpt").read_bytes() == final


def test_resume_rejects_malformed_metrics_row(tmp_path):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=4, validation_every=2)
    train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    path = tmp_path / "metrics.jsonl"
    path.write_bytes(b'{"step": 1}\nnot json\n')
    with pytest.raises(FormatError):
        train(corpus, ConformerConfig(), cfg, out_dir=tmp_path,
              resume_from=tmp_path / "final.ckpt")
    assert path.read_bytes() == b'{"step": 1}\nnot json\n'


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


def test_divergence_preserves_last_checkpoint(tmp_path):
    corpus = small_corpus()
    cfg = quick_train_config(max_steps=40, peak_scale=1e30, warmup_steps=1)
    with pytest.raises(DivergenceError):
        train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    assert (tmp_path / "final.ckpt").exists()


def test_train_config_contracts():
    with pytest.raises(ConfigError):
        TrainConfig(warmup_steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(depth="linear")
    with pytest.raises(ConfigError):
        TrainConfig(precision="float16")


def test_depth_range_beyond_model_rejected_before_step_one(tmp_path):
    with pytest.raises(ConfigError):
        train(small_corpus(), ConformerConfig(max_layers=3),
              quick_train_config(depth="uniform:2:8"), out_dir=tmp_path)
    assert not (tmp_path / "metrics.jsonl").exists()


# ---- padded batches ----------------------------------------------------------


def _masked_batch(seqs, step=1):
    return [mask_utterance(seq, MaskConfig(), substream(0, "mask", step, slot),
                           substream(0, "mask", step, slot, 1))
            for slot, seq in enumerate(seqs)]


def _dropout_rngs(n, step=1):
    return [substream(0, "dropout", step, slot) for slot in range(n)]


@pytest.mark.parametrize("share", [True, False], ids=["shared", "unshared"])
@pytest.mark.parametrize("mode", ["all-frames", "masked-only"])
def test_batched_loss_matches_per_utterance(float64, share, mode):
    """One padded graph gives the per-utterance losses' mean and its gradients."""
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
        emb, _ = forward(Tensor(corrupted.frames), store, depth, train_mode=True,
                         rng=_dropout_rngs(len(seqs))[slot])
        part = mpc_loss(predictor_apply(emb, store), seq.frames, plan, mode) * (1.0 / len(seqs))
        part.backward()
        total += float(part.data)
    per_utt = {n: p.grad for n, p in store.named_parameters() if p.grad is not None}

    assert abs(float(loss.data) - total) <= 1e-12
    assert batched.keys() == per_utt.keys()
    for name, g in per_utt.items():
        np.testing.assert_allclose(batched[name], g, rtol=1e-9, atol=1e-13, err_msg=name)


def test_padding_values_change_no_real_output_or_gradient(float64):
    store = ParameterStore.init(ConformerConfig(), substream(1, "init"))
    seqs = synth_corpus(6, 3, (10, 30), 16, 4).sequences
    lengths = [s.num_frames for s in seqs]
    T = max(lengths)
    assert min(lengths) < T
    x = np.zeros((3, T, 16))
    target = np.zeros((3, T, 16))
    for b, seq in enumerate(seqs):
        x[b, :lengths[b]] = seq.frames
        target[b, :lengths[b]] = seq.frames[::-1]

    def run(x, target):
        store.zero_grad()
        emb, _ = forward(Tensor(x), store, 4, train_mode=True, rng=_dropout_rngs(3),
                         lengths=lengths)
        mpc_loss(predictor_apply(emb, store), target, lengths=lengths).backward()
        return emb.data, {n: p.grad.copy() for n, p in store.named_parameters()}

    emb, grads = run(x, target)
    noise = rng(7).normal(scale=3.0, size=x.shape)
    pad = np.arange(T)[None, :, None] >= np.asarray(lengths)[:, None, None]
    emb2, grads2 = run(np.where(pad, noise, x), np.where(pad, -noise, target))
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(emb2[b, :n], emb[b, :n], rtol=1e-12, atol=1e-12)
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
