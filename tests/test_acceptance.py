"""End-to-end acceptance checks for the desk-scale configuration.

Two 2000-step models are trained once per session (shared parameters with
uniform depth sampling, and the unshared fixed-depth baseline) and every
criterion reads from them. Each test prints a single pass/fail line. The
tests that need those trainings, or the rerun criterion 9 compares against,
are marked `slow`: `pytest -m "not slow"` skips all three trainings.

Training is single-threaded, so the baseline trains in a forked child process
while the shared model and then its determinism rerun train in this one; on a
machine with more than one core the runs overlap in time.
"""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from sharedformer import autodiff as ad
from sharedformer.autodiff import Tensor
from sharedformer.config import RunConfig, apply_preset
from sharedformer.diagnostics import (collect_traces, flop_report,
                                      gradient_decomposition,
                                      layer_transitions, layer_embeddings,
                                      linear_probe, probe_split, sli_sweep)
from sharedformer.encoder import (ConformerConfig, ParameterStore,
                                  conformer_block, load_checkpoint,
                                  param_count, save_checkpoint,
                                  store_from_checkpoint)
from sharedformer.features import (FeatureSequence, LabeledCorpus,
                                   load_features, load_labels, save_features,
                                   save_labels, synth_corpus)
from sharedformer.masking import plan_masks
from sharedformer.rng import substream
from sharedformer.training import TrainConfig, split_corpus, train

DESK_STEPS = 2000


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, emitted past pytest's capture."""

    def emit(criterion, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"criterion {criterion} [{name}]: {status}{suffix}")

    return emit


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(7, 300, (40, 100), 16, 4)


def desk_train_config(**overrides):
    base = dict(batch_size=8, max_steps=DESK_STEPS, warmup_steps=200,
                peak_scale=0.5, validation_every=100, seed=0,
                depth="uniform:2:8")
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def baseline_run(corpus, tmp_path_factory):
    """Start training the unshared baseline in a forked child process.

    model_a requests this first, so the baseline trains while model_a does.
    """
    out = tmp_path_factory.mktemp("model_b")
    pool = multiprocessing.get_context("fork").Pool(1)
    pending = pool.apply_async(
        train, (corpus, ConformerConfig(share_params=False),
                desk_train_config(depth="fixed:8")),
        {"out_dir": out})
    yield pending, out
    pool.terminate()
    pool.join()


@pytest.fixture(scope="module")
def model_a(corpus, tmp_path_factory, baseline_run):
    """Shared parameters, depth sampled from U(2, 8)."""
    out = tmp_path_factory.mktemp("model_a")
    result = train(corpus, ConformerConfig(share_params=True),
                   desk_train_config(), out_dir=out)
    return result, out


@pytest.fixture(scope="module")
def model_b(baseline_run):
    """Independent layer parameters, fixed full depth."""
    pending, out = baseline_run
    return pending.get(), out


@pytest.fixture(scope="module")
def model_a_rerun(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("model_a_rerun")
    result = train(corpus, ConformerConfig(share_params=True),
                   desk_train_config(), out_dir=out)
    return result, out


# ---- criterion 1: gradient correctness ---------------------------------------


def test_criterion_1_gradient_correctness(float64, report):
    worst_ops = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)

        def make(*shape):
            return Tensor(r.normal(size=shape), requires_grad=True)

        a, b = make(3, 4), make(3, 4)
        m1, m2 = make(3, 4), make(4, 2)
        gamma, beta = make(4), make(4)
        kern = make(3, 4)
        # weight the softmax output: a plain row sum is constant 1 with a
        # gradient of exactly zero, which a relative error cannot resolve
        coeffs = Tensor(r.normal(size=(3, 4)))
        checks = [
            (lambda: ((a * b + a - b) * 0.5).sum(), [a, b]),
            (lambda: (m1 @ m2).abs().mean(), [m1, m2]),
            (lambda: (ad.softmax(a) * coeffs).sum(), [a]),
            (lambda: ad.layer_norm(a, gamma, beta).abs().sum(), [a, gamma, beta]),
            (lambda: (ad.swish(a) + ad.sigmoid(b)).mean(), [a, b]),
            (lambda: ad.depthwise_conv1d(a, kern).abs().sum(), [a, kern]),
            (lambda: a.reshape(4, 3).transpose((1, 0)).sum(), [a]),
        ]
        for f, params in checks:
            worst_ops = max(worst_ops, ad.grad_check(f, params, eps=1e-6))

    worst_block = 0.0
    cfg = ConformerConfig(input_dim=5, model_dim=6, num_heads=2, ff_dim=7,
                          conv_kernel=3, max_layers=3)
    for seed in range(20):
        store = ParameterStore.init(cfg, substream(seed, "init"))
        group = store.layer_group(0)
        r = np.random.default_rng(100 + seed)
        x = r.normal(size=(4, cfg.model_dim))
        coeff = Tensor(r.normal(size=(4, cfg.model_dim)))

        def f():
            return (conformer_block(Tensor(x), group, cfg, [4]) * coeff).sum()

        worst_block = max(worst_block, ad.grad_check(f, list(group.values()), eps=1e-6))

    ok = worst_ops <= 1e-4 and worst_block <= 1e-4
    report(1, "gradient correctness", ok,
           f"ops max rel err {worst_ops:.2e}, block {worst_block:.2e}")
    assert ok


# ---- criterion 2: per-layer gradient sum identity ----------------------------


def test_criterion_2_gradient_sum_identity(float64, corpus, report):
    worst = 0.0
    batch = corpus.sequences[:2]
    for i, n_layers in enumerate((1, 3, 8)):
        store = ParameterStore.init(ConformerConfig(), substream(50 + i, "init"))
        decomp = gradient_decomposition(store, batch, n_layers)
        worst = max(worst, decomp.sum_rel_error)
        decomp.assert_sum_identity(1e-6)
    ok = worst <= 1e-6
    report(2, "gradient sum identity", ok, f"max rel err {worst:.2e}")
    assert ok


# ---- criterion 3: parameter arithmetic ---------------------------------------


def test_criterion_3_parameter_arithmetic(report):
    shared_totals = set()
    ratios = {}
    for H in (2, 5, 8):
        shared = param_count(ConformerConfig(max_layers=H))
        unshared = param_count(ConformerConfig(max_layers=H,
                                               share_params=False))
        shared_totals.add(shared["total_encoder"])
        layer_shared = shared["total_encoder"] - shared["frontend"]
        layer_unshared = unshared["total_encoder"] - unshared["frontend"]
        ratios[H] = layer_unshared / layer_shared
    ok = len(shared_totals) == 1 and all(ratios[H] == H for H in (2, 5, 8))

    paper = RunConfig()
    apply_preset(paper, "paper")
    shared_p = param_count(paper.model)
    unshared_p = param_count(replace(paper.model, share_params=False))
    report(3, "parameter arithmetic", ok,
           f"layer ratios {ratios}; paper preset per-layer {shared_p['per_layer'] / 1e6:.2f}M, "
           f"param_reduction {unshared_p['total_encoder'] / shared_p['total_encoder']:.3f}x "
           f"(paper: 7.8x)")
    assert ok


# ---- criterion 4: compute ratios ---------------------------------------------


@pytest.mark.slow
def test_criterion_4_compute_ratios(model_a, model_b, report):
    rep = flop_report(ConformerConfig(), 100)
    ratio_exact = rep.sli_ratio_at(5)

    apps_a = model_a[0].cum_layer_apps
    apps_b = model_b[0].cum_layer_apps
    realized = apps_a / apps_b
    ok = ratio_exact == 0.625 and abs(realized - 0.625) <= 0.03 * 0.625
    report(4, "compute ratios", ok,
           f"SLI(5)/full block ratio {ratio_exact}, realized training ratio "
           f"{realized:.4f} vs expected 0.625")
    assert ok


# ---- criterion 5: masking statistics -----------------------------------------


def test_criterion_5_masking_statistics(report):
    fractions = []
    lengths_ok = True
    for seed in range(1000):
        plan = plan_masks(500, rng=np.random.default_rng(seed))
        fractions.append(plan.num_masked / 500)
        for start, length in plan.blocks:
            if length != 7 and start + 7 <= 500:
                lengths_ok = False
    mean = float(np.mean(fractions))
    ok = 0.13 <= mean <= 0.17 and lengths_ok
    report(5, "masking statistics", ok, f"mean fraction {mean:.4f}")
    assert ok


# ---- criterion 6: layer-consistency emergence --------------------------------


def eval_indices(corpus):
    return split_corpus(corpus, 0, 0.1)[1]


def mean_eval_cosine(store, corpus):
    traces = collect_traces(store, corpus, eval_indices(corpus))
    return layer_transitions(traces).mean_cosine(from_layer=2)


@pytest.mark.slow
def test_criterion_6_layer_consistency(corpus, model_a, model_b, report):
    cos_a = mean_eval_cosine(model_a[0].store, corpus)
    cos_b = mean_eval_cosine(model_b[0].store, corpus)
    ok = cos_a > cos_b
    report(6, "layer consistency emergence", ok,
           f"shared+sampled {cos_a:.4f} vs unshared+fixed {cos_b:.4f}")
    assert ok


# ---- criterion 7: shallow-inference stability --------------------------------


@pytest.mark.slow
def test_criterion_7_sli_stability(corpus, model_a, report, logistic_oracle):
    store = model_a[0].store
    results = {r.layer: r.accuracy for r in sli_sweep(store, corpus, [5, 8], seed=0)}
    drop = results[8] - results[5]
    assert abs(drop) <= 0.05, f"M=5 acc {results[5]:.4f}, M=8 acc {results[8]:.4f}"

    # L-BFGS oracle on the identical frozen embeddings
    train_idx, test_idx = probe_split(corpus, 0)
    oracle = {}
    for m in (5, 8):
        xtr, ytr = layer_embeddings(store, corpus, train_idx, m)
        xte, yte = layer_embeddings(store, corpus, test_idx, m)
        mu, sd = xtr.mean(axis=0), np.maximum(xtr.std(axis=0), 1e-8)
        oracle[m] = logistic_oracle((xtr - mu) / sd, ytr, (xte - mu) / sd, yte, C=1e4)
    oracle_gap = max(abs(results[m] - oracle[m]) for m in (5, 8))

    ok = abs(drop) <= 0.05 and oracle_gap <= 0.02
    report(7, "shallow-inference stability", ok,
           f"M=5 acc {results[5]:.4f}, M=8 acc {results[8]:.4f}, "
           f"probe vs oracle gap {oracle_gap:.4f}")
    assert ok


# ---- criterion 8: training sanity and retention ------------------------------


@pytest.mark.slow
# the aggressive schedule below saturates a sigmoid, whose exp overflows to
# inf and gives exactly 0
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_criterion_8_training_sanity(corpus, model_a, tmp_path, report):
    metrics = model_a[0].metrics
    initial, final = metrics[0]["train_loss"], metrics[-1]["train_loss"]
    loss_ok = final < 0.5 * initial

    # retention probe: an aggressive schedule makes validation non-monotonic,
    # and the best checkpoint must still track the minimum
    cfg = desk_train_config(max_steps=60, warmup_steps=2, peak_scale=3.0,
                            validation_every=10)
    result = train(corpus, ConformerConfig(), cfg, out_dir=tmp_path)
    vals = {m["step"]: m["val_loss"] for m in result.metrics if m["val_loss"] is not None}
    best_step = min(vals, key=vals.get)
    ck_cfg, _ = load_checkpoint(tmp_path / "best.ckpt")
    retention_ok = (result.best_step == best_step
                    and result.best_val_loss == vals[best_step]
                    and int(ck_cfg["train.step"]) == best_step)

    ok = loss_ok and retention_ok
    report(8, "training sanity", ok,
           f"loss {initial:.4f} -> {final:.4f}, best checkpoint at step {best_step}")
    assert ok


# ---- criterion 9: determinism ------------------------------------------------


@pytest.mark.slow
def test_criterion_9_determinism(model_a, model_a_rerun, report):
    _, dir_a = model_a
    _, dir_b = model_a_rerun
    metrics_same = (dir_a / "metrics.jsonl").read_bytes() == (dir_b / "metrics.jsonl").read_bytes()
    ckpt_same = (dir_a / "final.ckpt").read_bytes() == (dir_b / "final.ckpt").read_bytes()
    ok = metrics_same and ckpt_same
    report(9, "single-thread determinism", ok,
           f"metrics identical {metrics_same}, checkpoint identical {ckpt_same}")
    assert ok


# ---- criterion 10: format round trips ----------------------------------------


def test_criterion_10_format_round_trips(tmp_path, report):
    failures = 0
    for seed in range(50):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 5))
        dim = int(r.integers(2, 30))  # a feature file holds one dim
        seqs = [FeatureSequence(f"rt-{seed}-{i}",
                                r.normal(size=(int(r.integers(1, 40)), dim)).astype(np.float32))
                for i in range(n)]
        num_classes = int(r.integers(2, 9))
        labels = [r.integers(0, num_classes, size=s.num_frames).astype(np.int64)
                  for s in seqs]
        corpus = LabeledCorpus(seqs, labels, num_classes)

        fa, fb = tmp_path / "a.feats", tmp_path / "b.feats"
        save_features(seqs, fa)
        save_features(load_features(fa), fb)
        la, lb = tmp_path / "a.labels", tmp_path / "b.labels"
        save_labels(corpus, la)
        by_id, k = load_labels(la)
        save_labels(LabeledCorpus(seqs, [by_id[s.utterance_id] for s in seqs], k), lb)

        cfg = ConformerConfig(input_dim=int(r.integers(2, 10)),
                              model_dim=8, num_heads=2, ff_dim=6,
                              conv_kernel=3, max_layers=int(r.integers(2, 5)))
        store = ParameterStore.init(cfg, np.random.default_rng(seed))
        ca, cb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ca, store, {"tag": str(seed)})
        ck_cfg, tensors = load_checkpoint(ca)
        save_checkpoint(cb, store_from_checkpoint(ck_cfg, tensors), {"tag": ck_cfg["tag"]})

        if (fa.read_bytes() != fb.read_bytes() or la.read_bytes() != lb.read_bytes()
                or ca.read_bytes() != cb.read_bytes()):
            failures += 1
    ok = failures == 0
    report(10, "format round trips", ok, f"{50 - failures}/50 instances byte-identical")
    assert ok
