import json
import warnings

import numpy as np
import pytest

from sharedformer import autodiff as ad
from sharedformer import diagnostics, encoder
from sharedformer.diagnostics import (PROBE_LR, PROBE_MOMENTUM, PROBE_STEPS,
                                      ConsistencyReport, GradDecomposition,
                                      collect_traces, flop_report,
                                      gradient_decomposition, layer_embeddings,
                                      layer_transitions, linear_probe,
                                      probe_split, project_2d, sli_sweep,
                                      write_report)
from sharedformer.encoder import (ConformerConfig, LayerTrace, ParameterStore,
                                  forward, sli_forward)
from sharedformer.errors import ContractError, InvariantError
from sharedformer.features import synth_corpus
from sharedformer.masking import MaskConfig, apply_masks, fixed_plan
from sharedformer.rng import substream


def rng(seed):
    return np.random.default_rng(seed)


def small_corpus(seed=3, n=20):
    return synth_corpus(seed, n, (15, 30), 16, 4)


def desk_store(seed=0, **overrides):
    cfg = ConformerConfig(**overrides) if overrides else ConformerConfig()
    return ParameterStore.init(cfg, substream(seed, "init"))


# ---- layer transitions -------------------------------------------------------


def test_transitions_identical_layers():
    e = rng(0).normal(size=(6, 4))
    report = layer_transitions(LayerTrace([e, e.copy(), e.copy()]))
    np.testing.assert_allclose(report.l2_mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(report.cos_mean, 1.0, atol=1e-12)
    assert report.mean_cosine() == pytest.approx(1.0)


def test_transitions_orthogonal_layers():
    a = np.zeros((3, 4))
    b = np.zeros((3, 4))
    a[:, 0] = 1.0
    b[:, 1] = 1.0
    report = layer_transitions(LayerTrace([a, b]))
    np.testing.assert_allclose(report.cos_mean, [0.0], atol=1e-12)
    np.testing.assert_allclose(report.l2_mean, [np.sqrt(2.0)], atol=1e-12)


def test_transitions_hand_computed():
    # two frames: (3,4) -> (6,8) doubles the vector, (0,5) -> (5,0) rotates it
    a = np.array([[3.0, 4.0], [0.0, 5.0]])
    b = np.array([[6.0, 8.0], [5.0, 0.0]])
    report = layer_transitions(LayerTrace([a, b]))
    # l2: ||(3,4)|| = 5 and ||(5,-5)|| = 5 sqrt 2, mean of the two
    np.testing.assert_allclose(report.l2_mean, [(5.0 + 5.0 * np.sqrt(2.0)) / 2], atol=1e-12)
    # cosine: 1 for the scaling, 0 for the rotation
    np.testing.assert_allclose(report.cos_mean, [0.5], atol=1e-12)


def test_transitions_frame_weighted_average():
    a2 = np.ones((2, 3))
    a6 = np.ones((6, 3))
    # six frames double (l2 per frame sqrt(3), cos 1), two flip (2 sqrt(3), cos -1)
    report = layer_transitions(LayerTrace([np.concatenate([a6, a2]),
                                           np.concatenate([2.0 * a6, -1.0 * a2])]))
    assert report.num_frames == 8
    np.testing.assert_allclose(report.l2_mean,
                               [(6 * np.sqrt(3) + 2 * 2 * np.sqrt(3)) / 8], atol=1e-12)
    np.testing.assert_allclose(report.cos_mean, [(6 * 1.0 + 2 * -1.0) / 8], atol=1e-12)


def test_transitions_mean_cosine_from_layer():
    report = ConsistencyReport(l2_mean=[1, 1, 1], cos_mean=[0.0, 0.4, 0.8], num_frames=1)
    assert report.mean_cosine(1) == pytest.approx(0.6)


def test_transitions_contracts():
    # a trace of no utterance is refused before any transition is read
    with pytest.raises(ContractError):
        layer_transitions(collect_traces(desk_store(), small_corpus(n=4), []))


def test_transitions_on_trained_shapes(float64):
    store = desk_store()
    corpus = small_corpus()
    report = layer_transitions(collect_traces(store, corpus, [0, 1, 2]))
    assert report.num_frames == sum(corpus.sequences[i].num_frames for i in (0, 1, 2))
    assert len(report.l2_mean) == 8 and len(report.cos_mean) == 8
    assert all(-1.0 - 1e-9 <= c <= 1.0 + 1e-9 for c in report.cos_mean)



def _transitions_loop(traces):
    """`layer_transitions` as it was, one layer pair at a time with both
    norms recomputed: the oracle for the stacked version's bits."""
    depth = traces[0].depth
    l2_sums, cos_sums, total = np.zeros(depth), np.zeros(depth), 0
    for trace in traces:
        total += trace.embeddings[0].shape[0]
        for i in range(depth):
            a = trace.embeddings[i].astype(np.float64)
            b = trace.embeddings[i + 1].astype(np.float64)
            l2_sums[i] += np.sqrt(((b - a) ** 2).sum(axis=1)).sum()
            na = np.sqrt((a ** 2).sum(axis=1))
            nb = np.sqrt((b ** 2).sum(axis=1))
            cos_sums[i] += ((a * b).sum(axis=1) / np.maximum(na * nb, 1e-12)).sum()
    return [float(v / total) for v in l2_sums], [float(v / total) for v in cos_sums], total


def test_transitions_are_bitwise_the_per_layer_loop():
    # the float32 trace of a fresh desk store (20 utterances of 15-30 frames),
    # and a float64 one of 138 frames with a zero frame (the cosine's floor)
    corpus = small_corpus()
    trace = collect_traces(desk_store(), corpus, list(range(len(corpus.sequences))))
    wide = LayerTrace([rng(5).normal(size=(138, 24)) for _ in range(4)])
    wide.embeddings[2][5] = 0.0
    for case in (trace, wide):
        report = layer_transitions(case)
        assert (report.l2_mean, report.cos_mean, report.num_frames) == _transitions_loop([case])

# ---- gradient decomposition --------------------------------------------------


def test_decomposition_sum_identity(float64):
    store = desk_store(seed=5)
    batch = small_corpus().sequences[:3]
    decomp = gradient_decomposition(store, batch, n_layers=4)
    assert len(decomp.contributions) == 4
    assert decomp.sum_rel_error <= 1e-6
    decomp.assert_sum_identity()


def test_decomposition_sum_identity_over_a_multi_tile_utterance(float64):
    # a 300-frame float64 slot at 2 heads spans two attention tiles, so both
    # backwards sum its dV and dK over the tiles' replayed logits
    store = desk_store(seed=5)
    assert ad._TILE_BYTES // (store.config.num_heads * 8) < 300 * 300
    batch = small_corpus().sequences[:2] + synth_corpus(4, 1, (300, 300), 16, 4).sequences
    decomp = gradient_decomposition(store, batch, n_layers=3)
    decomp.assert_sum_identity(1e-6)


def test_decomposition_leaves_the_store_bound_to_its_buffer(float64):
    store = desk_store(seed=5)
    before = {n: p.data for n, p in store.named_parameters()}
    values = store.buffer.copy()
    gradient_decomposition(store, small_corpus().sequences[:2], n_layers=3)
    store.check_layout()
    assert all(p.data is before[n] and p.grad is None for n, p in store.named_parameters())
    np.testing.assert_array_equal(store.buffer, values)


def test_decomposition_matches_finite_difference(float64):
    # independent oracle: central differences on the shared-group loss
    store = desk_store(seed=6)
    batch = small_corpus().sequences[:2]
    decomp = gradient_decomposition(store, batch, n_layers=3)

    from sharedformer.diagnostics import _shared_group_names
    from sharedformer.encoder import forward
    from sharedformer.training import predictor_apply
    from sharedformer.autodiff import Tensor

    mask_cfg = MaskConfig()

    def loss_value():
        total = 0.0
        for seq in batch:
            corrupted = apply_masks(seq.frames, [fixed_plan(seq, mask_cfg)])
            emb, _ = forward(Tensor(corrupted), store, 3)
            # the utterance's L1 mean over all its frames
            total += float(np.abs(predictor_apply(emb, store).data - seq.frames).mean())
        return total / len(batch)

    eps = 1e-5
    offset = 0
    worst = 0.0
    check_rng = rng(0)
    for name in _shared_group_names(store):
        p = store.params[name]
        flat = p.data.reshape(-1)
        for k in check_rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + eps
            up = loss_value()
            flat[k] = orig - eps
            down = loss_value()
            flat[k] = orig
            numeric = (up - down) / (2 * eps)
            analytic = decomp.total[offset + k]
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
        offset += flat.size
    assert worst <= 1e-3


def test_decomposition_cosine_matrix_properties(float64):
    store = desk_store(seed=7)
    decomp = gradient_decomposition(store, small_corpus().sequences[:2], n_layers=3)
    cos = decomp.pairwise_cosine
    assert cos.shape == (3, 3)
    np.testing.assert_allclose(cos, cos.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(cos), 1.0, atol=1e-12)
    assert np.all(np.abs(cos) <= 1.0 + 1e-9)


def test_decomposition_norms_match_contributions(float64):
    store = desk_store(seed=8)
    decomp = gradient_decomposition(store, small_corpus().sequences[:2], n_layers=2)
    for g, n in zip(decomp.contributions, decomp.norms):
        np.testing.assert_allclose(np.linalg.norm(g), n, rtol=1e-12)
    expect_ratio = np.linalg.norm(decomp.total) / (2 * decomp.norms[-1])
    np.testing.assert_allclose(decomp.last_layer_ratio, expect_ratio, rtol=1e-12)


def test_decomposition_contracts(float64):
    unshared = desk_store(share_params=False)
    batch = small_corpus().sequences[:2]
    with pytest.raises(ContractError):
        gradient_decomposition(unshared, batch, n_layers=2)
    with pytest.raises(ContractError):
        gradient_decomposition(desk_store(), [], n_layers=2)


def test_assert_sum_identity_raises():
    bad = GradDecomposition([], np.zeros(1), [], np.eye(1), 0.0, sum_rel_error=1e-3)
    with pytest.raises(InvariantError):
        bad.assert_sum_identity(1e-6)


# ---- 2-D projection ----------------------------------------------------------


def test_projection_recovers_planar_data():
    # embeddings drawn exactly from a 2-D subspace of an 8-D space
    basis = np.linalg.qr(rng(0).normal(size=(8, 2)))[0]  # 8 x 2, orthonormal
    layers = []
    for i in range(4):
        coeffs = rng(10 + i).normal(size=(12, 2)) * np.array([3.0, 1.0])
        layers.append(coeffs @ basis.T + 0.5)
    proj = project_2d(LayerTrace(layers), (0, 12))
    assert not proj.degenerate
    np.testing.assert_allclose(proj.explained_variance.sum(), 1.0, atol=1e-10)
    # the projection onto two orthonormal components is exact for planar data:
    # the coordinates keep every inner product of the centered frames
    pool = np.concatenate(layers)
    pool -= pool.mean(axis=0)
    coords = np.concatenate(proj.coords)
    np.testing.assert_allclose(coords @ coords.T, pool @ pool.T, atol=1e-10)


def test_projection_prefers_high_variance_axis():
    d = 6
    x = np.zeros((40, d))
    x[:, 0] = rng(1).normal(size=40) * 10.0   # dominant direction
    x[:, 1] = rng(2).normal(size=40) * 0.1
    proj = project_2d(LayerTrace([x]), (0, 40))
    # the first component lies in the centered frames' row space, so it is the
    # least-norm solution that maps them to their first coordinates
    lead = np.abs(np.linalg.lstsq(x - x.mean(axis=0), proj.coords[0][:, 0], rcond=None)[0])
    assert lead[0] > 0.99 and proj.explained_variance[0] > 0.99


def test_projection_frame_range_is_respected():
    e = rng(3).normal(size=(30, 5))
    proj = project_2d(LayerTrace([e]), (5, 20))
    assert all(c.shape == (15, 2) for c in proj.coords)


def test_projection_degenerate_constant_input():
    e = np.ones((10, 4))
    proj = project_2d(LayerTrace([e, e]), (0, 10))
    assert proj.degenerate
    for c in proj.coords:
        np.testing.assert_array_equal(c, 0.0)


def test_projection_range_contract():
    e = np.zeros((10, 4))
    with pytest.raises(ContractError):
        project_2d(LayerTrace([e]), (4, 6))


# ---- FLOP accounting ---------------------------------------------------------


def test_flops_hand_count_tiny_config():
    cfg = ConformerConfig(input_dim=5, model_dim=6, num_heads=2, ff_dim=7,
                          conv_kernel=3, max_layers=3)
    T = 10
    report = flop_report(cfg, T)
    assert report.frontend == T * 5 * 6
    assert report.predictor == T * 6 * 5
    ff = 2 * T * 6 * 7
    attn = 4 * T * 6 * 6 + 2 * T * T * 6
    conv = T * 6 * 12 + T * 3 * 6 + T * 6 * 6
    assert report.per_block == 2 * ff + attn + conv
    assert report.flops(3) == report.frontend + 3 * report.per_block + report.predictor


def test_flops_affine_in_depth():
    report = flop_report(ConformerConfig(), 100)
    assert report.flops(8) - report.flops(4) == 2 * (report.flops(6) - report.flops(4))
    assert report.block_flops(8) == 2 * report.block_flops(4)


def test_flops_depth_policy_ratios():
    report = flop_report(ConformerConfig(max_layers=8), 100)
    assert report.expected_training_ratio(2, 8) == pytest.approx(0.625)
    assert report.sli_ratio_at(2) == pytest.approx(0.25)
    assert report.sli_ratio_at(4) == pytest.approx(0.5)
    assert report.sli_ratio_at(8) == pytest.approx(1.0)


def test_flops_attention_grows_quadratically_in_frames():
    cfg = ConformerConfig()
    a, b = flop_report(cfg, 100), flop_report(cfg, 200)
    # subtract the linear part; what remains must scale by 4
    lin = flop_report(cfg, 1)
    quad_a = a.per_block - 100 * (lin.per_block - 2 * 1 * 1 * cfg.model_dim)
    quad_b = b.per_block - 200 * (lin.per_block - 2 * 1 * 1 * cfg.model_dim)
    assert quad_b == 4 * quad_a


# ---- linear probe ------------------------------------------------------------


def _blob_data(seed, n_per_class, num_classes, d, spread):
    """Gaussian blobs split into train and test halves around shared means."""
    r = rng(seed)
    means = r.normal(size=(num_classes, d)) * spread
    xs, ys = [], []
    for c in range(num_classes):
        xs.append(means[c] + r.normal(size=(2 * n_per_class, d)))
        ys.append(np.full(2 * n_per_class, c))
    x = np.concatenate(xs)
    y = np.concatenate(ys).astype(np.int64)
    test = np.zeros(len(y), dtype=bool)
    test[::2] = True
    return x[~test], y[~test], x[test], y[test]


def test_probe_separable_blobs():
    xtr, ytr, xte, yte = _blob_data(0, 100, 4, 8, spread=6.0)
    res = linear_probe([xtr], ytr, [xte], yte, 4)[0]
    assert res.accuracy >= 0.95
    assert len(res.per_class_accuracy) == 4


def test_probe_uninformative_features_near_chance():
    xtr = rng(3).normal(size=(400, 8))
    ytr = rng(4).integers(0, 4, size=400)
    xte = rng(5).normal(size=(400, 8))
    yte = rng(6).integers(0, 4, size=400)
    res = linear_probe([xtr], ytr, [xte], yte, 4)[0]
    assert abs(res.accuracy - 0.25) <= 0.10


def test_probe_matches_lbfgs_oracle(logistic_oracle):
    xtr, ytr, xte, yte = _blob_data(7, 80, 3, 6, spread=2.0)
    res = linear_probe([xtr], ytr, [xte], yte, 3)[0]
    mu, sd = xtr.mean(axis=0), np.maximum(xtr.std(axis=0), 1e-8)
    ref_acc = logistic_oracle((xtr - mu) / sd, ytr, (xte - mu) / sd, yte, C=1e6)
    assert abs(res.accuracy - ref_acc) <= 0.05


def test_probe_deterministic():
    xtr, ytr, xte, yte = _blob_data(9, 50, 3, 5, spread=2.0)
    a = linear_probe([xtr], ytr, [xte], yte, 3)[0]
    b = linear_probe([xtr], ytr, [xte], yte, 3)[0]
    assert a.accuracy == b.accuracy and a.per_class_accuracy == b.per_class_accuracy


def test_probe_single_class_contract():
    x = rng(0).normal(size=(20, 4))
    with pytest.raises(ContractError):
        linear_probe([x], np.zeros(20, dtype=np.int64), [x], np.zeros(20, dtype=np.int64), 2)


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("label", [3, -1], ids=["equal-to-num-classes", "negative"])
def test_probe_rejects_label_outside_class_range(split, label):
    x = rng(0).normal(size=(30, 4))
    y = np.arange(30) % 3
    bad = y.copy()
    bad[7] = label
    ytr, yte = (bad, y) if split == "train" else (y, bad)
    with pytest.raises(ContractError, match=split):
        linear_probe([x], ytr, [x], yte, 3)


def _row_major_probe(train_x, train_y, test_x, test_y, num_classes):
    """Reference: the probe's gradient descent with (n, C) logits and per-row reductions."""
    mu = train_x.mean(axis=0)
    sd = np.maximum(train_x.std(axis=0), 1e-8)
    xtr = ((train_x - mu) / sd).astype(np.float64)
    xte = ((test_x - mu) / sd).astype(np.float64)
    n, d = xtr.shape
    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), train_y] = 1.0
    for _ in range(PROBE_STEPS):
        logits = xtr @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        gl = (p - onehot) / n
        gw = xtr.T @ gl
        gb = gl.sum(axis=0)
        vw = PROBE_MOMENTUM * vw - PROBE_LR * gw
        vb = PROBE_MOMENTUM * vb - PROBE_LR * gb
        w += vw
        b += vb
    pred = np.argmax(xte @ w + b, axis=1)
    per_class = [float(np.mean(pred[test_y == c] == c)) if (test_y == c).any() else float("nan")
                 for c in range(num_classes)]
    return float(np.mean(pred == test_y)), per_class


def _uninformative_data():
    return (rng(3).normal(size=(400, 8)), rng(4).integers(0, 4, size=400),
            rng(5).normal(size=(400, 8)), rng(6).integers(0, 4, size=400))


def _forty_class_odd_n_data():
    xtr, ytr, xte, yte = _blob_data(11, 13, 40, 12, spread=1.0)
    return xtr[:-1], ytr[:-1], xte, yte  # 519 training frames


@pytest.mark.parametrize("make, num_classes", [
    (lambda: _blob_data(0, 100, 4, 8, spread=6.0), 4),
    (_uninformative_data, 4),
    (_forty_class_odd_n_data, 40),
], ids=["separable-blobs", "uninformative", "forty-classes-odd-n"])
def test_probe_matches_row_major_reference(make, num_classes):
    # tolerance: none. The stacked solve runs in float32 and in another
    # accumulation order, which moves the weights but no prediction here.
    xtr, ytr, xte, yte = make()
    res = linear_probe([xtr], ytr, [xte], yte, num_classes)[0]
    acc, per_class = _row_major_probe(xtr, ytr, xte, yte, num_classes)
    assert res.accuracy == acc
    assert res.per_class_accuracy == per_class


def _class_major_probe(train_x, train_y, test_x, test_y, num_classes):
    """Reference: the float64 class-major loop the stacked solve replaced, one depth per call."""
    mu = train_x.mean(axis=0)
    sd = np.maximum(train_x.std(axis=0), 1e-8)
    xtr = np.ascontiguousarray(((train_x - mu) / sd).T, dtype=np.float64)  # (d, n)
    xte = ((test_x - mu) / sd).astype(np.float64, copy=False)
    d, n = xtr.shape
    w = np.zeros((num_classes, d))
    b = np.zeros((num_classes, 1))
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    onehot = np.zeros((num_classes, n))
    onehot[train_y, np.arange(n)] = 1.0
    ones = np.ones((n, 1))
    for _ in range(PROBE_STEPS):
        z = w @ xtr + b
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        z -= onehot
        z /= n
        gw = z @ xtr.T
        gb = z @ ones
        vw = PROBE_MOMENTUM * vw - PROBE_LR * gw
        vb = PROBE_MOMENTUM * vb - PROBE_LR * gb
        w += vw
        b += vb
    pred = np.argmax(xte @ w.T + b.T, axis=1)
    per_class = [float(np.mean(pred[test_y == c] == c)) if (test_y == c).any() else float("nan")
                 for c in range(num_classes)]
    return float(np.mean(pred == test_y)), per_class


def _raw_frame_data(noise_sigma):
    """Raw frames of a synthetic corpus whose classes overlap at this noise level."""
    corpus = synth_corpus(5, 40, (20, 40), 8, 4, noise_sigma=noise_sigma)
    x = [s.frames.astype(np.float64) for s in corpus.sequences]
    return (np.concatenate(x[:30]), np.concatenate(corpus.labels[:30]),
            np.concatenate(x[30:]), np.concatenate(corpus.labels[30:]))


def _check_against_class_major(xtr, ytr, xte, yte, num_classes):
    # tolerance: none, as for the row-major reference
    res = linear_probe([xtr], ytr, [xte], yte, num_classes)[0]
    acc, per_class = _class_major_probe(xtr, ytr, xte, yte, num_classes)
    assert res.accuracy == acc
    assert res.per_class_accuracy == per_class
    return acc


@pytest.mark.parametrize("make, num_classes", [
    (lambda: _blob_data(0, 100, 4, 8, spread=6.0), 4),
    (lambda: _blob_data(7, 80, 3, 6, spread=2.0), 3),
    (_uninformative_data, 4),
    (_forty_class_odd_n_data, 40),
], ids=["separable-blobs", "overlapping-blobs", "uninformative", "forty-classes-odd-n"])
def test_probe_matches_float64_class_major_reference(make, num_classes):
    _check_against_class_major(*make(), num_classes)


@pytest.mark.parametrize("noise_sigma", [1.0, 2.0, 4.0])
def test_probe_matches_class_major_reference_unsaturated(noise_sigma):
    acc = _check_against_class_major(*_raw_frame_data(noise_sigma), 4)
    assert 0.3 < acc < 0.9  # neither chance nor saturated, so predictions can move


def test_probe_depth_bits_same_alone_or_stacked():
    depths = [_blob_data(s, 60, 4, 8, spread=sp) for s, sp in ((1, 0.5), (2, 1.0), (3, 3.0))]
    ytr, yte = depths[0][1], depths[0][3]
    assert all(np.array_equal(d[1], ytr) and np.array_equal(d[3], yte) for d in depths)
    stacked = linear_probe([d[0] for d in depths], ytr, [d[2] for d in depths], yte, 4,
                           layers=[0, 4, 8])
    assert [r.layer for r in stacked] == [0, 4, 8]
    for m, (xtr, _, xte, _), got in zip([0, 4, 8], depths, stacked):
        alone = linear_probe([xtr], ytr, [xte], yte, 4, layers=[m])[0]
        assert got.weights.dtype == np.float32 and got.weights.shape == (4, 9)
        assert got.weights.tobytes() == alone.weights.tobytes()
        assert (got.layer, got.accuracy, got.per_class_accuracy) == \
            (alone.layer, alone.accuracy, alone.per_class_accuracy)


def test_probe_large_scale_and_constant_features_raise_no_warning():
    xtr, ytr, xte, yte = _blob_data(4, 100, 4, 8, spread=2.0)

    def scaled(x):
        return np.hstack([1e4 * x, np.full((len(x), 1), 3e4)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = linear_probe([scaled(xtr)], ytr, [scaled(xte)], yte, 4)[0]
    assert np.isfinite(res.weights).all()
    assert res.accuracy == linear_probe([xtr], ytr, [xte], yte, 4)[0].accuracy


def test_probe_needs_one_array_per_depth():
    x = rng(0).normal(size=(30, 4))
    y = np.arange(30) % 3
    with pytest.raises(ContractError):
        linear_probe([], y, [], y, 3)
    with pytest.raises(ContractError):
        linear_probe([x, x], y, [x], y, 3)
    with pytest.raises(ContractError):
        linear_probe([x, x], y, [x, x], y, 3, layers=[2])
    with pytest.raises(ContractError):
        linear_probe([x, x[:, :3]], y, [x, x[:, :3]], y, 3)


def test_probe_split_disjoint_and_covering():
    corpus = small_corpus(n=25)
    train_idx, test_idx = probe_split(corpus, seed=0)
    assert not set(train_idx) & set(test_idx)
    assert sorted(train_idx + test_idx) == list(range(25))
    assert len(test_idx) == 5


def test_layer_embeddings_shapes(float64):
    store = desk_store()
    corpus = small_corpus(n=6)
    [x], y = layer_embeddings(store, corpus, [0, 1], [3])
    frames = corpus.sequences[0].num_frames + corpus.sequences[1].num_frames
    assert x.shape == (frames, 16) and y.shape == (frames,)
    np.testing.assert_array_equal(y[:corpus.sequences[0].num_frames], corpus.labels[0])


def test_sli_sweep_sorted_and_deduped(float64):
    store = desk_store()
    corpus = small_corpus(n=10)
    results = sli_sweep(store, corpus, [4, 2, 4])
    assert [r.layer for r in results] == [2, 4]


def _spy_on_linear_probe(monkeypatch):
    """Wrap diagnostics.linear_probe, as perfbench's tracer does; returns the list of calls."""
    calls = []
    real = diagnostics.linear_probe

    def spy(train_x, train_y, test_x, test_y, num_classes, layers=None):
        calls.append((train_x, list(layers)))
        return real(train_x, train_y, test_x, test_y, num_classes, layers)

    monkeypatch.setattr(diagnostics, "linear_probe", spy)
    return calls


def _frontend_rows(store, corpus, idx):
    with ad.no_grad():
        return np.concatenate([forward(corpus.sequences[i].frames, store, 0)[0].data
                               for i in idx])


def test_sli_sweep_layer_contract(float64, monkeypatch):
    store = desk_store()
    corpus = small_corpus(n=10)
    with pytest.raises(ContractError):
        sli_sweep(store, corpus, [-1, 2])
    with pytest.raises(ContractError):
        sli_sweep(store, corpus, [9])
    # depth 0 probes the frontend output, forward(x, store, 0)
    calls = _spy_on_linear_probe(monkeypatch)
    results = sli_sweep(store, corpus, [0, 2])
    assert [r.layer for r in results] == [0, 2]
    train_idx, _ = probe_split(corpus, 0)
    np.testing.assert_allclose(calls[0][0][0], _frontend_rows(store, corpus, train_idx),
                               rtol=0, atol=1e-12)


def test_sli_sweep_fits_every_depth_in_one_probe_call(monkeypatch):
    # perfbench's diagnostics.linear_probe_ms wraps the module attribute, so
    # the sweep must look it up there and call it once with every depth
    calls = _spy_on_linear_probe(monkeypatch)
    results = sli_sweep(desk_store(), small_corpus(n=10), [8, 0, 5, 2, 5])
    assert [layers for _, layers in calls] == [[0, 2, 5, 8]]
    assert len(calls[0][0]) == 4
    assert [r.layer for r in results] == [0, 2, 5, 8]


# ---- report emission ---------------------------------------------------------


def test_write_report_round_trip(tmp_path):
    base = tmp_path / "out" / "probe"
    base.parent.mkdir()
    write_report(base, ["layer", "accuracy"], [[1, 0.5], [2, 0.75]])
    csv_lines = (tmp_path / "out/probe.csv").read_text().splitlines()
    assert csv_lines[0] == "layer,accuracy"
    assert csv_lines[1:] == ["1,0.5", "2,0.75"]
    rows = [json.loads(l) for l in (tmp_path / "out/probe.jsonl").read_text().splitlines()]
    assert rows == [{"schema_version": 1, "layer": 1, "accuracy": 0.5},
                    {"schema_version": 1, "layer": 2, "accuracy": 0.75}]


def test_collect_traces_deterministic(float64):
    store = desk_store()
    corpus = small_corpus(n=5)
    a = collect_traces(store, corpus, [0, 1])
    b = collect_traces(store, corpus, [0, 1])
    for ea, eb in zip(a.embeddings, b.embeddings):
        np.testing.assert_array_equal(ea, eb)


def _fixed_mask_frames(seq):
    """The frames collect_traces runs: the utterance under its id-seeded default mask."""
    return apply_masks(seq.frames, [fixed_plan(seq, MaskConfig())])


def _assert_rows_are_lone_traces(trace, seqs, store, forward_fn):
    """Each utterance's row range of the pooled trace matches its lone traced
    forward, and the rows cover every utterance in order."""
    at = 0
    for seq in seqs:
        with ad.no_grad():
            _, ref = forward_fn(_fixed_mask_frames(seq), store, 8, collect_trace=True)
        assert trace.depth == ref.depth
        for got, want in zip(trace.embeddings, ref.embeddings):
            np.testing.assert_allclose(got[at:at + seq.num_frames], want, rtol=0, atol=1e-12)
        at += seq.num_frames
    assert all(e.shape[0] == at for e in trace.embeddings)


def test_collect_traces_unmasked_differs(float64):
    store = desk_store()
    corpus = small_corpus(n=5)
    masked = collect_traces(store, corpus, [0])
    with ad.no_grad():
        _, clean = forward(corpus.sequences[0].frames, store, 8, collect_trace=True)
    assert not np.array_equal(masked.embeddings[0], clean.embeddings[0])
    np.testing.assert_array_equal(clean.embeddings[0].shape, masked.embeddings[0].shape)


# ---- batched traced passes ---------------------------------------------------


def test_batched_traces_match_per_utterance(float64):
    store = desk_store(seed=2)
    corpus = small_corpus(n=20)
    idx = [7, 2, 19, 0, 11, 5, 13, 3, 16]
    assert len({corpus.sequences[i].num_frames for i in idx}) > 1  # the pack holds unequal lengths
    trace = collect_traces(store, corpus, idx)
    _assert_rows_are_lone_traces(trace, [corpus.sequences[i] for i in idx], store, forward)


def test_layer_embeddings_match_sli_forward(float64):
    store = desk_store(seed=4)
    corpus = small_corpus(n=12)
    idx = [5, 0, 9, 3, 11, 1]
    [x], y = layer_embeddings(store, corpus, idx, [5])
    ref = np.concatenate([sli_forward(corpus.sequences[i].frames, store, 5).data for i in idx])
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(y, np.concatenate([corpus.labels[i] for i in idx]))


def test_layer_embeddings_one_trace_serves_every_depth():
    store = desk_store(seed=4)
    corpus = small_corpus(n=12)
    idx = [5, 0, 9, 3, 11, 1]
    before = store.block_applications
    xs, y = layer_embeddings(store, corpus, idx, [0, 3, 8])
    assert store.block_applications - before == 8 * len(idx)  # one trace, at depth 8
    assert len(xs) == 3
    for m, x in zip([0, 3, 8], xs):
        [alone], y_alone = layer_embeddings(store, corpus, idx, [m])
        assert x.dtype == alone.dtype == np.float64
        assert x.shape == alone.shape and x.tobytes() == alone.tobytes()
        np.testing.assert_array_equal(y, y_alone)


def test_traces_across_pack_runs_match_per_utterance(float64, spanning_corpus, monkeypatch):
    store = desk_store(seed=5)
    idx = list(range(len(spanning_corpus.sequences)))
    calls = []
    original = diagnostics.forward

    def counting(*args, **kwargs):
        calls.append(kwargs["lengths"])
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "forward", counting)
    trace = collect_traces(store, spanning_corpus, idx)
    lengths = [seq.num_frames for seq in spanning_corpus.sequences]
    assert calls == [lengths[run] for run in encoder.pack_runs(lengths)]  # one forward per run
    _assert_rows_are_lone_traces(trace, spanning_corpus.sequences, store, original)


def test_one_run_trace_is_forwards_own(float64, monkeypatch):
    store = desk_store(seed=6)
    corpus = small_corpus(n=20)
    idx = list(range(20))
    made = []
    original = diagnostics.forward

    def keeping(*args, **kwargs):
        out = original(*args, **kwargs)
        made.append(out[1])
        return out

    monkeypatch.setattr(diagnostics, "forward", keeping)
    one = collect_traces(store, corpus, idx)
    assert len(made) == 1  # 20 utterances of 15-30 frames fit one run
    for got, own in zip(one.embeddings, made[0].embeddings):
        assert got is own  # no copy of forward's trace
    # the same utterances over several runs pool to the same rows; not the
    # same bits, since a layer norm's row sums (a BLAS matrix-vector product)
    # can move in the last bit with a row's place in its pack
    monkeypatch.setattr(encoder, "PACK_FRAMES", 150)
    split = collect_traces(store, corpus, idx)
    assert len(made) > 3
    for a, b in zip(one.embeddings, split.embeddings):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)


def test_layer_embeddings_of_no_utterance_is_a_contract_error():
    with pytest.raises(ContractError):
        layer_embeddings(desk_store(), small_corpus(n=4), [], [2])


def test_layer_embeddings_depth_contract(float64):
    store = desk_store()
    corpus = small_corpus(n=4)
    for m in (-1, 9):
        with pytest.raises(ContractError):
            layer_embeddings(store, corpus, [0], [m])
    [x], _ = layer_embeddings(store, corpus, [1, 0], [0])
    np.testing.assert_allclose(x, _frontend_rows(store, corpus, [1, 0]), rtol=0, atol=1e-12)


def test_sli_sweep_traces_once_at_deepest_layer():
    store = desk_store()
    corpus = small_corpus(n=10)
    before = store.block_applications
    sli_sweep(store, corpus, [2, 5, 8])
    assert store.block_applications - before == 10 * 8


def test_collect_traces_block_applications():
    store = desk_store()
    corpus = small_corpus(n=10)
    before = store.block_applications
    collect_traces(store, corpus, list(range(10)))
    assert store.block_applications - before == 10 * store.config.max_layers


def test_sli_sweep_empty_layers_contract():
    with pytest.raises(ContractError):
        sli_sweep(desk_store(), small_corpus(n=10), [])
