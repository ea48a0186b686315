import numpy as np
import pytest

from sharedformer import autodiff as ad


@pytest.fixture
def float64():
    with ad.precision("float64"):
        yield


@pytest.fixture(autouse=True)
def _reset_dtype():
    yield
    ad.set_default_dtype("float32")


def rng(seed):
    return np.random.default_rng(seed)


def _lbfgs_logistic_accuracy(train_x, train_y, test_x, test_y, C):
    """Held-out accuracy of L2-regularised multinomial logistic regression.

    Minimises C * sum_i CE(W x_i + b, y_i) + |W|^2 / 2 with an unpenalised
    intercept, the objective of scikit-learn's LogisticRegression(C=C), by
    one scipy L-BFGS fit; the objective is divided by C n to keep it O(1).
    """
    from scipy.optimize import minimize

    classes = np.unique(train_y)
    onehot = (train_y[:, None] == classes).astype(np.float64)
    (n, d), k = train_x.shape, len(classes)

    def objective(theta):
        w, b = theta[:d * k].reshape(d, k), theta[d * k:]
        z = train_x @ w + b
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        g = (np.exp(logp) - onehot) / n
        loss = -np.sum(onehot * logp) / n + np.sum(w * w) / (2 * C * n)
        return loss, np.concatenate(((train_x.T @ g + w / (C * n)).ravel(), g.sum(axis=0)))

    fit = minimize(objective, np.zeros(k * (d + 1)), jac=True, method="L-BFGS-B",
                   options={"maxiter": 2000})
    w, b = fit.x[:d * k].reshape(d, k), fit.x[d * k:]
    return float(np.mean(classes[np.argmax(test_x @ w + b, axis=1)] == test_y))


@pytest.fixture
def logistic_oracle():
    return _lbfgs_logistic_accuracy


@pytest.fixture
def spanning_corpus(monkeypatch):
    """Ten utterances over several pack runs: the frame budget is cut to 150, and
    the fifth utterance, 170 frames long, exceeds it and so runs alone."""
    from sharedformer import encoder
    from sharedformer.features import LabeledCorpus, synth_corpus

    monkeypatch.setattr(encoder, "PACK_FRAMES", 150)
    short = synth_corpus(0, 9, (20, 70), 16, 4)
    long = synth_corpus(1, 1, (170, 170), 16, 4)
    corpus = LabeledCorpus(short.sequences[:4] + long.sequences + short.sequences[4:],
                           short.labels[:4] + long.labels + short.labels[4:], 4)
    runs = encoder.pack_runs([seq.num_frames for seq in corpus.sequences])
    assert len(runs) > 2 and slice(4, 5) in runs
    return corpus
