import warnings

import numpy as np
import pytest

from infbench.baselearners import LogisticRegression
from infbench.baselearners.logistic import loss_and_gradient, softmax
from infbench.bench.ingest import ingest_csv
from infbench.bench.registry import bundled_manifest_path, load_registry
from infbench.errors import ConvergenceWarning, InfbenchError, NotFitted


def numeric_gradient(W, b, X, y, l2, step=1e-5):
    """Central finite differences of the loss in every W and b coordinate."""
    gW = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            up = W.copy(); up[i, j] += step
            dn = W.copy(); dn[i, j] -= step
            lu, _, _ = loss_and_gradient(up, b, X, y, l2)
            ld, _, _ = loss_and_gradient(dn, b, X, y, l2)
            gW[i, j] = (lu - ld) / (2 * step)
    gb = np.zeros_like(b)
    for j in range(b.shape[0]):
        up = b.copy(); up[j] += step
        dn = b.copy(); dn[j] -= step
        lu, _, _ = loss_and_gradient(W, up, X, y, l2)
        ld, _, _ = loss_and_gradient(W, dn, X, y, l2)
        gb[j] = (lu - ld) / (2 * step)
    return gW, gb


def gradient_error(rng, n, f, c):
    X = rng.normal(0, 1, (n, f))
    y = rng.integers(0, c, n)
    while len(np.unique(y)) < 2:
        y = rng.integers(0, c, n)
    W = rng.normal(0, 0.5, (f, c))
    b = rng.normal(0, 0.5, c)
    _, gW, gb = loss_and_gradient(W, b, X, y, 1e-4)
    nW, nb = numeric_gradient(W, b, X, y, 1e-4)
    analytic = np.concatenate([gW.ravel(), gb])
    numeric = np.concatenate([nW.ravel(), nb])
    return float(
        np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    err = gradient_error(rng, 5, 3, 3)
    assert err <= 1e-4


def test_gradient_check_many_instances():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        f = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        worst = max(worst, gradient_error(rng, n, f, c))
    assert worst <= 1e-4


def perceptron_separates(X, y01, epochs=200):
    """Plain perceptron; returns True when it finds a separating plane."""
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 2.0 * y01 - 1.0
    for _ in range(epochs):
        wrong = 0
        for i in range(X.shape[0]):
            if t[i] * (X[i] @ w + b) <= 0:
                w += t[i] * X[i]
                b += t[i]
                wrong += 1
        if wrong == 0:
            return True
    return False


def test_separable_blobs_high_accuracy():
    rng = np.random.default_rng(20)
    n = 200
    X = np.vstack([
        rng.normal(-3.0, 1.0, (n // 2, 2)),
        rng.normal(3.0, 1.0, (n // 2, 2)),
    ])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    assert perceptron_separates(X, y), "sampled blobs must be separable"
    model = LogisticRegression().fit(X, y)
    acc = float(np.mean(model.predict(X) == y))
    assert acc >= 0.99


def test_symmetric_data_zero_bias():
    rng = np.random.default_rng(21)
    A = rng.normal(0.5, 1.0, (40, 3))
    X = np.vstack([A, -A])
    y = np.array([0] * 40 + [1] * 40)
    model = LogisticRegression().fit(X, y)
    assert np.all(np.abs(model.intercept_) <= 1e-6)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(22)
    S = rng.normal(0, 50, (30, 4))  # large scores stress the max-shift
    P = softmax(S)
    assert np.all(P >= 0) and np.all(P <= 1)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_fit_deterministic(blobs3):
    X, y = blobs3
    a = LogisticRegression().fit(X, y)
    b = LogisticRegression().fit(X, y)
    assert np.array_equal(a.coef_, b.coef_)
    assert np.array_equal(a.intercept_, b.intercept_)


def test_scaling_features_barely_changes_probabilities(blobs3):
    # internal standardization absorbs positive per-feature rescaling
    X, y = blobs3
    a = LogisticRegression().fit(X, y)
    scale = np.array([100.0, 0.01, 7.0])
    b = LogisticRegression().fit(X * scale, y)
    pa = a.predict_proba(X)
    pb = b.predict_proba(X * scale)
    assert np.allclose(pa, pb, atol=1e-6)


def test_multiclass_predict_shapes(blobs3):
    X, y = blobs3
    model = LogisticRegression(max_iter=300).fit(X, y)
    proba = model.predict_proba(X)
    assert proba.shape == (X.shape[0], 3)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert set(model.predict(X)) <= set(y)


def test_constant_feature_is_harmless():
    rng = np.random.default_rng(23)
    X = rng.normal(0, 1, (60, 2))
    X[:, 1] = 5.0
    y = (X[:, 0] > 0).astype(int)
    model = LogisticRegression().fit(X, y)
    assert float(np.mean(model.predict(X) == y)) >= 0.95


@pytest.mark.parametrize("l2", [0.0, -1e-4, float("nan")])
def test_fit_without_a_positive_penalty_is_rejected(blobs3, l2):
    X, y = blobs3
    with pytest.raises(InfbenchError, match="l2 > 0"):
        LogisticRegression(l2=l2).fit(X, y)


def test_unfitted_errors():
    with pytest.raises(NotFitted):
        LogisticRegression().predict(np.ones((2, 2)))


def test_state_roundtrip(blobs3):
    X, y = blobs3
    model = LogisticRegression(max_iter=200).fit(X, y)
    clone = LogisticRegression.from_state(model.get_state())
    assert np.array_equal(clone.predict_proba(X), model.predict_proba(X))
    assert clone.predict(X).tolist() == model.predict(X).tolist()


def test_stopping_at_max_iter_warns(blobs3):
    X, y = blobs3
    with pytest.warns(ConvergenceWarning):
        model = LogisticRegression(max_iter=1).fit(X, y)
    assert model.n_iter_ == model.max_iter


def test_converging_fit_does_not_warn():
    from infbench.bench.ingest import encode_table
    from infbench.bench.synth import rings

    table = rings()
    data = encode_table("rings", table.header, table.rows, "label", table.kinds)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        model = LogisticRegression().fit(data.X, data.y)
    assert model.n_iter_ < model.max_iter


BUNDLED = {spec.dataset_id: spec for spec in load_registry(bundled_manifest_path())}


@pytest.fixture(scope="module", params=sorted(BUNDLED))
def bundled_fit(request):
    """Each bundled table and the default fit on it, which must not warn."""
    data = ingest_csv(BUNDLED[request.param])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        return data, LogisticRegression().fit(data.X, data.y)


def test_bundled_tables_converge_in_few_newton_steps(bundled_fit):
    _, model = bundled_fit
    assert 1 <= model.n_iter_ <= 20


def test_fitted_coefficients_zero_the_gate_gradient(bundled_fit):
    # the solver stops on the same function gate 04 checks against finite
    # differences, evaluated on the standardized inputs the fit saw
    data, model = bundled_fit
    Z = (data.X - model.mean_) / model.scale_
    y_idx = model.classes_.encode(data.y)
    _, grad_W, grad_b = loss_and_gradient(model.coef_, model.intercept_, Z, y_idx,
                                          model.l2)
    assert max(np.abs(grad_W).max(), np.abs(grad_b).max()) < model.tol


def test_fitted_biases_sum_to_zero(bundled_fit):
    _, model = bundled_fit
    assert abs(model.intercept_.sum()) <= 1e-12
