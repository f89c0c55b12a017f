"""Multinomial logistic regression trained by full-batch gradient descent.

The loss is the mean cross-entropy of the softmax probabilities plus an L2
penalty on the weight matrix (the bias row is not penalized).  Features are
standardized internally to zero mean and unit scale before optimization;
constant columns keep scale 1 so they pass through as zeros.  With zero
initialization the objective is convex and the whole procedure is
deterministic, no seed involved.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core import Estimator, check_fit_inputs, finite_floats
from ..errors import ConvergenceWarning


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for overflow safety, written
    to ``out`` when given (which may be ``scores`` itself)."""
    out = np.subtract(scores, scores.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def one_hot(y_idx: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, n_classes) float matrix with a 1.0 in each row's class column."""
    Y = np.zeros((y_idx.size, n_classes))
    Y[np.arange(y_idx.size), y_idx] = 1.0
    return Y


def gradient(P: np.ndarray, W: np.ndarray, X: np.ndarray, Y: np.ndarray,
             l2: float):
    """Gradients w.r.t. W and b of ``loss_and_gradient``'s loss, given the
    softmax probabilities ``P``, which it overwrites, and the one-hot targets
    ``Y``.  Subtracting Y's zeros leaves the other entries' bits as they are."""
    n = X.shape[0]
    P -= Y
    grad_W = X.T @ P
    grad_W /= n
    grad_W += l2 * W
    grad_b = P.sum(axis=0)
    grad_b /= n
    return grad_W, grad_b


def loss_and_gradient(W: np.ndarray, b: np.ndarray, X: np.ndarray,
                      y_idx: np.ndarray, l2: float):
    """Mean cross-entropy with L2 on W, and its gradients w.r.t. W and b.

    W has shape (d, C), b shape (C,), X shape (n, d), y_idx integer classes.
    """
    n = X.shape[0]
    P = softmax(X @ W + b)
    correct = P[np.arange(n), y_idx]
    # clip keeps log finite; at float64 P only underflows for margins ~>700
    loss = -np.mean(np.log(np.clip(correct, 1e-300, None)))
    loss += 0.5 * l2 * float(np.sum(W * W))
    return (loss, *gradient(P, W, X, one_hot(y_idx, W.shape[1]), l2))


class LogisticRegression(Estimator):
    """Softmax regression over the estimator contract."""

    kind = "logistic_regression"

    def __init__(self, lr: float = 0.1, l2: float = 1e-4,
                 max_iter: int = 1000, tol: float = 1e-6):
        self.lr = lr
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y) -> "LogisticRegression":
        A, y_idx, classes = check_fit_inputs(X, y)
        self.mean_ = A.mean(axis=0)
        scale = A.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        Z = (A - self.mean_) / self.scale_

        d, C = A.shape[1], classes.size
        W = np.zeros((d, C), dtype=np.float64)
        b = np.zeros(C, dtype=np.float64)
        Y = one_hot(y_idx, C)
        P = np.empty((A.shape[0], C))  # scores, then probabilities
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            np.matmul(Z, W, out=P)
            P += b
            grad_W, grad_b = gradient(softmax(P, out=P), W, Z, Y, self.l2)
            gmax = max(np.abs(grad_W).max(), np.abs(grad_b).max())
            if gmax < self.tol:
                n_iter -= 1
                break
            grad_W *= self.lr
            W -= grad_W
            grad_b *= self.lr
            b -= grad_b
        else:
            # one fixed message, so the default filter shows it once per process
            warnings.warn("logistic regression stopped at max_iter before its "
                          "gradient fell below tol", ConvergenceWarning)
        self.coef_ = W
        self.intercept_ = b
        self.n_iter_ = n_iter
        self.n_features_ = d
        self.classes_ = classes
        return self

    def decision_scores(self, X) -> np.ndarray:
        A = self._check_predict_input(X)
        Z = (A - self.mean_) / self.scale_
        return Z @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_scores(X))

    def predict(self, X) -> np.ndarray:
        scores = self.decision_scores(X)
        return self.classes_.decode(np.argmax(scores, axis=1).astype(np.int64))

    def get_state(self) -> dict:
        return {
            **super().get_state(),
            "mean": self.mean_.tolist(),
            "scale": self.scale_.tolist(),
            "coef": self.coef_.tolist(),
            "intercept": self.intercept_.tolist(),
            "n_iter": self.n_iter_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LogisticRegression":
        est = super().from_state(state)
        est.mean_ = finite_floats(state["mean"], "mean")
        est.scale_ = finite_floats(state["scale"], "scale")
        est.coef_ = finite_floats(state["coef"], "coef")
        est.intercept_ = finite_floats(state["intercept"], "intercept")
        d, C = est.mean_.size, est.classes_.size
        shapes = [a.shape for a in (est.mean_, est.scale_, est.coef_, est.intercept_)]
        if shapes != [(d,), (d,), (d, C), (C,)]:
            raise ValueError(f"mean, scale, coef and intercept have shapes "
                             f"{shapes}, expected {[(d,), (d,), (d, C), (C,)]}")
        est.n_iter_ = int(state["n_iter"])
        est.n_features_ = est.coef_.shape[0]
        return est
