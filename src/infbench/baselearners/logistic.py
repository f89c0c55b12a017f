"""Multinomial logistic regression fitted by damped Newton.

The loss is the mean cross-entropy of the softmax probabilities plus an L2
penalty on the weight matrix (not on the bias row), over features that are
standardized internally; constant columns keep scale 1 and pass as zeros.
Adding one constant to every bias leaves that loss as it is, so its Hessian is
singular.  The solver minimizes the loss plus (sum of the biases)^2 / 2 instead:
the same minimizer, as the loss's bias gradient sums to zero, and a positive
definite Hessian.  Each Newton step backtracks to the Armijo condition, until
the gradient's max-norm is below ``tol``.  The fit is deterministic, no seed.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core import POSITIVE, Estimator, check_fit_inputs, finite_floats, integer
from ..errors import ConvergenceWarning


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for overflow safety."""
    E = np.exp(scores - scores.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


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
    R = P.copy()  # (P - one-hot targets) / n
    R[np.arange(n), y_idx] -= 1.0
    R /= n
    return loss, X.T @ R + l2 * W, R.sum(axis=0)


class LogisticRegression(Estimator):
    """Softmax regression over the estimator contract."""

    kind = "logistic_regression"
    rules = {"l2": POSITIVE, "max_iter": integer(1), "tol": POSITIVE}  # l2 = 0: singular Hessian

    def __init__(self, l2: float = 1e-4, max_iter: int = 1000, tol: float = 1e-6):
        self.set_hyperparams(locals())

    def fit(self, X, y) -> "LogisticRegression":
        A, y_idx, classes = check_fit_inputs(X, y)
        self.mean_ = A.mean(axis=0)
        scale = A.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        Z = (A - self.mean_) / self.scale_

        (n, d), C = Z.shape, classes.size
        Z1 = np.hstack([Z, np.ones((n, 1))])  # theta = [W; b], shape (d + 1, C)

        def objective(theta):
            loss, grad_W, grad_b = loss_and_gradient(theta[:d], theta[d], Z, y_idx, self.l2)
            s = theta[d].sum()
            return theta, loss + 0.5 * s * s, np.vstack([grad_W, grad_b + s])

        theta, loss, grad = objective(np.zeros((d + 1, C)))
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            if np.abs(grad).max() < self.tol:
                n_iter -= 1
                break
            P = softmax(Z1 @ theta)  # Hessian by class pair: no (n, d + 1, C) temporary
            H = np.empty((d + 1, C, d + 1, C))
            for k in range(C):
                for j in range(k, C):
                    w = P[:, k] * ((k == j) - P[:, j]) / n
                    H[:, k, :, j] = H[:, j, :, k] = Z1.T @ (Z1 * w[:, None])
            H = H.reshape(theta.size, theta.size)
            H[np.arange(d * C), np.arange(d * C)] += self.l2
            H[d * C:, d * C:] += 1.0
            step = np.linalg.solve(H, -grad.ravel())
            for t in 0.5 ** np.arange(34):  # Armijo backtracking, down to t ~ 1e-10
                trial = objective(theta + t * step.reshape(theta.shape))
                if trial[1] <= loss + 1e-4 * t * float(grad.ravel() @ step):
                    break
            theta, loss, grad = trial
        else:
            # one fixed message, so the default filter shows it once per process
            warnings.warn("logistic regression stopped at max_iter before its "
                          "gradient fell below tol", ConvergenceWarning)
        self.coef_, self.intercept_ = theta[:d], theta[d]
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
        if (est.scale_ <= 0).any():
            raise ValueError("scale holds a value <= 0")  # fit never makes one
        est.n_iter_ = int(state["n_iter"])
        est.n_features_ = est.coef_.shape[0]
        return est
