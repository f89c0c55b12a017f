"""Greedy Gini decision tree with exact, deterministic split selection.

Split search scores candidates in vectorized float arithmetic and settles
near-ties in exact integer arithmetic, so the chosen split is a pure function
of the node's sample multiset: independent of row order, summation order, and
platform rounding.  Thresholds are midpoints between consecutive distinct
sorted values of a feature; ties between equally good splits go to the lowest
feature index, then the lowest threshold.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Estimator, check_fit_inputs, resolve_seed, rng_from
from ..errors import InfbenchError


class Leaf:
    __slots__ = ("counts",)

    def __init__(self, counts: np.ndarray):
        self.counts = counts  # (C,) int64 class counts of the training rows


class Split:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left, right):
        self.feature = feature
        self.threshold = threshold  # route left iff x[feature] <= threshold
        self.left = left
        self.right = right


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_c^2) of a count vector."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("gini_impurity needs at least one sample")
    p = counts / total
    return float(1.0 - np.dot(p, p))


def resolve_feature_count(max_features, n_features: int) -> int:
    """Number of candidate features per node: None=all, 'sqrt', or a fixed int."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(math.isqrt(n_features)))
    k = int(max_features)
    if not 1 <= k <= n_features:
        raise InfbenchError(
            f"max_features={k} outside [1, {n_features}]"
        )
    return k


def _search_split(Xn, yn, n_classes: int, min_samples_leaf: int):
    """Best boundary over the candidate columns of a node.

    Xn is the node's rows restricted to candidate columns, yn the node's class
    indices.  Returns ``(col, boundary_index, sorted_values_column)`` or None.

    Minimizing weighted child Gini is equivalent to maximizing
    q = sum(left_counts^2)/n_l + sum(right_counts^2)/n_r, a ratio of small
    integers.  Floats pre-select near-maximal candidates, then exact integer
    cross-multiplication picks the true maximum and applies tie-breaking, and
    the positive-gain test (q > sum(counts^2)/n) is exact as well.
    """
    n, k = Xn.shape
    order = np.argsort(Xn, axis=0, kind="stable")
    sv = np.take_along_axis(Xn, order, axis=0)
    sy = yn[order]  # (n, k)

    onehot = sy[:, :, None] == np.arange(n_classes)[None, None, :]
    cum = np.cumsum(onehot, axis=0, dtype=np.int64)  # (n, k, C)
    left = cum[:-1]
    right = cum[-1][None, :, :] - left
    L2 = np.einsum("bkc,bkc->bk", left, left)
    R2 = np.einsum("bkc,bkc->bk", right, right)

    n_l = np.arange(1, n, dtype=np.int64)[:, None]
    n_r = np.int64(n) - n_l
    valid = sv[:-1] < sv[1:]
    if min_samples_leaf > 1:
        valid &= (n_l >= min_samples_leaf) & (n_r >= min_samples_leaf)
    if not valid.any():
        return None

    q = L2 / n_l + R2 / n_r
    q[~valid] = -np.inf
    qmax = q.max()
    # Within 1e-12 relative of the float max; actual float error is ~1e-15,
    # so the set is tiny and always contains the exact maximum.
    near = np.argwhere(q >= qmax * (1.0 - 1e-12))
    # Lexicographic candidate order: lowest feature column, lowest threshold.
    near = near[np.lexsort((near[:, 0], near[:, 1]))]

    best = None  # (numerator, denominator, col, boundary)
    for b, j in near:
        b, j = int(b), int(j)
        nl, nr = b + 1, n - b - 1
        num = int(L2[b, j]) * nr + int(R2[b, j]) * nl  # q * nl * nr, exact
        den = nl * nr
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, j, b)

    num, den, j, b = best
    node_sq = int(np.einsum("c,c->", cum[-1][j], cum[-1][j]))
    if num * n <= den * node_sq:  # no candidate strictly reduces impurity
        return None
    return j, b, sv[:, j]


def _midpoint(lo: float, hi: float) -> float:
    thr = (lo + hi) / 2.0
    # Guard against the midpoint rounding up onto the right-hand value, which
    # would silently move the right run into the left child.
    if thr >= hi:
        thr = lo
    return thr


def best_split(X, y, candidate_features, *, n_classes: int | None = None,
               min_samples_leaf: int = 1):
    """Search all midpoint thresholds of the candidate features of (X, y).

    Returns ``(feature, threshold, gain)`` minimizing the weighted child Gini
    impurity, or None when no split strictly reduces impurity or satisfies
    ``min_samples_leaf``.  Ties break to the lowest feature index, then the
    lowest threshold.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    feats = np.sort(np.asarray(list(candidate_features), dtype=np.int64))
    if n_classes is None:
        n_classes = int(y.max()) + 1
    found = _search_split(X[:, feats], y, n_classes, min_samples_leaf)
    if found is None:
        return None
    j, b, sv = found
    threshold = _midpoint(float(sv[b]), float(sv[b + 1]))
    counts = np.bincount(y, minlength=n_classes)
    n = len(y)
    mask = X[:, feats[j]] <= threshold
    left_counts = np.bincount(y[mask], minlength=n_classes)
    right_counts = counts - left_counts
    nl, nr = int(mask.sum()), n - int(mask.sum())
    weighted = (nl * gini_impurity(left_counts) + nr * gini_impurity(right_counts)) / n
    return int(feats[j]), threshold, gini_impurity(counts) - weighted


class TreeModel:
    """Fitted tree: a root node plus the class/feature geometry it was grown on."""

    def __init__(self, root, n_classes: int, n_features: int):
        self.root = root
        self.n_classes = n_classes
        self.n_features = n_features

    def counts_matrix(self, X: np.ndarray) -> np.ndarray:
        """Leaf class counts for each row, shape (n, C)."""
        out = np.empty((X.shape[0], self.n_classes), dtype=np.int64)
        idx = np.arange(X.shape[0])
        stack = [(self.root, idx)]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, Leaf):
                out[rows] = node.counts
                continue
            mask = X[rows, node.feature] <= node.threshold
            left_rows, right_rows = rows[mask], rows[~mask]
            if left_rows.size:
                stack.append((node.left, left_rows))
            if right_rows.size:
                stack.append((node.right, right_rows))
        return out

    def distribution(self, X: np.ndarray) -> np.ndarray:
        counts = self.counts_matrix(X).astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        # argmax of counts == argmax of the leaf distribution; first maximum
        # wins, i.e. ties go to the lowest class index
        return np.argmax(self.counts_matrix(X), axis=1).astype(np.int64)

    def to_dict(self) -> dict:
        def conv(node):
            if isinstance(node, Leaf):
                return {"counts": [int(c) for c in node.counts]}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "left": conv(node.left),
                "right": conv(node.right),
            }

        return {
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "root": conv(self.root),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeModel":
        def conv(node):
            if "counts" in node:
                return Leaf(np.asarray(node["counts"], dtype=np.int64))
            return Split(
                int(node["feature"]), float(node["threshold"]),
                conv(node["left"]), conv(node["right"]),
            )

        return cls(conv(d["root"]), int(d["n_classes"]), int(d["n_features"]))


def tree_params(est) -> dict:
    """The tree-shape hyperparameters of ``est``, as ``grow_tree`` keywords."""
    names = ("max_depth", "min_samples_split", "min_samples_leaf", "max_features")
    return {name: getattr(est, name) for name in names}


def grow_tree(X: np.ndarray, y_idx: np.ndarray, n_classes: int, *,
              max_depth: int | None = None, min_samples_split: int = 2,
              min_samples_leaf: int = 1, max_features=None,
              feature_rng: np.random.Generator | None = None) -> TreeModel:
    """Grow a tree by recursive greedy splitting.

    At each node the candidate features are a uniform sample without
    replacement from the node's feature-sampling stream (all features when the
    sample size equals the total).  Recursion stops at ``max_depth``, purity,
    or when no admissible split reduces impurity.
    """
    n_features = X.shape[1]
    k = resolve_feature_count(max_features, n_features)
    all_feats = np.arange(n_features, dtype=np.int64)

    def build(rows: np.ndarray, depth: int):
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        if (
            (max_depth is not None and depth >= max_depth)
            or rows.size < min_samples_split
            or int((counts > 0).sum()) <= 1
        ):
            return Leaf(counts)
        if k < n_features:
            feats = np.sort(feature_rng.choice(n_features, size=k, replace=False))
        else:
            feats = all_feats
        found = _search_split(
            X[np.ix_(rows, feats)], y_idx[rows], n_classes, min_samples_leaf
        )
        if found is None:
            return Leaf(counts)
        j, b, sv = found
        feature = int(feats[j])
        threshold = _midpoint(float(sv[b]), float(sv[b + 1]))
        mask = X[rows, feature] <= threshold
        left = build(rows[mask], depth + 1)
        right = build(rows[~mask], depth + 1)
        return Split(feature, threshold, left, right)

    if k < n_features and feature_rng is None:
        raise InfbenchError("feature subsampling requires a feature_rng")
    root = build(np.arange(X.shape[0]), 0)
    return TreeModel(root, n_classes, n_features)


class DecisionTree(Estimator):
    """Single Gini decision tree over the estimator contract."""

    kind = "decision_tree"

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 seed: int | None = None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y) -> "DecisionTree":
        A, y_idx, classes = check_fit_inputs(X, y)
        rng = rng_from(resolve_seed(self.seed))
        self.tree_ = grow_tree(A, y_idx, classes.size, feature_rng=rng,
                               **tree_params(self))
        self.n_features_ = A.shape[1]
        self.classes_ = classes
        return self

    def predict(self, X) -> np.ndarray:
        A = self._check_predict_input(X)
        return self.classes_.decode(self.tree_.predict_idx(A))

    def predict_proba(self, X) -> np.ndarray:
        A = self._check_predict_input(X)
        return self.tree_.distribution(A)

    def get_state(self) -> dict:
        return {**super().get_state(), "tree": self.tree_.to_dict()}

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        est = super().from_state(state)
        est.tree_ = TreeModel.from_dict(state["tree"])
        est.n_features_ = est.tree_.n_features
        return est
