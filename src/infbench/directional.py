"""Forest over direction-aligned features, without bootstrap resampling.

Each feature gets a direction in {-1, 0, +1}: the sign of the summed
deviations of the per-class feature means from the global feature mean,
computed on the raw training features.  Inputs are multiplied element-wise by
the direction vector before any tree sees them, so features whose class means
sit exactly at the global mean are zeroed out entirely.

Every tree trains on all rows; ensemble diversity comes only from per-node
feature subsampling.  Prediction is a plurality vote over the trees' predicted
class indices, ties resolved to the lowest class index.  There is deliberately
no predict_proba: the ensemble is defined by its votes, and downstream
consumers must take the vote path.
"""

from __future__ import annotations

import numpy as np

from .core import finite_floats
from .errors import MissingClass
from .baselearners.forest import plurality_vote
from .baselearners.tree import TreeEnsemble, descend_blocks, stand_ins, whole_samples


def feature_directions(X, y_idx, n_classes: int) -> np.ndarray:
    """Per-feature sign of the total class-mean deviation from the global mean.

    d_j = sign(sum_c (mu_{c,j} - mu_j)) with sign(0) = 0, shape (f,), float64.
    The sign comparison is exact: no epsilon band around zero.
    """
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx, dtype=np.int64)
    global_mean = X.mean(axis=0)
    total = np.zeros(X.shape[1], dtype=np.float64)
    for c in range(n_classes):
        members = y_idx == c
        if not members.any():
            raise MissingClass(f"class index {c} has no members")
        total += X[members].mean(axis=0) - global_mean
    return np.sign(total)


class DirectionalForest(TreeEnsemble):
    """Feature-direction ensemble classifier.

    Tree i's key is ``derive_seed(seed, i)``, and stream 1 + o under it draws
    the candidates of its o-th searched node (``tree.node_features``).
    Sharing one key across trees would make every tree identical here,
    because without bootstrap the trees differ only through feature sampling.
    """

    kind = "directional_forest"
    rules = {k: rule for k, rule in TreeEnsemble.rules.items() if k != "bootstrap"}

    def __init__(self, n_estimators: int = 100, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features="sqrt", seed: int | None = None):
        self.set_hyperparams(locals())

    def growth(self, A, y_idx, n_classes) -> tuple:
        keys = self.tree_keys(self.n_estimators)
        self.directions_ = feature_directions(A, y_idx, n_classes)
        X = A * self.directions_
        return X, *whole_samples(stand_ins(X, y_idx), keys.size), keys

    def predict(self, X) -> np.ndarray:
        A = self._check_predict_input(X)
        idx = np.empty(A.shape[0], dtype=np.int64)
        for rows, leaves in descend_blocks(self.table_, A * self.directions_):
            idx[rows] = plurality_vote(self.table_.vote[leaves].T)
        return self.classes_.decode(idx)

    def get_state(self) -> dict:
        return {**super().get_state(), "directions": self.directions_.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "DirectionalForest":
        directions = finite_floats(state["directions"], "directions")
        if directions.ndim != 1:
            raise ValueError(f"directions must be a flat list, got {directions.ndim} dimensions")
        est = super().from_state(state, directions.shape[0])
        est.directions_ = directions
        return est
