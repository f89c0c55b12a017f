"""Bootstrap-aggregated Gini trees with probability averaging."""

from __future__ import annotations

import numpy as np

from ..core import check_fit_inputs, derive_seed, resolve_seed, rng_from
from .tree import TreeEnsemble, whole_sample


def plurality_vote(votes: np.ndarray) -> np.ndarray:
    """Most frequent class index per row of an (n, T) vote matrix.

    Ties go to the lowest class index.  One ``bincount`` tallies every row:
    row i's votes are offset by ``i * C`` so that the rows' tallies do not mix.
    """
    votes = np.asarray(votes, dtype=np.int64)
    n = votes.shape[0]
    C = int(votes.max(initial=0)) + 1
    offset = (votes + C * np.arange(n)[:, None]).ravel()
    tally = np.bincount(offset, minlength=n * C).reshape(n, C)
    return np.argmax(tally, axis=1)


class RandomForest(TreeEnsemble):
    """Random forest: bootstrap rows per tree, sqrt feature sampling per node.

    Tree i draws its bootstrap sample from the stream ``derive_seed(seed, i)``
    and its per-node feature subsets from a child stream of that, so the
    ensemble is reproducible tree by tree and invariant to fitting order.
    """

    kind = "random_forest"

    def __init__(self, n_estimators: int = 100, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features="sqrt", bootstrap: bool = True,
                 seed: int | None = None):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def fit(self, X, y) -> "RandomForest":
        A, y_idx, classes = check_fit_inputs(X, y)
        base = resolve_seed(self.seed)
        n = A.shape[0]
        samples, seeds = [], []
        for i in range(self.n_estimators):
            tree_seed = derive_seed(base, i)
            if self.bootstrap:
                drawn = np.bincount(rng_from(tree_seed).integers(0, n, size=n), minlength=n)
                rows = np.flatnonzero(drawn)
                samples.append(np.stack([rows, drawn[rows]]).astype(np.int32))
            else:
                samples.append(whole_sample(n))
            seeds.append(derive_seed(tree_seed, 1))
        return self.grow(A, y_idx, classes, samples, seeds)

    def predict_proba(self, X) -> np.ndarray:
        return self.mean_proba(self._check_predict_input(X))
