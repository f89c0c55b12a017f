"""Bootstrap-aggregated Gini trees with probability averaging."""

from __future__ import annotations

import numpy as np

from ..core import Estimator, check_fit_inputs, derive_seed, resolve_seed, rng_from
from .tree import (TreeStack, descend_blocks, grow_trees, tree_params,
                   trees_from_dicts, trees_to_dicts, whole_sample)


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


def grow_forest(est, X: np.ndarray, y_idx: np.ndarray, n_classes: int,
                sample) -> list:
    """Grow ``est.n_estimators`` trees with ``est``'s tree hyperparameters.

    ``sample(i)`` returns tree i's ``(sample, feature_seed)``: the distinct
    rows of X the tree trains on over how many times each is drawn, as
    ``grow_trees`` takes them, and the seed of its per-node feature-sampling
    stream.
    """
    samples, seeds = zip(*(sample(i) for i in range(est.n_estimators)))
    return grow_trees(X, y_idx, n_classes, samples, [rng_from(seed) for seed in seeds],
                      **tree_params(est))


class RandomForest(Estimator):
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
        every_row = whole_sample(n)

        def sample(i):
            tree_seed = derive_seed(base, i)
            if not self.bootstrap:
                return every_row, derive_seed(tree_seed, 1)
            drawn = np.bincount(rng_from(tree_seed).integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(drawn)
            return np.stack([rows, drawn[rows]]).astype(np.int32), derive_seed(tree_seed, 1)

        self.trees_ = grow_forest(self, A, y_idx, classes.size, sample)
        self.stack_ = TreeStack(self.trees_)
        self.n_features_ = A.shape[1]
        self.classes_ = classes
        return self

    def predict_proba(self, X) -> np.ndarray:
        A = self._check_predict_input(X)
        total = np.empty((A.shape[0], self.classes_.size))
        for rows, leaves in descend_blocks(self.stack_, A):
            # A running sum over the tree axis adds the leaf distributions in
            # tree order, so the mean is the same float sum tree by tree.
            total[rows] = np.cumsum(self.stack_.distribution[leaves], axis=0)[-1]
        return total / len(self.trees_)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_.decode(np.argmax(proba, axis=1).astype(np.int64))

    def get_state(self) -> dict:
        return {**super().get_state(), "trees": trees_to_dicts(self, self.trees_)}

    @classmethod
    def from_state(cls, state: dict) -> "RandomForest":
        est = super().from_state(state)
        est.trees_ = trees_from_dicts(state["trees"], est.classes_.size)
        est.stack_ = TreeStack(est.trees_)
        est.n_features_ = est.trees_[0].n_features
        return est
