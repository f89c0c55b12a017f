"""Bootstrap-aggregated Gini trees with probability averaging."""

from __future__ import annotations

import numpy as np

from ..core import splitmix64
from . import tree
from .tree import TreeEnsemble, stand_ins, whole_samples


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


def bootstrap(keys: np.ndarray, stand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One bootstrap sample of n rows per tree key, n the size of ``stand``,
    each row's stand-in (``tree.stand_ins``), as ``grow_trees`` takes
    samples: the (2, d) int32 array of each tree's distinct drawn stand-ins,
    ascending, over their multiplicities, tree after tree, and each tree's d.

    Draw j of the tree of key K is row ``(h >> 32) * n >> 32`` of the hash
    ``h = derive_seed(derive_seed(K, 0), j)``, stream 0 under the key, and
    is tallied under that row's stand-in.  This 32-bit multiply-shift takes
    n < 2^32 and gives each row a probability within 2^-32 of 1/n, a
    relative bias below n / 2^32 per draw.  The trees are tallied with one
    offset ``bincount`` per chunk of about ``BLOCK_PAIRS`` (tree, draw)
    pairs, or of one tree.
    """
    n = stand.size
    step = max(1, tree.BLOCK_PAIRS // n)
    tallies = []  # per chunk: tree * n + row, and multiplicity, of each drawn row
    for a in range(0, keys.size, step):
        h = splitmix64(splitmix64(keys[a:a + step], 0)[:, None], np.arange(n))
        drawn = stand[(h >> np.uint64(32)) * np.uint64(n) >> np.uint64(32)]
        tally = np.bincount((drawn + n * np.arange(len(h))[:, None]).ravel(), minlength=h.size)
        at = np.flatnonzero(tally)
        tallies.append(np.stack([a * n + at, tally[at]]))
    at, mult = np.concatenate(tallies, axis=1)
    return np.stack([at % n, mult]).astype(np.int32), np.bincount(at // n, minlength=keys.size)


class RandomForest(TreeEnsemble):
    """Random forest: bootstrap rows per tree, sqrt feature sampling per node.

    Tree i's key is ``derive_seed(seed, i)``.  Stream 0 under it draws the
    tree's bootstrap (``bootstrap``) and stream 1 + o the candidates of its
    o-th searched node (``tree.node_features``), so every draw is a hash of
    integers: the ensemble is reproducible tree by tree and each tree is the
    one grown alone.
    """

    kind = "random_forest"

    def __init__(self, n_estimators: int = 100, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features="sqrt", bootstrap: bool = True,
                 seed: int | None = None):
        self.set_hyperparams(locals())

    def growth(self, A, y_idx, n_classes) -> tuple:
        keys, stand = self.tree_keys(self.n_estimators), stand_ins(A, y_idx)
        draw = bootstrap(keys, stand) if self.bootstrap else whole_samples(stand, keys.size)
        return A, *draw, keys

    def predict_proba(self, X) -> np.ndarray:
        return self.mean_proba(self._check_predict_input(X))
