"""Greedy Gini decision tree with exact, deterministic split selection.

Split search scores candidates in vectorized float arithmetic and settles
near-ties in exact integer arithmetic, so the chosen split is a pure function
of the node's sample multiset: independent of row order, summation order, and
platform rounding.  Thresholds are midpoints between consecutive distinct
sorted values of a feature; ties between equally good splits go to the lowest
feature index, then the lowest threshold.

Trees grow breadth first, all trees of a fit together: each depth level's
nodes are searched in a few blocks over arrays, and a fitted tree's nodes are
numbered in that level order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..core import Estimator, check_fit_inputs, finite_floats, resolve_seed, rng_from
from ..errors import InfbenchError


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


def feature_subsets(rng: np.random.Generator, n: int, k: int):
    """Yield ``np.sort(rng.choice(n, k, replace=False))`` again and again, for
    1 <= k < n: the same arrays from the same stream, drawn in bulk.

    Where numpy's ``choice`` runs Floyd's algorithm (Bentley & Floyd, CACM
    1987), i.e. unless n > 10000 and k > n // 50, one call makes k bounded
    draws in [0, j] for j = n-k ... n-1, each taking j instead when it hits a
    value already taken, then shuffles them with k-1 draws in [0, i] for
    i = k-1 ... 1.  Every one is a Lemire draw, as ``Generator.integers`` makes
    with an array bound, so one ``integers`` call yields the draws of many
    calls in stream order.  Chunks start at 64 subsets and double, up to
    about ``BLOCK_PAIRS`` draws and flags; the stream moves a chunk at a time.
    numpy's other branch, a tail shuffle, runs ``choice`` itself.
    """
    if n > 10000 and k > n // 50:
        while True:
            yield np.sort(rng.choice(n, size=k, replace=False))
    bound = np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)]) + 1
    chunk, cap = 64, max(64, BLOCK_PAIRS // n)
    while True:
        draws = rng.integers(0, np.tile(bound, chunk)).reshape(chunk, -1)
        taken = np.zeros((chunk, n), dtype=bool)
        at = np.arange(chunk)
        for s in range(k):
            drawn = draws[:, s]
            drawn[taken[at, drawn]] = n - k + s
            taken[at, drawn] = True
        sets = np.sort(draws[:, :k], axis=1)
        del draws, taken, drawn  # hold only the sets while they are handed out
        yield from sets
        chunk = min(2 * chunk, cap)


def _columns(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The columns ``starts[i]`` to ``starts[i] + sizes[i]`` of every i, end to end."""
    end = np.cumsum(sizes)
    return np.repeat(starts - (end - sizes), sizes) + np.arange(end[-1] if end.size else 0)


def _search_nodes(X, ranks, y_idx, n_classes: int, sample, sizes, feats, min_samples_leaf: int):
    """Best split of each node of a block, scored together in one segmented
    search.

    ``sample`` holds the nodes' samples end to end, each as ``grow_trees``
    takes it: node i's is the next ``sizes[i]`` columns.  Row i of ``feats``
    holds node i's ascending candidate columns, as many for every node.
    ``ranks[f, r]`` is the dense rank of ``X[r, f]`` among column f's distinct
    values.  Returns ``(node, feature, threshold, children, child_sizes,
    child_counts)`` for the nodes that split, in ascending order of node:
    ``children`` holds their children's samples end to end, each left child
    before its right sibling, and ``child_sizes`` and ``child_counts`` hold
    each child's number of distinct rows and its class counts, in that order.

    Minimizing weighted child Gini is equivalent to maximizing
    q = sum(left_counts^2)/n_l + sum(right_counts^2)/n_r, a ratio of small
    integers, where counts and sizes add up multiplicities.  q is scored only
    at the boundaries between a node's distinct values of a column, the only
    places a threshold can split.  Floats pre-select near-maximal candidates,
    then exact integer cross-multiplication picks the true maximum and
    applies tie-breaking, and the positive-gain test (q > sum(counts^2)/n) is
    exact as well.
    """
    n = sample.shape[1]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)  # each row's node
    rows, mult = sample
    # each row's class counts: its multiplicity, in its class's column
    counts = np.zeros((n, n_classes), dtype=np.int64)
    counts[np.arange(n), y_idx[rows]] = mult
    total = np.add.reduceat(counts, starts)  # each node's class counts
    # One int64 key per (candidate, row): node, then value rank, then the
    # row's position in its low bits, which the sort carries along.  The key
    # stays below len(sizes) * X.shape[0] * 2n, within int64 for any X whose
    # row indices fit in int32.
    shift = n.bit_length()
    at = np.repeat(feats.T * X.shape[0], sizes, axis=1)
    at += rows
    key = ranks.ravel()[at]
    key += seg * X.shape[0]
    key <<= shift
    key |= np.arange(n)
    key.sort(axis=1)
    pos = key & ((1 << shift) - 1)
    key >>= shift
    # boundaries between distinct values inside a node, listed by column,
    # then by position: the order of the tie-break
    cut = key[:, 1:] != key[:, :-1]
    cut[:, ends[:-1] - 1] = False
    bj, bp = np.nonzero(cut)
    del key, cut
    m = seg[bp]
    # running class counts of each candidate's sorted rows, (n, k, C), read
    # at the boundaries, less those of the nodes ahead
    running = np.take(counts, pos.T, axis=0)
    np.cumsum(running, axis=0, out=running)
    left = np.take(running.reshape(-1, n_classes), bp * feats.shape[1] + bj, axis=0)
    del running
    left -= (np.cumsum(total, axis=0) - total)[m]
    right = total[m] - left
    n_l = left.sum(axis=1)
    n_r = total.sum(axis=1)[m] - n_l
    ok = (n_l >= min_samples_leaf) & (n_r >= min_samples_leaf)
    L2 = np.einsum("bc,bc->b", left, left)
    R2 = np.einsum("bc,bc->b", right, right)
    q = np.where(ok, L2 / n_l + R2 / n_r, -np.inf)
    qmax = np.full(sizes.size, -np.inf)
    np.maximum.at(qmax, m, q)
    # Within 1e-12 relative of the node's float max; actual float error is
    # ~1e-15, so the set is tiny and always contains the exact maximum.
    near = np.flatnonzero(ok & (q >= qmax[m] * (1.0 - 1e-12)))

    best = {}  # node -> (numerator, denominator, boundary)
    for b, mb, l2, r2, nl, nr in zip(near.tolist(), m[near].tolist(), L2[near].tolist(),
                                     R2[near].tolist(), n_l[near].tolist(),
                                     n_r[near].tolist()):
        num, den = l2 * nr + r2 * nl, nl * nr  # q * nl * nr, exact
        if mb not in best or num * best[mb][1] > best[mb][0] * den:
            best[mb] = (num, den, b)
    # a winner must strictly reduce impurity: q > sum(counts^2) / n, exactly
    node_n = total.sum(axis=1).tolist()
    node_sq = np.einsum("nc,nc->n", total, total).tolist()
    wins = [(mb, b) for mb, (num, den, b) in sorted(best.items())
            if num * node_n[mb] > den * node_sq[mb]]

    w, b = np.array(wins, dtype=np.int64).reshape(-1, 2).T
    j, p = bj[b], bp[b]
    feature = feats[w, j]
    lo, hi = X[rows[pos[j, p]], feature], X[rows[pos[j, p + 1]], feature]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # Guard against the midpoint rounding up onto the right-hand value,
    # which would silently move the right run into the left child.
    threshold = np.where(mid < hi, mid, lo)
    # each winner's rows in the order of its winning column, winner after
    # winner: the first p - start + 1 are its left child, the rest its right
    size = sizes[w]
    n_left = p - starts[w] + 1
    return (w, feature, threshold, sample[:, pos.ravel()[_columns(j * n + starts[w], size)]],
            np.stack([n_left, size - n_left], axis=1).ravel(),
            np.stack([left[b], right[b]], axis=1).reshape(-1, n_classes))


def whole_sample(n_rows: int) -> np.ndarray:
    """The sample of every row drawn once, as ``grow_trees`` takes it."""
    return np.stack([np.arange(n_rows, dtype=np.int32), np.ones(n_rows, np.int32)])


def column_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of each value of X among its column's distinct values,
    shape (features, rows): equal values share a rank, and ranks follow the
    values' order."""
    return np.array([np.unique(column, return_inverse=True)[1] for column in X.T])


def descend(nodes, X: np.ndarray) -> np.ndarray:
    """Leaf reached by every row of X in every tree of ``nodes``, shape (trees, n).

    ``nodes`` holds node arrays (``feature``, ``threshold``, ``left``,
    ``right``), the index of each tree's root in ``roots``, and ``depth``, the
    longest root-to-leaf path.  Each step moves every (tree, row) pair one
    level down and costs a few numpy calls whatever the tree count.  A leaf
    points to itself and a split to later nodes, so the descent ends after
    ``depth`` steps, or as soon as a step moves no pair.
    """
    n, f = X.shape
    flat = X.ravel()
    row_base = np.arange(n) * f
    node = np.repeat(nodes.roots[:, None], n, axis=1)
    for _ in range(nodes.depth):
        go_left = flat[row_base + nodes.feature[node]] <= nodes.threshold[node]
        below = np.where(go_left, nodes.left[node], nodes.right[node])
        if (below == node).all():
            break
        node = below
    return node


# (tree, row) pairs per block of ``descend_blocks``, (distinct row,
# candidate, class) triples per block of ``_search_nodes``, and roughly the
# draws per chunk of ``feature_subsets``: their working arrays stay within a
# few hundred kilobytes each, whatever the input size.
BLOCK_PAIRS = 1 << 15


def descend_blocks(nodes, X: np.ndarray):
    """Yield ``(rows, leaves)`` per block of X's rows, ``leaves`` as in ``descend``."""
    step = max(1, BLOCK_PAIRS // len(nodes.roots))
    for start in range(0, X.shape[0], step):
        rows = slice(start, start + step)
        yield rows, descend(nodes, X[rows])


# The deepest tree an artifact holds.  Its nested JSON form has one object
# per level, and Python's json module recurses once per level to write or read
# it, within the interpreter's default limit of 1000 frames.
MAX_SAVED_DEPTH = 500


class TreeModel:
    """Fitted tree as parallel node arrays in level order: by depth, then left
    to right, root at index 0.

    An internal node routes a row left iff ``x[feature] <= threshold``; its
    left child is node ``left`` and its right child node ``right``, the next
    one.  A leaf has ``left == right ==`` its own index and holds the class
    counts of its training rows in ``counts`` (internal nodes hold zeros
    there).  ``depth`` is the longest root-to-leaf path.
    """

    roots = np.zeros(1, dtype=np.int64)

    def __init__(self, feature, threshold, left, counts, depth: int, n_classes: int,
                 n_features: int):
        """Take the node arrays in level order; ``right`` follows from ``left``."""
        self.feature = np.asarray(feature, np.int64)
        self.threshold = np.asarray(threshold, np.float64)
        self.left = np.asarray(left, np.int64)
        self.right = self.left + (self.left != np.arange(self.left.size))
        self.counts = np.asarray(counts, np.int64).reshape(-1, n_classes)
        self.depth = depth
        self.n_classes = n_classes
        self.n_features = n_features

    def counts_matrix(self, X: np.ndarray) -> np.ndarray:
        """Leaf class counts for each row, shape (n, C)."""
        return self.counts[descend(self, X)[0]]

    def distribution(self, X: np.ndarray) -> np.ndarray:
        counts = self.counts_matrix(X).astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        # argmax of counts == argmax of the leaf distribution; first maximum
        # wins, i.e. ties go to the lowest class index
        return np.argmax(self.counts_matrix(X), axis=1).astype(np.int64)

    def to_dict(self) -> dict:
        """Nested ``{feature, threshold, left, right}`` / ``{counts}`` form."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, counts = self.left.tolist(), self.right.tolist(), self.counts.tolist()
        # children follow their parent, so a reverse sweep meets both
        # children of a split before the split itself
        node = [None] * len(left)
        for i in reversed(range(len(left))):
            if left[i] == i:
                node[i] = {"counts": counts[i]}
            else:
                node[i] = {
                    "feature": feature[i],
                    "threshold": threshold[i],
                    "left": node[left[i]],
                    "right": node[right[i]],
                }
        return {
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "root": node[0],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeModel":
        """Inverse of ``to_dict``; raises ValueError on a malformed tree."""
        n_classes, n_features = int(d["n_classes"]), int(d["n_features"])
        feature, threshold, left, counts = [], [], [], []
        zeros = [0] * n_classes
        # a queue in level order: the nodes listed so far, and their depths
        nodes, depths = [d["root"]], [0]
        for i, node in enumerate(nodes):
            if "counts" in node:
                c = node["counts"]
                if len(c) != n_classes:
                    raise ValueError(f"leaf has {len(c)} counts, expected "
                                     f"n_classes={n_classes}")
                feature.append(0)
                threshold.append(0.0)
                left.append(i)
                counts.extend(c)
                continue
            if depths[i] >= MAX_SAVED_DEPTH:
                raise ValueError(f"tree is deeper than {MAX_SAVED_DEPTH} levels")
            if not 0 <= node["feature"] < n_features:
                raise ValueError(f"split feature {node['feature']} outside [0, {n_features})")
            feature.append(node["feature"])
            threshold.append(node["threshold"])
            left.append(len(nodes))
            counts.extend(zeros)
            nodes += node["left"], node["right"]
            depths += depths[i] + 1, depths[i] + 1
        return cls(feature, threshold, left, counts, depths[-1], n_classes, n_features)


class TreeStack:
    """The node arrays of several trees laid end to end, descended together.

    Built once per fitted or loaded ensemble.  Besides the arrays ``descend``
    reads, it holds each node's class distribution and argmax vote, so a
    model turns leaf indices into outputs with one gather.
    """

    def __init__(self, trees: list):
        sizes = [t.feature.size for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        shift = np.repeat(self.roots, sizes)  # each node's tree offset
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.left = np.concatenate([t.left for t in trees]) + shift
        self.right = np.concatenate([t.right for t in trees]) + shift
        self.depth = max(t.depth for t in trees)
        counts = np.concatenate([t.counts for t in trees])
        total = counts.sum(axis=1, keepdims=True)
        # internal nodes hold zero counts; their 0/0 is never computed
        self.distribution = np.divide(counts, total, where=total > 0,
                                      out=np.zeros(counts.shape))
        self.vote = np.argmax(counts, axis=1)


def tree_params(est) -> dict:
    """The tree-shape hyperparameters of ``est``, as ``grow_trees`` keywords."""
    names = ("max_depth", "min_samples_split", "min_samples_leaf", "max_features")
    return {name: getattr(est, name) for name in names}


def grow_trees(X: np.ndarray, y_idx: np.ndarray, n_classes: int, samples: list,
               feature_rngs: list, *, max_depth: int | None = None,
               min_samples_split: int = 2, min_samples_leaf: int = 1,
               max_features=None) -> list:
    """Grow tree t on sample ``samples[t]`` of X by greedy splitting, one
    depth level at a time.

    A sample is a (2, d) int32 array: d distinct row indices of X over how
    many times each is drawn.  The tree is the one grown on the materialized
    copy ``X[np.repeat(*sample)]``: node sizes, class counts and the split
    criteria all add up multiplicities.

    At each node the candidate features are a uniform sample without
    replacement from ``feature_rngs[t]`` (all features when the sample size
    equals the total), drawn by ``feature_subsets`` for the tree's searched
    nodes in level order: by depth, then left to right.  A passed generator
    is advanced past the draws its tree used, and possibly further, since
    they are drawn ahead in chunks.  A node becomes a leaf at ``max_depth``,
    when pure, or when no admissible split reduces impurity.

    All trees grow together, and no tree sees another's nodes: each level's
    nodes, of every tree, are searched in blocks of at most ``BLOCK_PAIRS``
    (distinct row, candidate, class) triples, or of one node, per
    ``_search_nodes`` call.  The samples share one int32 buffer, in which a
    split's children take its columns, left then right.
    """
    n_features, n_trees = X.shape[1], len(samples)
    k = resolve_feature_count(max_features, n_features)
    if k < n_features and any(rng is None for rng in feature_rngs):
        raise InfbenchError("feature subsampling requires a feature_rng")
    draws = [feature_subsets(rng, n_features, k) if k < n_features
             else itertools.repeat(np.arange(n_features)) for rng in feature_rngs]
    ranks = column_ranks(X)
    # The level: each node's tree, the columns of ``sample`` that hold its
    # sample, and its class counts.  Nodes are numbered across all trees in
    # the order they are made.
    tree = np.arange(n_trees)
    sizes = np.fromiter((s.shape[1] for s in samples), np.int64, n_trees)
    starts = np.cumsum(sizes) - sizes
    sample = np.concatenate(samples, axis=1)
    counts = np.stack([np.bincount(y_idx[s[0]], weights=s[1], minlength=n_classes)
                       for s in samples]).astype(np.int64)
    depth = np.zeros(n_trees, dtype=np.int64)
    levels = []  # per level: each node's tree, feature, threshold, left child, counts
    first, level = 0, 0  # number of the level's first node; its depth
    while tree.size:
        depth[tree] = level
        feature, threshold = np.zeros(tree.size, np.int64), np.zeros(tree.size)
        left = np.arange(first, first + tree.size)  # a leaf points to itself
        search = np.flatnonzero((counts.sum(axis=1) >= min_samples_split)
                                & (np.count_nonzero(counts, axis=1) > 1)
                                & (max_depth is None or level < max_depth))
        feats = np.array([next(draws[t]) for t in tree[search].tolist()],
                         dtype=np.int64).reshape(-1, k)
        triples = np.cumsum(sizes[search]) * (k * n_classes)
        won, child_sizes, child_counts = [search[:0]], [], []
        a = 0
        while a < search.size:
            # the longest run of nodes within BLOCK_PAIRS, or one node
            z = max(a + 1, int(np.searchsorted(
                triples, BLOCK_PAIRS + (triples[a - 1] if a else 0), side="right")))
            block = search[a:z]
            w, f, thr, children, kid_sizes, kid_counts = _search_nodes(
                X, ranks, y_idx, n_classes, sample[:, _columns(starts[block], sizes[block])],
                sizes[block], feats[a:z], min_samples_leaf)
            block = block[w]
            feature[block], threshold[block] = f, thr
            sample[:, _columns(starts[block], sizes[block])] = children
            won.append(block)
            child_sizes.append(kid_sizes)
            child_counts.append(kid_counts)
            a = z
        won = np.concatenate(won)
        left[won] = first + tree.size + 2 * np.arange(won.size)
        counts[won] = 0
        levels.append((tree, feature, threshold, left, counts))
        first += tree.size
        level += 1
        tree = np.repeat(tree[won], 2)
        if tree.size:
            sizes, counts = np.concatenate(child_sizes), np.concatenate(child_counts)
            starts = np.repeat(starts[won], 2)
            starts[1::2] += sizes[::2]

    # renumber each tree's nodes from 0, keeping their level order
    tree, feature, threshold, left, counts = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    n_nodes = np.bincount(tree, minlength=n_trees)
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(np.cumsum(n_nodes) - n_nodes, n_nodes)
    return [TreeModel(feature[ids], threshold[ids], local[left[ids]], counts[ids], d,
                      n_classes, n_features)
            for ids, d in zip(np.split(order, np.cumsum(n_nodes)[:-1]), depth.tolist())]


def grow_tree(X: np.ndarray, y_idx: np.ndarray, n_classes: int, *,
              feature_rng: np.random.Generator | None = None, **params) -> TreeModel:
    """One tree on every row of X: ``grow_trees`` of a single sample.

    As there, a passed ``feature_rng`` is advanced past the draws the tree
    used, and possibly further."""
    return grow_trees(X, y_idx, n_classes, [whole_sample(X.shape[0])], [feature_rng],
                      **params)[0]


class TreeEnsemble(Estimator):
    """Gini trees grown together by ``grow_trees`` and read as one ``TreeStack``.

    A subclass's ``fit`` chooses each tree's sample and feature seed and
    hands them to ``grow``.  A subclass with probabilities defines
    ``predict_proba`` through ``mean_proba``, and ``predict`` takes its first
    argmax, i.e. ties go to the lowest class index.
    """

    def grow(self, X, y_idx, classes, samples: list, seeds: list) -> "TreeEnsemble":
        """Grow tree t on ``samples[t]`` of X, as ``grow_trees`` takes it, with
        its per-node features drawn from the stream of ``seeds[t]``."""
        self.trees_ = grow_trees(X, y_idx, classes.size, samples,
                                 [rng_from(seed) for seed in seeds], **tree_params(self))
        self.stack_ = TreeStack(self.trees_)
        self.n_features_ = X.shape[1]
        self.classes_ = classes
        return self

    def mean_proba(self, A: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf distributions for each row of A."""
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
        state = super().get_state()
        deepest = max(t.depth for t in self.trees_)
        if deepest > MAX_SAVED_DEPTH:
            raise InfbenchError(
                f"cannot save {self.kind}: it has a tree of depth {deepest}, and an "
                f"artifact holds trees of depth {MAX_SAVED_DEPTH} at most"
            )
        return {**state, "trees": [t.to_dict() for t in self.trees_]}

    @classmethod
    def from_state(cls, state: dict, n_features: int | None = None) -> "TreeEnsemble":
        """Inverse of ``get_state``.

        Raises ValueError unless there is a tree, every tree has the model's
        classes and one shared feature count (``n_features`` when given),
        every threshold is finite, and every leaf holds nonnegative class
        counts, not all zero.
        """
        est = super().from_state(state)
        trees = [TreeModel.from_dict(d) for d in state["trees"]]
        if not trees:
            raise ValueError("the tree list is empty")
        expected = (est.classes_.size,
                    trees[0].n_features if n_features is None else n_features)
        shapes = {(t.n_classes, t.n_features) for t in trees}
        if shapes != {expected}:
            raise ValueError(f"trees have (n_classes, n_features) {sorted(shapes)}, "
                             f"expected {expected}")
        finite_floats(np.concatenate([t.threshold for t in trees]), "a tree threshold")
        counts = np.concatenate([t.counts for t in trees])
        # Internal nodes hold zero counts, and a tree of n nodes has (n + 1) // 2
        # leaves, so every leaf holds some counts iff that many rows do.
        leaves = sum((t.counts.shape[0] + 1) // 2 for t in trees)
        if counts.min() < 0 or np.count_nonzero(counts.any(axis=1)) < leaves:
            raise ValueError("a leaf has negative or all-zero class counts")
        est.trees_, est.stack_, est.n_features_ = trees, TreeStack(trees), expected[1]
        return est


class DecisionTree(TreeEnsemble):
    """Single Gini decision tree: the ensemble of one tree on every row.

    Its artifact holds the tree under ``tree`` rather than a one-tree list.
    """

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
        return self.grow(A, y_idx, classes, [whole_sample(A.shape[0])],
                         [resolve_seed(self.seed)])

    def predict_proba(self, X) -> np.ndarray:
        return self.mean_proba(self._check_predict_input(X))

    def get_state(self) -> dict:
        state = super().get_state()
        [state["tree"]] = state.pop("trees")
        return state

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        return super().from_state({**state, "trees": [state["tree"]]})
