"""Greedy Gini decision tree with exact, deterministic split selection.

Split search scores candidates in vectorized float arithmetic and settles
near-ties in exact integer arithmetic, so the chosen split is a pure function
of the node's sample multiset: independent of row order, summation order, and
platform rounding.  Thresholds are midpoints between consecutive distinct
sorted values of a feature; ties between equally good splits go to the lowest
feature index, then the lowest threshold.  With ``min_samples_leaf`` 1 the
search skips the cuts inside runs of one class, which cannot win.

Trees grow breadth first, all trees of a fit together, their nodes numbered in
level order.  Each level's searched nodes are split in blocks over one buffer
of their samples, and only the children searched next are copied to the next.

Every random draw is a counter-based hash (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011), ``derive_seed`` of integers.  Stream
0 under a tree's 64-bit key is its bootstrap, if it has one
(``forest.bootstrap``), and stream 1 + o is the o-th node it searches in
level order: that node's candidates are the k features f with the smallest
``derive_seed(derive_seed(key, 1 + o), f)``, distinct hashes since the mix is
a bijection, so a uniform k-subset.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..core import (FLAG, SEED, Estimator, check_fit_inputs, finite_floats, integer,
                    resolve_seed, splitmix64)
from ..errors import InfbenchError


def resolve_feature_count(max_features, n_features: int) -> int:
    """Number of candidate features per node: None=all, 'sqrt', or a fixed int."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(math.isqrt(n_features)))
    if max_features > n_features:
        raise InfbenchError(f"max_features={max_features} outside [1, {n_features}]")
    return max_features


def node_features(node_keys: np.ndarray, n_features: int, k: int) -> np.ndarray:
    """Each node's k candidate features, ascending, shape (nodes, k): the k
    features f with the smallest ``splitmix64(node key, f)``, for 1 <= k < n.

    The (node, feature) hashes are made in chunks of about ``BLOCK_PAIRS``.
    """
    feats = np.empty((node_keys.size, k), dtype=np.int64)
    step = max(1, BLOCK_PAIRS // n_features)
    for a in range(0, node_keys.size, step):
        h = splitmix64(node_keys[a:a + step, None], np.arange(n_features))
        feats[a:a + step] = np.sort(np.argpartition(h, k - 1, axis=1)[:, :k], axis=1)
    return feats


def _kept_cuts(key, y_sorted, ends, min_samples_leaf: int) -> np.ndarray:
    """The cuts ``_search_nodes`` scores, (k, n - 1): cut i parts positions i
    and i + 1 of each candidate's sorted keys (node, then value rank) and
    classes ``y_sorted``; ``ends`` are the nodes' ends."""
    cut = key[:, 1:] != key[:, :-1]
    if min_samples_leaf == 1:
        inside = y_sorted[:, 1:] == y_sorted[:, :-1]
        inside[:, 1:] &= cut[:, :-1]
        inside[:, :-1] &= cut[:, 1:]
        cut &= ~inside
    cut[:, ends[:-1] - 1] = False
    return cut


def _search_nodes(X, ranks, y_idx, sample, sizes, total, feats, min_samples_leaf: int):
    """Best split of each node of a block, scored together in one segmented
    search.

    ``sample`` holds the nodes' samples end to end, each as ``grow_trees``
    takes it: node i's is the next ``sizes[i]`` columns, of class counts
    ``total[i]``.  Row i of ``feats`` holds node i's ascending candidate
    columns, as many for every node.  ``ranks[f, r]`` is the dense rank of
    ``X[r, f]`` among column f's distinct values.  Returns ``(node, feature,
    threshold, order, child_sizes, child_counts)`` for the nodes that split,
    in ascending order of node: ``order`` lists the columns of ``sample`` of
    their children, each left child before its right sibling, and
    ``child_sizes`` and ``child_counts`` hold each child's number of distinct
    rows and its class counts.

    Minimizing weighted child Gini is equivalent to maximizing
    q = sum(left_counts^2)/n_l + sum(right_counts^2)/n_r, a ratio of small
    integers, where counts and sizes add up multiplicities.  q is scored only
    at the boundaries between a node's distinct values of a column, the only
    places a threshold can split, less those inside a run of one class: the
    cuts between two one-row value groups of one class.  Along such a run q
    is strictly convex in an impure node, so a cut inside it scores below the
    better end of the run (Fayyad & Irani, Machine Learning 8, 1992).  That
    end is always admissible when ``min_samples_leaf`` is 1; a larger minimum
    can bar it, so then every boundary is scored.  Floats pre-select
    near-maximal candidates, then exact integer cross-multiplication picks
    the true maximum and applies tie-breaking, and the positive-gain test
    (q > sum(counts^2)/n) is exact as well.
    """
    n, n_classes = sample.shape[1], total.shape[1]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)  # each row's node
    rows, mult = sample
    # each row's class counts: its multiplicity, in its class's column
    counts = np.zeros((n, n_classes), dtype=np.int64)
    y_row = y_idx[rows]
    counts[np.arange(n), y_row] = mult
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
    # the kept cuts, listed by column, then by position: the order of the tie-break
    bj, bp = np.nonzero(_kept_cuts(key, y_row[pos], ends, min_samples_leaf))
    del key
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
    # each winner's positions in the order of its winning column j, winner
    # after winner: the run of pos.ravel() from j * n + start, whose first
    # p - start + 1 are its left child and the rest its right
    size = sizes[w]
    n_left = p - starts[w] + 1
    run = np.repeat(j * n + starts[w] - np.cumsum(size) + size, size) + np.arange(size.sum())
    return (w, feature, threshold, pos.ravel()[run],
            np.stack([n_left, size - n_left], axis=1).ravel(),
            np.stack([left[b], right[b]], axis=1).reshape(-1, n_classes))


def whole_samples(n_rows: int, n_trees: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``n_trees`` samples of every row drawn once, and their sizes, as
    ``grow_trees`` takes them."""
    sample = np.stack([np.arange(n_rows, dtype=np.int32), np.ones(n_rows, np.int32)])
    return np.tile(sample, n_trees), np.full(n_trees, n_rows)


def column_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of each value of X among its column's distinct values,
    shape (features, rows): equal values share a rank, and ranks follow the
    values' order."""
    return np.array([np.unique(column, return_inverse=True)[1] for column in X.T])


def descend(nodes, X: np.ndarray) -> np.ndarray:
    """Leaf reached by every row of X in every tree of ``nodes``, shape (trees, n).

    ``nodes`` holds node arrays (``feature``, ``left``, ``bound``), the index
    of each tree's root in ``roots``, and ``depth``, the longest root-to-leaf
    path.  The (tree, row) pairs form one tree-major vector, tree t and row r
    at ``t * n + r``, and each carries its row's offset into ``X.ravel()``.
    Each step moves every pair still moving one level down with one
    comparison and one gather, ``left + (x[feature] > bound)``: for finite X
    the right child exactly where ``x[feature] <= threshold`` fails, and a
    leaf's own index, as its bound is +inf.  After a step where at least half
    the live pairs stayed put, and more pairs are live than the table has
    trees, the settled pairs are written out and dropped (stream compaction).
    Each compaction at least halves the live pairs, and none starts once one
    row's worth is left, so a descent compacts at most ceil(log2(n)) times
    and a single row never does.  The descent ends after ``depth`` steps, or
    as soon as a step moves no pair.
    """
    n, f = X.shape
    trees = len(nodes.roots)
    flat = X.ravel()
    node = np.repeat(nodes.roots, n)
    at = np.tile(np.arange(n) * f, trees)
    pair = np.arange(node.size)
    leaves = np.empty(node.size, dtype=np.int64)
    for _ in range(nodes.depth):
        below = nodes.left[node]
        below += flat[at + nodes.feature[node]] > nodes.bound[node]
        moving = below != node
        live = np.count_nonzero(moving)
        if not live:
            break
        node = below
        if 2 * live <= node.size and node.size > trees:
            leaves[pair] = node  # the moving pairs' entries are written again later
            keep = np.flatnonzero(moving)
            pair, node, at = pair[keep], node[keep], at[keep]
    leaves[pair] = node
    return leaves.reshape(trees, n)


# (tree, row) pairs per block of ``descend_blocks``, (distinct row,
# candidate, class) triples per block of ``_search_nodes``, and the hashes
# per chunk of ``node_features`` and ``forest.bootstrap``: their working
# arrays stay within a few hundred kilobytes each, whatever the input size.
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


class NodeTable:
    """Fitted trees as parallel node arrays laid end to end, descended together.

    Tree t's nodes are ``roots[t]`` up to the next root, in its level order:
    by depth, then left to right.  An internal node routes a row left iff
    ``x[feature] <= threshold``; its left child is node ``left`` and its right
    child, the derived ``right``, the next one.  A leaf has ``left`` equal to
    its own index and holds the class counts of its training rows in
    ``counts`` (internal nodes hold zeros there).  ``depths`` holds each
    tree's longest root-to-leaf path and ``depth`` the largest.  ``bound``,
    ``proba`` and ``vote`` hold each node's threshold (+inf at a leaf), class
    distribution and argmax, for ``descend`` and for one-gather outputs.
    ``to_dicts`` and ``from_dicts`` are the tree codec: each writes or reads
    the whole table in one pass, as the nested trees an artifact holds.
    """

    def __init__(self, feature, threshold, left, counts, roots, depths, n_features: int):
        self.feature = np.asarray(feature, np.int64)
        self.threshold = np.asarray(threshold, np.float64)
        self.left = np.asarray(left, np.int64)
        self.counts = np.asarray(counts, np.int64).reshape(self.left.size, -1)
        self.roots, self.depths = np.asarray(roots, np.int64), np.asarray(depths, np.int64)
        self.depth = int(self.depths.max())
        self.n_classes, self.n_features = self.counts.shape[1], n_features

    @property
    def right(self) -> np.ndarray:
        return self.left + (self.left != np.arange(self.left.size))

    @cached_property
    def bound(self) -> np.ndarray:
        return np.where(self.left == np.arange(self.left.size), np.inf, self.threshold)

    @cached_property
    def proba(self) -> np.ndarray:
        total = self.counts.sum(axis=1, keepdims=True)
        # internal nodes hold zero counts; their 0/0 is never computed
        return np.divide(self.counts, total, where=total > 0, out=np.zeros(self.counts.shape))

    @cached_property
    def vote(self) -> np.ndarray:
        return np.argmax(self.counts, axis=1)

    @classmethod
    def from_dicts(cls, trees: list, n_classes: int, n_features: int) -> "NodeTable":
        """The table of trees in ``to_dicts`` form, each of
        ``n_classes`` and ``n_features``; raises ValueError on a malformed tree."""
        feature, threshold, left, counts, roots, depths = [], [], [], [], [], []
        zeros = [0] * n_classes
        for d in trees:
            shape = (int(d["n_classes"]), int(d["n_features"]))
            if shape != (n_classes, n_features):
                raise ValueError(f"a tree has (n_classes, n_features) {shape}, "
                                 f"expected {(n_classes, n_features)}")
            root = len(left)
            # a queue in level order: the tree's nodes listed so far, and their depths
            nodes, level = [d["root"]], [0]
            for i, node in enumerate(nodes):
                if "counts" in node:
                    c = node["counts"]
                    if len(c) != n_classes:
                        raise ValueError(f"leaf has {len(c)} counts, expected "
                                         f"n_classes={n_classes}")
                    feature.append(0)
                    threshold.append(0.0)
                    left.append(root + i)
                    counts += c
                    continue
                if level[i] >= MAX_SAVED_DEPTH:
                    raise ValueError(f"tree is deeper than {MAX_SAVED_DEPTH} levels")
                if not 0 <= node["feature"] < n_features:
                    raise ValueError(f"split feature {node['feature']} outside [0, {n_features})")
                feature.append(node["feature"])
                threshold.append(node["threshold"])
                left.append(root + len(nodes))
                counts += zeros
                nodes += node["left"], node["right"]
                level += level[i] + 1, level[i] + 1
            roots.append(root)
            depths.append(level[-1])
        feature, threshold, counts = map(np.asarray, (feature, threshold, counts))
        if feature.dtype.kind != "i" or threshold.dtype.kind != "f":
            raise ValueError(f"split features must be integers and thresholds floats, "
                             f"got {feature.dtype} and {threshold.dtype}")
        if counts.dtype.kind != "i" or counts.ndim != 1:
            raise ValueError("leaf counts must be integers")
        return cls(feature, threshold, left, counts, roots, depths, n_features)

    def to_dicts(self) -> list:
        """Each tree as ``{n_classes, n_features, root}``, its nodes nested as
        ``{feature, threshold, left, right}`` at a split and ``{counts}`` at a
        leaf: the form ``from_dicts`` reads back."""
        left = self.left.tolist()
        nodes = zip(self.feature.tolist(), self.threshold.tolist(), left, self.counts.tolist())
        node = [{"counts": c} if j == i else {"feature": f, "threshold": t}
                for i, (f, t, j, c) in enumerate(nodes)]
        for i, j in enumerate(left):
            if j != i:
                node[i]["left"], node[i]["right"] = node[j], node[j + 1]
        return [{"n_classes": self.n_classes, "n_features": self.n_features, "root": node[r]}
                for r in self.roots.tolist()]

    def trees(self) -> list:
        """Each tree as its own ``TreeModel``, numbered from its root."""
        ends = np.append(self.roots[1:], self.left.size).tolist()
        return [TreeModel(self.feature[a:b], self.threshold[a:b], self.left[a:b] - a,
                          self.counts[a:b], [0], [d], self.n_features)
                for a, b, d in zip(self.roots.tolist(), ends, self.depths.tolist())]


class TreeModel(NodeTable):
    """One fitted tree: a node table whose one root is node 0."""

    def distribution(self, X: np.ndarray) -> np.ndarray:
        return self.proba[descend(self, X)[0]]

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        # the leaf's vote, its first argmax: ties go to the lowest class index
        return self.vote[descend(self, X)[0]]

    def to_dict(self) -> dict:
        """The tree in the nested form of ``NodeTable.to_dicts``."""
        return self.to_dicts()[0]


def tree_params(est) -> dict:
    """The tree-shape hyperparameters of ``est``, as ``grow_trees`` keywords."""
    names = ("max_depth", "min_samples_split", "min_samples_leaf", "max_features")
    return {name: getattr(est, name) for name in names}


def grow_trees(X: np.ndarray, y_idx: np.ndarray, n_classes: int, sample: np.ndarray,
               sizes: np.ndarray, keys: np.ndarray | None, *, max_depth: int | None = None,
               min_samples_split: int = 2, min_samples_leaf: int = 1,
               max_features=None) -> NodeTable:
    """Grow one tree per entry of ``sizes`` by greedy splitting, one depth
    level at a time, and return their ``NodeTable``.

    ``sample`` is a (2, d) int32 array of distinct row indices of X over how
    many times each is drawn, tree after tree: tree t's sample is the next
    ``sizes[t]`` (int64) columns.  The tree is the one grown on the materialized
    copy ``X[np.repeat(*sample)]``: node sizes, class counts and the split
    criteria all add up multiplicities.

    At each node the candidate features are ``node_features`` of stream
    1 + o under the tree's entry of the uint64 array ``keys``, for the o-th
    node the tree searches in level order: by depth, then left to right.
    With all features as candidates no key is read, and ``keys`` may be None.
    A node becomes a leaf at ``max_depth``, when pure, or when no admissible
    split reduces impurity.

    All trees grow together, and no tree sees another's nodes: each level's
    nodes, of every tree, are searched in blocks of at most ``BLOCK_PAIRS``
    (distinct row, candidate, class) triples, or of one node, per
    ``_search_nodes`` call, each a slice of the level's buffer of their
    samples.  ``sample`` is only read.
    """
    n_features, n_trees = X.shape[1], sizes.size
    k = resolve_feature_count(max_features, n_features)
    if k < n_features and keys is None:
        raise InfbenchError("feature subsampling requires tree keys")
    ranks = column_ranks(X)

    def to_search(counts, level):  # which nodes of these class counts are searched
        return ((counts.sum(axis=1) >= min_samples_split) & (np.count_nonzero(counts, axis=1) > 1)
                & (max_depth is None or level < max_depth))

    # The level: each node's tree and class counts, which nodes it searches,
    # and their sizes and samples, end to end in ``buf``; the next level's go
    # to ``spare``.  Nodes are numbered across all trees in the order they are made.
    tree = np.arange(n_trees)
    counts = np.bincount(np.repeat(tree * n_classes, sizes) + y_idx[sample[0]],
                         weights=sample[1], minlength=n_trees * n_classes)
    counts = counts.astype(np.int64).reshape(n_trees, n_classes)
    search = to_search(counts, 0)
    buf = sample.compress(np.repeat(search, sizes), axis=1)
    spare, sizes = np.empty_like(buf), sizes[search]
    searched = np.zeros(n_trees, dtype=np.int64)  # each tree's searched nodes so far
    depth = np.zeros(n_trees, dtype=np.int64)
    levels = []  # per level: each node's tree, feature, threshold, left child, counts
    first, level = 0, 0  # number of the level's first node; its depth
    while tree.size:
        depth[tree] = level
        feature, threshold = np.zeros(tree.size, np.int64), np.zeros(tree.size)
        left = np.arange(first, first + tree.size)  # a leaf points to itself
        search = np.flatnonzero(search)
        if k < n_features:
            # a level's trees are nondecreasing, so a searched node's ordinal
            # in its tree is the tree's count so far plus its place in the run
            ts = tree[search]
            ordinal = searched[ts] + np.arange(ts.size) - np.searchsorted(ts, ts)
            searched += np.bincount(ts, minlength=n_trees)
            feats = node_features(splitmix64(keys[ts], ordinal + 1), n_features, k)
        else:
            feats = np.broadcast_to(np.arange(n_features), (search.size, n_features))
        ends = np.cumsum(sizes)
        # per block: its winners; their children's counts, which are searched, their sizes
        kids = [(search[:0], counts[:0], np.zeros(0, bool), sizes[:0])]
        a = fill = 0
        while a < search.size:
            # the longest run of nodes within BLOCK_PAIRS, or one node
            lo = ends[a - 1] if a else 0
            z = max(a + 1, np.searchsorted(ends, lo + BLOCK_PAIRS // (k * n_classes), "right"))
            block, part = search[a:z], buf[:, lo:ends[z - 1]]
            w, f, thr, order, child_sizes, child_counts = _search_nodes(
                X, ranks, y_idx, part, sizes[a:z], counts[block], feats[a:z], min_samples_leaf)
            feature[block[w]], threshold[block[w]] = f, thr
            kept = to_search(child_counts, level + 1)
            at = order[np.repeat(kept, child_sizes)]
            spare[:, fill:fill + at.size] = part.take(at, axis=1)
            fill += at.size
            kids.append((block[w], child_counts, kept, child_sizes[kept]))
            a = z
        won, kid_counts, kept, kid_sizes = map(np.concatenate, zip(*kids))
        left[won] = first + tree.size + 2 * np.arange(won.size)
        counts[won] = 0
        levels.append((tree, feature, threshold, left, counts))
        first += tree.size
        level += 1
        tree, counts, search, sizes = np.repeat(tree[won], 2), kid_counts, kept, kid_sizes
        buf, spare = spare[:, :fill], buf

    # group the nodes by tree, keeping each tree's level order
    tree, feature, threshold, left, counts = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    moved = np.empty_like(order)
    moved[order] = np.arange(order.size)
    n_nodes = np.bincount(tree, minlength=n_trees)
    return NodeTable(feature[order], threshold[order], moved[left[order]], counts[order],
                     np.cumsum(n_nodes) - n_nodes, depth, n_features)


def grow_tree(X: np.ndarray, y_idx: np.ndarray, n_classes: int, *,
              key: int | None = None, **params) -> TreeModel:
    """One tree on every row of X: the one tree of ``grow_trees``, with the
    integer ``key`` as its key."""
    keys = None if key is None else np.array([key], dtype=np.uint64)
    return grow_trees(X, y_idx, n_classes, *whole_samples(X.shape[0]), keys,
                      **params).trees()[0]


class TreeEnsemble(Estimator):
    """Gini trees grown together by ``grow_trees`` and read as one ``NodeTable``.

    A subclass's ``fit`` chooses its trees' samples and keys and hands them
    to ``grow``.  A subclass with probabilities defines ``predict_proba``
    through ``mean_proba``, and ``predict`` takes its first argmax, i.e. ties
    go to the lowest class index.  The other tree models take part of ``rules``.
    """

    rules = {"n_estimators": integer(1), "max_depth": integer(0, None),
             "min_samples_split": integer(2), "min_samples_leaf": integer(1),
             "max_features": integer(1, None, "sqrt"), "bootstrap": FLAG, "seed": SEED}

    def tree_keys(self, n_trees: int) -> np.ndarray:
        """Tree i's key, ``derive_seed(seed, i)``, for each of ``n_trees`` trees."""
        return splitmix64(resolve_seed(self.seed), np.arange(n_trees))

    def grow(self, X, y_idx, classes, sample, sizes, keys) -> "TreeEnsemble":
        """Grow the trees of ``sample``, ``sizes`` and ``keys`` on X, as
        ``grow_trees`` takes them."""
        self.table_ = grow_trees(X, y_idx, classes.size, sample, sizes, keys,
                                 **tree_params(self))
        self.n_features_ = X.shape[1]
        self.classes_ = classes
        return self

    @property
    def trees_(self) -> list:
        """Each tree as its own ``TreeModel``, sliced out of the table."""
        return self.table_.trees()

    def mean_proba(self, A: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf distributions for each row of A."""
        total = np.empty((A.shape[0], self.classes_.size))
        for rows, leaves in descend_blocks(self.table_, A):
            # A running sum over the tree axis adds the leaf distributions in
            # tree order, so the mean is the same float sum tree by tree.
            total[rows] = np.cumsum(self.table_.proba[leaves], axis=0)[-1]
        return total / self.table_.roots.size

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_.decode(np.argmax(proba, axis=1).astype(np.int64))

    def get_state(self) -> dict:
        state = super().get_state()
        if self.table_.depth > MAX_SAVED_DEPTH:
            raise InfbenchError(
                f"cannot save {self.kind}: it has a tree of depth {self.table_.depth}, "
                f"and an artifact holds trees of depth {MAX_SAVED_DEPTH} at most"
            )
        return {**state, "trees": self.table_.to_dicts()}

    @classmethod
    def from_state(cls, state: dict, n_features: int | None = None) -> "TreeEnsemble":
        """Inverse of ``get_state``.

        Raises ValueError unless there is a tree, every tree has the model's
        classes and one shared feature count (``n_features`` when given),
        every threshold is finite, and every leaf holds nonnegative class
        counts, not all zero.
        """
        est = super().from_state(state)
        if not state["trees"]:
            raise ValueError("the tree list is empty")
        if n_features is None:
            n_features = int(state["trees"][0]["n_features"])
        table = NodeTable.from_dicts(state["trees"], est.classes_.size, n_features)
        finite_floats(table.threshold, "a tree threshold")
        leaf = table.left == np.arange(table.left.size)
        if table.counts.min() < 0 or not table.counts[leaf].any(axis=1).all():
            raise ValueError("a leaf has negative or all-zero class counts")
        est.table_, est.n_features_ = table, n_features
        return est


class DecisionTree(TreeEnsemble):
    """Single Gini decision tree: the ensemble of one tree on every row.

    Its artifact holds the tree under ``tree`` rather than a one-tree list.
    """

    kind = "decision_tree"
    rules = {k: rule for k, rule in TreeEnsemble.rules.items()
             if k not in ("n_estimators", "bootstrap")}

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 seed: int | None = None):
        self.set_hyperparams(locals())

    def fit(self, X, y) -> "DecisionTree":
        A, y_idx, classes = check_fit_inputs(X, y)
        return self.grow(A, y_idx, classes, *whole_samples(A.shape[0]), self.tree_keys(1))

    def predict_proba(self, X) -> np.ndarray:
        return self.mean_proba(self._check_predict_input(X))

    def get_state(self) -> dict:
        state = super().get_state()
        [state["tree"]] = state.pop("trees")
        return state

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        return super().from_state({**state, "trees": [state["tree"]]})
