"""Decision tree tests, including the exact brute-force split oracle."""

import json
from collections import Counter, deque
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infbench.baselearners import DecisionTree, RandomForest
from infbench.baselearners import forest as forest_module
from infbench.baselearners import tree as tree_module
from infbench.baselearners.tree import NodeTable, descend, descend_blocks, grow_tree, node_features
from infbench.core import derive_seed, encode_labels, splitmix64
from infbench.errors import InfbenchError, NotFitted


def root_split(X, y, n_classes, **params):
    """(feature, threshold) of the root of a depth-1 tree on (X, y), or None
    when the root is a leaf."""
    tree = grow_tree(X, y, n_classes, max_depth=1, **params)
    if tree.left[0] == 0:
        return None
    return int(tree.feature[0]), float(tree.threshold[0])


def test_best_split_frozen_example():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    assert root_split(X, y, 2) == (0, 1.5)


def test_best_split_identical_rows():
    X = np.zeros((5, 2))
    y = np.array([0, 1, 0, 1, 0])
    assert root_split(X, y, 2) is None


def test_best_split_pure_node():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    y = np.array([1, 1, 1, 1, 1, 1])
    assert root_split(X, y, 2) is None


def test_best_split_min_samples_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    # only the 0.5 midpoint separates, but it leaves 1 < 2 rows on the left
    got = root_split(X, y, 2, min_samples_leaf=2)
    if got is not None:
        feature, threshold = got
        mask = X[:, 0] <= threshold
        assert mask.sum() >= 2 and (~mask).sum() >= 2


# --- brute-force oracle -----------------------------------------------------

def oracle_best_split(X, y, n_classes, min_samples_leaf=1):
    """Exhaustive split search in exact rational arithmetic.

    Minimizes weighted child Gini; ties break to the lowest feature index,
    then the lowest threshold. Returns (feature, threshold) or None.
    """
    n, f = X.shape
    best = None  # (weighted_gini: Fraction, feature, threshold)
    for j in range(f):
        vals = sorted(set(X[:, j].tolist()))
        for a, b in zip(vals, vals[1:]):
            thr = (a + b) / 2.0
            if thr >= b:
                thr = a
            left = [i for i in range(n) if X[i, j] <= thr]
            right = [i for i in range(n) if X[i, j] > thr]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            wg = Fraction(0)
            for side in (left, right):
                counts = Counter(int(y[i]) for i in side)
                sq = sum(Fraction(c, 1) ** 2 for c in counts.values())
                wg += Fraction(len(side), n) * (1 - sq / len(side) ** 2)
            key = (wg, j, thr)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    parent = Counter(int(v) for v in y)
    parent_sq = sum(Fraction(c, 1) ** 2 for c in parent.values())
    parent_gini = 1 - parent_sq / n ** 2
    if best[0] >= parent_gini:
        return None
    return best[1], best[2]


class OracleLeafTree:
    def __init__(self, counts):
        self.counts = counts

    def predict(self, X):
        return np.full(len(X), int(np.argmax(self.counts)))


class OracleSplitTree:
    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def predict(self, X):
        out = np.empty(len(X), dtype=np.int64)
        mask = X[:, self.feature] <= self.threshold
        if mask.any():
            out[mask] = self.left.predict(X[mask])
        if (~mask).any():
            out[~mask] = self.right.predict(X[~mask])
        return out


def oracle_grow(X, y, n_classes, max_depth, depth=0):
    counts = np.bincount(y, minlength=n_classes)
    if depth >= max_depth or len(y) < 2 or (counts > 0).sum() <= 1:
        return OracleLeafTree(counts)
    found = oracle_best_split(X, y, n_classes)
    if found is None:
        return OracleLeafTree(counts)
    j, thr = found
    mask = X[:, j] <= thr
    return OracleSplitTree(
        j, thr,
        oracle_grow(X[mask], y[mask], n_classes, max_depth, depth + 1),
        oracle_grow(X[~mask], y[~mask], n_classes, max_depth, depth + 1),
    )


def random_case(rng):
    n = int(rng.integers(4, 21))
    f = int(rng.integers(1, 4))
    n_classes = int(rng.integers(2, 4))
    if rng.random() < 0.5:
        # small integer grids force duplicate values and exact score ties
        X = rng.integers(0, 4, (n, f)).astype(np.float64)
    else:
        X = np.round(rng.normal(0, 1, (n, f)), 2)
    y = rng.integers(0, n_classes, n)
    while len(np.unique(y)) < 2:
        y = rng.integers(0, n_classes, n)
    return X, y.astype(np.int64), n_classes


def test_split_matches_oracle_sampled():
    rng = np.random.default_rng(77)
    for _ in range(60):
        X, y, n_classes = random_case(rng)
        assert root_split(X, y, n_classes) == oracle_best_split(X, y, n_classes)


def test_tree_predictions_match_oracle_sampled():
    rng = np.random.default_rng(78)
    for _ in range(40):
        X, y, n_classes = random_case(rng)
        depth = int(rng.integers(1, 3))
        model = grow_tree(X, y, n_classes, max_depth=depth)
        want = oracle_grow(X, y, n_classes, depth).predict(X)
        assert model.predict_idx(X).tolist() == want.tolist()


# --- estimator-level behavior -------------------------------------------------

def test_unbounded_tree_memorizes(blobs2):
    X, y = blobs2
    tree = DecisionTree(seed=0).fit(X, y)
    assert (tree.predict(X) == y).all()


def test_max_depth_zero_majority():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array(["a"] * 7 + ["b"] * 3, dtype=object)
    tree = DecisionTree(max_depth=0, seed=0).fit(X, y)
    assert (tree.predict(X) == "a").all()


def test_monotone_capacity(blobs3):
    X, y = blobs3
    prev = 0.0
    for depth in (1, 2, 3, 5, 8):
        tree = DecisionTree(max_depth=depth, seed=3).fit(X, y)
        acc = float(np.mean(tree.predict(X) == y))
        assert acc >= prev - 1e-12
        prev = acc


def test_row_permutation_invariance():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 5, (40, 3)).astype(float)
    y = rng.integers(0, 3, 40)
    a = DecisionTree(seed=1).fit(X, y)
    perm = rng.permutation(40)
    b = DecisionTree(seed=1).fit(X[perm], y[perm])
    probe = rng.integers(0, 5, (30, 3)).astype(float)
    assert a.predict(probe).tolist() == b.predict(probe).tolist()


def test_determinism_same_seed(blobs3):
    X, y = blobs3
    a = DecisionTree(max_features="sqrt", seed=9).fit(X, y)
    b = DecisionTree(max_features="sqrt", seed=9).fit(X, y)
    assert a.predict(X).tolist() == b.predict(X).tolist()


def test_more_candidate_features_than_features_is_refused():
    X, y = np.arange(8.0).reshape(4, 2), ["a", "b", "a", "b"]
    with pytest.raises(InfbenchError, match=r"max_features=5 outside \[1, 2\]"):
        DecisionTree(max_features=5).fit(X, y)


def test_feature_subsampling_needs_a_tree_key():
    X, y = np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])
    with pytest.raises(InfbenchError, match="requires tree keys"):
        grow_tree(X, y, 2, max_features=1)
    assert grow_tree(X, y, 2, max_features=1, key=7).n_features == 2


def test_proba_distribution():
    X = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.array(["a", "a", "a", "b", "b", "b", "b", "b"], dtype=object)
    tree = DecisionTree(max_depth=0, seed=0).fit(X, y)
    proba = tree.predict_proba(X)
    assert proba.shape == (8, 2)
    assert np.allclose(proba[0], [3 / 8, 5 / 8])


def test_predict_before_fit():
    with pytest.raises(NotFitted):
        DecisionTree().predict(np.ones((2, 2)))


def test_state_roundtrip(blobs3):
    X, y = blobs3
    tree = DecisionTree(max_depth=4, seed=2).fit(X, y)
    clone = DecisionTree.from_state(tree.get_state())
    assert clone.predict(X).tolist() == tree.predict(X).tolist()
    assert np.array_equal(clone.predict_proba(X), tree.predict_proba(X))


# -- hashed feature draws ---------------------------------------------------------

@given(st.integers(0, 2**64 - 1), st.integers(2, 300), st.data())
@settings(max_examples=60, deadline=None)
def test_every_subset_is_sorted_distinct_and_in_range(seed, n, data):
    k = data.draw(st.integers(1, n - 1))
    nodes = data.draw(st.integers(1, 40))
    feats = node_features(splitmix64(seed, np.arange(nodes)), n, k)
    assert feats.shape == (nodes, k) and feats.dtype == np.int64
    assert (np.diff(feats, axis=1) > 0).all()
    assert feats.min() >= 0 and feats.max() < n


@pytest.mark.parametrize("n, k", [(2, 1), (5, 4), (9, 3), (40, 6)])
def test_each_feature_is_drawn_at_rate_k_over_n(n, k):
    # each node's subset is independent, so a feature's inclusions over m
    # nodes are binomial(m, k / n); allow five standard deviations
    m, p = 20000, k / n
    feats = node_features(splitmix64(1609, np.arange(m)), n, k)
    drawn = np.bincount(feats.ravel(), minlength=n)
    assert np.abs(drawn - m * p).max() <= 5 * np.sqrt(m * p * (1 - p))


def test_subsets_are_the_smallest_hashes_in_any_chunking(monkeypatch):
    keys = splitmix64(77, np.arange(50))
    want = [sorted(sorted(range(12), key=lambda f: derive_seed(int(key), f))[:4])
            for key in keys]
    assert node_features(keys, 12, 4).tolist() == want
    monkeypatch.setattr(tree_module, "BLOCK_PAIRS", 1)
    assert node_features(keys, 12, 4).tolist() == want


# -- the segmented search's children ---------------------------------------------

# 1 + 2**-52 and 1 + 2**-51 are adjacent floats whose midpoint rounds onto
# the upper one, so the threshold must fall back to the lower one
ADJACENT = np.array([[1.0 + 2**-52, 0.0], [1.0 + 2**-51, 0.0], [3.0, 1.0]])


@st.composite
def search_case(draw):
    """A small table with coarse values, several node samples of distinct
    rows (in any order) with multiplicities, and one candidate count.  Two
    values are adjacent floats, as in ``ADJACENT``."""
    n = draw(st.integers(2, 30))
    f = draw(st.integers(1, 4))
    C = draw(st.integers(2, 3))
    values = [-1.5, 0.0, 0.25, 1.0 + 2**-52, 1.0 + 2**-51, 3.0]
    X = np.array(draw(st.lists(st.lists(st.sampled_from(values), min_size=f, max_size=f),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)))
    k = draw(st.integers(1, f))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        mult = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
        feats = draw(st.lists(st.integers(0, f - 1), min_size=k, max_size=k, unique=True))
        nodes.append((np.array([rows, mult], dtype=np.int32), np.sort(feats)))
    return X, y, C, nodes, draw(st.integers(1, 3))


def as_multiset(sample) -> list:
    return sorted(map(tuple, sample.T.tolist()))


def search(X, ranks, y, C, nodes, min_samples_leaf):
    """``_search_nodes`` on ``nodes``, a list of ``(sample, feats)``, laid end
    to end as ``grow_trees`` lays out a block, with each node's class counts.
    Returns ``(node, feature, threshold, children, child_sizes,
    child_counts)``: ``children`` holds the children's samples end to end,
    read out of the block at the columns the search returns."""
    block = np.hstack([sample for sample, _ in nodes])
    counts = np.array([np.bincount(y[rows], weights=mult, minlength=C)
                       for rows, mult in (sample for sample, _ in nodes)], dtype=np.int64)
    node, feature, threshold, order, sizes, child_counts = tree_module._search_nodes(
        X, ranks, y, block, np.array([sample.shape[1] for sample, _ in nodes]), counts,
        np.array([feats for _, feats in nodes]), min_samples_leaf)
    return node, feature, threshold, block[:, order], sizes, child_counts


@given(search_case())
@example((ADJACENT, np.array([0, 1, 1]), 2,
          [(np.array([[2, 0, 1], [1, 2, 1]], dtype=np.int32), np.array([0])),
           (np.array([[1, 0], [3, 1]], dtype=np.int32), np.array([0]))], 1))
@settings(max_examples=150, deadline=None)
def test_search_children_partition_their_parent(case):
    X, y, C, nodes, min_samples_leaf = case
    ranks = tree_module.column_ranks(X)
    node, feature, threshold, children, sizes, counts = search(X, ranks, y, C, nodes,
                                                               min_samples_leaf)
    assert node.tolist() == sorted(set(node.tolist()))
    assert sizes.size == counts.shape[0] == 2 * node.size
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    assert bounds[-1] == children.shape[1]
    for i, (sample, feats) in enumerate(nodes):
        alone = search(X, ranks, y, C, [(sample, feats)], min_samples_leaf)
        if i not in node:
            assert alone[0].size == 0
            continue
        r = node.tolist().index(i)
        left, right = (children[:, bounds[c]:bounds[c + 1]] for c in (2 * r, 2 * r + 1))
        assert feature[r] in feats.tolist()
        assert as_multiset(np.hstack([left, right])) == as_multiset(sample)
        for child, child_counts, side in ((left, counts[2 * r], np.less_equal),
                                          (right, counts[2 * r + 1], np.greater)):
            rows, mult = child
            want = np.bincount(y[rows], weights=mult, minlength=C).astype(np.int64)
            assert child_counts.tolist() == want.tolist()
            assert want.sum() >= min_samples_leaf
            assert side(X[rows, feature[r]], threshold[r]).all()
        a_node, a_feature, a_threshold, a_children, a_sizes, a_counts = alone
        assert a_node.tolist() == [0]
        assert (a_feature[0], a_threshold[0]) == (feature[r], threshold[r])
        assert np.array_equal(a_children, np.hstack([left, right]))
        assert a_sizes.tolist() == sizes[2 * r:2 * r + 2].tolist()
        assert np.array_equal(a_counts, counts[2 * r:2 * r + 2])


@st.composite
def run_case(draw):
    """A small table whose classes come in long runs along the rows, with
    features that follow the rows in steps of 0 (a tie) or 1, or are
    shuffled; one node's sample of distinct rows with multiplicities; and a
    leaf minimum."""
    runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 5)), min_size=1, max_size=5))
    y = np.repeat(*np.array(runs).T)
    n, f = y.size, draw(st.integers(1, 3))
    X = np.empty((n, f))
    for j in range(f):
        X[:, j] = np.cumsum(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if draw(st.booleans()):
            X[:, j] = X[draw(st.permutations(range(n))), j]
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    mult = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    return X, y, rows, mult, draw(st.integers(1, 3))


# A cut inside the b-run is the only one that leaves 3 rows a side; pruning it
# regardless of the leaf minimum would find no split.
@given(run_case())
@example((np.arange(6.0)[:, None], np.array([0, 0, 1, 1, 1, 1]), list(range(6)), [1] * 6, 3))
@settings(max_examples=200, deadline=None)
def test_search_matches_the_exhaustive_oracle(case):
    X, y, rows, mult, min_samples_leaf = case
    sample = np.array([rows, mult], dtype=np.int32)
    node, feature, threshold = search(X, tree_module.column_ranks(X), y, 3,
                                      [(sample, np.arange(X.shape[1]))], min_samples_leaf)[:3]
    got = (int(feature[0]), float(threshold[0])) if node.size else None
    drawn = np.repeat(rows, mult)
    assert got == oracle_best_split(X[drawn], y[drawn], 3, min_samples_leaf)


def kept(values, classes, ends, min_samples_leaf=1) -> list:
    """``_kept_cuts`` of one sorted candidate column."""
    return tree_module._kept_cuts(np.array([values]), np.array([classes]), np.array(ends),
                                  min_samples_leaf)[0].tolist()


def test_kept_cuts_skip_the_inside_of_one_class_runs():
    F, T = False, True
    # one cut, where the class changes
    assert kept([0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1], [6]) == [F, F, T, F, F]
    # the tied value 2 holds both classes: both of its sides are kept
    assert kept([0, 1, 2, 2, 3, 4], [0, 0, 0, 1, 1, 1], [6]) == [F, T, F, T, F]
    # a larger leaf minimum keeps every cut between distinct values
    assert kept([0, 1, 2, 2, 3, 4], [0, 0, 0, 1, 1, 1], [6], 2) == [T, T, F, T, T]
    # a node's end is never a cut; node 1's first row starts a value group
    assert kept([0, 1, 10, 11, 12], [0, 0, 0, 0, 1], [2, 5]) == [F, F, F, T]
    assert kept([0, 1, 10, 11, 12], [0, 0, 0, 0, 1], [2, 5], 2) == [T, F, T, T]


# -- level-order growth against a one-node-at-a-time reference ---------------------

def reference_subset(key: int, ordinal: int, F: int, k: int) -> np.ndarray:
    """The documented draw of a tree's ``ordinal``-th searched node, in
    Python integers: the k features with the smallest hash under the key's
    stream 1 + ordinal."""
    node_key = derive_seed(key, 1 + ordinal)
    return np.array(sorted(sorted(range(F), key=lambda f: derive_seed(node_key, f))[:k]))


def reference_tree(X, y, C, *, key=None, max_depth=None, min_samples_split=2,
                   min_samples_leaf=1, max_features=None):
    """One tree grown node by node from a queue: each node is searched by
    ``_search_nodes`` alone and, when searched, takes ``reference_subset`` of
    the next ordinal, so the ordinals go to the nodes in level order.
    Returns the node arrays, numbered in that order, and the depth."""
    F = X.shape[1]
    k = tree_module.resolve_feature_count(max_features, F)
    ordinal = 0
    ranks = tree_module.column_ranks(X)
    queue = deque([(tree_module.whole_samples(X.shape[0])[0], 0)])
    feature, threshold, left, right, counts, depth = [], [], [], [], [], 0
    while queue:
        sample, level = queue.popleft()
        i = len(feature)
        c = np.bincount(y[sample[0]], weights=sample[1], minlength=C).astype(np.int64)
        depth = max(depth, level)
        split = None
        if ((max_depth is None or level < max_depth) and c.sum() >= min_samples_split
                and np.count_nonzero(c) > 1):
            feats = np.arange(F) if k == F else reference_subset(key, ordinal, F, k)
            ordinal += 1
            split = search(X, ranks, y, C, [(sample, feats)], min_samples_leaf)
        if split is None or split[0].size == 0:
            feature.append(0)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
            counts.append(c)
            continue
        _, f, t, children, sizes, _ = split
        child = i + 1 + len(queue)  # numbered after every node already queued
        feature.append(int(f[0]))
        threshold.append(float(t[0]))
        left.append(child)
        right.append(child + 1)
        counts.append(np.zeros(C, dtype=np.int64))
        queue.append((children[:, :sizes[0]], level + 1))
        queue.append((children[:, sizes[0]:], level + 1))
    arrays = {"feature": np.array(feature, dtype=np.int64),
              "threshold": np.array(threshold, dtype=np.float64),
              "left": np.array(left, dtype=np.int64), "right": np.array(right, dtype=np.int64),
              "counts": np.array(counts, dtype=np.int64)}
    return arrays, depth


@st.composite
def growth_case(draw):
    """A small table with coarse values (duplicates and exact ties), a tree
    key, and tree settings."""
    n = draw(st.integers(2, 40))
    f = draw(st.integers(1, 6))
    C = draw(st.integers(2, 3))
    X = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=f, max_size=f),
                               min_size=n, max_size=n)), dtype=np.float64) / 2.0
    y = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)))
    params = {"max_features": draw(st.sampled_from(["sqrt", 1, None])),
              "max_depth": draw(st.sampled_from([None, 0, 1, 3])),
              "min_samples_split": draw(st.integers(2, 6)),
              "min_samples_leaf": draw(st.integers(1, 3))}
    return X, y, C, draw(st.integers(0, 2**64 - 1)), params


@given(growth_case())
@settings(max_examples=80, deadline=None)
def test_level_order_growth_matches_the_queue_reference(case):
    X, y, C, seed, params = case
    tree = grow_tree(X, y, C, key=seed, **params)
    want, depth = reference_tree(X, y, C, key=seed, **params)
    for name, array in want.items():
        got = getattr(tree, name)
        assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name
    assert tree.depth == depth


# -- the level buffers -------------------------------------------------------------

@pytest.mark.parametrize("bootstrap", [True, False])
def test_growth_only_reads_its_sample(blobs3, bootstrap):
    X, y = blobs3
    y_idx = encode_labels(y)[1]
    keys = splitmix64(9, np.arange(6))
    if bootstrap:
        sample, sizes = forest_module.bootstrap(keys, X.shape[0])
    else:
        sample, sizes = tree_module.whole_samples(X.shape[0], keys.size)
    before = sample.copy()
    table = tree_module.grow_trees(X, y_idx, 3, sample, sizes, keys, max_features=1)
    assert table.left.size > 3 * keys.size  # the trees split below their roots' children
    assert sample.tobytes() == before.tobytes()


class WriteLog(np.ndarray):
    """A sample array that logs every array written into it, or into an array
    made like it: the copies into the level buffers."""

    writes: list = []

    def __setitem__(self, key, value):
        WriteLog.writes.append(np.array(value))
        super().__setitem__(key, value)


def test_a_leaf_child_is_never_copied_to_the_next_level(monkeypatch):
    # The root splits at 3.5: its left child, rows 0-3, is pure, and its
    # right child, rows 4-7, splits at 5.5 into rows 4-5, which split again,
    # and the pure rows 6-7.
    X = np.arange(8.0)[:, None]
    y = np.array([0, 0, 0, 0, 1, 0, 1, 1])
    sample, sizes = tree_module.whole_samples(8)
    monkeypatch.setattr(WriteLog, "writes", [])
    table = tree_module.grow_trees(X, y, 2, sample.view(WriteLog), sizes, None)
    assert table.left.tolist() == [1, 1, 3, 5, 4, 5, 6]
    assert table.threshold[[0, 2, 3]].tolist() == [3.5, 5.5, 4.5]
    # only the children searched next were copied: rows 4-7, then rows 4-5
    assert [w.tolist() for w in WriteLog.writes if w.size] == [[[4, 5, 6, 7], [1, 1, 1, 1]],
                                                                [[4, 5], [1, 1]]]


# -- the descent against a node-by-node walk ---------------------------------------

# thresholds and row values share one set, so rows fall exactly on thresholds,
# and -0.0 meets 0.0 both ways
EDGE_VALUES = [-1.5, -0.0, 0.0, 0.25, 1.0]


@st.composite
def nested_tree(draw, n_features: int, depth: int) -> dict:
    """A tree in ``TreeModel.to_dict`` form, at most ``depth`` levels deep."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return {"counts": [draw(st.integers(0, 3)), 1]}
    return {"feature": draw(st.integers(0, n_features - 1)),
            "threshold": draw(st.sampled_from(EDGE_VALUES)),
            "left": draw(nested_tree(n_features, depth - 1)),
            "right": draw(nested_tree(n_features, depth - 1))}


@st.composite
def nested_trees(draw) -> tuple:
    """A feature count f, and one to five trees of f features from single
    leaves to 7 levels deep."""
    f = draw(st.integers(1, 3))
    return f, [{"n_classes": 2, "n_features": f,
                "root": draw(nested_tree(f, draw(st.sampled_from([0, 1, 3, 7]))))}
               for _ in range(draw(st.integers(1, 5)))]


@st.composite
def descent_case(draw):
    """Trees from ``nested_trees``, and rows over ``EDGE_VALUES``."""
    f, trees = draw(nested_trees())
    X = np.array(draw(st.lists(st.lists(st.sampled_from(EDGE_VALUES), min_size=f, max_size=f),
                               min_size=1, max_size=12)))
    return NodeTable.from_dicts(trees, 2, f), X


def walked_leaves(table, X) -> np.ndarray:
    """Leaf of each (tree, row) pair, one node at a time: left iff
    ``x[feature] <= threshold``."""
    left, right = table.left.tolist(), table.right.tolist()
    leaves = np.empty((table.roots.size, X.shape[0]), dtype=np.int64)
    for t, root in enumerate(table.roots.tolist()):
        for r, x in enumerate(X.tolist()):
            i = root
            while left[i] != i:
                i = left[i] if x[table.feature[i]] <= table.threshold[i] else right[i]
            leaves[t, r] = i
    return leaves


def right_chain(depth: int) -> dict:
    """A tree that splits at 0.0 ``depth`` times down its right side, each
    split with a leaf on its left."""
    node = {"counts": [1, 0]}
    for _ in range(depth):
        node = {"feature": 0, "threshold": 0.0, "left": {"counts": [0, 1]}, "right": node}
    return node


STUMP = {"feature": 0, "threshold": 0.5, "left": {"counts": [1, 0]},
         "right": {"counts": [0, 1]}}


def one_feature_table(*roots) -> NodeTable:
    return NodeTable.from_dicts([{"n_classes": 2, "n_features": 1, "root": root}
                                 for root in roots], 2, 1)


@given(descent_case())
@example((one_feature_table({"counts": [1, 1]}, right_chain(6)),
          np.array([[-0.0], [0.0], [1.0], [-1.5]])))
# 36 pairs: the four positive rows keep 8 moving after step 2 and 4 after
# step 4, so the descent compacts twice
@example((one_feature_table(STUMP, right_chain(6), right_chain(3)),
          np.array([[-1.5], [0.25], [-0.0], [0.0], [1.0], [-1.5],
                    [0.0], [0.25], [-0.0], [1.0], [-1.5], [0.0]])))
@settings(max_examples=150, deadline=None)
def test_descent_matches_the_node_walk(case):
    table, X = case
    want = walked_leaves(table, X)
    assert descend(table, X).tolist() == want.tolist()
    for pairs in (1, 3, tree_module.BLOCK_PAIRS):
        with mock.patch.object(tree_module, "BLOCK_PAIRS", pairs):
            got = np.full_like(want, -1)
            for rows, leaves in descend_blocks(table, X):
                got[:, rows] = leaves
        assert got.tolist() == want.tolist()


class CountingBound:
    """A node array that counts its gathers: one per descent step."""

    def __init__(self, array):
        self.array, self.reads = array, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.array[index]


def test_descent_stops_once_no_pair_moves():
    # Every row goes left at both roots, into a leaf at depth 1, though the
    # chain makes the table 6 levels deep: the first step moves every pair,
    # and the second, moving none, ends the descent.
    stump = {"feature": 0, "threshold": 0.5, "left": {"counts": [1, 0]},
             "right": {"counts": [0, 1]}}
    table = one_feature_table(stump, right_chain(6))
    X = np.array([[-1.5], [-0.0], [0.0]])
    spy = SimpleNamespace(feature=table.feature, left=table.left, roots=table.roots,
                          depth=table.depth, bound=CountingBound(table.bound))
    assert table.depth == 6
    assert descend(spy, X).tolist() == walked_leaves(table, X).tolist()
    assert spy.bound.reads == 2


def test_a_fitted_forest_descends_like_the_node_walk():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 4))
    y = (X[:, 0] * X[:, 1] > 0).astype(int) + (X[:, 2] > 1)
    table = RandomForest(n_estimators=20, seed=3).fit(X, y).table_
    assert table.depth > 5
    for n in (1, 2, 7, 300):
        want = walked_leaves(table, X[:n])
        assert descend(table, X[:n]).tolist() == want.tolist()
    # one row per block at 1 and 3 pairs, seven at 140
    for pairs in (1, 3, 140):
        with mock.patch.object(tree_module, "BLOCK_PAIRS", pairs):
            got = np.full_like(want, -1)
            for rows, leaves in descend_blocks(table, X):
                got[:, rows] = leaves
        assert got.tolist() == want.tolist()


class GatherSizes:
    """A node array that records the size of each gather."""

    def __init__(self, array):
        self.array, self.sizes = array, []

    def __getitem__(self, index):
        self.sizes.append(np.size(index))
        return self.array[index]


@pytest.mark.parametrize("X, sizes", [
    # After step 2 only the chain's pair of the last row still moves: the
    # other 127 pairs are dropped, and the last four steps read one bound.
    (np.array([[-1.0]] * 63 + [[1.0]]), [128, 128, 1, 1, 1, 1]),
    # One row's pairs are no more than the trees, so they are never compacted.
    (np.array([[1.0]]), [2] * 6),
])
def test_descent_drops_the_pairs_that_settled(X, sizes):
    table = one_feature_table(STUMP, right_chain(6))
    spy = SimpleNamespace(feature=table.feature, left=table.left, roots=table.roots,
                          depth=table.depth, bound=GatherSizes(table.bound))
    assert descend(spy, X).tolist() == walked_leaves(table, X).tolist()
    assert spy.bound.sizes == sizes


# -- the tree codec: to_dicts and from_dicts ------------------------------------


@given(nested_trees())
@settings(max_examples=150, deadline=None)
def test_nested_trees_read_back_from_their_table(case):
    f, trees = case
    got = NodeTable.from_dicts(trees, 2, f).to_dicts()
    assert got == trees
    # and in the artifact's text, where -0.0 and 0.0 differ
    assert json.dumps(got, sort_keys=True) == json.dumps(trees, sort_keys=True)


def test_a_fitted_forest_reads_back_from_its_dicts():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, (120, 4)).astype(float)
    y = rng.integers(0, 3, 120)
    table = RandomForest(n_estimators=6, seed=2).fit(X, y).table_
    back = NodeTable.from_dicts(table.to_dicts(), table.n_classes, table.n_features)
    assert table.depth > 3
    for name in ("feature", "threshold", "left", "counts", "roots", "depths"):
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
