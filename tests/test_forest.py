import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infbench.baselearners import DecisionTree, RandomForest, plurality_vote
from infbench.baselearners import tree as tree_module
from infbench.baselearners.forest import bootstrap
from infbench.baselearners.tree import TreeModel, grow_tree, tree_params
from infbench.bench.ingest import ingest_csv
from infbench.bench.registry import bundled_manifest_path, load_registry
from infbench.core import derive_seed, splitmix64
from infbench.directional import DirectionalForest
from infbench.errors import DimensionMismatch, InfbenchError, NotFitted

from conftest import make_blobs


def test_plurality_simple():
    votes = np.array([[0, 1, 1]])
    assert plurality_vote(votes).tolist() == [1]


def test_plurality_tie_lowest():
    votes = np.array([[2, 0]])
    assert plurality_vote(votes).tolist() == [0]
    votes = np.array([[0, 0, 1, 1]])
    assert plurality_vote(votes).tolist() == [0]


def test_plurality_single_member():
    votes = np.array([[3], [0], [2]])
    assert plurality_vote(votes).tolist() == [3, 0, 2]


def test_forest_proba_rows_sum_to_one(blobs3):
    X, y = blobs3
    forest = RandomForest(n_estimators=10, seed=4).fit(X, y)
    proba = forest.predict_proba(X)
    assert proba.shape == (X.shape[0], 3)
    assert np.all(proba >= 0)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_forest_predict_is_argmax_of_proba(blobs3):
    X, y = blobs3
    forest = RandomForest(n_estimators=15, seed=4).fit(X, y)
    proba = forest.predict_proba(X)
    idx = np.argmax(proba, axis=1)
    assert (forest.predict(X) == forest.classes_.decode(idx)).all()


def test_forest_determinism(blobs2):
    X, y = blobs2
    a = RandomForest(n_estimators=8, seed=21).fit(X, y).predict(X)
    b = RandomForest(n_estimators=8, seed=21).fit(X, y).predict(X)
    assert a.tolist() == b.tolist()


def test_forest_seed_changes_bootstrap(blobs2):
    X, y = blobs2
    a = RandomForest(n_estimators=1, max_depth=3, seed=1).fit(X, y)
    b = RandomForest(n_estimators=1, max_depth=3, seed=2).fit(X, y)
    # different bootstrap resamples grow different trees on this data
    assert a.trees_[0].to_dict() != b.trees_[0].to_dict()


def reference_bootstrap(key: int, n: int) -> np.ndarray:
    """The documented bootstrap of the tree of ``key``, in Python integers:
    draw j multiplies the high 32 bits of stream 0's j-th hash by n."""
    stream = derive_seed(key, 0)
    return np.array([(derive_seed(stream, j) >> 32) * n >> 32 for j in range(n)])


def test_forest_bootstrap_stream_is_derived(blobs2):
    X, y = blobs2
    seed = 33
    forest = RandomForest(n_estimators=3, seed=seed).fit(X, y)
    # reproduce tree 2 from the documented stream layout
    key = derive_seed(seed, 2)
    rows = reference_bootstrap(key, X.shape[0])
    y_idx = forest.classes_.encode(y)
    rebuilt = grow_tree(X[rows], y_idx[rows], forest.classes_.size,
                        max_features="sqrt", key=key)
    assert rebuilt.to_dict() == forest.trees_[2].to_dict()


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_each_bootstrap_draws_n_rows(n):
    keys = splitmix64(5, np.arange(40))
    sample, sizes = bootstrap(keys, np.arange(n))
    assert sample.dtype == np.int32 and sizes.sum() == sample.shape[1]
    tree = np.repeat(np.arange(keys.size), sizes)
    assert (np.bincount(tree, weights=sample[1]) == n).all()
    assert (sample[1] > 0).all() and sample[0].min() >= 0 and sample[0].max() < n
    # each tree's rows are distinct and ascending
    assert (np.diff(sample[0])[np.diff(tree) == 0] > 0).all()
    for t in (0, 39):
        drawn = np.bincount(reference_bootstrap(int(keys[t]), n), minlength=n)
        rows, mult = sample[:, tree == t]
        assert rows.tolist() == np.flatnonzero(drawn).tolist()
        assert mult.tolist() == drawn[rows].tolist()


@pytest.mark.parametrize("pairs", [1, 7, 64])
def test_small_draw_chunks_grow_the_same_forests(blobs3, monkeypatch, pairs):
    X, y = blobs3
    models = [RandomForest(n_estimators=9, seed=12), DirectionalForest(n_estimators=9, seed=12)]
    want = [m.fit(X, y).get_state() for m in models]
    monkeypatch.setattr(tree_module, "BLOCK_PAIRS", pairs)
    assert [m.fit(X, y).get_state() for m in models] == want


@pytest.mark.parametrize("cls", [RandomForest, DirectionalForest])
def test_a_forest_of_no_trees_is_refused(blobs2, cls):
    X, y = blobs2
    with pytest.raises(InfbenchError, match=f"{cls.kind}: n_estimators=0"):
        cls(n_estimators=0, seed=1).fit(X, y)


def test_forest_single_tree_no_bootstrap_reduction():
    # ensemble of one without resampling is exactly a plain decision tree
    X, y = make_blobs(n_per_class=12, seed=9)
    forest = RandomForest(
        n_estimators=1, max_features=None, bootstrap=False, seed=5
    ).fit(X, y)
    tree = DecisionTree(seed=5).fit(X, y)
    probe = np.vstack([X, X + 0.25])
    assert forest.predict(probe).tolist() == tree.predict(probe).tolist()


def test_forest_tree_count(blobs2):
    X, y = blobs2
    forest = RandomForest(n_estimators=7, seed=0).fit(X, y)
    assert len(forest.trees_) == 7


def test_forest_unfitted_and_width_errors(blobs2):
    X, y = blobs2
    with pytest.raises(NotFitted):
        RandomForest().predict(X)
    forest = RandomForest(n_estimators=3, seed=1).fit(X, y)
    with pytest.raises(DimensionMismatch):
        forest.predict(np.ones((2, 5)))


def test_forest_state_roundtrip(blobs2):
    X, y = blobs2
    forest = RandomForest(n_estimators=4, max_depth=3, seed=8).fit(X, y)
    clone = RandomForest.from_state(forest.get_state())
    assert np.array_equal(clone.predict_proba(X), forest.predict_proba(X))
    assert clone.predict(X).tolist() == forest.predict(X).tolist()


# -- stacked descent against the per-tree path --------------------------------

@pytest.mark.parametrize("pairs", [1, 5, 24])
def test_row_blocks_match_one_descent(blobs3, monkeypatch, pairs):
    X, y = blobs3
    rf = RandomForest(n_estimators=6, seed=2).fit(X, y)
    df = DirectionalForest(n_estimators=6, seed=2).fit(X, y)
    proba, labels = rf.predict_proba(X), df.predict(X)
    monkeypatch.setattr(tree_module, "BLOCK_PAIRS", pairs)
    assert rf.predict_proba(X).tobytes() == proba.tobytes()
    assert df.predict(X).tolist() == labels.tolist()

@st.composite
def forest_data(draw):
    """A small table with coarse feature values (many ties), every class
    present, a forest seed, and forest settings."""
    n = draw(st.integers(4, 40))
    f = draw(st.integers(1, 4))
    C = draw(st.integers(2, 3))
    X = np.asarray(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=f, max_size=f),
        min_size=n, max_size=n,
    )), dtype=np.float64) / 2.0
    y = np.asarray(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)))
    y[:C] = np.arange(C)
    params = {
        "n_estimators": draw(st.integers(1, 6)),
        "max_depth": draw(st.sampled_from([None, 1, 3])),
        "seed": draw(st.integers(0, 2**32)),
    }
    return X, np.array([f"k{c}" for c in y], dtype=object), params


@given(forest_data())
@settings(max_examples=40, deadline=None)
def test_stacked_proba_is_the_tree_order_sum(case):
    X, y, params = case
    forest = RandomForest(**params).fit(X, y)
    probe = np.vstack([X, X + 0.25])
    total = np.zeros((probe.shape[0], forest.classes_.size))
    for tree in forest.trees_:
        total += tree.distribution(probe)
    expected = total / len(forest.trees_)
    assert forest.predict_proba(probe).tobytes() == expected.tobytes()
    tree = DecisionTree(max_depth=params["max_depth"], seed=params["seed"]).fit(X, y)
    assert tree.predict_proba(probe).tobytes() == tree.trees_[0].distribution(probe).tobytes()
    assert tree.predict(probe).tolist() == tree.classes_.decode(
        tree.trees_[0].predict_idx(probe)).tolist()


@given(forest_data())
@settings(max_examples=40, deadline=None)
def test_directional_labels_are_the_tree_plurality(case):
    X, y, params = case
    forest = DirectionalForest(**params).fit(X, y)
    probe = np.vstack([X, X + 0.25])
    votes = [t.predict_idx(probe * forest.directions_) for t in forest.trees_]
    expected = []
    for row in zip(*votes):
        tally = Counter(int(v) for v in row)
        top = max(tally.values())
        expected.append(forest.classes_.labels[min(c for c in tally if tally[c] == top)])
    assert forest.predict(probe).tolist() == expected


@given(forest_data(), st.data())
@settings(max_examples=30, deadline=None)
def test_a_rows_label_does_not_depend_on_its_batch(case, data):
    X, y, params = case
    for cls in (RandomForest, DirectionalForest):
        forest = cls(**params).fit(X, y)
        whole = forest.predict(X).tolist()
        picked = data.draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=1,
                                    max_size=X.shape[0]))
        assert forest.predict(X[picked]).tolist() == [whole[i] for i in picked]
        assert [forest.predict(X[i:i + 1])[0] for i in picked] == [whole[i] for i in picked]


@given(forest_data())
@settings(max_examples=30, deadline=None)
def test_tree_dict_round_trip_keeps_every_node_array(case):
    X, y, params = case
    for tree in RandomForest(**params).fit(X, y).trees_:
        back = TreeModel.from_dicts([tree.to_dict()], tree.n_classes, tree.n_features)
        for name in ("feature", "threshold", "left", "right", "counts"):
            a, b = getattr(tree, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (back.depth, back.n_classes, back.n_features) == (
            tree.depth, tree.n_classes, tree.n_features)


# -- growth together against one tree at a time ---------------------------------

def assert_each_tree_is_grown_alone(forest, X, y):
    """Fit ``forest`` and check every tree against ``grow_tree`` run by itself
    on that tree's rows and key, with RuntimeWarnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        forest.fit(X, y)
        y_idx, n = forest.classes_.encode(y), X.shape[0]
        for i, tree in enumerate(forest.trees_):
            key = derive_seed(forest.seed, i)
            if isinstance(forest, RandomForest):
                rows = reference_bootstrap(key, n)
                A, y_rows = X[rows], y_idx[rows]
            else:
                A, y_rows = X * forest.directions_, y_idx
            alone = grow_tree(A, y_rows, forest.classes_.size, key=key,
                              **tree_params(forest))
            for name in ("feature", "threshold", "left", "right", "counts"):
                a, b = getattr(tree, name), getattr(alone, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)
            assert tree.depth == alone.depth


@given(forest_data(), st.integers(1, 3), st.integers(2, 6),
       st.sampled_from([None, "sqrt", 1]))
@settings(max_examples=40, deadline=None)
def test_each_tree_is_the_tree_grown_alone(case, min_samples_leaf, min_samples_split,
                                           max_features):
    X, y, params = case
    params.update(min_samples_leaf=min_samples_leaf, min_samples_split=min_samples_split,
                  max_features=max_features)
    for cls in (RandomForest, DirectionalForest):
        assert_each_tree_is_grown_alone(cls(**params), X, y)


def test_small_search_blocks_grow_the_same_trees(monkeypatch):
    X, y = make_blobs(n_per_class=25, centers=((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
                      spread=0.6, seed=3)
    X = np.round(X, 1)  # duplicate values and exact ties
    calls = []  # (nodes, distinct rows) of each search
    search = tree_module._search_nodes

    def spy(X, ranks, y_idx, sample, sizes, counts, feats, min_samples_leaf):
        calls.append((sizes.size, sample.shape[1]))
        return search(X, ranks, y_idx, sample, sizes, counts, feats, min_samples_leaf)

    monkeypatch.setattr(tree_module, "_search_nodes", spy)
    monkeypatch.setattr(tree_module, "BLOCK_PAIRS", 60)
    # the second setting drops children of one level's several blocks for
    # size or depth
    for params in (dict(min_samples_leaf=2), dict(min_samples_split=5, max_depth=3)):
        for cls in (RandomForest, DirectionalForest):
            forest = cls(n_estimators=8, max_features=1, seed=11, **params)
            assert_each_tree_is_grown_alone(forest, X, y)
    # 60 // (1 candidate * 3 classes) = 20 distinct rows: a level's nodes are
    # searched in blocks of at most 20 of them, or of one node
    assert all(n == 1 or rows <= 20 for n, rows in calls)
    assert any(n > 1 for n, rows in calls)
    assert any(n == 1 and rows > 20 for n, rows in calls)


# -- samples over distinct (x, y) rows -------------------------------------------

def colors_cat():
    """The bundled colors_cat table, encoded: 300 rows, 27 of them distinct."""
    [spec] = [s for s in load_registry(bundled_manifest_path()) if s.dataset_id == "colors_cat"]
    data = ingest_csv(spec)
    return data.X, data.y


def repeated_rows():
    """Blobs whose every row appears 1 to 4 times, the copies interleaved."""
    X, y = make_blobs(n_per_class=15, centers=((0, 0), (2, 2), (0, 3)), spread=1.2, seed=4)
    copies = np.arange(y.size) % 4 + 1
    order = np.argsort(splitmix64(3, np.arange(copies.sum())), kind="stable")
    return np.repeat(X, copies, axis=0)[order], np.repeat(y, copies)[order]


def zeroed_column():
    """Two unequal classes, and a third column whose class means both sit at
    its global mean, so a directional forest zeroes it and rows that differ
    only there become equal."""
    x = np.array([0, 0, 1, 1, 2, 2, 3, 3, 5, 5, 6, 6, 4, 4], dtype=np.float64)
    z = np.tile([0.0, 1.0], 7)
    y = np.array(["a"] * 8 + ["b"] * 6)
    return np.column_stack([x, x % 2, z]), y


def per_row_table(model, X, y):
    """``grow_trees`` on the samples of ``model``'s fit drawn row by row: the
    documented bootstrap (``reference_bootstrap``) or every row once, with no
    row standing in for another."""
    y_idx, n = model.classes_.encode(y), X.shape[0]
    keys = model.tree_keys(model.table_.roots.size)
    if isinstance(model, DirectionalForest):
        X = X * model.directions_
    if isinstance(model, RandomForest) and model.bootstrap:
        drawn = [np.unique(reference_bootstrap(int(k), n), return_counts=True) for k in keys]
    else:
        drawn = [(np.arange(n), np.ones(n, np.int64))] * keys.size
    sample = np.concatenate([np.stack(d) for d in drawn], axis=1).astype(np.int32)
    sizes = np.array([d[0].size for d in drawn])
    return tree_module.grow_trees(X, y_idx, model.classes_.size, sample, sizes, keys,
                                  **tree_params(model))


@pytest.mark.parametrize("table", [colors_cat, repeated_rows, zeroed_column])
@pytest.mark.parametrize("model", [
    RandomForest(n_estimators=12, seed=5),
    RandomForest(n_estimators=6, seed=6, min_samples_leaf=3, max_depth=3),
    RandomForest(n_estimators=4, seed=7, bootstrap=False, max_features=1),
    DirectionalForest(n_estimators=8, seed=8),
    DirectionalForest(n_estimators=5, seed=9, min_samples_leaf=3, max_depth=2),
    DecisionTree(seed=10),
    DecisionTree(min_samples_leaf=3, max_depth=4),
], ids=lambda m: m.kind)
def test_samples_over_distinct_rows_grow_the_per_row_trees(table, model):
    X, y = table()
    model.fit(X, y)
    want = per_row_table(model, X, y)
    for name in ("feature", "threshold", "left", "counts", "roots", "depths"):
        a, b = getattr(model.table_, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("table, n_distinct", [(colors_cat, 27), (repeated_rows, 45)])
def test_equal_rows_share_the_first_as_their_stand_in(table, n_distinct):
    X, y = table()
    y_idx = np.unique(y, return_inverse=True)[1]
    stand = tree_module.stand_ins(X, y_idx)
    assert np.unique(stand).size == n_distinct
    assert (stand <= np.arange(y.size)).all() and (stand[stand] == stand).all()
    assert (X[stand] == X).all() and (y_idx[stand] == y_idx).all()


def test_a_zeroed_direction_merges_rows_only_after_the_transform():
    X, y = zeroed_column()
    forest = DirectionalForest(n_estimators=3, seed=1).fit(X, y)
    assert forest.directions_.tolist() == [1.0, -1.0, 0.0]
    y_idx = forest.classes_.encode(y)
    assert np.unique(tree_module.stand_ins(X, y_idx)).size == 14
    assert np.unique(tree_module.stand_ins(X * forest.directions_, y_idx)).size == 7
