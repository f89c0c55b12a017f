"""Metamorphic relations of the tree models (Xie et al., "Testing and
validating machine learning classifiers by metamorphic testing", JSS 84(4),
2011): a change to the training data whose effect on the model is known in
advance must have exactly that effect.

Feature values sit on a small integer grid, and affine maps use scales and
shifts that keep every value and midpoint exact in float64, so each relation
holds bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from infbench.baselearners import DecisionTree, RandomForest
from infbench.directional import DirectionalForest


@st.composite
def tree_case(draw):
    """A small integer-valued table with two or three classes, and the
    settings of a decision tree grown on it."""
    n = draw(st.integers(4, 24))
    f = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=f, max_size=f),
                               min_size=n, max_size=n)), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                      .filter(lambda ys: len(set(ys)) > 1)), dtype=np.int64)
    params = {
        "max_depth": draw(st.none() | st.integers(0, 4)),
        "min_samples_split": draw(st.integers(2, 5)),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "max_features": draw(st.sampled_from([None, 1])),
        "seed": draw(st.integers(0, 2**32)),
    }
    return X, y, params


def table_arrays(model):
    t = model.table_
    return t.feature.tolist(), t.threshold.tolist(), t.left.tolist(), t.counts


@given(tree_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_tree_is_unchanged_by_a_row_permutation(case, data):
    X, y, params = case
    perm = np.array(data.draw(st.permutations(range(len(y)))))
    once = DecisionTree(**params).fit(X, y)
    shuffled = DecisionTree(**params).fit(X[perm], y[perm])
    assert shuffled.get_state() == once.get_state()


@given(tree_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_training_predictions_survive_a_positive_affine_map(case, data):
    X, y, params = case
    f = X.shape[1]
    scale = np.array(data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]),
                                        min_size=f, max_size=f)))
    shift = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=f, max_size=f)))
    mapped = X * scale + shift
    want = DecisionTree(**params).fit(X, y).predict(X)
    assert DecisionTree(**params).fit(mapped, y).predict(mapped).tolist() == want.tolist()


@given(tree_case(), st.sampled_from(["decision_tree", "random_forest", "directional_forest"]),
       st.lists(st.text(alphabet="abyz_", min_size=1, max_size=3),
                min_size=3, max_size=3, unique=True).map(sorted))
@settings(max_examples=60, deadline=None)
def test_predictions_follow_an_order_preserving_relabelling(case, kind, names):
    X, y, params = case
    make = {
        "decision_tree": lambda: DecisionTree(**params),
        "random_forest": lambda: RandomForest(n_estimators=3, **params),
        "directional_forest": lambda: DirectionalForest(n_estimators=3, **params),
    }[kind]
    names = np.array(names, dtype=object)
    probe = np.vstack([X, X + 0.5])
    want = names[make().fit(X, y).predict(probe).astype(np.int64)]
    assert make().fit(X, names[y]).predict(probe).tolist() == want.tolist()


@given(tree_case())
@settings(max_examples=60, deadline=None)
def test_every_row_twice_with_doubled_minimums_is_the_same_tree(case):
    X, y, params = case
    doubled = dict(params, min_samples_split=2 * params["min_samples_split"],
                   min_samples_leaf=2 * params["min_samples_leaf"])
    once = table_arrays(DecisionTree(**params).fit(X, y))
    twice = table_arrays(DecisionTree(**doubled).fit(np.vstack([X, X]), np.tile(y, 2)))
    assert twice[:3] == once[:3]
    assert np.array_equal(twice[3], 2 * once[3])
