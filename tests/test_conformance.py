"""One contract, five models: the shared estimator behavior, parametrized."""

import inspect
import json
import re

import numpy as np
import pytest

from infbench.baselearners import DecisionTree, LogisticRegression, RandomForest
from infbench.baselearners import tree as tree_module
from infbench.core import supports_proba
from infbench.directional import DirectionalForest
from infbench.errors import (DegenerateTarget, DimensionMismatch, InfbenchError, MissingClass,
                             NotFitted)
from infbench.metasynthesis import MetaSynthesisClassifier
from infbench.bench import encode_table
from infbench.serialize import (
    estimator_from_state,
    estimator_state,
    load_model_artifact,
    save_model_artifact,
)

from conftest import make_blobs

# small prototypes keep the parametrized grid fast
PROTOTYPES = [
    pytest.param(lambda: DecisionTree(seed=3), id="decision_tree"),
    pytest.param(lambda: RandomForest(n_estimators=8, seed=3), id="random_forest"),
    # no seed: Newton from zeros is fully deterministic
    pytest.param(lambda: LogisticRegression(max_iter=150), id="logistic"),
    pytest.param(
        lambda: DirectionalForest(n_estimators=8, seed=3), id="directional"
    ),
    pytest.param(
        lambda: MetaSynthesisClassifier(
            base_estimators=[
                LogisticRegression(max_iter=60),
                DecisionTree(max_depth=4),
            ],
            cv=3,
            seed=3,
        ),
        id="meta_synthesis",
    ),
]


@pytest.fixture(scope="module")
def data():
    return make_blobs(
        n_per_class=15,
        centers=((0.0, 0.0), (5.0, 0.0), (0.0, 5.0)),
        spread=0.8,
        seed=77,
        labels=("ant", "bee", "cat"),
    )


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_not_fitted_guard(proto, data):
    X, _ = data
    est = proto()
    with pytest.raises(NotFitted):
        est.predict(X)
    if supports_proba(est):
        with pytest.raises(NotFitted):
            est.predict_proba(X)


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_a_one_class_target_is_refused(proto, data):
    X, _ = data
    with pytest.raises(DegenerateTarget, match=r"classes \['ant'\]"):
        proto().fit(X, ["ant"] * len(X))


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_fit_returns_self_and_predicts_known_labels(proto, data):
    X, y = data
    est = proto()
    assert est.fit(X, y) is est
    pred = est.predict(X)
    assert len(pred) == len(y)
    assert set(pred) <= set(y)
    assert tuple(est.classes_.labels) == ("ant", "bee", "cat")


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_width_mismatch_rejected(proto, data):
    X, y = data
    est = proto().fit(X, y)
    with pytest.raises(DimensionMismatch):
        est.predict(X[:, :1])


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_same_seed_same_predictions(proto, data):
    X, y = data
    a = proto().fit(X, y).predict(X)
    b = proto().fit(X, y).predict(X)
    assert a.tolist() == b.tolist()


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_fresh_clone_is_unfitted_and_refittable(proto, data):
    X, y = data
    est = proto().fit(X, y)
    clone = est.fresh_clone(seed=9)
    with pytest.raises(NotFitted):
        clone.predict(X)
    clone.fit(X, y)
    assert len(clone.predict(X)) == len(y)
    # cloning with the original seed reproduces the original model
    twin = est.fresh_clone(seed=3).fit(X, y)
    assert twin.predict(X).tolist() == est.predict(X).tolist()


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_probability_contract(proto, data):
    X, y = data
    est = proto().fit(X, y)
    if not supports_proba(est):
        pytest.skip("model does not expose probabilities")
    proba = est.predict_proba(X)
    assert proba.shape == (len(y), 3)
    assert np.all(proba >= 0.0)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_serialized_state_round_trips(proto, data):
    X, y = data
    est = proto().fit(X, y)
    clone = estimator_from_state(estimator_state(est))
    assert type(clone) is type(est)
    assert clone.predict(X).tolist() == est.predict(X).tolist()
    if supports_proba(est):
        assert np.array_equal(clone.predict_proba(X), est.predict_proba(X))


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_hyperparams_declared_once(proto, data):
    X, y = data
    est = proto()
    params = est.hyperparams()
    assert type(est)(**params).hyperparams() == params
    clone = est.fresh_clone(seed=11)
    expected = dict(params, seed=11) if "seed" in params else params
    assert clone.hyperparams() == expected
    est.fit(X, y)
    assert est.get_state()["hyperparams"] == params
    # the rules table names exactly the __init__ arguments, in their order,
    # less the stacker's two estimator arguments
    names = list(inspect.signature(type(est).__init__).parameters)[1:]
    stacked = ("base_estimators", "meta_estimator")
    assert list(type(est).rules) == [n for n in names if n not in stacked]


@pytest.mark.parametrize("pairs", [None, 160, 40], ids=["one_group", "pairs_160", "pairs_40"])
@pytest.mark.parametrize("proto", PROTOTYPES)
def test_fit_each_is_each_fit_alone(proto, data, pairs, monkeypatch):
    """``fit_each`` yields the models of separate fits, also when the row
    sets grow in several groups: with ``BLOCK_PAIRS`` 160 the random forests
    grow in three groups and the directional forests alone, with 40 the
    decision trees in three groups.  The row sets hold unsorted rows and
    repeated rows."""
    X, y = data
    y = np.asarray(y, dtype=object)
    if pairs is not None:
        monkeypatch.setattr(tree_module, "BLOCK_PAIRS", pairs)
    order = np.random.default_rng(5).permutation(len(y))
    rows = [order[:30], np.sort(order[15:]), np.arange(len(y)), np.concatenate([order, order[:9]])]
    seeds = [11, 12, None, 14]
    est = proto()
    got = list(est.fit_each(X, y, rows, seeds))
    assert len(got) == len(rows) and est.classes_ is None
    for r, seed, fitted in zip(rows, seeds, got):
        alone = proto().fresh_clone(seed=seed).fit(X[r], y[r])
        assert json.dumps(estimator_state(fitted)) == json.dumps(estimator_state(alone))
        assert fitted.predict(X).tolist() == alone.predict(X).tolist()
        if supports_proba(alone):
            assert fitted.predict_proba(X).tobytes() == alone.predict_proba(X).tobytes()


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_fit_each_names_a_class_by_the_first_label_of_its_row_set(proto, data):
    """1 and "1" are one class, named by its first label: that of the row
    set, as a fit on the row set alone names it."""
    X, y = data
    y = np.array([(1, "1")[i % 2] if lab == "ant" else lab for i, lab in enumerate(y)],
                 dtype=object)
    ants = np.flatnonzero(y == "1")
    rows = [np.arange(len(y)), np.concatenate([ants, np.flatnonzero(y != "1")])]
    seeds = [1, 2]
    for r, seed, fitted in zip(rows, seeds, proto().fit_each(X, y, rows, seeds)):
        alone = proto().fresh_clone(seed=seed).fit(X[r], y[r])
        assert fitted.classes_.labels == alone.classes_.labels
        assert json.dumps(estimator_state(fitted)) == json.dumps(estimator_state(alone))
    assert fitted.classes_.labels[0] == "1" and isinstance(fitted.classes_.labels[0], str)


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_fit_each_refuses_a_row_set_without_a_class(proto, data):
    X, y = data
    one_class = np.flatnonzero(np.asarray(y) == "bee")
    with pytest.raises(InfbenchError):
        list(proto().fit_each(X, y, [np.arange(len(y)), one_class], [1, 2]))


@pytest.mark.parametrize("make", [lambda: DecisionTree(seed=3),
                                  lambda: RandomForest(n_estimators=8, seed=3),
                                  lambda: DirectionalForest(n_estimators=8, seed=3)],
                         ids=["decision_tree", "random_forest", "directional"])
def test_tree_fit_each_refuses_a_row_set_short_of_one_class(make, data):
    """A tree model's fits share y's classes, so a row set must hold them all."""
    X, y = data
    two_classes = np.flatnonzero(np.asarray(y) != "cat")
    with pytest.raises(MissingClass, match="row set 1 has 2 of the 3 classes"):
        list(make().fit_each(X, y, [np.arange(len(y)), two_classes], [1, 2]))


TREE_SETTINGS = [("max_depth", 2.5), ("max_depth", -1), ("min_samples_leaf", 0),
                 ("min_samples_leaf", -3), ("min_samples_split", 0),
                 ("max_features", "log2"), ("seed", "x")]
BAD_SETTINGS = [
    *[(cls, name, value) for cls in (DecisionTree, RandomForest, DirectionalForest)
      for name, value in TREE_SETTINGS],
    *[(cls, "n_estimators", 2.5) for cls in (RandomForest, DirectionalForest)],
    (LogisticRegression, "max_iter", 0),
    (LogisticRegression, "tol", -1),
    (LogisticRegression, "l2", float("inf")),
    (MetaSynthesisClassifier, "cv", 2.5),
    (MetaSynthesisClassifier, "seed", "x"),
]


@pytest.mark.parametrize("cls, name, value", BAD_SETTINGS,
                         ids=lambda v: getattr(v, "kind", str(v)))
def test_a_setting_outside_its_rule_is_refused_at_construction(cls, name, value):
    message = f"{cls.kind}: {name}={value!r}, need {name} "
    with pytest.raises(InfbenchError, match=re.escape(message)):
        cls(**{name: value})


def test_numpy_integer_settings_grow_the_python_integer_tree(data):
    X, y = data
    python = DecisionTree(max_depth=2, min_samples_leaf=3, max_features=1, seed=4)
    numpy = DecisionTree(max_depth=np.int64(2), min_samples_leaf=np.int32(3),
                         max_features=np.int64(1), seed=np.uint64(4))
    assert numpy.fit(X, y).get_state()["tree"] == python.fit(X, y).get_state()["tree"]


@pytest.mark.parametrize("proto", PROTOTYPES)
def test_numpy_integer_labels_survive_an_artifact(proto, data, tmp_path):
    X, y = data
    y_int = np.unique(y, return_inverse=True)[1].astype(np.int64)
    est = proto().fit(X, y_int)
    header = ["f0", "f1", "label"]
    rows = [[repr(float(a)), repr(float(b)), str(lab)] for (a, b), lab in zip(X, y_int)]
    kinds = {"f0": "numeric", "f1": "numeric"}
    encoder = encode_table("blobs", header, rows, "label", kinds).encoder
    path = save_model_artifact(tmp_path / "model.json", "m", est, encoder)
    _, loaded, _ = load_model_artifact(path)
    assert loaded.predict(X).tolist() == est.predict(X).tolist()
    assert set(loaded.predict(X).tolist()) <= {0, 1, 2}


@pytest.mark.parametrize("make", [
    lambda: DecisionTree(max_depth=np.int64(2)),
    lambda: RandomForest(n_estimators=np.int64(3), seed=np.uint64(5)),
    lambda: LogisticRegression(tol=np.float32(1e-6)),
], ids=["decision_tree", "random_forest", "logistic"])
def test_numpy_scalar_settings_survive_an_artifact(make, data, tmp_path):
    X, y = data
    est = make().fit(X, y)
    header = ["f0", "f1", "label"]
    rows = [[repr(float(a)), repr(float(b)), lab] for (a, b), lab in zip(X, y)]
    kinds = {"f0": "numeric", "f1": "numeric"}
    encoder = encode_table("blobs", header, rows, "label", kinds).encoder
    path = save_model_artifact(tmp_path / "model.json", "m", est, encoder)
    _, loaded, _ = load_model_artifact(path)
    assert loaded.hyperparams() == est.hyperparams()
    assert loaded.predict(X).tolist() == est.predict(X).tolist()
    assert loaded.predict_proba(X).tobytes() == est.predict_proba(X).tobytes()


def test_directional_has_no_probability_surface():
    assert not supports_proba(DirectionalForest())
