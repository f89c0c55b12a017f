"""Stacking classifier: folds, out-of-fold features, leakage, quality."""

import numpy as np
import pytest

from infbench import metasynthesis
from infbench.baselearners import DecisionTree, LogisticRegression, RandomForest
from infbench.baselearners import tree as tree_module
from infbench.core import Estimator, check_fit_inputs, derive_seed
from infbench.errors import InfbenchError, InsufficientClassMembers, MetaNoProba
from infbench.metasynthesis import MetaSynthesisClassifier, stratified_folds

from conftest import make_blobs


class Memorizer(Estimator):
    """Flags rows it saw at fit time: predicts label "1" iff row was trained on.

    Deliberately offers no predict_proba, so its meta-feature is the single
    predicted-index column.
    """

    kind = "memorizer"

    def __init__(self, seed=None):
        self.seed = seed
        self.classes_ = None

    def fresh_clone(self, seed=None):
        return Memorizer(seed)

    def fit(self, X, y):
        A, _, classes = check_fit_inputs(X, y)
        self.seen_ = {tuple(row) for row in A.tolist()}
        self.n_features_ = A.shape[1]
        self.classes_ = classes
        return self

    def predict(self, X):
        A = self._check_predict_input(X)
        flags = np.asarray(
            [1 if tuple(row) in self.seen_ else 0 for row in A.tolist()],
            dtype=np.int64,
        )
        return self.classes_.decode(flags)


def leakage_dataset(rng, n):
    X = rng.normal(0.0, 1.0, (n, 3))
    y = np.asarray([str(i % 2) for i in range(n)], dtype=object)
    return X, y


def test_stratified_folds_even_split():
    y = np.array([0] * 10 + [1] * 10)
    folds = stratified_folds(y, 5, seed=3)
    for k in range(5):
        members = folds == k
        assert members.sum() == 4
        assert (y[members] == 0).sum() == 2
        assert (y[members] == 1).sum() == 2


def test_stratified_folds_small_class_errors():
    y = np.array([0] * 10 + [1] * 3)
    with pytest.raises(InsufficientClassMembers) as err:
        stratified_folds(y, 5, seed=0)
    assert err.value.class_index == 1
    assert err.value.count == 3
    assert err.value.cv == 5


def test_stratified_folds_deterministic():
    y = np.array([0, 1] * 20)
    a = stratified_folds(y, 4, seed=9)
    b = stratified_folds(y, 4, seed=9)
    assert a.tolist() == b.tolist()
    c = stratified_folds(y, 4, seed=10)
    assert a.tolist() != c.tolist()


def test_stratified_folds_sizes_within_one():
    rng = np.random.default_rng(40)
    y = rng.integers(0, 3, 47)
    y[:15] = np.arange(15) % 3  # guarantee every class >= 5 members
    folds = stratified_folds(y, 5, seed=1)
    assert sorted(np.unique(folds)) == [0, 1, 2, 3, 4]
    for c in range(3):
        sizes = [int(((folds == k) & (y == c)).sum()) for k in range(5)]
        assert max(sizes) - min(sizes) <= 1


def reference_folds(y, cv, seed):
    """The fold rule in plain Python: each class's rows, sorted by their
    SplitMix64 key, are dealt round-robin."""
    fold_of = [None] * len(y)
    for c in set(y):
        rows = sorted((r for r in range(len(y)) if y[r] == c),
                      key=lambda r: derive_seed(seed, r))
        for i, r in enumerate(rows):
            fold_of[r] = i % cv
    return fold_of


@pytest.mark.parametrize("y, cv, seed", [
    ([0, 1] * 6, 3, 0),
    ([0] * 4 + [1] * 7 + [2] * 5, 4, 9),  # class 0 has exactly cv rows
    ([2, 0, 1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 0], 3, 2**63 + 5),
    ([1, 0] * 3 + [1] * 5, 2, -3),
    (np.random.default_rng(5).integers(0, 3, 40).tolist(), 5, 1234),
])
def test_stratified_folds_match_a_plain_reference(y, cv, seed):
    assert stratified_folds(np.array(y), cv, seed).tolist() == reference_folds(y, cv, seed)


def test_stratified_folds_name_the_lowest_short_class():
    with pytest.raises(InsufficientClassMembers) as err:  # class 1 has no rows
        stratified_folds(np.array([0] * 3 + [2] * 2 + [3]), 3, seed=0)
    assert (err.value.class_index, err.value.count) == (1, 0)


def test_stratified_folds_refuse_one_fold():
    with pytest.raises(InfbenchError, match="cv must be >= 2, got 1"):
        stratified_folds(np.array([0, 1] * 4), 1, seed=0)


def test_fit_validates_its_inputs_once(monkeypatch):
    calls = []

    def spy(X, y):
        calls.append(len(y))
        return check_fit_inputs(X, y)

    monkeypatch.setattr(metasynthesis, "check_fit_inputs", spy)
    X, y = make_blobs(n_per_class=30, seed=4)
    MetaSynthesisClassifier(cv=3, seed=2).fit(X, y)
    assert calls == [60]


def spy_grow_trees(monkeypatch) -> list:
    """Record (trees, sample columns) of each ``grow_trees`` call."""
    calls = []
    grow = tree_module.grow_trees

    def spy(X, y_idx, n_classes, sample, sizes, *args, **kwargs):
        calls.append((sizes.size, sample.shape[1]))
        return grow(X, y_idx, n_classes, sample, sizes, *args, **kwargs)

    monkeypatch.setattr(tree_module, "grow_trees", spy)
    return calls


def test_each_tree_base_grows_its_fits_in_one_call(blobs3, monkeypatch):
    calls = spy_grow_trees(monkeypatch)
    X, y = blobs3
    bases = [LogisticRegression(max_iter=50), RandomForest(n_estimators=8), DecisionTree()]
    MetaSynthesisClassifier(base_estimators=bases, cv=3, seed=2).fit(X, y)
    # the 3 out-of-fold fits and the refit of each tree base, base after base
    assert [trees for trees, _ in calls] == [4 * 8, 4]


@pytest.mark.parametrize("pairs", [1, 100, 200])
def test_a_grow_trees_call_holds_one_fit_or_stays_within_the_cap(blobs3, monkeypatch, pairs):
    monkeypatch.setattr(tree_module, "BLOCK_PAIRS", pairs)
    calls = spy_grow_trees(monkeypatch)
    X, y = blobs3
    forest = RandomForest(n_estimators=8)
    MetaSynthesisClassifier(base_estimators=[forest], cv=3, seed=2).fit(X, y)
    assert sum(trees for trees, _ in calls) == 4 * 8
    for trees, columns in calls:
        assert trees == 8 or columns <= 2 * pairs
    if pairs == 200:  # some fits grow together, in more than one call
        assert len(calls) > 1 and max(trees for trees, _ in calls) > 8


def test_no_leakage_memorizer_all_zero():
    rng = np.random.default_rng(41)
    X, y = leakage_dataset(rng, 40)
    stack = MetaSynthesisClassifier(
        base_estimators=[Memorizer()], cv=5, seed=7
    )
    meta, _ = stack.oof_meta_features(X, y)
    assert meta.shape == (40, 1)
    assert np.all(meta == 0.0)


def test_oof_width_probabilistic_bases():
    X, y = make_blobs(
        n_per_class=25,
        centers=((0, 0), (4, 0), (0, 4), (4, 4)),
        seed=42,
    )
    stack = MetaSynthesisClassifier(
        base_estimators=[
            LogisticRegression(max_iter=60),
            RandomForest(n_estimators=3),
            DecisionTree(),
        ],
        cv=5,
        seed=1,
    )
    meta, _ = stack.oof_meta_features(X, y)
    assert meta.shape == (100, 12)  # 3 bases x 4 classes


def test_oof_width_class_index_features():
    X, y = make_blobs(
        n_per_class=25,
        centers=((0, 0), (4, 0), (0, 4), (4, 4)),
        seed=42,
    )
    stack = MetaSynthesisClassifier(
        base_estimators=[
            LogisticRegression(max_iter=60),
            RandomForest(n_estimators=3),
            DecisionTree(),
        ],
        cv=5,
        use_probas=False,
        seed=1,
    )
    meta, _ = stack.oof_meta_features(X, y)
    assert meta.shape == (100, 3)
    # single-column blocks hold raw class indices
    assert set(np.unique(meta)) <= {0.0, 1.0, 2.0, 3.0}


def test_original_feature_prefix(blobs2):
    X, y = blobs2
    stack = MetaSynthesisClassifier(
        base_estimators=[DecisionTree()],
        cv=5,
        use_original_features=True,
        seed=2,
    )
    meta, _ = stack.oof_meta_features(X, y)
    assert meta.shape == (X.shape[0], X.shape[1] + 2)
    assert np.array_equal(meta[:, : X.shape[1]], X)


def test_probability_blocks_rowsum(blobs3):
    X, y = blobs3
    stack = MetaSynthesisClassifier(
        base_estimators=[LogisticRegression(max_iter=80), DecisionTree()],
        cv=3,
        seed=3,
    )
    meta, _ = stack.oof_meta_features(X, y)
    assert np.allclose(meta[:, 0:3].sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(meta[:, 3:6].sum(axis=1), 1.0, atol=1e-9)


def test_config_validation():
    with pytest.raises(InfbenchError):
        MetaSynthesisClassifier(cv=1)
    with pytest.raises(InfbenchError):
        MetaSynthesisClassifier(base_estimators=[])


def test_default_config_matches_convention():
    stack = MetaSynthesisClassifier()
    assert stack.cv == 5
    assert stack.use_probas is True
    assert stack.use_original_features is False
    assert stack.seed is None
    assert [type(b) for b in stack.base_estimators] == [
        LogisticRegression, RandomForest, DecisionTree,
    ]
    assert stack.base_estimators[0].max_iter == 1000
    assert stack.base_estimators[1].n_estimators == 100
    assert isinstance(stack.meta_estimator, LogisticRegression)
    assert stack.meta_estimator.max_iter == 1000


def test_fresh_clone_copies_every_estimator():
    stack = MetaSynthesisClassifier(
        base_estimators=[LogisticRegression(max_iter=60), DecisionTree(max_depth=3)],
        meta_estimator=LogisticRegression(l2=0.5),
        cv=3,
        seed=4,
    )
    clone = stack.fresh_clone(seed=8)
    assert clone.hyperparams() == dict(stack.hyperparams(), seed=8)
    originals = {id(e) for e in [stack.meta_estimator, *stack.base_estimators]}
    copies = {id(e) for e in [clone.meta_estimator, *clone.base_estimators]}
    assert not originals & copies
    assert clone.base_estimators is not stack.base_estimators
    assert [b.hyperparams() for b in clone.base_estimators] == [
        b.hyperparams() for b in stack.base_estimators
    ]
    assert clone.base_estimators[0].max_iter == 60
    assert clone.meta_estimator.l2 == 0.5


def test_fit_predict_consistency(blobs3):
    X, y = blobs3
    stack = MetaSynthesisClassifier(
        base_estimators=[LogisticRegression(max_iter=80), DecisionTree()],
        cv=3,
        seed=5,
    ).fit(X, y)
    proba = stack.predict_proba(X)
    assert proba.shape == (X.shape[0], 3)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    # argmax consistency with the probabilistic logistic meta
    idx = np.argmax(proba, axis=1)
    assert (stack.predict(X) == stack.classes_.decode(idx)).all()


def test_stacked_at_least_single_base_oof(blobs3):
    # a stack over one base should not lose to that base's own OOF accuracy
    X, y = blobs3
    base = DecisionTree(max_depth=3)
    stack = MetaSynthesisClassifier(
        base_estimators=[base], cv=5, seed=11
    )
    meta, _ = stack.oof_meta_features(X, y)
    oof_pred = np.argmax(meta, axis=1)
    stack.fit(X, y)
    y_enc = stack.classes_.encode(y)
    oof_acc = float(np.mean(oof_pred == y_enc))
    train_acc = float(np.mean(stack.predict(X) == y))
    assert train_acc >= oof_acc - 1e-12


def test_unanimous_bases_follow(blobs3):
    # bases that are perfectly confident on well-separated blobs carry the
    # meta decision with them
    X, y = make_blobs(
        n_per_class=20,
        centers=((0.0, 0.0), (40.0, 0.0), (0.0, 40.0)),
        spread=0.5,
        seed=44,
    )
    stack = MetaSynthesisClassifier(
        base_estimators=[DecisionTree(), DecisionTree(max_depth=6)],
        cv=5,
        seed=6,
    ).fit(X, y)
    assert (stack.predict(X) == y).all()


def test_meta_no_proba_error(blobs2):
    X, y = blobs2
    stack = MetaSynthesisClassifier(
        base_estimators=[DecisionTree()],
        meta_estimator=Memorizer(),
        cv=5,
        seed=8,
    ).fit(X, y)
    with pytest.raises(MetaNoProba):
        stack.predict_proba(X)


def test_determinism(blobs3):
    X, y = blobs3
    a = MetaSynthesisClassifier(cv=3, seed=13)
    b = MetaSynthesisClassifier(cv=3, seed=13)
    pa = a.fit(X, y).predict(X)
    pb = b.fit(X, y).predict(X)
    assert pa.tolist() == pb.tolist()
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_layout_stable_between_fit_and_inference(blobs3):
    X, y = blobs3
    stack = MetaSynthesisClassifier(
        base_estimators=[LogisticRegression(max_iter=50), Memorizer()],
        cv=3,
        use_original_features=True,
        seed=9,
    ).fit(X, y)
    assert stack.meta_width_ == X.shape[1] + 3 + 1
    assert stack._inference_meta(X).shape[1] == stack.meta_width_


def test_desk_scale_half_moons_quality():
    # nonlinear two-class task: the stack must hold its own against the best
    # single base under the same folds
    from infbench.bench.synth import moons
    from infbench.bench.ingest import encode_table

    table = moons()
    data = encode_table("moons", table.header, table.rows, "label", table.kinds)
    X, y = data.X, data.y
    y_idx = data.classes.encode(y)
    folds = stratified_folds(y_idx, 5, seed=1234)

    protos = {
        "stack": MetaSynthesisClassifier(cv=5),
        "logistic": LogisticRegression(max_iter=1000),
        "forest": RandomForest(n_estimators=100),
        "tree": DecisionTree(),
    }
    accs = {}
    for name, proto in protos.items():
        hits = 0
        for k in range(5):
            test = folds == k
            clone = proto.fresh_clone(seed=1000 + k)
            clone.fit(X[~test], y[~test])
            hits += int((clone.predict(X[test]) == y[test]).sum())
        accs[name] = hits / len(y)
    best_single = max(accs["logistic"], accs["forest"], accs["tree"])
    assert accs["stack"] >= best_single - 0.03


def test_state_roundtrip(blobs3):
    X, y = blobs3
    stack = MetaSynthesisClassifier(
        base_estimators=[LogisticRegression(max_iter=60), DecisionTree()],
        cv=3,
        seed=10,
    ).fit(X, y)
    from infbench.metasynthesis import MetaSynthesisClassifier as M

    clone = M.from_state(stack.get_state())
    assert clone.predict(X).tolist() == stack.predict(X).tolist()
    assert np.array_equal(clone.predict_proba(X), stack.predict_proba(X))


def test_tuple_labels_come_back_as_the_same_objects():
    X, y = make_blobs(n_per_class=10, seed=5)
    a, b = ("a", 1), ("b", 2)
    labels = [a if lab == "c0" else b for lab in y]
    model = MetaSynthesisClassifier(
        base_estimators=[DecisionTree(), LogisticRegression(max_iter=50)],
        meta_estimator=DecisionTree(), cv=3, seed=2,
    ).fit(X, labels)
    predicted = model.predict(X)
    assert predicted.shape == (len(labels),)
    assert all(p is a or p is b for p in predicted)
    assert predicted.tolist() == labels
