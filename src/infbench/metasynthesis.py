"""Stacked generalization with out-of-fold meta-features.

Base learners produce per-row meta-features through cross-validation: the
features for the rows of fold k come from clones trained with fold k held
out, so no base model ever describes a row it was trained on.  A
meta-estimator is then trained on those features, and the bases are refit on
the full data for inference.

Seed layout (m bases, cv folds, base seed B): folds use stream 0, the
out-of-fold clone for (fold k, base j) uses stream 1 + k*m + j, the full-data
refit of base j uses stream 1 + cv*m + j, and the meta-estimator uses stream
1 + cv*m + m.  Cell streams are independent, so the fit grid can run in any
order or in parallel without changing the result.

The fits run base-major: base j's cv out-of-fold clones and its refit are one
``fit_each`` call over the training folds and then all rows, with streams
1 + k*m + j for k = 0..cv (the refit is k = cv), so a tree base can grow them
together.
"""

from __future__ import annotations

import numpy as np

from .core import (FLAG, SEED, Estimator, check_fit_inputs, derive_seed, integer,
                   resolve_seed, splitmix64, supports_proba)
from .errors import InfbenchError, InsufficientClassMembers, MetaNoProba
from .baselearners import DecisionTree, LogisticRegression, RandomForest


def default_bases() -> list:
    return [LogisticRegression(), RandomForest(), DecisionTree()]


def stratified_folds(y_idx: np.ndarray, cv: int, seed: int) -> np.ndarray:
    """Assign each row a fold index in [0, cv), stratified by class.

    Each class's rows are dealt round-robin in order of ``splitmix64(seed,
    row)``.  The mix is a bijection, so the keys are distinct and each class's
    order is a uniform permutation; per-class fold sizes differ by at most one.
    """
    y_idx = np.asarray(y_idx, dtype=np.int64)
    if cv < 2:
        raise InfbenchError(f"cv must be >= 2, got {cv}")
    counts = np.bincount(y_idx)
    short = np.flatnonzero(counts < cv)
    if short.size:
        raise InsufficientClassMembers(int(short[0]), int(counts[short[0]]), cv)
    order = np.lexsort((splitmix64(resolve_seed(seed), np.arange(y_idx.size)), y_idx))
    rank = np.arange(y_idx.size) - np.repeat(np.cumsum(counts) - counts, counts)
    fold_of = np.empty_like(y_idx)
    fold_of[order] = rank % cv
    return fold_of


def _base_block(fitted, X: np.ndarray, classes, use_probas: bool) -> np.ndarray:
    """One base's meta-feature block: class probabilities, or a single column
    of predicted class indices when probabilities are unavailable."""
    if use_probas and supports_proba(fitted):
        return np.asarray(fitted.predict_proba(X), dtype=np.float64)
    idx = classes.encode(fitted.predict(X))
    return idx.astype(np.float64).reshape(-1, 1)


class MetaSynthesisClassifier(Estimator):
    """Two-level stacked classifier over the estimator contract.

    Base prototypes are never fitted in place; every fit happens on a fresh
    clone reseeded from this estimator's own seed streams, so a prototype's
    own seed only matters if the stacker's seed is None.
    """

    kind = "meta_synthesis"
    # the scalar settings: the stacked estimators are models of their own
    rules = {"cv": integer(2), "use_probas": FLAG, "use_original_features": FLAG, "seed": SEED}

    def __init__(self, base_estimators=None, meta_estimator=None, cv: int = 5,
                 use_probas: bool = True, use_original_features: bool = False,
                 seed: int | None = None):
        self.set_hyperparams(locals())
        self.base_estimators = (default_bases() if base_estimators is None
                                else list(base_estimators))
        if not self.base_estimators:
            raise InfbenchError("at least one base estimator is required")
        self.meta_estimator = (meta_estimator if meta_estimator is not None
                               else LogisticRegression())

    def fresh_clone(self, seed: int | None = None) -> "MetaSynthesisClassifier":
        clone = super().fresh_clone(seed)
        clone.base_estimators = [b.fresh_clone() for b in self.base_estimators]
        clone.meta_estimator = self.meta_estimator.fresh_clone()
        return clone

    def _meta_matrix(self, A: np.ndarray, blocks: list) -> np.ndarray:
        """Meta-feature matrix: the original features first when configured."""
        return np.hstack([A, *blocks] if self.use_original_features else blocks)

    def oof_meta_features(self, X, y):
        """Out-of-fold meta-feature matrix for (X, y), plus the fold map.

        Returns ``(meta, fold_of)`` where meta has one column block per base
        in ``base_estimators`` order, prefixed by the original features when
        configured.
        """
        A, y_idx, classes = check_fit_inputs(X, y)
        meta, fold_of, _ = self._fit_bases(A, y_idx, classes, y, refit=False)
        return meta, fold_of

    def _fit_bases(self, A, y_idx, classes, y, refit: bool):
        """``oof_meta_features`` on inputs ``check_fit_inputs`` has encoded,
        and the list of each base's full-data refit, when ``refit``, else [].

        Base j fits its out-of-fold clones, fold after fold, then its refit
        through one ``fit_each``, which may grow them together; the meta
        blocks fill in as the clones arrive.
        """
        base = resolve_seed(self.seed)
        fold_of = stratified_folds(y_idx, self.cv, derive_seed(base, 0))
        rows = [np.flatnonzero(fold_of != k) for k in range(self.cv)]
        rows += [np.arange(A.shape[0])] * refit
        m = len(self.base_estimators)
        blocks, refits = [], []
        for j, proto in enumerate(self.base_estimators):
            seeds = [derive_seed(base, 1 + k * m + j) for k in range(len(rows))]
            block = None
            for k, clone in enumerate(proto.fit_each(A, y, rows, seeds)):
                if k == self.cv:
                    refits.append(clone)
                    continue
                test = fold_of == k
                out = _base_block(clone, A[test], classes, self.use_probas)
                if block is None:
                    block = np.zeros((A.shape[0], out.shape[1]))
                block[test] = out
            blocks.append(block)
        return self._meta_matrix(A, blocks), fold_of, refits

    def fit(self, X, y) -> "MetaSynthesisClassifier":
        A, y_idx, classes = check_fit_inputs(X, y)
        meta, _, self.base_models_ = self._fit_bases(A, y_idx, classes, y, refit=True)
        m = len(self.base_estimators)
        self.meta_model_ = self.meta_estimator.fresh_clone(
            seed=derive_seed(resolve_seed(self.seed), 1 + self.cv * m + m)
        ).fit(meta, y)

        self.meta_width_ = meta.shape[1]
        self.n_features_ = A.shape[1]
        self.classes_ = classes
        return self

    def _inference_meta(self, X) -> np.ndarray:
        A = self._check_predict_input(X)
        return self._meta_matrix(A, [
            _base_block(fitted, A, self.classes_, self.use_probas)
            for fitted in self.base_models_
        ])

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        return self.meta_model_.predict(self._inference_meta(X))

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        if not supports_proba(self.meta_estimator):
            raise MetaNoProba(type(self.meta_estimator).__name__)
        return self.meta_model_.predict_proba(self._inference_meta(X))

    def get_state(self) -> dict:
        from .serialize import estimator_state

        return {
            **super().get_state(),
            "meta_width": self.meta_width_,
            "n_features": self.n_features_,
            "base_models": [estimator_state(b) for b in self.base_models_],
            "meta_model": estimator_state(self.meta_model_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MetaSynthesisClassifier":
        """Inverse of ``get_state``.

        Raises ValueError unless there is a base, every base reads
        ``n_features`` columns, the meta-model reads ``meta_width``, and each
        has the stacker's classes.
        """
        from .serialize import estimator_from_state

        est = super().from_state(state)
        est.base_models_ = [estimator_from_state(s) for s in state["base_models"]]
        est.meta_model_ = estimator_from_state(state["meta_model"])
        est.base_estimators = [b.fresh_clone() for b in est.base_models_]
        est.meta_estimator = est.meta_model_.fresh_clone()
        est.meta_width_ = int(state["meta_width"])
        est.n_features_ = int(state["n_features"])
        if not est.base_models_:
            raise ValueError("the base_models list is empty")
        models = [(f"base model {j}", b, "n_features", est.n_features_)
                  for j, b in enumerate(est.base_models_)]
        models.append(("the meta model", est.meta_model_, "meta_width", est.meta_width_))
        for role, model, name, width in models:
            if model.n_features_ != width:
                raise ValueError(f"{role} reads {model.n_features_} features, "
                                 f"{name} is {width}")
            if model.classes_.texts != est.classes_.texts:
                raise ValueError(f"{role} has classes {list(model.classes_.texts)}, "
                                 f"the stacker {list(est.classes_.texts)}")
        return est
