"""Registry of benchmark-ready models with their provenance tags."""

from __future__ import annotations

from dataclasses import dataclass

from .baselearners import DecisionTree, LogisticRegression, RandomForest
from .directional import DirectionalForest
from .errors import InfbenchError
from .metasynthesis import MetaSynthesisClassifier


@dataclass(frozen=True)
class ModelEntry:
    """A registered model: its class declares its id (``kind``) and defaults."""

    generator: str  # user | system | baseline
    factory: type
    description: str

    @property
    def model_id(self) -> str:
        return self.factory.kind

    @property
    def defaults(self) -> dict:
        """The default hyperparameters; stacked estimators are listed by kind."""
        est = self.factory()
        if not isinstance(est, MetaSynthesisClassifier):
            return est.hyperparams()
        return {"bases": [b.kind for b in est.base_estimators],
                "meta": est.meta_estimator.kind, **est.hyperparams()}

    def make(self, seed=None):
        return self.factory().fresh_clone(seed)


MODELS = {e.model_id: e for e in (
    ModelEntry("user", MetaSynthesisClassifier,
               "stacked ensemble over out-of-fold base probabilities"),
    ModelEntry("system", DirectionalForest,
               "forest on direction-aligned features, no bootstrap"),
    ModelEntry("baseline", RandomForest, "bootstrap-aggregated gini trees"),
    ModelEntry("baseline", LogisticRegression,
               "multinomial softmax regression, damped Newton"),
    ModelEntry("baseline", DecisionTree, "single gini decision tree"),
)}


def get_model(model_id: str) -> ModelEntry:
    entry = MODELS.get(model_id)
    if entry is None:
        known = ", ".join(MODELS)
        raise InfbenchError(f"unknown model id {model_id!r}; known: {known}")
    return entry


def select_models(selection: str) -> list:
    """Resolve a CLI selection ('all' or comma-separated ids) to entries."""
    if selection.strip() == "all":
        return list(MODELS.values())
    ids = [s.strip() for s in selection.split(",") if s.strip()]
    if not ids:
        raise InfbenchError("empty model selection")
    return [get_model(i) for i in ids]
