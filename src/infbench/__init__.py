"""Classifier stacking experiments and a cross-dataset benchmark harness.

Two ensemble classifiers (a stacking meta-learner and a direction-aligned
forest), the self-contained base learners they build on, and a benchmark
that scores models across a registry of datasets with min-max normalized
accuracy.
"""

from .baselearners import DecisionTree, LogisticRegression, RandomForest
from .core import ClassSet, Estimator, derive_seed, resolve_seed
from .directional import DirectionalForest
from .errors import InfbenchError
from .metasynthesis import MetaSynthesisClassifier, stratified_folds

__version__ = "0.1.0"

__all__ = [
    "ClassSet",
    "DecisionTree",
    "DirectionalForest",
    "Estimator",
    "InfbenchError",
    "LogisticRegression",
    "MetaSynthesisClassifier",
    "RandomForest",
    "derive_seed",
    "resolve_seed",
    "stratified_folds",
    "__version__",
]
