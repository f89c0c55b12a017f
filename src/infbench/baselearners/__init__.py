"""Self-contained base learners: decision tree, random forest, softmax regression."""

from .tree import DecisionTree
from .forest import RandomForest, plurality_vote
from .logistic import LogisticRegression

__all__ = [
    "DecisionTree",
    "RandomForest",
    "LogisticRegression",
    "plurality_vote",
]
