"""Data model, label encoding, deterministic seeding, and the estimator contract.

Conventions used throughout the package:

* a feature matrix is a dense 2-D ``float64`` ndarray, rows = samples;
* a label vector is a 1-D ``int64`` ndarray of class indices into a
  :class:`ClassSet`;
* all randomness flows from explicit integer seeds through
  :func:`derive_seed`, never from a shared mutable generator.
"""

from __future__ import annotations

import logging
import numbers
import secrets

import numpy as np

from .errors import (
    DegenerateTarget,
    DimensionMismatch,
    EmptyMatrix,
    InfbenchError,
    NonFiniteValue,
    NotFitted,
)

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Drawn lazily the first time an absent seed is resolved, then reused for the
# rest of the process so a run remains reproducible once its seed is known.
_process_seed: int | None = None


def splitmix64(base, stream) -> np.ndarray:
    """``derive_seed`` element-wise: uint64 seeds for broadcast arrays of
    bases and nonnegative stream ids, in numpy's wrapping uint64 arithmetic."""
    z = np.asarray(base, np.uint64) ^ (np.asarray(stream, np.uint64) * np.uint64(_GOLDEN))
    z += np.uint64(_GOLDEN)
    for shift, odd in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(odd)
    return z ^ (z >> np.uint64(31))


def derive_seed(base: int, stream_id: int) -> int:
    """Derive an independent 64-bit seed for one consumer stream.

    SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014) over ``base
    XOR (stream_id * odd constant)``.  The multiply spreads small consecutive
    stream ids across the word before mixing; the finalizer is a bijection,
    so distinct stream ids under one base can never collide.
    """
    return int(splitmix64([int(base) & _MASK64], [int(stream_id) & _MASK64])[0])


def resolve_seed(seed: int | None) -> int:
    """Resolve an optional base seed to a concrete 64-bit integer.

    ``None`` means "draw from system entropy once per process": the first
    resolution draws and logs the value, later resolutions reuse it, so an
    unseeded run is still internally deterministic and can be reproduced by
    re-running with the logged seed.
    """
    global _process_seed
    if seed is not None:
        return int(seed) & _MASK64
    if _process_seed is None:
        _process_seed = secrets.randbits(64)
        logger.info("no base seed given; drew process seed %d", _process_seed)
    return _process_seed


class ClassSet:
    """Ordered set of at least two class labels.

    Order is lexicographic on the canonical text form ``str(label)``, so the
    class-column order of probability outputs is deterministic regardless of
    row order.  ``texts`` holds those forms; ClassSet raises DegenerateTarget
    unless they are at least two, distinct and ascending.
    """

    def __init__(self, labels):
        self.labels = tuple(labels)
        self.texts = texts = tuple(str(lab) for lab in self.labels)
        if len(texts) < 2 or any(a >= b for a, b in zip(texts, texts[1:])):
            raise DegenerateTarget(f"classes {list(texts)}: need at least 2 labels "
                                   "whose text forms are distinct and ascending")
        self._index_of = {text: i for i, text in enumerate(texts)}
        self._array = np.fromiter(self.labels, dtype=object, count=len(self.labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    def encode(self, labels) -> np.ndarray:
        """Map raw labels to class indices (labels must be known)."""
        return np.fromiter(
            (self._index_of[str(lab)] for lab in labels), dtype=np.int64, count=len(labels)
        )

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Map class indices back to the original label objects."""
        return self._array[np.asarray(indices, dtype=np.intp)]


def encode_labels(raw_labels) -> tuple[ClassSet, np.ndarray]:
    """Encode raw labels into a sorted ClassSet and an index vector.

    Labels whose text forms collide are one class, the first occurrence's
    object; ClassSet raises DegenerateTarget if fewer than two remain.  Round
    trip: ``classes.decode(indices)`` gives the input back, up to that merge.
    """
    raw = list(raw_labels)
    by_text: dict[str, object] = {}
    for lab in raw:
        by_text.setdefault(str(lab), lab)
    classes = ClassSet(by_text[t] for t in sorted(by_text))
    return classes, classes.encode(raw)


def as_matrix(X) -> np.ndarray:
    """Coerce input to a dense 2-D float64 matrix (no validation)."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D feature matrix, got ndim={A.ndim}")
    return A


def validate_matrix(X: np.ndarray) -> np.ndarray:
    """Check nonzero dimensions and finiteness; returns the validated matrix.

    Raises EmptyMatrix, or NonFiniteValue naming the first offending cell in
    row-major order.
    """
    A = as_matrix(X)
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise EmptyMatrix(f"matrix of shape {A.shape} has an empty dimension")
    finite = np.isfinite(A)
    if not finite.all():
        flat = int(np.argmin(finite.ravel()))
        raise NonFiniteValue(flat // A.shape[1], flat % A.shape[1])
    return A


def finite_floats(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; raises ValueError if one is NaN or infinite."""
    A = np.asarray(values, dtype=np.float64)
    if not np.isfinite(A).all():
        raise ValueError(f"{name} holds a non-finite value")
    return A


def labelled_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as a matrix and y as an object array of its label objects; raises
    DimensionMismatch unless they have as many rows."""
    A = as_matrix(X)
    labels = np.fromiter(y, dtype=object, count=len(y))
    if len(labels) != A.shape[0]:
        raise DimensionMismatch(f"{A.shape[0]} rows but {len(labels)} labels")
    return A, labels


def check_fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray, ClassSet]:
    """Validate and encode training inputs shared by every estimator's fit."""
    A, labels = labelled_rows(validate_matrix(X), y)
    classes, y_idx = encode_labels(labels)
    return A, y_idx, classes


def integer(low=-np.inf, *also) -> tuple:
    """Rule: an integer >= ``low``, or one of ``also`` (None or strings).  An
    integer is a ``numbers.Integral`` but not a bool, so numpy's pass."""
    def test(v):
        if v is None or isinstance(v, str):
            return v in also
        return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low
    need = "an integer" if low == -np.inf else f">= {low}, an integer"
    return test, ", or ".join([need, *map(repr, also)])


# A rule is (test of a value, what the test needs), as the error names it.
SEED = integer(-np.inf, None)
FLAG = (lambda v: isinstance(v, bool)), "True or False"
POSITIVE = (lambda v: isinstance(v, numbers.Real) and 0 < v < np.inf), "> 0, finite"


def check_params(owner: str, rules: dict, values: dict) -> None:
    """Raise InfbenchError on the first of ``values`` that breaks its rule."""
    for name, (test, need) in rules.items():
        if not test(values[name]):
            raise InfbenchError(f"{owner}: {name}={values[name]!r}, need {name} {need}")


def python_value(v):
    """A numpy scalar (e.g. np.int64) as its Python value; anything else as it is."""
    return v.item() if isinstance(v, np.generic) else v


class Estimator:
    """Behavioral contract every model in the package implements.

    ``fit(X, y)`` takes a feature matrix and raw labels and returns self;
    ``predict(X)`` returns original labels; probabilistic models additionally
    expose ``predict_proba(X)`` with columns aligned to ``classes_.labels``.
    ``rules`` declares a model's hyperparameters in ``__init__`` order, each
    with its rule; ``__init__`` passes its arguments to ``set_hyperparams``,
    and ``hyperparams()``, ``fresh_clone()`` and the artifact's
    ``hyperparams`` are derived from the table.  Fitted state lives in
    trailing-underscore attributes; refitting with the same data and seed
    reproduces predictions exactly.
    """

    kind: str = "abstract"
    rules: dict = {}
    classes_: ClassSet | None = None

    def set_hyperparams(self, args: dict) -> None:
        """Check ``rules``' names in ``args``, and store each under its name,
        a numpy scalar as its Python value."""
        check_params(self.kind, self.rules, args)
        vars(self).update((name, python_value(args[name])) for name in self.rules)

    def fit(self, X, y) -> "Estimator":
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    def fit_each(self, X, y, rows, seeds):
        """Yield, in order, ``fresh_clone(seed=s).fit(X[r], y[r])`` for each
        row set of ``row_sets`` and seed s of ``seeds``.  A model may fit them
        together, as long as each is the model fitted alone."""
        return (self.fresh_clone(seed=s).fit(A, labels)
                for (A, labels), s in zip(self.row_sets(X, y, rows), seeds))

    @staticmethod
    def row_sets(X, y, rows):
        """``(X[r], y[r])`` for each row index array r of ``rows``, lazily,
        once X and y are found to have as many rows (``labelled_rows``)."""
        A, labels = labelled_rows(X, y)
        return ((A[r], labels[r]) for r in rows)

    def hyperparams(self) -> dict:
        """The hyperparameters of ``rules``, read back from same-named attributes."""
        return {name: getattr(self, name) for name in self.rules}

    def fresh_clone(self, seed: int | None = None) -> "Estimator":
        """Unfitted copy with the same hyperparameters.

        ``seed`` replaces the copy's seed; a model without a seed argument
        trains deterministically and ignores it.
        """
        params = self.hyperparams()
        if seed is not None and "seed" in params:
            params["seed"] = seed
        return type(self)(**params)

    def get_state(self) -> dict:
        """JSON-ready fitted state; each model adds its learned parameters."""
        self._require_fitted()
        classes = [python_value(lab) for lab in self.classes_.labels]
        return {"hyperparams": self.hyperparams(), "classes": classes}

    @classmethod
    def from_state(cls, state: dict) -> "Estimator":
        """Inverse of ``get_state``; each model restores its learned parameters."""
        est = cls(**state["hyperparams"])
        if not isinstance(state["classes"], list):  # ClassSet would take any iterable
            raise ValueError(f"classes must be a list, got {state['classes']!r}")
        est.classes_ = ClassSet(state["classes"])
        return est

    # -- shared plumbing -------------------------------------------------

    def _require_fitted(self):
        if self.classes_ is None:
            raise NotFitted(f"{type(self).__name__} used before fit")

    def _check_predict_input(self, X) -> np.ndarray:
        self._require_fitted()
        A = validate_matrix(X)
        expected = getattr(self, "n_features_", None)
        if expected is not None and A.shape[1] != expected:
            raise DimensionMismatch(
                f"model was fit on {expected} features, got {A.shape[1]}"
            )
        return A


def supports_proba(est) -> bool:
    """Whether an estimator exposes class probabilities."""
    return hasattr(est, "predict_proba")


def stable_text_hash(text: str) -> int:
    """Process-independent 64-bit hash of a string (FNV-1a)."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h
