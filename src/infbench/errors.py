"""Exception hierarchy shared across the package.

Every error raised by infbench derives from :class:`InfbenchError`, so callers
can catch one type at an API boundary.  Names mirror the failure they signal;
several carry structured fields (row/column indices, ids) for programmatic use.
"""

from __future__ import annotations


class InfbenchError(Exception):
    """Base class for all errors raised by this package."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at its iteration limit before converging."""


class DegenerateTarget(InfbenchError):
    """A class list of fewer than two labels, or whose text forms repeat or descend."""


class NonFiniteValue(InfbenchError):
    """A feature matrix contains NaN or infinity."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, column {col}")


class EmptyMatrix(InfbenchError):
    """A feature matrix has zero rows or zero columns."""


class DimensionMismatch(InfbenchError):
    """Input width does not match what the fitted model expects."""


class NotFitted(InfbenchError):
    """predict/predict_proba called before fit."""


class MissingClass(InfbenchError):
    """A class from the class set has no members in the given labels."""


class InsufficientClassMembers(InfbenchError):
    """A class has fewer members than the requested fold count."""

    def __init__(self, class_index: int, count: int, cv: int):
        self.class_index = class_index
        self.count = count
        self.cv = cv
        super().__init__(
            f"class {class_index} has {count} member(s), fewer than cv={cv}"
        )


class MetaNoProba(InfbenchError):
    """The meta-estimator does not expose class probabilities."""


class IncompleteGrid(InfbenchError):
    """A (model, dataset) cell is missing from a score grid."""

    def __init__(self, model_id: str, dataset_id: str):
        self.model_id = model_id
        self.dataset_id = dataset_id
        super().__init__(f"missing score for model {model_id!r} on dataset {dataset_id!r}")


class MissingFile(InfbenchError):
    """A registry manifest references a file that does not exist."""


class DuplicateId(InfbenchError):
    """Two datasets in one registry share an id."""


class UnknownColumn(InfbenchError):
    """A manifest column does not exist in the data file (or vice versa)."""

    def __init__(self, column: str, dataset_id: str = ""):
        self.column = column
        self.dataset_id = dataset_id
        where = f" in dataset {dataset_id!r}" if dataset_id else ""
        super().__init__(f"column {column!r} not found{where}")


class UnparseableCell(InfbenchError):
    """A cell in a numeric column cannot be parsed as a finite real."""

    def __init__(self, column: str, row: int, value: str, dataset_id: str = ""):
        self.column = column
        self.row = row
        self.value = value
        self.dataset_id = dataset_id
        where = f"dataset {dataset_id}: " if dataset_id else ""
        super().__init__(f"{where}column {column!r}, data row {row}: "
                         f"cannot parse {value!r} as a finite number")


class IngestError(InfbenchError):
    """CSV file cannot be ingested (empty file, malformed header, ...)."""


class SchemaMismatch(InfbenchError):
    """Prediction-time columns differ from the columns seen at training."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"input is missing column {column!r} seen at training")


class FormatVersionMismatch(InfbenchError):
    """A serialized model artifact carries an unsupported format version."""


class EvaluationError(InfbenchError):
    """A model failed during benchmark evaluation; names model, dataset, fold."""

    def __init__(self, model_id: str, dataset_id: str, fold: int, cause: Exception):
        self.model_id = model_id
        self.dataset_id = dataset_id
        self.fold = fold
        self.cause = cause
        super().__init__(
            f"model {model_id!r} on dataset {dataset_id!r}, fold {fold}: "
            f"{type(cause).__name__}: {cause}"
        )
