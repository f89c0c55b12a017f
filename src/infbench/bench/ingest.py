"""CSV ingestion: numeric parsing with median imputation, one-hot encoding.

The encoder is fit on the whole file before any splitting: medians and
category vocabularies are file-level statistics.  Labels never influence the
feature encoding.  The fitted encoder serializes into model artifacts so
prediction-time inputs go through the exact training transformation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from ..core import ClassSet, encode_labels, validate_matrix
from ..errors import (
    DegenerateTarget,
    IngestError,
    SchemaMismatch,
    UnknownColumn,
    UnparseableCell,
)

MISSING_CATEGORY = "__missing__"


def read_csv(path):
    """Read a header-bearing UTF-8 CSV, returning (header, rows of str cells).

    A leading byte-order mark, as spreadsheet exports write it, is dropped.
    Raises IngestError naming the file when it is empty, is not UTF-8 text, is
    text the ``csv`` module rejects (naming the line), names a column twice,
    has no data rows, or has a row whose width is not the header's.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            rows = list(reader)
    except UnicodeDecodeError:
        raise IngestError(f"{path} is not UTF-8 text") from None
    except csv.Error as e:
        raise IngestError(f"{path} line {reader.line_num}: {e}") from None
    if header is None:
        raise IngestError(f"{path} is empty")
    seen = set()
    for col in header:
        if col in seen:
            raise IngestError(f"{path} names column {col!r} more than once")
        seen.add(col)
    if not rows:
        raise IngestError(f"{path} has a header but no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestError(
                f"{path} row {i + 1} has {len(row)} cells, header has {width}"
            )
    return header, rows


def _is_blank(cell: str) -> bool:
    return cell.strip() == ""


def _float(cell: str):
    """``float(cell)``, or None when the cell does not parse."""
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_real(column: str, row: int, cell: str) -> float:
    """A numeric cell as a finite float; ``row`` is the 1-based data row."""
    value = _float(cell)
    if value is None or not math.isfinite(value):
        raise UnparseableCell(column, row, cell)
    return value


def _numeric_cells(column: str, cells, fill) -> list:
    """A numeric column's cells parsed in row order, ``fill`` for each blank."""
    return [fill if _is_blank(cell) else _parse_real(column, row, cell)
            for row, cell in enumerate(cells, 1)]


def infer_kinds(header, rows, target_column: str) -> dict:
    """Column kind per feature column: numeric iff every non-blank cell parses."""
    return {
        col: ("numeric" if all(_is_blank(row[j]) or _float(row[j]) is not None
                               for row in rows) else "categorical")
        for j, col in enumerate(header) if col != target_column
    }


@dataclass
class TableEncoder:
    """Feature encoding learned from one CSV file.

    ``medians`` holds the imputation value per numeric column; ``categories``
    the observed vocabulary per categorical column, with a trailing
    ``MISSING_CATEGORY`` entry when the training file contained blanks.
    """

    target_column: str
    feature_columns: list
    kinds: dict
    medians: dict = field(default_factory=dict)
    categories: dict = field(default_factory=dict)
    report: list = field(default_factory=list)

    def fit(self, header, rows) -> "TableEncoder":
        self.report = []
        for col, cells in zip(self.feature_columns, self._cells(header, rows)):
            if self.kinds[col] == "numeric":
                values = [v for v in _numeric_cells(col, cells, None) if v is not None]
                med = float(median(values)) if values else 0.0
                self.medians[col] = med
                self.report.append({
                    "column": col, "kind": "numeric",
                    "transform": "parsed as real",
                    "imputed_blanks": len(cells) - len(values), "median": med,
                })
            else:
                observed = sorted({c for c in cells if not _is_blank(c)})
                has_blank = any(_is_blank(c) for c in cells)
                if has_blank:
                    observed.append(MISSING_CATEGORY)
                self.categories[col] = observed
                self.report.append({
                    "column": col, "kind": "categorical",
                    "transform": "one-hot over file-observed categories",
                    "categories": list(observed),
                    "missing_column": has_blank,
                })
        return self

    def _cells(self, header, rows) -> list:
        """Each feature column's cells; SchemaMismatch names the first ``header`` lacks."""
        for col in self.feature_columns:
            if col not in header:
                raise SchemaMismatch(col)
        return [[row[j] for row in rows] for j in map(header.index, self.feature_columns)]

    def output_columns(self) -> list:
        names = []
        for col in self.feature_columns:
            if self.kinds[col] == "numeric":
                names.append(col)
            else:
                names.extend(f"{col}={cat}" for cat in self.categories[col])
        return names

    def transform(self, header, rows) -> np.ndarray:
        """Encode feature rows to a float64 matrix in training column layout.

        Categories unseen at fit time encode as all-zero one-hot blocks.
        """
        blocks = []
        for col, cells in zip(self.feature_columns, self._cells(header, rows)):
            if self.kinds[col] == "numeric":
                vals = _numeric_cells(col, cells, self.medians[col])
                blocks.append(np.array(vals, dtype=np.float64).reshape(-1, 1))
            else:
                cats = self.categories[col]
                index = {cat: k for k, cat in enumerate(cats)}
                block = np.zeros((len(cells), len(cats)), dtype=np.float64)
                for i, cell in enumerate(cells):
                    key = MISSING_CATEGORY if _is_blank(cell) else cell
                    k = index.get(key)
                    if k is not None:
                        block[i, k] = 1.0
                blocks.append(block)
        return np.hstack(blocks)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TableEncoder":
        """Inverse of ``to_dict``.  Raises IngestError when there is no feature
        column, or naming the first feature column without a kind, a numeric
        one without a finite median, or a categorical one without a list of
        string categories."""
        enc = cls(
            target_column=d["target_column"],
            feature_columns=list(d["feature_columns"]),
            kinds=dict(d["kinds"]),
            medians=dict(d["medians"]),
            categories=dict(d["categories"]),
            report=list(d["report"]),
        )
        if not enc.feature_columns:
            raise IngestError("encoding has no feature columns")
        for col in enc.feature_columns:
            kind = enc.kinds.get(col)
            if kind == "numeric":
                med = enc.medians.get(col)
                try:
                    finite = not isinstance(med, bool) and math.isfinite(med)
                except (TypeError, OverflowError):
                    finite = False
                if not finite:
                    raise IngestError(f"encoding: numeric column {col!r} has "
                                      f"median {med!r}, not a finite number")
            elif kind == "categorical":
                cats = enc.categories.get(col)
                if not (isinstance(cats, list) and all(isinstance(c, str) for c in cats)):
                    raise IngestError(f"encoding: categorical column {col!r} has "
                                      "no list of string categories")
            else:
                raise IngestError(f"encoding: column {col!r} has kind {kind!r}, "
                                  "not 'numeric' or 'categorical'")
        return enc


@dataclass
class EncodedDataset:
    dataset_id: str
    X: np.ndarray
    y: np.ndarray  # raw label texts, object dtype
    classes: ClassSet
    encoder: TableEncoder
    feature_names: list


def encode_table(dataset_id, header, rows, target_column, kinds) -> EncodedDataset:
    for col in [target_column, *kinds]:
        if col not in header:
            raise UnknownColumn(col, dataset_id)
    feature_columns = [c for c in header if c != target_column and c in kinds]
    if not feature_columns:
        raise IngestError(f"dataset {dataset_id} has no feature columns besides "
                          f"its target {target_column!r}")
    try:
        encoder = TableEncoder(target_column, feature_columns, dict(kinds)).fit(header, rows)
    except UnparseableCell as e:
        raise UnparseableCell(e.column, e.row, e.value, dataset_id) from None
    X = encoder.transform(header, rows)
    validate_matrix(X)
    t = header.index(target_column)
    raw = [row[t] for row in rows]
    try:
        classes, _ = encode_labels(raw)
    except DegenerateTarget:
        raise DegenerateTarget(f"dataset {dataset_id}: target column {target_column!r} "
                               f"has {len(set(raw))} distinct label(s), "
                               "need at least 2") from None
    if any(_is_blank(label) for label in classes.labels):
        row = next(i for i, label in enumerate(raw) if _is_blank(label)) + 1
        raise IngestError(f"dataset {dataset_id}: target column {target_column!r} "
                          f"is blank in data row {row}")
    y = np.asarray(raw, dtype=object)
    return EncodedDataset(
        dataset_id=dataset_id,
        X=X,
        y=y,
        classes=classes,
        encoder=encoder,
        feature_names=encoder.output_columns(),
    )


def ingest_csv(spec) -> EncodedDataset:
    """Load and encode one registry dataset."""
    header, rows = read_csv(spec.path)
    return encode_table(
        spec.dataset_id, header, rows, spec.target_column, spec.kinds
    )
