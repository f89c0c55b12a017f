"""CSV ingestion: numeric parsing with median imputation, one-hot encoding.

The encoder is fit on the whole file before any splitting: medians and
category vocabularies are file-level statistics.  Labels never influence the
feature encoding.  The fitted encoder serializes into model artifacts so
prediction-time inputs go through the exact training transformation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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


def _read(path: Path, whole: bool):
    """The header of the UTF-8 CSV at ``path``, and its rows if ``whole``.

    A leading byte-order mark, as spreadsheet exports write it, is dropped.
    Raises IngestError when the file is empty, is not UTF-8 text, is text the
    ``csv`` module rejects, or its header names a column twice.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            rows = list(reader) if whole else None
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
    return header, rows


def read_csv(path):
    """Read a header-bearing CSV, returning (header, rows of str cells)."""
    path = Path(path)
    header, rows = _read(path, whole=True)
    if not rows:
        raise IngestError(f"{path} has a header but no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestError(
                f"{path} row {i + 1} has {len(row)} cells, header has {width}"
            )
    return header, rows


def read_header(path) -> list:
    return _read(Path(path), whole=False)[0]


def _is_blank(cell: str) -> bool:
    return cell.strip() == ""


def _parse_real(column: str, row: int, cell: str) -> float:
    """A numeric cell as a finite float; ``row`` is the 1-based data row."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UnparseableCell(column, row, cell)
    return value


def infer_kinds(header, rows, target_column: str) -> dict:
    """Column kind per feature column: numeric iff every non-blank cell parses."""
    kinds = {}
    for j, col in enumerate(header):
        if col == target_column:
            continue
        numeric = True
        for row in rows:
            cell = row[j]
            if _is_blank(cell):
                continue
            try:
                float(cell)
            except ValueError:
                numeric = False
                break
        kinds[col] = "numeric" if numeric else "categorical"
    return kinds


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
        for col in self.feature_columns:
            j = header.index(col)
            cells = [row[j] for row in rows]
            if self.kinds[col] == "numeric":
                values = [_parse_real(col, i + 1, cell)
                          for i, cell in enumerate(cells) if not _is_blank(cell)]
                n_blank = len(cells) - len(values)
                med = median(values) if values else 0.0
                self.medians[col] = float(med)
                self.report.append({
                    "column": col, "kind": "numeric",
                    "transform": "parsed as real",
                    "imputed_blanks": n_blank, "median": float(med),
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
        positions = {}
        for col in self.feature_columns:
            if col not in header:
                raise SchemaMismatch(col)
            positions[col] = header.index(col)
        blocks = []
        for col in self.feature_columns:
            j = positions[col]
            cells = [row[j] for row in rows]
            if self.kinds[col] == "numeric":
                vals = np.empty(len(cells), dtype=np.float64)
                for i, cell in enumerate(cells):
                    vals[i] = (self.medians[col] if _is_blank(cell)
                               else _parse_real(col, i + 1, cell))
                blocks.append(vals.reshape(-1, 1))
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
        return {
            "target_column": self.target_column,
            "feature_columns": list(self.feature_columns),
            "kinds": dict(self.kinds),
            "medians": dict(self.medians),
            "categories": {k: list(v) for k, v in self.categories.items()},
            "report": list(self.report),
        }

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
    if target_column not in header:
        raise UnknownColumn(target_column, dataset_id)
    for col in kinds:
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
