"""Versioned JSON model artifacts.

An artifact stores the estimator kind, its fitted state, and the table
encoder that produced its training matrix, as compact JSON with sorted keys.
Floats serialize via repr, which round-trips float64 exactly, so a loaded
model predicts bit-identically.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .errors import DegenerateTarget, FormatVersionMismatch, IngestError, MissingFile
from .models import MODELS

FORMAT_VERSION = 1


@contextmanager
def _malformed(what: str):
    """Re-raise a lookup or construction failure on artifact data as IngestError."""
    try:
        yield
    except KeyError as e:
        raise IngestError(f"{what} is missing key {e.args[0]!r}") from e
    except (TypeError, ValueError, IndexError, DegenerateTarget) as e:
        raise IngestError(f"{what} is malformed: {e}") from e


def estimator_state(est) -> dict:
    return {"kind": est.kind, "state": est.get_state()}


def estimator_from_state(d: dict):
    kind = d["kind"]
    entry = MODELS.get(kind)
    if entry is None:
        raise IngestError(f"unknown estimator kind {kind!r} in artifact")
    with _malformed(f"{kind} state"):
        return entry.factory.from_state(d["state"])


def save_model_artifact(path, model_id: str, est, encoder) -> Path:
    """Write a fitted model plus its input encoding to a JSON artifact."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "model_artifact",
        "model_id": model_id,
        "estimator": estimator_state(est),
        "encoding": encoder.to_dict(),
    }
    path = Path(path)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path.write_text(text + "\n", encoding="utf-8")
    return path


def load_model_artifact(path):
    """Read an artifact back; returns (model_id, estimator, encoder)."""
    from .bench.ingest import TableEncoder

    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise IngestError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise IngestError(f"{path} nests too deeply to read") from e
    if not isinstance(doc, dict):
        raise IngestError(f"{path} is not a model artifact")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"artifact {path} has format_version {version!r}, "
            f"this build reads {FORMAT_VERSION}"
        )
    if doc.get("kind") != "model_artifact":
        raise IngestError(f"{path} is not a model artifact")
    with _malformed(f"artifact {path}"):
        est = estimator_from_state(doc["estimator"])
        encoder = TableEncoder.from_dict(doc["encoding"])
        return doc["model_id"], est, encoder
