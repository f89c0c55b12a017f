"""Dataset registry: a JSON manifest naming CSV files and their schemas."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import DuplicateId, IngestError, MissingFile


@dataclass
class DatasetSpec:
    dataset_id: str
    path: Path
    target_column: str
    kinds: dict  # feature column name -> "numeric" | "categorical"
    note: str = ""


def bundled_manifest_path() -> Path:
    """Location of the manifest shipped inside the package."""
    return Path(resources.files("infbench.bench").joinpath("data", "manifest.json"))


def load_registry(manifest_path) -> list:
    """Parse and validate a manifest, returning specs in manifest order.

    Relative dataset paths resolve against the manifest's directory.  Every
    referenced file must exist, ids must be unique, and every column kind must
    be "numeric" or "categorical".  No file is opened here: ``ingest_csv``
    checks a file's columns against its entry when it reads the file.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingFile(str(manifest_path))
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise IngestError(f"manifest {manifest_path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("datasets"), list):
        raise IngestError(f"manifest {manifest_path} lacks a 'datasets' list")
    if not doc["datasets"]:
        raise IngestError(f"manifest {manifest_path} lists no datasets")

    specs = []
    seen = set()
    for i, entry in enumerate(doc["datasets"]):
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(k), str) for k in ("id", "path", "target_column"))
                and isinstance(entry.get("columns"), dict)):
            raise IngestError(
                f"manifest {manifest_path} datasets[{i}] is not an object with string "
                "'id', 'path' and 'target_column' and an object 'columns'"
            )
        dataset_id = entry["id"]
        if dataset_id in seen:
            raise DuplicateId(dataset_id)
        seen.add(dataset_id)
        path = manifest_path.parent / entry["path"]  # an absolute path stays as it is
        if not path.is_file():
            raise MissingFile(str(path))
        kinds = dict(entry["columns"])
        for col, kind in kinds.items():
            if kind not in ("numeric", "categorical"):
                raise IngestError(
                    f"dataset {dataset_id}: column {col} has unknown kind {kind!r}"
                )
        specs.append(DatasetSpec(
            dataset_id=dataset_id,
            path=path,
            target_column=entry["target_column"],
            kinds=kinds,
            note=entry.get("note", ""),
        ))
    return specs
