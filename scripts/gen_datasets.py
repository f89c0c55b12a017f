"""Regenerate the bundled benchmark datasets and their manifest.

Run from the repository root:

    python3 scripts/gen_datasets.py

Output is deterministic; the committed CSVs under src/infbench/bench/data/
are exactly what this script writes, which ``tests/test_sources.py`` checks.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from infbench.bench.synth import GENERATORS

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "infbench" / "bench" / "data"


def render() -> dict:
    """Each file this script writes, by name: one CSV per generator, then
    the manifest."""
    files = {}
    manifest = {"datasets": []}
    for gen in GENERATORS:
        table = gen()
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(table.header)
        writer.writerows(table.rows)
        files[f"{table.name}.csv"] = out.getvalue()
        manifest["datasets"].append({
            "id": table.name,
            "path": f"{table.name}.csv",
            "target_column": table.target,
            "columns": table.kinds,
            "note": table.note,
        })
    files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    return files


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in render().items():
        path = OUT_DIR / name
        path.write_text(text, encoding="utf-8", newline="")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
