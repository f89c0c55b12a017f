"""Print the regression oracle of this checkout.

Two sets of sha256 digests, each of which a behaviour-preserving change must
leave as it is:

* ``results.json`` of ``infbench bench --seed 42 --folds 5 --workers 2`` on
  the bundled registry, with ``SOURCE_DATE_EPOCH=0``;
* the artifact each registered model writes with ``infbench train --seed 7``
  on ``synth.xor_cat(n=400)``.

Run from the repository root (it takes about a minute on two CPUs):

    python3 scripts/oracle.py
"""

from __future__ import annotations

import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from infbench.bench.synth import xor_cat  # noqa: E402
from infbench.models import MODELS  # noqa: E402


def infbench(*argv: str, cwd: Path) -> None:
    """Run the CLI of this checkout in a child process; exit with its stderr
    if it fails."""
    env = {**os.environ, "SOURCE_DATE_EPOCH": "0", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "infbench.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"infbench {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        infbench("bench", "--seed", "42", "--folds", "5", "--workers", "2",
                 "--out", "bench", cwd=tmp)
        print(f"{sha256(tmp / 'bench' / 'results.json')}  results.json "
              "(bench --seed 42 --folds 5 --workers 2)")

        table = xor_cat(n=400)
        with open(tmp / "xor.csv", "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows([table.header, *table.rows])
        for model_id in MODELS:
            infbench("train", "--model", model_id, "--data", "xor.csv",
                     "--target", table.target, "--seed", "7",
                     "--out", f"{model_id}.json", cwd=tmp)
            print(f"{sha256(tmp / f'{model_id}.json')}  {model_id} "
                  "(train --seed 7 on xor_cat n=400)")


if __name__ == "__main__":
    main()
