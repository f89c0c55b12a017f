"""Print the regression oracle of this checkout and check it against the
recorded one.

Three sets of sha256 digests, each of which a behaviour-preserving change
must leave as it is:

* ``results.json`` of ``infbench bench --seed 42 --folds 5 --workers 2`` on
  the bundled registry, with ``SOURCE_DATE_EPOCH=0``;
* the artifact each registered model writes with ``infbench train --seed 7``
  on ``synth.xor_cat(n=400)``;
* what ``infbench predict`` prints for that same table with each of those
  artifacts, which covers the load and predict path.

The recorded digests are in ``scripts/oracle.sha256``, one ``<digest>  <name>``
line each.  The script exits 1, naming each digest that differs from its
record, and 0 when all eleven match.  A change that alters behaviour on purpose
updates that file in the same diff.

Run from the repository root (it takes about 9 s on two CPUs):

    python3 scripts/oracle.py

The test suite checks all eleven: ``tests/test_oracle.py`` the ten train and
predict digests, which take a few seconds, and acceptance gate 08 the
``results.json`` digest of the serial grid it runs anyway, also at
``SOURCE_DATE_EPOCH=0``.
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
RECORD = Path(__file__).resolve().with_suffix(".sha256")
sys.path.insert(0, str(SRC))

from infbench.bench.synth import xor_cat  # noqa: E402
from infbench.models import MODELS  # noqa: E402


def infbench(*argv: str, cwd: Path) -> str:
    """Run the CLI of this checkout in a child process and return its stdout;
    exit with its stderr if it fails."""
    env = {**os.environ, "SOURCE_DATE_EPOCH": "0", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "infbench.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"infbench {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded() -> dict:
    """name -> digest, as ``scripts/oracle.sha256`` records them."""
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines if line)}


def model_digests(tmp: Path) -> dict:
    """name -> digest of the artifact each registered model writes with
    ``infbench train --seed 7`` on ``synth.xor_cat(n=400)``, and of what
    ``infbench predict`` prints for that table with it (``<model>.predict``).
    Works in the directory ``tmp``."""
    table = xor_cat(n=400)
    with open(tmp / "xor.csv", "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([table.header, *table.rows])
    digests = {}
    for model_id in MODELS:
        infbench("train", "--model", model_id, "--data", "xor.csv",
                 "--target", table.target, "--seed", "7",
                 "--out", f"{model_id}.json", cwd=tmp)
        digests[model_id] = sha256(tmp / f"{model_id}.json")
        out = infbench("predict", "--model-file", f"{model_id}.json",
                       "--data", "xor.csv", cwd=tmp)
        digests[f"{model_id}.predict"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        infbench("bench", "--seed", "42", "--folds", "5", "--workers", "2",
                 "--out", "bench", cwd=tmp)
        digests = {"results.json": sha256(tmp / "bench" / "results.json"),
                   **model_digests(tmp)}
    for name, digest in digests.items():
        print(f"{digest}  {name}")

    expected = recorded()
    wrong = [f"{name}: {digests.get(name, 'not computed')}, recorded "
             f"{expected.get(name, 'nothing')}"
             for name in sorted(digests.keys() | expected.keys())
             if digests.get(name) != expected.get(name)]
    if wrong:
        sys.exit(f"{len(wrong)} digest(s) differ from {RECORD.name}:\n" + "\n".join(wrong))


if __name__ == "__main__":
    main()
