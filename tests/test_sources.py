"""Checks over the source tree and its committed data: the bundled CSVs are
what their generator script writes, and only the generators draw from a
numpy ``Generator``."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "infbench"
DATA = PACKAGE / "bench" / "data"
# The dataset generators own their numpy Generator streams; every draw on the
# results path is a SplitMix64 hash (``core.splitmix64``), and an unseeded run
# takes its one base seed from ``secrets``.
MAY_DRAW = {PACKAGE / "bench" / "synth.py"}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bundled_data_is_what_the_generator_script_writes():
    written = load_script("gen_datasets").render()
    assert sorted(written) == sorted(p.name for p in DATA.iterdir())
    for name, text in written.items():
        assert (DATA / name).read_bytes() == text.encode("utf-8"), name


def random_references(source: str) -> list:
    """Each line of ``source`` that imports the ``random`` module or
    ``numpy.random``, or reads ``np.random`` / ``numpy.random``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "numpy":
                names += [f"numpy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"]
        else:
            continue
        if any(n.split(".")[0] == "random" or n.startswith("numpy.random") for n in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("import random\nx = random.random()", [1, 2]),
    ("from random import shuffle", [1]),
    ("import numpy as np\nnp.random.default_rng(1)", [2]),
    ("import numpy\nnumpy.random.seed(0)", [2]),
    ("import numpy.random", [1]),
    ("from numpy.random import default_rng", [1]),
    ("from numpy import random", [1]),
    ("import secrets\n# a random draw\nsecrets.randbits(64)", []),
    ("forest.random = 1\nkind = 'random_forest'", []),
])
def test_random_references_finds_each_form(source, lines):
    assert random_references(source) == lines


def test_only_the_generators_draw_from_a_random_module():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert MAY_DRAW <= set(modules)
    offenders = {str(p.relative_to(PACKAGE)): random_references(p.read_text(encoding="utf-8"))
                 for p in modules if p not in MAY_DRAW}
    assert {p: lines for p, lines in offenders.items() if lines} == {}
