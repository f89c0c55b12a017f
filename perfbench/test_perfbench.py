"""Tests of the benchmark itself: tiny runs of every workload through the
benchmark's command, and each correctness check failing on a perturbed output.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, size: str = "tiny"):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A directory laid out like a checkout, with every tiny workload run once."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src")
    results = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(root, w, trace)
            assert proc.returncode == 0, proc.stderr
            results[(w, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    return root, results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(checkout, workload, trace):
    _, results = checkout
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for v in result["metrics"].values():
        assert math.isfinite(v["value"]) and v["value"] >= 0
        if not trace:
            assert v["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- grid checks on perturbed results.json ----------------------------------

def grid_doc(checkout, workload):
    root, _ = checkout
    path = root / ".perfbench_out" / workload / "results.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_fold_accuracy_check_catches_a_dropped_fold(checkout):
    doc = grid_doc(checkout, "grid_stack_pool")
    assert checks.grid_fold_accuracies(doc, 5) == []
    m = next(iter(doc["fold_accuracies"]))
    d = next(iter(doc["fold_accuracies"][m]))
    doc["fold_accuracies"][m][d].pop()
    assert checks.grid_fold_accuracies(doc, 5)


def test_fold_accuracy_check_catches_an_accuracy_above_one(checkout):
    doc = grid_doc(checkout, "grid_stack_pool")
    m = next(iter(doc["fold_accuracies"]))
    d = next(iter(doc["fold_accuracies"][m]))
    doc["fold_accuracies"][m][d][0] = 1.5
    assert checks.grid_fold_accuracies(doc, 5)


def test_leaderboard_check_catches_a_changed_score(checkout):
    doc = grid_doc(checkout, "grid_stack_pool")
    assert checks.grid_leaderboard(doc) == []
    first = doc["leaderboard"][0]["model"]
    doc["minmax"][first] -= 0.01
    assert checks.grid_leaderboard(doc)


def test_leaderboard_check_catches_swapped_rows(checkout):
    doc = grid_doc(checkout, "grid_stack_pool")
    doc["leaderboard"][0], doc["leaderboard"][1] = doc["leaderboard"][1], doc["leaderboard"][0]
    assert checks.grid_leaderboard(doc)


def test_pool_check_catches_a_changed_fold_accuracy(checkout):
    import infbench.bench as bench
    from infbench.models import get_model

    root, _ = checkout
    out = root / ".perfbench_out" / "grid_stack_pool"
    doc = grid_doc(checkout, "grid_stack_pool")
    protocol = bench.EvalProtocol(folds=5, seed=5)
    serial = {}
    for spec in bench.load_registry(out / "data" / "manifest.json"):
        data = bench.ingest_csv(spec)
        serial[("decision_tree", spec.dataset_id)] = bench.evaluate_model_on_dataset(
            get_model("decision_tree").make(), data, protocol,
            model_id="decision_tree", dataset_id=spec.dataset_id)
    assert checks.grid_matches_serial(doc, serial) == []
    d = next(iter(doc["fold_accuracies"]["decision_tree"]))
    accs = doc["fold_accuracies"]["decision_tree"][d]
    accs[0] -= 0.05
    assert checks.grid_matches_serial(doc, serial)


# -- serving checks on perturbed predictions and artifacts --------------------

def served(checkout):
    import infbench.bench as bench
    import infbench.serialize as serialize

    root, _ = checkout
    out = root / ".perfbench_out" / "serve_predict"
    models = {m: serialize.load_model_artifact(out / f"{m}.json")[1]
              for m in ("random_forest", "directional_forest", "meta_synthesis")}
    header, rows = bench.read_csv(out / "train.csv")
    encoder = serialize.load_model_artifact(out / "random_forest.json")[2]
    return out, models, encoder.transform(header, rows)


def flip_one(labels, classes):
    labels = [str(v) for v in labels]
    other = [str(c) for c in classes.labels if str(c) != labels[0]][0]
    return [other] + labels[1:]


def test_random_forest_check_catches_a_flipped_label(checkout):
    _, models, X = served(checkout)
    rf = models["random_forest"]
    labels = rf.predict(X)
    assert checks.forest_average_argmax(rf, X, labels) == []
    assert checks.forest_average_argmax(rf, X, flip_one(labels, rf.classes_))


def test_majority_check_catches_a_forest_no_better_than_the_majority():
    truth = ["a", "a", "a", "b"]
    assert checks.beats_majority("random_forest", ["a", "a", "a", "b"], truth) == []
    assert checks.beats_majority("random_forest", ["a", "a", "a", "a"], truth)


def test_directional_check_catches_a_flipped_label(checkout):
    _, models, X = served(checkout)
    df = models["directional_forest"]
    labels = df.predict(X)
    assert checks.directional_vote(df, X, labels) == []
    assert checks.directional_vote(df, X, flip_one(labels, df.classes_))


def test_response_check_catches_a_missing_unknown_or_flipped_label():
    known = {"even", "odd"}
    assert checks.served_response(["odd", "even"], 2, known, ["odd", "even"]) == []
    assert checks.served_response(["odd"], 2, known)
    assert checks.served_response(["odd", "neither"], 2, known)
    assert checks.served_response(["odd", "odd"], 2, known, ["odd", "even"])


def test_round_check_catches_a_changed_output(checkout):
    root, _ = checkout
    text = (root / ".perfbench_out" / "grid_stack_pool" / "results.json").read_text()
    assert checks.same_every_round([text, text], "results.json") == []
    assert checks.same_every_round([text, text.replace("0.", "1.", 1)], "results.json")


def test_load_check_catches_an_altered_threshold(checkout, tmp_path):
    import infbench.serialize as serialize

    out, models, X = served(checkout)
    doc = json.loads((out / "random_forest.json").read_text(encoding="utf-8"))
    root = doc["estimator"]["state"]["trees"][0]["root"]
    assert "threshold" in root
    root["threshold"] = float(np.nextafter(root["threshold"], -np.inf)) - 1.0
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(doc), encoding="utf-8")
    rf = models["random_forest"]
    same = serialize.load_model_artifact(out / "random_forest.json")[1]
    assert checks.loaded_bit_identical(rf, same, X) == []
    assert checks.loaded_bit_identical(rf, serialize.load_model_artifact(altered)[1], X)
