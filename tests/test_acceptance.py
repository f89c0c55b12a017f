"""Release gate: nine blocking checks, one test (one pass/fail line) each.

Covers out-of-fold isolation, direction invariances, exact split search,
gradient correctness, scoring math against an exact reimplementation,
normalization and probability-mass guarantees on the bundled datasets, the
bundled leaderboard ordering, schedule independence of artifacts (and the
serial ``results.json`` against the regression oracle's digest), and the
documented model reductions.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from infbench.baselearners import DecisionTree, RandomForest
from infbench.baselearners.forest import plurality_vote
from infbench.baselearners.tree import grow_tree
from infbench.bench import (
    EvalProtocol,
    ScoreTable,
    aggregate_minmax,
    average_rank,
    bundled_manifest_path,
    ingest_csv,
    load_registry,
    minmax_normalize,
    normalize_table,
    result_document,
    run_benchmark,
    write_artifacts,
)
from infbench.directional import DirectionalForest
from infbench.metasynthesis import MetaSynthesisClassifier
from infbench.models import MODELS

from conftest import make_blobs
from test_bench import oracle_mean, oracle_normalize, oracle_ranks
from test_logistic import gradient_error
from test_metasynthesis import Memorizer
from test_oracle import load_oracle
from test_tree import oracle_grow, random_case


def test_gate_01_out_of_fold_isolation():
    # a base that flags its own training rows must flag nothing out of fold
    start = time.perf_counter()
    rng = np.random.default_rng(900)
    for _ in range(50):
        cv = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2 * cv, 61))
        f = int(rng.integers(1, 5))
        X = rng.normal(0.0, 1.0, (n, f))
        y = np.asarray(["h" if i % 2 else "t" for i in range(n)], dtype=object)
        stack = MetaSynthesisClassifier(
            base_estimators=[Memorizer()],
            cv=cv,
            seed=int(rng.integers(0, 2**32)),
        )
        meta, _ = stack.oof_meta_features(X, y)
        assert meta.shape == (n, 1)
        assert np.all(meta == 0.0)
    assert time.perf_counter() - start < 10.0


def test_gate_02_direction_invariances():
    start = time.perf_counter()
    rng = np.random.default_rng(901)
    for _ in range(100):
        n = int(rng.integers(8, 41))
        f = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 4))
        X = rng.normal(0.0, 1.5, (n, f))
        labels = np.asarray([str(i % n_classes) for i in range(n)], dtype=object)
        seed = int(rng.integers(0, 2**32))
        model = DirectionalForest(n_estimators=5, seed=seed).fit(X, labels)
        assert set(np.unique(model.directions_)) <= {-1.0, 0.0, 1.0}

        probe = rng.normal(0.0, 1.5, (6, f))
        base_pred = model.predict(probe)

        # negating one feature flips its direction and nothing else
        j = int(rng.integers(0, f))
        X2 = X.copy()
        X2[:, j] = -X2[:, j]
        flipped = DirectionalForest(n_estimators=5, seed=seed).fit(X2, labels)
        assert flipped.directions_[j] == -model.directions_[j]
        keep = [k for k in range(f) if k != j]
        assert flipped.directions_[keep].tolist() == model.directions_[keep].tolist()
        probe2 = probe.copy()
        probe2[:, j] = -probe2[:, j]
        assert flipped.predict(probe2).tolist() == base_pred.tolist()

        # a constant feature gets direction 0 and cannot move a prediction
        Xc = np.hstack([X, np.full((n, 1), 2.0)])
        nulled = DirectionalForest(n_estimators=5, seed=seed).fit(Xc, labels)
        assert nulled.directions_[-1] == 0.0
        pa = np.hstack([probe, np.full((6, 1), 2.0)])
        pb = np.hstack([probe, rng.normal(0.0, 9.0, (6, 1))])
        assert nulled.predict(pa).tolist() == nulled.predict(pb).tolist()
    assert time.perf_counter() - start < 30.0


def test_gate_03_split_search_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(902)
    for _ in range(200):
        X, y, n_classes = random_case(rng)
        depth = int(rng.integers(1, 3))
        model = grow_tree(X, y, n_classes, max_depth=depth)
        want = oracle_grow(X, y, n_classes, depth).predict(X)
        assert model.predict_idx(X).tolist() == want.tolist()
    assert time.perf_counter() - start < 60.0


def test_gate_04_gradient_matches_finite_differences():
    rng = np.random.default_rng(903)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        f = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        assert gradient_error(rng, n, f, c) <= 1e-4


def test_gate_05_scoring_matches_exact_reimplementation():
    rng = np.random.default_rng(904)
    for trial in range(1000):
        n_models = int(rng.integers(2, 5))
        n_datasets = int(rng.integers(1, 4))
        models = [f"m{i}" for i in range(n_models)]
        datasets = [f"d{i}" for i in range(n_datasets)]
        if trial % 2 == 0:
            pool = np.asarray([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
            draw = lambda: float(rng.choice(pool))
        else:
            draw = lambda: float(rng.uniform())
        table = ScoreTable(model_ids=models, dataset_ids=datasets)
        table.raw = {(m, d): draw() for m in models for d in datasets}

        normalized, _ = normalize_table(table)
        agg = aggregate_minmax(table)
        avg = average_rank(table)

        want_norm, want_rank = {}, {}
        for d in datasets:
            col = {m: table.raw[(m, d)] for m in models}
            for m, v in oracle_normalize(col).items():
                want_norm[(m, d)] = v
            for m, r in oracle_ranks(col).items():
                want_rank.setdefault(m, []).append(r)
        for key, v in want_norm.items():
            assert normalized[key] == v  # bitwise
        for m in models:
            assert agg[m] == oracle_mean([want_norm[(m, d)] for d in datasets])
            assert avg[m] == oracle_mean(want_rank[m])


def test_gate_06_normalization_and_probability_mass():
    # endpoints, degeneracy, affine invariance
    out = minmax_normalize({"a": 0.2, "b": 0.5, "c": 0.9})
    assert out["a"] == 0.0 and out["c"] == 1.0
    assert minmax_normalize({"a": 0.7, "b": 0.7}) == {"a": 1.0, "b": 1.0}
    rng = np.random.default_rng(905)
    for _ in range(40):
        scores = {f"m{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 5))}
        scale = float(rng.uniform(0.2, 4.0))
        shift = float(rng.uniform(-2.0, 2.0))
        base = minmax_normalize(scores)
        moved = minmax_normalize({m: scale * v + shift for m, v in scores.items()})
        assert all(abs(base[m] - moved[m]) <= 1e-9 for m in scores)

    # every probabilistic model yields unit probability mass on every bundled dataset
    specs = load_registry(bundled_manifest_path())
    probabilistic = (
        "decision_tree", "random_forest", "logistic_regression", "meta_synthesis",
    )
    for spec in specs:
        data = ingest_csv(spec)
        for model_id in probabilistic:
            est = MODELS[model_id].make(seed=606).fit(data.X, data.y)
            proba = est.predict_proba(data.X)
            assert proba.shape == (data.X.shape[0], data.classes.size)
            assert np.all(proba >= 0.0)
            assert float(np.max(np.abs(proba.sum(axis=1) - 1.0))) <= 1e-9


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    saved = os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = "0"  # as scripts/oracle.py pins it
    try:
        specs = load_registry(bundled_manifest_path())
        models = {e.model_id: (e.make(), e.generator) for e in MODELS.values()}
        protocol = EvalProtocol(folds=5, seed=42)
        started = time.perf_counter()
        serial = run_benchmark(specs, models, protocol, workers=1)
        elapsed = time.perf_counter() - started
        serial_paths = write_artifacts(serial, tmp_path_factory.mktemp("serial"))
        pooled = run_benchmark(specs, models, protocol, workers=8)
        pooled_paths = write_artifacts(pooled, tmp_path_factory.mktemp("pooled"))
        yield {
            "result": serial,
            "elapsed": elapsed,
            "serial_paths": serial_paths,
            "pooled_paths": pooled_paths,
        }
    finally:
        if saved is None:
            os.environ.pop("SOURCE_DATE_EPOCH", None)
        else:
            os.environ["SOURCE_DATE_EPOCH"] = saved


def test_gate_07_bundled_leaderboard_ordering(bundled_runs):
    result = bundled_runs["result"]
    assert result.ok
    minmax = result_document(result)["minmax"]
    assert set(minmax) == set(MODELS)
    assert minmax["meta_synthesis"] >= minmax["random_forest"] - 0.02
    assert minmax["meta_synthesis"] >= minmax["logistic_regression"]
    assert minmax["directional_forest"] >= minmax["logistic_regression"]
    assert bundled_runs["elapsed"] < 300.0


def test_gate_08_artifacts_schedule_independent(bundled_runs):
    s_results, s_table = bundled_runs["serial_paths"]
    p_results, p_table = bundled_runs["pooled_paths"]
    assert s_results.read_bytes() == p_results.read_bytes()
    assert s_table.read_bytes() == p_table.read_bytes()
    # and the serial results.json is the regression oracle's recorded one
    digest = hashlib.sha256(s_results.read_bytes()).hexdigest()
    assert digest == load_oracle().recorded()["results.json"]


def test_gate_09_model_reductions():
    X, y = make_blobs(
        n_per_class=20,
        centers=((0.0, 0.0), (3.0, 1.0), (1.0, 4.0)),
        spread=1.1,
        seed=77,
    )
    # one tree over all features collapses to a plain tree on aligned features
    forest = DirectionalForest(n_estimators=1, max_features=None, seed=21)
    forest.fit(X, y)
    aligned = X * forest.directions_
    tree = DecisionTree(seed=0).fit(aligned, y)
    rng = np.random.default_rng(906)
    probe = rng.normal(1.0, 2.0, (40, 2))
    assert forest.predict(probe).tolist() == tree.predict(probe * forest.directions_).tolist()
    assert forest.predict(X).tolist() == tree.predict(aligned).tolist()

    # forest probabilities are convex combinations of leaf distributions
    rf = RandomForest(n_estimators=10, seed=5).fit(X, y)
    proba = rf.predict_proba(X)
    assert np.all(proba >= 0.0)
    assert float(np.max(np.abs(proba.sum(axis=1) - 1.0))) <= 1e-9

    # vote ties resolve to the lowest class index
    votes = np.asarray([[0, 1, 1, 0], [2, 1, 2, 1], [3, 3, 0, 0]])
    assert plurality_vote(votes).tolist() == [0, 1, 0]
