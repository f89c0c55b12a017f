"""Benchmark harness: ingestion, registry, scoring math, grid evaluation."""

import csv
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from infbench.baselearners import DecisionTree, LogisticRegression
from infbench.bench import (
    EvalProtocol,
    ScoreTable,
    TableEncoder,
    aggregate_minmax,
    average_rank,
    build_leaderboard,
    cell_seed,
    encode_table,
    evaluate_model_on_dataset,
    infer_kinds,
    ingest_csv,
    load_registry,
    minmax_normalize,
    normalize_table,
    read_csv,
    render_leaderboard,
    result_document,
    run_benchmark,
    write_artifacts,
)
from infbench.bench import evaluate
from infbench.bench.ingest import MISSING_CATEGORY
from infbench.bench.registry import bundled_manifest_path
from infbench.bench.scoring import Leaderboard, LeaderboardRow, _fractional_ranks
from infbench.core import Estimator, derive_seed
from infbench.errors import (
    DegenerateTarget,
    DuplicateId,
    IncompleteGrid,
    InfbenchError,
    IngestError,
    MissingFile,
    SchemaMismatch,
    UnknownColumn,
    UnparseableCell,
)
from infbench.metasynthesis import MetaSynthesisClassifier


# ---------------------------------------------------------------- ingestion

def test_one_hot_sorted_categories():
    header = ["color", "label"]
    rows = [["b", "x"], ["a", "y"], ["b", "x"]]
    data = encode_table("t", header, rows, "label", {"color": "categorical"})
    assert data.feature_names == ["color=a", "color=b"]
    assert data.X.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_median_imputation():
    header = ["v", "label"]
    rows = [["1", "x"], ["", "y"], ["3", "x"]]
    data = encode_table("t", header, rows, "label", {"v": "numeric"})
    assert data.encoder.medians["v"] == 2.0
    assert data.X[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_all_blank_numeric_column_defaults_zero():
    header = ["v", "w", "label"]
    rows = [["", "1", "x"], [" ", "2", "y"]]
    data = encode_table(
        "t", header, rows, "label", {"v": "numeric", "w": "numeric"}
    )
    assert data.encoder.medians["v"] == 0.0
    assert data.X[:, 0].tolist() == [0.0, 0.0]


def test_missing_category_column_only_when_blank_at_fit():
    header = ["c", "label"]
    rows = [["a", "x"], ["", "y"], ["b", "x"]]
    data = encode_table("t", header, rows, "label", {"c": "categorical"})
    assert data.encoder.categories["c"] == ["a", "b", MISSING_CATEGORY]
    assert data.feature_names == ["c=a", "c=b", f"c={MISSING_CATEGORY}"]
    assert data.X[1].tolist() == [0.0, 0.0, 1.0]

    clean = encode_table(
        "t", header, [["a", "x"], ["b", "y"]], "label", {"c": "categorical"}
    )
    assert clean.encoder.categories["c"] == ["a", "b"]


def test_unknown_category_encodes_all_zero():
    header = ["c", "label"]
    enc = TableEncoder("label", ["c"], {"c": "categorical"})
    enc.fit(header, [["a", "x"], ["b", "y"]])
    out = enc.transform(header, [["zebra", "?"], ["a", "?"]])
    assert out.tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_blank_at_transform_without_missing_column_is_zero():
    header = ["c", "label"]
    enc = TableEncoder("label", ["c"], {"c": "categorical"})
    enc.fit(header, [["a", "x"], ["b", "y"]])
    out = enc.transform(header, [["", "?"]])
    assert out.tolist() == [[0.0, 0.0]]


def test_unparseable_cell_reports_position():
    header = ["v", "label"]
    for cell in ("abc", "nan", "inf", "-Infinity", "NaN"):
        rows = [["1", "x"], [cell, "y"]]
        with pytest.raises(UnparseableCell) as err:
            encode_table("t", header, rows, "label", {"v": "numeric"})
        assert err.value.column == "v"
        assert err.value.row == 2
        assert err.value.value == cell


def test_degenerate_target_rejected():
    header = ["v", "label"]
    rows = [["1", "x"], ["2", "x"]]
    with pytest.raises(DegenerateTarget):
        encode_table("t", header, rows, "label", {"v": "numeric"})


def test_row_order_preserved():
    header = ["v", "label"]
    rows = [[str(i), "x" if i % 2 else "y"] for i in range(10)]
    data = encode_table("t", header, rows, "label", {"v": "numeric"})
    assert data.X[:, 0].tolist() == [float(i) for i in range(10)]
    assert list(data.y) == ["x" if i % 2 else "y" for i in range(10)]


def test_feature_columns_follow_header_order():
    header = ["b", "a", "label"]
    rows = [["1", "10", "x"], ["2", "20", "y"]]
    data = encode_table(
        "t", header, rows, "label", {"a": "numeric", "b": "numeric"}
    )
    assert data.feature_names == ["b", "a"]
    assert data.X[0].tolist() == [1.0, 10.0]


def test_encoder_roundtrip():
    header = ["v", "c", "label"]
    rows = [["1", "a", "x"], ["", "", "y"], ["3", "b", "x"]]
    enc = TableEncoder(
        "label", ["v", "c"], {"v": "numeric", "c": "categorical"}
    ).fit(header, rows)
    clone = TableEncoder.from_dict(json.loads(json.dumps(enc.to_dict())))
    assert clone.transform(header, rows).tolist() == enc.transform(header, rows).tolist()
    assert clone.output_columns() == enc.output_columns()


@pytest.mark.parametrize("mutate, named", [
    pytest.param(lambda d: d["feature_columns"].clear(), "no feature columns",
                 id="no_columns"),
    pytest.param(lambda d: d["medians"].update(f1=float("nan")), "'f1'", id="nan_median"),
    pytest.param(lambda d: d["kinds"].pop("color"), "'color'", id="no_kind"),
    pytest.param(lambda d: d["categories"].pop("color"), "'color'", id="no_categories"),
    pytest.param(lambda d: d["categories"].update(color="red"), "'color'",
                 id="text_categories"),
    pytest.param(lambda d: d["categories"]["color"].append(3), "'color'",
                 id="number_category"),
])
def test_encoder_from_dict_names_the_bad_column(mutate, named):
    header = ["f1", "color", "label"]
    rows = [["1.5", "red", "a"], ["2.5", "blue", "b"]]
    d = encode_table("d", header, rows, "label",
                     {"f1": "numeric", "color": "categorical"}).encoder.to_dict()
    mutate(d)
    with pytest.raises(IngestError) as err:
        TableEncoder.from_dict(d)
    assert "encoding" in str(err.value) and named in str(err.value)


def test_schema_mismatch_on_missing_column():
    enc = TableEncoder("label", ["v"], {"v": "numeric"})
    enc.fit(["v", "label"], [["1", "x"], ["2", "y"]])
    with pytest.raises(SchemaMismatch) as err:
        enc.transform(["w", "label"], [["1", "?"]])
    assert err.value.column == "v"


def test_unknown_target_column():
    with pytest.raises(UnknownColumn) as err:
        encode_table("t", ["v", "label"], [["1", "x"]], "target", {"v": "numeric"})
    assert err.value.column == "target"


def test_unknown_schema_column():
    with pytest.raises(UnknownColumn):
        encode_table(
            "t", ["v", "label"], [["1", "x"], ["2", "y"]],
            "label", {"v": "numeric", "ghost": "numeric"},
        )


def test_infer_kinds():
    header = ["a", "b", "c", "label"]
    rows = [
        ["1.5", "red", "", "x"],
        ["", "blue", "7", "y"],
        ["-2e3", "3", "oops", "x"],
    ]
    kinds = infer_kinds(header, rows, "label")
    assert kinds == {"a": "numeric", "b": "categorical", "c": "categorical"}


def test_read_csv_rejects_empty_and_ragged(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestError):
        read_csv(empty)

    headed = tmp_path / "headed.csv"
    headed.write_text("a,b\n")
    with pytest.raises(IngestError):
        read_csv(headed)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(IngestError):
        read_csv(ragged)


# ----------------------------------------------------------------- registry

def write_dataset_csv(path, rows, header=("f1", "f2", "label")):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def separable_rows(n_per_class=12, offset=4.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_per_class):
        rows.append([f"{rng.normal(0, 0.5):.4f}", f"{rng.normal(0, 0.5):.4f}", "neg"])
        rows.append([
            f"{rng.normal(offset, 0.5):.4f}",
            f"{rng.normal(offset, 0.5):.4f}",
            "pos",
        ])
    return rows


def make_manifest(tmp_path, entries):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"datasets": entries}, indent=2))
    return manifest


@pytest.fixture
def tiny_registry(tmp_path):
    write_dataset_csv(tmp_path / "a.csv", separable_rows(seed=1))
    rng = np.random.default_rng(2)
    b_rows = []
    for i in range(24):
        color = "red" if i % 2 else "blue"
        label = "pos" if i % 2 else "neg"
        b_rows.append([color, f"{rng.normal():.4f}", label])
    write_dataset_csv(tmp_path / "b.csv", b_rows, header=("color", "noise", "label"))
    manifest = make_manifest(tmp_path, [
        {
            "id": "alpha",
            "path": "a.csv",
            "target_column": "label",
            "columns": {"f1": "numeric", "f2": "numeric"},
            "note": "two separated blobs",
        },
        {
            "id": "beta",
            "path": "b.csv",
            "target_column": "label",
            "columns": {"color": "categorical", "noise": "numeric"},
        },
    ])
    return manifest


def test_load_registry_valid(tiny_registry):
    specs = load_registry(tiny_registry)
    assert [s.dataset_id for s in specs] == ["alpha", "beta"]
    assert specs[0].kinds == {"f1": "numeric", "f2": "numeric"}
    assert specs[0].note == "two separated blobs"
    assert specs[1].note == ""
    assert specs[0].path.is_file()
    data = ingest_csv(specs[0])
    assert data.X.shape == (24, 2)


def test_registry_duplicate_id(tmp_path):
    write_dataset_csv(tmp_path / "a.csv", separable_rows())
    manifest = make_manifest(tmp_path, [
        {"id": "same", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "numeric"}},
        {"id": "same", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "numeric"}},
    ])
    with pytest.raises(DuplicateId):
        load_registry(manifest)


def test_registry_missing_file(tmp_path):
    manifest = make_manifest(tmp_path, [
        {"id": "x", "path": "ghost.csv", "target_column": "label", "columns": {}},
    ])
    with pytest.raises(MissingFile):
        load_registry(manifest)
    with pytest.raises(MissingFile):
        load_registry(tmp_path / "never_written.json")


def test_registry_unknown_columns(tmp_path):
    """The registry does not open the files; ingest checks their columns."""
    write_dataset_csv(tmp_path / "a.csv", separable_rows())
    for target, columns, missing in [("wrong", {"f1": "numeric"}, "wrong"),
                                     ("label", {"ghost": "numeric"}, "ghost")]:
        manifest = make_manifest(tmp_path, [
            {"id": "x", "path": "a.csv", "target_column": target, "columns": columns},
        ])
        [spec] = load_registry(manifest)
        assert (spec.target_column, spec.kinds) == (target, columns)
        with pytest.raises(UnknownColumn) as err:
            ingest_csv(spec)
        assert str(err.value) == f"column {missing!r} not found in dataset 'x'"


def test_registry_loads_a_csv_that_is_not_utf8(tmp_path):
    bad = tmp_path / "a.csv"
    bad.write_bytes(b"\xff\xfef1,label\n1,neg\n2,pos\n")
    manifest = make_manifest(tmp_path, [
        {"id": "x", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "numeric"}},
    ])
    [spec] = load_registry(manifest)
    with pytest.raises(IngestError) as err:
        ingest_csv(spec)
    assert str(err.value) == f"{bad} is not UTF-8 text"


def test_registry_rejects_bad_kind(tmp_path):
    write_dataset_csv(tmp_path / "a.csv", separable_rows())
    manifest = make_manifest(tmp_path, [
        {"id": "x", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "ordinal"}},
    ])
    with pytest.raises(IngestError):
        load_registry(manifest)


@pytest.mark.parametrize("entry", [
    pytest.param({"path": "a.csv", "target_column": "label", "columns": {}}, id="no_id"),
    pytest.param({"id": "x", "path": "a.csv", "target_column": "label"}, id="no_columns"),
    pytest.param({"id": 7, "path": "a.csv", "target_column": "label", "columns": {}},
                 id="number_id"),
    pytest.param({"id": "x", "path": "a.csv", "target_column": "label",
                  "columns": ["f1"]}, id="columns_list"),
    pytest.param("a.csv", id="not_an_object"),
    pytest.param(None, id="empty"),
])
def test_registry_rejects_malformed_entry(tmp_path, entry):
    """A bad entry after a good one, or no entry at all (``None``)."""
    write_dataset_csv(tmp_path / "a.csv", separable_rows())
    good = {"id": "ok", "path": "a.csv", "target_column": "label",
            "columns": {"f1": "numeric"}}
    manifest = make_manifest(tmp_path, [] if entry is None else [good, entry])
    with pytest.raises(IngestError) as err:
        load_registry(manifest)
    named = "no datasets" if entry is None else "datasets[1]"
    assert str(manifest) in str(err.value) and named in str(err.value)


def test_registry_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(IngestError):
        load_registry(bad)
    nolist = tmp_path / "nolist.json"
    nolist.write_text(json.dumps({"data": []}))
    with pytest.raises(IngestError):
        load_registry(nolist)


# ------------------------------------------------------------- scoring math

def test_minmax_frozen_example():
    out = minmax_normalize({"a": 0.5, "b": 0.75, "c": 1.0})
    assert out == {"a": 0.0, "b": 0.5, "c": 1.0}


def test_minmax_degenerate_all_tie():
    out = minmax_normalize({"a": 0.9, "b": 0.9, "c": 0.9})
    assert out == {"a": 1.0, "b": 1.0, "c": 1.0}


def test_minmax_needs_two_models():
    with pytest.raises(InfbenchError):
        minmax_normalize({"a": 0.5})


def test_minmax_affine_invariance():
    rng = np.random.default_rng(50)
    for _ in range(50):
        scores = {f"m{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, 4))}
        scale, shift = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
        mapped = {m: scale * s + shift for m, s in scores.items()}
        base = minmax_normalize(scores)
        moved = minmax_normalize(mapped)
        for m in scores:
            assert abs(base[m] - moved[m]) <= 1e-9


def test_aggregate_frozen_example():
    table = ScoreTable(model_ids=["a", "b"], dataset_ids=["d1", "d2"])
    table.raw = {
        ("a", "d1"): 0.6, ("b", "d1"): 0.8,
        ("a", "d2"): 1.0, ("b", "d2"): 0.5,
    }
    agg = aggregate_minmax(table)
    assert agg == {"a": 0.5, "b": 0.5}  # each wins one dataset outright


def test_fractional_ranks_frozen():
    assert _fractional_ranks({"a": 0.9, "b": 0.9, "c": 0.1}) == {
        "a": 1.5, "b": 1.5, "c": 3.0,
    }
    assert _fractional_ranks({"a": 0.2, "b": 0.9, "c": 0.5}) == {
        "a": 3.0, "b": 1.0, "c": 2.0,
    }
    assert _fractional_ranks({"a": 1.0, "b": 1.0, "c": 1.0}) == {
        "a": 2.0, "b": 2.0, "c": 2.0,
    }


def test_average_rank_frozen():
    table = ScoreTable(model_ids=["a", "b"], dataset_ids=["d1", "d2"])
    table.raw = {
        ("a", "d1"): 0.6, ("b", "d1"): 0.8,
        ("a", "d2"): 0.9, ("b", "d2"): 0.9,
    }
    assert average_rank(table) == {"a": 1.75, "b": 1.25}


def test_incomplete_grid_names_cell():
    table = ScoreTable(model_ids=["a", "b"], dataset_ids=["d1"])
    table.raw = {("a", "d1"): 0.5}
    with pytest.raises(IncompleteGrid) as err:
        aggregate_minmax(table)
    assert err.value.model_id == "b"
    assert err.value.dataset_id == "d1"


def test_aggregate_enumeration_order_free():
    rng = np.random.default_rng(51)
    models = ["m1", "m2", "m3", "m4"]
    datasets = ["d1", "d2", "d3"]
    raw = {
        (m, d): float(rng.uniform())
        for m in models for d in datasets
    }
    fwd = ScoreTable(model_ids=models, dataset_ids=datasets, raw=raw)
    rev = ScoreTable(
        model_ids=models[::-1], dataset_ids=datasets[::-1], raw=dict(raw)
    )
    a, b = aggregate_minmax(fwd), aggregate_minmax(rev)
    for m in models:
        assert a[m] == b[m]
    ra, rb = average_rank(fwd), average_rank(rev)
    for m in models:
        assert ra[m] == rb[m]


# exact-arithmetic reimplementation of the scoring pipeline
def oracle_normalize(scores):
    lo, hi = min(scores.values()), max(scores.values())
    if hi == lo:
        return {m: 1.0 for m in scores}
    return {m: (v - lo) / (hi - lo) for m, v in scores.items()}


def oracle_mean(values):
    total = Fraction(0)
    for v in values:
        total += Fraction(v)
    return float(total) / len(values)


def oracle_ranks(scores):
    ordered = sorted(scores.items(), key=lambda kv: -kv[1])
    ranks = {}
    pos = 0
    while pos < len(ordered):
        block = [ordered[pos]]
        while pos + len(block) < len(ordered) and \
                ordered[pos + len(block)][1] == ordered[pos][1]:
            block.append(ordered[pos + len(block)])
        positions = range(pos + 1, pos + len(block) + 1)
        shared = float(Fraction(sum(positions), len(block)))
        for m, _ in block:
            ranks[m] = shared
        pos += len(block)
    return ranks


def test_scoring_matches_exact_oracle():
    rng = np.random.default_rng(52)
    for trial in range(300):
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


# -------------------------------------------------------------- leaderboard

def test_leaderboard_ordering_and_dense_ranks():
    table = ScoreTable(
        model_ids=["delta", "alpha", "carol", "bob"],
        dataset_ids=["d1", "d2"],
    )
    # identical rows for alpha and bob force a tie on every dataset
    table.raw = {
        ("alpha", "d1"): 0.8, ("alpha", "d2"): 0.6,
        ("bob", "d1"): 0.8, ("bob", "d2"): 0.6,
        ("carol", "d1"): 1.0, ("carol", "d2"): 1.0,
        ("delta", "d1"): 0.0, ("delta", "d2"): 0.0,
    }
    board = build_leaderboard(table, {"carol": "user"})
    assert [r.model_id for r in board.rows] == ["carol", "alpha", "bob", "delta"]
    assert [r.rank for r in board.rows] == [1, 2, 2, 3]
    assert board.rows[0].generator == "user"
    assert board.rows[1].generator == "baseline"
    assert board.n_datasets == 2


def test_render_leaderboard_display_format():
    board = Leaderboard(rows=[
        LeaderboardRow(1, "MetaSynthesisClassifier", 0.9474, 1.33, "user"),
        LeaderboardRow(2, "DirectionalForest", 0.8123, 2.5, "system"),
        LeaderboardRow(3, "RandomForest", 0.8, 2.17, "baseline"),
    ], n_datasets=6)
    text = render_leaderboard(board)
    lines = text.splitlines()
    assert lines[0].split() == ["Rank", "Model", "MinMax", "Generator"]
    assert set(lines[1]) == {"-", " "}
    assert lines[2] == "   1  MetaSynthesisClassifier  0.9474  User"
    assert lines[3].split() == ["2", "DirectionalForest", "0.8123", "System"]
    assert lines[4].split() == ["3", "RandomForest", "0.8000", "Baseline"]
    assert text.endswith("\n")


# -------------------------------------------------------------- grid runner

class Broken(Estimator):
    kind = "broken"

    def __init__(self, seed=None):
        self.seed = seed

    def fresh_clone(self, seed=None):
        return Broken(seed)

    def fit(self, X, y):
        raise ValueError("refuses every dataset")

    def predict(self, X):
        raise AssertionError("unreachable")


def real_models():
    return {
        "decision_tree": (DecisionTree(), "baseline"),
        "logistic_regression": (LogisticRegression(max_iter=200), "baseline"),
    }


def test_cell_seed_streams():
    assert cell_seed(42, "a", "d") == cell_seed(42, "a", "d")
    seeds = {
        cell_seed(42, m, d)
        for m in ("m1", "m2", "m3")
        for d in ("d1", "d2", "d3")
    }
    assert len(seeds) == 9
    assert cell_seed(41, "m1", "d1") != cell_seed(42, "m1", "d1")


def test_protocol_validation():
    with pytest.raises(InfbenchError):
        EvalProtocol(folds=1)


@pytest.mark.parametrize("name, value", [("folds", 2.5), ("folds", True), ("seed", "x")])
def test_protocol_settings_follow_the_integer_rule(name, value):
    with pytest.raises(InfbenchError, match=f"{name}={value!r}, need {name} "):
        EvalProtocol(**{name: value})


def test_evaluate_separable_dataset(tiny_registry):
    specs = load_registry(tiny_registry)
    data = ingest_csv(specs[0])
    protocol = EvalProtocol(folds=3, seed=11)
    acc = evaluate_model_on_dataset(DecisionTree(), data, protocol)
    assert acc >= 0.9
    again = evaluate_model_on_dataset(DecisionTree(), data, protocol)
    assert acc == again


def test_run_benchmark_complete_grid(tiny_registry, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    specs = load_registry(tiny_registry)
    protocol = EvalProtocol(folds=3, seed=7)
    result = run_benchmark(specs, real_models(), protocol)
    assert result.ok
    assert sorted(result.table.model_ids) == [
        "decision_tree", "logistic_regression",
    ]
    for key, accs in result.fold_accuracies.items():
        assert len(accs) == 3
        assert all(0.0 <= a <= 1.0 for a in accs)
    assert result.leaderboard is not None
    assert len(result.leaderboard.rows) == 2
    assert result.datasets[0] == ("alpha", 24, 2, 2)
    assert result.datasets[1][0] == "beta"

    doc = result_document(result)
    assert doc["format_version"] == 1
    assert doc["kind"] == "bench_results"
    assert doc["timestamp"] == "2023-11-14T22:13:20Z"
    assert doc["protocol"] == {"folds": 3, "metric": "accuracy", "seed": 7}
    assert doc["failures"] == []
    assert set(doc["raw_scores"]) == {"decision_tree", "logistic_regression"}

    again = result_document(run_benchmark(specs, real_models(), protocol))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_results_path_draws_no_numpy_generator(tiny_registry, monkeypatch):
    # folds, bootstraps and feature subsets are all SplitMix64 hashes
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    specs = load_registry(tiny_registry)
    data = ingest_csv(specs[0])
    MetaSynthesisClassifier(cv=3, seed=5).fit(data.X, data.y)
    models = {**real_models(), "meta_synthesis": (MetaSynthesisClassifier(cv=3), "user")}
    result = run_benchmark(specs, models, EvalProtocol(folds=3, seed=7))
    assert result.ok


@pytest.mark.parametrize("empty", ["specs", "models"])
def test_run_benchmark_rejects_an_empty_grid(tiny_registry, empty):
    specs, models = load_registry(tiny_registry), real_models()
    if empty == "specs":
        specs = []
    else:
        models = {}
    with pytest.raises(InfbenchError, match="at least one dataset and one model"):
        run_benchmark(specs, models, EvalProtocol(folds=3, seed=1))


def test_run_benchmark_workers_identical(tiny_registry, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    specs = load_registry(tiny_registry)
    protocol = EvalProtocol(folds=3, seed=7)
    serial = run_benchmark(specs, real_models(), protocol, workers=1)
    pooled = run_benchmark(specs, real_models(), protocol, workers=2)
    a = json.dumps(result_document(serial), sort_keys=True, indent=2)
    b = json.dumps(result_document(pooled), sort_keys=True, indent=2)
    assert a == b


def test_partial_failure_excludes_model(tiny_registry):
    specs = load_registry(tiny_registry)
    models = real_models()
    models["broken"] = (Broken(), "user")
    result = run_benchmark(specs, models, EvalProtocol(folds=3, seed=7))
    assert not result.ok
    assert len(result.failures) == 2  # one per dataset
    assert all(f["model"] == "broken" for f in result.failures)
    assert "ValueError" in result.failures[0]["error"]
    assert "broken" not in result.table.model_ids
    assert result.leaderboard is not None
    assert [r.model_id for r in result.leaderboard.rows] != []
    assert all(r.model_id != "broken" for r in result.leaderboard.rows)
    doc = result_document(result)
    assert {m["id"] for m in doc["models"]} == set(models)
    assert "broken" not in doc["raw_scores"]
    assert len(doc["failures"]) == 2


def test_single_survivor_skips_leaderboard(tiny_registry, tmp_path):
    specs = load_registry(tiny_registry)
    models = {
        "decision_tree": (DecisionTree(), "baseline"),
        "broken": (Broken(), "user"),
    }
    result = run_benchmark(specs, models, EvalProtocol(folds=3, seed=7))
    assert result.leaderboard is None
    doc = result_document(result)
    assert doc["minmax"] == {}
    assert doc["leaderboard"] == []
    assert doc["normalized_scores"] == {}
    assert doc["dataset_score_range"] == {}
    assert doc["average_rank"] == {}
    assert set(doc["raw_scores"]) == {"decision_tree"}
    out = tmp_path / "artifacts"
    results_path, table_path = write_artifacts(result, out)
    assert results_path.name == "results.json"
    assert "no leaderboard" in table_path.read_text()


def test_bench_run_scores_the_grid_once(tiny_registry, tmp_path, monkeypatch):
    from infbench.bench import evaluate, scoring

    calls = {"normalize_table": 0, "average_rank": 0}
    for name in calls:
        inner = getattr(scoring, name)

        def spy(table, inner=inner, name=name):
            calls[name] += 1
            return inner(table)

        # wherever the name is bound: the scoring module and any importer
        for module in (scoring, evaluate):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    result = run_benchmark(load_registry(tiny_registry), real_models(),
                           EvalProtocol(folds=3, seed=7))
    write_artifacts(result, tmp_path / "out")
    assert calls == {"normalize_table": 1, "average_rank": 1}


def test_small_class_failure_is_recorded(tmp_path):
    rows = separable_rows(n_per_class=12)
    rows = rows + [[f"{0.1 * i:.2f}", "0.0", "rare"] for i in range(2)]
    write_dataset_csv(tmp_path / "c.csv", rows)
    manifest = make_manifest(tmp_path, [
        {"id": "gamma", "path": "c.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
    ])
    specs = load_registry(manifest)
    result = run_benchmark(
        specs, real_models(), EvalProtocol(folds=5, seed=3)
    )
    # the rare class has 2 members < 5 folds: every model fails the dataset
    assert len(result.failures) == 2
    assert all("InsufficientClassMembers" in f["error"] for f in result.failures)
    assert result.leaderboard is None


def test_artifact_bytes_reproducible(tiny_registry, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    specs = load_registry(tiny_registry)
    protocol = EvalProtocol(folds=3, seed=7)
    p1, t1 = write_artifacts(
        run_benchmark(specs, real_models(), protocol), tmp_path / "one"
    )
    p2, t2 = write_artifacts(
        run_benchmark(specs, real_models(), protocol), tmp_path / "two"
    )
    assert p1.read_bytes() == p2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()
    assert t1.read_text().endswith("\n")
    doc = json.loads(p1.read_text())
    assert doc["timestamp"] == "2023-11-14T22:13:20Z"


class FailsOnSeeds(Estimator):
    """Predicts its first training label; refuses to fit under a seed in ``bad``."""

    kind = "fails_on_seeds"

    def __init__(self, seed=None, bad=()):
        self.seed, self.bad = seed, bad

    def fresh_clone(self, seed=None):
        return FailsOnSeeds(seed, self.bad)

    def fit(self, X, y):
        if self.seed in self.bad:
            raise ValueError("refuses this fold")
        self.label_ = y[0]
        return self

    def predict(self, X):
        return np.full(len(X), self.label_, dtype=object)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_cell_names_its_first_failing_fold(tiny_registry, workers):
    # fold k of a cell fits under derive_seed(cell seed, 1 + k): the model
    # fails fold 2 on beta, and folds 1 and 2 on alpha
    bad = tuple(derive_seed(cell_seed(7, "flaky", d), 1 + k)
                for d, k in [("alpha", 2), ("alpha", 1), ("beta", 2)])
    models = {**real_models(), "flaky": (FailsOnSeeds(bad=bad), "user")}
    result = run_benchmark(load_registry(tiny_registry), models,
                           EvalProtocol(folds=3, seed=7), workers=workers)
    assert result.failures == [
        {"model": "flaky", "dataset": d,
         "error": f"EvaluationError: model 'flaky' on dataset '{d}', fold {k}: "
                  "ValueError: refuses this fold"}
        for d, k in [("alpha", 1), ("beta", 2)]
    ]
    assert "flaky" not in result.table.model_ids
    assert sorted(result.table.model_ids) == ["decision_tree", "logistic_regression"]


class WarnsOnSeeds(FailsOnSeeds):
    """Predicts its first training label; warns when it fits under a seed in ``bad``."""

    kind = "warns_on_seeds"

    def fresh_clone(self, seed=None):
        return WarnsOnSeeds(seed, self.bad)

    def fit(self, X, y):
        if self.seed in self.bad:
            warnings.warn("this fold warns", UserWarning)
        self.label_ = y[0]
        return self


def test_a_fold_warning_that_is_not_about_convergence_is_shown_once(tiny_registry, caplog):
    bad = (derive_seed(cell_seed(7, "warns", "alpha"), 1 + 2),)  # fold 2 on alpha
    models = {**real_models(), "warns": (WarnsOnSeeds(bad=bad), "user")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_benchmark(load_registry(tiny_registry), models, EvalProtocol(folds=3, seed=7))
    assert result.ok
    assert [str(w.message) for w in caught if w.category is UserWarning] == ["this fold warns"]
    assert not [r for r in caplog.records if r.levelname == "WARNING"]  # no unconverged cells


def test_pooled_fold_accuracies_keep_fold_order():
    specs = [s for s in load_registry(bundled_manifest_path())
             if s.dataset_id in ("gauss3", "colors_cat")]
    models = {"decision_tree": (DecisionTree(), "baseline")}
    result = run_benchmark(specs, models, EvalProtocol(folds=5, seed=3), workers=2)
    uneven = 0
    for spec in specs:
        d = spec.dataset_id
        seed = cell_seed(3, "decision_tree", d)
        want = [evaluate._fold_accuracy(DecisionTree(), ingest_csv(spec), 5, seed, k,
                                        "decision_tree", d) for k in range(5)]
        assert result.fold_accuracies[("decision_tree", d)] == want
        uneven += len(set(want)) > 1
    assert uneven  # the folds' accuracies differ, so their order shows


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size and maps in
    this process, starting no worker."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_the_pool_starts_no_more_workers_than_tasks(tiny_registry, monkeypatch):
    monkeypatch.setattr(evaluate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    specs = load_registry(tiny_registry)
    models = {"decision_tree": (DecisionTree(), "baseline")}
    protocol = EvalProtocol(folds=3, seed=7)  # 2 datasets x 3 folds: 6 tasks
    serial = run_benchmark(specs, models, protocol)
    for workers in (2, 6, 9):
        pooled = run_benchmark(specs, models, protocol, workers=workers)
        assert pooled.fold_accuracies == serial.fold_accuracies
    assert RecordingPool.sizes == [2, 6, 6]
