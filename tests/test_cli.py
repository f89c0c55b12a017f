"""Command-line behavior: exit codes, artifacts, train/predict round trip."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infbench
from infbench.baselearners.tree import MAX_SAVED_DEPTH
from infbench.cli import main
from infbench.metasynthesis import MetaSynthesisClassifier
from infbench.models import MODELS


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def blob_rows(n_per_class=12, offset=4.0, seed=1):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_per_class):
        rows.append([f"{rng.normal(0, 0.5):.4f}", f"{rng.normal(0, 0.5):.4f}", "neg"])
        rows.append([
            f"{rng.normal(offset, 0.5):.4f}",
            f"{rng.normal(offset, 0.5):.4f}",
            "pos",
        ])
    return rows


@pytest.fixture
def registry(tmp_path):
    write_csv(tmp_path / "a.csv", ["f1", "f2", "label"], blob_rows(seed=1))
    write_csv(tmp_path / "b.csv", ["f1", "f2", "label"], blob_rows(seed=2, offset=3.0))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "alpha", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
        {"id": "beta", "path": "b.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
    ]}))
    return manifest


def test_list_models_table(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for model_id in MODELS:
        assert model_id in out


def test_list_models_machine(capsys):
    assert main(["list-models", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["id"] for e in doc} == set(MODELS)
    for e in doc:
        assert e["generator"] in ("user", "system", "baseline")
        assert "defaults" in e and "description" in e


def test_list_models_defaults_are_the_constructor_defaults(capsys):
    assert main(["list-models", "--format", "machine"]) == 0
    listed = {e["id"]: e["defaults"] for e in json.loads(capsys.readouterr().out)}
    for model_id, entry in MODELS.items():
        est = entry.factory()
        expected = est.hyperparams()
        if isinstance(est, MetaSynthesisClassifier):
            expected["bases"] = [b.kind for b in est.base_estimators]
            expected["meta"] = est.meta_estimator.kind
        assert listed[model_id] == expected


def run_python(*args):
    """``python args`` in a child process, on this package."""
    src = str(Path(infbench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def run_cli(*argv):
    """``python -m infbench.cli argv`` in a child process, on this package."""
    return run_python("-m", "infbench.cli", *argv)


def test_module_entry_point_runs():
    proc = run_cli("list-models")
    assert proc.returncode == 0
    for model_id in MODELS:
        assert model_id in proc.stdout


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["list-models", "--bogus"])
    assert err.value.code == 1


def test_no_command_exits_1():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_unknown_model_selection_exits_1(registry, tmp_path):
    code = main([
        "bench", "--registry", str(registry), "--models", "ghost",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1


def test_missing_registry_exits_1(tmp_path):
    code = main([
        "bench", "--registry", str(tmp_path / "ghost.json"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1


def test_bench_writes_artifacts(registry, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "bench", "--registry", str(registry),
        "--models", "decision_tree,logistic_regression",
        "--folds", "3", "--seed", "7", "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "results.json").is_file()
    assert (out_dir / "leaderboard.txt").is_file()
    out = capsys.readouterr().out
    assert out == (out_dir / "leaderboard.txt").read_text()
    assert out.splitlines()[0].split() == ["Rank", "Model", "MinMax", "Generator"]

    doc = json.loads((out_dir / "results.json").read_text())
    assert doc["kind"] == "bench_results"
    assert doc["protocol"]["seed"] == 7
    assert {m["id"] for m in doc["models"]} == {
        "decision_tree", "logistic_regression",
    }


def test_bench_machine_format_streams_json(registry, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "bench", "--registry", str(registry),
        "--models", "decision_tree,logistic_regression",
        "--folds", "3", "--seed", "7", "--out", str(out_dir),
        "--format", "machine",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out == (out_dir / "results.json").read_text()
    assert json.loads(out)["kind"] == "bench_results"


def test_bench_partial_failure_exits_2(registry, tmp_path):
    # a class with 2 members cannot stratify into 5 folds; every cell on that
    # dataset fails while the benchmark itself still completes
    rows = blob_rows(seed=3) + [["9.0", "9.0", "rare"], ["9.1", "9.1", "rare"]]
    write_csv(tmp_path / "c.csv", ["f1", "f2", "label"], rows)
    manifest = tmp_path / "with_rare.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "alpha", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
        {"id": "gamma", "path": "c.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
    ]}))
    code = main([
        "bench", "--registry", str(manifest),
        "--models", "decision_tree,logistic_regression",
        "--folds", "5", "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    doc = json.loads((tmp_path / "out" / "results.json").read_text())
    assert len(doc["failures"]) == 2
    assert {f["dataset"] for f in doc["failures"]} == {"gamma"}


# run_benchmark as cmd_bench_run calls it, with the CLI's log format, in a
# child process so that whatever pool workers write to stderr is seen too
POOLED_UNCONVERGED = """
import logging, sys
from infbench.baselearners import LogisticRegression
from infbench.bench.evaluate import EvalProtocol, run_benchmark
from infbench.bench.registry import load_registry
logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                    format="%(levelname)s %(name)s: %(message)s")
# one Newton step cannot converge, so every cell stops at max_iter
models = {"logistic_regression": (LogisticRegression(max_iter=1), "baseline")}
result = run_benchmark(load_registry(sys.argv[1]), models,
                       EvalProtocol(folds=3, seed=7), workers=2)
sys.exit(0 if result.ok else 2)
"""


def test_pooled_bench_reports_unconverged_cells_once(registry):
    proc = run_python("-c", POOLED_UNCONVERGED, str(registry))
    assert proc.returncode == 0, proc.stderr
    err = proc.stderr.splitlines()
    stopped = [line for line in err if "max_iter" in line]
    assert len(stopped) == 1
    assert stopped[0].startswith("WARNING infbench.bench: ")
    assert "in 2 cells: logistic_regression on alpha, logistic_regression on beta" in stopped[0]
    assert not any("warnings.warn(" in line for line in err)


def test_bench_bad_workers_exits_1(registry, tmp_path):
    code = main([
        "bench", "--registry", str(registry), "--workers", "0",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1


def test_train_predict_round_trip(registry, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--model", "decision_tree",
        "--data", str(tmp_path / "a.csv"),
        "--target", "label", "--out", str(model_path), "--seed", "5",
    ])
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "model_artifact"
    assert doc["model_id"] == "decision_tree"
    assert doc["estimator"]["kind"] == "decision_tree"
    capsys.readouterr()

    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "a.csv"),
    ])
    assert code == 0
    predicted = capsys.readouterr().out.splitlines()
    with open(tmp_path / "a.csv") as f:
        truth = [row["label"] for row in csv.DictReader(f)]
    assert predicted == truth  # distinct rows: a full tree memorizes

    pred_path = tmp_path / "pred.txt"
    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "a.csv"), "--out", str(pred_path),
    ])
    assert code == 0
    assert pred_path.read_text().splitlines() == truth


def test_train_unknown_model_exits_1(registry, tmp_path):
    code = main([
        "train", "--model", "ghost", "--data", str(tmp_path / "a.csv"),
        "--target", "label", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 1


def test_train_unknown_target_exits_1(registry, tmp_path, capsys):
    data = tmp_path / "a.csv"
    code = main([
        "train", "--model", "decision_tree", "--data", str(data),
        "--target", "ghost", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "'ghost'" in err[0] and str(data) in err[0]


def test_predict_missing_column_exits_1(registry, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main([
        "train", "--model", "decision_tree",
        "--data", str(tmp_path / "a.csv"),
        "--target", "label", "--out", str(model_path),
    ])
    write_csv(tmp_path / "narrow.csv", ["f1", "label"], [["0.1", "?"]])
    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "narrow.csv"),
    ])
    assert code == 1
    assert "f2" in capsys.readouterr().err


def test_predict_rejects_future_format_version(registry, tmp_path):
    model_path = tmp_path / "model.json"
    main([
        "train", "--model", "decision_tree",
        "--data", str(tmp_path / "a.csv"),
        "--target", "label", "--out", str(model_path),
    ])
    doc = json.loads(model_path.read_text())
    doc["format_version"] = 2
    model_path.write_text(json.dumps(doc))
    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "a.csv"),
    ])
    assert code == 1


@pytest.mark.parametrize("text", ["[]", '"x"', "3"])
def test_predict_artifact_that_is_not_an_object_exits_1(tmp_path, capsys, text):
    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    write_csv(tmp_path / "a.csv", ["f1", "f2"], [["1", "2"]])
    capsys.readouterr()
    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "a.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(model_path) in err[0] and "not a model artifact" in err[0]


BAD_CSVS = [
    pytest.param(b"\xff\xfef1,f2,label\n1,2,neg\n", "not UTF-8", id="not-utf8"),
    pytest.param(b"f1,f1,label\n1,80,neg\n7,20,pos\n", "'f1' more than once",
                 id="duplicate-column"),
    pytest.param(b"f1,f2,label\n1,80,neg\n7," + b"2" * 200_000 + b",pos\n",
                 "line 3: field larger than field limit", id="field-too-large"),
]


@pytest.mark.parametrize("command", ["train", "predict", "bench"])
@pytest.mark.parametrize("content, message", BAD_CSVS)
def test_unreadable_csv_exits_1_with_one_line(registry, tmp_path, capsys, command,
                                              content, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    model_path = tmp_path / "model.json"
    if command == "train":
        argv = ["train", "--model", "decision_tree", "--data", str(bad),
                "--target", "label", "--out", str(model_path)]
    elif command == "bench":
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"datasets": [
            {"id": "bad", "path": "bad.csv", "target_column": "label",
             "columns": {"f2": "numeric"}},
        ]}))
        argv = ["bench", "--registry", str(manifest), "--out", str(tmp_path / "out")]
    else:
        main(["train", "--model", "decision_tree", "--data", str(tmp_path / "a.csv"),
              "--target", "label", "--out", str(model_path)])
        argv = ["predict", "--model-file", str(model_path), "--data", str(bad)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(bad) in err[0] and message in err[0]


def test_table_without_feature_columns_exits_1(registry, tmp_path, capsys):
    only_target = tmp_path / "only_target.csv"
    write_csv(only_target, ["label"], [["neg"], ["pos"]])
    manifest = tmp_path / "no_columns.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "bare", "path": "a.csv", "target_column": "label", "columns": {}},
    ]}))
    runs = [
        (["train", "--model", "decision_tree", "--data", str(only_target),
          "--target", "label", "--out", str(tmp_path / "model.json")], str(only_target)),
        (["bench", "--registry", str(manifest), "--out", str(tmp_path / "out")], "bare"),
    ]
    for argv, dataset in runs:
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "no feature columns" in err[0] and dataset in err[0]


FUZZ_NAMES = ["f1", "f2", "label", "", " f1"]
FUZZ_ODD_CELLS = ["", " ", "nan", "inf", "1e309", "\x00", '"x, y"', '"unclosed']


@st.composite
def fuzzed_csvs(draw):
    """Text of a CSV of at most 8 rows, with target column ``label``: rows may
    be ragged, cells blank, non-finite or badly quoted, the header duplicated,
    and the file may start with a byte-order mark.  Each file draws which of
    these faults it has, so that some files have none."""
    header = draw(st.one_of(st.just(["f1", "f2", "label"]),
                            st.lists(st.sampled_from(FUZZ_NAMES), min_size=1, max_size=4)))
    cells = st.sampled_from(["0", "1.5", "-2", "7", "a", "b"]
                            + draw(st.lists(st.sampled_from(FUZZ_ODD_CELLS), max_size=2)))
    labels = st.sampled_from(["a", "b"] + draw(st.lists(st.sampled_from(["", " "]),
                                                        max_size=1)))
    widths = st.integers(0, 5) if draw(st.integers(0, 3)) == 0 else st.just(len(header))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        width = draw(widths)
        rows.append([draw(labels if col == "label" else cells)
                     for col in (header + [""] * width)[:width]])
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(",".join(line) + "\n" for line in [header, *rows])


def _main_quietly(argv):
    """``main(argv)`` with its stdout and stderr captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def blob_model(tmp_path_factory):
    """A decision_tree artifact trained on f1, f2 -> label."""
    tmp = tmp_path_factory.mktemp("blob_model")
    write_csv(tmp / "a.csv", ["f1", "f2", "label"], blob_rows(seed=1))
    model = tmp / "model.json"
    code, err = _main_quietly(["train", "--model", "decision_tree", "--data",
                               str(tmp / "a.csv"), "--target", "label", "--out", str(model)])
    assert code == 0, err
    return model


@settings(max_examples=40, deadline=None)
@given(text=fuzzed_csvs())
def test_fuzzed_csv_exits_0_or_1_with_one_line(blob_model, text):
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "fuzz.csv", Path(tmp) / "model.json"
        data.write_text(text, encoding="utf-8")
        trained, err = _main_quietly(["train", "--model", "decision_tree", "--data", str(data),
                                      "--target", "label", "--out", str(model)])
        runs = [(trained, err), _main_quietly([
            "predict", "--model-file", str(model if trained == 0 else blob_model),
            "--data", str(data)])]
        for code, err in runs:
            assert code in (0, 1)
            assert "Traceback" not in err
            if code == 1:
                assert len(err.splitlines()) == 1, err


def test_blank_target_cell_exits_1_naming_its_row(registry, tmp_path, capsys):
    rows = blob_rows(seed=5)
    rows[2][2] = ""
    data = tmp_path / "blank.csv"
    write_csv(data, ["f1", "f2", "label"], rows)
    manifest = tmp_path / "blank.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "blank", "path": "blank.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
    ]}))
    runs = [
        (["train", "--model", "decision_tree", "--data", str(data),
          "--target", "label", "--out", str(tmp_path / "model.json")], str(data)),
        (["bench", "--registry", str(manifest), "--models", "decision_tree",
          "--out", str(tmp_path / "out")], "blank"),
    ]
    for argv, dataset in runs:
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"dataset {dataset}:" in err[0]
        assert "'label'" in err[0] and "data row 3" in err[0]


def _bench_with_one_bad_table(tmp_path, rows):
    """``bench`` over the good table ``a.csv`` and one with ``rows``, id ``bad``:
    (exit code, stderr lines)."""
    write_csv(tmp_path / "bad.csv", ["f1", "f2", "label"], rows)
    manifest = tmp_path / "one_bad.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": dataset_id, "path": path, "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}}
        for dataset_id, path in (("alpha", "a.csv"), ("bad", "bad.csv"))
    ]}))
    code, err = _main_quietly(["bench", "--registry", str(manifest),
                               "--models", "decision_tree", "--out", str(tmp_path / "out")])
    return code, err.splitlines()


def test_single_label_target_names_its_dataset_and_column(registry, tmp_path):
    code, err = _bench_with_one_bad_table(
        tmp_path, [[row[0], row[1], "neg"] for row in blob_rows(seed=4)])
    assert code == 1
    assert len(err) == 1
    assert "dataset bad: target column 'label' has 1 distinct label" in err[0]


def test_unparseable_cell_names_its_dataset(registry, tmp_path):
    rows = blob_rows(seed=4)
    rows[1][0] = "nan"
    code, err = _bench_with_one_bad_table(tmp_path, rows)
    assert code == 1
    assert len(err) == 1
    assert "dataset bad: column 'f1', data row 2: cannot parse 'nan'" in err[0]
    # predict names the CSV it was given
    model = tmp_path / "model.json"
    assert _main_quietly(["train", "--model", "decision_tree", "--data",
                          str(tmp_path / "a.csv"), "--target", "label",
                          "--out", str(model)])[0] == 0
    code, err = _main_quietly(["predict", "--model-file", str(model),
                               "--data", str(tmp_path / "bad.csv")])
    err = err.splitlines()
    assert code == 1
    assert len(err) == 1
    assert f"{tmp_path / 'bad.csv'}: column 'f1', data row 2: cannot parse 'nan'" in err[0]


def test_bench_out_that_is_a_file_exits_1_before_the_grid(registry, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code = main(["bench", "--registry", str(registry), "--models", "decision_tree",
                 "--folds", "2", "--seed", "7", "--out", str(taken)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(taken) in err[0]
    assert "benchmark:" not in err[0] and "evaluated" not in err[0]


@pytest.mark.parametrize("epoch", ["abc", "1.5", "", str(10**20)])
def test_malformed_source_date_epoch_exits_1_before_the_grid(registry, tmp_path, capsys,
                                                             monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "out"
    code = main(["bench", "--registry", str(registry), "--models", "decision_tree",
                 "--folds", "2", "--seed", "7", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"SOURCE_DATE_EPOCH is {epoch!r}" in err[0] and "evaluated" not in err[0]
    assert not (out / "results.json").exists()


def test_bench_on_a_missing_column_exits_1_without_results(registry, tmp_path, capsys):
    manifest = tmp_path / "ghost.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "alpha", "path": "a.csv", "target_column": "label",
         "columns": {"f1": "numeric"}},
        {"id": "m", "path": "b.csv", "target_column": "label",
         "columns": {"f1": "numeric", "ghost": "numeric"}},
    ]}))
    out = tmp_path / "out"
    code = main(["bench", "--registry", str(manifest), "--models", "decision_tree",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR infbench.cli: column 'ghost' not found in dataset 'm'"]
    assert not (out / "results.json").exists()


def test_empty_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"datasets": []}))
    code = main(["bench", "--registry", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(manifest) in err[0] and "no datasets" in err[0]


def test_byte_order_mark_csv_finds_its_first_column(tmp_path, capsys):
    # a spreadsheet export: UTF-8 with a leading byte-order mark
    data = tmp_path / "bom.csv"
    rows = [[label, f1, f2] for f1, f2, label in blob_rows(seed=4)]
    write_csv(data, ["label", "f1", "f2"], rows)
    data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--model", "decision_tree", "--data", str(data),
        "--target", "label", "--out", str(model_path), "--seed", "5",
    ]) == 0
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_path), "--data", str(data)]) == 0
    assert capsys.readouterr().out.splitlines() == [row[0] for row in rows]
    manifest = tmp_path / "bom.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "bom", "path": "bom.csv", "target_column": "label",
         "columns": {"f1": "numeric", "f2": "numeric"}},
    ]}))
    assert main([
        "bench", "--registry", str(manifest), "--models", "decision_tree",
        "--folds", "2", "--seed", "7", "--out", str(tmp_path / "out"),
    ]) == 0


def _state(doc):
    return doc["estimator"]["state"]


MALFORMED_ARTIFACTS = [
    pytest.param("decision_tree", lambda d: _state(d).pop("hyperparams"),
                 "hyperparams", id="hyperparams"),
    pytest.param("decision_tree", lambda d: _state(d).pop("classes"),
                 "classes", id="classes"),
    pytest.param("decision_tree", lambda d: _state(d).pop("tree"),
                 "tree", id="tree"),
    pytest.param("random_forest", lambda d: _state(d).pop("trees"),
                 "trees", id="trees"),
    pytest.param("decision_tree", lambda d: _state(d)["tree"].pop("root"),
                 "root", id="root"),
    pytest.param("random_forest", lambda d: _state(d).update(trees=[]),
                 "malformed", id="empty_trees"),
    pytest.param("decision_tree",
                 lambda d: _state(d)["hyperparams"].update(bogus=1),
                 "bogus", id="unknown_hyperparam"),
    pytest.param("decision_tree", lambda d: d.pop("encoding"),
                 "encoding", id="encoding"),
    pytest.param("decision_tree", lambda d: d["encoding"]["medians"].clear(),
                 "encoding", id="encoding_no_medians"),
    pytest.param("decision_tree", lambda d: d["encoding"]["kinds"].update(f1="weird"),
                 "encoding", id="encoding_unknown_kind"),
    pytest.param("decision_tree",
                 lambda d: d["encoding"]["kinds"].update(f2="categorical"),
                 "encoding", id="encoding_no_categories"),
    pytest.param("decision_tree", lambda d: d["encoding"]["medians"].update(f1="abc"),
                 "encoding", id="encoding_text_median"),
    pytest.param("decision_tree",
                 lambda d: _first_leaf(_state(d)["tree"]).update(counts=[1, 2, 3, 4]),
                 "counts", id="leaf_counts_width"),
    pytest.param("random_forest",
                 lambda d: _first_leaf(_state(d)["trees"][0]).update(counts=[3, -1]),
                 "counts", id="negative_counts"),
    pytest.param("decision_tree",
                 lambda d: _first_leaf(_state(d)["tree"]).update(counts=[1.7, 0]),
                 "counts", id="fractional_counts"),
    pytest.param("decision_tree",
                 lambda d: _state(d)["tree"]["root"].update(feature=2),
                 "feature", id="feature_out_of_range"),
    pytest.param("directional_forest",
                 lambda d: _state(d)["trees"][1]["root"].update(feature=-1),
                 "feature", id="negative_feature"),
    pytest.param("decision_tree",
                 lambda d: _state(d)["tree"]["root"].update(feature=1.5),
                 "feature", id="fractional_feature"),
    pytest.param("random_forest",
                 lambda d: _state(d)["trees"][0]["root"].update(threshold="0.5"),
                 "threshold", id="text_threshold"),
    pytest.param("random_forest", lambda d: _widen_leaves(_state(d)["trees"]),
                 "n_classes", id="trees_wider_than_classes"),
    pytest.param("directional_forest",
                 lambda d: _state(d)["directions"].append(1.0),
                 "n_features", id="trees_narrower_than_directions"),
    pytest.param("decision_tree",
                 lambda d: _first_leaf(_state(d)["tree"]).update(counts=[0, 0]),
                 "counts", id="all_zero_leaf"),
    pytest.param("decision_tree",
                 lambda d: _state(d)["tree"]["root"].update(threshold=float("nan")),
                 "threshold", id="nan_threshold"),
    pytest.param("random_forest",
                 lambda d: _state(d)["trees"][2]["root"].update(threshold=float("-inf")),
                 "threshold", id="infinite_threshold"),
    pytest.param("directional_forest",
                 lambda d: _state(d)["directions"].__setitem__(0, float("nan")),
                 "directions", id="nan_direction"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["coef"][0].__setitem__(1, float("inf")),
                 "coef", id="infinite_coef"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["intercept"].__setitem__(0, float("nan")),
                 "intercept", id="nan_intercept"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["mean"].__setitem__(1, float("nan")),
                 "mean", id="nan_mean"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["scale"].__setitem__(0, float("inf")),
                 "scale", id="infinite_scale"),
    pytest.param("logistic_regression",
                 lambda d: _state(d).update(scale=[0.0] * len(_state(d)["scale"])),
                 "scale", id="zero_scale"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["scale"].__setitem__(1, -0.5),
                 "scale", id="negative_scale"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["hyperparams"].update(lr=0.1),
                 "'lr'", id="retired_lr_hyperparam"),
    pytest.param("decision_tree",
                 lambda d: _state(d)["hyperparams"].update(max_depth=-1),
                 "max_depth=-1", id="negative_max_depth"),
    pytest.param("random_forest",
                 lambda d: _state(d)["hyperparams"].update(n_estimators=2.5),
                 "n_estimators=2.5", id="fractional_n_estimators"),
    pytest.param("logistic_regression",
                 lambda d: _state(d)["hyperparams"].update(tol=0),
                 "tol=0", id="zero_tol"),
    pytest.param("meta_synthesis",
                 lambda d: _state(d)["hyperparams"].update(cv=1),
                 "cv=1", id="meta_cv_1"),
    pytest.param("logistic_regression", lambda d: _state(d)["mean"].pop(),
                 "shapes", id="mean_one_short"),
    pytest.param("logistic_regression", lambda d: _state(d)["intercept"].append(0.5),
                 "shapes", id="intercept_one_long"),
    pytest.param("meta_synthesis", lambda d: _state(d).update(base_models=[]),
                 "base_models", id="meta_no_bases"),
    pytest.param("meta_synthesis", lambda d: _state(d).update(n_features=3),
                 "n_features", id="meta_bases_narrower"),
    pytest.param("meta_synthesis", lambda d: _state(d).update(meta_width=999),
                 "meta_width", id="meta_width"),
    pytest.param("decision_tree", lambda d: _state(d).update(classes=["neg", "neg"]),
                 "classes", id="duplicate_classes"),
    pytest.param("random_forest", lambda d: _state(d)["classes"].reverse(),
                 "classes", id="reversed_classes"),
    pytest.param("logistic_regression", lambda d: _state(d).update(classes=["neg"]),
                 "classes", id="one_class"),
    pytest.param("directional_forest", lambda d: _state(d).update(classes=["1", 1]),
                 "classes", id="text_colliding_classes"),
    pytest.param("meta_synthesis",
                 lambda d: _state(d)["base_models"][1]["state"].update(classes=["x", "y"]),
                 "classes", id="meta_base_foreign_classes"),
    # iterables that are not a list: a string of one-letter labels, an object's keys
    pytest.param("decision_tree", lambda d: _state(d).update(classes="np"),
                 "classes", id="string_classes"),
    pytest.param("decision_tree", lambda d: _state(d).update(classes={"n": 0, "p": 1}),
                 "classes", id="dict_classes"),
]


def _first_leaf(tree):
    node = tree["root"]
    while "counts" not in node:
        node = node["left"]
    return node


def _widen_leaves(trees):
    """Give every tree a third class, as if trained on three labels."""
    for tree in trees:
        tree["n_classes"] = 3
        stack = [tree["root"]]
        while stack:
            node = stack.pop()
            if "counts" in node:
                node["counts"].append(1)
            else:
                stack.extend((node["left"], node["right"]))


@pytest.mark.parametrize("model_id, mutate, key", MALFORMED_ARTIFACTS)
def test_predict_malformed_artifact_exits_1(registry, tmp_path, capsys,
                                            model_id, mutate, key):
    model_path = tmp_path / "model.json"
    main([
        "train", "--model", model_id, "--data", str(tmp_path / "a.csv"),
        "--target", "label", "--out", str(model_path), "--seed", "5",
    ])
    doc = json.loads(model_path.read_text())
    mutate(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "a.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert key in err[0]
    if key != "encoding":
        assert model_id in err[0]


def alternating_csv(path, n):
    """x = 0..n-1 with labels a, b, a, ...: a full tree grows to depth n - 1."""
    write_csv(path, ["x", "label"], [[str(i), "ab"[i % 2]] for i in range(n)])


def test_deepest_savable_tree_round_trips(tmp_path, capsys):
    data = tmp_path / "deep.csv"
    alternating_csv(data, MAX_SAVED_DEPTH + 1)
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--model", "decision_tree", "--data", str(data),
        "--target", "label", "--out", str(model_path), "--seed", "5",
    ]) == 0
    # compact JSON: size grows with the node count, not with depth squared
    assert model_path.stat().st_size < 100_000
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_path), "--data", str(data)]) == 0
    predicted = capsys.readouterr().out.splitlines()
    assert predicted == ["ab"[i % 2] for i in range(MAX_SAVED_DEPTH + 1)]


def test_train_too_deep_tree_exits_1(tmp_path, capsys):
    data = tmp_path / "deep.csv"
    alternating_csv(data, 1500)
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--model", "decision_tree", "--data", str(data),
        "--target", "label", "--out", str(model_path), "--seed", "5",
    ])
    assert code == 1
    assert not model_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "decision_tree" in err[0] and "1499" in err[0]


def _right_chain(depth):
    """JSON text of a tree that splits ``depth`` times down its right side."""
    split = '{"feature": 0, "threshold": 0.5, "left": {"counts": [1, 0]}, "right": '
    return split * depth + '{"counts": [0, 1]}' + "}" * depth


@pytest.mark.parametrize("depth", [MAX_SAVED_DEPTH + 1, 5000])
def test_predict_too_deep_artifact_exits_1(registry, tmp_path, capsys, depth):
    model_path = tmp_path / "model.json"
    main([
        "train", "--model", "decision_tree", "--data", str(tmp_path / "a.csv"),
        "--target", "label", "--out", str(model_path), "--seed", "5",
    ])
    doc = json.loads(model_path.read_text())
    _state(doc)["tree"]["root"] = "ROOT"
    model_path.write_text(json.dumps(doc).replace('"ROOT"', _right_chain(depth)))
    capsys.readouterr()
    code = main([
        "predict", "--model-file", str(model_path),
        "--data", str(tmp_path / "a.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "deep" in err[0]
