"""Grid evaluation and benchmark artifacts.

Every (model, dataset) cell gets its own seed stream derived from the base
seed and the two id hashes, and each of its folds one stream under that, so
folds can run serially or on any number of worker processes and still
produce identical numbers.  The machine-readable artifact is canonical JSON
(sorted keys, repr floats) and therefore byte-identical across schedules; its
timestamp honors SOURCE_DATE_EPOCH so a pinned environment reproduces the
whole file exactly.
"""

from __future__ import annotations

import json
import logging
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..core import SEED, check_params, derive_seed, integer, resolve_seed, stable_text_hash
from ..errors import ConvergenceWarning, EvaluationError, InfbenchError
from ..metasynthesis import stratified_folds
from .ingest import ingest_csv
from .scoring import Leaderboard, ScoreTable, build_leaderboard, render_leaderboard

log = logging.getLogger("infbench.bench")

RESULTS_FILENAME = "results.json"
TABLE_FILENAME = "leaderboard.txt"


@dataclass
class EvalProtocol:
    folds: int = 5
    seed: int | None = None

    def __post_init__(self):
        check_params("evaluation protocol", {"folds": integer(2), "seed": SEED}, vars(self))


def cell_seed(base_seed: int, model_id: str, dataset_id: str) -> int:
    """Independent stream for one grid cell, from the two id hashes."""
    s = derive_seed(base_seed, stable_text_hash(model_id))
    return derive_seed(s, stable_text_hash(dataset_id))


def _fold_accuracy(prototype, data, folds: int, seed: int, k: int,
                   model_id: str, dataset_id: str) -> float:
    """Accuracy on fold k of one cell's stratified k-fold split."""
    y_idx = data.classes.encode(data.y)
    test = stratified_folds(y_idx, folds, derive_seed(seed, 0)) == k
    train = ~test
    clone = prototype.fresh_clone(seed=derive_seed(seed, 1 + k))
    try:
        clone.fit(data.X[train], data.y[train])
        pred = clone.predict(data.X[test])
    except Exception as e:
        raise EvaluationError(model_id, dataset_id, k, e) from e
    hits = int((pred.astype(str) == data.y[test].astype(str)).sum())
    return hits / int(test.sum())


def evaluate_model_on_dataset(prototype, data, protocol: EvalProtocol, *,
                              model_id: str | None = None,
                              dataset_id: str | None = None) -> float:
    """Mean stratified k-fold accuracy of one model on one dataset."""
    model_id = model_id if model_id is not None else prototype.kind
    dataset_id = dataset_id if dataset_id is not None else data.dataset_id
    seed = cell_seed(resolve_seed(protocol.seed), model_id, dataset_id)
    accs = [_fold_accuracy(prototype, data, protocol.folds, seed, k, model_id, dataset_id)
            for k in range(protocol.folds)]
    return sum(accs) / len(accs)


def _eval_cell_task(args):
    """Worker-side evaluation of one fold of a cell; exceptions come back as
    strings.

    The ``ConvergenceWarning``s the fold raises come back as their messages,
    so the parent reports them once for the grid rather than once per worker.
    """
    model_id, prototype, dataset_id, data, folds, seed, k = args
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        try:
            acc = _fold_accuracy(prototype, data, folds, seed, k, model_id, dataset_id)
            error = None
        except Exception as e:
            acc, error = None, f"{type(e).__name__}: {e}"
    stopped = []
    for w in caught:
        if issubclass(w.category, ConvergenceWarning):
            stopped.append(str(w.message))
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return model_id, dataset_id, acc, error, stopped


@dataclass
class BenchResult:
    protocol: EvalProtocol
    base_seed: int
    model_ids: list
    generators: dict
    datasets: list  # (dataset_id, rows, features, classes) in registry order
    fold_accuracies: dict  # (model_id, dataset_id) -> list of per-fold floats
    failures: list  # dicts: model, dataset, error
    table: ScoreTable
    leaderboard: Leaderboard | None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_benchmark(specs, models, protocol: EvalProtocol, workers: int = 1) -> BenchResult:
    """Evaluate every model on every registry dataset.

    ``models`` maps model_id -> (prototype, generator tag).  A model that
    fails any cell is excluded from the leaderboard; its failures are kept in
    the result.  Ingest problems are raised immediately (they invalidate the
    run), cell-level failures are collected.
    """
    if workers < 1:
        raise InfbenchError(f"workers must be >= 1, got {workers}")
    if not specs or not models:
        raise InfbenchError("a benchmark needs at least one dataset and one model")
    _artifact_timestamp()  # a malformed SOURCE_DATE_EPOCH fails before the grid
    encoded = {}
    datasets = []
    for spec in specs:
        data = ingest_csv(spec)
        encoded[spec.dataset_id] = data
        datasets.append(
            (spec.dataset_id, data.X.shape[0], data.X.shape[1], data.classes.size)
        )

    # resolved and logged once every dataset has ingested, so that a bad
    # table is the run's one line
    base_seed = resolve_seed(protocol.seed)
    log.info("benchmark: %d models x %d datasets, %d folds, %d workers",
             len(models), len(specs), protocol.folds, workers)
    model_ids = list(models)
    dataset_ids = [spec.dataset_id for spec in specs]
    # one task per fold, so that the pool balances folds rather than cells
    tasks = [
        (m, models[m][0], d, encoded[d], protocol.folds,
         cell_seed(base_seed, m, d), k)
        for m in model_ids
        for d in dataset_ids
        for k in range(protocol.folds)
    ]

    fold_accuracies = {}
    errors = {}  # cell -> the error of its first failing fold
    stopped = {}
    pool = (nullcontext() if workers == 1
            else ProcessPoolExecutor(max_workers=min(workers, len(tasks))))
    with pool:
        # one worker evaluates the folds in this process
        mapper = map if workers == 1 else pool.map
        for model_id, dataset_id, acc, error, caught in mapper(_eval_cell_task, tasks):
            cell = (model_id, dataset_id)
            accs = fold_accuracies.setdefault(cell, [])
            accs.append(acc)
            if error is not None:
                errors.setdefault(cell, error)
            if caught:
                stopped.setdefault(f"{model_id} on {dataset_id}", []).extend(caught)
            if len(accs) == protocol.folds:
                log.info("evaluated %s on %s", model_id, dataset_id)

    for cell in errors:
        del fold_accuracies[cell]
    failures = [{"model": m, "dataset": d, "error": error} for (m, d), error in errors.items()]
    if stopped:
        messages = sorted({msg for caught in stopped.values() for msg in caught})
        log.warning("%s, in %d cells: %s", "; ".join(messages), len(stopped),
                    ", ".join(stopped))

    failed_models = {f["model"] for f in failures}
    surviving = [m for m in model_ids if m not in failed_models]
    table = ScoreTable(model_ids=surviving, dataset_ids=dataset_ids, raw={
        cell: sum(accs) / len(accs) for cell, accs in fold_accuracies.items()
        if cell[0] not in failed_models
    })
    leaderboard = None
    if len(surviving) >= 2:
        leaderboard = build_leaderboard(
            table, {m: models[m][1] for m in surviving}
        )
    return BenchResult(
        protocol=protocol,
        base_seed=base_seed,
        model_ids=model_ids,
        generators={m: models[m][1] for m in model_ids},
        datasets=datasets,
        fold_accuracies=fold_accuracies,
        failures=failures,
        table=table,
        leaderboard=leaderboard,
    )


def _artifact_timestamp() -> str:
    """SOURCE_DATE_EPOCH, else now, as UTC text; InfbenchError if it is malformed."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = time.gmtime(None if epoch is None else int(epoch))
    except (ValueError, OverflowError, OSError):
        raise InfbenchError(f"SOURCE_DATE_EPOCH is {epoch!r}, not a whole number "
                            "of seconds since 1970 in this platform's range") from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


def result_document(result: BenchResult) -> dict:
    """The machine-readable artifact body, pure data.

    Scores come from the leaderboard as ``run_benchmark`` built it; with
    fewer than two surviving models there is none, and its grids are empty.
    """
    table = result.table
    board = result.leaderboard
    rows = board.rows if board else []

    def by_model(grid):
        return {m: {d: grid[(m, d)] for d in table.dataset_ids} for m in table.model_ids}

    doc = {
        "format_version": 1,
        "kind": "bench_results",
        "timestamp": _artifact_timestamp(),
        "protocol": {
            "folds": result.protocol.folds,
            "metric": "accuracy",
            "seed": result.base_seed,
        },
        "datasets": [
            {"id": d, "rows": r, "features": f, "classes": c}
            for d, r, f, c in result.datasets
        ],
        "models": [
            {"id": m, "generator": result.generators[m]}
            for m in result.model_ids
        ],
        "raw_scores": by_model(table.raw),
        "fold_accuracies": by_model(result.fold_accuracies),
        "normalized_scores": by_model(board.normalized) if board else {},
        "dataset_score_range": {
            d: {"min": lo, "max": hi}
            for d, (lo, hi) in (board.score_range.items() if board else ())
        },
        "minmax": {row.model_id: row.minmax for row in rows},
        "average_rank": {row.model_id: row.avg_rank for row in rows},
        "leaderboard": [
            {
                "rank": row.rank,
                "model": row.model_id,
                "minmax": row.minmax,
                "avg_rank": row.avg_rank,
                "generator": row.generator,
            }
            for row in rows
        ],
        "failures": sorted(
            result.failures, key=lambda f: (f["model"], f["dataset"])
        ),
    }
    return doc


def write_artifacts(result: BenchResult, out_dir) -> tuple:
    """Write results.json then leaderboard.txt; returns both paths.

    The JSON artifact lands first so a table-rendering failure can never lose
    the numbers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / RESULTS_FILENAME
    doc = result_document(result)
    results_path.write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    table_path = out / TABLE_FILENAME
    if result.leaderboard is not None:
        table_path.write_text(render_leaderboard(result.leaderboard), encoding="utf-8")
    else:
        table_path.write_text("no leaderboard: fewer than 2 models scored\n",
                              encoding="utf-8")
    return results_path, table_path
