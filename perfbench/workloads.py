"""The benchmark's three workloads, driven through infbench's public API.

Every call into the program goes through a module attribute looked up at
call time (``bench.run_benchmark``, not a name bound at import), so the
tracer's wrappers see the benchmark's own calls too.

Each workload returns a ``Run``: the end-to-end samples it took, the
operations it attempted and how many failed, and the problems its checks
found.  ``run.py`` turns that into the printed result.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import infbench.bench as bench
import infbench.serialize as serialize
from infbench.bench import synth
from infbench.models import get_model

from . import checks

FOLDS = 5
SETUP_REPS_PER_ROUND = 8  # grid set-up takes milliseconds; its median needs many
LOADS_PER_ROUND = 3
PASSES_PER_ROUND = 2

GRIDS = {
    # Stacking plus LR at its iteration cap on both datasets, over the pool.
    "grid_stack_pool": {
        "models": ["meta_synthesis", "logistic_regression", "decision_tree"],
        "datasets": ["gauss3", "colors_cat"],
    },
}
# The cells a pooled grid re-evaluates serially to check the pool.
CHEAP_MODELS = ("logistic_regression", "decision_tree")

SERVE_MODELS = ["random_forest", "directional_forest", "meta_synthesis"]
SERVE_SIZES = {
    # rows of the training table, rows of the request pool,
    # requests per pass, rows per large batch
    "full": (1000, 1000, 250, 256),
    "tiny": (90, 60, 40, 16),
}
LARGE_BATCH_SHARE = 0.08
WARMUP_REQUESTS = 20

# Small generated grids for the benchmark's own tests: (generator, rows).
TINY_GRIDS = {
    "grid_stack_pool": [(synth.gauss3, 60), (synth.colors_cat, 75)],
}


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # name -> list of seconds
    facts: dict = field(default_factory=dict)    # extra figures for the record


def sub_seed(seed: int, k: int) -> int:
    """Independent generator seed k under the run's seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def write_table(table, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(table.header)
        w.writerows(table.rows)


# -- grids -------------------------------------------------------------------

def _grid_manifest(name: str, seed: int, size: str, out: Path) -> Path:
    if size == "full":
        return bench.bundled_manifest_path()
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, (gen, n) in enumerate(TINY_GRIDS[name]):
        table = gen(n=n, seed=sub_seed(seed, k))
        write_table(table, data_dir / f"{table.name}.csv")
        entries.append({"id": table.name, "path": f"{table.name}.csv",
                        "target_column": table.target, "columns": table.kinds})
    path = data_dir / "manifest.json"
    path.write_text(json.dumps({"datasets": entries}), encoding="utf-8")
    return path


def run_grid(name: str, seed: int, seconds: float, tracer, size: str,
             out: Path) -> Run:
    traced = tracer is not None
    cfg = GRIDS[name]
    manifest = _grid_manifest(name, seed, size, out)
    wanted = cfg["datasets"] if size == "full" else [g.__name__ for g, _ in TINY_GRIDS[name]]
    workers = len(os.sched_getaffinity(0))
    run = Run(facts={"datasets": wanted, "models": cfg["models"], "workers": workers,
                     "folds": FOLDS})

    def setup():
        specs = [s for s in bench.load_registry(manifest) if s.dataset_id in wanted]
        return specs, [bench.ingest_csv(s) for s in specs]

    specs = [s for s in bench.load_registry(manifest) if s.dataset_id in wanted]

    models = {m: (get_model(m).make(), get_model(m).generator) for m in cfg["models"]}
    protocol = bench.EvalProtocol(folds=FOLDS, seed=seed)
    cells = len(models) * len(specs)
    run.samples["job_s"] = []
    texts = []
    t0 = time.perf_counter()
    run.samples["setup_s"] = []
    while True:
        # Set-up: what `infbench bench` does before its first cell, sampled
        # before every round.  The traced run leaves ingest to run_benchmark.
        for _ in range(0 if traced else SETUP_REPS_PER_ROUND):
            t = time.perf_counter()
            setup()
            run.samples["setup_s"].append(time.perf_counter() - t)
        t = time.perf_counter()
        result = bench.run_benchmark(specs, models, protocol, workers=workers)
        results_path, _ = bench.write_artifacts(result, out)
        run.samples["job_s"].append(time.perf_counter() - t)
        texts.append(results_path.read_text(encoding="utf-8"))
        run.attempted += cells
        run.failed += len(result.failures)
        job = statistics.median(run.samples["job_s"])
        if traced or time.perf_counter() - t0 + job > seconds:
            break
    run.samples["rounds"] = len(texts)
    run.facts["cells"] = cells

    # Checks, untimed and untraced.
    if traced:
        tracer.uninstall()
    _, datas = setup()
    run.facts["rows_scored_per_round"] = sum(len(d.y) for d in datas) * len(models)
    doc = json.loads(texts[0])
    run.problems += checks.same_every_round(texts, "results.json")
    run.problems += checks.grid_fold_accuracies(doc, FOLDS)
    run.problems += checks.grid_leaderboard(doc)
    serial = {}
    for m in CHEAP_MODELS:
        for d in datas:
            serial[(m, d.dataset_id)] = bench.evaluate_model_on_dataset(
                get_model(m).make(), d, protocol, model_id=m, dataset_id=d.dataset_id)
    run.problems += checks.grid_matches_serial(doc, serial)
    return run


# -- serving -----------------------------------------------------------------

def _request_schedule(seed: int, n_pool: int, n_requests: int, batch: int):
    """(model index, pool row indices) per request, in a seeded order.

    The share of large batches and the requests per model are fixed, so a
    pass costs the same work whatever the seed; only rows and order vary.
    """
    rng = np.random.default_rng(sub_seed(seed, 3))
    n_large = round(LARGE_BATCH_SHARE * n_requests)
    kinds = [batch] * n_large + [1] * (n_requests - n_large)
    models = [i % len(SERVE_MODELS) for i in range(n_large)]
    models += [i % len(SERVE_MODELS) for i in range(n_requests - n_large)]
    order = rng.permutation(n_requests)
    return [(models[i], rng.choice(n_pool, size=kinds[i], replace=False))
            for i in order]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def run_serve(seed: int, seconds: float, tracer, size: str, out: Path) -> Run:
    traced = tracer is not None
    n_train, n_pool, n_requests, batch = SERVE_SIZES[size]
    out.mkdir(parents=True, exist_ok=True)
    train_csv = out / "train.csv"
    write_table(synth.xor_cat(n=n_train, seed=sub_seed(seed, 1)), train_csv)
    pool_table = synth.xor_cat(n=n_pool, seed=sub_seed(seed, 2))
    header = [c for c in pool_table.header if c != pool_table.target]
    pool_rows = [row[:len(header)] for row in pool_table.rows]  # target is last
    schedule = _request_schedule(seed, n_pool, n_requests, batch)
    requests = [(m, [pool_rows[int(i)] for i in rows]) for m, rows in schedule]
    run = Run(facts={"train_rows": n_train, "pool_rows": n_pool,
                     "requests_per_pass": n_requests, "large_batch_rows": batch,
                     "large_batch_share": LARGE_BATCH_SHARE,
                     "warmup_requests": WARMUP_REQUESTS})
    paths = {m: out / f"{m}.json" for m in SERVE_MODELS}
    run.samples.update(job_s=[], setup_s=[])
    singles, batches = [], []  # latencies of single-row and large-batch requests
    responses = []
    digests = []

    def train():
        """What `infbench train` does for each served model."""
        header_t, rows_t = bench.read_csv(train_csv)
        kinds = bench.infer_kinds(header_t, rows_t, "label")
        data = bench.encode_table("train", header_t, rows_t, "label", kinds)
        models = {}
        for k, m in enumerate(SERVE_MODELS):
            est = get_model(m).make(seed=sub_seed(seed, 10 + k))
            est.fit(data.X, data.y)
            serialize.save_model_artifact(paths[m], m, est, data.encoder)
            models[m] = est
        return models

    def serve(m, rows):
        _, est, encoder = loaded[m]
        t = time.perf_counter()
        try:
            labels = est.predict(encoder.transform(header, rows))
        except Exception:
            if run.failed == 0:
                traceback.print_exc(file=sys.stderr)
            run.failed += 1
            labels = None
        dt = time.perf_counter() - t
        run.attempted += 1
        responses.append((m, rows, labels))
        return dt

    # Rounds of train, load and serve, so that every metric samples the
    # whole run rather than one stretch of it.
    t_start = time.perf_counter()
    round_s = []
    while True:
        t = r0 = time.perf_counter()
        memory = train()
        run.samples["job_s"].append(time.perf_counter() - t)
        digests.append(b"".join(hashlib.sha256(p.read_bytes()).digest() for p in paths.values()))
        for _ in range(LOADS_PER_ROUND):
            gc.collect()  # drop the previous load's models so each starts alike
            t = time.perf_counter()
            loaded = [serialize.load_model_artifact(paths[m]) for m in SERVE_MODELS]
            run.samples["setup_s"].append(time.perf_counter() - t)
        if not round_s:
            for m, rows in requests[:WARMUP_REQUESTS]:
                serve(m, rows)
        for _ in range(PASSES_PER_ROUND):
            for m, rows in requests:
                (singles if len(rows) == 1 else batches).append(serve(m, rows))
        round_s.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t_start
        if traced or elapsed + statistics.median(round_s) > seconds:
            break
    run.samples["rounds"] = len(round_s)
    run.problems += checks.same_every_round(digests, "the saved artifacts")
    latencies = singles + batches
    run.facts.update({
        "artifact_mb": sum(p.stat().st_size for p in paths.values()) / 1e6,
        "requests_timed": len(latencies),
        "ops_per_s": len(singles) / sum(singles),
        "rows_per_s": batch * len(batches) / sum(batches),
        "predict_ms_p50": statistics.median(latencies) * 1e3,
    })
    p = tail_percentile(len(latencies))
    run.facts[f"predict_ms_p{p:g}"] = float(np.percentile(latencies, p)) * 1e3

    # Checks, untimed and untraced.
    if traced:
        tracer.uninstall()
    X_pool = loaded[0][2].transform(header, pool_rows)
    expected = {}
    for k, m in enumerate(SERVE_MODELS):
        est = loaded[k][1]
        run.problems += checks.loaded_bit_identical(memory[m], est, X_pool)
        expected[k] = [str(v) for v in est.predict(X_pool)]
    rf, df = loaded[0][1], loaded[1][1]
    run.problems += checks.forest_average_argmax(rf, X_pool, expected[0])
    run.problems += checks.directional_vote(df, X_pool, expected[1])
    truth = [row[-1] for row in pool_table.rows]
    for k in (0, 1):
        run.problems += checks.beats_majority(SERVE_MODELS[k], expected[k], truth)
    known = {str(c) for c in rf.classes_.labels}
    row_of = {id(r): i for i, r in enumerate(pool_rows)}
    for m, rows, labels in responses:
        if labels is None:
            continue
        # Stacking labels may depend on the batch: its LR layers multiply
        # matrices, whose rounding depends on the batch shape.
        want = (None if SERVE_MODELS[m] == "meta_synthesis"
                else [expected[m][row_of[id(r)]] for r in rows])
        found = checks.served_response(labels, len(rows), known, want)
        if found:
            run.problems += [f"{SERVE_MODELS[m]}: {p}" for p in found]
            break
    return run
