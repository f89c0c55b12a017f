"""Per-layer counters for the traced run.

The tracer replaces public functions and methods of each infbench module with
timing wrappers, under the names their callers use (a function imported with
``from .tree import grow_tree`` is looked up in the importing module, so it is
wrapped there).  Nothing in ``src/`` changes.

Pool workers are forked from the traced process and so inherit the wrappers.
A worker cannot add to the parent's totals, so the wrapper around the
per-cell task appends each cell's counter deltas to a spool file that the
parent merges after the grid.  This relies on the pool starting workers by
fork, the default for ``ProcessPoolExecutor`` on Linux.

Every time is inclusive: a fit counts the split searches inside it too.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (metric name, unit); the order is the order of BENCHMARK.json's per_layer.
LAYER_METRICS = [
    ("registry.load_ms", "ms"),
    ("ingest.ingest_ms", "ms"),
    ("ingest.rows", "count"),
    ("ingest.encode_ms", "ms"),
    ("ingest.transform_ms", "ms"),
    ("metasynthesis.folds_ms", "ms"),
    ("metasynthesis.oof_s", "s"),
    ("metasynthesis.fits", "count"),
    ("tree.grow_s", "s"),
    ("tree.grow_calls", "count"),
    ("tree.nodes", "count"),
    ("tree.grow_us_per_node", "us"),
    ("tree.traverse_ms", "ms"),
    ("tree.traverse_calls", "count"),
    ("forest.fit_s", "s"),
    ("forest.predict_proba_ms", "ms"),
    ("forest.vote_ms", "ms"),
    ("directional.fit_s", "s"),
    ("directional.predict_ms", "ms"),
    ("logistic.fit_s", "s"),
    ("logistic.fits", "count"),
    ("logistic.iters", "count"),
    ("logistic.us_per_iter", "us"),
    ("logistic.fits_at_max_iter", "count"),
    ("evaluate.cells", "count"),
    ("evaluate.cell_busy_s", "s"),
    ("evaluate.pool_idle_share", "ratio"),
    ("evaluate.write_ms", "ms"),
    ("scoring.ms", "ms"),
    ("serialize.save_ms", "ms"),
    ("serialize.load_ms", "ms"),
    ("serialize.artifact_bytes", "bytes"),
    ("core.decode_ms", "ms"),
    ("core.validate_ms", "ms"),
]


def tree_nodes(tree) -> int:
    """Node count of a fitted tree, from its public serialized form."""
    if hasattr(tree, "node_count"):
        return int(tree.node_count())
    d = tree.to_dict()
    if "root" not in d:  # flat-array layout: one entry per node
        return len(d["feature"])
    stack, total = [d["root"]], 0
    while stack:
        node = stack.pop()
        total += 1
        if "left" in node:
            stack.extend((node["left"], node["right"]))
    return total


class Tracer:
    """Accumulates per-layer seconds and counts while installed."""

    def __init__(self, spool_dir):
        self.totals = defaultdict(float)
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for old in self.spool_dir.glob("*.jsonl"):
            old.unlink()
        self.parent_pid = os.getpid()
        self.missing = []  # "module.attr" names this build does not have
        self._patched = []  # (owner, attr, original) to restore

    # -- installation -------------------------------------------------------

    def _wrap(self, owner, attr, key, after=None):
        # A class's own attribute only: wrapping an inherited method would
        # time every subclass under this layer's name.
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        totals = self.totals

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            out = original(*args, **kwargs)
            totals[key] += time.perf_counter() - t
            totals[key + ".calls"] += 1
            if after is not None:
                after(out, args, kwargs)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> "Tracer":
        mod = {n: importlib.import_module(f"infbench.{n}") for n in (
            "core", "bench", "bench.registry", "bench.ingest", "bench.evaluate",
            "metasynthesis", "baselearners.tree", "baselearners.forest",
            "baselearners.logistic", "directional", "serialize",
        )}
        tree_mod = mod["baselearners.tree"]
        ev = mod["bench.evaluate"]
        t = self.totals

        def count_nodes(out, args, kwargs):
            t["tree.nodes"] += tree_nodes(out)

        def count_rows(out, args, kwargs):
            t["ingest.rows"] += out.X.shape[0]

        def count_iters(out, args, kwargs):
            t["logistic.iters"] += out.n_iter_
            t["logistic.at_max"] += out.n_iter_ >= out.max_iter

        def count_bytes(out, args, kwargs):
            t["serialize.artifact_bytes"] += Path(out).stat().st_size

        for owner in (mod["bench"], mod["bench.registry"]):
            self._wrap(owner, "load_registry", "registry.load")
        for owner in (mod["bench"], ev):
            self._wrap(owner, "ingest_csv", "ingest.ingest", count_rows)
        for owner in (mod["bench"], mod["bench.ingest"]):
            self._wrap(owner, "encode_table", "ingest.encode")
        self._wrap(mod["bench.ingest"].TableEncoder, "transform", "ingest.transform")
        for owner in (mod["metasynthesis"], ev):
            self._wrap(owner, "stratified_folds", "metasynthesis.folds")
        meta_cls = mod["metasynthesis"].MetaSynthesisClassifier
        self._wrap(meta_cls, "oof_meta_features", "metasynthesis.oof")
        self._wrap(meta_cls, "fit", "metasynthesis.fit")
        for owner in (tree_mod, mod["baselearners.forest"], mod["directional"]):
            self._wrap(owner, "grow_tree", "tree.grow", count_nodes)
        self._wrap(tree_mod.TreeModel, "counts_matrix", "tree.traverse")
        rf_cls = mod["baselearners.forest"].RandomForest
        self._wrap(rf_cls, "fit", "forest.fit")
        self._wrap(rf_cls, "predict_proba", "forest.predict_proba")
        self._wrap(mod["directional"], "plurality_vote", "forest.vote")
        df_cls = mod["directional"].DirectionalForest
        self._wrap(df_cls, "fit", "directional.fit")
        self._wrap(df_cls, "predict", "directional.predict")
        self._wrap(mod["baselearners.logistic"].LogisticRegression, "fit",
                   "logistic.fit", count_iters)
        self._wrap(ev, "_eval_cell_task", "evaluate.cell")
        self._wrap_cell_task(ev)
        for owner in (mod["bench"], ev):
            self._wrap(owner, "write_artifacts", "evaluate.write")
        for name in ("build_leaderboard", "normalize_table", "aggregate_minmax",
                     "average_rank", "render_leaderboard"):
            self._wrap(ev, name, "scoring")
        self._wrap(mod["serialize"], "save_model_artifact", "serialize.save", count_bytes)
        self._wrap(mod["serialize"], "load_model_artifact", "serialize.load")
        self._wrap(mod["core"].ClassSet, "decode", "core.decode")
        for owner in (mod["core"], mod["bench.ingest"]):
            self._wrap(owner, "validate_matrix", "core.validate")
        self._wrap_run_benchmark(mod["bench"], ev)
        if self.missing:
            print("perfbench: not traced (absent in this build): "
                  + ", ".join(self.missing), file=sys.stderr)
        return self

    def _wrap_cell_task(self, ev):
        """Ship each worker-side cell's counter deltas back through the spool."""
        inner = getattr(ev, "_eval_cell_task", None)
        if inner is None:  # already listed as missing by _wrap
            return
        totals, spool, parent = self.totals, self.spool_dir, self.parent_pid

        @functools.wraps(inner)
        def cell_task(task):
            before = dict(totals)
            out = inner(task)
            if os.getpid() != parent:
                delta = {k: v - before.get(k, 0.0) for k, v in totals.items()
                         if v != before.get(k, 0.0)}
                with open(spool / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as f:
                    f.write(json.dumps(delta) + "\n")
            return out

        ev._eval_cell_task = cell_task
        self._patched.append((ev, "_eval_cell_task", inner))

    def _wrap_run_benchmark(self, bench, ev):
        """Record pool capacity (workers x cell-phase wall) for the idle share."""
        original = bench.run_benchmark
        totals = self.totals

        @functools.wraps(original)
        def run_benchmark(specs, models, protocol, workers=1):
            ingest_before = totals["ingest.ingest"]
            t = time.perf_counter()
            out = original(specs, models, protocol, workers=workers)
            wall = time.perf_counter() - t
            self.merge_spool()
            cell_phase = wall - (totals["ingest.ingest"] - ingest_before)
            totals["evaluate.capacity"] += workers * cell_phase
            return out

        bench.run_benchmark = run_benchmark
        self._patched.append((bench, "run_benchmark", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def merge_spool(self) -> None:
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                for k, v in json.loads(line).items():
                    self.totals[k] += v
            path.unlink()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        t = self.totals
        grow_s, nodes = t["tree.grow"], t["tree.nodes"]
        lr_s, iters = t["logistic.fit"], t["logistic.iters"]
        busy, capacity = t["evaluate.cell"], t["evaluate.capacity"]
        values = {
            "registry.load_ms": t["registry.load"] * 1e3,
            "ingest.ingest_ms": t["ingest.ingest"] * 1e3,
            "ingest.rows": t["ingest.rows"],
            "ingest.encode_ms": t["ingest.encode"] * 1e3,
            "ingest.transform_ms": t["ingest.transform"] * 1e3,
            "metasynthesis.folds_ms": t["metasynthesis.folds"] * 1e3,
            "metasynthesis.oof_s": t["metasynthesis.oof"],
            "metasynthesis.fits": t["metasynthesis.fit.calls"],
            "tree.grow_s": grow_s,
            "tree.grow_calls": t["tree.grow.calls"],
            "tree.nodes": nodes,
            "tree.grow_us_per_node": grow_s * 1e6 / nodes if nodes else 0.0,
            "tree.traverse_ms": t["tree.traverse"] * 1e3,
            "tree.traverse_calls": t["tree.traverse.calls"],
            "forest.fit_s": t["forest.fit"],
            "forest.predict_proba_ms": t["forest.predict_proba"] * 1e3,
            "forest.vote_ms": t["forest.vote"] * 1e3,
            "directional.fit_s": t["directional.fit"],
            "directional.predict_ms": t["directional.predict"] * 1e3,
            "logistic.fit_s": lr_s,
            "logistic.fits": t["logistic.fit.calls"],
            "logistic.iters": iters,
            "logistic.us_per_iter": lr_s * 1e6 / iters if iters else 0.0,
            "logistic.fits_at_max_iter": t["logistic.at_max"],
            "evaluate.cells": t["evaluate.cell.calls"],
            "evaluate.cell_busy_s": busy,
            "evaluate.pool_idle_share": max(0.0, 1.0 - busy / capacity) if capacity else 0.0,
            "evaluate.write_ms": t["evaluate.write"] * 1e3,
            "scoring.ms": t["scoring"] * 1e3,
            "serialize.save_ms": t["serialize.save"] * 1e3,
            "serialize.load_ms": t["serialize.load"] * 1e3,
            "serialize.artifact_bytes": t["serialize.artifact_bytes"],
            "core.decode_ms": t["core.decode"] * 1e3,
            "core.validate_ms": t["core.validate"] * 1e3,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_METRICS}
