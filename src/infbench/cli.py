"""Command-line surface: list models, run the benchmark, train, predict.

Results go to stdout or files; diagnostics go to stderr.  Exit codes: 0 on
success, 1 for usage/config/IO errors, 2 when the benchmark completed but
some (model, dataset) cells failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .bench.evaluate import EvalProtocol, run_benchmark, write_artifacts
from .bench.ingest import encode_table, infer_kinds, read_csv
from .bench.registry import bundled_manifest_path, load_registry
from .bench.scoring import render_leaderboard
from .errors import InfbenchError, UnparseableCell
from .models import MODELS, get_model, select_models
from .serialize import load_model_artifact, save_model_artifact

log = logging.getLogger("infbench.cli")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for partial
    # benchmark failure here, usage problems must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="infbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_list = sub.add_parser("list-models", help="list registered models")
    p_list.add_argument("--format", choices=("table", "machine"),
                        default="table")
    p_list.set_defaults(run=cmd_list_models)

    p_bench = sub.add_parser("bench",
                             help="run the benchmark grid")
    p_bench.add_argument("--registry", type=Path, default=None,
                         help="manifest path (default: bundled registry)")
    p_bench.add_argument("--models", default="all",
                         help="'all' or comma-separated model ids")
    p_bench.add_argument("--folds", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", type=Path, default=Path("bench_out"))
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--format", choices=("table", "machine"),
                         default="table")
    p_bench.set_defaults(run=cmd_bench_run)

    p_train = sub.add_parser("train",
                             help="fit a model on a CSV and save it")
    p_train.add_argument("--model", required=True, help="model id")
    p_train.add_argument("--data", type=Path, required=True, help="CSV path")
    p_train.add_argument("--target", required=True, help="target column name")
    p_train.add_argument("--out", type=Path, required=True,
                         help="output model artifact path")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(run=cmd_train)

    p_pred = sub.add_parser("predict",
                            help="predict labels for a CSV with a saved model")
    p_pred.add_argument("--model-file", type=Path, required=True)
    p_pred.add_argument("--data", type=Path, required=True)
    p_pred.add_argument("--out", type=Path, default=None,
                        help="predictions file (default: stdout)")
    p_pred.set_defaults(run=cmd_predict)
    return parser


def cmd_list_models(args) -> int:
    if args.format == "machine":
        doc = [
            {
                "id": e.model_id,
                "generator": e.generator,
                "defaults": e.defaults,
                "description": e.description,
            }
            for e in MODELS.values()
        ]
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    width = max(len(m) for m in MODELS)
    for e in MODELS.values():
        defaults = ", ".join(f"{k}={v}" for k, v in e.defaults.items())
        print(f"{e.model_id.ljust(width)}  {e.generator.ljust(8)}  {defaults}")
    return 0


def cmd_bench_run(args) -> int:
    # fail on an unusable --out before the grid runs, not after
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = args.registry if args.registry is not None else bundled_manifest_path()
    specs = load_registry(manifest)
    entries = select_models(args.models)
    protocol = EvalProtocol(folds=args.folds, seed=args.seed)
    models = {e.model_id: (e.make(), e.generator) for e in entries}
    result = run_benchmark(specs, models, protocol, workers=args.workers)
    results_path, table_path = write_artifacts(result, args.out)
    log.info("wrote %s and %s", results_path, table_path)
    if args.format == "machine":
        sys.stdout.write(results_path.read_text(encoding="utf-8"))
    else:
        sys.stdout.write(table_path.read_text(encoding="utf-8"))
    if result.failures:
        for f in result.failures:
            log.error("cell failed: %s on %s: %s",
                      f["model"], f["dataset"], f["error"])
        return 2
    return 0


def cmd_train(args) -> int:
    entry = get_model(args.model)
    header, rows = read_csv(args.data)
    kinds = infer_kinds(header, rows, args.target)
    data = encode_table(str(args.data), header, rows, args.target, kinds)
    est = entry.make(seed=args.seed)
    est.fit(data.X, data.y)
    save_model_artifact(args.out, entry.model_id, est, data.encoder)
    log.info("trained %s on %d rows, %d encoded features; saved to %s",
             entry.model_id, data.X.shape[0], data.X.shape[1], args.out)
    return 0


def cmd_predict(args) -> int:
    model_id, est, encoder = load_model_artifact(args.model_file)
    header, rows = read_csv(args.data)
    try:
        X = encoder.transform(header, rows)
    except UnparseableCell as e:
        raise UnparseableCell(e.column, e.row, e.value, str(args.data)) from None
    labels = est.predict(X)
    text = "\n".join(str(v) for v in labels) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        log.info("%s predicted %d rows; wrote %s", model_id, len(labels), args.out)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    # force: bind to whatever sys.stderr is NOW, not at first configuration,
    # so repeated in-process calls (tests, embedders) keep their diagnostics
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (InfbenchError, OSError) as e:
        log.error("%s", e)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
