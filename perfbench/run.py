"""Run one benchmark workload against the infbench sources and print its result.

    python3 perfbench/run.py --workload grid_stack_pool --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout: the program is imported from
``./src``, and outputs go to ``./.perfbench_out/<workload>/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  A summary and the
path of the full run record go to standard error.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads (infbench imports it
# in main), so a pool of nproc workers runs no more threads than nproc.
# Forked pool workers inherit the setting.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
# Pin the results.json timestamp so every round of a seed writes the same bytes.
os.environ["SOURCE_DATE_EPOCH"] = "0"

WORKLOADS = ("grid_stack_pool", "serve_predict")
# (name, unit); the order is the order of BENCHMARK.json's end_to_end.
END_TO_END = [
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("rows_per_s", "rows/s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small generated inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload: str, run) -> dict:
    job = statistics.median(run.samples["job_s"])
    if workload == "serve_predict":
        ops, rows = run.facts["ops_per_s"], run.facts["rows_per_s"]
    else:
        ops = run.facts["cells"] / job
        rows = run.facts["rows_scored_per_round"] / job
    values = {
        "job_s": job,
        "setup_s": statistics.median(run.samples["setup_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": ops,
        "rows_per_s": rows,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "infbench" / "__init__.py").is_file():
        print(f"perfbench: no src/infbench under {root}; run from the root of an "
              "infbench source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import infbench

    if Path(infbench.__file__).resolve().parent != (src / "infbench").resolve():
        print(f"perfbench: imported infbench from {infbench.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import trace, workloads

    out = root / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = trace.Tracer(out / "spool").install() if args.trace else None
    try:
        if args.workload == "serve_predict":
            run = workloads.run_serve(args.seed, args.seconds, tracer, args.size, out)
        else:
            run = workloads.run_grid(args.workload, args.seed, args.seconds, tracer,
                                     args.size, out)
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics = tracer.metrics() if tracer is not None else end_to_end(args.workload, run)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "args": vars(args),
        "host": host_facts(),
        "result": result,
        "problems": run.problems,
        "samples": run.samples,
        "facts": run.facts,
        "untraced": tracer.missing if tracer is not None else [],
        "peak_rss_mb": peak_rss_mb(),
    }
    record_path = out / "run.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    for problem in run.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    summary = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={run.attempted} failed={run.failed} {summary}", file=sys.stderr)
    print(f"perfbench: record in {record_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
