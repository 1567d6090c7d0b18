"""Benchmark of the socialstance library: one command, three workloads.

One workload, one fresh process (what a harness calls):

    python3 bench/run.py --workload train_small --seed 1 --seconds 15 --trace 0

prints a metadata line, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics from an untraced run; --trace 1 reports the per-layer metrics
from a run with every layer boundary wrapped in a span.

Every workload, untraced and traced, with the tracing overhead:

    python3 bench/run.py --seed 1

Inputs are generated from the seed and cached under bench/.cache; each
run writes its full record (metadata, per-unit timings, span summary)
under bench/results. The load is a closed loop: one caller in one
process, with numpy's BLAS and OpenMP pools held to one thread.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOAD_NAMES

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here or in a child

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DEFAULT_SECONDS = 15
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, traced and untraced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget of each measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def metadata() -> dict:
    import numpy as np

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or sha
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def run_one(args) -> int:
    if not (SRC / "socialstance").is_dir():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import layers
    import workloads
    from tracing import Tracer

    inputs_dir = inputs.ensure(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = workloads.run_workload(args.workload, inputs_dir, args.seed,
                                 args.seconds, tracer, RESULTS)
    if tracer is None:
        metrics = {name: {"value": run.metrics[name], "unit": unit}
                   for name, unit in workloads.END_TO_END.items()}
    else:
        metrics = layers.per_layer_metrics(tracer, run.embedded, run.samples,
                                           run.extra)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": metadata(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "end_to_end": run.metrics, "wall_clock": run.raw,
              "units": run.units, "probes": run.probes, "extra": run.extra,
              "result": result}
    if tracer is not None:
        record["spans"] = tracer.summary()
        tracer.write(RESULTS / f"{stem}-spans.npz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": record["meta"], "end_to_end": run.metrics,
                      "wall_clock": run.raw, "extra": run.extra}))
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """One workload in a fresh process; returns its last two stdout lines
    (the metadata line and the result), or None if it failed."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"{workload} --trace {trace}: exit code {proc.returncode}")
        return None
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    summary, ok = {}, True
    for workload in WORKLOAD_NAMES:
        plain_run = run_child(workload, args.seed, args.seconds, 0)
        traced_run = run_child(workload, args.seed, args.seconds, 1)
        if plain_run is None or traced_run is None:
            return 1
        (info, plain), (traced_info, traced) = plain_run, traced_run
        ok = ok and plain["correct"] and traced["correct"]
        overhead = {name: traced_info["end_to_end"][name] - metric["value"]
                    for name, metric in plain["metrics"].items()
                    if name in traced_info["end_to_end"]}
        summary[workload] = {"end_to_end": plain, "per_layer": traced,
                             "tracing_overhead": overhead, "extra": info["extra"]}
        summary["meta"] = info["meta"]
        print(f"== {workload} (seed {args.seed}): attempted "
              f"{plain['attempted'] + traced['attempted']}, failed "
              f"{plain['failed'] + traced['failed']}")
        for name, metric in plain["metrics"].items():
            note = (f"  traced - untraced {overhead[name]:+.4g}"
                    if name in overhead else "")
            print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<10}{note}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"summary-seed{args.seed}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
