"""Benchmark entry point.

    python3 bench/run.py --workload blob-compare --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src. With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer figures of a
separate traced run. A record of the run (host facts, checks, flip ratios)
goes to bench/out/, and a traced run also writes its spans there as JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

WORKLOADS = ("blob-compare", "glyph-descent", "cli-pipeline")
# Pinned before numpy is first imported; BLAS reads them once at load time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def host_facts(seed):
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latentcf", "__init__.py")):
        print(f"error: no latentcf sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)

    import tracing
    import workloads

    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = tracing.Tracer() if args.trace else None
    ledger, figures = workloads.run(args.workload, args.seed, args.seconds, tracer, out_dir)

    units = tracing.UNITS if args.trace else workloads.UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in figures.items()}
    correct = all(c["ok"] for c in ledger.checks.values())
    record = {
        "workload": args.workload,
        "host": host_facts(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "checks": ledger.checks,
        "info": ledger.info,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(out_dir, f"spans-{tag}.jsonl"))
    for err in ledger.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"host": record["host"], "checks": {k: v["ok"] for k, v in ledger.checks.items()}}))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
