"""Benchmark: partition, embedding and oracle search on planted and
extremal hosts.

Run from the repository root:

    python3 perfbench/run.py --workload planted-exact --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from --seed, then repeats whole
rounds over them until --seconds have passed, checking every answer. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Single process, single
thread; see README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "partition_or_refute_s": "s",
    "embed_or_find_s": "s",
    "embed_or_find_p50_ms": "ms",
    "embed_or_find_p95_ms": "ms",
}


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the library."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hamorient"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hamorient" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from layers import PER_LAYER, Tracer, layer_metrics

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    build, run_round = wl.WORKLOADS[args.workload]

    # set-up: a fresh interpreter's import, then the input build, each
    # repeated and reported as its median
    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    build_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        gen = wl.GenTimer()
        t0 = time.perf_counter()
        inputs = build(args.seed, gen)
        build_s.append(time.perf_counter() - t0)
        gen_s.append(gen.seconds)
    setup_s = import_s + statistics.median(build_s)

    plain, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tracer = Tracer()
            with tracer.patched(wl.LIBRARY_API) as api:
                traced.append(run_round(inputs, api))
            tracers.append(tracer)
        else:
            plain.append(run_round(inputs, wl.LIBRARY_API))
        if time.perf_counter() - t_start >= args.seconds and (
                traced or not args.trace):
            break

    rounds = plain + traced
    errors = [e for r in rounds for e in r.errors]
    failures = sorted({f for r in rounds for f in r.failures})
    for line in errors[:20] + failures[:20]:
        print(line, file=sys.stderr)
    if args.trace:
        overhead = (statistics.median(r.wall for r in traced)
                    - statistics.median(r.wall for r in plain))
        values = layer_metrics(tracers, statistics.median(gen_s), overhead)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    else:
        # each call's median over the rounds, so that a slow spell of the
        # machine during one round moves the figures little
        heavy = [statistics.median(ts) for ts in zip(*(r.heavy_calls for r in plain))]
        light = [statistics.median(ts) for ts in zip(*(r.light_calls for r in plain))]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall for r in plain),
            "peak_rss_mib": peak_rss_mib,
            "partition_or_refute_s": sum(heavy),
            "embed_or_find_s": sum(light),
            "embed_or_find_p50_ms": statistics.median(light) * 1e3,
            "embed_or_find_p95_ms": statistics.quantiles(light, n=20)[-1] * 1e3,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  rounds=[{"wall": r.wall, "traced": i >= len(plain),
                           "heavy_calls": r.heavy_calls,
                           "light_calls": r.light_calls}
                          for i, r in enumerate(rounds)],
                  import_s=import_s, build_s=build_s,
                  errors=errors, failures=failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
