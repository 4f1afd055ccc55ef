"""Benchmark runner for crvar.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 12 --trace 0

Runs one workload (membership, tables or symbolic) from a checkout of the
repository, importing ``crvar`` from ``src/``.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it traces every layer and prints
the per-layer metrics, the tracing overhead and the growth-curve points.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
numbers for people.  Exits 2 without a result when the source tree is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

_T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3  # set-up repetitions; setup_s reports their median
WORKLOADS = ("membership", "tables", "symbolic")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies):
    """The highest percentile with at least ten samples above it, and its p."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 1.0
    return xs[n - 11], 1.0 - 10.0 / n


def per_round(res, ref_s: float):
    """Throughput, median and tail latency of each round, raw and scaled to
    the reference machine speed by the round's calibration loops.

    Every round has the same composition, so per-round figures do not depend
    on how many rounds fit in the run; the run reports their medians.
    """
    raw, scaled = [], []
    for lat, cal in zip(res.round_latencies, res.round_calibration):
        figures = (len(lat) / sum(lat), statistics.median(lat), tail(lat)[0])
        factor = ref_s / cal
        raw.append(figures)
        scaled.append((figures[0] / factor, figures[1] * factor, figures[2] * factor))
    return [tuple(map(statistics.median, zip(*rows))) for rows in (raw, scaled)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crvar", "__init__.py")):
        print(f"perfbench: no crvar source tree under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import crvar  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - _T0
    from perfbench import loop, trace
    from perfbench import wl_membership, wl_symbolic, wl_tables
    from perfbench.common import build_context

    module = {"membership": wl_membership, "tables": wl_tables, "symbolic": wl_symbolic}[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work")
    try:
        setups = []
        for _ in range(SETUPS):
            cal = loop.calibration_s()
            t0 = time.perf_counter()
            ctx = build_context(workdir)
            rounds = module.build(ctx, args.seed, args.seconds)
            setups.append((time.perf_counter() - t0) * loop.CAL_REF_S / cal)
        setup_s = import_s + statistics.median(setups)
        golden = loop.load_golden(args.workload, args.seed)

        if args.trace:
            tracer = trace.Tracer()
            tracer.install()
            try:
                res = loop.run_loop(rounds, args.seconds, golden, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = trace.layer_metrics(tracer.spans, sum(map(sum, res.round_latencies)))
            metrics["trace.overhead"] = statistics.median(res.round_overhead)
            metrics.update(trace.growth_curves(ctx))
            tracer.write(os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            res = loop.run_loop(rounds, args.seconds, golden)
            raw, (qps, p50_s, tail_s) = per_round(res, loop.CAL_REF_S)
            metrics = {
                "setup_s": setup_s,
                "throughput_qps": qps,
                "latency_p50_ms": p50_s * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    n = res.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} answers checked, "
          f"{sum(map(len, res.round_latencies))} queries timed in {res.rounds} rounds, "
          f"{res.wall_s:.3f} s loop time; python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} cpus")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6f} {units.get(name, '')}")
    if not args.trace:
        n_round = len(res.round_latencies[0])
        print(f"  medians over {res.rounds} rounds of N={n_round} queries, scaled to the reference speed; "
              f"latency_tail_ms is the p{100 * tail(res.round_latencies[0])[1]:.2f} latency of a round")
        print(f"  unscaled: throughput_qps {raw[0]:.6f} 1/s, latency_p50_ms {raw[1] * 1e3:.6f} ms, "
              f"latency_tail_ms {raw[2] * 1e3:.6f} ms; calibration loop "
              f"{statistics.median(res.round_calibration) * 1e3:.4f} ms (reference {loop.CAL_REF_S * 1e3:.4f} ms)")
    print(f"  failed_frac {res.failed / n:.6f} ratio ({res.failed} of {n})")
    print(f"  unknown_frac {res.unknown / n:.6f} ratio ({res.unknown} of {n})")
    print(f"  negative_frac {res.negatives / n:.6f} ratio (planted non-members, corrupted inputs, "
          f"refuted pairs, non-lattices)")
    print(f"  query kinds {json.dumps(res.kinds, sort_keys=True)}")
    for line in res.failures:
        print(f"  FAILED {line}", file=sys.stderr)
    result = {
        "correct": res.failed == 0,
        "attempted": n,
        "failed": res.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
