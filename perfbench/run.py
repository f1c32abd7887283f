"""policylock benchmark.

    python3 perfbench/run.py --workload score_batch --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, runs rounds of timed calls into
the engine for ``--seconds`` and checks every output for exactness.  It
prints one line per metric, then one JSON object as the last line:

* ``--trace 0``: the end-to-end metrics, measured with no instrumentation;
* ``--trace 1``: the per-layer metrics.  Half the time runs untraced and half
  traced; the difference between the two is reported as tracing overhead.

Exits 1 when an exactness check fails or the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("score_batch", "split_wide", "train_locked")


def import_engine() -> None:
    """Put the checkout's own sources first on the import path."""
    src = ROOT / "src"
    if not (src / "policylock" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no policylock sources under {src}")
    sys.path.insert(0, str(src))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_setup(workload, seed: int, pool: int) -> tuple[dict, list[float]]:
    """Median-ready set-up times; each set-up replaces the previous inputs
    so that peak memory holds one set."""
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(seed, pool)
        times.append(time.perf_counter() - t0)
    return inputs, times


def end_to_end(workload, seed: int, seconds: float, pool: int, out) -> tuple[dict, list]:
    from workloads import STEPS, run_rounds

    inputs, setup_times = timed_setup(workload, seed, pool)
    samples, checks, rounds = run_rounds(workload, inputs, seconds)
    step_s = samples.step_seconds()
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(zip(STEPS, step_s))
    metrics["peak_rss_mb"] = peak_rss_mb()
    units = {"setup_s": "s", **{s: "s" for s in STEPS}, "peak_rss_mb": "MB"}

    print(f"setup_s {metrics['setup_s']!r} s (median of {SETUP_REPEATS} set-ups)", file=out)
    for step, (name, value, unit) in zip(STEPS, workload.report(inputs, step_s)):
        print(f"{name} {value!r} {unit} ({step} {metrics[step]!r} s, {workload.aggregate} "
              f"of {samples.calls(step)} calls in {rounds} rounds)", file=out)
    print(f"error_rate {checks.failed / checks.attempted!r} "
          f"({checks.failed} failed of {checks.attempted} checks)", file=out)
    print(f"peak_rss_mb {metrics['peak_rss_mb']!r} MB", file=out)
    return {k: (v, units[k]) for k, v in metrics.items()}, [checks]


def per_layer(workload, seed: int, seconds: float, pool: int, out) -> tuple[dict, list]:
    import layers
    from spans import Tracer
    from workloads import STEPS, run_rounds

    setup_trace = Tracer()
    with layers.install(setup_trace):
        inputs = workload.setup(seed, pool)
    plain, plain_checks, _ = run_rounds(workload, inputs, seconds / 2)
    round_trace = Tracer()
    with layers.install(round_trace):
        traced, traced_checks, rounds = run_rounds(workload, inputs, seconds / 2)

    metrics = layers.layer_metrics(setup_trace, round_trace, rounds)
    plain_s, traced_s = plain.step_seconds(), traced.step_seconds()
    for step, a, b in zip(STEPS, plain_s, traced_s):
        metrics[f"trace.overhead.{step}"] = b - a
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced_s) - sum(plain_s)) / sum(plain_s)
    metrics["trace.rounds"] = rounds
    result = {k: (v, layers.unit_of(k)) for k, v in metrics.items()}
    for name, (value, unit) in result.items():
        print(f"{name} {value!r} {unit}", file=out)
    return result, [plain_checks, traced_checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_engine()
    import numpy
    from workloads import WORKLOADS

    pool = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload]()
    out = sys.stdout
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} python {platform.python_version()} "
          f"numpy {numpy.__version__} nproc {pool}", file=out)
    measure = per_layer if args.trace else end_to_end
    metrics, checks = measure(workload, args.seed, args.seconds, pool, out)
    attempted = sum(c.attempted for c in checks)
    failures = [f for c in checks for f in c.failures]
    for what in sorted(set(failures)):
        print(f"FAILED {failures.count(what)}x {what}", file=out)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), file=out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
