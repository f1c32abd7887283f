"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload split_wide --seeds 1-10 --seconds 30
    python3 perfbench/collect.py --workload score_batch --seeds 1,2,3 --trace 1 --out r.json

Runs ``run.py`` once per workload and seed, one after another, and prints for
every metric its median, quartiles and spread (the quartile distance as a
share of the median, from ``statistics.quantiles(values, n=4)``).  With
``--out`` the raw values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    import numpy
    report = {"environment": {"python": platform.python_version(),
                              "numpy": numpy.__version__,
                              "nproc": len(os.sched_getaffinity(0)),
                              "platform": platform.platform()}}
    failed = 0
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        failed += sum(r["failed"] for r in runs)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], **summarise(values), "values": values}
            spread = metrics[name]["spread"]
            print(f"{workload:13s} {name:38s} median {metrics[name]['median']:.6g} "
                  f"{first['unit']:6s} spread {'-' if spread is None else f'{spread:.4f}'}")
        report[workload] = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
                            "trace": args.trace,
                            "attempted": [r["attempted"] for r in runs],
                            "failed": [r["failed"] for r in runs], "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
