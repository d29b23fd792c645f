"""The seqrel benchmark: one workload, one result line.

    python3 perfbench/run.py --workload scan-fp --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  With --trace 0 the last line of standard
output is the JSON result with every end-to-end metric; with --trace 1 it
carries every per-layer metric instead.  `setup_s` is the median over
SETUP_RUNS fresh processes that only start, import seqrel and set the
workload up; everything else is measured in one more fresh process
(`worker.py`).  Details of each run land in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import bench_env
from calib import Clock
from workloads import WORKLOADS

SETUP_RUNS = 3
RUN_LIMIT_S = 175.0
WORKER = str(bench_env.BENCH_DIR / "worker.py")

END_TO_END = ("setup_s", "solve_s", "verify_s", "compare_s", "queries", "basic_ops", "peak_rss_mb")


def _worker_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]


def measure_setup(args, env: dict[str, str]) -> float:
    clock = Clock()
    samples = []
    for _ in range(SETUP_RUNS):
        _, timing = clock.wait(
            lambda: subprocess.run(
                _worker_cmd(args, "--setup-only"), env=env, check=True, timeout=60,
                stdout=subprocess.DEVNULL,
            )
        )
        samples.append(timing.seconds)
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (bench_env.PACKAGE / "__init__.py").is_file():
        print(f"run.py: no seqrel package under {bench_env.SRC}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    env = {**os.environ, **bench_env.SINGLE_THREAD_ENV}
    try:
        setup_s = None if args.trace else measure_setup(args, env)
        proc = subprocess.run(
            _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - t_start),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup_s is not None:
        measured = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
        result["metrics"] = {name: measured[name] for name in END_TO_END}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
