"""The per-layer table: one traced run of every workload, one column each.

    python3 perfbench/layer_table.py --seed 1 --seconds 15

Runs `run.py --trace 1` once per workload and prints a markdown table of
every per-layer metric, with trace.overhead_ratio (traced over untraced time
of the same rounds) as its last row.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bench_env
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)

    columns: dict[str, dict] = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(bench_env.BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"layer_table.py: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"layer_table.py: {name} gave wrong answers or failed operations", file=sys.stderr)
            return 1
        columns[name] = result["metrics"]

    names = list(WORKLOADS)
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---:|" * len(names))
    for metric, first in columns[names[0]].items():
        cells = []
        for name in names:
            v = columns[name][metric]["value"]
            cells.append(f"{v:.3g}" if isinstance(v, float) and v != int(v) else f"{int(v)}")
        print(f"| `{metric}` | {first['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
