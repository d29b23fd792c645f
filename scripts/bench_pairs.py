#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, written as one BENCH_<slug>.json.

Runs `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
in two checkouts, one after the other for each (W, S): odd seeds run the
parent first, even seeds the change.  Then one `--trace 1` pair at the first
seed on every workload.  Each run's last JSON line is kept, and a summary
per workload gives each end-to-end metric's median and inclusive quartiles
on both sides, the change's wins and losses (a win is a strictly lower
value), the median ratio and whether it lies within the bound in the
change's BENCHMARK.json.  A metric is `unresolved` when the parent's runs
spread wider than that bound (interquartile range over median) and not
every run of the change beats every run of the parent: its ratio then
tells no change from noise.  A run that prints no JSON line, or is killed
after RUN_TIMEOUT_S, is kept as failed with its return code and stderr
tail: it counts in `failed`, stays out of the medians, and the file is
still written.

    python3 scripts/bench_pairs.py --parent ../parent --change . --seeds 1-10 \\
        --claim scan-fp:solve_s --slug packed_monomials --what "..."

Run it with nothing else busy on the machine; it waits for each run before
starting the next.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


RUN_TIMEOUT_S = 600


def _text(out: str | bytes | None) -> str:
    return out.decode(errors="replace") if isinstance(out, bytes) else out or ""


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py call; `line` is its last JSON line, None for a failed run
    (no JSON line, or killed after RUN_TIMEOUT_S, return code None)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stdout = None, _text(exc.stdout)
        stderr = _text(exc.stderr) + f"\nbench_pairs: killed after {RUN_TIMEOUT_S} s"
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    return {
        "returncode": returncode,
        "line": json.loads(lines[-1]) if lines else None,
        "stderr_tail": stderr[-400:],
        "elapsed_s": round(time.perf_counter() - t0, 1),
    }


def _quartiles(values: list[float]) -> dict | None:
    if not values:
        return None
    if len(values) < 2:
        values = values * 2
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _summary(runs: list[dict], metrics: dict[str, float]) -> dict:
    """A failed run counts as one failed and attempted operation of its side
    and is listed under `failed_runs`; the medians and quartiles take each
    side's other runs, the wins and losses the pairs where both sides ran."""
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [(p["parent"]["line"], p["change"]["line"]) for p in by_seed.values() if len(p) == 2]
    sides = {s: [r["line"] for r in runs if r["side"] == s] for s in ("parent", "change")}
    out = {
        "seeds": sorted(by_seed),
        "pairs": len(pairs),
        "all_correct": all(line and line["correct"] for line in sides["parent"] + sides["change"]),
        "failed": {s: sum(line["failed"] if line else 1 for line in lines) for s, lines in sides.items()},
        "attempted": {s: sum(line["attempted"] if line else 1 for line in lines) for s, lines in sides.items()},
        "failed_runs": [
            {k: r[k] for k in ("side", "seed", "returncode", "stderr_tail")} for r in runs if r["line"] is None
        ],
    }
    value = lambda line, name: line["metrics"][name]["value"]  # noqa: E731
    for name, bound in metrics.items():
        parent, change = ([value(line, name) for line in sides[s] if line] for s in ("parent", "change"))
        both = [(value(a, name), value(b, name)) for a, b in pairs if a and b]
        ratio = spread = None
        if parent and change:
            ratio = statistics.median(change) / statistics.median(parent) if statistics.median(parent) else 1.0
        quartiles = _quartiles(parent)
        if quartiles and quartiles["median"]:
            spread = (quartiles["q3"] - quartiles["q1"]) / quartiles["median"]
        out[name] = {
            "parent": quartiles,
            "change": _quartiles(change),
            "change_wins": sum(c < p for p, c in both),
            "change_losses": sum(c > p for p, c in both),
            "median_ratio": None if ratio is None else round(ratio, 4),
            "bound": bound,
            "within_bound": ratio is not None and ratio <= 1 + bound,
            "unresolved": spread is not None and spread > bound and not (change and max(change) < min(parent)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--workloads", default=None, help="comma list; default: all in BENCHMARK.json")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to lower; none if omitted")
    ap.add_argument("--slug", required=True)
    ap.add_argument("--what", required=True, help="one sentence on what the change does")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = _seeds(args.seeds)
    runs: list[dict] = []
    for workload in workloads:
        for seed in seeds:
            first = "parent" if seed % 2 else "change"
            for side in (first, "change" if first == "parent" else "parent"):
                r = _run(sides[side], workload, seed, args.seconds, 0)
                runs.append({**r, "side": side, "workload": workload, "seed": seed, "trace": 0, "first": first})
                print(f"{workload} seed {seed} {side}: rc {r['returncode']}", file=sys.stderr)
    traced: dict[str, dict] = {}
    for workload in workloads:
        lines = {}
        for side in ("parent", "change"):
            r = _run(sides[side], workload, seeds[0], args.seconds, 1)
            runs.append({**r, "side": side, "workload": workload, "seed": seeds[0], "trace": 1, "first": "parent"})
            lines[side] = r["line"]
        names = {name: None for line in lines.values() if line for name in line["metrics"]}
        traced[workload] = {
            name: {side: round(line["metrics"][name]["value"], 6) if line else None for side, line in lines.items()}
            for name in names
        }
        traced[workload]["correct"] = {side: bool(line and line["correct"]) for side, line in lines.items()}

    summary = {w: _summary([r for r in runs if r["workload"] == w and r["trace"] == 0], metrics) for w in workloads}
    claim_check = None
    if args.claim:
        claim_w, claim_m = args.claim.split(":")
        claimed = summary[claim_w][claim_m]
        gap = iqr = None
        if claimed["parent"] and claimed["change"]:
            gap = claimed["parent"]["median"] - claimed["change"]["median"]
            iqr = claimed["parent"]["q3"] - claimed["parent"]["q1"]
        claim_check = {
            "metric": f"{claim_w} {claim_m}",
            "change_wins": claimed["change_wins"],
            "pairs": summary[claim_w]["pairs"],
            "median_gap": None if gap is None else round(gap, 6),
            "parent_iqr": None if iqr is None else round(iqr, 6),
            "met": gap is not None and claimed["change_wins"] >= 0.9 * summary[claim_w]["pairs"] and gap > iqr,
        }
    out = {
        "slug": args.slug,
        "what": args.what,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0, "
            f"run from a checkout of the parent commit and from one of the change, one after the "
            f"other for each (W, S), odd seeds parent first, even seeds change first, seeds "
            f"{args.seeds} on {', '.join(workloads)}; then one --trace 1 pair at seed {seeds[0]} "
            f"on every workload. Statistics: median and inclusive quartiles over each side's runs; "
            f"a pair is a win when the change's value is strictly lower."
        ),
        "claim_check": claim_check,
        "summary": summary,
        f"traced_seed_{seeds[0]}": traced,
        "runs": runs,
    }
    path = args.change / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["claim_check"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
