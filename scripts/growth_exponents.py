#!/usr/bin/env python3
"""Operation-growth study: measured multiplication counts versus the cost model.

For each family and algorithm, fits the log-log slope of the multiplication
count over a degree grid and compares it with the slope implied by
`seqrel.compare.model_mults`: (#S)^2 * deg(G) for the iterative solvers and
|S(d_max)|^3 + (#S)^2 * #LM(G) for the table-driven ones. Slopes, not absolute
counts: "basic operations" is implementation-defined, growth order is not.
"""

from __future__ import annotations

import argparse

import numpy as np

from seqrel.compare import FAMILY_NAMES, FamilySpec, bench_point, model_mults


def parse_degree_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def fitted_slope(ds: list[int], values: list[int]) -> float:
    return float(np.polyfit(np.log(ds), np.log(values), 1)[0])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, choices=(2, 3), default=2)
    ap.add_argument("-d", default="4..10", help='degree grid, e.g. "4..10"')
    ap.add_argument("--algos", default="bms,sfglm")
    args = ap.parse_args(argv)

    ds = list(parse_degree_range(args.d))
    print(f"{'family':<10} {'algorithm':<9} {'measured':>9} {'model':>7} {'diff':>6}")
    for family in FAMILY_NAMES:
        for algo in args.algos.split(","):
            specs = [FamilySpec(family, d, args.n) for d in ds]
            measured = fitted_slope(ds, [bench_point(s, algo).mults for s in specs])
            model = fitted_slope(ds, [model_mults(s, algo) for s in specs])
            print(
                f"{family:<10} {algo:<9} {measured:>9.3f} {model:>7.3f} "
                f"{abs(measured - model):>6.3f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
