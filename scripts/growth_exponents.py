#!/usr/bin/env python3
"""Operation-growth study: measured multiplication counts versus the cost model.

For each family and algorithm, fits the log-log slope of the multiplication
count over a degree grid and compares it with the slope implied by the model
(#S)^2 * deg(G) for the iterative solver and |S(d_max)|^3 + (#S)^2 * #LM(G)
for the table-driven one. Slopes, not absolute counts: "basic operations" is
implementation-defined, growth order is not.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from seqrel.compare import (
    BENCH_FIELD,
    FAMILY_NAMES,
    FamilySpec,
    bench_point,
    family_degrees,
    family_lms,
    family_order,
)
from seqrel.poly import Poly, staircase_of


def parse_degree_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def model_mults(spec: FamilySpec, algorithm: str) -> int:
    ord = family_order(spec.n)
    lms = family_lms(spec, ord)
    stair = staircase_of([Poly.monomial(BENCH_FIELD, m) for m in lms], ord)
    _, d_g, d_max = family_degrees(spec)
    s = len(stair)
    if algorithm == "sfglm":
        return math.comb(spec.n + d_max, spec.n) ** 3 + s * s * len(lms)
    return s * s * d_g


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
