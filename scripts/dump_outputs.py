#!/usr/bin/env python3
"""Identity dump: every solver's output on a fixed set of runs, one sorted
JSON line per (instance, algorithm).

Each line holds the instance, the algorithm and either the error the run
raised or `result_to_json` of its result, `verify_result` against a fresh
oracle with that oracle's read count and the indices in the order it first
read them, and the `ideal_contains_at_truncation` verdict of this result's basis
against each other algorithm's basis on the same instance (the window is
`compare_algorithms`' default).  A scan solver's line (`bms`, `bms-linalg`,
`bms-tweaked`, `rank`, traced or not) also holds under "reads" the indices its
own oracle was first asked for, in order.  The runs:

* the benchmark families over F_65537, 2D d <= 6 and 3D d <= 4;
* the benchmark families over Q, 2D d <= 4;
* the benchmark families over F_(2^61 - 1), 2D d <= 4: a prime above 2^31,
  whose Hankel blocks hold Python ints instead of int64 residues;
* the six built-in generators in their CLI default field, under drl;
* the same generators once more through `bms`, `bms-linalg` and
  `bms-tweaked` with `trace=True`: `result_to_json` then also holds the event
  trace, with every raw discrepancy and every rebuilt relation;
* those three traced runs, and `rank` untraced, also off drl: `fib4` under
  lex(z<y<x), `step` under a weight order with a negative lower row, and
  `sq` under weight([[0,1],[1,0]];y<x), a lex order whose least variable is
  the first-named one, at the bounds in `_OFF_DRL`;
* the `--ideal` path under drl(y<x): the README's bases and a Q basis with
  fractional coefficients, each inter-reduced and given the initial values
  that `seqrel run --ideal ... --seed` draws, through every algorithm, and two
  generator sets that are not Gröbner bases, whose lines record the error;
  the Q basis once more through the three bms variants with `trace=True`, so
  that traced lines also read non-integral sequence values;
* `sfglm` and `sfglm-tweaked` on finite tables: the benchmark families over
  F_65537, Q and F_(2^61 - 1) on the grids above, each filled into a
  `table_oracle` of shape (2·d_max + 1)^n, the box of T·T, and a random 5x5
  table over F_2 with T of degree <= 2, where sfglm-tweaked reads past the
  table.  These
  lines also hold the indices in the order they were first read, and an
  error line the index a `BoundExceededError` names;
* the corners of the table solvers: an all-zero 3x3 table over Q and over
  F_65537 (rank 0, the unit ideal); the `kron` generator over Q with
  T = {1, y, x, y^2}, whose rank profile [y, x] is not stable and where
  sfglm-tweaked rejects a candidate; and a random 4x4 table over F_101 under
  lex(y<x) with T = {1, y, x}, where a shifted candidate of sfglm-tweaked
  lies below a staircase monomial.

Each table line runs its solver twice: on a recording view, for the read
order, and on the table itself, which answers each Hankel block with one
vectorized `read`; the second run's query count, read set and error index go
under "direct".

Bounds and tables are `bench_point`'s: the scan solvers stop at
x^(d_S + d_max), the table solvers use all monomials of degree <= d_max; a
generator takes d_S = d_max = 3 (2 for the 3D `fib4`), an ideal the degrees
of its staircase and leading monomials.

    python scripts/dump_outputs.py --seed 1 > after.jsonl

Two trees give the same relation bases, query counts and operation counts
exactly when their dumps are byte-identical (`cmp`).
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import product
from typing import Callable

from seqrel.compare import (
    ALGORITHMS,
    BENCH_FIELD,
    FAMILY_NAMES,
    FamilySpec,
    family_degrees,
    family_order,
    ideal_contains_at_truncation,
    make_family,
    monomials_up_to_degree,
    run_algorithm,
    verify_result,
)
from seqrel.errors import BoundExceededError, SeqrelError
from seqrel.field import QQ, Field, FpField
from seqrel.monomials import Monomial, MonomialOrder, degree, parse_monomial, parse_order
from seqrel.poly import parse_polys
from seqrel.result import result_to_json
from seqrel.sequences import (
    GENERATOR_NAMES,
    IdealSequences,
    SequenceOracle,
    make_generator,
    table_oracle,
)

_TRACED = ("bms", "bms-linalg", "bms-tweaked")
_SCAN = (*_TRACED, "rank")
_OFF_DRL = (  # (generator, order, bound) of the runs under other orders
    ("fib4", "lex(z<y<x)", "z^6"),
    ("step", "weight([[1,2],[0,-1]];y<x)", "x^8"),
    ("sq", "weight([[0,1],[1,0]];y<x)", "x^6"),
)
_IDEALS = (  # (field, generators) of the --ideal runs; the last two are not Gröbner bases
    (BENCH_FIELD, "y^2,x^2"),
    (BENCH_FIELD, "x^2,x*y,y^2"),
    (BENCH_FIELD, "y-1,x^2-1"),
    (QQ, "y^2 - 1/3*x - 2/5, x^3 - 1/7*x*y - 3/2*y"),
    (BENCH_FIELD, "x^2-y,y^2-1,x*y-x"),
    (BENCH_FIELD, "x^2-y-1,y^2-x,x*y"),
)
_GRIDS = (  # (field, n, largest d)
    (BENCH_FIELD, 2, 6),
    (BENCH_FIELD, 3, 4),
    (QQ, 2, 4),
    (FpField(2**61 - 1), 2, 4),
)


def _recording(inner: SequenceOracle) -> tuple[SequenceOracle, list[list[int]]]:
    """A fresh view of `inner` and the list of the indices it reads, in
    first-read order."""
    reads: list[list[int]] = []

    def provider(i):
        reads.append(list(i))
        return inner.query(i)

    return SequenceOracle(inner.n, inner.field, provider), reads


def _solve_oracle(entry: dict, inner: SequenceOracle) -> SequenceOracle:
    """The oracle a solver runs on: for a scan solver a recording view of
    `inner`, whose first-read list goes into `entry` under "reads"."""
    if entry["algorithm"] not in _SCAN:
        return inner
    oracle, entry["reads"] = _recording(inner)
    return oracle


def dump_instance(
    label: dict,
    fresh: Callable[[], SequenceOracle],
    ord: MonomialOrder,
    d_s: int,
    d_max: int,
    traced: tuple[str, ...] = (),
) -> list[str]:
    """One JSON line per algorithm, each run on its own fresh oracle, then one
    line per algorithm in `traced`, run again with its event trace."""
    bound = tuple(e * (d_s + d_max) for e in ord.variable(ord.names[0]))
    table = monomials_up_to_degree(d_max, ord)
    lines: dict[str, dict] = {}
    bases = {}
    for algo in ALGORITHMS:
        entry = {**label, "algorithm": algo}
        try:
            res = run_algorithm(algo, _solve_oracle(entry, fresh()), ord, bound, table)
        except SeqrelError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["result"] = result_to_json(res)
            check, reads = _recording(fresh())
            entry["verified"] = verify_result(check, res, ord)
            entry["verify_queries"] = check.queries
            entry["verify_reads"] = reads
            bases[algo] = res.basis()
        lines[algo] = entry
    traces = []
    for algo in traced:
        entry = {**label, "algorithm": algo, "trace": True}
        try:
            res = run_algorithm(algo, _solve_oracle(entry, fresh()), ord, bound, table, trace=True)
        except SeqrelError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["result"] = result_to_json(res)
        traces.append(json.dumps(entry, sort_keys=True))
    window = max([2, *(degree(g.lm(ord)) for B in bases.values() for g in B if g)])
    for a in bases:
        lines[a]["contained_in"] = {
            b: ideal_contains_at_truncation(bases[b], bases[a], ord, window)
            for b in bases
            if b != a
        }
    return [json.dumps(lines[a], sort_keys=True) for a in ALGORITHMS] + traces


def dump_table(label: dict, fresh: Callable[[], SequenceOracle], ord: MonomialOrder, T: list[Monomial]) -> list[str]:
    """One JSON line per table solver: its result or error and the indices in
    first-read order, from a recording view of `fresh()`, then under
    "direct" the same run on `fresh()` itself, which a table answers block by
    block: its query count, its sorted read set, the error index if it
    raised, and whether its result equals the recorded run's."""
    lines = []
    for algo in ("sfglm", "sfglm-tweaked"):
        oracle, reads = _recording(fresh())
        entry = {**label, "algorithm": algo}
        try:
            res = run_algorithm(algo, oracle, ord, None, T)
        except SeqrelError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, BoundExceededError):
                entry["index"] = list(exc.index)
        else:
            entry["result"] = result_to_json(res)
        entry["reads"] = reads
        table = fresh()
        direct: dict = {}
        try:
            direct["same_result"] = result_to_json(run_algorithm(algo, table, ord, None, T)) == entry.get("result")
        except SeqrelError as exc:
            if isinstance(exc, BoundExceededError):
                direct["index"] = list(exc.index)
        direct["queries"] = table.queries
        direct["queried"] = sorted(map(list, table._queried))
        entry["direct"] = direct
        lines.append(json.dumps(entry, sort_keys=True))
    return lines


def dump_tables(seed: int) -> list[str]:
    out = []
    for field, n, top in _GRIDS:
        for family in FAMILY_NAMES:
            for d in range(2, top + 1):
                spec = FamilySpec(family, d, n, seed)
                d_max = family_degrees(spec)[2]
                oracle = make_family(spec, field)[0]
                shape = (2 * d_max + 1,) * n
                entries = [oracle.query(i).value for i in product(*map(range, shape))]
                label = {"field": str(field), "family": family, "n": n, "d": d, "seed": seed,
                         "table": list(shape)}
                ord = family_order(n)
                T = monomials_up_to_degree(d_max, ord)
                out += dump_table(label, lambda: table_oracle(field, shape, entries), ord, T)
    rng = random.Random(seed)
    f2 = FpField(2)
    entries = [rng.randrange(2) for _ in range(25)]
    label = {"field": str(f2), "table": [5, 5], "seed": seed}
    ord = family_order(2)
    out += dump_table(label, lambda: table_oracle(f2, (5, 5), entries), ord, monomials_up_to_degree(2, ord))
    for field in (QQ, BENCH_FIELD):
        label = {"field": str(field), "table": [3, 3], "zero": True}
        out += dump_table(label, lambda: table_oracle(field, (3, 3), [0] * 9), ord, monomials_up_to_degree(1, ord))
    T = [parse_monomial(m, ord) for m in ("1", "y", "x", "y^2")]
    out += dump_table({"field": str(QQ), "generator": "kron", "T": "1,y,x,y^2"}, lambda: make_generator("kron", QQ), ord, T)
    lex = parse_order("lex(y<x)")
    f101 = FpField(101)
    rng = random.Random(seed)
    entries = [rng.randrange(101) for _ in range(16)]
    label = {"field": str(f101), "table": [4, 4], "order": "lex(y<x)", "T": "1,y,x", "seed": seed}
    T = [parse_monomial(m, lex) for m in ("1", "y", "x")]
    return out + dump_table(label, lambda: table_oracle(f101, (4, 4), entries), lex, T)


def dump(seed: int) -> list[str]:
    out = []
    for field, n, top in _GRIDS:
        for family in FAMILY_NAMES:
            for d in range(2, top + 1):
                spec = FamilySpec(family, d, n, seed)
                d_s, _, d_max = family_degrees(spec)
                label = {"field": str(field), "family": family, "n": n, "d": d, "seed": seed}
                out += dump_instance(
                    label,
                    lambda spec=spec, field=field: make_family(spec, field)[0],
                    family_order(n),
                    d_s,
                    d_max,
                )
    for name in GENERATOR_NAMES:
        field: Field = QQ if name == "sq" else BENCH_FIELD
        n = 3 if name == "fib4" else 2
        d = 2 if n == 3 else 3
        label = {"field": str(field), "generator": name}
        out += dump_instance(
            label,
            lambda name=name, field=field: make_generator(name, field),
            family_order(n),
            d,
            d,
            _TRACED,
        )
    for name, spec, bound_text in _OFF_DRL:
        ord = parse_order(spec)
        bound = parse_monomial(bound_text, ord)
        for algo in (*_TRACED, "rank"):
            traced = algo in _TRACED
            entry = {"generator": name, "order": spec, "algorithm": algo}
            if traced:
                entry["trace"] = True
            try:
                oracle = _solve_oracle(entry, make_generator(name, BENCH_FIELD))
                res = run_algorithm(algo, oracle, ord, bound, None, trace=traced)
            except SeqrelError as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                entry["result"] = result_to_json(res)
            out.append(json.dumps(entry, sort_keys=True))
    ord = family_order(2)
    for field, text in _IDEALS:
        ideal = IdealSequences(parse_polys(text, ord, field), ord)
        initial = ideal.random_initial(random.Random(seed))
        d_s = max(degree(s) for s in ideal.staircase)
        d_max = max(d_s, *(degree(g.lm(ord)) for g in ideal.gb))
        label = {"field": str(field), "ideal": text, "seed": seed}
        traced = _TRACED if field is QQ else ()
        fresh = lambda ideal=ideal, initial=initial: ideal.oracle(initial)
        out += dump_instance(label, fresh, ord, d_s, d_max, traced)
    return out + dump_tables(seed)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="family instance seed")
    args = ap.parse_args(argv)
    for line in dump(args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
