"""Command-line front end: run an algorithm, compare several, bench, or test
a quotient for the Gorenstein property."""

from __future__ import annotations

import argparse
import json
import random
import sys

from .compare import (
    _TABLE_RUNNERS,
    ALGORITHMS,
    CSV_HEADER,
    FAMILY_NAMES,
    BenchRow,
    FamilySpec,
    bench,
    compare_algorithms,
    comparison_report_to_json,
    gnuplot_columns,
    gorenstein_test,
    monomials_up_to_degree,
    rows_to_csv,
    run_algorithm,
)
from .errors import BoundExceededError, SeqrelError
from .field import parse_field
from .fixtures import reference_queries
from .monomials import MonomialOrder, enumerate_up_to, parse_monomial, parse_order
from .poly import parse_polys
from .result import result_to_json
from .sequences import GENERATOR_NAMES, IdealSequences, make_generator, table_from_json

_DEFAULT_ORDERS = {1: "drl(x)", 2: "drl(y<x)", 3: "drl(z<y<x)"}


def _default_order(args, n: int | None) -> str:
    """lex for `fib4`, else drl in the table's dimension n, 1 to 3; drl(y<x)
    when n is unknown or above 3 (`run_algorithm` rejects a wrong dimension)."""
    if args.generator == "fib4":
        return "lex(z<y<x)"
    return _DEFAULT_ORDERS.get(n, "drl(y<x)")


def _default_field(args) -> str:
    return "Q" if args.generator == "sq" else "Fp:65537"


def _resolve_inputs(args):
    """Order, field and a fresh-oracle factory from the input flags."""
    field = parse_field(args.field or _default_field(args))
    n = None
    if args.generator:
        name = args.generator
        factory = lambda: make_generator(name, field)
    elif args.table is not None:
        with open(args.table) as fh:
            data = json.load(fh)
        explicit = args.field is not None
        factory = lambda: table_from_json(data, field if explicit else None)
        table = factory()  # a malformed table raises ParseError here
        field, n = table.field, table.n
    ord = parse_order(args.order or _default_order(args, n))
    if args.ideal is not None:
        ideal = IdealSequences(parse_polys(args.ideal, ord, field), ord)
        initial = ideal.random_initial(random.Random(args.seed))
        factory = lambda: ideal.oracle(initial)
    return ord, field, factory


def _bound_and_table(args, ord: MonomialOrder, algos: list[str]):
    """Monomial bound for the scan solvers, term set for the table solvers; a
    bound's down-set is enumerated only when one of `algos` reads a table."""
    bound = parse_monomial(args.bound, ord) if args.bound else None
    table = None
    if args.degree is not None:
        table = monomials_up_to_degree(args.degree, ord)
        if bound is None:
            bound = tuple(e * args.degree for e in ord.variable(ord.names[0]))
    elif bound is not None and any(a in _TABLE_RUNNERS for a in algos):
        table = enumerate_up_to(bound, ord)
    return bound, table


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _degrees(text: str) -> list[int]:
    """A degree `d`, or a range `lo..hi` with lo <= hi, as its list of degrees."""
    lo, sep, hi = text.partition("..")
    hi = hi if sep else lo
    if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"expected a degree d or a range lo..hi with lo <= hi, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def cmd_run(args) -> int:
    ord, _, factory = _resolve_inputs(args)
    bound, table = _bound_and_table(args, ord, [args.algo])
    res = run_algorithm(args.algo, factory(), ord, bound, table, trace=args.trace)
    print(json.dumps(result_to_json(res), indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    ord, _, factory = _resolve_inputs(args)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    bound, table = _bound_and_table(args, ord, algos)
    rep = compare_algorithms(factory, algos, ord, bound, table, window=args.window)
    print(json.dumps(comparison_report_to_json(rep), indent=2, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    families = [args.family] if args.family else list(FAMILY_NAMES)
    specs = [FamilySpec(fam, d, args.n, args.seed) for fam in families for d in args.d]
    rows = bench(specs, algos)
    text = gnuplot_columns(rows, args.gnuplot) if args.gnuplot else rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _check_queries(rows, args.n) if args.check else 0


def _check_queries(rows: list[BenchRow], n: int) -> int:
    """Diff the measured query counts against the reference tables on stderr;
    exit code 1 on any mismatch.  `rank` has no table of its own: it scans
    the bound's window as bms does and is held to the bms counts."""
    reference = reference_queries(n)
    mismatches = missing = 0
    for row in rows:
        table = "bms" if row.algorithm == "rank" else row.algorithm
        expected = reference.get((row.family, table), {}).get(row.d)
        if expected is None:
            missing += 1
        elif row.queries != expected:
            mismatches += 1
            print(
                f"MISMATCH {row.family} n={row.n} d={row.d} {row.algorithm}: "
                f"measured {row.queries}, reference {expected}",
                file=sys.stderr,
            )
    print(
        f"check: {len(rows) - missing} points against reference, {mismatches} mismatches"
        + (f", {missing} without reference data" if missing else ""),
        file=sys.stderr,
    )
    return 1 if mismatches else 0


def cmd_gorenstein(args) -> int:
    ord = parse_order(args.order or "drl(y<x)")
    field = parse_field(args.field or "Fp:65537")
    print(gorenstein_test(parse_polys(args.ideal, ord, field), ord, args.trials, args.seed))
    return 0


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--generator", choices=GENERATOR_NAMES, help="built-in sequence")
    src.add_argument("--table", help="JSON table file")
    src.add_argument("--ideal", help="a Gröbner basis under --order, comma-separated; random initial values")
    p.add_argument("--order", help='monomial order, e.g. "drl(y<x)"')
    p.add_argument("--field", help='"Fp:<prime>" or "Q"')
    p.add_argument("--bound", help='stopping monomial, e.g. "x^3"')
    p.add_argument("--degree", type=_natural, help="term set = all monomials up to this degree")
    p.add_argument("--seed", type=int, default=0, help="randomness for --ideal inputs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seqrel",
        description="Relation ideals of multidimensional linear recurrent sequences.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm")
    _add_input_flags(p_run)
    p_run.add_argument("--algo", choices=ALGORITHMS, default="bms")
    p_run.add_argument("--trace", action="store_true", help="per-monomial event log")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several algorithms, report verdicts")
    _add_input_flags(p_cmp)
    p_cmp.add_argument("--algos", default="bms,sfglm", help="comma-separated list")
    p_cmp.add_argument("--window", type=_natural, help="containment solve degree window")
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="benchmark grid to CSV or gnuplot series")
    p_bench.add_argument("--family", choices=FAMILY_NAMES, help="default: all three")
    p_bench.add_argument("-n", type=int, choices=(2, 3), default=2)
    p_bench.add_argument("-d", required=True, type=_degrees, help='degree grid, e.g. "2..6" or "4"')
    p_bench.add_argument("--algos", default="bms,sfglm")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="output path (default: stdout)")
    p_bench.add_argument(
        "--gnuplot", metavar="COLUMN", choices=CSV_HEADER[4:],
        help="emit (d, COLUMN) series blocks instead of CSV, e.g. queries or mults",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="diff measured query counts against the reference tables (exit 1 on a mismatch)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_gor = sub.add_parser("gorenstein", help="probabilistic Gorenstein test")
    p_gor.add_argument("--ideal", required=True, help="a Gröbner basis under --order, comma-separated")
    p_gor.add_argument("--order", help='default "drl(y<x)"')
    p_gor.add_argument("--field", help='default "Fp:65537"')
    p_gor.add_argument("--trials", type=int, default=10)
    p_gor.add_argument("--seed", type=int, default=0)
    p_gor.set_defaults(func=cmd_gorenstein)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SeqrelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
