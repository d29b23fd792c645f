"""Cross-algorithm verification, the Gorenstein test, and the benchmark harness."""

from __future__ import annotations

import csv
import io
import math
import random
import time
from dataclasses import astuple, dataclass, fields
from itertools import product
from typing import Callable, Iterable, Sequence

from .bms import run_bms, run_bms_linalg, run_bms_tweaked
from .errors import FieldMismatchError, SeqrelError
from .field import Field, FpField, count_adds, count_mults, counting_paused
from .hankel import _dots, _pivot_columns, build
from .monomials import (
    Monomial,
    MonomialOrder,
    _nonnegative_rows,
    degree,
    enumerate_up_to,
    format_monomial,
    mul as mono_mul,
    parse_order,
)
from .poly import Poly, format_poly, staircase_of, unbox
from .poly import inter_reduce  # noqa: F401  perfbench's layer tracer patches it here
from .ranksolver import run_rank_solver
from .result import Result, result_to_json
from .sequences import IdealSequences, SequenceOracle, _nonsingular, bracket, random_from_lms
from .sfglm import run_sfglm, run_sfglm_tweaked

ALGORITHMS = ("bms", "bms-linalg", "bms-tweaked", "sfglm", "sfglm-tweaked", "rank")

_SCAN_RUNNERS: dict[str, Callable] = {
    "bms": run_bms,
    "bms-linalg": run_bms_linalg,
    "bms-tweaked": run_bms_tweaked,
    "rank": run_rank_solver,
}
_TABLE_RUNNERS: dict[str, Callable] = {
    "sfglm": run_sfglm,
    "sfglm-tweaked": run_sfglm_tweaked,
}


def monomials_up_to_degree(deg: int, ord: MonomialOrder) -> list[Monomial]:
    """All monomials of total degree <= deg, ascending."""
    exps = range(deg + 1)
    return ord.sort([e for e in product(exps, repeat=ord.n) if sum(e) <= deg])


def run_algorithm(
    algo: str,
    oracle: SequenceOracle,
    ord: MonomialOrder,
    bound: Monomial | None = None,
    table: list[Monomial] | None = None,
    trace: bool = False,
) -> Result:
    """Dispatch on algorithm name; monomial bound or term set per family.
    `trace` records the bms step events; the other solvers keep none.  An
    order whose number of variables is not the sequence's dimension raises
    `SeqrelError` before any read."""
    if ord.n != oracle.n:
        raise SeqrelError(f"order {ord.spec_string()} has {ord.n} variables; the sequence has dimension {oracle.n}")
    if algo in _SCAN_RUNNERS:
        if bound is None:
            raise SeqrelError(f"algorithm {algo!r} needs a stopping monomial")
        if trace and algo != "rank":
            return _SCAN_RUNNERS[algo](oracle, bound, ord, trace=True)
        return _SCAN_RUNNERS[algo](oracle, bound, ord)
    if algo in _TABLE_RUNNERS:
        if table is None:
            raise SeqrelError(f"algorithm {algo!r} needs a term set")
        return _TABLE_RUNNERS[algo](oracle, table, ord)
    raise SeqrelError(f"unknown algorithm {algo!r}")


def result_basis(res: Result) -> list[Poly]:
    """`res.basis()` as a function (the benchmark in perfbench/ calls it)."""
    return res.basis()


# -- verification -------------------------------------------------------------------


def verify_shift(
    oracle: SequenceOracle, g: Poly, shifts: Iterable[Monomial]
) -> bool:
    """True iff [m*g] vanishes for every m in the shift set."""
    return all(not bracket(oracle, g, m) for m in shifts)


def verify_result(oracle: SequenceOracle, res: Result, ord: MonomialOrder) -> bool:
    """Re-check every certified shift claim of a result against a fresh oracle:
    the certificate rows of a table result, else each relation's shift down-set.
    Each relation g is checked as one block product H_{shifts,supp g}·g = 0,
    rows the shifts ascending and columns g's terms in order, built on its
    own by `hankel.build`; a cell an earlier block read is answered
    by the oracle's memo or the table's array, so the distinct indices are
    queried in the order a shift-by-shift check queries them.  Only an order
    that is a well-order is accepted (`UnsupportedOrderError`).
    Counted like one `bracket` per shift, up to and including the first
    failing one: k multiplications and k − 1 additions for k terms.  A failing
    relation may read the rest of its own block, and so raise
    `BoundExceededError` where a finite table ends, but it reads no later
    relation's cells."""
    rels = [r for r in res.relations if r.shift is not None]
    if not rels:
        return True
    _nonnegative_rows(ord)  # raises on an order that is not a well-order
    table = res.table is not None
    rows = res.table if table else enumerate_up_to(max((r.shift for r in rels), key=ord.key), ord)
    at = {m: i + 1 for i, m in enumerate(rows)}  # a shift's down-set is rows[: at[shift]]
    field = oracle.field
    for rel in rels:
        if not rel.poly.terms:
            continue
        if rel.poly.field != field:
            raise FieldMismatchError(f"{rel.poly.field} polynomial against a {field} sequence")
        terms = unbox(rel.poly)
        shifts = rows if table else rows[: at[rel.shift]]
        block = build(oracle, shifts, list(terms)).array
        bad = next((i for i, x in enumerate(_dots(block, list(terms.values()), field)) if x), None)
        checked = len(shifts) if bad is None else bad + 1
        count_mults(len(terms) * checked)
        count_adds((len(terms) - 1) * checked)
        if bad is not None:
            return False
    return True


def is_zero_dimensional(G: Sequence[Poly], ord: MonomialOrder) -> bool:
    """True iff every variable has some LM(g) equal to a pure power of it."""
    lms = [g.lm(ord) for g in G if g]
    return ord.n > 0 and all(
        any(sum(m) == m[i] for m in lms) for i in range(ord.n)
    )


def ideal_contains_at_truncation(
    G_big: Sequence[Poly],
    G_small: Sequence[Poly],
    ord: MonomialOrder,
    degree_window: int,
) -> bool:
    """True iff each g in G_small equals some sum h_i*g_i over G_big with
    deg h_i <= degree_window (a bounded-degree linear membership solve)."""
    gens = [g for g in G_big if g]
    targets = [g for g in G_small if g]
    if not targets:
        return True
    if not gens:
        return False
    field = targets[0].field
    with counting_paused():
        cols = [
            g.mul_monomial(mu)
            for g in gens
            for mu in monomials_up_to_degree(degree_window, ord)
        ]
        support = sorted(
            {m for p in cols for m in p.terms}
            | {m for t in targets for m in t.terms},
            key=ord.key,
        )
        idx = {m: i for i, m in enumerate(support)}

        def column(p: Poly) -> list:
            v = [field.zero.value] * len(support)
            for m, c in p.terms.items():
                v[idx[m]] = c.value
            return v

        ncols = len(cols)
        entries = [column(p) for p in cols] + [column(t) for t in targets]
        # row-reduce the transpose: a pivot inside a target column means that
        # target is independent of the generator multiples
        matrix = [list(r) for r in zip(*entries, strict=True)]
        pivots = _pivot_columns(matrix, len(entries), field)
    return all(p < ncols for p in pivots)


# -- cross-algorithm comparison -------------------------------------------------------


@dataclass
class ComparisonReport:
    ord: MonomialOrder
    field: Field
    algorithms: list[str]
    results: dict[str, Result]
    zero_dimensional: dict[str, bool]
    containment: dict[str, bool]
    verified: dict[str, bool]  # `verify_result`, each on its own fresh oracle


def compare_algorithms(
    make_oracle: Callable[[], SequenceOracle],
    algos: Sequence[str],
    ord: MonomialOrder,
    bound: Monomial | None = None,
    table: list[Monomial] | None = None,
    window: int | None = None,
) -> ComparisonReport:
    """Run each algorithm on a fresh oracle and recompute all verdicts; each
    result's certificate is re-checked on another fresh oracle."""
    if not algos:
        raise SeqrelError("no algorithm to compare")
    names: list[str] = []
    for a in algos:
        name = a
        k = 2
        while name in names:
            name = f"{a}#{k}"
            k += 1
        names.append(name)
    results: dict[str, Result] = {}
    for name, algo in zip(names, algos, strict=True):
        results[name] = run_algorithm(algo, make_oracle(), ord, bound, table)
    bases = {name: res.basis() for name, res in results.items()}
    if window is None:
        degs = [degree(g.lm(ord)) for B in bases.values() for g in B if g]
        window = max([2, *degs])
    containment: dict[str, bool] = {}
    for a in names:
        for b in names:
            if a != b:
                containment[f"{a}<={b}"] = ideal_contains_at_truncation(
                    bases[b], bases[a], ord, window
                )
    fld = next(iter(results.values())).field
    return ComparisonReport(
        ord=ord,
        field=fld,
        algorithms=names,
        results=results,
        zero_dimensional={n: is_zero_dimensional(bases[n], ord) for n in names},
        containment=containment,
        verified={n: verify_result(make_oracle(), results[n], ord) for n in names},
    )


def comparison_report_to_json(rep: ComparisonReport) -> dict:
    shifts = {
        name: [
            {
                "poly": format_poly(r.poly, rep.ord),
                "shift": format_monomial(r.shift, rep.ord) if r.shift is not None else "0",
                "tested": r.shift is not None,
            }
            for r in res.relations
        ]
        for name, res in rep.results.items()
    }
    return {
        "order": rep.ord.spec_string(),
        "field": str(rep.field),
        "algorithms": list(rep.algorithms),
        "results": {n: result_to_json(r) for n, r in rep.results.items()},
        "zero_dimensional": dict(rep.zero_dimensional),
        "containment": dict(rep.containment),
        "verified": dict(rep.verified),
        "shifts": shifts,
        "queries": {n: r.queries for n, r in rep.results.items()},
        "ops": {n: r.ops.as_dict() for n, r in rep.results.items()},
    }


# -- Gorenstein probabilistic test ----------------------------------------------------

GORENSTEIN_LIKELY = "Gorenstein-likely"
NOT_GORENSTEIN = "NotGorenstein"


def gorenstein_test(
    J_gb: Sequence[Poly], ord: MonomialOrder, trials: int, seed: int
) -> str:
    """Whether R/J has a single dual generator.  A random dual element ℓ, its
    values on the staircase S, generates exactly when H_{S,S}(ℓ) is
    nonsingular, so the first such trial proves J Gorenstein.  NotGorenstein
    means every trial was singular; for a Gorenstein J each is, with
    probability at most |S|/p (|S|/101 over Q, draws in [−50, 50]), which
    says nothing when p ≤ |S|."""
    if trials < 1:
        raise SeqrelError("the Gorenstein test needs at least one trial")
    ideal = IdealSequences(J_gb, ord)
    for trial in range(trials):
        initial = ideal.random_initial(random.Random(seed * 1_000_003 + trial))
        if _nonsingular(ideal.oracle(initial), ideal.staircase, ord):
            return GORENSTEIN_LIKELY
    return NOT_GORENSTEIN


# -- benchmark families ---------------------------------------------------------------

FAMILY_NAMES = ("rectangle", "lshape", "simplex")
BENCH_FIELD = FpField(65537)


@dataclass
class FamilySpec:
    family: str  # "rectangle" | "lshape" | "simplex"
    d: int
    n: int  # 2 or 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_NAMES:
            raise SeqrelError(f"unknown family {self.family!r}")
        if self.n not in (2, 3):
            raise SeqrelError("benchmark families are 2- or 3-dimensional")
        if self.d < 2:
            raise SeqrelError("family degree parameter must be >= 2")


def family_order(n: int) -> MonomialOrder:
    return parse_order("drl(y<x)" if n == 2 else "drl(z<y<x)")


def _vpow(v: Monomial, e: int) -> Monomial:
    return tuple(c * e for c in v)


def family_lms(spec: FamilySpec, ord: MonomialOrder) -> list[Monomial]:
    d, n = spec.d, spec.n
    x, y = ord.variable("x"), ord.variable("y")
    z = ord.variable("z") if n == 3 else None
    if spec.family == "rectangle":
        lms = [_vpow(y, d // 2), _vpow(x, d)]
        if n == 3:
            lms.insert(0, _vpow(z, -(-d // 3)))
    elif spec.family == "lshape":
        if n == 2:
            lms = [mono_mul(x, y), _vpow(y, d), _vpow(x, d)]
        else:
            lms = [
                mono_mul(y, z), mono_mul(x, z), mono_mul(x, y),
                _vpow(z, d), _vpow(y, d), _vpow(x, d),
            ]
    else:  # simplex
        lms = [m for m in monomials_up_to_degree(d, ord) if sum(m) == d]
    return ord.sort(lms)


def _family_staircase(spec: FamilySpec) -> tuple[list[Monomial], list[Monomial]]:
    """The family's generating leading monomials and their staircase."""
    ord = family_order(spec.n)
    lms = family_lms(spec, ord)
    return lms, staircase_of([Poly.monomial(BENCH_FIELD, m) for m in lms], ord)


def family_degrees(spec: FamilySpec) -> tuple[int, int, int]:
    """(d_S, d_G, d_max) from the known generating leading monomials."""
    lms, stair = _family_staircase(spec)
    d_s = max((degree(s) for s in stair), default=0)
    d_g = max(degree(m) for m in lms)
    return d_s, d_g, max(d_s, d_g)


def model_mults(spec: FamilySpec, algorithm: str) -> int:
    """The cost model of a solver's multiplication count: (#S)^2 * deg(G) for
    the scan solvers, |S(d_max)|^3 + (#S)^2 * #LM(G) for the table solvers,
    where S(d_max), the monomials of degree <= d_max, is the table."""
    lms, stair = _family_staircase(spec)
    _, d_g, d_max = family_degrees(spec)
    s = len(stair)
    if algorithm in _TABLE_RUNNERS:
        return math.comb(spec.n + d_max, spec.n) ** 3 + s * s * len(lms)
    return s * s * d_g


def make_family(
    spec: FamilySpec, field: Field = BENCH_FIELD
) -> tuple[SequenceOracle, list[Poly], int]:
    """A random sequence whose ideal has the family's leading monomials."""
    lms, stair = _family_staircase(spec)
    oracle, gb = random_from_lms(lms, family_order(spec.n), field, spec.seed)
    return oracle, gb, len(stair)


# -- benchmark harness ----------------------------------------------------------------

@dataclass
class BenchRow:
    family: str
    n: int
    d: int
    algorithm: str
    queries: int
    mults: int
    adds: int
    staircase_size: int
    dmax: int
    wall_ms: float

    def as_csv(self) -> list[str]:
        return [f"{v:.3f}" if isinstance(v, float) else str(v) for v in astuple(self)]


CSV_HEADER = tuple(f.name for f in fields(BenchRow))


def bench_point(
    spec: FamilySpec, algorithm: str, field: Field = BENCH_FIELD
) -> BenchRow:
    """One grid point, one fresh oracle: BMS-family solvers scan up to
    x^(d_S + d_max); the table-driven ones use all monomials of degree <= d_max."""
    ord = family_order(spec.n)
    oracle, _, ssize = make_family(spec, field)
    d_s, _, d_max = family_degrees(spec)
    bound = table = None
    if algorithm in _TABLE_RUNNERS:
        table = monomials_up_to_degree(d_max, ord)
    else:
        bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
    t0 = time.perf_counter()
    res = run_algorithm(algorithm, oracle, ord, bound, table)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return BenchRow(
        family=spec.family,
        n=spec.n,
        d=spec.d,
        algorithm=algorithm,
        queries=res.queries,
        mults=res.ops.multiplications,
        adds=res.ops.additions,
        staircase_size=ssize,
        dmax=d_max,
        wall_ms=wall_ms,
    )


def bench(specs: Iterable[FamilySpec], algorithms: Sequence[str]) -> list[BenchRow]:
    if not algorithms:
        raise SeqrelError("no algorithm to bench")
    return [bench_point(s, a) for s in specs for a in algorithms]


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(r.as_csv())
    return buf.getvalue()


def gnuplot_columns(rows: Sequence[BenchRow], value: str = "queries") -> str:
    """Blank-line-separated (d, value) blocks, one per family/n/algorithm series."""
    keys = sorted({(r.family, r.n, r.algorithm) for r in rows})
    blocks = []
    for fam, n, algo in keys:
        series = sorted(
            (r.d, getattr(r, value)) for r in rows
            if (r.family, r.n, r.algorithm) == (fam, n, algo)
        )
        lines = [f'# {fam} n={n} {algo} ({value})']
        lines += [f"{d} {v}" for d, v in series]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
