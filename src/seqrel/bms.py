"""Relation-ideal computation by iterative discrepancy repair.

The engine walks every monomial m up to (and including) the bound in
ascending order, testing each current relation g whose leading monomial
divides m against the bracket [ (m/LM(g))·g ].  A step with no failing
relation changes nothing.  On failures the staircase absorbs the failing
quotients, the failure records are refreshed, and the basis is rebuilt over
the border of the new staircase — translating relations that stay valid and
correcting the failing ones with a recorded earlier failure so the repaired
relation keeps its leading monomial.

The engine state is raw: each relation and failure record is a term dict
(monomial -> int mod p, or Fraction over Q), combined through the raw methods
of the `Field`, and failures are keyed by their position in the basis.
Operations are counted in bulk, exactly as the same `Poly` arithmetic counts
them: a discrepancy k multiplications and k - 1
additions (bms-linalg's row, summed from zero: k and k), a normalization one
inversion and |g| multiplications, a combine |h| multiplications and |h|
additions plus the monic rescale.  `Poly`s are built only for the `Result`,
for the reduced basis, and for the step events when a trace is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .field import Field, FieldElement, OpCounter, count_adds, count_mults, counting
from .monomials import (
    Monomial,
    MonomialOrder,
    border,
    divides,
    iter_up_to,
    max_divisibility,
    mul as mono_mul,
    quotient,
    stabilize,
)
from .poly import (
    Poly,
    Terms,
    box,
    inter_reduce,
    raw_inverse,
    raw_monic,
    raw_scale,
    raw_shift,
    raw_sub_shifted,
    staircase_of,
)
from .result import Relation, Result
from .sequences import SequenceOracle, bracket

Discrepancy = Callable[[SequenceOracle, Terms, Monomial, MonomialOrder], FieldElement]


@dataclass
class FailRecord:
    """h failed at fail_at with [ratio·h] = 1 (ratio = fail_at / LM(h) = lm)."""

    h: Terms
    lm: Monomial
    ratio: Monomial
    fail_at: Monomial


@dataclass
class UpdateEvent:
    t: Monomial
    kind: str  # "keep" | "translate" | "combine"
    result: Poly
    source: Poly
    h: Poly | None = None
    nu: Monomial | None = None


@dataclass
class StepTrace:
    """One scanned monomial.  `step` returns it with raw term dicts in place
    of the polynomials (failing relations, event results, sources and h);
    `Result.trace` holds the `Poly` view made by `_boxed`."""

    m: Monomial
    failures: list[tuple[Poly, FieldElement]]
    staircase_added: list[Monomial]
    updates: list[UpdateEvent]
    reduced_basis: list[Poly] | None = None  # per-step view of the reduced run


@dataclass
class BmsState:
    ord: MonomialOrder
    field: Field
    staircase: list[Monomial]
    G: list[tuple[Monomial, Terms]]  # (LM, monic relation), ascending LM
    records: list[FailRecord]


def initial_state(field: Field, ord: MonomialOrder) -> BmsState:
    return BmsState(ord, field, [], [(ord.one, {ord.one: field.one.value})], [])


def _disc_bracket(
    oracle: SequenceOracle, g: Terms, v: Monomial, ord: MonomialOrder
) -> FieldElement:
    return bracket(oracle, g, v)


def _disc_matrix_row(
    oracle: SequenceOracle, g: Terms, v: Monomial, ord: MonomialOrder
) -> FieldElement:
    # the linear-algebra view: dot the shift's row of H_{{v}, supp g} with the
    # relation's coefficient vector, accumulating from zero (k mults, k adds)
    cols = sorted(g, key=ord.key, reverse=True)
    row = [oracle.query(mono_mul(v, c)).value for c in cols]
    count_mults(len(cols))
    count_adds(len(cols))
    field = oracle.field
    return field.elem(field._dot(row, [g[c] for c in cols]))


def step(
    state: BmsState,
    m: Monomial,
    oracle: SequenceOracle,
    discrepancy: Discrepancy = _disc_bracket,
) -> StepTrace:
    ord = state.ord
    field = state.field
    G = state.G
    failures: dict[int, FieldElement] = {}  # position in G -> discrepancy
    for i, (lm, g) in enumerate(G):
        if divides(lm, m):
            e = discrepancy(oracle, g, quotient(m, lm), ord)
            if e:
                failures[i] = e
    if not failures:
        return StepTrace(m, [], [], [])

    old_records = state.records
    old_stair = set(state.staircase)
    new_stair = stabilize(old_stair | {quotient(m, G[i][0]) for i in failures}, ord)
    added = [s for s in new_stair if s not in old_stair]

    # refresh failure records: normalize each failing relation to bracket 1,
    # keep one record per ratio (the ≺-smallest head), keep maximal ratios
    pool = old_records + [
        FailRecord(
            raw_scale(G[i][1], raw_inverse(e.value, field), field),
            G[i][0],
            quotient(m, G[i][0]),
            m,
        )
        for i, e in failures.items()
    ]
    by_ratio: dict[Monomial, FailRecord] = {}
    for rec in pool:
        cur = by_ratio.get(rec.ratio)
        if cur is None or ord.lt(rec.lm, cur.lm):
            by_ratio[rec.ratio] = rec
    keep = set(max_divisibility(list(by_ratio)))
    state.records = [by_ratio[r] for r in sorted(keep, key=ord.key)]

    updates: list[UpdateEvent] = []
    new_G: list[tuple[Monomial, Terms]] = []
    by_lm = {lm: i for i, (lm, _) in enumerate(G)}  # border LMs are pairwise distinct
    for t in border(new_stair, ord):  # ascending
        i = by_lm.get(t)
        if i is not None:
            src_lm = t
        else:
            divisors = [lm_g for lm_g in by_lm if divides(lm_g, t)]
            assert divisors, f"border monomial {t} has no divisor in the basis"
            src_lm = min(divisors, key=ord.key)
            i = by_lm[src_lm]
        src = G[i][1]
        q = quotient(t, src_lm)
        if i in failures and divides(t, m):
            v = quotient(m, t)
            spanning = [r for r in old_records if divides(v, r.ratio)]
            assert spanning, f"no failure record spans the shift {v} at {m}"
            rec = max(spanning, key=lambda r: ord.key(r.fail_at))
            nu = quotient(rec.ratio, v)
            gp = raw_sub_shifted(raw_shift(src, q), rec.h, nu, failures[i].value, field)
            assert max(gp, key=ord.key) == t, "repair lost the leading monomial"
            ev = UpdateEvent(t, "combine", raw_monic(gp, t, field), src, rec.h, nu)
        else:
            kind = "keep" if q == ord.one else "translate"
            gp = src if kind == "keep" else raw_shift(src, q)
            ev = UpdateEvent(t, kind, raw_monic(gp, t, field), src)
        new_G.append((t, ev.result))
        updates.append(ev)
    state.G = new_G
    state.staircase = new_stair
    return StepTrace(m, [(G[i][1], e) for i, e in failures.items()], added, updates)


def _boxed(tr: StepTrace, field: Field) -> StepTrace:
    """The `Poly` view of a step that `step` returned on raw term dicts."""
    return StepTrace(
        tr.m,
        [(box(field, g), e) for g, e in tr.failures],
        tr.staircase_added,
        [
            UpdateEvent(
                ev.t,
                ev.kind,
                box(field, ev.result),
                box(field, ev.source),
                None if ev.h is None else box(field, ev.h),
                ev.nu,
            )
            for ev in tr.updates
        ],
    )


def _basis(state: BmsState) -> list[Poly]:
    return [box(state.field, g) for _, g in state.G]


def max_certified_shift(
    lm: Monomial, bound: Monomial, ord: MonomialOrder
) -> Monomial | None:
    """Greatest v with v·lm ⪯ bound (the qualifying set is a down-set)."""
    if not ord.leq(lm, bound):
        return None
    best: Monomial | None = None
    for v in iter_up_to(bound, ord):
        if not ord.leq(mono_mul(v, lm), bound):
            break
        best = v
    return best


def _run(
    oracle: SequenceOracle,
    bound: Monomial,
    ord: MonomialOrder,
    algorithm: str,
    discrepancy: Discrepancy,
    reduce_each_step: bool,
    trace: bool,
) -> Result:
    ops = OpCounter()
    state = initial_state(oracle.field, ord)
    q0 = oracle.queries
    traces: list[StepTrace] = []
    with counting(ops):
        for m in iter_up_to(bound, ord):
            tr = step(state, m, oracle, discrepancy)
            if trace:
                tr = _boxed(tr, oracle.field)
                # the reduced variant presents each intermediate basis with
                # staircase-supported tails; the engine state itself stays
                # exact (a reduced tail cannot follow later repairs of its
                # reducer, which would break the final-output equality with
                # the inter-reduced plain run)
                if reduce_each_step:
                    tr.reduced_basis = inter_reduce(_basis(state), ord)
                traces.append(tr)
        basis = inter_reduce(_basis(state), ord) if reduce_each_step else _basis(state)
    relations = [
        Relation(g, max_certified_shift(g.lm(ord), bound, ord))
        for g in sorted(basis, key=lambda g: ord.key(g.lm(ord)))
    ]
    return Result(
        algorithm,
        ord,
        oracle.field,
        relations,
        state.staircase,
        oracle.queries - q0,
        ops,
        bound=bound,
        trace=traces,
    )


def run_bms(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder, trace: bool = False
) -> Result:
    return _run(oracle, bound, ord, "bms", _disc_bracket, False, trace)


def run_bms_linalg(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder, trace: bool = False
) -> Result:
    return _run(oracle, bound, ord, "bms-linalg", _disc_matrix_row, False, trace)


def run_bms_tweaked(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder, trace: bool = False
) -> Result:
    return _run(oracle, bound, ord, "bms-tweaked", _disc_bracket, True, trace)


def stopping_bound(gb: list[Poly], ord: MonomialOrder) -> Monomial:
    """s_max · max(g_max, s_max): large enough to recover this basis exactly."""
    staircase = staircase_of(gb, ord)
    s_max = max(staircase, key=ord.key) if staircase else ord.one
    g_max = max((g.lm(ord) for g in gb), key=ord.key)
    return mono_mul(s_max, max(g_max, s_max, key=ord.key))
