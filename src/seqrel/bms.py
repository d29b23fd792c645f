"""Relation-ideal computation by iterative discrepancy repair.

The engine walks every monomial m up to (and including) the bound in
ascending order, testing each current relation g whose leading monomial
divides m against the bracket [ (m/LM(g))·g ].  A step with no failing
relation changes nothing.  On failures the staircase absorbs the failing
quotients, the failure records are refreshed, and the basis is rebuilt over
the border of the new staircase — translating relations that stay valid and
correcting the failing ones with a recorded earlier failure so the repaired
relation keeps its leading monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .field import Field, FieldElement, OpCounter, counting
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
from .poly import Poly, inter_reduce
from .result import Relation, Result
from .sequences import SequenceOracle, bracket

Discrepancy = Callable[[SequenceOracle, Poly, Monomial, MonomialOrder], FieldElement]


@dataclass
class FailRecord:
    """h failed at fail_at with [ratio·h] = 1 (ratio = fail_at / LM at the time)."""

    h: Poly
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
    m: Monomial
    failures: list[tuple[Poly, FieldElement]]
    staircase_added: list[Monomial]
    updates: list[UpdateEvent]
    reduced_basis: list[Poly] | None = None  # per-step view of the reduced run


@dataclass
class BmsState:
    ord: MonomialOrder
    staircase: list[Monomial]
    G: list[Poly]
    records: list[FailRecord]
    processed: Monomial | None = None


def initial_state(field: Field, ord: MonomialOrder) -> BmsState:
    return BmsState(ord, [], [Poly.monomial(field, ord.one)], [])


def _disc_bracket(
    oracle: SequenceOracle, g: Poly, v: Monomial, ord: MonomialOrder
) -> FieldElement:
    return bracket(oracle, g, v)


def _disc_matrix_row(
    oracle: SequenceOracle, g: Poly, v: Monomial, ord: MonomialOrder
) -> FieldElement:
    # the linear-algebra view: dot the shift's matrix row with the relation's
    # coefficient vector over its support
    from .hankel import build

    cols = g.support(ord)
    H = build(oracle, [v], cols)
    acc = oracle.field.zero
    for a, c in zip(H.entries[0], cols, strict=True):
        acc = acc + a * g.terms[c]
    return acc


def step(
    state: BmsState,
    m: Monomial,
    oracle: SequenceOracle,
    discrepancy: Discrepancy = _disc_bracket,
) -> StepTrace:
    ord = state.ord
    state.processed = m
    failures: list[tuple[Poly, FieldElement]] = []
    for g in state.G:
        lm = g.lm(ord)
        if divides(lm, m):
            e = discrepancy(oracle, g, quotient(m, lm), ord)
            if e:
                failures.append((g, e))
    if not failures:
        return StepTrace(m, [], [], [])

    old_records = list(state.records)
    fail_map = dict(failures)
    old_stair = set(state.staircase)
    new_stair = stabilize(
        old_stair | {quotient(m, g.lm(ord)) for g, _ in failures}, ord
    )
    added = [s for s in new_stair if s not in old_stair]

    # refresh failure records: normalize each failing relation to bracket 1,
    # keep one record per ratio (the ≺-smallest head), keep maximal ratios
    pool = old_records + [
        FailRecord(g.scale(e.inverse()), quotient(m, g.lm(ord)), m) for g, e in failures
    ]
    by_ratio: dict[Monomial, FailRecord] = {}
    for rec in pool:
        cur = by_ratio.get(rec.ratio)
        if cur is None or ord.lt(rec.h.lm(ord), cur.h.lm(ord)):
            by_ratio[rec.ratio] = rec
    keep = set(max_divisibility(list(by_ratio)))
    state.records = [by_ratio[r] for r in sorted(keep, key=ord.key)]

    updates: list[UpdateEvent] = []
    new_G: list[Poly] = []
    by_lm = {g.lm(ord): g for g in state.G}  # border LMs are pairwise distinct
    for t in sorted(border(new_stair, ord), key=ord.key):
        src = by_lm.get(t)
        if src is not None:
            src_lm = t
        else:
            divisors = [lm_g for lm_g in by_lm if divides(lm_g, t)]
            assert divisors, f"border monomial {t} has no divisor in the basis"
            src_lm = min(divisors, key=ord.key)
            src = by_lm[src_lm]
        q = quotient(t, src_lm)
        if divides(t, m) and src in fail_map:
            e = fail_map[src]
            v = quotient(m, t)
            spanning = [r for r in old_records if divides(v, r.ratio)]
            assert spanning, f"no failure record spans the shift {v} at {m}"
            rec = max(spanning, key=lambda r: ord.key(r.fail_at))
            nu = quotient(rec.ratio, v)
            gp = src.mul_monomial(q) - rec.h.mul_monomial(nu).scale(e)
            assert gp.lm(ord) == t, "repair lost the leading monomial"
            ev = UpdateEvent(t, "combine", gp.monic(ord), src, rec.h, nu)
        else:
            gp = src.mul_monomial(q)
            ev = UpdateEvent(t, "keep" if q == ord.one else "translate", gp.monic(ord), src)
        new_G.append(ev.result)
        updates.append(ev)
    state.G = new_G
    state.staircase = sorted(new_stair, key=ord.key)
    return StepTrace(m, failures, added, updates)


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
                # the reduced variant presents each intermediate basis with
                # staircase-supported tails; the engine state itself stays
                # exact (a reduced tail cannot follow later repairs of its
                # reducer, which would break the final-output equality with
                # the inter-reduced plain run)
                if reduce_each_step:
                    tr.reduced_basis = inter_reduce(state.G, ord)
                traces.append(tr)
        basis = inter_reduce(state.G, ord) if reduce_each_step else state.G
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
    from .poly import staircase_of

    staircase = staircase_of(gb, ord)
    s_max = max(staircase, key=ord.key) if staircase else ord.one
    g_max = max((g.lm(ord) for g in gb), key=ord.key)
    return mono_mul(s_max, max(g_max, s_max, key=ord.key))
