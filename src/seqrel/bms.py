"""Relation-ideal computation by iterative discrepancy repair.

The engine walks every monomial m up to (and including) the bound in
ascending order, testing each current relation g whose leading monomial
divides m against the bracket [ (m/LM(g))·g ].  A step with no failing
relation changes nothing.  On failures the staircase absorbs the failing
quotients, the failure records are refreshed, and the basis is rebuilt over
the border of the new staircase — translating relations that stay valid and
correcting the failing ones with a recorded earlier failure so the repaired
relation keeps its leading monomial.

Inside `_run` every monomial is one int of the run's `Packing`, and every
relation and failure record one term dict of ints, held up to a nonzero
factor: residues mod p, or over Q a primitive integer vector, as the
elimination rows of `hankel` are.  The monic relation is g / g[LM(g)]; a
failure record is g with its discrepancy b = [ratio·g], standing for g / b.
A source src failing with d = [src] is repaired in place to a·(q·src) −
c·(ν·h) with a/c = b/d (`Field._cross`, `Field._sub_into`): on F_p a = 1, so
the source is only translated (b⁻¹ is the record's normalization, counted
below); over Q the result is divided by its content (`Field._primitive`).
The records, an antichain of ratios, are refreshed by comparing only the
step's fresh ratios with the others (`_refresh`); staircase and border grow
in place.  Step m first reads u_m into a plain code -> value dict, so each
window code is read once, in window order: m lies outside the staircase
(divisors of earlier quotients, all ≺ m), so some border LM divides m and
its bracket reads u_m; every other read, (m/LM(g))·s with s ≺ LM(g), is a
window code ≺ m.  Tuples and monic `Poly`s are made only at the boundary:
the `Result`, the reduced basis (bms-tweaked inter-reduces on codes) and a
trace's step events (`_boxed`).  Operations are counted in bulk, as the
monic algorithm's `Poly` arithmetic counts them: a discrepancy k
multiplications and k - 1 additions (bms-linalg's row, summed from zero: k
and k), a record's normalization one inversion and |g| multiplications, a
combine |h| multiplications and |h| additions (the shifted record lies below
the lead, so the repaired relation stays monic and no rescale is counted).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .field import Field, FieldElement, OpCounter, count_adds, count_invs, count_mults, counting
from .monomials import Monomial, MonomialOrder, Packing, certified_shift, enumerate_up_to, mul as mono_mul
from .monomials import grow_staircase as stabilize  # looked up per call: perfbench times it
from .poly import Poly, Terms, box, inter_reduce, raw_sub_shifted, staircase_of
from .result import Relation, Result
from .sequences import SequenceOracle, bracket

Discrepancy = Callable[[SequenceOracle, Terms, int, dict], FieldElement]


@dataclass
class FailRecord:
    """h / b failed at fail_at with bracket 1: b = [ratio·h], ratio = fail_at / LM(h)."""

    h: Terms
    b: object  # raw value
    ratio: int
    fail_at: int
    lm: int  # LM(h)


def _refresh(records: list[FailRecord], fresh: list[FailRecord], mask: int) -> list[FailRecord]:
    """The maximal records of records + fresh, one per ratio, ascending ratio.
    `records` is an antichain and `fresh` failed after all of them (an old
    record wins a tie), so only the fresh ratios are compared: an old record
    goes when it divides one, a fresh one when its ratio divides any other."""
    new = [f.ratio for f in fresh]
    for f in new:
        records = [r for r in records if r.ratio == f or (f - r.ratio) & mask]
    ratios = [r.ratio for r in records] + new
    fresh = [f for f in fresh if [r for r in ratios if not (r - f.ratio) & mask] == [f.ratio]]
    return sorted(records + fresh, key=attrgetter("ratio"))


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
    """One scanned monomial.  `step` returns it on codes, raw term dicts and
    raw discrepancies, with the `FailRecord` as `h`; `Result.trace` holds the
    tuple and monic `Poly` view made by `_boxed`."""

    m: Monomial
    failures: list[tuple[Poly, FieldElement]]
    staircase_added: list[Monomial]
    updates: list[UpdateEvent]
    reduced_basis: list[Poly] | None = None  # per-step view of the reduced run


@dataclass
class BmsState:
    field: Field
    pk: Packing
    reads: dict[int, object]  # code -> raw value, read once at its own step
    staircase: set[int]  # stable under divisors
    border: set[int]  # the minimal codes outside the staircase: the next LMs
    G: list[tuple[int, Terms]]  # (LM, relation up to a nonzero factor), ascending LM
    records: list[FailRecord]


def _disc_bracket(oracle: SequenceOracle, g: Terms, v: int, reads: dict) -> FieldElement:
    return bracket(oracle, g, v, reads)


def _disc_matrix_row(oracle: SequenceOracle, g: Terms, v: int, reads: dict) -> FieldElement:
    # the linear-algebra view: the shift's row of H_{{v}, supp g} dotted with
    # the relation's coefficient vector, summed from zero: the bracket's
    # value and counts, plus the first addition (k mults, k adds)
    count_adds(1)
    return bracket(oracle, g, v, reads)


def step(state: BmsState, m: int, oracle: SequenceOracle, discrepancy: Discrepancy) -> StepTrace:
    field, mask, reads, G = state.field, state.pk.mask, state.reads, state.G
    failures: dict[int, FieldElement] = {}  # position in G -> discrepancy
    for i, (lm, g) in enumerate(G):
        if not (m - lm) & mask:
            e = discrepancy(oracle, g, m - lm, reads)
            if e:
                failures[i] = e
    if not failures:
        return StepTrace(m, [], [], [])

    added = stabilize(state.pk, state.staircase, state.border, [m - G[i][0] for i in failures])

    # refresh failure records: each failing relation with its bracket (its
    # normalization to bracket 1 is counted, not done), one record per ratio
    # (the ≺-smallest head, so the earliest failure), maximal ratios only
    old_records = state.records
    fresh = [FailRecord(G[i][1], e.value, m - G[i][0], m, G[i][0]) for i, e in failures.items()]
    count_invs(len(failures))
    count_mults(sum(len(G[i][1]) for i in failures))
    state.records = _refresh(old_records, fresh, mask)

    updates: list[UpdateEvent] = []
    new_G: list[tuple[int, Terms]] = []
    by_lm = {lm: i for i, (lm, _) in enumerate(G)}  # border LMs are pairwise distinct
    for t in sorted(state.border):
        i = by_lm.get(t)
        if i is not None:
            src_lm = t
        else:
            src_lm = min(lm for lm in by_lm if not (t - lm) & mask)
            i = by_lm[src_lm]
        src = G[i][1]
        q = t - src_lm
        v = m - t
        if i in failures and not v & mask:
            spanning = [r for r in old_records if not (r.ratio - v) & mask]
            assert spanning, "no failure record spans the shift"
            rec = max(spanning, key=attrgetter("fail_at"))
            nu = rec.ratio - v
            assert nu + rec.lm < t, "repair lost the leading monomial"
            # a·(q·src) − c·(ν·h), a/c = b/[src], a = 1 on F_p (`Field._cross`)
            a, c = field._cross(rec.b, failures[i].value)
            gp = {q + s: x for s, x in (src.items() if a == 1 else zip(src, field._scale(src.values(), a)))}
            raw_sub_shifted(gp, [nu + s for s in rec.h], rec.h, c, field)
            ev = UpdateEvent(t, "combine", field._primitive(gp), src, rec, nu)
        else:
            kind = "keep" if q == 0 else "translate"
            ev = UpdateEvent(t, kind, src if q == 0 else {q + s: c for s, c in src.items()}, src)
        new_G.append((t, ev.result))
        updates.append(ev)
    state.G = new_G
    return StepTrace(m, [(G[i][1], e) for i, e in failures.items()], added, updates)


def _boxed(tr: StepTrace, state: BmsState) -> StepTrace:
    """The tuple and monic `Poly` view of a step that `step` returned packed:
    each failing relation monic with its discrepancy divided by the same lead,
    each record h / b."""
    field, unpack = state.field, state.pk.unpack

    def poly(g: Terms, c=None) -> Poly:
        return box(field, _monic(field, g, c), unpack)

    return StepTrace(
        unpack(tr.m),
        [(poly(g), FieldElement(field, field._mul(e.value, field._inv(g[max(g)])))) for g, e in tr.failures],
        [unpack(s) for s in tr.staircase_added],
        [
            UpdateEvent(
                unpack(ev.t),
                ev.kind,
                poly(ev.result),
                poly(ev.source),
                None if ev.h is None else poly(ev.h.h, ev.h.b),
                None if ev.nu is None else unpack(ev.nu),
            )
            for ev in tr.updates
        ],
    )


def _monic(field: Field, g: Terms, c=None) -> Terms:
    """g / c, uncounted; c defaults to g's lead (the monic g)."""
    return dict(zip(g, field._scale(g.values(), field._inv(g[max(g)] if c is None else c))))


def _basis(state: BmsState, reduced: bool) -> list[Poly]:
    """The monic relations, inter-reduced on their codes when `reduced`."""
    field, G = state.field, [_monic(state.field, g) for _, g in state.G]
    return inter_reduce(G, state.pk, field) if reduced else [box(field, g, state.pk.unpack) for g in G]


def _run(
    oracle: SequenceOracle,
    bound: Monomial,
    ord: MonomialOrder,
    algorithm: str,
    trace: bool,
) -> Result:
    # the settings follow the name; the discrepancy is looked up per run, so
    # that a tracer can wrap it in this module
    discrepancy = _disc_matrix_row if algorithm == "bms-linalg" else _disc_bracket
    reduce_each_step = algorithm == "bms-tweaked"
    ops = OpCounter()
    field = oracle.field
    pk = Packing(ord, bound)
    G = [(0, {0: 1})]  # the relation 1, on the code of the monomial 1
    state = BmsState(field, pk, {}, set(), {0}, G, [])
    q0 = oracle.queries
    traces: list[StepTrace] = []
    monos = enumerate_up_to(bound, ord)
    window = [pk.pack(m) for m in monos]
    with counting(ops):
        for mono, m in zip(monos, window):
            state.reads[m] = oracle.query(mono).value  # the step's only new read
            tr = step(state, m, oracle, discrepancy)
            if trace:
                tr = _boxed(tr, state)
                # each intermediate basis reduced, the engine state kept exact:
                # a reduced tail cannot follow later repairs of its reducer,
                # which would break the final equality with the plain run
                if reduce_each_step:
                    tr.reduced_basis = _basis(state, True)
                traces.append(tr)
        basis = _basis(state, reduce_each_step)
    relations = [Relation(g, certified_shift(pk, window, pk.pack(g.lm(ord)))) for g in basis]
    return Result(
        algorithm,
        ord,
        field,
        relations,
        [pk.unpack(s) for s in sorted(state.staircase)],
        oracle.queries - q0,
        ops,
        bound=bound,
        trace=traces,
    )


def run_bms(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder, trace: bool = False
) -> Result:
    return _run(oracle, bound, ord, "bms", trace)


def run_bms_linalg(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder, trace: bool = False
) -> Result:
    return _run(oracle, bound, ord, "bms-linalg", trace)


def run_bms_tweaked(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder, trace: bool = False
) -> Result:
    return _run(oracle, bound, ord, "bms-tweaked", trace)


def stopping_bound(gb: list[Poly], ord: MonomialOrder) -> Monomial:
    """s_max · max(g_max, s_max): large enough to recover this basis exactly."""
    staircase = staircase_of(gb, ord)
    s_max = max(staircase, key=ord.key) if staircase else ord.one
    g_max = max((g.lm(ord) for g in gb), key=ord.key)
    return mono_mul(s_max, max(g_max, s_max, key=ord.key))
