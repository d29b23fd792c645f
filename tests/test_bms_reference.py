"""The BMS engine, on raw values and packed monomials, against the engine on
`Poly`/`FieldElement` arithmetic and monomial tuples that it replaced.

The reference below is the engine as it ran on counted `Poly` arithmetic:
`step`, the two discrepancies, the normal form inside `inter_reduce`, and the
window walk for certified shifts.  The engine must give the same relations,
shifts, staircase, queries, operation counts and event trace on every field
and under drl, lex and a weight order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from seqrel.bms import (
    StepTrace,
    UpdateEvent,
    run_bms,
    run_bms_linalg,
    run_bms_tweaked,
    stopping_bound,
)
from seqrel.errors import BoundExceededError, SeqrelError
from seqrel.field import QQ, FieldElement, FpField, OpCounter, counting
from seqrel.hankel import build
from seqrel.monomials import (
    Monomial,
    MonomialOrder,
    border,
    divides,
    enumerate_up_to,
    mul,
    parse_monomial,
    parse_order,
    quotient,
    stabilize,
)
from seqrel.poly import Poly, inter_reduce
from seqrel.result import Relation, Result, format_trace, result_to_json
from seqrel.sequences import SequenceOracle, make_generator, random_from_lms, table_oracle

DRL2 = parse_order("drl(y<x)")
DRL3 = parse_order("drl(z<y<x)")
LEX3 = parse_order("lex(z<y<x)")
W2 = parse_order("weight([[1,2],[0,-1]];y<x)")
F7 = FpField(7)
F65537 = FpField(65537)
F31 = FpField(2**31 - 1)


# -- the reference engine on counted Poly arithmetic -------------------------------


def shifted(f: Poly, m: Monomial) -> Poly:
    """m·f: a translation, no field arithmetic."""
    return Poly(f.field, {mul(m, t): c for t, c in f.terms.items()})


def ref_normal_form(f: Poly, G, ord: MonomialOrder) -> Poly:
    divisors = sorted((g for g in G if g), key=lambda g: ord.key(g.lm(ord)))
    if not divisors:
        return f
    lms = [g.lm(ord) for g in divisors]
    rem = f
    while True:
        target = None
        for m in rem.support(ord):  # descending: largest reducible first
            for i, l in enumerate(lms):
                if divides(l, m):
                    target = (m, i)
                    break
            if target:
                break
        if target is None:
            return rem
        m, i = target
        g = divisors[i]
        factor = rem.coeff(m) / g.terms[lms[i]]
        rem = rem - shifted(g, quotient(m, lms[i])).scale(factor)


def ref_inter_reduce(G, ord: MonomialOrder) -> list[Poly]:
    work = [g for g in G if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            others = work[:i] + work[i + 1 :]
            r = ref_normal_form(work[i], others, ord)
            if r != work[i]:
                changed = True
                if r:
                    work[i] = r
                else:
                    del work[i]
                break
    return sorted((g.monic(ord) for g in work), key=lambda g: ord.key(g.lm(ord)))


def ref_bracket(oracle: SequenceOracle, f: Poly, shift: Monomial) -> FieldElement:
    acc = None
    for m, c in f.terms.items():
        term = c * oracle.query(tuple(a + b for a, b in zip(m, shift)))
        acc = term if acc is None else acc + term
    return acc if acc is not None else f.field.zero


def ref_matrix_row(oracle: SequenceOracle, g: Poly, v: Monomial, ord) -> FieldElement:
    cols = g.support(ord)
    H = build(oracle, [v], cols)
    acc = oracle.field.zero
    for a, c in zip(H.array.tolist()[0], cols, strict=True):
        acc = acc + FieldElement(oracle.field, a) * g.terms[c]
    return acc


@dataclass
class RefRecord:
    h: Poly
    ratio: Monomial
    fail_at: Monomial


@dataclass
class RefState:
    staircase: list
    G: list
    records: list


def ref_step(state: RefState, m, oracle, discrepancy, ord) -> StepTrace:
    failures = []
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
    new_stair = stabilize(old_stair | {quotient(m, g.lm(ord)) for g, _ in failures}, ord)
    added = [s for s in new_stair if s not in old_stair]
    pool = old_records + [
        RefRecord(g.scale(e.inverse()), quotient(m, g.lm(ord)), m) for g, e in failures
    ]
    by_ratio = {}
    for rec in pool:
        cur = by_ratio.get(rec.ratio)
        if cur is None or ord.lt(rec.h.lm(ord), cur.h.lm(ord)):
            by_ratio[rec.ratio] = rec
    keep = {r for r in by_ratio if not any(o != r and divides(r, o) for o in by_ratio)}
    state.records = [by_ratio[r] for r in sorted(keep, key=ord.key)]
    updates = []
    new_G = []
    by_lm = {g.lm(ord): g for g in state.G}
    for t in sorted(border(new_stair, ord), key=ord.key):
        src = by_lm.get(t)
        if src is not None:
            src_lm = t
        else:
            src_lm = min((l for l in by_lm if divides(l, t)), key=ord.key)
            src = by_lm[src_lm]
        q = quotient(t, src_lm)
        if divides(t, m) and src in fail_map:
            e = fail_map[src]
            v = quotient(m, t)
            spanning = [r for r in old_records if divides(v, r.ratio)]
            rec = max(spanning, key=lambda r: ord.key(r.fail_at))
            nu = quotient(rec.ratio, v)
            gp = shifted(src, q) - shifted(rec.h, nu).scale(e)
            assert gp.lm(ord) == t
            ev = UpdateEvent(t, "combine", gp.monic(ord), src, rec.h, nu)
        else:
            gp = shifted(src, q)
            ev = UpdateEvent(t, "keep" if q == ord.one else "translate", gp.monic(ord), src)
        new_G.append(ev.result)
        updates.append(ev)
    state.G = new_G
    state.staircase = sorted(new_stair, key=ord.key)
    return StepTrace(m, failures, added, updates)


def ref_max_certified_shift(lm, bound, ord: MonomialOrder):
    """Walk the window for the greatest v with v·lm ⪯ bound."""
    if ord.key(lm) > ord.key(bound):
        return None
    best = None
    for v in enumerate_up_to(bound, ord):
        if ord.key(mul(v, lm)) > ord.key(bound):
            break
        best = v
    return best


def ref_run(oracle, bound, ord, algorithm: str, trace: bool) -> Result:
    discrepancy = ref_matrix_row if algorithm == "bms-linalg" else (
        lambda o, g, v, ord: ref_bracket(o, g, v)
    )
    reduce_each_step = algorithm == "bms-tweaked"
    ops = OpCounter()
    state = RefState([], [Poly.monomial(oracle.field, ord.one)], [])
    q0 = oracle.queries
    traces = []
    with counting(ops):
        for m in enumerate_up_to(bound, ord):
            tr = ref_step(state, m, oracle, discrepancy, ord)
            if trace:
                if reduce_each_step:
                    tr.reduced_basis = ref_inter_reduce(state.G, ord)
                traces.append(tr)
        basis = ref_inter_reduce(state.G, ord) if reduce_each_step else state.G
    relations = [
        Relation(g, ref_max_certified_shift(g.lm(ord), bound, ord))
        for g in sorted(basis, key=lambda g: ord.key(g.lm(ord)))
    ]
    return Result(
        algorithm, ord, oracle.field, relations, state.staircase,
        oracle.queries - q0, ops, bound=bound, trace=traces,
    )


RUNNERS = {"bms": run_bms, "bms-linalg": run_bms_linalg, "bms-tweaked": run_bms_tweaked}


def assert_same_run(make_oracle, bound, ord, algorithm: str, trace: bool) -> None:
    got = RUNNERS[algorithm](make_oracle(), bound, ord, trace=trace)
    want = ref_run(make_oracle(), bound, ord, algorithm, trace)
    # the JSON carries the relations, shifts, staircase, queries and ops
    assert result_to_json(got) == result_to_json(want)
    assert got.basis() == want.basis()
    if trace:
        assert format_trace(got.trace, ord) == format_trace(want.trace, ord)
        assert [tr.reduced_basis for tr in got.trace] == [tr.reduced_basis for tr in want.trace]
        for a, b in zip(got.trace, want.trace, strict=True):
            assert a.failures == b.failures
            assert [(e.t, e.kind, e.result, e.source, e.h, e.nu) for e in a.updates] == [
                (e.t, e.kind, e.result, e.source, e.h, e.nu) for e in b.updates
            ]


# -- the raw engine against the reference -------------------------------------------

LM_SETS = [
    ([(0, 2), (1, 1), (2, 0)], DRL2),
    ([(0, 3), (2, 0)], DRL2),
    ([(0, 2), (3, 0)], DRL2),
    ([(0, 1, 0), (1, 0, 0), (0, 0, 2)], DRL3),
    ([(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)], DRL3),
    ([(0, 3), (1, 1), (3, 0)], DRL2),
]


@pytest.mark.parametrize("field", [F7, F65537, F31, QQ], ids=str)
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_raw_engine_matches_poly_reference_on_random_ideals(field, algorithm):
    ran = 0
    for k, (lms, ord) in enumerate(LM_SETS):
        for seed in range(2):
            try:
                oracle, gb = random_from_lms(lms, ord, field, seed=100 * k + seed)
            except SeqrelError:  # no nonsingular draw over a tiny field
                continue
            bound = stopping_bound(gb, ord)
            fresh = lambda: random_from_lms(lms, ord, field, seed=100 * k + seed)[0]
            for trace in (False, True):
                assert_same_run(fresh, bound, ord, algorithm, trace)
            ran += 1
    assert ran >= 6


GENERATORS = [
    ("binomial", "x^5", DRL2),
    ("pow23", "x^4", DRL2),
    ("sq", "y^5", DRL2),
    ("step", "x^4", DRL2),
    ("kron", "x^4", DRL2),
    ("fib4", "z^6", LEX3),
    ("step", "x^8", W2),  # a packing row that needs a multiple of the first
]


@pytest.mark.parametrize("field", [F7, F65537, QQ], ids=str)
def test_raw_engine_matches_poly_reference_on_generators(field):
    for name, bound, ord in GENERATORS:
        for algorithm in RUNNERS:
            for trace in (False, True):
                assert_same_run(
                    lambda: make_generator(name, field),
                    parse_monomial(bound, ord), ord, algorithm, trace,
                )


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_table_overrun_reports_the_reference_index(algorithm):
    # the first read outside a finite table is the one reported (and printed by
    # the CLI), so the raw engine must read in the reference's order
    rng = random.Random(3)
    entries = [rng.randrange(65537) for _ in range(25)]
    bound = parse_monomial("x^7", DRL2)
    indices = []
    for run in (RUNNERS[algorithm], lambda o, b, ord: ref_run(o, b, ord, algorithm, False)):
        with pytest.raises(BoundExceededError) as exc:
            run(table_oracle(F65537, (5, 5), entries), bound, DRL2)
        indices.append(exc.value.index)
    assert indices[0] == indices[1]


# -- pinned operation counts (taken from the Poly engine) ----------------------------

OP_GOLDENS = {
    ("binomial", "x^3", "bms"): (12, 34, 6),
    ("binomial", "x^3", "bms-linalg"): (25, 34, 6),
    ("binomial", "x^3", "bms-tweaked"): (12, 34, 6),
    ("binomial", "x^5", "bms"): (43, 91, 9),
    ("binomial", "x^5", "bms-linalg"): (75, 91, 9),
    ("binomial", "x^5", "bms-tweaked"): (43, 91, 9),
    ("sq", "y^5", "bms"): (72, 137, 15),
    ("sq", "y^5", "bms-linalg"): (93, 137, 15),
    ("sq", "y^5", "bms-tweaked"): (80, 147, 17),
}


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_bms_op_count_goldens(field):
    for (name, bound, algorithm), (adds, mults, invs) in OP_GOLDENS.items():
        res = RUNNERS[algorithm](make_generator(name, field), parse_monomial(bound, DRL2), DRL2)
        assert res.ops == OpCounter(adds, mults, invs), (name, bound, algorithm)
    # the traced tweaked run also counts the per-step inter-reduction
    res = run_bms_tweaked(make_generator("sq", field), parse_monomial("y^5", DRL2), DRL2, trace=True)
    assert res.ops == OpCounter(179, 273, 44)


# -- inter-reduction (and the normal form inside it) against the reference ----------


def _random_poly(rng: random.Random, field, n_terms: int) -> Poly:
    terms = {}
    for _ in range(n_terms):
        m = (rng.randrange(4), rng.randrange(4))
        c = field.elem(rng.randrange(-9, 10))
        if c:
            terms[m] = c
    return Poly(field, terms)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    field=st.sampled_from([F7, F65537, F31, QQ]),
    size=st.integers(1, 5),
)
def test_inter_reduce_and_normal_form_match_poly_reference(seed, field, size):
    # `inter_reduce` runs the raw normal form; the reference is `ref_normal_form`
    rng = random.Random(seed)
    G = [_random_poly(rng, field, rng.randrange(1, 6)) for _ in range(size)]
    got_ops, want_ops = OpCounter(), OpCounter()
    with counting(got_ops):
        got = inter_reduce(G, DRL2)
    with counting(want_ops):
        want = ref_inter_reduce(G, DRL2)
    assert got == want
    assert got_ops == want_ops
