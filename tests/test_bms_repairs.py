"""The BMS repair path at scale: the incremental failure-record refresh against
the all-pairs rule, inter-reduction of BMS bases against the `Poly`
reference, and pinned query and operation counts at benchmark-sized points.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from seqrel import bms
from seqrel.bms import FailRecord, _refresh, run_bms, run_bms_tweaked, stopping_bound
from seqrel.compare import FamilySpec, family_degrees, family_order, make_family
from seqrel.errors import SeqrelError
from seqrel.field import QQ, OpCounter, counting
from seqrel.monomials import Packing, enumerate_up_to, parse_monomial
from seqrel.poly import box, inter_reduce, parse_polys
from seqrel.sequences import IdealSequences, make_generator, random_from_lms
from test_bms_reference import DRL2, DRL3, F7, F65537, LEX3, LM_SETS, RUNNERS, W2
from test_bms_reference import ref_inter_reduce, ref_normal_form

# -- failure records ------------------------------------------------------------


def all_pairs(records, fresh, mask):
    """The all-pairs rule: one record per ratio, the earliest failure winning
    a tie, then every ratio checked against every other for a strict multiple."""
    by_ratio = {}
    for rec in records + fresh:
        if rec.ratio not in by_ratio or rec.fail_at < by_ratio[rec.ratio].fail_at:
            by_ratio[rec.ratio] = rec
    ratios = sorted(by_ratio)
    return [by_ratio[r] for r in ratios if not any(o != r and not (o - r) & mask for o in ratios)]


PACKINGS = [(DRL2, "x^6"), (DRL3, "x^3"), (LEX3, "z^6"), (W2, "x^5")]


def _record(code: int, fail_at: int) -> FailRecord:
    return FailRecord({code: 1}, 1, code, fail_at, code)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), which=st.integers(0, len(PACKINGS) - 1))
def test_incremental_refresh_equals_the_all_pairs_rule(data, which):
    ord, bound = PACKINGS[which]
    pk = Packing(ord, parse_monomial(bound, ord))
    codes = [pk.pack(m) for m in enumerate_up_to(parse_monomial(bound, ord), ord)]
    # earlier steps: an antichain with distinct ratios, as the engine keeps it
    earlier = data.draw(st.lists(st.sampled_from(codes), unique=True, max_size=12))
    steps = data.draw(st.lists(st.integers(0, 5), min_size=len(earlier), max_size=len(earlier)))
    records = all_pairs([], [_record(c, s) for c, s in zip(earlier, steps)], pk.mask)
    # this step: distinct ratios, often equal to, dividing or divided by old ones
    pool = codes + [r.ratio for r in records] * 3
    now = data.draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=6))
    fresh = [_record(c, 6) for c in now]
    got = _refresh(records, fresh, pk.mask)
    want = all_pairs(records, fresh, pk.mask)
    assert [id(r) for r in got] == [id(r) for r in want]


# -- inter-reduction of BMS bases ---------------------------------------------------


def _bms_bases(field):
    """Every intermediate basis of traced bms runs on `LM_SETS`, then the final one."""
    for k, (lms, ord) in enumerate(LM_SETS):
        for seed in range(2):
            try:
                oracle, gb = random_from_lms(lms, ord, field, seed=100 * k + seed)
            except SeqrelError:  # no nonsingular draw over a tiny field
                continue
            res = run_bms(oracle, stopping_bound(gb, ord), ord, trace=True)
            for tr in res.trace:
                if tr.updates:
                    yield [ev.result for ev in tr.updates], ord
            yield res.basis(), ord


@pytest.mark.parametrize("field", [F7, F65537, QQ], ids=str)
def test_inter_reduce_matches_the_reference_on_bms_bases(field):
    tails_changed = 0  # polynomials whose normal form keeps their LM but not their tail
    for G, ord in _bms_bases(field):
        for i, g in enumerate(G):
            r = ref_normal_form(g, G[:i] + G[i + 1 :], ord)
            tails_changed += r != g and bool(r) and r.lm(ord) == g.lm(ord)
        got_ops, want_ops = OpCounter(), OpCounter()
        with counting(got_ops):
            got = inter_reduce(G, ord)
        with counting(want_ops):
            want = ref_inter_reduce(G, ord)
        assert got == want
        assert got_ops == want_ops
    assert tails_changed >= 100


# -- pinned counts at benchmark-sized points ---------------------------------------

# (family, n, d, algorithm): (queries, additions, multiplications, inversions),
# equal over F_65537 and Q
# at bench_point's bound x^(d_S + d_max), instance seed 1
POINT_GOLDENS = {
    ("simplex", 2, 6, "bms"): (78, 5014, 8163, 188),
    ("simplex", 2, 6, "bms-linalg"): (78, 5202, 8163, 188),
    ("simplex", 2, 6, "bms-tweaked"): (78, 5476, 8646, 209),
    ("lshape", 3, 3, "bms"): (56, 571, 949, 45),
    ("lshape", 3, 3, "bms-linalg"): (56, 679, 949, 45),
    ("lshape", 3, 3, "bms-tweaked"): (56, 586, 979, 60),
    ("simplex", 3, 4, "bms"): (120, 9551, 15884, 336),
    ("simplex", 3, 4, "bms-linalg"): (120, 9887, 15884, 336),
    ("simplex", 3, 4, "bms-tweaked"): (120, 11588, 18018, 433),
}


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_bms_counts_at_benchmark_points(field):
    for (family, n, d, algorithm), (queries, adds, mults, invs) in POINT_GOLDENS.items():
        spec = FamilySpec(family, d, n, seed=1)
        ord = family_order(n)
        d_s, _, d_max = family_degrees(spec)
        bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
        res = RUNNERS[algorithm](make_family(spec, field)[0], bound, ord)
        assert (res.queries, res.ops) == (queries, OpCounter(adds, mults, invs)), (
            family, n, d, algorithm,
        )


# -- bms-tweaked's reduction on packed codes ----------------------------------------

# the bms-tweaked points of the scan-fp and exact-q benchmark workloads
TWEAKED_POINTS = [("simplex", 3, 5), ("lshape", 3, 6), ("rectangle", 2, 7), ("simplex", 2, 6), ("lshape", 3, 4)]


def _fractional_ideal():
    """The `--ideal` Q basis with fractional coefficients, drawn as the CLI does."""
    text = "y^2 - 1/3*x - 2/5, x^3 - 1/7*x*y - 3/2*y"
    ideal = IdealSequences(inter_reduce(parse_polys(text, DRL2, QQ), DRL2), DRL2)
    return ideal.oracle(ideal.random_initial(random.Random(1)))


def _packed_reductions(monkeypatch, oracle, bound, ord, trace=False):
    """Every packed `inter_reduce` call of one bms-tweaked run, with its result
    and its own operation count."""
    calls = []
    inner = bms.inter_reduce

    def spy(G, pk, field):
        ops = OpCounter()
        with counting(ops):
            out = inner(G, pk, field)
        calls.append((G, pk, field, out, ops))
        return out

    monkeypatch.setattr(bms, "inter_reduce", spy)
    run_bms_tweaked(oracle, bound, ord, trace=trace)
    monkeypatch.undo()
    return calls


def _assert_tuple_run_agrees(calls, ord):
    assert calls
    for G, pk, field, got, got_ops in calls:
        want_ops = OpCounter()
        with counting(want_ops):
            want = inter_reduce([box(field, g, pk.unpack) for g in G], ord)
        assert got == want
        assert [list(g.terms) for g in got] == [list(g.terms) for g in want]  # term order
        assert got_ops == want_ops


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_packed_inter_reduce_matches_the_tuple_run_at_benchmark_points(monkeypatch, field):
    for family, n, d in TWEAKED_POINTS:
        spec = FamilySpec(family, d, n, seed=1)
        ord = family_order(n)
        d_s, _, d_max = family_degrees(spec)
        bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
        _assert_tuple_run_agrees(_packed_reductions(monkeypatch, make_family(spec, field)[0], bound, ord), ord)


def test_packed_inter_reduce_matches_the_tuple_run_on_fractional_coefficients(monkeypatch):
    # traced: every step's basis is reduced too
    calls = _packed_reductions(monkeypatch, _fractional_ideal(), parse_monomial("x^6", DRL2), DRL2, trace=True)
    assert any(any(c.denominator > 1 for c in g.values()) for G, *_ in calls for g in G)
    _assert_tuple_run_agrees(calls, DRL2)


# -- the F_p repair ----------------------------------------------------------------


def test_fp_combine_is_the_scaled_record_taken_off_the_source(monkeypatch):
    """On F_p a combine holds q·src − (d/b)·(ν·h); up to its lead it is the
    integral b·(q·src) − d·(ν·h), with d the source's discrepancy."""
    steps = []
    inner = bms.step

    def spy(*args):
        steps.append(inner(*args))
        return steps[-1]

    monkeypatch.setattr(bms, "step", spy)
    p = F65537.p
    run_bms(make_generator("sq", F65537), parse_monomial("x^6", DRL2), DRL2, trace=True)
    monkeypatch.undo()

    def monic(g):
        inv = pow(g[max(g)], -1, p)
        return {k: a * inv % p for k, a in g.items()}

    combines = 0
    for tr in steps:
        disc = {id(g): e.value for g, e in tr.failures}
        for ev in tr.updates:
            if ev.kind != "combine":
                continue
            src, rec, nu = ev.source, ev.h, ev.nu
            q, d = ev.t - max(src), disc[id(src)]
            want = {q + s: rec.b * a % p for s, a in src.items()}
            for s, a in rec.h.items():
                want[nu + s] = (want.get(nu + s, 0) - d * a) % p
            assert monic(ev.result) == monic({k: a for k, a in want.items() if a})
            combines += 1
    assert combines >= 5
