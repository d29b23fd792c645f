"""Rank-profile relation finding: golden tables and recovery properties.

The small-table goldens in `sfglm_table_goldens.json` pin `result_to_json`
of both variants, or the index a `BoundExceededError` names, and the order
of the first reads.  Rewrite them with

    PYTHONPATH=src python tests/test_sfglm.py

and only after checking that the new outputs are meant.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqrel import hankel, sfglm
from seqrel.compare import FamilySpec, family_degrees, family_order, make_family, monomials_up_to_degree, verify_result
from seqrel.errors import BoundExceededError, SeqrelError
from seqrel.field import QQ, FpField, count_adds, count_invs, count_mults
from seqrel.hankel import build, column_rank_profile
from seqrel.monomials import (
    border,
    divides,
    enumerate_up_to,
    format_monomial,
    mul as mono_mul,
    parse_monomial,
    parse_order,
    stabilize,
)
from seqrel.poly import Poly, format_poly
from seqrel.result import result_to_json
from seqrel.sequences import SequenceOracle, make_generator, random_from_lms, table_oracle
from seqrel.sfglm import run_sfglm, run_sfglm_tweaked

DRL2 = parse_order("drl(y<x)")
DRL3 = parse_order("drl(z<y<x)")


def downset(bound: str, ord):
    return enumerate_up_to(parse_monomial(bound, ord), ord)


def fmt_polys(res):
    return [format_poly(g, res.ord) for g in res.basis()]


def fmt_monos(monos, ord):
    return [format_monomial(s, ord) for s in monos]


# -- golden outputs --------------------------------------------------------------


def test_pow23_degree_two_table():
    res = run_sfglm(make_generator("pow23", QQ), downset("x^2", DRL2), DRL2)
    assert fmt_polys(res) == ["y - 3", "x^2 - 4*x + 4"]
    assert fmt_monos(res.staircase, DRL2) == ["1", "x"]
    assert res.queries == 15
    assert res.algorithm == "sfglm"


def test_binomial_tables():
    res2 = run_sfglm(make_generator("binomial", QQ), downset("x^2", DRL2), DRL2)
    assert fmt_polys(res2) == ["x*y - y - 1"]
    assert fmt_monos(res2.staircase, DRL2) == ["1", "y", "x", "y^2", "x^2"]
    assert res2.queries == 15

    res3 = run_sfglm(make_generator("binomial", QQ), downset("x^3", DRL2), DRL2)
    assert fmt_polys(res3) == ["x*y - y - 1"]
    assert fmt_monos(res3.staircase, DRL2) == [
        "1", "y", "x", "y^2", "x^2", "y^3", "x^3",
    ]
    assert res3.queries == 28


def test_squares_over_rationals():
    res = run_sfglm(make_generator("sq", QQ), downset("x^3", DRL2), DRL2)
    assert fmt_polys(res) == [
        "x*y - x - y + 1",
        "x^2 - y^2 - 2*x + 2*y",
        "y^3 - 3*y^2 + 3*y - 1",
    ]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x", "y^2"]
    assert res.queries == 28


def test_step_sequence_small_table():
    res = run_sfglm(make_generator("step", QQ), downset("y^2", DRL2), DRL2)
    assert fmt_polys(res) == ["y^2 - 2*y + 1"]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x"]
    # frozen operation counts: one shared elimination plus the dense row checks
    assert res.ops.as_dict() == {
        "additions": 31,
        "multiplications": 69,
        "inversions": 17,
    }


def test_quadrisection_block_table():
    res = run_sfglm(make_generator("fib4", QQ), downset("z^6", DRL3), DRL3)
    assert fmt_polys(res) == ["y - 1", "x - 3*z - 2", "z^2 - z - 1"]
    assert fmt_monos(res.staircase, DRL3) == ["1", "z"]
    assert res.queries == 308


@pytest.mark.parametrize("runner", [run_sfglm, run_sfglm_tweaked], ids=["sfglm", "sfglm-tweaked"])
@pytest.mark.parametrize("field, mults", [(QQ, 0), (FpField(65537), 3)], ids=["Q", "Fp:65537"])
def test_zero_table_gives_unit_ideal(runner, field, mults):
    # rank 0: the first candidate, 1, is the whole basis; only the rank profile is charged
    oracle = table_oracle(field, (3, 3), ["0"] * 9)
    res = runner(oracle, downset("y^1", DRL2), DRL2)
    assert fmt_polys(res) == ["1"]
    assert res.staircase == []
    assert res.queries == 3
    assert res.ops.as_dict() == {"additions": 0, "multiplications": mults, "inversions": 0}
    assert res.rejected == []


@pytest.mark.parametrize("runner", [run_sfglm, run_sfglm_tweaked], ids=["sfglm", "sfglm-tweaked"])
def test_fp_op_counts_do_not_depend_on_the_primes_size(runner):
    # one instance shape on primes stored as int64 residues (< 2^31) and as
    # Python ints (> 2^31): the same counts, the field kind's convention.  The
    # counts follow the values' zero pattern, and this instance draws no zero
    # by chance on any of the four primes
    spec = FamilySpec("simplex", 8, 2, 7)
    ord = family_order(2)
    T = monomials_up_to_degree(family_degrees(spec)[2], ord)
    primes = (65537, 2**31 - 1, 2**31 + 11, 2**61 - 1)
    ops = {p: runner(make_family(spec, FpField(p))[0], T, ord).ops for p in primes}
    assert all(x == ops[65537] for x in ops.values()), ops
    if runner is run_sfglm:
        assert (ops[2**61 - 1].multiplications, ops[2**61 - 1].inversions) == (92_706, 72)


# -- small-table goldens --------------------------------------------------------

GOLDENS = Path(__file__).with_name("sfglm_table_goldens.json")
RUNNERS = {"sfglm": run_sfglm, "sfglm-tweaked": run_sfglm_tweaked}


def _planted(field, rank, draw, rng, perturb=False):
    """5x5 table of a sum of `rank` weighted exponentials with random
    weights and bases, optionally with one random entry moved off it."""
    points = [(draw(), draw(), draw()) for _ in range(rank)]
    cells = [(i, j) for i in range(5) for j in range(5)]
    entries = [sum((w * a**i * b**j for w, a, b in points), field.zero.value) for i, j in cells]
    if perturb:
        entries[rng.randrange(25)] += draw()
    return table_oracle(field, (5, 5), [field.elem(x) for x in entries])


def _f101_table():
    # with T = {1, y, x, x*y}, sfglm-tweaked rejects the shifted candidate y^2
    # on row x, before the last row
    rng = random.Random(109)
    return _planted(FpField(101), 2, lambda: rng.randrange(1, 101), rng, perturb=True)


def _q_table():
    rng = random.Random(0)
    return _planted(QQ, 2, lambda: Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 6)), rng)


def _f2_table():
    # sfglm-tweaked reads past the 5x5 table: BoundExceededError
    rng = random.Random(4)
    return table_oracle(FpField(2), (5, 5), [rng.randrange(2) for _ in range(25)])


TABLE_CASES = {  # name -> (fresh table oracle, T)
    "f101-planted": (_f101_table, "1, y, x, x*y"),
    "q-planted": (_q_table, "1, y, x, y^2, x*y, x^2"),
    "f2-random": (_f2_table, "1, y, x, y^2, x*y, x^2"),
}


def table_snapshot(case: str, algo: str) -> dict:
    fresh, T = TABLE_CASES[case]
    table = fresh()
    reads = []

    def provider(i):
        reads.append(list(i))
        return table.query(i)

    oracle = SequenceOracle(2, table.field, provider)
    try:
        out = result_to_json(RUNNERS[algo](oracle, [parse_monomial(m, DRL2) for m in T.split(", ")], DRL2))
    except BoundExceededError as exc:
        out = {"error": str(exc), "index": list(exc.index)}
    out["reads"] = reads
    return out


@pytest.mark.parametrize("algo", sorted(RUNNERS))
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_table_run_matches_its_golden(case, algo):
    assert table_snapshot(case, algo) == json.loads(GOLDENS.read_text())[case][algo]


def test_table_goldens_cover_a_rejection_fractions_and_an_overrun():
    goldens = json.loads(GOLDENS.read_text())
    assert goldens["f101-planted"]["sfglm-tweaked"]["rejected"] == [
        {"candidate": "y^2", "row": "x", "residual": "36"}
    ]
    q = _q_table()
    assert any(q.query((i, j)).value.denominator > 1 for i in range(5) for j in range(5))
    assert goldens["f2-random"]["sfglm-tweaked"]["index"] == [0, 5]
    assert "error" not in goldens["f2-random"]["sfglm"]


# -- adaptive (tweaked) variant --------------------------------------------------


def test_tweaked_step_rejects_failing_candidate():
    res = run_sfglm_tweaked(make_generator("step", QQ), downset("y^2", DRL2), DRL2)
    assert fmt_polys(res) == ["y^2 - 2*y + 1", "x*y - x - y + 1"]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x"]
    assert len(res.rejected) == 1
    rej = res.rejected[0]
    assert format_monomial(rej.candidate, DRL2) == "x^2"
    assert format_monomial(rej.row, DRL2) == "y^2"
    assert str(rej.residual) == "1"
    assert res.algorithm == "sfglm-tweaked"


def test_tweaked_binomial_reaches_pure_powers():
    # The degree-3 table alone cannot contain y^4 or x^4; the shifted
    # staircase candidates reach them without growing the table.
    res = run_sfglm_tweaked(make_generator("binomial", QQ), downset("x^3", DRL2), DRL2)
    assert fmt_polys(res) == [
        "x*y - y - 1",
        "y^4",
        "x^4 - 4*x^3 + 6*x^2 - 4*x + 1",
    ]
    assert res.rejected == []
    assert res.queries == 36


def test_tweaked_candidate_below_the_staircase_is_a_typed_error():
    # S = {1, x}: the shifted-staircase candidate y lies below x, so its
    # solved relation cannot lead with y
    values = [0, 2, 0, 1, 0, 1, 1, 1, 2, 1, 0, 0, 1, 0, 1]
    T = [parse_monomial(s, DRL2) for s in ("1", "x", "x^2")]
    oracle = table_oracle(FpField(101), (5, 3), values)
    try:
        run_sfglm_tweaked(oracle, T, DRL2)
        assert False, "expected SeqrelError"
    except SeqrelError as exc:
        assert str(exc).startswith("candidate y:")


def _solve_from_scratch(oracle, t, factored):
    """The per-candidate solve the factorization replaces: [H_{S,S} | −H_{S,t}]
    read cell by cell, block before column, eliminated for each t and checked
    on its k rows, counted as `solve_relation` counts it."""
    field = oracle.field
    S = factored.S
    k = len(S)
    A = [[oracle.query(mono_mul(r, s)).value for s in S] for r in S]
    b = [field._neg(oracle.query(mono_mul(r, t)).value) for r in S]
    count_adds(len(b))
    orig = [row + [x] for row, x in zip(A, b)]
    R, pivots, below, _ = hankel._gauss_jordan(orig, k + 1, field, limit=k)
    alpha = [field.zero.value] * k
    for c, row in zip(pivots, R):
        alpha[c] = row[k]
    mults = sum(n * (1 + k - c) for n, c in zip(below, pivots))
    adds = sum(n * (k - c) for n, c in zip(below, pivots))
    nnz = 0
    for c in reversed(pivots):
        mults, adds, nnz = mults + nnz + 1, adds + nnz, nnz + bool(alpha[c])
    count_invs(sum(below) + len(pivots))
    coeffs = alpha + [field._neg(field.one.value)]
    assert not any(field._dot(row, coeffs) for row in orig)  # H_{S,S} is nonsingular
    count_mults(mults + k * nnz)
    count_adds(adds + k * (nnz + 1))
    return Poly(field, {t: field.one, **{s: field.elem(x) for s, x in zip(S, alpha) if x}})


def _planted_oracle(field, n, seed):
    """A sum of one to three weighted exponentials in n variables, on a lazy
    oracle that records its reads; some draws move one term off it."""
    rng = random.Random(seed)
    draw = (lambda: rng.randrange(1, field.p)) if isinstance(field, FpField) else (lambda: rng.randrange(-4, 5) or 1)
    points = [(draw(), [draw() for _ in range(n)]) for _ in range(rng.randint(1, 3))]
    bump = tuple(rng.randrange(3) for _ in range(n)) if rng.random() < 0.5 else None
    reads = []

    def provider(i):
        reads.append(i)
        value = sum((w * math.prod(a**e for a, e in zip(base, i)) for w, base in points), 0)
        return field.elem(value + (i == bump))

    return SequenceOracle(n, field, provider), reads


# 2^31 - 1 is the largest word-size prime: unreduced int64 products would overflow there
@pytest.mark.parametrize(
    "field", [FpField(65537), FpField(7), FpField(2**31 - 1), QQ, FpField(2**61 - 1)], ids=str
)
def test_tweaked_factorization_matches_a_solve_per_candidate(monkeypatch, field):
    # one elimination of [H_{S,S} | I] for all candidates gives the relations,
    # rejections, op counts and first-read order of eliminating per candidate
    shifted = rejected = 0
    for seed in range(24):
        ord, bound = [(DRL2, "x^2"), (DRL2, "x^3"), (DRL3, "x^2")][seed % 3]
        T = downset(bound, ord)
        runs = []
        for solve in (hankel.solve_relation, _solve_from_scratch):
            monkeypatch.setattr(sfglm, "solve_relation", solve)
            oracle, reads = _planted_oracle(field, ord.n, seed)
            try:
                res = run_sfglm_tweaked(oracle, T, ord)
                out = result_to_json(res)
            except SeqrelError as exc:
                res, out = None, ("SeqrelError", str(exc))
            runs.append((out, reads))
        assert runs[0] == runs[1], (seed, bound)
        if res is not None:
            shifted += any(g.lm(ord) not in T for g in res.basis()) + any(r.candidate not in T for r in res.rejected)
            rejected += len(res.rejected)
    assert shifted and rejected


# -- a candidate inside T holds on every row of T -------------------------------


def _outcome(fresh, T, ord):
    """Run both variants on fresh oracles of one table and check the module
    docstring's theorem: sfglm's relations hold on every row of T, checked
    from outside; sfglm-tweaked rejects or raises only at a candidate outside
    T, and its relations that lead inside T are sfglm's basis.  Gives the
    tweak's rejection count, or "raised"."""
    T = ord.sort(T)
    res = run_sfglm(fresh(), T, ord)
    assert res.rejected == [] and verify_result(fresh(), res, ord)
    try:
        tweaked = run_sfglm_tweaked(fresh(), T, ord)
    except SeqrelError as exc:
        name, _, rest = str(exc).removeprefix("candidate ").partition(":")
        assert "leads with" in rest and parse_monomial(name, ord) not in T
        return "raised"
    assert all(r.candidate not in T for r in tweaked.rejected)
    assert [g for g in tweaked.basis() if g.lm(ord) in T] == res.basis()
    return len(tweaked.rejected)


def test_candidates_inside_the_table_pass_on_every_table_of_a_window():
    # all 2^10 tables over F_2 of the cells of degree <= 3, the most that
    # T = {1, y, x} and its shifted candidates read; the other cells stay 0
    F2, T = FpField(2), [(0, 0), (0, 1), (1, 0)]
    cells = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    rejections = raises = 0
    for spec in ("drl(y<x)", "lex(y<x)"):
        ord = parse_order(spec)
        for bits in range(1 << len(cells)):
            values = [0] * 16
            for k, (i, j) in enumerate(cells):
                values[4 * i + j] = bits >> k & 1
            out = _outcome(lambda: table_oracle(F2, (4, 4), values), T, ord)
            if out == "raised":
                assert spec == "lex(y<x)"  # under drl, T is an initial segment
                raises += 1
            else:
                rejections += out
    assert (rejections, raises) == (648, 288)


@pytest.mark.parametrize("field", [FpField(3), FpField(65537), QQ], ids=str)
def test_candidates_inside_the_table_pass_on_random_tables(field):
    rejected = 0
    for seed in range(40):
        ord = parse_order(["drl(y<x)", "lex(y<x)", "lex(z<y<x)"][seed % 3])
        rng = random.Random(seed)
        T = stabilize([tuple(rng.randrange(3) for _ in range(ord.n)) for _ in range(rng.randint(1, 3))], ord)
        out = _outcome(lambda: _planted_oracle(field, ord.n, seed)[0], T, ord)
        rejected += 0 if out == "raised" else out
    assert rejected


# -- rank profiles ---------------------------------------------------------------


def test_useful_staircase_single_spike():
    T = downset("x^2", DRL2)
    rank, profile = column_rank_profile(build(make_generator("kron", QQ), T, T, DRL2))
    assert rank == 4
    assert fmt_monos(profile, DRL2) == ["1", "y", "x", "x*y"]

    # a table missing x^2 sees a non-stable profile: 1 is a dependent column
    T = [parse_monomial(s, DRL2) for s in ["1", "y", "x", "y^2"]]
    rank2, profile2 = column_rank_profile(build(make_generator("kron", QQ), T, T, DRL2))
    assert rank2 == 2
    assert fmt_monos(profile2, DRL2) == ["y", "x"]


# -- input validation ------------------------------------------------------------


def test_table_must_be_stable_and_nonempty():
    oracle = make_generator("binomial", QQ)
    T = [parse_monomial(s, DRL2) for s in ["1", "x^2"]]
    try:
        run_sfglm(oracle, T, DRL2)
        assert False, "expected SeqrelError"
    except SeqrelError:
        pass
    try:
        run_sfglm(oracle, [], DRL2)
        assert False, "expected SeqrelError"
    except SeqrelError:
        pass
    # unsorted input is fine: the table is sorted internally
    shuffled = list(reversed(downset("x^2", DRL2)))
    res = run_sfglm(make_generator("pow23", QQ), shuffled, DRL2)
    assert fmt_polys(res) == ["y - 3", "x^2 - 4*x + 4"]


# -- serialization ---------------------------------------------------------------


def test_json_round_trip():
    res = run_sfglm_tweaked(make_generator("step", QQ), downset("y^2", DRL2), DRL2)
    data = result_to_json(res)
    assert sorted(data) == [
        "algorithm", "certified_shift_set", "field", "gb", "ops", "order",
        "queries", "rejected", "staircase",
    ]
    assert data["certified_shift_set"] == ["1", "y", "x", "y^2"]
    assert data["rejected"] == [{"candidate": "x^2", "row": "y^2", "residual": "1"}]
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    again = run_sfglm_tweaked(make_generator("step", QQ), downset("y^2", DRL2), DRL2)
    assert json.dumps(result_to_json(again), sort_keys=True) == text  # deterministic


# -- recovery property -----------------------------------------------------------


@settings(deadline=None, max_examples=15)
@given(
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_recovers_random_rectangle_ideals(a, b, seed):
    fld = FpField(65537)
    lms = [parse_monomial(f"y^{a}", DRL2), parse_monomial(f"x^{b}", DRL2)]
    oracle, gb = random_from_lms(lms, DRL2, fld, seed)
    d_stair = (a - 1) + (b - 1)
    dmax = max(d_stair, a, b)
    T = downset(f"x^{dmax}", DRL2)
    res = run_sfglm(oracle, T, DRL2)
    assert sorted(fmt_polys(res)) == sorted(format_poly(g, DRL2) for g in gb)
    from math import comb

    assert res.queries == comb(2 + 2 * dmax, 2)


def _pruned(cands, ord):
    """The candidate rule sFGLM used before it took the border: go through the
    candidates in ascending order, each dropping its multiples."""
    L, out = ord.sort(cands), []
    while L:
        out.append(L[0])
        L = [m for m in L[1:] if not divides(L[0], m)]
    return out


_ORDERS = [
    "drl(y<x)", "lex(y<x)", "weight([[1,2],[0,-1]];y<x)",
    "drl(z<y<x)", "lex(z<y<x)", "weight([[1,2,3],[0,0,-1],[0,-1,0]];z<y<x)",
]


@settings(deadline=None, max_examples=300)
@given(data=st.data(), spec=st.sampled_from(_ORDERS))
def test_border_is_what_the_ascending_prune_keeps(data, spec):
    # every monomial outside a stable set is a multiple of a border monomial,
    # which precedes it; border monomials do not divide one another
    ord = parse_order(spec)
    exps = st.tuples(*[st.integers(0, 4)] * ord.n)
    T = stabilize(data.draw(st.lists(exps, min_size=1, max_size=4)), ord)
    stable_S = stabilize(data.draw(st.lists(st.sampled_from(T), max_size=len(T))), ord)
    B = border(stable_S, ord)
    in_T = set(T)
    assert _pruned(in_T - set(stable_S), ord) == [t for t in B if t in in_T]
    shifted = {mono_mul(v, s) for s in stable_S for v in ord.variables}
    assert _pruned((in_T | shifted) - set(stable_S), ord) == B


if __name__ == "__main__":
    goldens = {case: {algo: table_snapshot(case, algo) for algo in RUNNERS} for case in sorted(TABLE_CASES)}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
