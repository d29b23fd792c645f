"""Cross-algorithm verdicts, the Gorenstein test, families and the bench harness."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from seqrel import compare as compare_module, field as field_module
from seqrel.bms import run_bms
from seqrel.compare import (
    ALGORITHMS,
    GORENSTEIN_LIKELY,
    NOT_GORENSTEIN,
    BenchRow,
    FamilySpec,
    bench,
    bench_point,
    compare_algorithms,
    comparison_report_to_json,
    family_degrees,
    family_lms,
    family_order,
    gnuplot_columns,
    gorenstein_test,
    ideal_contains_at_truncation,
    is_zero_dimensional,
    make_family,
    monomials_up_to_degree,
    rows_to_csv,
    run_algorithm,
    verify_result,
    verify_shift,
)
from seqrel.errors import (
    BoundExceededError,
    FieldMismatchError,
    PositiveDimensionError,
    SeqrelError,
    UnsupportedOrderError,
)
from seqrel.field import QQ, FieldElement, OpCounter, counting, parse_field
from seqrel.fixtures import reference_queries, reference_staircase
from seqrel.monomials import enumerate_up_to, mul as mono_mul, parse_monomial, parse_order
from seqrel.poly import Poly, format_poly, inter_reduce, parse_poly, parse_polys, staircase_of
from seqrel.ranksolver import run_rank_solver
from seqrel.result import Relation, Result
from seqrel.sequences import (
    IdealSequences,
    SequenceOracle,
    _rand_elem,
    make_generator,
    table_oracle,
)
from seqrel.sfglm import run_sfglm, run_sfglm_tweaked

DRL2 = parse_order("drl(y<x)")
LEX3 = parse_order("lex(z<y<x)")
F65537 = parse_field("Fp:65537")


def P(text, field=F65537, ord=DRL2):
    return parse_poly(text, ord, field)


# -- shift verification -----------------------------------------------------------


def test_verify_shift_examples():
    binom = make_generator("binomial", QQ)
    pascal = P("x*y - y - 1", QQ)
    assert verify_shift(binom, pascal, monomials_up_to_degree(5, DRL2))
    g = P("x^2 - x", QQ)
    one = parse_monomial("1", DRL2)
    y = parse_monomial("y", DRL2)
    assert verify_shift(binom, g, [one])
    assert not verify_shift(binom, g, [one, y])  # [y*(x^2 - x)] = 1
    assert verify_shift(binom, Poly.zero(QQ), monomials_up_to_degree(5, DRL2))


def test_verify_result_recheck():
    bres = run_bms(
        make_generator("binomial", F65537), parse_monomial("x^3", DRL2), DRL2
    )
    assert verify_result(make_generator("binomial", F65537), bres, DRL2)
    sres = run_sfglm(
        make_generator("pow23", F65537), monomials_up_to_degree(2, DRL2), DRL2
    )
    assert verify_result(make_generator("pow23", F65537), sres, DRL2)


def test_verify_result_checks_exactly_the_table_rows():
    # T = {1, x, x^2} is stable but no initial segment of drl(y<x): the
    # relation x^2 - x vanishes on every row of T, not on y, y^2 or x*y
    F101 = parse_field("Fp:101")
    values = [0, 2, 0, 1, 0, 1, 1, 1, 2, 1, 0, 0, 1, 0, 1]
    T = [parse_monomial(s, DRL2) for s in ("1", "x", "x^2")]
    res = run_sfglm(table_oracle(F101, (5, 3), values), T, DRL2)
    assert [format_poly(g, DRL2) for g in res.basis()] == ["x^2 + 100*x"]
    assert res.table == T
    assert [r.shift for r in res.relations] == [T[-1]]
    assert verify_result(table_oracle(F101, (5, 3), values), res, DRL2)
    # the rows the old check used, the down-set of x^2, include failing ones
    assert not verify_shift(
        table_oracle(F101, (5, 3), values), res.basis()[0], monomials_up_to_degree(2, DRL2)
    )


def _tuple_verify(oracle, res, ord):
    """The per-relation check on tuples that `verify_result` must agree with:
    `verify_shift` over T, or over the down-set of each certified shift."""
    for rel in res.relations:
        if rel.shift is not None:
            rows = res.table if res.table is not None else enumerate_up_to(rel.shift, ord)
            if not verify_shift(oracle, rel.poly, rows):
                return False
    return True


def _with_relation(res, k, **changes):
    relations = list(res.relations)
    relations[k] = replace(relations[k], **changes)
    return replace(res, relations=relations)


def _bumped_lead(g, ord):
    """g with its leading coefficient plus one."""
    lm = g.lm(ord)
    return Poly(g.field, {**g.terms, lm: g.terms[lm] + g.field.one})


_SCAN_CASES = (  # (generator, order, bound): drl, lex and a weight order
    ("sq", "drl(y<x)", "x^4"),
    ("fib4", "lex(z<y<x)", "z^6"),
    ("step", "weight([[1,2],[0,-1]];y<x)", "x^8"),
)


@pytest.mark.parametrize("gen, order, bound", _SCAN_CASES)
def test_verify_result_rejects_tampered_scan_results(gen, order, bound):
    ord = parse_order(order)
    fresh = lambda: make_generator(gen, F65537)
    res = run_bms(fresh(), parse_monomial(bound, ord), ord)
    assert verify_result(fresh(), res, ord)
    k = max(i for i, r in enumerate(res.relations) if r.shift is not None)
    rel = res.relations[k]
    window = enumerate_up_to(res.bound, ord)
    raised = window[window.index(rel.shift) + 1]
    # fib4's relation is a true recurrence, so it also holds one shift further
    for bad, want in (
        (_with_relation(res, k, poly=_bumped_lead(rel.poly, ord)), False),
        (_with_relation(res, k, shift=raised), gen == "fib4"),
    ):
        assert verify_result(fresh(), bad, ord) is want
        assert _tuple_verify(fresh(), bad, ord) is want


def test_verify_result_rejects_tampered_table_results():
    for gen, solve, T in (
        ("pow23", run_sfglm, monomials_up_to_degree(2, DRL2)),
        # the x^4 candidate lies outside T, so the reads pass T*T
        ("binomial", run_sfglm_tweaked, monomials_up_to_degree(3, DRL2)),
    ):
        fresh = lambda: make_generator(gen, F65537)
        res = solve(fresh(), T, DRL2)
        assert verify_result(fresh(), res, DRL2)
        g = res.relations[-1].poly
        assert (g.lm(DRL2) in T) is (gen == "pow23")
        bad = _with_relation(res, len(res.relations) - 1, poly=_bumped_lead(g, DRL2))
        assert verify_result(fresh(), bad, DRL2) is False
        assert _tuple_verify(fresh(), bad, DRL2) is False


def test_verify_result_needs_a_well_order():
    # y < 1 under this matrix: no packing exists, so the re-check is a typed error
    ord = parse_order("weight([[-1,-1],[0,-1]];y<x)")
    res = run_sfglm(make_generator("kron", F65537), monomials_up_to_degree(2, DRL2), DRL2)
    assert any(r.shift is not None for r in res.relations)
    with pytest.raises(UnsupportedOrderError, match="not a well-order"):
        verify_result(make_generator("kron", F65537), res, ord)


def test_verify_result_on_untested_zero_and_foreign_relations():
    fresh = lambda: make_generator("binomial", F65537)
    res = run_bms(fresh(), parse_monomial("x^3", DRL2), DRL2)
    assert len(res.relations) > 1 and all(r.shift is not None for r in res.relations)
    # no relation tested: nothing read, nothing counted
    untested = replace(res, relations=[replace(r, shift=None) for r in res.relations])
    oracle, ops = fresh(), OpCounter()
    with counting(ops):
        assert verify_result(oracle, untested, DRL2) is True
    assert (oracle.queries, ops) == (0, OpCounter())
    # a zero relation is skipped: the check reads and counts as without it
    zeroed = _with_relation(res, 0, poly=Poly.zero(F65537))
    without = replace(res, relations=res.relations[1:])
    got = _recorded(verify_result, fresh, zeroed, DRL2)
    assert got[0] is True and got == _recorded(verify_result, fresh, without, DRL2)
    # a relation over another field is a typed error
    g = res.relations[0].poly
    foreign = _with_relation(res, 0, poly=Poly(QQ, {m: QQ.elem(c.value) for m, c in g.terms.items()}))
    with pytest.raises(FieldMismatchError):
        verify_result(fresh(), foreign, DRL2)


def test_scans_under_lex_with_the_first_named_variable_least():
    # y is the most significant variable: the down-set of x^6 is the powers
    # of x, and y is a border monomial no shift can test
    ord = parse_order("weight([[0,1],[1,0]];y<x)")
    fresh = lambda: make_generator("sq", QQ)
    bases = []
    for algo in ("bms", "rank"):
        res = run_algorithm(algo, fresh(), ord, parse_monomial("x^6", ord), None)
        assert verify_result(fresh(), res, ord)
        bases.append([format_poly(g, ord) for g in res.basis()])
    assert bases[0] == bases[1] == ["x^3 - 3*x^2 + 3*x - 1", "y"]


def test_verify_result_on_a_too_small_table_raises_the_tuple_paths_error():
    res = run_bms(make_generator("binomial", F65537), parse_monomial("x^3", DRL2), DRL2)
    small = lambda: table_oracle(F65537, (3, 3), [comb(a, b) for a in range(3) for b in range(3)])
    with pytest.raises(BoundExceededError) as got:
        verify_result(small(), res, DRL2)
    with pytest.raises(BoundExceededError) as want:
        _tuple_verify(small(), res, DRL2)
    assert got.value.needed_shape == want.value.needed_shape == (1, 4)


@pytest.mark.parametrize("gen, order, bound", _SCAN_CASES + (("binomial", "drl(y<x)", None),))
def test_verify_result_reads_exactly_the_certificate(gen, order, bound):
    ord = parse_order(order)
    if bound is None:  # a table result whose x^4 candidate lies outside T
        T = enumerate_up_to(parse_monomial("x^3", ord), ord)
        res = run_sfglm_tweaked(make_generator(gen, F65537), T, ord)
    else:
        res = run_bms(make_generator(gen, F65537), parse_monomial(bound, ord), ord)
    oracle = make_generator(gen, F65537)
    assert verify_result(oracle, res, ord)
    want = {
        mono_mul(m, t)
        for rel in res.relations
        if rel.shift is not None
        for m in (res.table if res.table is not None else enumerate_up_to(rel.shift, ord))
        for t in rel.poly.terms
    }
    assert oracle._queried == want


# -- the block check against the per-shift check ----------------------------------

_FIELDS = [parse_field(f) for f in ("Fp:7", "Fp:65537", "Fp:2147483647", "Fp:2305843009213693951")] + [QQ]
_FIELD_IDS = ["7", "65537", "2^31-1", "2^61-1", "Q"]


def _recorded(check, make_oracle, res, ord):
    """check(oracle, res, ord) on a fresh recording view of make_oracle():
    (verdict or raised index, `OpCounter` as a dict, indices in first-read order)."""
    inner = make_oracle()
    reads = []

    def provider(i):
        reads.append(i)
        return inner.query(i)

    oracle = SequenceOracle(inner.n, inner.field, provider)
    ops = OpCounter()
    try:
        with counting(ops):
            got = check(oracle, res, ord)
    except BoundExceededError as exc:
        got = ("BoundExceededError", exc.index)
    return got, ops.as_dict(), reads


def _failing_block(make_oracle, res, ord):
    """The cells of the first relation whose certificate fails, or None."""
    for rel in res.relations:
        if rel.shift is not None:
            rows = res.table if res.table is not None else enumerate_up_to(rel.shift, ord)
            if not verify_shift(make_oracle(), rel.poly, rows):
                return {mono_mul(m, t) for m in rows for t in rel.poly.terms}
    return None


def _same_as_per_shift(make_oracle, res, ord):
    """`verify_result` and `_tuple_verify`, the per-shift `bracket` check, give
    the same verdict, the same counts and the same first-read order; after a
    failing shift the block check may read the rest of that relation's block
    and nothing else.  Returns the verdict."""
    got, ops, reads = _recorded(verify_result, make_oracle, res, ord)
    want, want_ops, want_reads = _recorded(_tuple_verify, make_oracle, res, ord)
    assert (got, ops) == (want, want_ops)
    assert reads[: len(want_reads)] == want_reads
    extra = set(reads[len(want_reads) :])
    assert not extra or extra <= _failing_block(make_oracle, res, ord)
    return got


def _tampered(res, ord):
    """res with the first certified relation's lead bumped, with the last
    one's lead bumped, and, for a scan result, with the last one's shift
    raised one step in the window."""
    certified = [i for i, r in enumerate(res.relations) if r.shift is not None]
    first, last = certified[0], certified[-1]
    out = [_with_relation(res, k, poly=_bumped_lead(res.relations[k].poly, ord)) for k in {first, last}]
    if res.table is None:
        window = enumerate_up_to(res.bound, ord)
        raised = window[min(window.index(res.relations[last].shift) + 1, len(window) - 1)]
        out.append(_with_relation(res, last, shift=raised))
    return out


def _check_all(make_oracle, results, ord):
    verdicts = []
    for res in results:
        assert _same_as_per_shift(make_oracle, res, ord) is True, res.algorithm
        verdicts += [_same_as_per_shift(make_oracle, bad, ord) for bad in _tampered(res, ord)]
    return verdicts


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
def test_block_check_equals_the_per_shift_check_on_scan_results(field):
    verdicts = []
    for gen, order, bound in _SCAN_CASES:
        ord = parse_order(order)
        fresh = lambda: make_generator(gen, field)  # noqa: E731
        m = parse_monomial(bound, ord)
        verdicts += _check_all(fresh, [run_bms(fresh(), m, ord), run_rank_solver(fresh(), m, ord)], ord)
    assert False in verdicts


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
def test_block_check_equals_the_per_shift_check_on_table_results(field):
    verdicts = []
    for gen, solve, T in (
        ("pow23", run_sfglm, monomials_up_to_degree(2, DRL2)),
        ("pow23", run_sfglm_tweaked, monomials_up_to_degree(2, DRL2)),
        ("binomial", run_sfglm, monomials_up_to_degree(3, DRL2)),
        # the x^4 candidate lies outside T
        ("binomial", run_sfglm_tweaked, monomials_up_to_degree(3, DRL2)),
    ):
        fresh = lambda: make_generator(gen, field)  # noqa: E731
        verdicts += _check_all(fresh, [solve(fresh(), T, DRL2)], DRL2)
    assert False in verdicts


def test_block_check_equals_the_per_shift_check_on_a_q_table_of_fractions():
    ideal = IdealSequences(parse_polys("y^2 - 1/3*x - 2/5, x^3 - 1/7*x*y - 3/2*y", DRL2, QQ), DRL2)
    values = ideal.oracle(ideal.random_initial(random.Random(3)))
    entries = [values.query((a, b)).value for a in range(7) for b in range(7)]
    assert sum(Fraction(e).denominator > 1 for e in entries) > 40
    fresh = lambda: table_oracle(QQ, (7, 7), entries)  # noqa: E731
    T = monomials_up_to_degree(3, DRL2)
    results = [run_sfglm(fresh(), T, DRL2), run_sfglm_tweaked(fresh(), T, DRL2)]
    assert False in _check_all(fresh, results, DRL2)


@pytest.mark.parametrize(
    "spec", [FamilySpec("simplex", 3, 2, seed=7), FamilySpec("lshape", 3, 3, seed=8)], ids=["simplex-2D", "lshape-3D"]
)
def test_block_check_equals_the_per_shift_check_on_q_family_instances(spec):
    # the matrix oracle gives a family instance's integral values as ints,
    # which the block check dots as plain ints; equal counts mean each check
    # stops at the same failing shift
    oracle, _, _ = make_family(spec, QQ)
    fresh = lambda: SequenceOracle(oracle.n, QQ, oracle._provider)  # noqa: E731
    ord = family_order(spec.n)
    d_s, _, d_max = family_degrees(spec)
    bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
    T = monomials_up_to_degree(d_max, ord)
    assert all(type(fresh().query(i).value) is int for i in enumerate_up_to(bound, ord))
    results = [run_algorithm(a, fresh(), ord, bound, T) for a in ("bms", "rank", "sfglm", "sfglm-tweaked")]
    assert False in _check_all(fresh, results, ord)


@pytest.mark.parametrize("field", [F65537, parse_field("Fp:2305843009213693951")], ids=["65537", "2^61-1"])
def test_block_check_codes_labels_past_int64(field):
    # u_(a,b) = 3^a·5^b: x − 3 and y − 5 hold on every shift, here on rows
    # whose exponents make the code sums pass int64 (Python-int codes)
    p = field.p
    fresh = lambda: SequenceOracle(2, field, lambda i: field.elem(pow(3, i[0], p) * pow(5, i[1], p)))  # noqa: E731
    wide = 2**32
    T = [(0, 0), (1, 0), (wide, 0), (0, wide), (wide, wide)]
    gb = [Poly(field, {(1, 0): field.one, (0, 0): field.elem(-3)}), Poly(field, {(0, 1): field.one, (0, 0): field.elem(-5)})]
    res = Result("custom", DRL2, field, [Relation(g, T[-1]) for g in gb], [(0, 0)], 0, OpCounter(), table=T)
    assert (wide + 2) ** 2 >= 2**64
    assert _same_as_per_shift(fresh, res, DRL2) is True
    bad = _with_relation(res, 0, poly=_bumped_lead(gb[0], DRL2))
    assert _same_as_per_shift(fresh, bad, DRL2) is False


def test_a_failing_table_certificate_reads_no_later_relation():
    # the table holds exactly the certificate's cells' box; the first relation
    # fails and the check stops before the second relation's block
    T = monomials_up_to_degree(3, DRL2)
    res = run_sfglm_tweaked(make_generator("binomial", F65537), T, DRL2)
    cells = [mono_mul(m, t) for r in res.relations if r.shift is not None for m in T for t in r.poly.terms]
    shape = tuple(max(c[v] for c in cells) + 1 for v in range(2))
    values = make_generator("binomial", F65537)
    entries = [values.query((a, b)).value for a in range(shape[0]) for b in range(shape[1])]
    fresh = lambda: table_oracle(F65537, shape, entries)  # noqa: E731
    assert verify_result(fresh(), res, DRL2)
    bad = _with_relation(res, 0, poly=_bumped_lead(res.relations[0].poly, DRL2))
    oracle = fresh()
    assert verify_result(oracle, bad, DRL2) is False
    first = {mono_mul(m, t) for m in T for t in bad.relations[0].poly.terms}
    assert oracle._queried <= first
    assert len(res.relations) > 1 and not first >= set(cells)


# -- zero-dimensionality and containment -------------------------------------------


def test_zero_dimensionality():
    assert not is_zero_dimensional([P("x*y - y - 1")], DRL2)
    closed = [P("y^2"), P("x*y - y - 1"), P("x^2 - 2*x + 1")]
    assert is_zero_dimensional(closed, DRL2)
    assert not is_zero_dimensional([], DRL2)
    assert is_zero_dimensional([P("1")], DRL2)  # unit ideal


def test_ideal_containment_window():
    big = [P("x*y - y - 1", QQ)]
    small = [
        P("x*y - y - 1", QQ),
        P("y^3", QQ),
        P("x^3 - 3*x^2 + 3*x - 1", QQ),
    ]
    # y^3 is no bounded combination of the single generator
    assert not ideal_contains_at_truncation(big, small, DRL2, 3)
    assert ideal_contains_at_truncation(small, big, DRL2, 3)
    assert ideal_contains_at_truncation(small, small, DRL2, 2)
    assert ideal_contains_at_truncation(big, [], DRL2, 2)
    assert not ideal_contains_at_truncation([], big, DRL2, 2)
    assert not ideal_contains_at_truncation([Poly.zero(QQ)], big, DRL2, 2)


def test_run_algorithm_names_what_it_cannot_run():
    oracle = make_generator("binomial", F65537)
    with pytest.raises(SeqrelError, match="unknown algorithm 'gauss'"):
        run_algorithm("gauss", oracle, DRL2, bound=(2, 0))
    with pytest.raises(SeqrelError, match="algorithm 'sfglm' needs a term set"):
        run_algorithm("sfglm", oracle, DRL2, bound=(2, 0))
    with pytest.raises(SeqrelError, match="algorithm 'bms' needs a stopping monomial"):
        run_algorithm("bms", oracle, DRL2, table=enumerate_up_to((2, 0), DRL2))
    assert oracle.queries == 0


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_algorithm_rejects_an_order_of_another_dimension_before_any_read(algo):
    oracles = [
        (make_generator("fib4", F65537), 3),
        (table_oracle(F65537, (9,), list(range(9))), 1),
    ]
    for oracle, n in oracles:
        message = rf"order drl\(y<x\) has 2 variables; the sequence has dimension {n}"
        with pytest.raises(SeqrelError, match=message):
            run_algorithm(algo, oracle, DRL2, bound=(2, 0), table=enumerate_up_to((2, 0), DRL2))
        assert oracle.queries == 0


# -- Gorenstein test ----------------------------------------------------------------


def test_gorenstein_structural_defect():
    J = [P("x^2"), P("x*y"), P("y^2")]
    for seed in (0, 1, 2):
        assert gorenstein_test(J, DRL2, 10, seed) == NOT_GORENSTEIN
    JQ = [P("x^2", QQ), P("x*y", QQ), P("y^2", QQ)]
    assert gorenstein_test(JQ, DRL2, 5, 1) == NOT_GORENSTEIN


def test_gorenstein_likely():
    J = [P("y^2"), P("x^2")]
    assert gorenstein_test(J, DRL2, 10, 0) == GORENSTEIN_LIKELY
    assert gorenstein_test([P("x - 3"), P("y - 5")], DRL2, 10, 0) == GORENSTEIN_LIKELY
    JQ = [P("y^2", QQ), P("x^2", QQ)]
    assert gorenstein_test(JQ, DRL2, 5, 1) == GORENSTEIN_LIKELY


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gorenstein_verdicts_on_small_fields(p):
    # det H_{S,S} of <x^2, y^2> is l(xy)^4: a trial is singular with
    # probability 1/p, and one nonsingular trial proves the verdict
    F = parse_field(f"Fp:{p}")
    ci = [P("y^2", F), P("x^2", F)]
    square = [P("y^2", F), P("x*y", F), P("x^2", F)]
    for seed in range(10):
        assert gorenstein_test(ci, DRL2, 10, seed) == GORENSTEIN_LIKELY
        assert gorenstein_test(square, DRL2, 10, seed) == NOT_GORENSTEIN


def test_gorenstein_needs_a_trial():
    with pytest.raises(SeqrelError, match="at least one trial"):
        gorenstein_test([P("y^2"), P("x^2")], DRL2, 0, 0)


def test_gorenstein_rejects_positive_dimensional():
    with pytest.raises(PositiveDimensionError):
        gorenstein_test([P("x*y - y - 1")], DRL2, 3, 0)


# -- benchmark families ---------------------------------------------------------------


def test_family_staircase_sizes():
    assert make_family(FamilySpec("rectangle", 4, 2))[2] == 8
    assert make_family(FamilySpec("lshape", 5, 3))[2] == 13  # 3d - 2
    assert make_family(FamilySpec("simplex", 4, 3))[2] == 20  # C(d+2, 3)


@pytest.mark.parametrize(
    "spec, message",
    [
        (("hexagon", 3, 2), "unknown family 'hexagon'"),
        (("simplex", 3, 1), "2- or 3-dimensional"),
        (("simplex", 3, 4), "2- or 3-dimensional"),
        (("rectangle", 1, 2), "must be >= 2"),
    ],
)
def test_family_spec_rejects_what_no_family_defines(spec, message):
    with pytest.raises(SeqrelError, match=message):
        FamilySpec(*spec)


def test_reference_queries_exist_for_two_and_three_variables_only():
    assert reference_queries(2) and reference_queries(3)
    with pytest.raises(KeyError, match="no reference data for n=4"):
        reference_queries(4)


def test_staircase_tables_match_family_definitions():
    for n in (2, 3):
        for family, table in reference_staircase(n).items():
            ord = family_order(n)
            for d, size in table.items():
                lms = family_lms(FamilySpec(family, d, n), ord)
                stair = staircase_of(
                    [Poly.monomial(F65537, m) for m in lms], ord
                )
                assert len(stair) == size, (family, n, d)


def test_query_tables_match_count_formulas():
    # distinct-query closed forms: C(n+2*dmax, n) for the table-driven solver,
    # C(n+dS+dmax, n) for the scan-driven one
    for n in (2, 3):
        for (family, algo), table in reference_queries(n).items():
            for d, queries in table.items():
                d_s, _, d_max = family_degrees(FamilySpec(family, d, n))
                expected = (
                    comb(n + 2 * d_max, n)
                    if algo == "sfglm"
                    else comb(n + d_s + d_max, n)
                )
                assert queries == expected, (family, algo, n, d)


def test_bench_reproduces_reference_coordinates():
    for fam, n, d, algo in [
        ("simplex", 2, 2, "bms"),
        ("simplex", 2, 2, "sfglm"),
        ("lshape", 2, 3, "bms"),
        ("lshape", 2, 3, "sfglm"),
        ("rectangle", 2, 4, "bms"),
        ("rectangle", 2, 4, "sfglm"),
        ("simplex", 3, 2, "bms"),
        ("simplex", 3, 2, "sfglm"),
        ("rectangle", 3, 4, "sfglm"),
    ]:
        row = bench_point(FamilySpec(fam, d, n), algo)
        assert row.queries == reference_queries(n)[(fam, algo)][d], (fam, n, d, algo)
        assert row.staircase_size == reference_staircase(n)[fam][d]


# -- comparison reports -----------------------------------------------------------


def test_comparison_report_binomial_matched_bounds():
    rep = compare_algorithms(
        lambda: make_generator("binomial", F65537),
        ["bms", "sfglm"],
        DRL2,
        bound=parse_monomial("x^5", DRL2),
        table=monomials_up_to_degree(3, DRL2),
    )
    assert rep.zero_dimensional == {"bms": True, "sfglm": False}
    assert rep.containment == {"bms<=sfglm": False, "sfglm<=bms": True}
    assert {n: r.queries for n, r in rep.results.items()} == {"bms": 21, "sfglm": 28}
    data = comparison_report_to_json(rep)
    assert sorted(data) == [
        "algorithms",
        "containment",
        "field",
        "ops",
        "order",
        "queries",
        "results",
        "shifts",
        "verified",
        "zero_dimensional",
    ]
    assert data["verified"] == {"bms": True, "sfglm": True}
    assert data["shifts"]["sfglm"] == [
        {"poly": "x*y + 65536*y + 65536", "shift": "x^3", "tested": True}
    ]


def test_comparison_report_identical_algorithms():
    rep = compare_algorithms(
        lambda: make_generator("step", F65537),
        ["bms", "bms"],
        DRL2,
        bound=parse_monomial("y^3", DRL2),
    )
    assert rep.algorithms == ["bms", "bms#2"]
    data = comparison_report_to_json(rep)
    assert data["results"]["bms"] == data["results"]["bms#2"]
    assert rep.containment == {"bms<=bms#2": True, "bms#2<=bms": True}
    assert rep.zero_dimensional["bms"] == rep.zero_dimensional["bms#2"]


def test_comparison_report_checks_each_certificate_on_a_fresh_oracle(monkeypatch):
    made = []

    def factory():
        made.append(make_generator("binomial", F65537))
        return made[-1]

    def tamper_rank(algo, *args):
        res = run_algorithm(algo, *args)
        if algo != "rank":
            return res
        k = max(i for i, r in enumerate(res.relations) if r.shift is not None)
        return _with_relation(res, k, poly=_bumped_lead(res.relations[k].poly, DRL2))

    monkeypatch.setattr(compare_module, "run_algorithm", tamper_rank)
    algos = ["bms", "sfglm", "rank"]
    rep = compare_algorithms(
        factory, algos, DRL2, bound=parse_monomial("x^5", DRL2), table=monomials_up_to_degree(3, DRL2)
    )
    assert rep.verified == {"bms": True, "sfglm": True, "rank": False}
    assert comparison_report_to_json(rep)["verified"] == rep.verified
    # one oracle per solve, then one per check, each read by that check alone
    assert len(made) == 2 * len(algos)
    assert [o.queries for o in made[:3]] == [rep.results[a].queries for a in algos]
    assert all(o.queries for o in made[3:])


# -- shape position ------------------------------------------------------------------


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = Poly.zero(a.field)
    for m, c in a.terms.items():
        out = out + b.mul_monomial(m).scale(c)
    return out


def _shape_position_case(d: int, seed: int, zero_maps: bool):
    """<g(z), y - f2(z), x - f1(z)> with g squarefree of degree d, plus a
    random sequence generated by it."""
    rng = random.Random(seed)
    g = P("1", ord=LEX3)
    for r in rng.sample(range(1, 2000), d):
        g = _poly_mul(g, P(f"z - {r}", ord=LEX3))

    def rand_zpoly() -> Poly:
        out = Poly.zero(F65537)
        for i in range(d):
            c = rng.randrange(65537)
            if c and not zero_maps:
                t = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
                out = out + P(t, ord=LEX3).scale(F65537.elem(str(c)))
        return out

    f1, f2 = rand_zpoly(), rand_zpoly()
    gb = inter_reduce(
        [
            g,
            P("y", ord=LEX3) - f2,
            P("x", ord=LEX3) - f1,
        ],
        LEX3,
    )
    stair = staircase_of(gb, LEX3)
    rng2 = random.Random(seed + 1000)
    initial = {s: _rand_elem(F65537, rng2) for s in stair}
    make = lambda: IdealSequences(gb, LEX3).oracle(initial)
    return gb, make


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("zero_maps", [False, True])
def test_shape_position_law(d, zero_maps):
    gb, make = _shape_position_case(d, 7 + d, zero_maps)
    T = [parse_monomial("1", LEX3)] + [
        parse_monomial(f"z^{i}" if i > 1 else "z", LEX3) for i in range(1, d + 3)
    ]
    sres = run_sfglm_tweaked(make(), T, LEX3)
    bres = run_bms(make(), parse_monomial(f"z^{2 * (d + 2)}", LEX3), LEX3)
    fmt = lambda polys: sorted(format_poly(p, LEX3) for p in polys)
    truth = fmt(gb)
    # the adaptive table solver recovers the whole ideal
    assert fmt(sres.basis()) == truth
    # the scan solver sees only the z-axis: bare y and x
    g_str = format_poly(gb[0], LEX3)
    assert fmt(bres.basis()) == sorted([g_str, "y", "x"])
    assert (fmt(bres.basis()) == truth) == zero_maps


# -- harness output -------------------------------------------------------------------


def test_csv_and_gnuplot_output():
    rows = bench([FamilySpec("simplex", d, 2) for d in (2, 3)], ["bms", "sfglm"])
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "family,n,d,algorithm,queries,mults,adds,staircase_size,dmax,wall_ms"
    )
    assert len(lines) == 5
    assert lines[1].startswith("simplex,2,2,bms,10,")
    assert lines[2].startswith("simplex,2,2,sfglm,15,")
    # header-only CSV for an empty grid
    assert rows_to_csv([]).splitlines() == [lines[0]]
    plot = gnuplot_columns(rows)
    blocks = plot.strip().split("\n\n")
    assert blocks[0].splitlines() == ["# simplex n=2 bms (queries)", "2 10", "3 21"]
    assert blocks[1].splitlines()[0] == "# simplex n=2 sfglm (queries)"


def test_query_formula_bounds():
    # measured queries against the closed-form count laws on fresh grid points
    for fam, n, d in [("lshape", 2, 4), ("rectangle", 2, 5), ("simplex", 3, 3)]:
        spec = FamilySpec(fam, d, n)
        d_s, _, d_max = family_degrees(spec)
        srow = bench_point(spec, "sfglm")
        assert srow.queries == comb(n + 2 * d_max, n)
        brow = bench_point(spec, "bms")
        assert comb(n + d_s + d_max - 1, n) <= brow.queries <= comb(n + d_s + d_max, n)


# -- operation counting --------------------------------------------------------------


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_solvers_count_every_operation_explicitly(monkeypatch, field):
    # solvers run on raw values and count in bulk: a FieldElement dunder called
    # under an active counter would be a count no convention names (oracle
    # providers run with counting paused, so they may use the dunders)
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse"):

        def guarded(*args, _inner=getattr(FieldElement, name), _name=name):
            assert not field_module._counters(), f"FieldElement.{_name} while counting"
            return _inner(*args)

        monkeypatch.setattr(FieldElement, name, guarded)
    for family in ("rectangle", "lshape", "simplex"):
        spec = FamilySpec(family, 3, 2)
        ord = family_order(spec.n)
        d_s, _, d_max = family_degrees(spec)
        bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
        table = monomials_up_to_degree(d_max, ord)
        for algo in ALGORITHMS:
            oracle, _, _ = make_family(spec, field)
            run_algorithm(algo, oracle, ord, bound, table, trace=True)
