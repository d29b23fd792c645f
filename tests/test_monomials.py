from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel.errors import ParseError, UnsupportedOrderError
from seqrel.monomials import (
    Packing,
    border,
    degree,
    divides,
    enumerate_up_to,
    format_monomial,
    is_stable,
    mul,
    parse_monomial,
    parse_order,
    quotient,
    stabilize,
)

DRL2 = parse_order("drl(y<x)")
DRL3 = parse_order("drl(z<y<x)")
LEX2 = parse_order("lex(y<x)")
LEX3 = parse_order("lex(z<y<x)")
W2 = parse_order("weight([[1,1],[0,-1]];y<x)")
Y_FIRST = parse_order("weight([[0,1],[1,0]];y<x)")  # lex with y most significant
Z_FIRST = parse_order("weight([[0,0,1],[1,2,0],[0,1,0]];z<y<x)")


def M(text: str, ord=DRL2):
    return parse_monomial(text, ord)


def test_drl_degree_two_listing():
    monos = enumerate_up_to(M("x^2"), DRL2)
    assert [format_monomial(m, DRL2) for m in monos] == ["1", "y", "x", "y^2", "x*y", "x^2"]


def test_drl3_degree_two_block():
    monos = enumerate_up_to(parse_monomial("x^2", DRL3), DRL3)
    names = [format_monomial(m, DRL3) for m in monos]
    assert names == ["1", "z", "y", "x", "z^2", "y*z", "x*z", "y^2", "x*y", "x^2"]


def test_lex_compare():
    assert LEX2.key(parse_monomial("y^5", LEX2)) < LEX2.key(parse_monomial("x", LEX2))


def test_divisibility_ops():
    assert divides(M("x*y"), M("x^2*y"))
    assert quotient(M("x^2*y"), M("x*y")) == M("x")
    assert not divides(M("x^2"), M("x*y"))
    assert mul(M("x"), M("y^2")) == M("x*y^2")
    with pytest.raises(ValueError):
        quotient(M("x*y"), M("x^2"))


def test_drl_chain():
    want = ["1", "y", "x", "y^2", "x*y", "x^2", "y^3"]
    assert [format_monomial(m, DRL2) for m in enumerate_up_to(M("y^3"), DRL2)] == want


def test_drl3_z_then_y():
    assert enumerate_up_to(DRL3.variable("y"), DRL3) == [DRL3.one, DRL3.variable("z"), DRL3.variable("y")]


def test_enumerate_golden():
    assert enumerate_up_to(DRL2.one, DRL2) == [DRL2.one]
    for d in range(7):
        count = len(enumerate_up_to((d, 0), DRL2))
        assert count == (d + 1) * (d + 2) // 2


def test_stabilize():
    got = stabilize([M("x*y")], DRL2)
    assert got == [M("1"), M("y"), M("x"), M("x*y")]
    stable = [M("1"), M("y"), M("x"), M("y^2"), M("x^2")]
    assert stabilize(stable, DRL2) == DRL2.sort(stable)
    assert stabilize(stabilize([M("x^2*y")], DRL2), DRL2) == stabilize([M("x^2*y")], DRL2)


def test_border_goldens():
    S = [M("1"), M("y"), M("x")]
    assert border(S, DRL2) == [M("y^2"), M("x*y"), M("x^2")]
    assert border([], DRL2) == [DRL2.one]
    S2 = [M("1"), M("y"), M("x"), M("y^2"), M("x^2")]
    assert set(border(S2, DRL2)) == {M("y^3"), M("x*y"), M("x^3")}


def test_corners_and_stability():
    assert not is_stable([M("y")])
    assert is_stable([M("1"), M("y"), M("x"), M("x*y")])


def test_lex_enumeration_special_case():
    chain = enumerate_up_to(parse_monomial("z^3", LEX3), LEX3)
    assert [format_monomial(m, LEX3) for m in chain] == ["1", "z", "z^2", "z^3"]
    with pytest.raises(UnsupportedOrderError):
        enumerate_up_to(parse_monomial("y", LEX3), LEX3)
    with pytest.raises(UnsupportedOrderError):
        enumerate_up_to(LEX3.variable("x"), LEX3)


def test_weight_matrix_validation():
    with pytest.raises(ParseError):
        parse_order("weight([[1,1],[1,1]];y<x)")
    # invertible but negative first row: comparisons fine, enumeration refused
    neg = parse_order("weight([[-1,-1],[0,-1]];y<x)")
    with pytest.raises(UnsupportedOrderError, match="not a well-order"):
        enumerate_up_to(neg.one, neg)


def test_weight_drl_equivalence_bulk():
    rng = random.Random(1)
    for _ in range(10_000):
        m1 = (rng.randrange(8), rng.randrange(8))
        m2 = (rng.randrange(8), rng.randrange(8))
        assert (W2.key(m1) < W2.key(m2)) == (DRL2.key(m1) < DRL2.key(m2))


def test_weight_enumeration_matches_drl():
    assert enumerate_up_to(M("x^7"), W2) == enumerate_up_to(M("x^7"), DRL2)


def test_enumeration_when_the_first_weights_vanish():
    # y is the most significant variable, so x^k ≺ y for every k
    assert enumerate_up_to(M("x^3"), Y_FIRST) == [(k, 0) for k in range(4)]
    with pytest.raises(UnsupportedOrderError, match="down-set is infinite"):
        enumerate_up_to(M("y"), Y_FIRST)
    y = Z_FIRST.variable("y")
    assert [format_monomial(m, Z_FIRST) for m in enumerate_up_to(y, Z_FIRST)] == ["1", "x", "x^2", "y"]


def test_order_spec_round_trip():
    for spec in ("drl(y<x)", "lex(z<y<x)", "weight([[1,1],[0,-1]];y<x)"):
        assert parse_order(spec).spec_string() == spec
    for bad in (
        "drl()",
        "drl(y<y)",
        "foo(y<x)",
        "weight([[1,1]];y<x)",
        "weight([[1,0],[1]];y<x)",  # not square
        "weight([[a,1],[0,1]];y<x)",  # a row that is not numbers
    ):
        with pytest.raises(ParseError):
            parse_order(bad)


def test_monomial_text_round_trip():
    assert parse_monomial("x^2*y", DRL2) == (2, 1)
    assert parse_monomial("1", DRL2) == (0, 0)
    assert format_monomial((2, 1), DRL2) == "x^2*y"
    assert format_monomial((0, 0), DRL2) == "1"
    with pytest.raises(ParseError):
        parse_monomial("w^2", DRL2)
    with pytest.raises(ParseError):
        parse_monomial("x+y", DRL2)


monos2 = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(deadline=None)
@given(monos2, monos2, monos2)
def test_order_compatible_with_multiplication(m1, m2, s):
    for ord in (DRL2, LEX2, W2):
        if ord.lt(m1, m2):
            assert ord.lt(mul(m1, s), mul(m2, s))


def _drl_successor(t, ord):
    # brute force: the next monomial of a degree-compatible order has degree <= deg(t) + 1
    d = degree(t) + 1
    return min((e for e in itertools.product(range(d + 1), repeat=ord.n) if degree(e) <= d and ord.lt(t, e)), key=ord.key)


@settings(deadline=None)
@given(monos2)
def test_successor_strictly_increases(m):
    for ord in (DRL2, W2):
        listing = enumerate_up_to(mul(m, ord.variable("x")), ord)
        nxt = listing[listing.index(m) + 1]
        assert ord.lt(m, nxt)
        assert nxt == _drl_successor(m, ord)


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_enumeration_is_successor_orbit(a, b):
    bound = (a, b)
    orbit = []
    t = DRL2.one
    while DRL2.key(t) <= DRL2.key(bound):
        orbit.append(t)
        t = _drl_successor(t, DRL2)
    assert orbit == enumerate_up_to(bound, DRL2)


@settings(deadline=None)
@given(st.sampled_from([DRL2, LEX2, W2, Y_FIRST, Z_FIRST]), st.tuples(*[st.integers(0, 4)] * 3))
def test_enumeration_is_the_down_set(ord, exps):
    bound = exps[: ord.n]
    # a finite down-set below these bounds has every exponent <= 12, so one
    # at side - 1 means some x_i^k ⪯ bound for every k
    side = 14
    down = [e for e in itertools.product(range(side), repeat=ord.n) if ord.key(e) <= ord.key(bound)]
    if any(side - 1 in e for e in down):
        with pytest.raises(UnsupportedOrderError, match="down-set is infinite"):
            enumerate_up_to(bound, ord)
    else:
        assert enumerate_up_to(bound, ord) == sorted(down, key=ord.key)


@settings(deadline=None)
@given(st.sets(monos2, max_size=8))
def test_border_properties(S):
    stable = stabilize(S, DRL2)
    if not stable:
        return
    b = border(stable, DRL2)
    assert not set(b) & set(stable)
    for m in b:
        for i, e in enumerate(m):
            if e > 0:
                assert m[:i] + (e - 1,) + m[i + 1 :] in stable
    assert len(stabilize(stable + b, DRL2)) > len(stable)


def _border_by_definition(stable, n, ord):
    """Divisibility-minimal elements of the x_i-multiples of S outside S."""
    outside = {
        m[:i] + (m[i] + 1,) + m[i + 1 :] for m in stable for i in range(n)
    } - set(stable)
    mins = [m for m in outside if not any(divides(o, m) for o in outside if o != m)]
    return sorted(mins, key=ord.key)


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        st.tuples(st.just(2), st.sets(monos2, min_size=1, max_size=10)),
        st.tuples(
            st.just(3),
            st.sets(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=10),
        ),
    )
)
def test_border_matches_min_divisibility_definition(case):
    n, S = case
    ord, lex = (DRL2, LEX2) if n == 2 else (DRL3, LEX3)
    stable = stabilize(S, ord)
    assert border(stable, ord) == _border_by_definition(stable, n, ord)
    assert border(stable, lex) == _border_by_definition(stable, n, lex)  # the order only sorts


def test_border_rejects_unstable_sets():
    with pytest.raises(AssertionError):
        border([M("1"), M("x^2")], DRL2)


@settings(deadline=None)
@given(st.sets(monos2, min_size=1, max_size=8))
def test_stabilize_is_minimal_stable_superset(S):
    closed = stabilize(S, DRL2)
    assert is_stable(closed)
    assert set(S) <= set(closed)
    for extra in list(closed):
        if extra in S:
            continue
        assert not is_stable(set(closed) - {extra}) or any(
            divides(extra, s) for s in S
        )


def test_degree():
    assert degree((3, 2)) == 5
    assert degree((0, 0)) == 0


# -- packed monomials ----------------------------------------------------------

PACKED = [  # (order, bound): drl n = 2..4, lex, and weight orders with a negative lower row;
    # bounds whose border needs one more bit than the bound itself
    ("drl(y<x)", "x^7"),
    ("drl(z<y<x)", "x^5"),
    ("drl(w<z<y<x)", "x^3"),
    ("lex(z<y<x)", "z^7"),
    ("weight([[1,2],[0,-1]];y<x)", "x^6"),
    ("weight([[1,1,2],[0,-1,3],[2,0,-1]];z<y<x)", "x^4"),
    # a zero first weight: the down-set of y holds x^99
    ("weight([[0,0,1],[1,100,0],[100,0,0]];z<y<x)", "y"),
]


def _packed_box(pk: Packing, n: int, side: int) -> list[tuple[tuple[int, ...], int]]:
    """Every monomial with exponents < side that the packing holds, with its code."""
    out = []
    for m in itertools.product(range(side), repeat=n):
        try:
            out.append((m, pk.pack(m)))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("spec,bound", PACKED, ids=[spec for spec, _ in PACKED])
def test_packed_codes_order_multiply_and_divide_like_tuples(spec, bound):
    ord = parse_order(spec)
    top = parse_monomial(bound, ord)
    pk = Packing(ord, top)
    window = enumerate_up_to(top, ord)
    for m in window + border(window, ord):  # everything a scan up to the bound touches
        assert pk.unpack(pk.pack(m)) == m
    packed = _packed_box(pk, ord.n, 8)
    assert len(packed) > len(window)
    assert sorted(packed, key=lambda mc: ord.key(mc[0])) == sorted(packed, key=lambda mc: mc[1])
    rng = random.Random(spec)
    for (a, ca), (b, cb) in (rng.sample(packed, 2) for _ in range(3000)):
        assert (not (cb - ca) & pk.mask) == divides(a, b)
        if divides(a, b):
            assert cb - ca == pk.pack(quotient(b, a))
        try:
            assert pk.pack(mul(a, b)) == ca + cb
        except ValueError:  # the product is beyond the bound's border
            assert ord.lt(top, mul(a, b))


def test_packed_certified_shift_comparison_survives_field_overflow():
    # v·t ⪯ bound exactly when code(v) + code(t) ≤ code(bound), also when v·t
    # does not fit the fields
    for spec, bound in PACKED:
        ord = parse_order(spec)
        top = parse_monomial(bound, ord)
        pk = Packing(ord, top)
        window = enumerate_up_to(top, ord)
        for v, t in itertools.product(window, window + border(window, ord)):
            assert (pk.pack(v) + pk.pack(t) <= pk.pack(top)) == (ord.key(mul(v, t)) <= ord.key(top))


def test_drl_packing_is_not_deglex():
    # total degree in the top field followed by the exponents is deglex: under
    # drl(z<y<x) it would put x·z above y^2
    xz, y2 = M("x*z", DRL3), M("y^2", DRL3)
    assert DRL3.lt(xz, y2)
    assert (2, *xz) > (2, *y2)
    pk = Packing(DRL3, M("x^4", DRL3))
    assert pk.pack(xz) < pk.pack(y2)


def test_packing_rejects_what_it_cannot_hold():
    pk = Packing(DRL2, M("x^3"))
    pk.pack(M("y^4"))  # the border of the degree-3 window
    with pytest.raises(ValueError):
        pk.pack(M("y^9"))
    with pytest.raises(UnsupportedOrderError):  # x ≺ 1: no monomial order
        Packing(parse_order("weight([[-1,-1],[0,-1]];y<x)"), M("1"))
