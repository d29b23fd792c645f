from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel.errors import ParseError
from seqrel.field import QQ, FieldElement, FpField
from seqrel.monomials import divides, parse_monomial, parse_order
from seqrel.poly import (
    Poly,
    format_poly,
    inter_reduce,
    parse_poly,
    poly_to_json,
    staircase_of,
)

DRL2 = parse_order("drl(y<x)")
DRL3 = parse_order("drl(z<y<x)")
F17 = FpField(17)


def P(text: str, ord=DRL2, field=QQ) -> Poly:
    return parse_poly(text, ord, field)


def M(text: str, ord=DRL2):
    return parse_monomial(text, ord)


def test_leading_data():
    assert P("x*y - y - 1").lm(DRL2) == M("x*y")
    f = P("5")
    assert f.lm(DRL2) == M("1") and f.lc(DRL2) == QQ.elem(5)
    assert P("x - 3*z - 2", DRL3).lm(DRL3) == parse_monomial("x", DRL3)
    with pytest.raises(ValueError):
        Poly.zero(QQ).lm(DRL2)


def test_ring_arithmetic():
    assert P("x*y - y - 1") + P("y + 1") == P("x*y")
    assert not P("x + y").scale(QQ.zero)
    assert -P("x - 1") == P("1 - x")
    assert not P("x") - P("x")


def test_inter_reduce_goldens():
    g1 = P("x*y - x - y + 1")
    g2 = P("x^2 - 1/3*x*y - y^2 - 5/3*x + 7/3*y - 1/3")
    g3 = P("y^3 - 1/2*x*y - 3*y^2 + 1/2*x + 7/2*y - 3/2")
    got = inter_reduce([g1, g2, g3], DRL2)
    assert got == [
        P("x*y - x - y + 1"),
        P("x^2 - y^2 - 2*x + 2*y"),
        P("y^3 - 3*y^2 + 3*y - 1"),
    ]
    assert inter_reduce([P("x"), P("2*x + y")], DRL2) == [P("y"), P("x")]
    already = [P("y^2"), P("x*y - y - 1"), P("x^2 - 2*x + 1")]
    assert inter_reduce(already, DRL2) == sorted(
        already, key=lambda g: DRL2.key(g.lm(DRL2))
    )


def test_staircase_of():
    G = [P("y^2"), P("x*y - y - 1"), P("x^2 - 2*x + 1")]
    assert staircase_of(G, DRL2) == [M("1"), M("y"), M("x")]
    assert staircase_of([P("1")], DRL2) == []
    G2 = [P("y^3"), P("x*y"), P("x^3")]
    assert staircase_of(G2, DRL2) == [M("1"), M("y"), M("x"), M("y^2"), M("x^2")]
    with pytest.raises(ValueError):
        staircase_of([P("x*y - y - 1")], DRL2)


def test_text_round_trip():
    for text in ("x*y - y - 1", "x^2 - y^2 - 2*x + 2*y", "1", "-x", "2/3*y - 1/2"):
        f = P(text)
        assert parse_poly(format_poly(f, DRL2), DRL2, QQ) == f
    assert format_poly(P("x*y - y - 1"), DRL2) == "x*y - y - 1"
    assert format_poly(Poly.zero(QQ), DRL2) == "0"
    f17 = parse_poly("x - 1", DRL2, F17)
    assert format_poly(f17, DRL2) == "x + 16"
    # the sign comes from the field, whether the raw value is an int or a Fraction
    x = parse_monomial("x", DRL2)
    for raw in (-3, Fraction(-3)):
        f = Poly(QQ, {x: QQ.one, DRL2.one: FieldElement(QQ, raw)})
        assert f == P("x - 3")
        assert format_poly(f, DRL2) == "x - 3"
        assert format_poly(-f, DRL2) == "-x + 3"


def test_json_round_trip():
    f = P("x^2 - 1/3*x*y - y^2 - 5/3*x + 7/3*y - 1/3")
    data = poly_to_json(f, DRL2)
    assert data[0] == {"monomial": "x^2", "coefficient": "1"}


coeffs = st.integers(-4, 4).filter(lambda v: v != 0)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw, min_terms=0):
    n = draw(st.integers(min_terms, 4))
    terms = {}
    for _ in range(n):
        terms[draw(monos)] = QQ.elem(draw(coeffs))
    return Poly(QQ, terms)


@settings(deadline=None)
@given(st.lists(polys(min_terms=1), min_size=1, max_size=4))
def test_inter_reduce_is_reduced(G):
    out = inter_reduce(G, DRL2)
    for i, g in enumerate(out):
        assert g.lc(DRL2) == QQ.one
        for j, h in enumerate(out):
            if i == j:
                continue
            for m in h.support():
                assert not divides(g.lm(DRL2), m)


@pytest.mark.parametrize(
    "text, message",
    [("", "empty polynomial text"), ("  ", "empty polynomial text"), ("x + -", "dangling sign"), ("+", "no terms")],
)
def test_parse_poly_text_errors(text, message):
    with pytest.raises(ParseError, match=message):
        P(text)
