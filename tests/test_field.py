from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel.errors import FieldMismatchError, ParseError
from seqrel.field import (
    OpCounter,
    QQ,
    FieldElement,
    FpField,
    counting,
    counting_paused,
    count_mults,
    is_prime,
    parse_field,
)

F5 = FpField(5)
F7 = FpField(7)
F65537 = FpField(65537)


def test_fp_add_golden():
    assert F5.elem(3) + F5.elem(4) == F5.elem(2)


def test_q_add_golden():
    assert QQ.elem(Fraction(1, 3)) + QQ.elem(Fraction(1, 2)) == QQ.elem(Fraction(5, 6))


def test_fp_additive_identity():
    for v in range(7):
        assert F7.elem(v) + F7.zero == F7.elem(v)


def test_fp_inverse_golden():
    assert F7.elem(3).inverse() == F7.elem(5)


def test_q_inverse_golden():
    assert QQ.elem(Fraction(-2, 3)).inverse() == QQ.elem(Fraction(-3, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F7.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero


def test_canonical_representatives():
    assert F7.elem(-1).value == 6
    assert F7.elem(21).value == 0
    assert (F7.elem(3) - F7.elem(5)).value == 5
    q = QQ.elem(Fraction(4, -6))
    assert q.value == Fraction(-2, 3)


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        F5.elem(1) + F7.elem(1)
    with pytest.raises(FieldMismatchError):
        QQ.elem(1) * F7.elem(1)


def test_parse_field():
    assert parse_field("Q") is QQ
    f = parse_field("Fp:65537")
    assert isinstance(f, FpField) and f.p == 65537
    assert parse_field("Fp:65537") == F65537
    for bad in ("R", "Fp:15", "Fp:foo", f"Fp:{1 << 62}", 65537, None):
        with pytest.raises(ParseError):
            parse_field(bad)


def test_is_prime_spot_values():
    primes = [2, 3, 5, 65537, (1 << 61) - 1]
    composites = [0, 1, 4, 65536, 65539 * 65521, (1 << 61) - 2]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_element_string_round_trip():
    assert str(F65537.elem(-1)) == "65536"
    assert str(QQ.elem(Fraction(-2, 3))) == "-2/3"
    assert F65537.elem("12/5") == F65537.elem(12) / F65537.elem(5)
    assert QQ.elem("-7/2") == QQ.elem(Fraction(-7, 2))
    with pytest.raises(ParseError):
        QQ.elem("one")


def _raw(field, x: Fraction):
    """The raw value of the rational x in `field`."""
    return x if field is QQ else x.numerator * pow(x.denominator, -1, field.p) % field.p


@pytest.mark.parametrize("field", [F7, F65537, FpField(2**61 - 1), QQ], ids=["7", "65537", "2^61-1", "Q"])
def test_elem_parses_every_scalar_kind_alike_on_every_field(field):
    for given, want in [
        (12, Fraction(12)),
        (-3, Fraction(-3)),
        (Fraction(3, 5), Fraction(3, 5)),
        ("3/5", Fraction(3, 5)),
        (" -7 ", Fraction(-7)),
    ]:
        got = field.elem(given)
        assert got.field is field and got.value == _raw(field, want), given
        assert type(got.value) is type(field.zero.value)
        assert str(got) == str(got.value)
    assert field.elem(field.one) is field.one
    other = F5 if field is QQ else QQ
    for given, error in [
        ("1/0", ParseError),
        ("x", ParseError),
        (True, TypeError),
        (1.5, TypeError),
        (other.one, FieldMismatchError),
    ]:
        with pytest.raises(error, match=re.escape(str(field))):
            field.elem(given)
    if field is not QQ:  # a denominator that is 0 mod p
        with pytest.raises(ParseError):
            field.elem(f"1/{field.p}")
        with pytest.raises(ValueError):
            field.elem(Fraction(1, field.p))


def test_op_counting_basics():
    ops = OpCounter()
    a, b = F65537.elem(3), F65537.elem(11)
    with counting(ops):
        _ = a + b
        _ = a - b
        _ = -a
        _ = a * b
        _ = a.inverse()
        _ = a / b
    assert ops.additions == 3
    assert ops.multiplications == 2
    assert ops.inversions == 2
    assert ops.basic == 4


def test_op_counting_nested_and_paused():
    outer, inner = OpCounter(), OpCounter()
    a = F65537.elem(9)
    with counting(outer):
        _ = a * a
        with counting(inner):
            _ = a * a
            with counting_paused():
                _ = a * a  # invisible to both
            count_mults(10)
    assert outer.multiplications == 12
    assert inner.multiplications == 11


def test_fp_agrees_with_bigint_reduction():
    rng = random.Random(20260818)
    p = 65537
    for _ in range(10_000):
        a, b, c = (rng.randrange(10**12) for _ in range(3))
        ea, eb, ec = F65537.elem(a), F65537.elem(b), F65537.elem(c)
        assert (ea * eb + ec).value == (a * b + c) % p
        assert (ea - eb).value == (a - b) % p


fp_elems = st.integers(min_value=0, max_value=65536).map(F65537.elem)
q_elems = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
).map(QQ.elem)


@settings(deadline=None)
@given(fp_elems, fp_elems, fp_elems)
def test_fp_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == F65537.one


@settings(deadline=None)
@given(q_elems, q_elems, q_elems)
def test_q_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == QQ.one


@settings(deadline=None)
@given(fp_elems, fp_elems)
def test_counter_monotone(a, b):
    ops = OpCounter()
    with counting(ops):
        before = ops.as_dict()
        _ = a * b + a
        after = ops.as_dict()
    assert all(after[k] >= before[k] for k in before)
    assert ops.as_dict() == {"additions": 1, "multiplications": 1, "inversions": 0}


# Q and the primes on both sides of the 2^31 int64 cap of the Hankel kernel
_RAW_FIELDS = [
    pytest.param(QQ, id="Q"),
    pytest.param(F7, id="7"),
    pytest.param(F65537, id="65537"),
    pytest.param(FpField(2**31 - 1), id="2147483647"),
    pytest.param(FpField(2**61 - 1), id="2305843009213693951"),
]


@pytest.mark.parametrize("field", _RAW_FIELDS)
def test_raw_vector_methods_match_the_dunders(field):
    # `_dot` and `_scale` on raw values, and `_reduce` of a raw x − c·y left
    # unreduced, give the values of the same FieldElement arithmetic, in the
    # field's raw type, and count nothing
    rng = random.Random(str(field))

    def draw() -> FieldElement:
        # zeros, negatives, and denominators that differ (none a multiple of 7)
        num = rng.choice([0, -1, rng.randrange(-(10**20), 10**20), rng.randrange(-99, 100)])
        return field.elem(Fraction(num, rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 12])))

    def check_raw(v) -> None:
        if isinstance(field, FpField):
            assert type(v) is int and 0 <= v < field.p
        else:
            assert type(v) is Fraction

    for n in (0, 1, 2, 5, 9):
        for _ in range(20):
            xs = [draw() for _ in range(n)]
            ys = [draw() for _ in range(n)]
            c = draw()
            vx, vy = [x.value for x in xs], [y.value for y in ys]
            with counting(ops := OpCounter()):
                dot = field._dot(vx, vy)
                scaled = field._scale(vx, c.value)
                updated = [field._reduce(x - c.value * y) for x, y in zip(vx, vy)]
            assert ops == OpCounter()
            assert dot == sum((x * y for x, y in zip(xs, ys)), field.zero).value
            assert scaled == [(x * c).value for x in xs]
            assert updated == [(x - c * y).value for x, y in zip(xs, ys)]
            for v in [dot, *scaled, *updated]:
                check_raw(v)
    if isinstance(field, FpField):
        return
    # over Q a raw value may also be a plain int, as the matrix oracle gives
    # an integral sequence value: `_dot` returns an int exactly when both
    # sides hold only ints and are not empty
    def draw_raw(p_int: float):
        if rng.random() < p_int:
            return rng.choice([0, -1, rng.randrange(-(10**20), 10**20), rng.randrange(-99, 100)])
        return draw().value  # a Fraction, integral or not

    for n in (0, 1, 2, 5, 9):
        for px, py in ((1, 1), (1, 0), (0.5, 0.5)):
            for _ in range(20):
                vx, vy = [draw_raw(px) for _ in range(n)], [draw_raw(py) for _ in range(n)]
                with counting(ops := OpCounter()):
                    dot = field._dot(vx, vy)
                assert ops == OpCounter()
                boxed = ([FieldElement(field, v) for v in vs] for vs in (vx, vy))
                assert dot == sum((x * y for x, y in zip(*boxed)), field.zero).value
                all_ints = all(type(v) is int for v in vx + vy)
                assert type(dot) is (int if n and all_ints else Fraction)
