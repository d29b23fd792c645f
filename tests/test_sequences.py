from __future__ import annotations

import itertools
import math
import random
import re
import sys
import threading
from fractions import Fraction
from operator import le

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel.compare import FamilySpec, family_order, make_family
from seqrel.errors import (
    BoundExceededError,
    FieldMismatchError,
    NotGroebnerError,
    ParseError,
    PositiveDimensionError,
    SeqrelError,
)
from seqrel.field import OpCounter, QQ, FpField, counting, counting_paused
from seqrel.monomials import Packing, enumerate_up_to, parse_monomial, parse_order
from seqrel.poly import Poly, _raw_normal_form, inter_reduce, parse_poly, staircase_of, unbox
from seqrel.sequences import (
    GENERATOR_NAMES,
    IdealSequences,
    PackedReads,
    bracket,
    _matrix_oracle,
    make_generator,
    random_from_lms,
    SequenceOracle,
    table_from_json,
    table_oracle,
)

DRL2 = parse_order("drl(y<x)")
DRL3 = parse_order("drl(z<y<x)")
F65537 = FpField(65537)


def M(text: str, ord=DRL2):
    return parse_monomial(text, ord)


def test_generator_goldens():
    binom = make_generator("binomial", QQ)
    assert binom.query((2, 1)) == QQ.elem(2)
    assert binom.query((0, 2)) == QQ.zero
    assert make_generator("pow23", QQ).query((1, 1)) == QQ.elem(12)
    assert make_generator("sq", QQ).query((0, 0)) == QQ.elem(-1)
    step = make_generator("step", QQ)
    assert step.query((0, 2)) == QQ.elem(2)
    assert step.query((2, 2)) == QQ.elem(7)  # 3i+2j birthday: 10 > 9 bumps
    fib4 = make_generator("fib4", QQ)
    assert fib4.query((0, 0, 0)) == QQ.zero
    assert fib4.query((0, 0, 1)) == QQ.one
    assert fib4.query((1, 5, 2)) == QQ.elem(8)  # F_6, middle index ignored
    kron = make_generator("kron", QQ)
    assert kron.query((1, 1)) == QQ.one and kron.query((0, 1)) == QQ.zero
    assert set(GENERATOR_NAMES) == {"binomial", "pow23", "sq", "step", "fib4", "kron"}
    with pytest.raises(ParseError):
        make_generator("fibonacci", QQ)


def test_query_validation_and_counting():
    binom = make_generator("binomial", QQ)
    for _ in range(5):
        binom.query((3, 1))
    assert binom.queries == 1
    binom.query((3, 2))
    assert binom.queries == 2
    with pytest.raises(ValueError):
        binom.query((1, -1))
    with pytest.raises(ValueError):
        binom.query((1, 2, 3))
    # provider work never leaks into the caller's operation counter
    ops = OpCounter()
    with counting(ops):
        make_generator("pow23", QQ).query((8, 8))
    assert ops.multiplications == 0 and ops.additions == 0


def test_provider_arithmetic_is_uncounted_and_an_overrun_restores_the_counters():
    F = FpField(65537)

    def provider(i):
        if i[0] > 3:
            raise BoundExceededError(i, (4, 4))
        x = F.elem(i[0] + 2)
        return x * x + x * x.inverse()  # a multiplication, an addition, an inversion

    oracle = SequenceOracle(2, F, provider)
    outer, inner = OpCounter(), OpCounter()
    with counting(outer), counting(inner):
        assert oracle.query((1, 2)) == F.elem(10)
        assert oracle.query((3, 0)) == F.elem(26)
        assert outer == inner == OpCounter()
        with pytest.raises(BoundExceededError):
            oracle.query((5, 0))
        F.elem(2) * F.elem(3)  # both counters are active again
    assert outer == inner == OpCounter(multiplications=1)
    assert oracle.queries == 3


def test_query_after_the_memo_fills():
    binom = make_generator("binomial", QQ)
    probe = [(i, j) for i in range(4) for j in range(3)]
    first = [binom.query(i) for i in probe]
    assert [binom.query(i) for i in probe] == first  # memo hits
    assert binom.queries == len(probe)  # distinct indices only
    # other spellings of a memoized index read the same value, still counted once
    assert binom.query([2, 1]) == first[probe.index((2, 1))]
    assert binom.query(v for v in (3, 2)) == first[probe.index((3, 2))]
    assert binom.queries == len(probe)
    for bad in [(1, -1), (1, 2, 3), (1,), [1, -1], (v for v in (1, 2, 3))]:
        with pytest.raises(ValueError):
            binom.query(bad)
    assert binom.queries == len(probe)
    binom.query([4, 0])  # a list index that misses, then hits
    binom.query((4, 0))
    assert binom.queries == len(probe) + 1

    t = table_oracle(QQ, (2, 3), [0, 1, 2, 3, 4, 5])
    assert t.query((1, 2)) == t.query((1, 2)) == QQ.elem(5)
    for _ in range(3):
        with pytest.raises(BoundExceededError):
            t.query((2, 0))
    assert t.queries == 2  # the out-of-box index counts once, like any other


def test_concurrent_queries_count_each_index_once():
    # memo hits read _values without the lock while other threads fill it
    binom = make_generator("binomial", QQ)
    probe = [(i, j) for i in range(12) for j in range(12)]
    wrong: list = []

    def worker(shift):
        for k in range(3 * len(probe)):
            i = probe[(k * 7 + shift) % len(probe)]
            if binom.query(i) != QQ.elem(math.comb(*i)):
                wrong.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert binom.queries == len(probe)


def test_bracket_counts_support_queries():
    binom = make_generator("binomial", QQ)
    f = parse_poly("x*y - y - 1", DRL2, QQ)
    assert not bracket(binom, f)
    assert not bracket(binom, f, M("x^2*y"))
    assert bracket(binom, Poly.monomial(QQ, M("1")), M("x^2")) == QQ.one
    assert binom.queries == 7  # {(1,1),(0,1),(0,0)} + its x^2*y shift + (2,0)
    assert not bracket(binom, Poly.zero(QQ))


def _loop_bracket(oracle, f, shift=None):
    """The `FieldElement` sum that `bracket` replaces."""
    acc = None
    for m, c in f.terms.items():
        idx = m if shift is None else tuple(a + b for a, b in zip(m, shift))
        term = c * oracle.query(idx)
        acc = term if acc is None else acc + term
    return acc if acc is not None else f.field.zero


@pytest.mark.parametrize(
    "field",
    [FpField(7), F65537, FpField(2**31 - 1), FpField(2**61 - 1), QQ],
    ids=str,
)
def test_bracket_matches_the_field_element_loop(field):
    rng = random.Random(7)
    oracle = table_oracle(
        field, (6, 6), [rng.randrange(-10**20, 10**20) for _ in range(36)]
    )
    polys = [Poly.zero(field), Poly.monomial(field, M("x*y"), -3)]
    for _ in range(6):
        terms = {
            (rng.randrange(3), rng.randrange(3)): field.elem(rng.randrange(-10**19, 10**19))
            for _ in range(rng.randrange(1, 8))
        }
        polys.append(Poly(field, terms))
    for f in polys:
        for shift in (None, M("1"), M("y"), M("x^2*y^3")):
            got_ops, want_ops = OpCounter(), OpCounter()
            with counting(got_ops):
                got = bracket(oracle, f, shift)
            with counting(want_ops):
                want = _loop_bracket(oracle, f, shift)
            assert got == want and type(got.value) is type(want.value)
            assert got_ops == want_ops
            # a raw term dict gives the same value and counts
            raw_ops = OpCounter()
            with counting(raw_ops):
                raw = bracket(oracle, {m: c.value for m, c in f.terms.items()}, shift)
            assert raw == want and raw_ops == want_ops
            if shift is not None:  # packed codes read through a run's memo
                pk = Packing(DRL2, M("x^8"))
                packed = {pk.pack(m): c.value for m, c in f.terms.items()}
                with counting(packed_ops := OpCounter()):
                    got = bracket(oracle, packed, pk.pack(shift), PackedReads(oracle, pk.unpack))
                assert got == want and packed_ops == want_ops
    assert want_ops == OpCounter(len(f.terms) - 1, len(f.terms), 0)
    with counting(ops := OpCounter()):
        assert bracket(oracle, Poly.zero(field)) == field.zero
    assert ops == OpCounter()


def test_q_bracket_matches_the_fraction_sum():
    # one common denominator for the whole dot product: the same Fraction,
    # the same counts as the FieldElement sum, and bms-linalg's matrix row too
    from seqrel.bms import _disc_matrix_row

    rng = random.Random(11)
    dens = (1, 2, 3, 7, 10**6, 2**40)
    entries = [Fraction(rng.randrange(-50, 51), rng.choice(dens)) for _ in range(36)]
    oracle = table_oracle(QQ, (6, 6), entries)
    polys = [
        Poly.monomial(QQ, M("x*y"), Fraction(-3, 7)),  # a single term
        Poly(QQ, {M("1"): QQ.elem(Fraction(-1, 2**40)), M("y"): QQ.elem(Fraction(5, 6))}),
    ]
    for _ in range(8):
        terms = {
            (rng.randrange(3), rng.randrange(3)): QQ.elem(
                Fraction(rng.randrange(-10**6, 10**6), rng.choice(dens))
            )
            for _ in range(rng.randrange(1, 8))
        }
        polys.append(Poly(QQ, {m: c for m, c in terms.items() if c}))
    # terms that cancel at the origin: [u00·x − u10] = u00·u10 − u10·u00 = 0
    u00, u10 = oracle.query((0, 0)), oracle.query((1, 0))
    polys.append(Poly(QQ, {M("x"): u00, M("1"): -u10}))
    zeros = 0
    for f in polys:
        for shift in (None, M("1"), M("y"), M("x^2*y^3")):
            got_ops, want_ops = OpCounter(), OpCounter()
            with counting(got_ops):
                got = bracket(oracle, f, shift)
            with counting(want_ops):
                want = _loop_bracket(oracle, f, shift)
            assert got == want and type(got.value) is Fraction
            assert got_ops == want_ops == OpCounter(len(f.terms) - 1, len(f.terms), 0)
            zeros += not got
            row_ops = OpCounter()
            pk = Packing(DRL2, M("x^8"))  # every index up to degree 9
            packed = {pk.pack(m): c for m, c in unbox(f).items()}
            reads = PackedReads(oracle, pk.unpack)
            with counting(row_ops):
                row = _disc_matrix_row(oracle, packed, pk.pack(shift or M("1")), reads)
            assert row == want and type(row.value) is Fraction
            assert row_ops == OpCounter(len(f.terms), len(f.terms), 0)
    assert zeros


def _points_oracle(field, points, weights):
    """u_i = Σ_k w_k · Π_j b_kj^{i_j}: the matrix provider on the diagonal
    matrices M_j = diag(b_kj), with ℓ = the weights and v = all ones."""
    diagonal = [[{k: pt[j]} for k, pt in enumerate(points)] for j in range(len(points[0]))]
    return _matrix_oracle(field, diagonal, [w.value for w in weights], [1] * len(points))


def test_q_point_evaluation_matches_the_fraction_formula():
    # integer powers of the integer points, one weight per point
    weights = [QQ.elem(Fraction(a, b)) for a, b in ((1, 1), (-3, 4), (5, 6), (2, 10**6))]
    for ord in (DRL2, DRL3):
        points = [pt[: ord.n] for pt in ((0, 0, 0), (2, -3, 0), (-5, 1, 4), (7, 7, -2))]
        oracle = _points_oracle(QQ, points, weights)
        for i in enumerate_up_to(M("x^4", ord), ord):
            want = sum(
                w.value * math.prod(Fraction(b) ** e for b, e in zip(pt, i))
                for pt, w in zip(points, weights)
            )
            got = oracle.query(i)
            assert got.value == want and type(got.value) is Fraction


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fp_point_evaluation_matches_the_closed_formula(n):
    # the origin and a point with a zero coordinate check 0^0 = 1 and 0^e = 0;
    # shuffled and repeated indices make the prefix memo and the column powers
    # grow out of order
    p = F65537.p
    rng = random.Random(n)
    points = [(0,) * n, (0,) + tuple(rng.randrange(1, p) for _ in range(n - 1))]
    points += [tuple(rng.randrange(p) for _ in range(n)) for _ in range(4)]
    weights = [F65537.elem(rng.randrange(1, p)) for _ in points]
    oracle = _points_oracle(F65537, points, weights)
    indices = list(itertools.product(range(6), repeat=n))
    rng.shuffle(indices)
    for i in indices + indices[::3]:
        want = sum(
            w.value * math.prod(pow(b, e, p) for b, e in zip(pt, i))
            for pt, w in zip(points, weights)
        ) % p
        assert oracle.query(i) == F65537.elem(want)
    assert oracle.queries == len(indices)


def test_bracket_rejects_a_polynomial_over_another_field():
    with pytest.raises(FieldMismatchError):
        bracket(make_generator("binomial", QQ), Poly.monomial(F65537, M("x")))


def test_table_oracle_and_bounds():
    t = table_oracle(QQ, (2, 3), [0, 1, 2, 3, 4, 5])
    assert t.query((1, 2)) == QQ.elem(5)
    assert t.query((0, 1)) == QQ.one
    with pytest.raises(BoundExceededError) as exc:
        t.query((2, 0))
    assert exc.value.needed_shape == (3, 1)
    assert "shape at least" in str(exc.value)
    with pytest.raises(ParseError):
        table_oracle(QQ, (2, 2), [1, 2, 3])


def test_table_json_round_trip():
    data = {
        "dim": 2,
        "field": "Fp:65537",
        "shape": [2, 2],
        "entries": ["3", "1", "4", "1"],
    }
    back = table_from_json(data)
    assert [back.query((i, j)).value for i in range(2) for j in range(2)] == [3, 1, 4, 1]


@pytest.mark.parametrize(
    "shape, count",
    [((-2, -3), 6), ((), 1), ((0, 3), 0), ((2, 0), 0), ((-1, -1), 1), ((2.7, 2), 4), ((True, 4), 4), (("2", "2"), 4)],
)
def test_table_oracle_rejects_degenerate_shapes(shape, count):
    with pytest.raises(ParseError, match="one or more dimensions, each at least 1"):
        table_oracle(QQ, shape, [1] * count)
    with pytest.raises(ParseError, match=f"got shape {re.escape(str(shape))}"):
        table_from_json({"field": "Q", "shape": list(shape), "entries": [3] * count})


_READ_FIELDS = [FpField(p) for p in (65537, 7, 2**31 - 1, 2**61 - 1)] + [QQ]
_READ_IDS = ["65537", "7", "2^31-1", "2^61-1", "Q"]


def _random_table(field, shape, seed):
    """A maker of fresh tables, all of the same random entries."""
    rng = random.Random(seed)
    if isinstance(field, FpField):
        entries = [rng.randrange(field.p) for _ in range(math.prod(shape))]
    else:
        entries = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(math.prod(shape))]
    return lambda: table_oracle(field, shape, entries)


def _per_index(oracle, indices):
    """`SequenceOracle.read`'s default: one `query` per index."""
    return SequenceOracle.read(oracle, indices)


@pytest.mark.parametrize("field", _READ_FIELDS, ids=_READ_IDS)
def test_table_read_equals_one_query_per_index(field):
    rng = random.Random(str(field))
    for trial in range(20):
        shape = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        fresh = _random_table(field, shape, trial)
        box = list(itertools.product(*map(range, shape)))
        picked = rng.sample(box, rng.randint(1, len(box)))
        for dtype in (np.int64, object):
            indices = np.array(picked, dtype=dtype).reshape(len(picked), len(shape))
            table, looped = fresh(), fresh()
            got, want = table.read(indices), _per_index(looped, indices)
            assert list(got) == want and all(type(v) is type(w) for v, w in zip(np.asarray(got).tolist(), want))
            assert (table.queries, table._queried) == (looped.queries, looped._queried) == (len(picked), set(picked))
            assert table._values == {}  # the block read memoizes nothing
            # a later query boxes the same value and counts nothing new
            assert [table.query(i) for i in picked] == [looped.query(i) for i in picked]
            assert table.queries == len(picked)


def test_table_read_of_indices_of_another_width_raises_as_a_query_does():
    fresh = _random_table(F65537, (3, 4), 2)
    for picked in ([(0, 1, 2)], [(1,), (2,)], [(0, 0, 0), (1, 1, 1)]):
        indices = np.array(picked, dtype=np.int64)
        errors = []
        for read in (type(fresh()).read, _per_index):
            table = fresh()
            with pytest.raises(ValueError) as exc:
                read(table, indices)
            errors.append((str(exc.value), table.queries))
        assert errors[0] == errors[1] == (f"bad index {picked[0]} for a 2-dimensional sequence", 0)


def _read_error(read, oracle, indices):
    with pytest.raises(BoundExceededError) as exc:
        read(oracle, indices)
    return exc.value.index, exc.value.needed_shape, exc.value.shape, oracle.queries, oracle._queried


@pytest.mark.parametrize("field", _READ_FIELDS, ids=_READ_IDS)
def test_table_read_outside_the_table_raises_as_the_queries_do(field):
    fresh = _random_table(field, (3, 4), 1)
    inside = [(0, 0), (2, 3), (1, 2), (0, 3)]
    for bad in [(3, 0), (0, 4), (5, 9), (2**31, 2**31), (2**70, 0)]:
        for at in range(len(inside) + 1):
            picked = inside[:at] + [bad] + inside[at:]
            dtype = object if max(bad) >= 2**63 or at % 2 else np.int64
            indices = np.array(picked, dtype=dtype)
            got = _read_error(type(fresh()).read, fresh(), indices)
            want = _read_error(_per_index, fresh(), indices)
            assert got == want
            assert got[0] == bad and got[3] == at + 1 and got[4] == set(picked[: at + 1])


def test_from_ideal_reproduces_pow23():
    gb = [parse_poly("y - 3", DRL2, QQ), parse_poly("x^2 - 4*x + 4", DRL2, QQ)]
    oracle = IdealSequences(gb, DRL2).oracle({M("1"): QQ.one, M("x"): QQ.elem(4)})
    ref = make_generator("pow23", QQ)
    for i in range(5):
        for j in range(5):
            assert oracle.query((i, j)) == ref.query((i, j)), (i, j)


def test_from_ideal_reproduces_kron():
    gb = [parse_poly("y^2", DRL2, QQ), parse_poly("x^2", DRL2, QQ)]
    initial = {M("1"): QQ.zero, M("y"): QQ.zero, M("x"): QQ.zero, M("x*y"): QQ.one}
    oracle = IdealSequences(gb, DRL2).oracle(initial)
    ref = make_generator("kron", QQ)
    for i in range(4):
        for j in range(4):
            assert oracle.query((i, j)) == ref.query((i, j))


def test_from_ideal_trivial_and_errors():
    one = IdealSequences([Poly.monomial(QQ, M("1"))], DRL2).oracle({})
    assert one.query((3, 2)) == QQ.zero
    with pytest.raises(PositiveDimensionError):
        IdealSequences([parse_poly("y", DRL2, QQ)], DRL2).oracle({})
    with pytest.raises(SeqrelError):
        IdealSequences([parse_poly("y", DRL2, QQ), parse_poly("x", DRL2, QQ)], DRL2).oracle({})


def test_from_ideal_fib4_section():
    # u_{i,j,k} = F_{4i+k}: recurrences z^2-z-1, y-1, x-3z-2
    gb = [
        parse_poly("y - 1", DRL3, QQ),
        parse_poly("x - 3*z - 2", DRL3, QQ),
        parse_poly("z^2 - z - 1", DRL3, QQ),
    ]
    initial = {M("1", DRL3): QQ.zero, M("z", DRL3): QQ.one}
    oracle = IdealSequences(gb, DRL3).oracle(initial)
    ref = make_generator("fib4", QQ)
    for i in range(3):
        for j in range(3):
            for k in range(4):
                assert oracle.query((i, j, k)) == ref.query((i, j, k))


def _check_q_values(oracle, gb, ord, initial, window) -> list:
    """Each u_i over the window against ℓ(NF(x^i)) as a Fraction, the normal
    form taken directly by reduction: equal, and a raw int exactly where it
    is integral.  Returns the values."""
    rules = sorted(((g.lm(ord), unbox(g)) for g in gb), key=lambda r: ord.key(r[0]))
    find = lambda t: next((r for r in rules if all(map(le, r[0], t))), None)
    values = []
    for i in itertools.product(range(window), repeat=ord.n):
        with counting_paused():
            nf = _raw_normal_form({i: Fraction(1)}, find, ord, QQ)
        want = sum((c * Fraction(initial[m]) for m, c in nf.items()), Fraction(0))
        got = oracle.query(i).value
        assert got == want and type(got) is (int if want.denominator == 1 else Fraction), i
        values.append(got)
    return values


def test_from_ideal_over_q_with_fractional_coefficients():
    gb = [parse_poly(t, DRL2, QQ) for t in ("y^2 - 1/3*x - 2/5", "x^3 - 1/7*x*y - 3/2*y")]
    stair = staircase_of(gb, DRL2)
    initial = {s: Fraction((-1) ** k * (k + 2), 2 * k + 3) for k, s in enumerate(stair)}
    oracle = IdealSequences(gb, DRL2).oracle({s: QQ.elem(v) for s, v in initial.items()})
    values = _check_q_values(oracle, gb, DRL2, initial, 9)
    assert any(v.denominator > 10**6 for v in values)


def test_the_q_matrix_oracle_gives_an_int_exactly_for_an_integral_value():
    # an integral basis with half-integral initial values: both kinds occur
    gb = [parse_poly(t, DRL2, QQ) for t in ("y - 3", "x^2 - 4*x + 4")]
    initial = {M("1"): Fraction(1, 2), M("x"): Fraction(1)}
    oracle = IdealSequences(gb, DRL2).oracle({s: QQ.elem(v) for s, v in initial.items()})
    kinds = {type(v) for v in _check_q_values(oracle, gb, DRL2, initial, 6)}
    assert kinds == {int, Fraction}
    # a benchmark family instance: an integral basis, and initial values
    # ℓ(s) = u_s that are integers
    oracle, gb, _ = make_family(FamilySpec("lshape", 3, 2, seed=1001), QQ)
    ord = family_order(2)
    initial = {s: oracle.query(s).value for s in staircase_of(gb, ord)}
    assert {type(v) for v in _check_q_values(oracle, gb, ord, initial, 7)} == {int}


def test_ideal_sequences_build_the_matrices_once_for_every_initial_value_set():
    ideal = IdealSequences([parse_poly(t, DRL2, F65537) for t in ("y^2 - 1", "x - y")], DRL2)
    draws = [ideal.random_initial(random.Random(seed)) for seed in range(3)]
    first = ideal.oracle(draws[0])
    mats = ideal._matrices
    for initial in draws:
        oracle = ideal.oracle(initial)
        ref = IdealSequences(ideal.gb, DRL2).oracle(initial)
        assert [oracle.query(i) for i in itertools.product(range(4), repeat=2)] == [
            ref.query(i) for i in itertools.product(range(4), repeat=2)
        ]
    assert ideal._matrices is mats and first.query((0, 0)) == draws[0][M("1")]
    # the commuting check runs with the first oracle, and fails on each call
    bad = IdealSequences([parse_poly(t, DRL2, F65537) for t in ("x^2 - y", "y^2 - 1", "x*y - x")], DRL2)
    for _ in range(2):
        with pytest.raises(NotGroebnerError):
            bad.oracle(bad.random_initial(random.Random(0)))
    with pytest.raises(PositiveDimensionError, match=r"the ideal <x\*y - y> is positive-dimensional"):
        IdealSequences([parse_poly("x*y - y", DRL2, QQ)], DRL2)


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_from_ideal_accepts_exactly_the_groebner_bases(field):
    # two sets that are not Gröbner bases: the first generates <y - 1, x^2 - 1>
    # with a staircase of 2, not 3; the second generates the unit ideal
    def oracle(text):
        gb = inter_reduce([parse_poly(t, DRL2, field) for t in text.split(",")], DRL2)
        return IdealSequences(gb, DRL2).oracle({s: field.one for s in staircase_of(gb, DRL2)})

    for text in ("x^2 - y, y^2 - 1, x*y - x", "x^2 - y - 1, y^2 - x, x*y"):
        with pytest.raises(NotGroebnerError, match="not a Gröbner basis"):
            oracle(text)
    pm = oracle("y - 1, x^2 - 1")  # u_{i,j} = 1 for all i, j
    assert {pm.query(i) for i in itertools.product(range(5), repeat=2)} == {field.one}
    corner = oracle("x^2, y^2")  # the Kronecker delta at each staircase monomial
    assert [corner.query(i) for i in ((1, 1), (0, 0), (2, 0), (1, 2))] == [field.one] * 2 + [field.zero] * 2


def test_random_from_lms_needs_the_minimal_leading_monomials():
    with pytest.raises(SeqrelError, match="not the minimal ones"):
        random_from_lms([(0, 2), (0, 3), (3, 0)], DRL2, F65537, seed=0)


def _check_instance(lms, ord, oracle, gb, shifts):
    assert sorted(g.lm(ord) for g in gb) == sorted(lms)
    stair = set()
    for g in gb:
        assert g.lc(ord) == oracle.field.one
        for m in g.terms:
            if m != g.lm(ord):
                stair.add(m)
    for g in gb:
        assert g.lm(ord) not in stair  # reduced: no LM divides another's tail
        for s in shifts:
            assert not bracket(oracle, g, s), (g, s)


def test_random_from_lms_gives_up_after_its_draws():
    # the simplex of degree 4 has 10 staircase monomials, and F_7 too few
    # nonzero coordinates for distinct points on it: every draw fails
    lms = [M("y^4"), M("x*y^3"), M("x^2*y^2"), M("x^3*y"), M("x^4")]
    with pytest.raises(SeqrelError, match="in 32 draws"):
        random_from_lms(lms, DRL2, FpField(7), seed=0)


def test_random_rectangle_instances():
    lms = [M("y^2"), M("x^4")]
    oracle, gb = random_from_lms(lms, DRL2, F65537, seed=7)
    assert oracle.queries == 0
    from seqrel.poly import staircase_of

    assert len(staircase_of(gb, DRL2)) == 8
    _check_instance(lms, DRL2, oracle, gb, enumerate_up_to(M("x^4"), DRL2))


def test_random_lshape_instances():
    lms = [M("x*y"), M("y^7"), M("x^7")]
    oracle, gb = random_from_lms(lms, DRL2, F65537, seed=11)
    from seqrel.poly import staircase_of

    assert len(staircase_of(gb, DRL2)) == 13
    _check_instance(lms, DRL2, oracle, gb, enumerate_up_to(M("x^5"), DRL2))


def test_random_simplex_instances():
    lms = [M("y^4"), M("x*y^3"), M("x^2*y^2"), M("x^3*y"), M("x^4")]
    oracle, gb = random_from_lms(lms, DRL2, F65537, seed=3)
    from seqrel.poly import staircase_of

    assert len(staircase_of(gb, DRL2)) == 10
    _check_instance(lms, DRL2, oracle, gb, enumerate_up_to(M("x^5"), DRL2))


def test_random_rectangle_3d():
    lms = [M("z^2", DRL3), M("y^2", DRL3), M("x^5", DRL3)]
    oracle, gb = random_from_lms(lms, DRL3, F65537, seed=1)
    from seqrel.poly import staircase_of

    assert len(staircase_of(gb, DRL3)) == 20
    _check_instance(lms, DRL3, oracle, gb, enumerate_up_to(M("x^3", DRL3), DRL3))


def test_random_from_lms_is_deterministic():
    lms = [M("x*y"), M("y^5"), M("x^5")]
    a_oracle, a_gb = random_from_lms(lms, DRL2, F65537, seed=42)
    b_oracle, b_gb = random_from_lms(lms, DRL2, F65537, seed=42)
    assert a_gb == b_gb
    probe = [(i, j) for i in range(6) for j in range(6)]
    assert [a_oracle.query(i) for i in probe] == [b_oracle.query(i) for i in probe]
    c_oracle, c_gb = random_from_lms(lms, DRL2, F65537, seed=43)
    assert any(
        a_oracle.query(i) != c_oracle.query(i) for i in probe
    ) or a_gb != c_gb


def test_family_instances_match_the_full_elimination_check(monkeypatch):
    # where _random_instance returns a basis, a draw is accepted by testing
    # H_{S,S} for full rank; the full elimination must accept the same draws
    from seqrel import sequences
    from seqrel.compare import FamilySpec, make_family

    def draw_all():
        out = []
        for field in (QQ, F65537):
            for n, d, seed in [(2, 3, 1), (2, 5, 2), (3, 2, 3), (2, 4, 1004)]:
                oracle, gb, size = make_family(FamilySpec("rectangle", d, n, seed), field)
                probe = list(enumerate_up_to((2 * d,) + (0,) * (n - 1), DRL2 if n == 2 else DRL3))
                out.append(([oracle.query(i) for i in probe], gb, size))
        # over F_7 these draws reseed after a singular H_{S,S}: pure powers
        # (seeds 3, 4) and the general fallback (x*y, y^2, x^3, seed 1)
        for lms, seed in [([(0, 2), (3, 0)], 3), ([(0, 2), (3, 0)], 4), ([(0, 2), (1, 1), (3, 0)], 1)]:
            oracle, gb = random_from_lms(lms, DRL2, FpField(7), seed)
            out.append(([oracle.query(i) for i in enumerate_up_to(M("x^5"), DRL2)], gb))
        return out

    fast = draw_all()
    monkeypatch.setattr(
        sequences,
        "_nonsingular",
        lambda oracle, S, ord: sequences._gb_from_profile(oracle, S, ord) is not None,
    )
    assert draw_all() == fast


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=4),
)
def test_random_rectangle_property(seed, a, b):
    lms = [(0, a), (b, 0)]
    oracle, gb = random_from_lms(lms, DRL2, F65537, seed=seed)
    assert sorted(g.lm(DRL2) for g in gb) == sorted(lms)
    for g in gb:
        for s in enumerate_up_to(M("x^3"), DRL2):
            assert not bracket(oracle, g, s)
