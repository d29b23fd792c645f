from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel import hankel
from seqrel.compare import verify_result
from seqrel.errors import BoundExceededError
from seqrel.field import (
    OpCounter,
    QQ,
    FieldElement,
    FpField,
    count_invs,
    count_mults,
    counting,
    counting_paused,
)
from seqrel.hankel import (
    MultiHankelMatrix,
    build,
    column_rank_profile,
    factor,
    solve_relation,
    solve_tails,
)
from seqrel.monomials import enumerate_up_to, mul as mono_mul, parse_monomial, parse_order
from seqrel.poly import Poly, parse_poly
from seqrel.result import Result, result_to_json
from seqrel.sequences import SequenceOracle, make_generator, random_from_lms, table_oracle
from seqrel.sfglm import run_sfglm, run_sfglm_tweaked

DRL2 = parse_order("drl(y<x)")
F65537 = FpField(65537)


def M(text: str, ord=DRL2):
    return parse_monomial(text, ord)


def S2(ord=DRL2):
    return enumerate_up_to(M("x^2", ord), ord)  # 1, y, x, y^2, x*y, x^2


def raw(entries) -> list[list]:
    return [[e.value for e in row] for row in entries]


def boxed(field, rows) -> list[list[FieldElement]]:
    return [[FieldElement(field, v) for v in row] for row in rows]


def matrix(field, rows, cols, values) -> MultiHankelMatrix:
    """A hand-made H_{rows,cols} holding the raw `values`."""
    return MultiHankelMatrix(field, rows, cols, hankel._array(values, field, (len(rows), len(cols))))


def test_build_goldens():
    H = build(make_generator("binomial", QQ), S2(), S2(), DRL2)
    assert [str(v) for v in H.array.tolist()[0]] == ["1", "0", "1", "0", "1", "1"]
    assert H.shape == (6, 6)
    Hp = build(make_generator("pow23", QQ), S2(), S2(), DRL2)
    entries = Hp.array.tolist()
    assert [str(v) for v in entries[0]] == ["1", "3", "4", "9", "12", "12"]
    # entry depends only on the exponent sum of the two labels
    assert entries[1][2] == entries[2][1]  # y*x vs x*y
    assert entries[3][5] == entries[5][3]  # y^2*x^2 both ways


def test_profile_goldens():
    cases = [
        ("binomial", ["1", "y", "x", "y^2", "x^2"]),
        ("pow23", ["1", "x"]),
        ("kron", ["1", "y", "x", "x*y"]),
    ]
    for name, want in cases:
        H = build(make_generator(name, F65537), S2(), S2(), DRL2)
        r, profile = column_rank_profile(H)
        assert r == len(want), name
        assert profile == [M(t) for t in want], name
        assert column_rank_profile(H)[0] == r


def test_profile_step_and_sq():
    T = [M("1"), M("y"), M("x"), M("y^2")]
    H = build(make_generator("step", F65537), T, T, DRL2)
    assert H.array.tolist() == [[0, 1, 1, 2], [1, 2, 2, 3], [1, 2, 4, 3], [2, 3, 3, 4]]
    r, profile = column_rank_profile(H)
    assert (r, profile) == (3, [M("1"), M("y"), M("x")])
    T3 = enumerate_up_to(M("x^3"), DRL2)
    Hq = build(make_generator("sq", QQ), T3, T3, DRL2)
    rq, profq = column_rank_profile(Hq)
    assert (rq, profq) == (4, [M("1"), M("y"), M("x"), M("y^2")])


def test_kernels_agree_on_both_fields():
    # the word-size prime kernel and the integer-row kernel see the same
    # profile whenever the integer entries are small enough not to wrap
    for name in ("binomial", "pow23", "kron", "step", "sq"):
        Hq = build(make_generator(name, QQ), S2(), S2(), DRL2)
        Hp = build(make_generator(name, F65537), S2(), S2(), DRL2)
        assert column_rank_profile(Hq)[1] == column_rank_profile(Hp)[1], name


def _square_solve(oracle, S, t, ord=DRL2):
    """`solve_relation` of t as sfglm-tweaked runs it: on H_{P,P}, P the
    column rank profile of the symmetric H_{S,S}, so H_{P,P} is nonsingular."""
    H = build(oracle, S, S, ord)
    return solve_relation(oracle, t, factor(H, column_rank_profile(H)[1], ord))


def test_solve_relation_goldens():
    pow23 = make_generator("pow23", QQ)
    S = [M("1"), M("x")]
    assert _square_solve(pow23, S, M("x^2")) == parse_poly("x^2 - 4*x + 4", DRL2, QQ)
    assert _square_solve(pow23, S, M("y")) == parse_poly("y - 3", DRL2, QQ)


def test_solve_relation_reports_first_failing_shift():
    # the rectangular reference solve names the first row its relation
    # fails on; the square subsystem alone is consistent, and solve_relation
    # on it gives the same relation
    step = make_generator("step", QQ)
    S = [M("1"), M("y"), M("x")]
    rows = [M("1"), M("y"), M("x"), M("y^2")]
    rel, failure = _ref_solve_relation(step, S, rows, M("x^2"), DRL2)
    assert failure == (M("y^2"), QQ.one)
    golden = parse_poly("x^2 - 2*x - 2*y + 3", DRL2, QQ)
    assert rel == golden
    assert _ref_solve_relation(step, S, S, M("x^2"), DRL2) == (golden, None)
    assert _square_solve(step, S, M("x^2")) == golden


def _counted(fn):
    ops = OpCounter()
    with counting(ops):
        out = fn()
    return out, ops


# ---------------------------------------------------------------------------
# reference loops: the eliminations the count conventions come from, kept as
# they ran before every field shared one kernel.  All but the sweep run on
# counted FieldElements, so their counts come from the field dunders.


def _ref_uniform_sweep(entries, field):
    """Column sweep mod p, on int64 below 2^31 and on Python ints above,
    every column paying the update block below its pivot row; returns the
    pivot columns."""
    p = field.p
    nrows, ncols = len(entries), len(entries[0]) if entries else 0
    A = np.array(entries, dtype=np.int64 if p < 2**31 else object)
    A = A.reshape(nrows, ncols)
    r = 0
    pivots = []
    for c in range(ncols):
        if r >= nrows:
            break
        col = A[r:, c]
        nz = np.flatnonzero(col)
        if nz.size:
            i = r + int(nz[0])
            if i != r:
                A[[r, i]] = A[[i, r]]
            inv = pow(int(A[r, c]), -1, p)
            count_invs(1)
            A[r, c:] = A[r, c:] * inv % p
            count_mults(ncols - c)
            pivots.append(c)
        factor = A[r + 1 :, c].copy()
        A[r + 1 :, c:] = (A[r + 1 :, c:] - np.outer(factor, A[r, c:])) % p
        count_mults((nrows - r - 1) * (ncols - c))
        if nz.size:
            r += 1
    return pivots


def _ref_bareiss_profile(entries, field):
    """Fraction-free elimination; dependent columns are skipped outright."""
    m = [list(row) for row in entries]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    pivots = []
    prev = field.one
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) / prev
            m[i][c] = field.zero
        prev = m[r][c]
        pivots.append(c)
        r += 1
    return pivots


def _ref_profile(H):
    """column_rank_profile by the loop whose counts its field keeps."""
    if isinstance(H.field, FpField):
        pivots = _ref_uniform_sweep(H.array.tolist(), H.field)
    else:
        pivots = _ref_bareiss_profile(boxed(H.field, H.array.tolist()), H.field)
    return len(pivots), [H.col_labels[c] for c in pivots]


def _ref_gauss_jordan(entries, field, limit=None):
    """The dividing loop: the rows, the pivots and, per pivot, the rows it
    cleared below it."""
    nrows = len(entries)
    ncols = len(entries[0]) if entries else 0
    rows = [list(r) for r in entries]
    pivots, below = [], []
    r = 0
    for c in range(ncols if limit is None else limit):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        cleared = [i for i in range(nrows) if i != r and rows[i][c]]
        for i in cleared:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r], strict=True)]
        pivots.append(c)
        below.append(sum(i > r for i in cleared))
        r += 1
    return rows, pivots, below


def _ref_rref(entries, field):
    """`MultiHankelMatrix.rref` from the dividing loop: the pivot rows, raw,
    and the pivot columns."""
    rows, pivots, _ = _ref_gauss_jordan(entries, field)
    return raw(rows[: len(pivots)]), pivots


def _cached_rref(values, field):
    """The cached reduced form of a hand-made matrix of the raw `values`,
    whose labels no kernel reads."""
    nrows, ncols = len(values), len(values[0]) if len(values) else 0
    return matrix(field, [(i,) for i in range(nrows)], [(j,) for j in range(ncols)], values).rref


def _ref_solve(A, b, ncols, field):
    """Forward elimination, back substitution with free variables zero, then a
    check of every row: (α, None), or (α, (first failing row, its residual))."""
    aug = [row[:] + [rhs] for row, rhs in zip(A, b, strict=True)]
    piv_rows = []  # (row, col)
    r = 0
    for c in range(ncols):
        if r >= len(aug):
            break
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(r + 1, len(aug)):
            if aug[i][c]:
                f = aug[i][c] / aug[r][c]
                aug[i] = (
                    aug[i][:c]
                    + [field.zero]
                    + [a - f * bb for a, bb in zip(aug[i][c + 1 :], aug[r][c + 1 :], strict=True)]
                )
        piv_rows.append((r, c))
        r += 1
    alpha = [field.zero] * ncols
    for row, col in reversed(piv_rows):
        acc = aug[row][ncols]
        for j in range(col + 1, ncols):
            if alpha[j]:
                acc = acc - aug[row][j] * alpha[j]
        alpha[col] = acc / aug[row][col]
    for i, (arow, rhs) in enumerate(zip(A, b, strict=True)):
        acc = -rhs  # = H_{row,t}
        for a, x in zip(arow, alpha, strict=True):
            if x:
                acc = acc + a * x
        if acc:
            return alpha, (i, acc)
    return alpha, None


def _ref_solve_relation(oracle, S, rows, t, ord):
    """The rectangular solve H_{rows,S}·α = −H_{rows,t}, read cell by cell:
    (t + Σ α_s·s, None), or (that relation, (first failing row, its
    residual))."""
    field = oracle.field
    S_sorted, rows_sorted = ord.sort(S), ord.sort(rows)
    A = [[oracle.query(mono_mul(r, s)) for s in S_sorted] for r in rows_sorted]
    b = [-oracle.query(mono_mul(r, t)) for r in rows_sorted]
    alpha, failure = _ref_solve(A, b, len(S_sorted), field)
    terms = {t: field.one}
    terms.update((s, x) for s, x in zip(S_sorted, alpha, strict=True) if x)
    return Poly(field, terms), failure and (rows_sorted[failure[0]], failure[1])


# Q runs the kernel on Python-int rows, every prime on a numpy array:
# p = 2^31 - 1 is the largest prime on int64, where products of two residues
# come within a factor 2 of the int64 range, so the kernel reduces its
# trailing block after every second update (at 7 and 65537 only once, at the
# end), and p = 2^61 - 1 runs on Python ints, reduced after every update
_FIELDS = [
    pytest.param(QQ, id="Q"),
    pytest.param(FpField(7), id="7"),
    pytest.param(FpField(65537), id="65537"),
    pytest.param(FpField(2**31 - 1), id="2147483647"),
    pytest.param(FpField(2**61 - 1), id="2305843009213693951"),
]


def _draw(rng, field, max_den=3):
    if isinstance(field, FpField):
        return field.elem(rng.randrange(field.p))
    return field.elem(Fraction(rng.randrange(-9, 10), rng.randrange(1, max_den + 1)))


def _random_entries(rng, field, nrows, ncols, rank, zeros):
    """A nrows x ncols matrix of rank at most `rank`, sparse with `zeros`."""

    def draw():
        return field.zero if rng.random() < zeros else _draw(rng, field)

    if rank == 0:
        return [[field.zero] * ncols for _ in range(nrows)]
    left = [[draw() for _ in range(rank)] for _ in range(nrows)]
    right = [[draw() for _ in range(ncols)] for _ in range(rank)]
    with counting_paused():
        return [
            [sum((a * b for a, b in zip(row, col)), field.zero) for col in zip(*right)]
            for row in left
        ]


def test_uniform_sweep_op_counts():
    # identity 3x3: every column pivots; the uniform schedule still pays the
    # full update block each column
    field = FpField(7)
    labels = [M("1"), M("y"), M("x")]
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    H = matrix(field, labels, labels, eye)
    ops = OpCounter()
    with counting(ops):
        r, _ = column_rank_profile(H)
    assert r == 3
    assert ops.multiplications == (3 + 6) + (2 + 2) + (1 + 0)
    assert ops.inversions == 3
    # rank-deficient columns keep paying: a zero matrix never pivots but the
    # (nrows-1)*(ncols-c) update runs per column
    zero = [[0] * 3 for _ in range(3)]
    Hz = matrix(field, labels, labels, zero)
    ops = OpCounter()
    with counting(ops):
        rz, prof = column_rank_profile(Hz)
    assert (rz, prof) == (0, [])
    assert ops.multiplications == 2 * (3 + 2 + 1)
    assert ops.inversions == 0


@pytest.mark.parametrize(
    "field, want",
    [
        # over Q, fraction-free Bareiss on the full rank 3x3: the first pivot
        # updates the 2x2 block below and right of it, the second the last
        # cell, the third nothing: 5 cells
        pytest.param(QQ, OpCounter(additions=5, multiplications=15, inversions=5), id="Q"),
        # a prime above 2^31 pays the uniform sweep of every prime: column c
        # below r pivots (2 − r)·(3 − c), its pivot 1 inversion and 3 − c more
        pytest.param(
            FpField(2**61 - 1),
            OpCounter(additions=0, multiplications=(6 + 3) + (2 + 2) + (0 + 1), inversions=3),
            id="2305843009213693951",
        ),
    ],
)
def test_bareiss_op_counts(field, want):
    labels = [M("1"), M("y"), M("x")]
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    H = matrix(field, labels, labels, [[field.elem(v).value for v in r] for r in rows])
    (r, _), ops = _counted(lambda: column_rank_profile(H))
    assert r == 3
    assert ops == want


@pytest.mark.parametrize("field", _FIELDS)
def test_profile_matches_reference_loops(field):
    rng = random.Random(str(field))
    T3 = enumerate_up_to(M("x^3"), DRL2)
    for trial in range(24):
        nrows, ncols = rng.choice([(1, 1), (3, 3), (4, 6), (6, 4), (10, 10)])
        rank = rng.randint(0, min(nrows, ncols))
        entries = _random_entries(rng, field, nrows, ncols, rank, rng.choice((0.0, 0.5)))
        H = matrix(field, T3[:nrows], T3[:ncols], raw(entries))
        got, want = _counted(lambda: column_rank_profile(H)), _counted(lambda: _ref_profile(H))
        assert got == want, (nrows, ncols, rank)
        with counting_paused():
            assert got[0][1] == [H.col_labels[c] for c in _ref_bareiss_profile(entries, field)]


@pytest.mark.parametrize("field", [FpField(7), QQ], ids=["7", "Q"])
def test_cached_rref_rows_and_pivots(field):
    # the reduced form is computed once, uncounted: the profile and the tails
    # charge for it
    def rref(rows):
        H = matrix(field, S2()[:3], S2()[:3], [[field.elem(v).value for v in row] for row in rows])
        (R, pivots), ops = _counted(lambda: H.rref)
        assert ops == OpCounter() and H.rref is H.rref
        return R, pivots

    # col 0: scale row 0, clear row 1; col 1: swap rows 1 and 2, scale,
    # clear row 0; col 2: scale, clear rows 0 and 1
    assert rref([[2, 4, 1], [1, 2, 3], [0, 1, 1]]) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])
    # rank 2: column 1 has no pivot; col 2 clears row 0 only
    R, pivots = rref([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
    assert (R, pivots) == ([[1, 2, 0], [0, 0, 1]], [0, 2])  # no zero row


@pytest.mark.parametrize("field", _FIELDS)
def test_rref_fast_path_matches_scalar_loop(field):
    rng = random.Random(str(field))
    shapes = [(1, 1), (1, 4), (4, 1), (3, 3), (4, 6), (6, 4), (6, 6)]
    for trial in range(12):
        for nrows, ncols in shapes:
            rank = rng.randint(0, min(nrows, ncols))
            entries = _random_entries(rng, field, nrows, ncols, rank, rng.choice((0.0, 0.5)))
            with counting_paused():
                want = _ref_rref(entries, field)
            assert _cached_rref(raw(entries), field) == want, (nrows, ncols, rank, entries)


def test_solve_tails_charge_a_back_substitution():
    # over F_7, k = |S| = 2 and two candidates: each tail is a unit upper
    # triangular 2x2 solve, 2·1/2 multiplications and as many additions,
    # plus 1 addition per nonzero tail coefficient for its negation; no
    # inversion, and the reduced form itself is uncounted
    field = FpField(7)
    S, cands = [M("1"), M("y")], [M("x"), M("y^2")]
    # columns x = 2·(column 1) + 3·(column y) and y^2 = 5·(column 1) + (column y)
    H = matrix(field, S, S + cands, [[1, 2, 1, 0], [2, 1, 0, 4]])
    tails, ops = _counted(lambda: solve_tails(H, S, cands))
    assert tails == {
        M("x"): parse_poly("x + 4*y + 5", DRL2, field),
        M("y^2"): parse_poly("y^2 + 6*y + 2", DRL2, field),
    }
    assert ops == OpCounter(additions=2 * 1 + 4, multiplications=2 * 1, inversions=0)


# ---------------------------------------------------------------------------
# the int64 kernel's delayed reduction: its trailing block takes
# ⌊(2^63 − 1 − p)/(p − 1)²⌋ updates between reductions, about 2^31 at
# p = 65537 (none fires before the last), 8 at 2^30 − 35 and 2 at 2^31 − 1


def _worst_case(p: int, n: int, rank: int) -> np.ndarray:
    """L·U mod p, L (n × rank) unit lower and U (rank × n) unit upper
    triangular with p − 1 off the diagonal: the forward pass takes its pivots
    in order, each multiplier p − 1 and each pivot row 1, p − 1, ..., p − 1,
    so every update subtracts (p − 1)² from every entry of its block."""
    L = np.tril(np.full((n, rank), p - 1, dtype=object), -1) + np.eye(n, rank, dtype=object)
    U = np.triu(np.full((rank, n), p - 1, dtype=object), 1) + np.eye(rank, n, dtype=object)
    return (L.dot(U) % p).astype(np.int64)


def _headroom_matrices(p: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(p)
    low = rng.integers(p, size=(n, 12)).astype(object).dot(rng.integers(p, size=(12, n))) % p
    sparse = rng.integers(p, size=(n, n)) * (rng.random((n, n)) < 0.2)
    return [
        _worst_case(p, n, n),
        _worst_case(p, n, n // 3),
        np.full((n, n), p - 1, dtype=np.int64),  # rank 1
        np.full((n, n), p - 1, dtype=np.int64) - np.eye(n, dtype=np.int64) * (p - 2),  # full rank
        rng.integers(p, size=(n, n)),
        low.astype(np.int64),
        sparse,
        rng.integers(p, size=(n // 2, n)),
        rng.integers(p, size=(n, n // 2)),
    ]


@pytest.mark.parametrize("p", [65537, 2**30 - 35, 2**31 - 1])
def test_delayed_reduction_matches_the_kernel_on_python_ints(p):
    # the same kernel on Python ints cannot overflow: every pass, with and
    # without a `limit` (`factor`'s [H | I]), gives the same report and the
    # same reduced array
    for A in _headroom_matrices(p, 60):
        m = A.shape[0]
        for B, limit in ((A, None), (np.hstack([A, np.eye(m, dtype=np.int64)]), A.shape[1])):
            for upward in (False, True):
                got, want = B.copy(), B.astype(object)
                report = hankel._np_eliminate(got, p, limit, upward)
                assert report == hankel._np_eliminate(want, p, limit, upward), (A.shape, limit, upward)
                assert got.dtype == np.int64 and got.tolist() == want.tolist(), (A.shape, limit, upward)


@pytest.mark.parametrize("p", [65537, 2**31 - 1])
def test_delayed_reduction_matches_the_reference_loops(p):
    field = FpField(p)
    for A in _headroom_matrices(p, 30)[:4]:
        values = A.tolist()
        entries = boxed(field, values)
        assert hankel._pivot_columns(A, A.shape[1], field) == _ref_uniform_sweep(values, field)
        assert _cached_rref(A, field) == _ref_rref(entries, field)
        # factor's [H | I]
        m = A.shape[0]
        ident = [[int(i == j) for j in range(m)] for i in range(m)]
        aug = [row + e for row, e in zip(values, ident, strict=True)]
        R, pivots, below = hankel._gauss_jordan(aug, 2 * m, field, limit=m)
        ref_rows, *ref_report = _ref_gauss_jordan(boxed(field, aug), field, limit=m)
        assert [pivots, below] == ref_report
        assert R == raw(ref_rows[: len(pivots)])


# ---------------------------------------------------------------------------
# the Python-int row backend (Q) and the numpy kernel on Python-int residues
# (p >= 2^31) against the dividing loop

_BIG = FpField(2**61 - 1)


def _fractions(max_den: int = 10**6):
    return st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, max_den))


@st.composite
def _matrices(draw, nrows=st.integers(0, 6), ncols=st.integers(1, 8), zeros=0.3):
    """Fractions with denominators up to 10^6: some rows combinations of
    earlier ones, some rows and some columns all zero."""
    m, n = draw(nrows), draw(ncols)
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [
        [Fraction(0) if rng.random() < zeros else draw(_fractions()) for _ in range(n)]
        for _ in range(m)
    ]
    for i in range(1, m):
        kind = draw(st.sampled_from(["free", "free", "combination", "zero"]))
        if kind == "combination":
            a, b = draw(_fractions()), draw(_fractions())
            j, k = rng.randrange(i), rng.randrange(i)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k], strict=True)]
        elif kind == "zero":
            rows[i] = [Fraction(0)] * n
    for c in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    return rows, n


def _check_kernel(rows, ncols, field, limit=None):
    """`_gauss_jordan`, `_pivot_columns` and the cached reduced form against
    `_ref_gauss_jordan`."""
    entries = [[field.elem(x) for x in row] for row in rows]
    values = raw(entries)
    R, pivots, below = hankel._gauss_jordan(values, ncols, field, limit)
    ref_rows, ref_pivots, ref_below = _ref_gauss_jordan(entries, field, limit)
    assert (pivots, below) == (ref_pivots, ref_below)
    assert R == raw(ref_rows[: len(pivots)])
    assert all(type(x) is type(field.zero.value) for row in R for x in row)
    if limit is None:
        assert hankel._pivot_columns(values, ncols, field) == pivots
        if entries:
            assert _cached_rref(values, field) == (R, pivots)
    return pivots


@settings(deadline=None, max_examples=60)
@given(m=_matrices(), field=st.sampled_from([QQ, _BIG]))
def test_int_rows_match_the_dividing_loop(m, field):
    rows, ncols = m
    _check_kernel(rows, ncols, field)


@settings(deadline=None, max_examples=40)
@given(m=_matrices(), field=st.sampled_from([QQ, _BIG]), data=st.data())
def test_int_rows_with_a_limit_match_the_dividing_loop(m, field, data):
    # the columns from `limit` on ride along, as the right-hand side of a
    # solve; one more row makes it inconsistent whenever the rest has a pivot
    rows, ncols = m
    limit = data.draw(st.integers(0, ncols))
    if rows:
        rows = rows + [[Fraction(0)] * limit + [Fraction(1)] * (ncols - limit)]
    _check_kernel(rows, ncols, field, limit)


@settings(deadline=None, max_examples=20)
@given(m=_matrices(nrows=st.just(6), ncols=st.just(40), zeros=0.9))
def test_int_rows_on_a_wide_sparse_matrix(m):
    # the shape of the containment test: few rows, many mostly empty columns
    rows, ncols = m
    for field in (QQ, _BIG):
        _check_kernel(rows, ncols, field)


def test_hilbert_matrix_reduces_to_the_identity():
    # the 8x8 Hilbert matrix: entries of the integer rows grow, the reduced
    # form is the exact identity
    H = [[QQ.elem(Fraction(1, i + j + 1)) for j in range(8)] for i in range(8)]
    (R, pivots), ops = _counted(lambda: _cached_rref(raw(H), QQ))
    assert pivots == list(range(8)) and ops == OpCounter()
    assert R == [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    assert all(type(x) is Fraction for row in R for x in row)
    with counting_paused():
        assert (R, pivots) == _ref_rref(H, QQ)
    assert _check_kernel(raw(H), 8, QQ) == list(range(8))


def test_forward_pass_pivots_on_the_least_entry():
    # the forward pass takes the row of least absolute entry, the first on
    # ties; the Gauss-Jordan pass the first nonzero row
    forward, upward = [[6, 1, 0], [-2, 0, 1], [3, 5, 7]], [[6, 1, 0], [-2, 0, 1], [3, 5, 7]]
    assert hankel._int_eliminate(forward, 1, False)[0] == [0]
    assert forward[0] == [-2, 0, 1]
    assert hankel._int_eliminate(upward, 1, True)[0] == [0]
    assert upward[0] == [6, 1, 0]
    tie = [[0, 5], [2, 1], [-2, 3]]
    hankel._int_eliminate(tie, 1, False)
    assert tie[0] == [2, 1]


_PRIMES = [q for q in range(990_001, 10**6, 2) if all(q % f for f in range(2, 1000))]


def _wide_sparse(rng, nrows: int, ncols: int) -> list[list[Fraction]]:
    """nrows x ncols rationals, about 90% zeros, denominators distinct primes
    near 10^6; some columns are combinations of two earlier ones."""
    dens = iter(rng.sample(_PRIMES, nrows * ncols))
    rows = [
        [Fraction(0) if rng.random() < 0.9 else Fraction(rng.randint(-(10**6), 10**6), next(dens)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for c in rng.sample(range(2, ncols), ncols // 4):
        a, b = (Fraction(rng.randint(-99, 99), next(dens)) for _ in range(2))
        j, k = rng.sample(range(c), 2)
        for row in rows:
            row[c] = a * row[j] + b * row[k]
    return rows


@pytest.mark.parametrize("field", [QQ, F65537, _BIG], ids=str)
def test_pivot_rule_on_wide_sparse_matrices(field):
    # the forward pass's pivot rule moves no pivot column, and the Gauss-Jordan
    # pass of the cached reduced form and of `factor` keeps its rows
    rng = random.Random(str(field))
    ref_profile = _ref_bareiss_profile if field is QQ else _ref_uniform_sweep
    labels = enumerate_up_to(M("x^6"), DRL2)
    for trial in range(24):
        nrows = rng.randint(2, 8)
        ncols = rng.randint(nrows + 1, 5 * nrows)
        entries = [[field.elem(x) for x in row] for row in _wide_sparse(rng, nrows, ncols)]
        values = raw(entries)
        with counting_paused():
            want = ref_profile(entries if field is QQ else values, field)
        assert hankel._pivot_columns(values, ncols, field) == want, (trial, values)
        with counting_paused():
            assert _cached_rref(values, field) == _ref_rref(entries, field)
        # `factor` on the leading square block: the rows of [A | I], uncounted
        k = nrows
        S = labels[:k]
        F, ops = _counted(lambda: factor(matrix(field, S, S, [row[:k] for row in values]), S, DRL2))
        eye = [[field.one if i == j else field.zero for j in range(k)] for i in range(k)]
        with counting_paused():
            rows, pivots, below = _ref_gauss_jordan([a[:k] + e for a, e in zip(entries, eye)], field, limit=k)
        assert (F.pivots, F.below, ops) == (pivots, below, OpCounter())
        assert F.multipliers.tolist() == [row[k:] for row in raw(rows[: len(pivots)])]


def _seeded_oracle(
    seed: int, field, zeros: float, y_blind: bool, max_den: int = 3
) -> SequenceOracle:
    """Random terms, a `zeros` share of them zero; with `y_blind` a term
    ignores its y exponent, so H_{rows,S} is rank-deficient once S holds 1 and y."""

    def provider(i):
        rng = random.Random(f"{seed}:{i[0]}:{0 if y_blind else i[1]}")
        return field.zero if rng.random() < zeros else _draw(rng, field, max_den)

    return SequenceOracle(2, field, provider)


def _check_solves_against_the_reference(field, trials: int, max_den: int = 3) -> None:
    # S is the column rank profile of a symmetric H_{T,T}, as in sfglm-tweaked,
    # so H_{S,S} is nonsingular and the reference's check of its rows passes
    rng = random.Random(str(field))
    T3 = enumerate_up_to(M("x^3"), DRL2)  # 1, y, x, y^2, ..., x^3
    gaps = sliced = 0
    for trial in range(trials):
        seed = rng.randrange(10**6)
        zeros = rng.choice((0.0, 0.4, 0.8))
        y_blind = rng.random() < 0.3
        T = T3[: rng.randint(1, 6)]
        oracle = _seeded_oracle(seed, field, zeros, y_blind, max_den)
        H = build(oracle, T, T, DRL2)
        S = column_rank_profile(H)[1]
        t = rng.choice([m for m in T3 if m not in S])
        F = factor(H, S, DRL2)
        got = _counted(lambda: solve_relation(oracle, t, F))
        (rel, failure), ops = _counted(lambda: _ref_solve_relation(oracle, S, S, t, DRL2))
        assert failure is None, (seed, zeros, y_blind, S, t)
        # the same Poly and counts, the check of the k rows included
        assert got == (rel, ops), (seed, zeros, y_blind, S, t)
        gaps += S != T[: len(S)]
        sliced += t in H.col_at
    assert gaps and 0 < sliced < trials


@pytest.mark.parametrize("field", _FIELDS)
def test_solve_relation_fast_path_matches_scalar_loop(field):
    _check_solves_against_the_reference(field, 80)


@pytest.mark.parametrize("field", [QQ, _BIG], ids=["Q", "2305843009213693951"])
def test_solve_relation_large_denominators_match_scalar_loop(field):
    # terms with denominators up to 10^6: the integer rows clear them per row
    _check_solves_against_the_reference(field, 40, max_den=10**6)


@pytest.mark.parametrize("field", [QQ, FpField(65537)], ids=["Q", "65537"])
def test_solve_tails_match_one_solve_per_candidate(field):
    rng = random.Random(3)
    T3 = enumerate_up_to(M("x^3"), DRL2)
    solved = singular = 0
    for trial in range(20):
        oracle = _seeded_oracle(rng.randrange(10**6), field, 0.3, rng.random() < 0.3)
        k = rng.randint(1, 4)
        S, cands = T3[:k], T3[k:]
        tails = solve_tails(build(oracle, S, S + cands), S, cands)
        if tails is None:
            singular += 1
            assert column_rank_profile(build(oracle, S, S, DRL2))[0] < k
            continue
        solved += 1
        assert list(tails) == cands
        F = factor(build(oracle, S, S, DRL2), S, DRL2)
        for t in cands:
            assert tails[t] == solve_relation(oracle, t, F)
    assert solved and singular


def test_fraction_free_kernel_skips_dependent_columns():
    # over Q only genuinely eliminated entries cost multiplications
    field = QQ
    labels = [M("1"), M("y"), M("x")]
    zero = [[field.zero.value] * 3 for _ in range(3)]
    H = matrix(field, labels, labels, zero)
    ops = OpCounter()
    with counting(ops):
        r, _ = column_rank_profile(H)
    assert r == 0 and ops.multiplications == 0


def _random_oracle(seed: int, field) -> SequenceOracle:
    rng = random.Random(seed)
    memo: dict[tuple[int, ...], int] = {}

    def provider(i):
        if i not in memo:
            memo[i] = rng.randrange(0, 11)
        return field.elem(memo[i])

    return SequenceOracle(2, field, provider)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_profile_matches_kernel_dimension(seed):
    field = FpField(11)
    H = build(_random_oracle(seed, field), S2(), S2(), DRL2)
    r, profile = column_rank_profile(H)
    # rank + nullity: each free column f of the Gauss-Jordan form gives the
    # kernel vector e_f − Σ_i R[i][f]·e_{pivot i}
    entries = H.array.tolist()
    R, pivots = H.rref
    assert len(R) == len(pivots)
    free = [c for c in range(len(H.col_labels)) if c not in pivots]
    assert r + len(free) == len(H.col_labels)
    for f in free:
        v = [field.zero] * len(H.col_labels)
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = -FieldElement(field, R[i][f])
        for row in boxed(field, entries):
            assert not sum((a * x for a, x in zip(row, v, strict=True)), field.zero)
    assert [c for c in H.col_labels if c in set(profile)] == profile
    # the profile columns alone already realize the rank
    Hp = matrix(
        field,
        H.row_labels,
        profile,
        [[row[H.col_labels.index(c)] for c in profile] for row in entries],
    )
    assert column_rank_profile(Hp)[0] == r


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_solved_relations_annihilate_their_rows(seed):
    field = FpField(11)
    oracle = _random_oracle(seed, field)
    S = [M("1"), M("y"), M("x")]
    got = _square_solve(oracle, S, M("y^2"))
    assert got.lm(DRL2) == M("y^2") and got.lc(DRL2) == field.one
    from seqrel.sequences import bracket

    for r in column_rank_profile(build(oracle, S, S, DRL2))[1]:  # the rows solved on
        assert not bracket(oracle, got, r)


# -- the gather against a per-cell reader -----------------------------------------


def _per_cell(oracle, rows, cols):
    """The reader the gather replaces: one product and one query per cell,
    the values put in the gather's array type."""
    values = [[oracle.query(mono_mul(r, c)).value for c in cols] for r in rows]
    return hankel._array(values, oracle.field, (len(rows), len(cols)))


def _recording_oracle(seed: int, field, n: int):
    """Random terms, a third of them zero; `reads` lists the provider's
    calls, which the memo makes the indices in first-read order."""
    reads: list[tuple[int, ...]] = []

    def provider(i):
        reads.append(i)
        rng = random.Random(f"{seed}:{i}")
        return field.zero if rng.random() < 0.3 else _draw(rng, field)

    return SequenceOracle(n, field, provider), reads


_GATHER = hankel._gather  # the first swap below outlives the call that made it


def _through_both(monkeypatch, fn, make_oracle):
    """fn(oracle) through the gather and through `_per_cell`, each on a fresh
    oracle: (result, a matrix as its labels and entries, or raised error
    type and needed shape; counts; reads)."""
    out = []
    for reader in (_GATHER, _per_cell):
        monkeypatch.setattr(hankel, "_gather", reader)
        oracle, reads = make_oracle()
        ops = OpCounter()
        try:
            with counting(ops):
                got = fn(oracle)
        except BoundExceededError as exc:
            got = ("BoundExceededError", exc.index, exc.needed_shape)
        if isinstance(got, MultiHankelMatrix):
            got = ("MultiHankelMatrix", got.row_labels, got.col_labels, got.array.tolist())
        out.append((got, ops.as_dict(), list(reads)))
    return out


_GATHER_ORDERS = [
    parse_order("drl(y<x)"),
    parse_order("lex(y<x)"),
    parse_order("weight([[0,1],[1,0]];y<x)"),
    parse_order("drl(z<y<x)"),
    parse_order("lex(z<y<x)"),
]


# exponents this large make a block's radix product pass 2^62 (Python-int codes)
# as soon as two variables reach them in both the rows and the columns
_WIDE = 2**31


def _radix_product(rows, cols) -> int:
    return math.prod(max(r[v] for r in rows) + max(c[v] for c in cols) + 1 for v in range(len(rows[0])))


@pytest.mark.parametrize("field", [F65537, FpField(7), QQ], ids=["65537", "7", "Q"])
def test_gather_matches_the_per_cell_reader(monkeypatch, field):
    rng = random.Random(str(field))
    kinds = set()
    wide = 0
    for trial in range(60):
        ord = _GATHER_ORDERS[trial % len(_GATHER_ORDERS)]
        scale = _WIDE if trial % 3 == 2 else 1
        pool = [
            tuple(e * scale for e in m) for m in itertools.product(range(4), repeat=ord.n) if sum(m) <= 3
        ]
        U = rng.sample(pool, rng.randint(0, 6))
        T = rng.sample(pool, rng.randint(1, 6))
        S = rng.sample(pool, rng.randint(0, 4))
        cands = rng.sample([m for m in pool if m not in S], rng.randint(1, 3))
        seed = rng.randrange(10**6)
        fresh = lambda: _recording_oracle(seed, field, ord.n)  # noqa: E731
        calls = [
            lambda o: build(o, U, T),
            lambda o: build(o, U, T, ord),
            lambda o: _square_solve(o, S, cands[0], ord),
            lambda o: solve_tails(build(o, ord.sort(S), ord.sort(S) + cands), S, cands),
        ]
        for fn in calls:
            gathered, per_cell = _through_both(monkeypatch, fn, fresh)
            assert gathered == per_cell, (trial, ord.spec_string(), U, T, S, cands)
            kinds.add(gathered[0][0] if isinstance(gathered[0], tuple) else type(gathered[0]).__name__)
        wide += bool(U) and _radix_product(U, T) >= 2**62
    assert kinds >= {"MultiHankelMatrix", "Poly", "dict"}
    assert wide >= 5


def test_gather_codes_labels_beyond_a_packing(monkeypatch):
    # under lex(y<x) every power of y lies below x, so T = {1, y, x} is not
    # the down-set of any bound and no bound-sized packing holds T·T; the
    # gather's radix comes from the labels themselves
    lex = parse_order("lex(y<x)")
    T = [M("1", lex), M("y", lex), M("x", lex)]
    fresh = lambda: _recording_oracle(5, F65537, 2)  # noqa: E731
    gathered, per_cell = _through_both(monkeypatch, lambda o: build(o, T, T, lex), fresh)
    assert gathered == per_cell
    assert len(gathered[2]) == 6  # 1, y, x, y^2, x*y, x^2


@pytest.mark.parametrize("field", [F65537, FpField(7), QQ], ids=["65537", "7", "Q"])
def test_gather_on_a_too_small_table_raises_at_the_same_index(monkeypatch, field):
    rng = random.Random(7)
    entries = [_draw(rng, field) for _ in range(9)]  # 3x3: T·T needs 5x5
    T2 = S2()
    # three reads inside the table, then a wide label sum outside it
    W = [(0, 0), (1, 0), (0, 1), (_WIDE, _WIDE)]
    assert _radix_product(W, W) >= 2**62
    calls = [
        lambda o: build(o, T2, T2, DRL2),
        lambda o: _square_solve(o, T2[:3], M("x^2")),
        lambda o: solve_tails(build(o, T2[:3], T2), T2[:3], T2[3:]),
        lambda o: build(o, W, W),
    ]

    def fresh():
        table = table_oracle(field, (3, 3), entries)
        reads = []

        def provider(i):
            reads.append(i)
            return table.query(i)

        return SequenceOracle(2, field, provider), reads

    for fn in calls:
        gathered, per_cell = _through_both(monkeypatch, fn, fresh)
        assert gathered == per_cell
        assert gathered[0][0] == "BoundExceededError"
    assert gathered[0][1] == (_WIDE, _WIDE) and gathered[2] == W


# -- the gather on unwrapped tables, which answer each block in one read ----------

_TABLE_FIELDS = [F65537, FpField(7), FpField(2**31 - 1), _BIG, QQ]
_TABLE_IDS = ["65537", "7", "2^31-1", "2^61-1", "Q"]


def _on_tables(monkeypatch, fn, fresh):
    """fn(table) through the gather and through `_per_cell`, each on a fresh
    table with no recording view in front, so the gather reaches the table's
    own `read`: (result, or raised index and needed shape; counts; queries;
    read set)."""
    out = []
    for reader in (_GATHER, _per_cell):
        monkeypatch.setattr(hankel, "_gather", reader)
        table = fresh()
        ops = OpCounter()
        try:
            with counting(ops):
                got = fn(table)
        except BoundExceededError as exc:
            got = ("BoundExceededError", exc.index, exc.needed_shape)
        if isinstance(got, MultiHankelMatrix):
            got = ("MultiHankelMatrix", got.row_labels, got.col_labels, got.array.tolist())
        if isinstance(got, Result):
            got = result_to_json(got)
        out.append((got, ops.as_dict(), table.queries, table._queried))
    return out


def _filled(field, shape):
    """A maker of fresh tables of `shape` holding a sequence whose relations
    have the leading monomials y^2, x*y, x^2."""
    source, _ = random_from_lms([M("y^2"), M("x*y"), M("x^2")], DRL2, field, 3)
    entries = [source.query(i).value for i in itertools.product(*map(range, shape))]
    return lambda: table_oracle(field, shape, entries)


@pytest.mark.parametrize("field", _TABLE_FIELDS, ids=_TABLE_IDS)
def test_unwrapped_tables_read_like_the_per_cell_reader(monkeypatch, field):
    T2 = S2()
    results = [run(_filled(field, (5, 5))(), T2, DRL2) for run in (run_sfglm, run_sfglm_tweaked)]
    assert all(r.relations and r.table for r in results)
    one = Poly.monomial(field, M("1"))
    tampered = replace(results[0], relations=[replace(r, poly=r.poly + one) for r in results[0].relations])
    calls = [
        lambda o: build(o, T2, T2, DRL2),
        lambda o: _square_solve(o, T2[:3], M("x^2")),
        lambda o: _square_solve(o, T2[:2], M("x")),
        lambda o: solve_tails(build(o, T2[:3], T2), T2[:3], T2[3:]),
        lambda o: run_sfglm(o, T2, DRL2),
        lambda o: run_sfglm_tweaked(o, T2, DRL2),
        *(lambda o, r=r: verify_result(o, r, DRL2) for r in (*results, tampered)),
    ]
    kinds = []
    for shape in ((5, 5), (6, 7), (3, 3), (5, 2)):
        for fn in calls:
            gathered, per_cell = _on_tables(monkeypatch, fn, _filled(field, shape))
            assert gathered == per_cell, (shape, gathered[0])
            got = gathered[0]
            kinds.append(got[0] if isinstance(got, tuple) else got if isinstance(got, bool) else type(got).__name__)
    assert set(kinds) == {"MultiHankelMatrix", "BoundExceededError", "Poly", "dict", True, False}


@pytest.mark.parametrize("field", _TABLE_FIELDS, ids=_TABLE_IDS)
def test_a_wide_label_block_on_an_unwrapped_table_raises_at_the_same_index(monkeypatch, field):
    W = [(0, 0), (1, 0), (0, 1), (_WIDE, _WIDE)]  # object codes: the index array is too
    assert _radix_product(W, W) >= 2**62
    gathered, per_cell = _on_tables(monkeypatch, lambda o: build(o, W, W), _filled(field, (3, 3)))
    assert gathered == per_cell
    assert gathered[0] == ("BoundExceededError", (_WIDE, _WIDE), (_WIDE + 1, _WIDE + 1))
    assert gathered[3] == set(W)


# -- the array as the only form the kernels read ---------------------------------


def _unreadable(field, n: int) -> SequenceOracle:
    def provider(i):
        raise AssertionError(f"the kernel read u{i} from the oracle")

    return SequenceOracle(n, field, provider)


@pytest.mark.parametrize("field", _FIELDS)
def test_kernels_leave_their_input_as_it_was(field):
    # the numpy kernel eliminates in place, so it must work on a copy: an
    # `np.asarray` of an array of the right dtype would be the array itself
    rng = random.Random(str(field))
    T = enumerate_up_to(M("x^2"), DRL2)
    H = matrix(field, T, T, raw(_random_entries(rng, field, len(T), len(T), 4, 0.3)))
    before = H.array.copy()
    values = H.array[:, ::-1].copy()
    passed = values.copy()
    S = column_rank_profile(H)[1]
    hankel._pivot_columns(values, len(T), field)
    hankel._gauss_jordan(values, len(T), field, limit=3)
    matrix(field, T, T, values).rref  # the array is `values` itself
    factor(H, S, DRL2)
    solve_tails(H, S, [t for t in T if t not in S])
    for got, want in ((H.array, before), (values, passed)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("field", [F65537, _BIG, QQ], ids=["65537", "2^61-1", "Q"])
def test_kernels_read_a_hand_made_matrix_like_a_built_one(field):
    # a `build` result and a matrix made by hand from its values, with no
    # oracle behind it, give the same profiles, tails and factored solves,
    # and count the same
    T = enumerate_up_to(M("x^3"), DRL2)
    solved = 0
    for name in ("binomial", "pow23", "sq", "step", "kron"):
        oracle = make_generator(name, field)
        H = build(oracle, T, T, DRL2)
        by_hand = matrix(field, H.row_labels, H.col_labels, H.array.tolist())
        assert by_hand.array.dtype == H.array.dtype
        runs = []
        for source, reader in ((H, oracle), (by_hand, _unreadable(field, 2))):
            profile = _counted(lambda: column_rank_profile(source))
            S = profile[0][1]
            cands = [t for t in T if t not in S]
            tails = _counted(lambda: solve_tails(source, S, cands))
            F = factor(source, S, DRL2)
            rels = [_counted(lambda: solve_relation(reader, t, F)) for t in cands]
            runs.append((profile, tails, rels))
        assert runs[0] == runs[1], name
        assert runs[0][1][0] is not None, name  # H_{S,S} is regular
        solved += len(runs[0][2])
    assert solved == 3 + 8 + 6 + 0 + 6
