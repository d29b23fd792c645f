from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel import hankel
from seqrel.field import OpCounter, QQ, FpField, counting
from seqrel.hankel import (
    Inconsistent,
    MultiHankelMatrix,
    build,
    column_rank_profile,
    kernel_basis,
    solve_relation,
)
from seqrel.monomials import enumerate_up_to, parse_monomial, parse_order
from seqrel.poly import parse_poly
from seqrel.sequences import SequenceOracle, make_generator

DRL2 = parse_order("drl(y<x)")
F65537 = FpField(65537)


def M(text: str, ord=DRL2):
    return parse_monomial(text, ord)


def S2(ord=DRL2):
    return enumerate_up_to(M("x^2", ord), ord)  # 1, y, x, y^2, x*y, x^2


def ints(H: MultiHankelMatrix) -> list[list[int]]:
    return [[e.value for e in row] for row in H.entries]


def test_build_goldens():
    H = build(make_generator("binomial", QQ), S2(), S2(), DRL2)
    assert [str(v) for v in H.entries[0]] == ["1", "0", "1", "0", "1", "1"]
    assert H.shape == (6, 6)
    Hp = build(make_generator("pow23", QQ), S2(), S2(), DRL2)
    assert [str(v) for v in Hp.entries[0]] == ["1", "3", "4", "9", "12", "12"]
    # entry depends only on the exponent sum of the two labels
    assert Hp.entries[1][2] == Hp.entries[2][1]  # y*x vs x*y
    assert Hp.entries[3][5] == Hp.entries[5][3]  # y^2*x^2 both ways


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
    assert ints(H) == [[0, 1, 1, 2], [1, 2, 2, 3], [1, 2, 4, 3], [2, 3, 3, 4]]
    r, profile = column_rank_profile(H)
    assert (r, profile) == (3, [M("1"), M("y"), M("x")])
    T3 = enumerate_up_to(M("x^3"), DRL2)
    Hq = build(make_generator("sq", QQ), T3, T3, DRL2)
    rq, profq = column_rank_profile(Hq)
    assert (rq, profq) == (4, [M("1"), M("y"), M("x"), M("y^2")])


def test_kernels_agree_on_both_fields():
    # the word-size prime kernel and the fraction-free kernel see the same
    # profile whenever the integer entries are small enough not to wrap
    for name in ("binomial", "pow23", "kron", "step", "sq"):
        Hq = build(make_generator(name, QQ), S2(), S2(), DRL2)
        Hp = build(make_generator(name, F65537), S2(), S2(), DRL2)
        assert column_rank_profile(Hq)[1] == column_rank_profile(Hp)[1], name


def test_kernel_basis_kron():
    H = build(make_generator("kron", QQ), S2(), S2(), DRL2)
    basis = kernel_basis(H)
    assert len(basis) == 2
    want = set()
    for v in basis:
        support = [c for c, x in zip(H.col_labels, v, strict=True) if x]
        assert len(support) == 1
        want.add(support[0])
    assert want == {M("y^2"), M("x^2")}


def test_kernel_basis_binomial_relation():
    H = build(make_generator("binomial", QQ), S2(), S2(), DRL2)
    (v,) = kernel_basis(H)
    coeffs = {c: x for c, x in zip(H.col_labels, v, strict=True) if x}
    rel = parse_poly("x*y - y - 1", DRL2, QQ)
    scale = coeffs[M("x*y")]
    assert {m: c / scale for m, c in coeffs.items()} == dict(rel.terms)


def test_solve_relation_goldens():
    pow23 = make_generator("pow23", QQ)
    S = [M("1"), M("x")]
    got = solve_relation(pow23, S, S, M("x^2"), DRL2)
    assert got == parse_poly("x^2 - 4*x + 4", DRL2, QQ)
    got = solve_relation(pow23, S, S, M("y"), DRL2)
    assert got == parse_poly("y - 3", DRL2, QQ)


def test_solve_relation_reports_first_failing_shift():
    step = make_generator("step", QQ)
    S = [M("1"), M("y"), M("x")]
    rows = [M("1"), M("y"), M("x"), M("y^2")]
    got = solve_relation(step, S, rows, M("x^2"), DRL2)
    assert isinstance(got, Inconsistent)
    assert got.row == M("y^2")
    assert got.residual == QQ.one
    # the square subsystem alone is consistent
    ok = solve_relation(step, S, S, M("x^2"), DRL2)
    assert ok == parse_poly("x^2 - 2*x - 2*y + 3", DRL2, QQ)


def test_solve_relation_rectangular_consistent():
    binom = make_generator("binomial", QQ)
    S = [M("1"), M("y"), M("x"), M("y^2"), M("x^2")]
    got = solve_relation(binom, S, S2(), M("x*y"), DRL2)
    assert got == parse_poly("x*y - y - 1", DRL2, QQ)


def test_uniform_sweep_op_counts():
    # identity 3x3: every column pivots; the uniform schedule still pays the
    # full update block each column
    field = FpField(7)
    labels = [M("1"), M("y"), M("x")]
    eye = [[field.elem(1 if i == j else 0) for j in range(3)] for i in range(3)]
    H = MultiHankelMatrix(field, labels, labels, eye)
    ops = OpCounter()
    with counting(ops):
        r, _ = column_rank_profile(H)
    assert r == 3
    assert ops.multiplications == (3 + 6) + (2 + 2) + (1 + 0)
    assert ops.inversions == 3
    # rank-deficient columns keep paying: a zero matrix never pivots but the
    # (nrows-1)*(ncols-c) update runs per column
    zero = [[field.zero] * 3 for _ in range(3)]
    Hz = MultiHankelMatrix(field, labels, labels, zero)
    ops = OpCounter()
    with counting(ops):
        rz, prof = column_rank_profile(Hz)
    assert (rz, prof) == (0, [])
    assert ops.multiplications == 2 * (3 + 2 + 1)
    assert ops.inversions == 0


def _counted(fn):
    ops = OpCounter()
    with counting(ops):
        out = fn()
    return out, ops


def _fast_and_scalar(monkeypatch, fn):
    """fn() on the raw F_p path and on the forced FieldElement loop, with counts."""
    fast = _counted(fn)
    with monkeypatch.context() as m:
        m.setattr(hankel, "_np_fast_path", lambda field: False)
        scalar = _counted(fn)
    return fast, scalar


@pytest.mark.parametrize("scalar", [False, True])
def test_rref_op_counts(monkeypatch, scalar):
    # Gauss-Jordan over F_7: per pivot 1 inversion + ncols multiplications,
    # per eliminated row ncols multiplications + ncols additions
    if scalar:
        monkeypatch.setattr(hankel, "_np_fast_path", lambda field: False)
    field = FpField(7)

    def rref(rows):
        entries = [[field.elem(v) for v in row] for row in rows]
        (R, pivots), ops = _counted(lambda: hankel._rref(entries, field))
        return [[e.value for e in row] for row in R], pivots, ops

    # col 0: scale row 0, clear row 1; col 1: swap rows 1 and 2, scale,
    # clear row 0; col 2: scale, clear rows 0 and 1
    R, pivots, ops = rref([[2, 4, 1], [1, 2, 3], [0, 1, 1]])
    assert (R, pivots) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])
    assert ops == OpCounter(additions=3 + 3 + 6, multiplications=6 + 6 + 9, inversions=3)
    # rank 2: column 1 has no pivot and costs nothing; col 2 clears row 0 only
    R, pivots, ops = rref([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
    assert (R, pivots) == ([[1, 2, 0], [0, 0, 1], [0, 0, 0]], [0, 2])
    assert ops == OpCounter(additions=3 + 3, multiplications=6 + 6, inversions=2)


# p = 2^31 - 1 is the largest prime on the numpy path: products of two
# residues come within a factor 2 of the int64 range
_FAST_PRIMES = (7, 65537, 2**31 - 1)


def _random_rows(rng, p, nrows, ncols, rank, zeros):
    """A nrows x ncols matrix mod p of rank at most `rank`, sparse with `zeros`."""

    def draw():
        return 0 if rng.random() < zeros else rng.randrange(p)

    left = [[draw() for _ in range(rank)] for _ in range(nrows)]
    right = [[draw() for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] if rank else [0] * ncols
        for row in left
    ]


@pytest.mark.parametrize("p", _FAST_PRIMES)
def test_rref_fast_path_matches_scalar_loop(monkeypatch, p):
    field = FpField(p)
    rng = random.Random(p)
    shapes = [(1, 1), (1, 4), (4, 1), (3, 3), (4, 6), (6, 4), (6, 6)]
    for trial in range(12):
        for nrows, ncols in shapes:
            rank = rng.randint(0, min(nrows, ncols))
            rows = _random_rows(rng, p, nrows, ncols, rank, rng.choice((0.0, 0.5)))
            entries = [[field.elem(v) for v in row] for row in rows]
            fast, scalar = _fast_and_scalar(monkeypatch, lambda: hankel._rref(entries, field))
            assert fast == scalar, (nrows, ncols, rank, rows)


def _seeded_oracle(seed: int, field, zeros: float, y_blind: bool) -> SequenceOracle:
    """Random terms mod p, a `zeros` share of them zero; with `y_blind` a term
    ignores its y exponent, so H_{rows,S} is rank-deficient once S holds 1 and y."""

    def provider(i):
        rng = random.Random(f"{seed}:{i[0]}:{0 if y_blind else i[1]}")
        return field.elem(0 if rng.random() < zeros else rng.randrange(field.p))

    return SequenceOracle(2, field, provider, name=f"seeded{seed}")


@pytest.mark.parametrize("p", _FAST_PRIMES)
def test_solve_relation_fast_path_matches_scalar_loop(monkeypatch, p):
    field = FpField(p)
    rng = random.Random(p)
    T3 = enumerate_up_to(M("x^3"), DRL2)  # 1, y, x, y^2, ..., x^3
    kinds = set()
    for trial in range(80):
        seed = rng.randrange(10**6)
        zeros = rng.choice((0.0, 0.4, 0.8))
        y_blind = rng.random() < 0.3
        k = rng.randint(0, 6)
        S = T3[:k]
        t = T3[rng.randint(k, len(T3) - 1)]
        rows = rng.choice([S, T3[:1], T3[: k + 2], T3])

        def solve():
            return solve_relation(_seeded_oracle(seed, field, zeros, y_blind), S, rows, t, DRL2)

        (fast, fast_ops), (scalar, scalar_ops) = _fast_and_scalar(monkeypatch, solve)
        assert fast == scalar  # the same Poly, or the same Inconsistent row and residual
        assert fast_ops == scalar_ops, (seed, zeros, y_blind, S, rows, t)
        kinds.add(type(fast).__name__)
    assert kinds == {"Poly", "Inconsistent"}


def test_fraction_free_kernel_skips_dependent_columns():
    # over Q only genuinely eliminated entries cost multiplications
    field = QQ
    labels = [M("1"), M("y"), M("x")]
    zero = [[field.zero] * 3 for _ in range(3)]
    H = MultiHankelMatrix(field, labels, labels, zero)
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

    return SequenceOracle(2, field, provider, name=f"rand{seed}")


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_profile_matches_kernel_dimension(seed):
    field = FpField(11)
    H = build(_random_oracle(seed, field), S2(), S2(), DRL2)
    r, profile = column_rank_profile(H)
    assert r + len(kernel_basis(H)) == len(H.col_labels)
    assert [c for c in H.col_labels if c in set(profile)] == profile
    # the profile columns alone already realize the rank
    Hp = MultiHankelMatrix(
        field,
        H.row_labels,
        profile,
        [[row[H.col_labels.index(c)] for c in profile] for row in H.entries],
    )
    assert column_rank_profile(Hp)[0] == r


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_solved_relations_annihilate_their_rows(seed):
    field = FpField(11)
    oracle = _random_oracle(seed, field)
    S = [M("1"), M("y"), M("x")]
    rows = S2()
    got = solve_relation(oracle, S, rows, M("y^2"), DRL2)
    if isinstance(got, Inconsistent):
        assert got.residual
        assert got.row in rows
    else:
        assert got.lm(DRL2) == M("y^2") and got.lc(DRL2) == field.one
        from seqrel.sequences import bracket

        for r in rows:
            assert not bracket(oracle, got, r)
