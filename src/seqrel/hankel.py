"""Multi-Hankel matrices: construction from oracles, exact elimination with
column rank profile, relation solving and kernel bases.

Over word-size primes (`_np_fast_path`) elimination runs on raw int64
residues in numpy and counts in bulk; over Q and larger primes it runs on
counted `FieldElement`s.  Operation counts:

* `column_rank_profile`: over F_p a column sweep whose update block runs for
  every column, dependent ones included (like a dense sweep); over Q
  fraction-free Bareiss elimination, counting only work actually done;
* `_rref` (Gauss-Jordan), on either path: a pivot costs 1 inversion and ncols
  multiplications, an eliminated row ncols multiplications and ncols additions;
* `solve_relation`, on either path: what the `FieldElement` loop
  `_scalar_solve` performs; `_fp_solve` counts the same nonzero pattern in bulk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import (
    Field,
    FieldElement,
    FpField,
    count_adds,
    count_invs,
    count_mults,
)
from .monomials import Monomial, MonomialOrder, mul as mono_mul
from .poly import Poly

_NP_PRIME_CAP = 1 << 31  # int64 products of two residues stay exact below this


@dataclass
class MultiHankelMatrix:
    field: Field
    row_labels: list[Monomial]
    col_labels: list[Monomial]
    entries: list[list[FieldElement]]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)


def build(
    oracle,
    U: Sequence[Monomial],
    T: Sequence[Monomial],
    ord: MonomialOrder | None = None,
) -> MultiHankelMatrix:
    """H_{U,T}: entry (r, c) = u at the exponent sum of the two labels."""
    rows = list(U) if ord is None else ord.sort(U)
    cols = list(T) if ord is None else ord.sort(T)
    entries = [[oracle.query(mono_mul(u, t)) for t in cols] for u in rows]
    H = MultiHankelMatrix(oracle.field, rows, cols, entries)
    _spot_check_hankel(H)
    return H


def _spot_check_hankel(H: MultiHankelMatrix, samples: int = 10) -> None:
    by_sum: dict[Monomial, FieldElement] = {}
    cells = [(r, c) for r in range(len(H.row_labels)) for c in range(len(H.col_labels))]
    rng = random.Random(len(cells))
    for r, c in rng.sample(cells, min(samples, len(cells))):
        s = mono_mul(H.row_labels[r], H.col_labels[c])
        seen = by_sum.setdefault(s, H.entries[r][c])
        assert seen == H.entries[r][c], "entry does not depend on the label sum only"


# ---------------------------------------------------------------------------
# elimination kernels


def _np_fast_path(field: Field) -> bool:
    return isinstance(field, FpField) and field.p < _NP_PRIME_CAP


def _to_np(entries: list[list[FieldElement]], ncols: int) -> np.ndarray:
    values = [[e.value for e in row] for row in entries]
    return np.array(values, dtype=np.int64).reshape(len(entries), ncols)


def _fp_uniform_sweep(A: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Column sweep with uniform update schedule (see module docstring)."""
    A = A % p
    nrows, ncols = A.shape
    r = 0
    pivots: list[int] = []
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
    return len(pivots), pivots


def _fp_rref_np(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan mod p, counted like `_rref`: reduced matrix, pivot columns."""
    A = A % p
    nrows, ncols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        count_invs(1)
        A[r, c:] = A[r, c:] * inv % p
        count_mults(ncols)
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        if others.size:
            A[others, c:] = (A[others, c:] - np.outer(A[others, c], A[r, c:])) % p
            count_mults(int(others.size) * ncols)
            count_adds(int(others.size) * ncols)
        pivots.append(c)
        r += 1
    return A, pivots


def _bareiss_profile(
    entries: list[list[FieldElement]], field: Field
) -> tuple[int, list[int]]:
    """Fraction-free elimination; dependent columns are skipped outright."""
    m = [list(row) for row in entries]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    pivots: list[int] = []
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
    return len(pivots), pivots


def column_rank_profile(H: MultiHankelMatrix) -> tuple[int, list[Monomial]]:
    """Greedy left-to-right independent column labels (the useful staircase)."""
    if _np_fast_path(H.field):
        rank, pivots = _fp_uniform_sweep(_to_np(H.entries, len(H.col_labels)), H.field.p)
    else:
        rank, pivots = _bareiss_profile(H.entries, H.field)
    return rank, [H.col_labels[c] for c in pivots]


def _rref(
    entries: list[list[FieldElement]], field: Field
) -> tuple[list[list[FieldElement]], list[int]]:
    nrows = len(entries)
    ncols = len(entries[0]) if entries else 0
    if _np_fast_path(field):
        R, pivots = _fp_rref_np(_to_np(entries, ncols), field.p)
        return [[FieldElement(field, v) for v in row] for row in R.tolist()], pivots
    rows = [list(r) for r in entries]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r], strict=True)]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(H: MultiHankelMatrix) -> list[list[FieldElement]]:
    """A basis of the right kernel, as coefficient vectors over col_labels."""
    field = H.field
    rref, pivots = _rref(H.entries, field)
    ncols = len(H.col_labels)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# relation solving


@dataclass
class Inconsistent:
    """No relation with this support: `row` is the first failing shift."""

    row: Monomial
    residual: FieldElement


def solve_relation(
    oracle,
    S: Sequence[Monomial],
    rows: Sequence[Monomial],
    t: Monomial,
    ord: MonomialOrder,
) -> Poly | Inconsistent:
    """Solve H_{rows,S}·α + H_{rows,t} = 0 for the monic relation t + Σ α_s·s.

    Elimination uses the row rank profile (rows ascending); free variables are
    set to zero; every row is then verified in ascending order and the first
    failure is reported with its residual (the bracket value at that shift).
    """
    field = oracle.field
    S_sorted = ord.sort(S)
    rows_sorted = ord.sort(rows)
    A = [[oracle.query(mono_mul(r, s)) for s in S_sorted] for r in rows_sorted]
    b = [-oracle.query(mono_mul(r, t)) for r in rows_sorted]
    solve = _fp_solve if _np_fast_path(field) else _scalar_solve
    alpha, failure = solve(A, b, len(S_sorted), field)
    if failure is not None:
        return Inconsistent(rows_sorted[failure[0]], field.elem(failure[1]))
    terms = {t: field.one}
    for s, x in zip(S_sorted, alpha, strict=True):
        if x:
            terms[s] = field.elem(x)
    return Poly(field, terms)


def _scalar_solve(A: list[list[FieldElement]], b: list[FieldElement], ncols: int, field: Field):
    """solve_relation on counted FieldElements: (α, None) when every row
    holds, else (α, (index of the first failing row, its residual))."""
    aug = [row[:] + [rhs] for row, rhs in zip(A, b, strict=True)]
    piv_rows: list[tuple[int, int]] = []  # (row, col)
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
                    aug[i][: c]
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
    # verification pass over the original rows, ascending
    for i, (arow, rhs) in enumerate(zip(A, b, strict=True)):
        acc = -rhs  # = H_{row,t}
        for a, x in zip(arow, alpha, strict=True):
            if x:
                acc = acc + a * x
        if acc:
            return alpha, (i, acc)
    return alpha, None


def _fp_solve(A: list[list[FieldElement]], b: list[FieldElement], ncols: int, field: FpField):
    """`_scalar_solve` on raw residues mod p, counted in bulk from the same
    nonzero patterns; α and the residual come back as raw ints."""
    p = field.p
    orig = _to_np([row + [rhs] for row, rhs in zip(A, b, strict=True)], ncols + 1)
    aug = orig.copy()
    piv_rows: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r >= len(aug):
            break
        nz = np.flatnonzero(aug[r:, c])
        if not nz.size:
            continue
        aug[[r, r + nz[0]]] = aug[[r + nz[0], r]]
        below = r + 1 + np.flatnonzero(aug[r + 1 :, c])
        f = aug[below, c] * pow(int(aug[r, c]), -1, p) % p
        aug[below, c:] = (aug[below, c:] - np.outer(f, aug[r, c:])) % p
        count_invs(below.size)
        count_mults(below.size * (1 + ncols - c))
        count_adds(below.size * (ncols - c))
        piv_rows.append((r, c))
        r += 1
    R = aug.tolist()
    alpha = [0] * ncols
    for row, col in reversed(piv_rows):
        js = [j for j in range(col + 1, ncols) if alpha[j]]
        acc = R[row][ncols] - sum(R[row][j] * alpha[j] for j in js)
        alpha[col] = acc * pow(R[row][col], -1, p) % p
        count_mults(len(js) + 1)
        count_adds(len(js))
    count_invs(len(piv_rows))
    # verification: every product reduced before the row sums, so int64 holds
    res = ((orig[:, :ncols] * np.array(alpha, dtype=np.int64) % p).sum(axis=1) - orig[:, ncols]) % p
    bad = np.flatnonzero(res)
    checked = int(bad[0]) + 1 if bad.size else len(A)
    nnz = sum(1 for x in alpha if x)
    count_mults(checked * nnz)
    count_adds(checked * (nnz + 1))
    return alpha, ((int(bad[0]), int(res[bad[0]])) if bad.size else None)
