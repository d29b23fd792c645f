"""Multi-Hankel matrices: construction from oracles, exact elimination with
column rank profile, relation solving, rank, and kernel bases.

Two elimination kernels share the operation-counting conventions used by the
benchmark layer:

* word-size prime fields run a vectorized column sweep whose update schedule
  is applied uniformly (a dependent column contributes an all-zero factor
  vector — the update is a mathematical no-op but its multiplications are
  still performed and counted, like a dense sweep);
* Q (and oversized primes) run fraction-free Bareiss elimination with pivot
  skipping, counting only work actually done.
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


def _to_np(H: MultiHankelMatrix) -> np.ndarray:
    return np.array([[e.value for e in row] for row in H.entries], dtype=np.int64)


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
    """Gauss-Jordan mod p; returns the fully reduced matrix and pivot columns."""
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
        count_mults(ncols - c)
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        if others.size:
            A[others, c:] = (A[others, c:] - np.outer(A[others, c], A[r, c:])) % p
            count_mults(int(others.size) * (ncols - c))
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
        rank, pivots = _fp_uniform_sweep(_to_np(H), H.field.p)
    else:
        rank, pivots = _bareiss_profile(H.entries, H.field)
    return rank, [H.col_labels[c] for c in pivots]


def rank(H: MultiHankelMatrix) -> int:
    return column_rank_profile(H)[0]


def _rref(
    entries: list[list[FieldElement]], field: Field
) -> tuple[list[list[FieldElement]], list[int]]:
    rows = [list(r) for r in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
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
    ncols = len(S_sorted)
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
    for label, arow, rhs in zip(rows_sorted, A, b, strict=True):
        acc = -rhs  # = H_{row,t}
        for a, x in zip(arow, alpha, strict=True):
            if x:
                acc = acc + a * x
        if acc:
            return Inconsistent(label, acc)
    terms = {t: field.one}
    for s, x in zip(S_sorted, alpha, strict=True):
        if x:
            terms[s] = x
    return Poly(field, terms)
