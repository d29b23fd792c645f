"""Multi-Hankel matrices: construction from oracles, exact elimination with
column rank profile, relation solving and kernel bases.

Every elimination runs through one Gauss-Jordan kernel, `_gauss_jordan`, on a
numpy array of raw values: int64 residues reduced `% p` for p < 2^31, an
`object` array of Python ints for larger p or of `Fraction`s over Q.  The
kernel reports its pivot columns and, per pivot, how many rows it cleared
below and above it.  Each caller counts in bulk, from that report, what the
`FieldElement` loop its convention comes from performed:

* `column_rank_profile` over F_p, p < 2^31, a column sweep whose update block
  runs for every column, dependent ones included: a swept column c below r
  pivots costs (nrows − r − 1)·(ncols − c) multiplications, and a pivot
  1 inversion and ncols − c multiplications more;
* `column_rank_profile` over Q and p >= 2^31, fraction-free Bareiss: the k-th
  pivot c_k updates (nrows − k − 1)·(ncols − c_k − 1) cells, each for
  3 multiplications, 1 inversion and 1 addition;
* `_rref`, and so `kernel_basis` and `solve_tails`: a pivot costs 1 inversion
  and ncols multiplications, each row it clears ncols multiplications and
  ncols additions;
* `solve_relation` with k unknowns: forward elimination, each row cleared
  below pivot column c costs 1 inversion, 1 + k − c multiplications and
  k − c additions; back substitution, each pivot 1 inversion and
  1 multiplication, plus a multiplication and an addition per nonzero α at a
  later pivot; verification, each row checked up to the first failing one
  a multiplication and an addition per nonzero α plus one addition.
"""

from __future__ import annotations

import random
from bisect import bisect_left
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
    modulus,
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
# the elimination kernel


def _word_size(field: Field) -> bool:
    return isinstance(field, FpField) and field.p < _NP_PRIME_CAP


def _raw(entries: list[list[FieldElement]], ncols: int, field: Field) -> np.ndarray:
    """The raw values as the kernel's array: int64 residues or Python objects."""
    values = [[e.value for e in row] for row in entries]
    dtype = np.int64 if _word_size(field) else object
    return np.array(values, dtype=dtype).reshape(len(entries), ncols)


def _gauss_jordan(
    A: np.ndarray, p: int | None, limit: int | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Reduce A in place to reduced row echelon form (mod p unless p is None),
    pivoting only in the columns before `limit`.

    Returns the pivot columns and, per pivot, how many rows it cleared below
    and above it: the rows holding a nonzero in its column when it was taken.
    """
    nrows, ncols = A.shape
    pivots: list[int] = []
    below: list[int] = []
    above: list[int] = []
    for c in range(ncols if limit is None else limit):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        inv = pow(int(A[r, c]), -1, p) if p else 1 / A[r, c]
        row = A[r, c:] * inv
        A[r, c:] = row % p if p else row
        others = np.flatnonzero(A[:, c])
        others = others[others != r]
        if others.size:
            block = A[others, c:] - np.outer(A[others, c], A[r, c:])
            A[others, c:] = block % p if p else block
        pivots.append(c)
        below.append(int(np.count_nonzero(others > r)))
        above.append(others.size - below[-1])
    return pivots, below, above


def column_rank_profile(H: MultiHankelMatrix) -> tuple[int, list[Monomial]]:
    """Greedy left-to-right independent column labels (the useful staircase)."""
    A = _raw(H.entries, len(H.col_labels), H.field)
    pivots, _, _ = _gauss_jordan(A, modulus(H.field))
    nrows, ncols = A.shape
    if _word_size(H.field):
        # the sweep stops once every row holds a pivot
        swept = ncols if len(pivots) < nrows else (pivots[-1] + 1 if pivots else 0)
        count_mults(
            sum((nrows - bisect_left(pivots, c) - 1) * (ncols - c) for c in range(swept))
            + sum(ncols - c for c in pivots)
        )
        count_invs(len(pivots))
    else:
        cells = sum((nrows - k - 1) * (ncols - c - 1) for k, c in enumerate(pivots))
        count_mults(3 * cells)
        count_invs(cells)
        count_adds(cells)
    return len(pivots), [H.col_labels[c] for c in pivots]


def _rref(
    entries: list[list[FieldElement]], field: Field
) -> tuple[list[list[FieldElement]], list[int]]:
    """Gauss-Jordan form of the rows and its pivot columns."""
    ncols = len(entries[0]) if entries else 0
    A = _raw(entries, ncols, field)
    pivots, below, above = _gauss_jordan(A, modulus(field))
    cleared = sum(below) + sum(above)
    count_invs(len(pivots))
    count_mults((len(pivots) + cleared) * ncols)
    count_adds(cleared * ncols)
    return [[FieldElement(field, v) for v in row] for row in A.tolist()], pivots


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
    p = modulus(field)
    S_sorted = ord.sort(S)
    rows_sorted = ord.sort(rows)
    k = len(S_sorted)
    A = [[oracle.query(mono_mul(r, s)) for s in S_sorted] for r in rows_sorted]
    b = [-oracle.query(mono_mul(r, t)) for r in rows_sorted]
    orig = _raw([row + [rhs] for row, rhs in zip(A, b, strict=True)], k + 1, field)
    R = orig.copy()
    pivots, below, _ = _gauss_jordan(R, p, limit=k)
    alpha = [field.zero.value] * k
    for c, x in zip(pivots, R[:, k].tolist()):
        alpha[c] = x
    # forward elimination and back substitution
    mults = sum(n * (1 + k - c) for n, c in zip(below, pivots, strict=True))
    adds = sum(n * (k - c) for n, c in zip(below, pivots, strict=True))
    nnz = 0  # nonzero α at the pivots after c
    for c in reversed(pivots):
        mults += nnz + 1
        adds += nnz
        nnz += bool(alpha[c])
    count_invs(sum(below) + len(pivots))
    # verification over the rows, ascending; int64 holds once each product is reduced
    products = orig[:, :k] * np.array(alpha, dtype=orig.dtype)
    if p:
        products %= p
    residuals = products.sum(axis=1) - orig[:, k]
    residuals = (residuals % p if p else residuals).tolist()
    bad = next((i for i, v in enumerate(residuals) if v), None)
    checked = len(residuals) if bad is None else bad + 1
    count_mults(mults + checked * nnz)
    count_adds(adds + checked * (nnz + 1))
    if bad is not None:
        return Inconsistent(rows_sorted[bad], field.elem(residuals[bad]))
    terms = {t: field.one}
    for s, x in zip(S_sorted, alpha, strict=True):
        if x:
            terms[s] = field.elem(x)
    return Poly(field, terms)


def solve_tails(
    oracle,
    S: Sequence[Monomial],
    cands: Sequence[Monomial],
    ord: MonomialOrder,
) -> dict[Monomial, Poly] | None:
    """The monic relation t + tail_S(t) of every candidate t, or None when
    H_{S,S} is singular.

    One elimination of [H_{S,S} | H_{S,cands}]: at full rank the reduced
    right-hand block is X = H_{S,S}^{-1}·H_{S,cands}, and each relation is
    t − Σ_i X[i][t]·s_i.
    """
    field = oracle.field
    S_sorted = ord.sort(S)
    k = len(S_sorted)
    cols = S_sorted + list(cands)
    entries = [[oracle.query(mono_mul(r, c)) for c in cols] for r in S_sorted]
    R, pivots = _rref(entries, field)
    if pivots != list(range(k)):
        return None
    out: dict[Monomial, Poly] = {}
    for j, t in enumerate(cands):
        terms = {t: field.one}
        for i, s in enumerate(S_sorted):
            x = R[i][k + j]
            if x:
                terms[s] = -x
        out[t] = Poly(field, terms)
    return out
