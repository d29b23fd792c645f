"""Multi-Hankel matrices: construction from oracles, exact elimination with
column rank profile, and relation solving.  The sequence is read only by
`build`, whose gather, `_gather`, finds the cells' label sums with numpy and
reads each distinct sum once, in one `SequenceOracle.read` (one array lookup
on a finite table).  The kernels take a built matrix and slice their blocks
from it (`MultiHankelMatrix.block`).  `compare.verify_result` builds each
relation's block H_{shifts,supp g} on its own; a cell two certificates share
is answered again by the oracle's memo or the table's array.

A matrix holds raw values (ints mod p; over Q an int where the value is
integral, else a `Fraction`), and so do the kernels' results until a `Poly`
is built.  Each block is one `_array` of the field's `_dtype`: int64
residues for F_p, p < 2^31, where the product of two residues stays exact,
else Python objects (big residues, `Fraction`s).  The field kind picks the
backend and the size of p only the dtype: for every F_p row dot products
run on the array (`_dots`), over Q through `QField._dot`.  Every
elimination runs through one Gauss-Jordan kernel, `_gauss_jordan`, with one
backend per field kind:

* F_p: a numpy array of residues, each pivot row scaled to 1 as it is
  taken.  A step reduces `% p` only the pivot column and the pivot row and
  subtracts its update from the whole trailing block in place.  On int64,
  entries start in [0, p) and an update subtracts at most (p−1)², so the
  block is reduced only after ⌊(2^63 − 1 − p)/(p − 1)²⌋ updates (about 2^31
  at p = 65537, 2 at p = 2^31 − 1) and once at the end; on Python ints,
  which grow, only the rows with a nonzero multiplier are updated, and
  reduced after every update;
* Q: lists of Python ints, each row first multiplied by the lcm of its
  denominators.  A row with b in the pivot column becomes
  (a/g)·row − (b/g)·pivot row, a the pivot entry and g = gcd(a, b), and is
  then divided by the gcd of its entries, so it stays primitive.  Only rows
  with a nonzero in the pivot column are touched, and each stays a nonzero
  multiple of its Gauss-Jordan row, so the zero pattern and the pivots are
  the same.  At the end each pivot row is divided by its pivot entry, which
  gives the exact reduced form in `Fraction`s.  The pivot row is the first
  nonzero one on the Gauss-Jordan pass, whose charges follow that order, and
  the one of least absolute entry, the first on ties, on the forward-only
  pass, which keeps the rows small and moves no pivot column.

The Q backend is not fully fraction-free: Bareiss-style elimination (exact
`//` by the previous pivot) rescales every row at every step, and on the
wide, sparse matrices of `compare.ideal_contains_at_truncation` a prototype
of it raised the exact-q `compare_s` of perfbench from 0.64 s to 12.3 s
(2-core Intel Xeon, Python 3.11); the least-entry pivot took it to 0.015 s.

A system H_{S,S}·α = −H_{S,t} solved for many t (sfglm-tweaked's
candidates) is eliminated once, as [H_{S,S} | I] (`factor`): the row
operations depend on the S columns only, so the reduced right-hand side of
each t is the reduced identity block times −H_{S,t}.

Callers that read only the pivots (`column_rank_profile`, the containment
test) take them from `_pivot_columns`, a forward-only pass that never clears
a row above its pivot.  The kernel reports its pivot columns and, per pivot,
how many rows it cleared below and above it.  Each caller counts in bulk,
from that report, what the `FieldElement` loop its convention comes from
performed, the same on every prime:

* `column_rank_profile` over F_p, a column sweep whose update block runs for
  every column, dependent ones included: a swept column c below r pivots
  costs (nrows − r − 1)·(ncols − c) multiplications, and a pivot 1 inversion
  and ncols − c multiplications more;
* `column_rank_profile` over Q, fraction-free Bareiss: the k-th pivot c_k
  updates (nrows − k − 1)·(ncols − c_k − 1) cells, each for
  3 multiplications, 1 inversion and 1 addition;
* `_rref`, and so `solve_tails`: a pivot costs 1 inversion and ncols
  multiplications, each row it clears ncols multiplications and ncols
  additions; `solve_tails` then negates each nonzero entry of the reduced
  right-hand block, 1 addition each;
* `solve_relation` (sfglm-tweaked), k unknowns, charged per solve even when
  one `factor`ization of H_{S,S} serves many t: negating H_{S,t} costs
  1 addition per row; forward elimination, each row cleared below pivot
  column c, 1 inversion, 1 + k − c multiplications and k − c additions; back
  substitution, each pivot 1 inversion and 1 multiplication, plus a
  multiplication and an addition per nonzero α at a later pivot; the check of
  the k rows, k·nnz multiplications and k·(nnz + 1) additions for nnz
  nonzero α, charged in closed form: on a nonsingular H_{S,S} it always
  passes, so it is not run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .field import Field, FieldElement, FpField, count_adds, count_invs, count_mults
from .monomials import Monomial, MonomialOrder
from .poly import Poly


@dataclass(eq=False)
class MultiHankelMatrix:
    field: Field
    row_labels: list[Monomial]
    col_labels: list[Monomial]
    array: np.ndarray = dc_field(repr=False)  # the raw values as one `_array`

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @cached_property
    def row_at(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.row_labels)}

    @cached_property
    def col_at(self) -> dict[Monomial, int]:
        return {m: j for j, m in enumerate(self.col_labels)}

    def block(self, rows: Sequence[Monomial], cols: Sequence[Monomial]) -> np.ndarray:
        """H_{rows,cols}, a copy sliced from the array; every label is one of H's."""
        return self.array[np.ix_([self.row_at[m] for m in rows], [self.col_at[m] for m in cols])]


def _dtype(field: Field) -> type:
    """int64 for F_p, p < 2^31, where ⌊(2^63 − 1 − p)/(p − 1)²⌋ ≥ 2 products
    of two residues fit before the kernel must reduce; else Python objects
    (big residues, `Fraction`s), which it reduces after every update."""
    return np.int64 if isinstance(field, FpField) and field.p < 1 << 31 else object


def _array(values, field: Field, shape: tuple[int, ...]) -> np.ndarray:
    """Raw values as an array of `shape` and of the field's `_dtype`."""
    return np.asarray(values, dtype=_dtype(field)).reshape(shape)


def build(
    oracle,
    U: Sequence[Monomial],
    T: Sequence[Monomial],
    ord: MonomialOrder | None = None,
) -> MultiHankelMatrix:
    """H_{U,T}: entry (r, c) = u at the exponent sum of the two labels."""
    rows = list(U) if ord is None else ord.sort(U)
    cols = list(T) if ord is None else ord.sort(T)
    return MultiHankelMatrix(oracle.field, rows, cols, _gather(oracle, rows, cols))


def _gather(oracle, rows: Sequence[Monomial], cols: Sequence[Monomial]) -> np.ndarray:
    """H_{rows,cols} as an `_array`.  A label is coded as one integer in a
    radix per variable above the largest exponent sum, so a code sum codes
    the label sum under any order; the codes are int64 while the radix
    product stays below 2^62, Python ints (object arrays) beyond.  The
    distinct sums are read by one `oracle.read`, in row-major first-seen
    order, and the cells take the values by index."""
    dtype = _dtype(oracle.field)
    if not rows or not cols:
        return np.empty((len(rows), len(cols)), dtype=dtype)
    radix = [a + b + 1 for a, b in zip(map(max, zip(*rows)), map(max, zip(*cols)))]
    weights = [prod(radix[:j]) for j in range(len(radix))]
    codes = np.int64 if prod(radix) < 1 << 62 else object
    sums = np.add.outer(
        np.array([sum(map(mul, r, weights)) for r in rows], dtype=codes),
        np.array([sum(map(mul, c, weights)) for c in cols], dtype=codes),
    ).ravel()
    distinct, first, cells = np.unique(sums, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct sums in first-seen order
    digits = distinct[order][:, None] // np.array(weights, dtype=codes) % np.array(radix, dtype=codes)
    values = np.empty(len(distinct), dtype=dtype)
    values[order] = oracle.read(digits)
    return values[cells].reshape(len(rows), len(cols))


# ---------------------------------------------------------------------------
# the elimination kernel


def _np_eliminate(
    A: np.ndarray, p: int, limit: int | None, upward: bool
) -> tuple[list[int], list[int], list[int]]:
    """Gauss-Jordan on an array of residues mod p, in place, with delayed
    reduction on int64 (module docstring); each pivot row is scaled to 1 as
    it is taken, and A ends reduced.  The trailing block of a step is
    A[r:, c:] on the forward pass and A[:, c:] on the upward one, the pivot
    row's multiplier 0.  Callers pass a copy (`np.array`, never
    `np.asarray`), so no matrix of theirs is overwritten."""
    nrows, ncols = A.shape
    exact = A.dtype == object
    headroom = 0 if exact else (np.iinfo(np.int64).max - p) // (p - 1) ** 2
    left = headroom  # updates the trailing block takes before it must be reduced
    pivots: list[int] = []
    below: list[int] = []
    above: list[int] = []
    for c in range(ncols if limit is None else limit):
        r = len(pivots)
        if r == nrows:
            break
        top = 0 if upward else r  # the step updates A[top:]
        k = r - top  # the pivot row in it
        col = A[top:, c].copy() if exact else A[top:, c] % p  # the multipliers
        nz = np.flatnonzero(col[k:])
        if not nz.size:
            continue
        if j := int(nz[0]):
            A[[r, r + j]] = A[[r + j, r]]
            col[[k, k + j]] = col[[k + j, k]]
        piv = (A[r, c:] if exact else A[r, c:] % p) * pow(int(col[k]), -1, p) % p
        A[r, c:] = piv
        col[k] = 0
        pivots.append(c)
        below.append(int(np.count_nonzero(col[k:])))
        above.append(int(np.count_nonzero(col[:k])))
        if not (below[-1] or above[-1]):
            continue
        block = A[top:, c:]
        if exact:
            rows = np.flatnonzero(col)
            block[rows] = (block[rows] - np.outer(col[rows], piv)) % p
        else:
            if not left:
                block %= p
                left = headroom
            block -= np.outer(col, piv)
            left -= 1
    if not exact:
        A %= p
    return pivots, below, above


def _int_rows(values: list[list] | np.ndarray) -> list[list[int]]:
    """The rows of rationals as lists of Python ints: each row times the lcm
    of its denominators, divided by its content."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    rows = []
    for row in values:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        rows.append([x // g for x in ints] if g > 1 else ints)
    return rows


def _int_eliminate(
    rows: list[list[int]], limit: int | None, upward: bool
) -> tuple[list[int], list[int], list[int]]:
    """Gauss-Jordan on the integer rows of rationals, in place, without
    dividing: a row with b in the pivot column becomes (a/g)·row − (b/g)·pivot
    row, a the pivot and g = gcd(a, b), and is then divided by its content, so
    every row stays primitive.  Every row stays a nonzero multiple of its
    Gauss-Jordan row, so the zero pattern, the pivots and the cleared rows are
    those of the dividing loop.  The upward pass pivots on the first nonzero
    row, as that loop does, and only its `below`/`above` feed a charge; the
    forward pass on the row of least absolute entry, the first on ties."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    below: list[int] = []
    above: list[int] = []
    for c in range(ncols if limit is None else limit):
        r = len(pivots)
        if r == nrows:
            break
        nz = (i for i in range(r, nrows) if rows[i][c])
        piv = next(nz, None) if upward else min(nz, key=lambda i: abs(rows[i][c]), default=None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        a = rows[r][c]
        tail = rows[r][c:]
        n_below = n_above = 0
        for i in range(0 if upward else r + 1, nrows):
            row = rows[i]
            b = row[c]
            if not b or i == r:
                continue
            if i > r:
                n_below += 1
            else:
                n_above += 1
            g = gcd(a, b)
            s, t = a // g, b // g
            # before c the pivot row is zero, and so is every row below it
            head = row[:c] if s == 1 or i > r else [s * x for x in row[:c]]
            new = head + [s * x - t * y for x, y in zip(row[c:], tail)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        below.append(n_below)
        above.append(n_above)
    return pivots, below, above


def _gauss_jordan(
    values: list[list] | np.ndarray, ncols: int, field: Field, limit: int | None = None
) -> tuple[list[list], list[int], list[int], list[int]]:
    """Reduced row echelon form of the raw rows, pivoting only in the columns
    before `limit`.

    Returns the pivot rows of the reduced form, one per pivot, each scaled to
    pivot 1 (ints mod p, `Fraction`s over Q); the pivot columns; and, per
    pivot, how many rows it cleared below and above it: the rows holding a
    nonzero in its column when it was taken.
    """
    if isinstance(field, FpField):
        A = np.array(values, dtype=_dtype(field)).reshape(len(values), ncols)
        pivots, below, above = _np_eliminate(A, field.p, limit, True)
        return A[: len(pivots)].tolist(), pivots, below, above
    rows = _int_rows(values)
    pivots, below, above = _int_eliminate(rows, limit, True)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)], pivots, below, above


def _pivot_columns(values: list[list] | np.ndarray, ncols: int, field: Field) -> list[int]:
    """The pivot columns of `_gauss_jordan`, from a forward-only pass: rows
    above a pivot are never cleared, which moves no pivot."""
    if isinstance(field, FpField):
        A = np.array(values, dtype=_dtype(field)).reshape(len(values), ncols)
        return _np_eliminate(A, field.p, None, False)[0]
    return _int_eliminate(_int_rows(values), None, False)[0]


def column_rank_profile(H: MultiHankelMatrix) -> tuple[int, list[Monomial]]:
    """Greedy left-to-right independent column labels (the useful staircase)."""
    nrows, ncols = H.shape
    pivots = _pivot_columns(H.array, ncols, H.field)
    if isinstance(H.field, FpField):
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


def _rref(values: list[list] | np.ndarray, field: Field) -> tuple[list[list], list[int]]:
    """The nonzero rows of the Gauss-Jordan form, one per pivot, as raw
    values, and the pivot columns."""
    ncols = len(values[0]) if len(values) else 0
    R, pivots, below, above = _gauss_jordan(values, ncols, field)
    cleared = sum(below) + sum(above)
    count_invs(len(pivots))
    count_mults((len(pivots) + cleared) * ncols)
    count_adds(cleared * ncols)
    return R, pivots


# ---------------------------------------------------------------------------
# relation solving


def _dots(M: np.ndarray, coeffs: list, field: Field) -> Iterable:
    """Σ_c M[i][c]·coeffs[c], raw, for each row i of an `_array`: for F_p all
    at once, each product reduced mod p before the sum; over Q row by row as
    they are taken, through `field._dot`, with the coefficients taken once as
    the integers L·coeffs, L the lcm of their denominators, so a row of ints
    dots as plain ints, and a nonzero sum is divided by L."""
    if isinstance(field, FpField):
        p = field.p
        return ((M * np.array(coeffs, dtype=M.dtype) % p).sum(axis=1) % p).tolist()
    L = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (L // c.denominator) for c in coeffs]
    sums = map(field._dot, M.tolist(), repeat(ints))
    return sums if L == 1 else (Fraction(x, L) if x else x for x in sums)


@dataclass
class Factored:
    """H_{S,S} eliminated once beside the identity, for the solves
    H_{S,S}·α = −H_{S,t} of many t.  Which rows a Gauss-Jordan step swaps
    and combines depends on the S columns only, so eliminating [H_{S,S} | b]
    takes the same steps for every b, with these `pivots` and `below`, and
    pivot row i of its reduced form ends in `multipliers`[i]·b."""

    S: list[Monomial]  # ascending
    multipliers: np.ndarray  # one row per pivot, one column per row of H_{S,S}
    pivots: list[int]
    below: list[int]
    matrix: MultiHankelMatrix  # the source, from which H_{S,t} is sliced when it holds t


def factor(H: MultiHankelMatrix, S: Sequence[Monomial], ord: MonomialOrder) -> Factored:
    """`Factored` H_{S,S}, sliced from H, which holds these labels.
    Uncounted: `solve_relation` charges each solve as if it eliminated
    [H_{S,S} | −H_{S,t}] itself."""
    S_sorted = ord.sort(S)
    k = len(S_sorted)
    A = H.block(S_sorted, S_sorted)
    R, pivots, below, _ = _gauss_jordan(np.hstack([A, np.eye(k, dtype=A.dtype)]), 2 * k, H.field, limit=k)
    multipliers = _array([row[k:] for row in R], H.field, (len(R), k))
    return Factored(S_sorted, multipliers, pivots, below, H)


def solve_relation(oracle, t: Monomial, F: Factored) -> Poly:
    """The monic relation t + Σ α_s·s with H_{S,S}·α = −H_{S,t}, on the
    factored H_{S,S}, which the caller knows to be nonsingular.  The column
    H_{S,t} is sliced from the factored matrix when t labels a column there,
    else built from the oracle."""
    field = oracle.field
    k = len(F.S)
    h = F.matrix.block(F.S, [t]) if t in F.matrix.col_at else build(oracle, F.S, [t]).array
    b = [field._neg(x) for x in h[:, 0].tolist()]
    count_adds(k)  # the right-hand side −H_{S,t}
    alpha = [field.zero.value] * k
    for c, x in zip(F.pivots, _dots(F.multipliers, b, field), strict=True):
        alpha[c] = x
    # forward elimination and back substitution
    mults = sum(n * (1 + k - c) for n, c in zip(F.below, F.pivots, strict=True))
    adds = sum(n * (k - c) for n, c in zip(F.below, F.pivots, strict=True))
    nnz = 0  # nonzero α at the pivots after c
    for c in reversed(F.pivots):
        mults += nnz + 1
        adds += nnz
        nnz += bool(alpha[c])
    count_invs(sum(F.below) + len(F.pivots))
    count_mults(mults + k * nnz)  # with the check of the k rows
    count_adds(adds + k * (nnz + 1))
    terms = {t: field.one}
    for s, x in zip(F.S, alpha, strict=True):
        if x:
            terms[s] = field.elem(x)
    return Poly(field, terms)


def solve_tails(
    H: MultiHankelMatrix,
    S: Sequence[Monomial],
    cands: Sequence[Monomial],
    ord: MonomialOrder,
) -> dict[Monomial, Poly] | None:
    """The monic relation t + tail_S(t) of every candidate t, or None when
    H_{S,S} is singular; the block is sliced from H, which holds every label.

    One elimination of [H_{S,S} | H_{S,cands}]: at full rank the reduced
    right-hand block is X = H_{S,S}^{-1}·H_{S,cands}, and each relation is
    t − Σ_i X[i][t]·s_i.
    """
    field = H.field
    S_sorted = ord.sort(S)
    k = len(S_sorted)
    R, pivots = _rref(H.block(S_sorted, S_sorted + list(cands)), field)
    if pivots != list(range(k)):
        return None
    out: dict[Monomial, Poly] = {}
    negations = 0
    for j, t in enumerate(cands):
        terms = {t: field.one}
        for i, s in enumerate(S_sorted):
            x = R[i][k + j]
            if x:
                terms[s] = FieldElement(field, field._neg(x))
                negations += 1
        out[t] = Poly(field, terms)
    count_adds(negations)
    return out
