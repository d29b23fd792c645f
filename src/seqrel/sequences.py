"""Sequence oracles: built-in generators, finite tables, sequences of an
ideal, bracket evaluation, and distinct-query counting.

Generated sequences are u_i = ℓ(x^i mod I), all from one provider of
multiplication matrices: `IdealSequences` builds them once per Gröbner basis
for any number of ℓ, and the point families are the diagonal case.  An
oracle memoizes values and counts *distinct* indices fetched by callers;
provider work runs with operation counting paused, so only the algorithms'
own arithmetic is tallied.  `SequenceOracle.read` reads a block of indices,
one `query` each; a finite table answers from its array and memoizes nothing.
"""

from __future__ import annotations

import math
import random
import threading
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import ge, index, mul
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    BoundExceededError,
    FieldMismatchError,
    NotGroebnerError,
    ParseError,
    PositiveDimensionError,
    SeqrelError,
)
from .field import (
    Field,
    FieldElement,
    FpField,
    QQ,
    _counters,
    count_adds,
    count_mults,
    counting_paused,
    parse_field,
)
from .hankel import _array, build, column_rank_profile, solve_tails
from .monomials import Monomial, MonomialOrder, border, degree, divides, mul as mono_mul, quotient
from .poly import Poly, Terms, format_poly, inter_reduce, staircase_of, unbox

Index = tuple[int, ...]


class SequenceOracle:
    """Memoized u_i provider with a distinct-index query counter."""

    def __init__(
        self,
        n: int,
        field: Field,
        provider: Callable[[Index], FieldElement],
    ):
        self.n = n
        self.field = field
        self._provider = provider
        self._values: dict[Index, FieldElement] = {}
        self._queried: set[Index] = set()
        self._lock = threading.Lock()

    @property
    def queries(self) -> int:
        return len(self._queried)

    def query(self, index: Iterable[int]) -> FieldElement:
        # memo hit: every key of _values is already in _queried (it is added
        # before the provider runs), so there is nothing to validate or count
        if type(index) is tuple:
            value = self._values.get(index)
            if value is not None:
                return value
        i = tuple(map(int, index))
        if len(i) != self.n or min(i, default=0) < 0:
            raise ValueError(f"bad index {i} for a {self.n}-dimensional sequence")
        with self._lock:
            self._queried.add(i)
            value = self._values.get(i)
            if value is None:
                # provider work is uncounted, as under `counting_paused`, inline on this hot path
                stack = _counters()
                saved = stack[:]
                del stack[:]
                try:
                    value = self._provider(i)
                finally:
                    stack[:] = saved
                self._values[i] = value
            return value

    def read(self, indices: np.ndarray):
        """The raw values at a (k, n) int array of distinct, valid indices."""
        return [self.query(i).value for i in map(tuple, indices.tolist())]


class PackedReads(dict):
    """One run's packed code -> raw value memo in front of `oracle.query`.  A
    miss unpacks the code and queries the oracle, so the distinct queries,
    their order and a `BoundExceededError`'s index are the tuple path's."""

    def __init__(self, oracle: SequenceOracle, unpack: Callable[[int], Index]):
        self._read = lambda code: oracle.query(unpack(code)).value

    def __missing__(self, code: int):
        value = self[code] = self._read(code)
        return value


def bracket(
    oracle: SequenceOracle,
    f: Poly | Terms,
    shift: Monomial | None = None,
    reads: Mapping[int, object] | None = None,
) -> FieldElement:
    """[shift·f] = Σ_k α_k · u_{k + shift}, one dot product on raw values.

    `f` is a `Poly` or a raw term dict; with `reads`, a code -> value map,
    its monomials and the shift are codes.  Counted like the `FieldElement`
    sum: k multiplications and k − 1 additions; the zero polynomial is free.
    """
    field = oracle.field
    if isinstance(f, Poly):
        if f.terms and f.field != field:
            raise FieldMismatchError(f"{f.field} polynomial against a {field} sequence")
        terms = unbox(f)
    else:
        terms = f
    if not terms:
        return field.zero
    query = oracle.query
    if reads is not None:
        values = [reads[m + shift] for m in terms]
    elif shift is None:
        values = [query(m).value for m in terms]
    else:
        values = [query(mono_mul(m, shift)).value for m in terms]
    count_mults(len(terms))
    count_adds(len(terms) - 1)
    return FieldElement(field, field._dot(terms.values(), values))


# ---------------------------------------------------------------------------
# built-in generators


def _fib(n: int) -> int:
    def doubling(k: int) -> tuple[int, int]:
        if k == 0:
            return 0, 1
        a, b = doubling(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k & 1 else (c, d)

    return doubling(n)[0]


_GENERATORS: dict[str, tuple[int, Callable[[Index], int]]] = {
    "binomial": (2, lambda i: math.comb(i[0], i[1])),
    "pow23": (2, lambda i: 2 ** i[0] * 3 ** i[1] * (i[0] + 1)),
    "sq": (2, lambda i: i[0] ** 2 + i[1] ** 2 - 1),
    "step": (2, lambda i: i[0] ** 2 + i[1] + (1 if 3 * i[0] + 2 * i[1] > 9 else 0)),
    "fib4": (3, lambda i: _fib(4 * i[0] + i[2])),
    "kron": (2, lambda i: 1 if i == (1, 1) else 0),
}

GENERATOR_NAMES = tuple(sorted(_GENERATORS))


def make_generator(name: str, field: Field) -> SequenceOracle:
    if name not in _GENERATORS:
        raise ParseError(
            f"unknown generator {name!r} (choose from {', '.join(GENERATOR_NAMES)})"
        )
    n, fn = _GENERATORS[name]
    return SequenceOracle(n, field, lambda i: field.elem(fn(i)))


# ---------------------------------------------------------------------------
# finite tables


class _Table(SequenceOracle):
    """A finite table: its raw values in one array of its shape (int64
    residues for F_p, p < 2^31, Python objects otherwise), boxed by `query`."""

    def __init__(self, field: Field, raw: np.ndarray):
        super().__init__(raw.ndim, field, self._entry)
        self._raw = raw

    def _entry(self, i: Index) -> FieldElement:
        if any(map(ge, i, self._raw.shape)):
            raise BoundExceededError(i, self._raw.shape)
        return FieldElement(self.field, self._raw.item(i))

    def read(self, indices: np.ndarray):
        """One lookup for the block.  Every index up to the first outside the
        table counts as queried, as one `query` each would; that one raises."""
        if indices.shape[1] != self.n:
            return super().read(indices)  # its ValueError
        inside = (indices < self._raw.shape).all(axis=1)
        k = len(inside) if inside.all() else int(inside.argmin())
        with self._lock:
            self._queried.update(map(tuple, indices[: k + 1].tolist()))
        if k < len(inside):
            raise BoundExceededError(tuple(indices[k].tolist()), self._raw.shape)
        return self._raw[tuple(indices.astype(np.int64).T)]


def table_oracle(field: Field, shape: tuple[int, ...], entries: list) -> SequenceOracle:
    try:  # every dimension an integer, not a bool
        dims = tuple(index(s) for s in shape if not isinstance(s, bool))
    except TypeError:
        dims = ()
    if len(dims) != len(shape) or not dims or min(dims) < 1:
        raise ParseError(f"a table needs one or more dimensions, each at least 1, got shape {tuple(shape)}")
    size = math.prod(dims)
    if len(entries) != size:
        raise ParseError(f"table needs {size} entries for shape {dims}, got {len(entries)}")
    return _Table(field, _array([field.elem(e).value for e in entries], field, dims))


def table_from_json(data: dict, field: Field | None = None) -> SequenceOracle:
    if not isinstance(data, dict):
        raise ParseError(f"table JSON must be an object, got {type(data).__name__}")
    try:
        fld = field if field is not None else parse_field(data["field"])
        shape, entries = tuple(data["shape"]), data["entries"]
        if not isinstance(entries, list):
            raise ParseError(f"table JSON entries must be a list, got {type(entries).__name__}")
        return table_oracle(fld, shape, entries)
    except KeyError as exc:
        raise ParseError(f"table JSON missing key {exc}") from exc
    except TypeError as exc:  # e.g. a shape that is not a list, or an entry that is not a number
        raise ParseError(f"malformed table JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# sequences u_i = ℓ(x^i mod I), from multiplication matrices


def _matrix_oracle(field: Field, mats: list, ell: list, v: list, den: int = 1) -> SequenceOracle:
    """u_i = (ℓ·M_1^{i_1}⋯M_{n-1}^{i_{n-1}})·(M_n^{i_n}·v) on raw values, where
    M_j = mats[j] / den and `mats[j][s]` is column s of M_j's integer numerator
    as a sparse {row: value} dict.  Over Q, ℓ is put over one denominator too,
    so each u_i is one integer over one denominator: an int when that divides
    it, else a Fraction.  The row prefix is memoized by i[:-1], each grown
    one axis step from a memoized parent; the columns M_n^e·v are a list of
    powers.  Both grow in this closure, shared with the fresh oracle that
    `random_from_lms` returns; only a `SequenceOracle` memoizes u_i and counts it."""
    p = field.p if isinstance(field, FpField) else None
    den_ell = math.lcm(*(c.denominator for c in ell))
    ell = [(c * den_ell).numerator for c in ell]
    lines = lambda cols: [(list(col), list(col.values())) for col in cols]
    rows = [{} for _ in mats[-1]]  # M_n·c takes the rows of M_n
    for s, t, c in ((s, t, c) for s, col in enumerate(mats[-1]) for t, c in col.items()):
        rows[t][s] = c
    steps, last = [lines(M) for M in mats[:-1]], lines(rows)

    def times(vec: list[int], sparse: list[tuple[list[int], list[int]]]) -> list[int]:
        out = [sum(map(mul, map(vec.__getitem__, idx), vals)) for idx, vals in sparse]
        return [a % p for a in out] if p else out

    prefixes: dict[Index, list[int]] = {(0,) * (len(mats) - 1): ell}
    powers = [v]

    def provider(i: Index) -> FieldElement:
        head, chain = i[:-1], []
        while head not in prefixes:
            j = next(j for j, e in enumerate(head) if e)
            chain.append((head, j))
            head = head[:j] + (head[j] - 1,) + head[j + 1 :]
        row = prefixes[head]
        for head, j in reversed(chain):
            row = prefixes[head] = times(row, steps[j])
        while len(powers) <= i[-1]:
            powers.append(times(powers[-1], last))
        total = sum(map(mul, row, powers[i[-1]]))
        if p:
            return FieldElement(field, total % p)
        d = den_ell * den ** sum(i)
        q, r = divmod(total, d)
        return FieldElement(field, Fraction(total, d) if r else q)

    return SequenceOracle(len(mats), field, provider)


class IdealSequences:
    """The sequences u_i = ℓ(x^i mod I) of one zero-dimensional ideal I, given
    by a Gröbner basis, inter-reduced here but not completed.  Its
    multiplication matrices are built and checked once, at the first
    `oracle(initial)`: M_j maps each staircase monomial s to NF(s·x_j), ℓ reads
    the initial values, v is the monomial 1.  NF(t), t ∉ S, ascending:
    −tail(g) when t = LM(g), else M_k·NF(t/x_k) for an x_k with t/x_k ∉ S.
    The matrices commute exactly when the basis is a Gröbner basis (Mourrain
    1999); other input raises `NotGroebnerError` there.  An ideal that is not
    zero-dimensional raises `PositiveDimensionError` here."""

    def __init__(self, gens: Iterable[Poly], ord: MonomialOrder):
        gens = list(gens)
        self.ord, self.field = ord, gens[0].field if gens else QQ
        with counting_paused():
            self.gb = inter_reduce(gens, ord)
        try:
            self.staircase = staircase_of(self.gb, ord)
        except ValueError as exc:
            text = ", ".join(format_poly(g, ord) for g in self.gb)
            raise PositiveDimensionError(f"the ideal <{text}> is positive-dimensional: its staircase is infinite") from exc

    def random_initial(self, rng: random.Random) -> dict[Monomial, FieldElement]:
        return {s: _rand_elem(self.field, rng) for s in self.staircase}

    def oracle(self, initial: dict[Monomial, FieldElement]) -> SequenceOracle:
        staircase, ord = self.staircase, self.ord
        if set(initial) != set(staircase):
            raise SeqrelError(
                f"initial values must cover exactly the staircase "
                f"({len(staircase)} monomials), got {len(initial)}"
            )
        mats, den = self._matrices
        ell, v = [initial[s].value for s in staircase], [int(s == ord.one) for s in staircase]
        return _matrix_oracle(self.field, mats, ell, v, den)

    @cached_property
    def _matrices(self) -> tuple[list, int]:
        ord, field, staircase = self.ord, self.field, self.staircase
        p = field.p if isinstance(field, FpField) else None
        pos = {s: k for k, s in enumerate(staircase)}
        nf = {s: {k: field.one.value} for s, k in pos.items()}
        shifted = [[mono_mul(s, x) for s in staircase] for x in ord.variables]
        tails = {g.lm(ord): g for g in self.gb}  # monic, tails on the staircase
        for t in sorted({t for row in shifted for t in row} - pos.keys(), key=ord.key):
            if t in tails:
                nf[t] = {pos[m]: field._neg(c.value) for m, c in tails[t].terms.items() if m != t}
            else:
                k = next(k for k, x in enumerate(ord.variables) if divides(x, t) and quotient(t, x) not in pos)
                nf[t] = _image(lambda u, k=k: nf[shifted[k][u]], nf[quotient(t, ord.variables[k])], p)
        den = math.lcm(*(c.denominator for col in nf.values() for c in col.values()))
        mats = [[{r: (c * den).numerator for r, c in nf[t].items()} for t in row] for row in shifted]
        for a, b in combinations(range(ord.n), 2):  # both sides are nf[s·x_a·x_b] when s·x_a, s·x_b ∈ S
            moved = (s for s in range(len(staircase)) if shifted[a][s] not in pos or shifted[b][s] not in pos)
            if any(_image(mats[a].__getitem__, mats[b][s], p) != _image(mats[b].__getitem__, mats[a][s], p) for s in moved):
                raise NotGroebnerError(
                    f"the generators are not a Gröbner basis under {ord}: the multiplication "
                    f"matrices of {ord.names[a]} and {ord.names[b]} do not commute"
                )
        return mats, den


def _image(column, w: dict, p: int | None) -> dict:
    """M·w for sparse raw vectors, `column(u)` being column u of M; no zeros."""
    out: dict = {}
    for u, a in w.items():
        for r, b in column(u).items():
            out[r] = out.get(r, 0) + a * b
    return {r: c % p if p else c for r, c in out.items() if (c % p if p else c)}


# ---------------------------------------------------------------------------
# random sequences with a prescribed leading-monomial set


def _rand_elem(field: Field, rng: random.Random, nonzero: bool = False) -> FieldElement:
    if isinstance(field, FpField):
        lo = 1 if nonzero else 0
        return field.elem(rng.randrange(lo, field.p))
    v = rng.randint(-50, 50)
    while nonzero and v == 0:
        v = rng.randint(-50, 50)
    return field.elem(v)


def _gb_from_profile(
    oracle: SequenceOracle, S: list[Monomial], ord: MonomialOrder
) -> list[Poly] | None:
    """Solve the border relations over a staircase S; None if H_{S,S} is singular."""
    S = ord.sort(S)
    B = border(S, ord)
    with counting_paused():
        tails = solve_tails(build(oracle, S, S + B), S, B, ord)
    return None if tails is None else list(tails.values())


def _nonsingular(oracle: SequenceOracle, S: list[Monomial], ord: MonomialOrder) -> bool:
    """Whether H_{S,S} has full rank, i.e. `_gb_from_profile` would succeed."""
    with counting_paused():
        return column_rank_profile(build(oracle, S, S, ord))[0] == len(S)


_ATTEMPTS = 32  # draws before random_from_lms gives up


def random_from_lms(
    lms: list[Monomial],
    ord: MonomialOrder,
    field: Field,
    seed: int,
) -> tuple[SequenceOracle, list[Poly]]:
    """A random sequence whose relation ideal has exactly these LMs.

    Returns a fresh oracle (empty memo and counter) plus the reduced basis.
    Degenerate draws (rank-deficient H over the intended staircase, or tails
    that do not make a Gröbner basis) reseed deterministically.
    """
    lm_set = sorted(set(lms), key=ord.key)
    staircase = staircase_of([Poly.monomial(field, m) for m in lm_set], ord)
    if border(staircase, ord) != lm_set:  # the draws below are then reduced
        raise SeqrelError(f"leading monomials {lm_set} are not the minimal ones of their staircase")
    for attempt in range(_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        oracle, gb = _random_instance(lm_set, staircase, ord, field, rng)
        if oracle is None:
            continue
        if gb is None:
            gb = _gb_from_profile(oracle, staircase, ord)
            if gb is None:
                continue
        elif not _nonsingular(oracle, staircase, ord):
            continue
        if sorted(g.lm(ord) for g in gb) != sorted(lm_set):
            continue
        return SequenceOracle(oracle.n, field, oracle._provider), gb
    raise SeqrelError(
        f"could not build a non-degenerate sequence for LMs {lm_set} in {_ATTEMPTS} draws"
    )


def _random_instance(
    lm_set: list[Monomial],
    staircase: list[Monomial],
    ord: MonomialOrder,
    field: Field,
    rng: random.Random,
) -> tuple[SequenceOracle | None, list[Poly] | None]:
    n = ord.n
    degs = {degree(m) for m in lm_set}
    is_pure_powers = all(sum(m) == max(m) for m in lm_set) and len(lm_set) == n and all(
        any(m[i] > 0 for m in lm_set) for i in range(n)
    )
    is_simplex = len(degs) == 1 and len(lm_set) == math.comb(n + min(degs) - 1, n - 1)

    if not is_pure_powers and (is_simplex or _is_lshape(lm_set, ord)):
        points = _family_points(lm_set, staircase, ord, field, rng, is_simplex)
        if points is None:
            return None, None
        weights = [_rand_elem(field, rng, nonzero=True).value for _ in points]
        diagonal = [[{k: pt[j]} for k, pt in enumerate(points)] for j in range(n)]
        return _matrix_oracle(field, diagonal, weights, [1] * len(points)), None

    # random staircase-supported tails plus random initials; a draw that is
    # not a Gröbner basis reseeds
    gb = []
    for m in lm_set:
        terms = {m: field.one}
        for s in staircase:
            if ord.lt(s, m) and rng.random() < 0.6:
                c = _rand_elem(field, rng)
                if c:
                    terms[s] = c
        gb.append(Poly(field, terms))
    initial = {s: _rand_elem(field, rng) for s in staircase}
    try:
        return IdealSequences(gb, ord).oracle(initial), gb
    except NotGroebnerError:
        return None, None


def _is_lshape(lm_set: list[Monomial], ord: MonomialOrder) -> bool:
    n = ord.n
    d = max(degree(m) for m in lm_set)
    pures = [m for m in lm_set if sum(m) == max(m) and degree(m) == d]
    mixed = [m for m in lm_set if m not in pures]
    want_mixed = {
        tuple(1 if k in (i, j) else 0 for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return len(pures) == n and set(mixed) == want_mixed and d >= 2


def _family_points(
    lm_set: list[Monomial],
    staircase: list[Monomial],
    ord: MonomialOrder,
    field: Field,
    rng: random.Random,
    is_simplex: bool,
) -> list[tuple] | None:
    """Point supports whose vanishing ideal generically has these LMs."""
    n = ord.n
    r = len(staircase)
    zero = 0
    if isinstance(field, FpField):
        if field.p <= r + 1:
            return None
        draw = lambda: rng.randrange(1, field.p)
    else:
        draw = lambda: rng.choice([v for v in range(-3 * r - 2, 3 * r + 3) if v])
    if is_simplex:
        pts: set[tuple] = set()
        guard = 0
        while len(pts) < r and guard < 50 * r:
            pts.add(tuple(draw() for _ in range(n)))
            guard += 1
        if len(pts) != r:
            return None
        return sorted(pts)
    # L-shape: the origin plus d-1 distinct nonzero abscissae per axis
    d = max(degree(m) for m in lm_set)
    points: list[tuple] = [tuple(zero for _ in range(n))]
    for axis in range(n):
        coords: set = set()
        guard = 0
        while len(coords) < d - 1 and guard < 50 * d:
            coords.add(draw())
            guard += 1
        if len(coords) != d - 1:
            return None
        for c in sorted(coords):
            points.append(tuple(c if k == axis else zero for k in range(n)))
    return points
