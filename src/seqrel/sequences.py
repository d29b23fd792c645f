"""Sequence oracles: built-in generators, finite tables, ideal-driven
sequences, bracket evaluation, and distinct-query counting.

An oracle memoizes values and counts *distinct* indices fetched by callers;
provider-internal work runs with operation counting paused, so only the
algorithms' own field arithmetic is ever tallied.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable

from .errors import (
    BoundExceededError,
    FieldMismatchError,
    ParseError,
    PositiveDimensionError,
    SeqrelError,
)
from .field import (
    Field,
    FieldElement,
    FpField,
    QQ,
    count_adds,
    count_mults,
    counting_paused,
    parse_field,
)
from .hankel import build, column_rank_profile, solve_tails
from .monomials import (
    Monomial,
    MonomialOrder,
    border,
    degree,
    divides,
    enumerate_up_to,
    mul as mono_mul,
    quotient,
)
from .poly import Poly, Terms, staircase_of, unbox

Index = tuple[int, ...]


class SequenceOracle:
    """Memoized u_i provider with a distinct-index query counter."""

    def __init__(
        self,
        n: int,
        field: Field,
        provider: Callable[[Index], FieldElement],
        name: str = "custom",
    ):
        self.n = n
        self.field = field
        self.name = name
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
        i = tuple(int(v) for v in index)
        if len(i) != self.n or any(v < 0 for v in i):
            raise ValueError(f"bad index {i} for a {self.n}-dimensional sequence")
        with self._lock:
            self._queried.add(i)
            value = self._values.get(i)
            if value is None:
                with counting_paused():
                    value = self._provider(i)
                self._values[i] = value
            return value


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
    reads: PackedReads | None = None,
) -> FieldElement:
    """[shift·f] = Σ_k α_k · u_{k + shift}, one dot product on raw values.

    `f` is a `Poly` or a raw term dict; with `reads`, its monomials and the
    shift are codes read through that memo.  Counted like the `FieldElement`
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
    return field.elem(field._dot(terms.values(), values))


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
    return SequenceOracle(n, field, lambda i: field.elem(fn(i)), name=name)


# ---------------------------------------------------------------------------
# finite tables


def table_oracle(
    field: Field, shape: tuple[int, ...], entries: list, name: str = "table"
) -> SequenceOracle:
    dims = tuple(int(s) for s in shape)
    size = math.prod(dims)
    if len(entries) != size:
        raise ParseError(f"table needs {size} entries for shape {dims}, got {len(entries)}")
    values = [field.elem(e) for e in entries]

    def provider(i: Index) -> FieldElement:
        if any(v >= s for v, s in zip(i, dims, strict=True)):
            raise BoundExceededError(i, dims)
        flat = 0
        for v, s in zip(i, dims, strict=True):
            flat = flat * s + v
        return values[flat]

    return SequenceOracle(len(dims), field, provider, name=name)


def table_from_json(data: dict, field: Field | None = None) -> SequenceOracle:
    if not isinstance(data, dict):
        raise ParseError(f"table JSON must be an object, got {type(data).__name__}")
    try:
        fld = field if field is not None else parse_field(data["field"])
        return table_oracle(fld, tuple(data["shape"]), list(data["entries"]))
    except KeyError as exc:
        raise ParseError(f"table JSON missing key {exc}") from exc
    except TypeError as exc:  # e.g. a shape or an entry that is not a number
        raise ParseError(f"malformed table JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# sequences defined by an ideal plus initial conditions


@dataclass
class IdealSequenceSpec:
    gb: list[Poly]
    ord: MonomialOrder
    initial: dict[Monomial, FieldElement]


def from_ideal(spec: IdealSequenceSpec) -> SequenceOracle:
    ord = spec.ord
    field = spec.gb[0].field if spec.gb else QQ
    try:
        staircase = staircase_of(spec.gb, ord)
    except ValueError as exc:
        raise PositiveDimensionError(str(exc)) from exc
    if set(spec.initial) != set(staircase):
        raise SeqrelError(
            f"initial values must cover exactly the staircase "
            f"({len(staircase)} monomials), got {len(spec.initial)}"
        )
    # monic rewrite rules LM -> -tail (raw coefficients), divisor chosen by
    # ascending LM
    rules: list[tuple[Monomial, list[Monomial], list]] = []
    with counting_paused():
        for g in sorted(spec.gb, key=lambda g: ord.key(g.lm(ord))):
            gm = g.monic(ord)
            lm = gm.lm(ord)
            tail = [m for m in gm.terms if m != lm]
            rules.append((lm, tail, [field._neg(gm.terms[m].value) for m in tail]))
    stair_set = set(staircase)
    values: dict[Index, FieldElement] = {}

    def provider(i: Index) -> FieldElement:
        # iterative rewrite: resolve dependencies with an explicit stack
        # (each dependency is strictly ≺, so this terminates)
        stack = [i]
        while stack:
            cur = stack[-1]
            if cur in values:
                stack.pop()
                continue
            if cur in stair_set:
                values[cur] = spec.initial[cur]
                stack.pop()
                continue
            lm, tail, coeffs = next(r for r in rules if divides(r[0], cur))
            q = quotient(cur, lm)
            deps = [mono_mul(m, q) for m in tail]
            missing = [d for d in deps if d not in values]
            if missing:
                stack.extend(missing)
                continue
            raw = field._dot(coeffs, [values[d].value for d in deps])
            values[cur] = FieldElement(field, raw)
            stack.pop()
        return values[i]

    return SequenceOracle(ord.n, field, provider, name="ideal")


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


def _point_eval_oracle(
    field: Field,
    points: list[tuple],
    weights: list[FieldElement],
    n: int,
) -> SequenceOracle:
    """u_i = Σ_k w_k · Π_j b_kj^{i_j} over the points b_k, on raw values: the
    prefix w_k · Π_{j<n-1} b_kj^{i_j}, memoized by i[:-1], dotted with row i[-1]
    of the last axis's power table `powers[j][e][k] = b_kj^e` (row 0 all ones,
    so 0^0 = 1).  Tables grow lazily in this closure, shared with the oracle's
    `_clone_oracle` copies; only the `SequenceOracle` memoizes u_i and counts it.
    """
    p = field.p if isinstance(field, FpField) else None
    ws = [w.value for w in weights]
    if p is None:
        # integer powers of the integer points, over one common denominator
        den = math.lcm(*(w.denominator for w in ws))
        ws = [w.numerator * (den // w.denominator) for w in ws]
    powers = [[[1] * len(points), [pt[j] for pt in points]] for j in range(n)]
    prefixes: dict[Index, list[int]] = {}

    def times(u: list[int], v: list[int]) -> list[int]:
        return [a * b % p for a, b in zip(u, v)] if p else list(map(mul, u, v))

    def power_row(j: int, e: int) -> list[int]:
        rows = powers[j]
        while len(rows) <= e:
            rows.append(times(rows[-1], rows[1]))
        return rows[e]

    def provider(i: Index) -> FieldElement:
        head = i[:-1]
        prefix = prefixes.get(head)
        if prefix is None:
            prefix = ws
            for j, e in enumerate(head):
                prefix = times(prefix, power_row(j, e))
            prefixes[head] = prefix
        total = sum(map(mul, prefix, power_row(n - 1, i[-1])))
        return FieldElement(field, total % p if p else Fraction(total, den))

    return SequenceOracle(n, field, provider, name="points")


def _gb_from_profile(
    oracle: SequenceOracle, S: list[Monomial], ord: MonomialOrder
) -> list[Poly] | None:
    """Solve the border relations over a staircase S; None if H_{S,S} is singular."""
    with counting_paused():
        tails = solve_tails(oracle, S, border(ord.sort(S), ord), ord)
    return None if tails is None else list(tails.values())


def _nonsingular(oracle: SequenceOracle, S: list[Monomial], ord: MonomialOrder) -> bool:
    """Whether H_{S,S} has full rank, i.e. `_gb_from_profile` would succeed."""
    with counting_paused():
        return column_rank_profile(build(oracle, S, S, ord))[0] == len(S)


def random_from_lms(
    lms: list[Monomial],
    ord: MonomialOrder,
    field: Field,
    seed: int,
    _attempts: int = 32,
) -> tuple[SequenceOracle, list[Poly]]:
    """A random sequence whose relation ideal has exactly these LMs.

    Returns a fresh oracle (empty memo and counter) plus the reduced basis.
    Degenerate draws (rank-deficient H over the intended staircase) reseed
    deterministically.
    """
    lm_set = sorted(set(lms), key=ord.key)
    staircase = staircase_of([Poly.monomial(field, m) for m in lm_set], ord)
    if not staircase and ord.one not in lm_set:
        raise SeqrelError("leading monomials do not close a staircase")
    for attempt in range(_attempts):
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
        fresh = _clone_oracle(oracle)
        return fresh, gb
    raise SeqrelError(
        f"could not build a non-degenerate sequence for LMs {lm_set} in {_attempts} draws"
    )


def _clone_oracle(oracle: SequenceOracle) -> SequenceOracle:
    return SequenceOracle(oracle.n, oracle.field, oracle._provider, name=oracle.name)


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
        weights = [_rand_elem(field, rng, nonzero=True) for _ in points]
        return _point_eval_oracle(field, points, weights, n), None

    # random staircase-supported tails plus random initials; pairwise-coprime
    # pure powers give a basis outright, any other set is verified
    gb = []
    with counting_paused():
        for m in lm_set:
            terms = {m: field.one}
            for s in staircase:
                if ord.lt(s, m) and rng.random() < 0.6:
                    c = _rand_elem(field, rng)
                    if c:
                        terms[s] = c
            gb.append(Poly(field, terms))
        initial = {s: _rand_elem(field, rng) for s in staircase}
        oracle = from_ideal(IdealSequenceSpec(gb, ord, initial))
        if is_pure_powers:
            return oracle, gb
        bound = 6
        for g in gb:
            for m in enumerate_up_to((bound,) + (0,) * (n - 1), ord):
                if bracket(oracle, g, m):
                    return None, None
    return oracle, gb


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
