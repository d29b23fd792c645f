"""Monomials, monomial orders, enumeration, and staircase-set utilities.

A monomial is a plain tuple of non-negative exponents, most-significant
variable first; the zero tuple is the monomial 1.  The same tuple doubles as
a sequence index.  Orders are small immutable objects exposing a sort `key`;
all set utilities (stabilize/border/corners) are pure divisibility
combinatorics and take an optional order only for deterministic output
sorting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, UnsupportedOrderError

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# exponent-vector arithmetic


def degree(m: Monomial) -> int:
    return sum(m)


def mul(m1: Monomial, m2: Monomial) -> Monomial:
    if len(m1) != len(m2):
        raise ValueError(f"monomials {m1} and {m2} have different lengths")
    return tuple(map(add, m1, m2))


def divides(m1: Monomial, m2: Monomial) -> bool:
    if len(m1) != len(m2):
        raise ValueError(f"monomials {m1} and {m2} have different lengths")
    return all(map(le, m1, m2))


def quotient(m2: Monomial, m1: Monomial) -> Monomial:
    if not divides(m1, m2):
        raise ValueError(f"{m1} does not divide {m2}")
    return tuple(map(sub, m2, m1))


# ---------------------------------------------------------------------------
# orders


def _invertible(rows: tuple[tuple[Fraction, ...], ...]) -> bool:
    n = len(rows)
    a = [list(r) for r in rows]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return True


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order: DRL, LEX, or a weight-matrix order.

    `names` lists variables most-significant first; weight rows apply to the
    exponent tuple in that same layout.
    """

    kind: str  # "drl" | "lex" | "weight"
    names: tuple[str, ...]
    weights: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("drl", "lex", "weight"):
            raise ParseError(f"unknown order kind {self.kind!r}")
        if self.kind == "weight":
            if self.weights is None or len(self.weights) != self.n:
                raise ParseError("weight order needs an n-by-n matrix")
            if any(len(r) != self.n for r in self.weights):
                raise ParseError("weight matrix is not square")
            if not _invertible(self.weights):
                raise ParseError("weight matrix must be invertible")
        object.__setattr__(self, "_key_cache", {})  # not a field: eq/hash untouched

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def one(self) -> Monomial:
        return (0,) * self.n

    def variable(self, name: str) -> Monomial:
        i = self.names.index(name)
        return tuple(1 if j == i else 0 for j in range(self.n))

    @property
    def variables(self) -> list[Monomial]:
        """Variable monomials, most significant first."""
        return [self.variable(nm) for nm in self.names]

    def key(self, m: Monomial):
        cache: dict = self._key_cache  # type: ignore[attr-defined]
        k = cache.get(m)
        if k is not None:
            return k
        if self.kind == "drl":
            k = (sum(m), tuple(-e for e in reversed(m)))
        elif self.kind == "lex":
            k = m
        else:
            assert self.weights is not None
            k = tuple(
                sum(w * e for w, e in zip(row, m, strict=True)) for row in self.weights
            )
        cache[m] = k
        return k

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        k1, k2 = self.key(m1), self.key(m2)
        return (k1 > k2) - (k1 < k2)

    def lt(self, m1: Monomial, m2: Monomial) -> bool:
        return self.key(m1) < self.key(m2)

    def leq(self, m1: Monomial, m2: Monomial) -> bool:
        return self.key(m1) <= self.key(m2)

    def sort(self, monos: Iterable[Monomial]) -> list[Monomial]:
        return sorted(set(monos), key=self.key)

    def is_weight_order(self) -> bool:
        """True iff down-sets {m : m ⪯ M} are all finite (enumerable)."""
        if self.kind == "drl":
            return True
        if self.kind == "lex":
            return False
        assert self.weights is not None
        return all(w > 0 for w in self.weights[0])

    def spec_string(self) -> str:
        vars_asc = "<".join(reversed(self.names))
        if self.kind == "weight":
            assert self.weights is not None
            rows = ",".join(
                "[" + ",".join(_fmt_frac(w) for w in row) + "]" for row in self.weights
            )
            return f"weight([{rows}];{vars_asc})"
        return f"{self.kind}({vars_asc})"

    def __str__(self) -> str:
        return self.spec_string()


def _fmt_frac(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


_ORDER_RE = re.compile(r"^\s*(drl|lex)\s*\(\s*([^)]*?)\s*\)\s*$")
_WEIGHT_RE = re.compile(r"^\s*weight\s*\(\s*(\[.*\])\s*;\s*([^)]*?)\s*\)\s*$")


def _parse_vars(text: str) -> tuple[str, ...]:
    parts = [p.strip() for p in text.split("<")]
    if not parts or any(not re.fullmatch(r"[A-Za-z_]\w*", p) for p in parts):
        raise ParseError(f"bad variable list {text!r}")
    if len(set(parts)) != len(parts):
        raise ParseError(f"repeated variable in {text!r}")
    return tuple(reversed(parts))  # spec lists ascending; store significant-first


def parse_order(spec: str) -> MonomialOrder:
    """Parse "drl(y<x)", "lex(z<y<x)", or "weight([[1,1],[0,-1]];y<x)"."""
    m = _ORDER_RE.match(spec)
    if m:
        return MonomialOrder(kind=m.group(1), names=_parse_vars(m.group(2)))
    m = _WEIGHT_RE.match(spec)
    if m:
        names = _parse_vars(m.group(2))
        body = m.group(1).strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"bad weight matrix in {spec!r}")
        rows: list[tuple[Fraction, ...]] = []
        for row_text in re.findall(r"\[([^\[\]]*)\]", body[1:-1]):
            try:
                rows.append(
                    tuple(Fraction(tok.strip()) for tok in row_text.split(",") if tok.strip())
                )
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad weight row [{row_text}] in {spec!r}") from exc
        return MonomialOrder(kind="weight", names=names, weights=tuple(rows))
    raise ParseError(f"bad order spec {spec!r}")


# ---------------------------------------------------------------------------
# monomial text form ("x^2*y")


def parse_monomial(text: str, ord: MonomialOrder) -> Monomial:
    body = text.strip()
    if body == "1":
        return ord.one
    exps = [0] * ord.n
    for factor in body.split("*"):
        factor = factor.strip()
        m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(\d+))?", factor)
        if m is None:
            raise ParseError(f"bad monomial factor {factor!r} in {text!r}")
        name, power = m.group(1), int(m.group(2) or 1)
        if name not in ord.names:
            raise ParseError(f"unknown variable {name!r} in {text!r}")
        exps[ord.names.index(name)] += power
    return tuple(exps)


def format_monomial(m: Monomial, ord: MonomialOrder) -> str:
    parts = [
        nm if e == 1 else f"{nm}^{e}"
        for nm, e in zip(ord.names, m, strict=True)
        if e > 0
    ]
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# successor / enumeration


def successor(m: Monomial, ord: MonomialOrder) -> Monomial:
    """The ≺-least monomial strictly greater than m (weight orders only)."""
    if not ord.is_weight_order():
        raise UnsupportedOrderError(
            f"{ord} has infinite down-sets; successor is not enumerable"
        )
    if ord.kind == "drl":
        return _drl_successor(m)
    return _weight_successor(m, ord)


def _drl_successor(m: Monomial) -> Monomial:
    # Within a degree block, ascending DRL is descending lex on the reversed
    # tuple r = (e_least, ..., e_most): decrement the last decreasable slot
    # and pile the freed mass immediately after it.
    r = list(reversed(m))
    n = len(r)
    j = next((i for i in range(n - 2, -1, -1) if r[i] > 0), None)
    if j is None:
        nxt = [0] * n
        nxt[0] = sum(m) + 1  # next degree block starts at least-variable^(D+1)
        return tuple(reversed(nxt))
    freed = sum(r[j + 1 :]) + 1
    r[j] -= 1
    for i in range(j + 1, n):
        r[i] = 0
    r[j + 1] = freed
    return tuple(reversed(r))


def _weight_successor(m: Monomial, ord: MonomialOrder) -> Monomial:
    assert ord.weights is not None
    w1 = ord.weights[0]
    bound = sum(w * e for w, e in zip(w1, m, strict=True)) + min(w1)
    key_m = ord.key(m)
    best: Monomial | None = None
    box = [int(bound / w) for w in w1]

    def rec(i: int, prefix: list[int], remaining: Fraction) -> None:
        nonlocal best
        if i == len(w1):
            cand = tuple(prefix)
            if ord.key(cand) > key_m and (best is None or ord.lt(cand, best)):
                best = cand
            return
        for e in range(int(remaining / w1[i]) + 1):
            if e > box[i]:
                break
            rec(i + 1, prefix + [e], remaining - w1[i] * e)

    rec(0, [], Fraction(bound))
    assert best is not None, "weight order successor search box was empty"
    return best


def iter_up_to(M: Monomial, ord: MonomialOrder) -> Iterator[Monomial]:
    """Lazily yield all monomials ⪯ M in ascending order."""
    if not ord.is_weight_order():
        # LEX keeps a finite down-set only below powers of the least variable.
        least = ord.variable(ord.names[-1])
        if any(e for e in M[:-1]):
            raise UnsupportedOrderError(
                f"{ord} cannot enumerate below {M}: the down-set is infinite"
            )
        t = ord.one
        while ord.leq(t, M):
            yield t
            t = mul(t, least)
        return
    t = ord.one
    while ord.leq(t, M):
        yield t
        t = successor(t, ord)


def enumerate_up_to(M: Monomial, ord: MonomialOrder) -> list[Monomial]:
    """All monomials ⪯ M, ascending; finite for weight orders."""
    return list(iter_up_to(M, ord))


# ---------------------------------------------------------------------------
# staircase-set utilities (pure divisibility; ord only fixes output sorting)


def _canonical_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def _sorted(monos: Iterable[Monomial], ord: MonomialOrder | None) -> list[Monomial]:
    key = ord.key if ord is not None else _canonical_key
    return sorted(set(monos), key=key)


def stabilize(S: Iterable[Monomial], ord: MonomialOrder | None = None) -> list[Monomial]:
    """Divisor closure: the smallest divisibility-stable superset of S."""
    closed: set[Monomial] = set()
    frontier = list(set(S))
    while frontier:
        m = frontier.pop()
        if m in closed:
            continue
        closed.add(m)
        for i, e in enumerate(m):
            if e > 0:
                frontier.append(m[:i] + (e - 1,) + m[i + 1 :])
    return _sorted(closed, ord)


def is_stable(S: Iterable[Monomial]) -> bool:
    have = set(S)
    return all(
        m[:i] + (e - 1,) + m[i + 1 :] in have
        for m in have
        for i, e in enumerate(m)
        if e > 0
    )


def min_divisibility(S: Iterable[Monomial], ord: MonomialOrder | None = None) -> list[Monomial]:
    elems = list(set(S))
    mins = [
        m
        for m in elems
        if not any(divides(o, m) for o in elems if o != m)
    ]
    return _sorted(mins, ord)


def max_divisibility(S: Iterable[Monomial], ord: MonomialOrder | None = None) -> list[Monomial]:
    """The corner set: divisibility-maximal elements of S."""
    elems = list(set(S))
    maxs = [
        m
        for m in elems
        if not any(divides(m, o) for o in elems if o != m)
    ]
    return _sorted(maxs, ord)


def border(S: Sequence[Monomial], ord: MonomialOrder | None = None) -> list[Monomial]:
    """Divisibility-minimal monomials outside a stable S (candidate LMs).

    Every such t is some s·x_i with s in S, and t is minimal exactly when
    each t/x_j lies in S: O(|S|·n²) instead of a pairwise minimality test.
    """
    elems = set(S)
    if not elems:
        return [(0,) * _infer_n(ord)]
    assert is_stable(elems), "border requires a divisor-stable set"
    n = len(next(iter(elems)))
    seen: set[Monomial] = set()
    out = []
    for m in elems:
        for i in range(n):
            t = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if t in elems or t in seen:
                continue
            seen.add(t)
            if all(t[:j] + (e - 1,) + t[j + 1 :] in elems for j, e in enumerate(t) if e):
                out.append(t)
    return _sorted(out, ord)


def _infer_n(ord: MonomialOrder | None) -> int:
    if ord is None:
        raise ValueError("cannot infer dimension for an empty set without an order")
    return ord.n
