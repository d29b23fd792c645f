"""Monomials, monomial orders, enumeration, and staircase-set utilities.

A monomial is a plain tuple of non-negative exponents, most-significant
variable first; the zero tuple is the monomial 1.  The same tuple doubles as
a sequence index.  Orders are small immutable objects exposing a sort `key`.
`enumerate_up_to` lists the down-set of a bound under any well-order, from a
box of per-variable exponent caps, and refuses a bound whose down-set is
infinite.  The set utilities (stabilize/border) are pure divisibility
combinatorics and take the order only to sort their output.  Inside a BMS or
rank scan a monomial is one int (`Packing`), and `grow_staircase` grows the
scan's packed staircase and border; tuples stay the format at every
boundary: results, traces, oracle indices, JSON and the table solvers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, le, mul as _times, sub
from typing import Iterable, Sequence

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
        # not fields, so eq/hash are untouched
        object.__setattr__(self, "_key_cache", {})
        object.__setattr__(self, "_rows", _integer_rows(self))

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
        if k is None:
            k = cache[m] = tuple(sum(map(_times, row, m)) for row in self._rows)  # type: ignore[attr-defined]
        return k

    def lt(self, m1: Monomial, m2: Monomial) -> bool:
        return self.key(m1) < self.key(m2)

    def sort(self, monos: Iterable[Monomial]) -> list[Monomial]:
        return sorted(set(monos), key=self.key)

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


def _integer_rows(ord: MonomialOrder) -> list[list[int]]:
    """Integer rows R such that comparing R·e lexicographically is `ord`:
    DRL's partial sums (e_1+...+e_n, ..., e_1), the identity for lex, and a
    weight order's rows scaled to integers."""
    n = ord.n
    if ord.kind != "weight":
        return [[int(i < n - k if ord.kind == "drl" else i == k) for i in range(n)] for k in range(n)]
    return [[int(w * lcm(*(v.denominator for v in row))) for w in row] for row in ord.weights or ()]


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
        rows: list[tuple[Fraction, ...]] = []
        for row_text in re.findall(r"\[([^\[\]]*)\]", m.group(1)[1:-1]):  # the group is [...]
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
# enumeration


def _down_set_box(M: Monomial, ord: MonomialOrder) -> tuple[list[list[int]], list[int | None]]:
    """W = `_nonnegative_rows(ord)` and the box of M's down-set: per variable,
    one more than the largest k with x_i^k ⪯ M, so the down-set lies in e < box
    and its border in e ≤ box.  The entry is None, no largest k, exactly when
    W·M is nonzero in a row above x_i's first nonzero weight."""
    W = _nonnegative_rows(ord)
    WM = [sum(map(_times, row, M)) for row in W]
    key_M = ord.key(M)
    box: list[int | None] = []
    for i, x in enumerate(ord.variables):
        r = next(r for r, row in enumerate(W) if row[i])
        k = WM[r] // W[r][i]
        box.append(None if any(WM[:r]) else k + (ord.key(tuple(k * e for e in x)) <= key_M))
    return W, box


def enumerate_up_to(M: Monomial, ord: MonomialOrder) -> list[Monomial]:
    """All monomials ⪯ M, ascending: the box of `_down_set_box`, filtered by
    the first weight row and then by the order.  Refuses an infinite down-set."""
    W, box = _down_set_box(M, ord)
    if None in box:
        raise UnsupportedOrderError(
            f"{ord} cannot enumerate below {format_monomial(M, ord)}: the down-set is infinite"
        )
    top, key_M = sum(map(_times, W[0], M)), ord.key(M)
    down = [e for e in product(*map(range, box)) if sum(map(_times, W[0], e)) <= top and ord.key(e) <= key_M]
    return sorted(down, key=ord.key)


# ---------------------------------------------------------------------------
# staircase-set utilities (pure divisibility; ord fixes the output sorting)


def stabilize(S: Iterable[Monomial], ord: MonomialOrder) -> list[Monomial]:
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
    return ord.sort(closed)


def is_stable(S: Iterable[Monomial]) -> bool:
    have = set(S)
    return all(
        m[:i] + (e - 1,) + m[i + 1 :] in have
        for m in have
        for i, e in enumerate(m)
        if e > 0
    )


def border(S: Sequence[Monomial], ord: MonomialOrder) -> list[Monomial]:
    """Divisibility-minimal monomials outside a stable S (candidate LMs).

    Every such t is some s·x_i with s in S, and t is minimal exactly when
    each t/x_j lies in S: O(|S|·n²) instead of a pairwise minimality test.
    """
    elems = set(S)
    if not elems:
        return [ord.one]
    assert is_stable(elems), "border requires a divisor-stable set"
    seen: set[Monomial] = set()
    out = []
    for m in elems:
        for i in range(ord.n):
            t = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if t in elems or t in seen:
                continue
            seen.add(t)
            if all(t[:j] + (e - 1,) + t[j + 1 :] in elems for j, e in enumerate(t) if e):
                out.append(t)
    return ord.sort(out)


# ---------------------------------------------------------------------------
# packed monomials: one int per monomial inside a run


def _nonnegative_rows(ord: MonomialOrder) -> list[list[int]]:
    """`_integer_rows(ord)`, each plus the least multiple of the sum of the
    rows above that makes it nonnegative: the same order, with W·e ≥ 0."""
    rows: list[list[int]] = []
    above = [0] * ord.n
    for row in ord._rows:  # type: ignore[attr-defined]
        if any(w < 0 and not a for w, a in zip(row, above)):
            raise UnsupportedOrderError(f"{ord} is not a well-order: some x_i < 1")
        k = max((-(w // a) for w, a in zip(row, above) if w < 0), default=0)
        rows.append([w + k * a for w, a in zip(row, above)])
        above = list(map(add, above, rows[-1]))
    return rows


class Packing:
    """One-int codes for the monomials of a scan up to `bound`: the fields
    (W·e | e) of `_nonnegative_rows`, most significant first, each `width`
    bits with a zero guard bit on top.  So the product is `+`, the quotient
    `-`, a divides b exactly when `(b - a) & mask == 0`, and a ≺ b exactly
    when code(a) < code(b).  The fields hold the bound's divisors and, when
    its down-set is finite, that down-set and its border: the first field
    W_1·e up to W_1·bound + max W_1, every other one up to its row's value at
    the corner of `_down_set_box` (the bound itself where a variable's powers
    never pass it).  A product of two of them overflows a field only when it
    is ≻ bound, and that only raises its code, so code(v) + code(t) ≤
    code(bound) decides v·t ⪯ bound."""

    def __init__(self, ord: MonomialOrder, bound: Monomial):
        W, box = _down_set_box(bound, ord)
        corner = [e if b is None else b for b, e in zip(box, bound)]
        self._rows = W + ord.variables
        first = sum(map(_times, W[0], bound)) + max(W[0])
        cap = max(first, *(sum(map(_times, row, corner)) for row in self._rows[1:]))
        self.width = cap.bit_length() + 1
        self.mask = sum(1 << (k * self.width + self.width - 1) for k in range(len(self._rows)))
        self.variables = [self.pack(u) for u in ord.variables]

    def pack(self, m: Monomial) -> int:
        code = 0
        for row in self._rows:
            f = sum(map(_times, row, m))
            if f >> (self.width - 1):
                raise ValueError(f"{m} does not fit this packing")
            code = code << self.width | f
        return code

    def unpack(self, code: int) -> Monomial:
        w = self.width
        return tuple((code >> k * w) & ((1 << w - 1) - 1) for k in reversed(range(len(self.variables))))


def grow_staircase(pk: Packing, staircase: set[int], border: set[int], new: Iterable[int]) -> list[int]:
    """Close a packed staircase under divisors of the codes `new` and grow its
    border, in place; return the codes the staircase gained, ascending.  The
    border loses them and gains each t = a·x_i outside the staircase whose
    every t/x_j lies in it."""
    mask, xs = pk.mask, pk.variables
    added = []
    frontier = list(new)
    while frontier:
        c = frontier.pop()
        if c not in staircase:
            staircase.add(c)
            added.append(c)
            frontier += [c - x for x in xs if not (c - x) & mask]
    border.difference_update(added)
    outside = {a + x for a in added for x in xs} - staircase
    border.update(t for t in outside if all(t - x in staircase for x in xs if not (t - x) & mask))
    return sorted(added)
