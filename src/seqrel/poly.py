"""Sparse multivariate polynomials over a coefficient field.

Polynomials map exponent tuples to nonzero field elements.  All arithmetic
flows through field-element dunders, so operation counting is automatic.
Reduction (normal form) and inter-reduction use a fixed deterministic
strategy: the largest reducible monomial is rewritten first, by the divisor
with the smallest leading monomial.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import ParseError
from .field import Field, FieldElement
from .monomials import (
    Monomial,
    MonomialOrder,
    divides,
    format_monomial,
    iter_up_to,
    mul as mono_mul,
    parse_monomial,
    quotient,
)


class Poly:
    """Sparse polynomial; `terms` holds only nonzero coefficients."""

    __slots__ = ("field", "terms", "_lm_cache")

    def __init__(self, field: Field, terms: Mapping[Monomial, FieldElement] | None = None):
        self.field = field
        self.terms: dict[Monomial, FieldElement] = {
            m: c for m, c in (terms or {}).items() if c
        }
        self._lm_cache: tuple[MonomialOrder, Monomial] | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> Poly:
        return cls(field)

    @classmethod
    def monomial(cls, field: Field, m: Monomial, coeff=1) -> Poly:
        return cls(field, {m: field.elem(coeff)})

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    # -- leading data ----------------------------------------------------------

    def lm(self, ord: MonomialOrder) -> Monomial:
        cached = self._lm_cache
        if cached is not None and cached[0] is ord:
            return cached[1]
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        m = max(self.terms, key=ord.key)
        self._lm_cache = (ord, m)  # terms are never mutated after construction
        return m

    def lc(self, ord: MonomialOrder) -> FieldElement:
        return self.terms[self.lm(ord)]

    def lt(self, ord: MonomialOrder) -> tuple[Monomial, FieldElement]:
        m = self.lm(ord)
        return m, self.terms[m]

    def support(self, ord: MonomialOrder | None = None) -> list[Monomial]:
        """Support monomials, descending under `ord` when given."""
        if ord is None:
            return list(self.terms)
        return sorted(self.terms, key=ord.key, reverse=True)

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coeff(self, m: Monomial) -> FieldElement:
        return self.terms.get(m, self.field.zero)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return Poly(self.field, out)

    def __sub__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] - c
            else:
                out[m] = -c
        return Poly(self.field, out)

    def __neg__(self) -> Poly:
        return Poly(self.field, {m: -c for m, c in self.terms.items()})

    def scale(self, c: FieldElement) -> Poly:
        if not c:
            return Poly(self.field)
        return Poly(self.field, {m: coeff * c for m, coeff in self.terms.items()})

    def mul_monomial(self, m: Monomial) -> Poly:
        return Poly(self.field, {mono_mul(m, t): c for t, c in self.terms.items()})

    def monic(self, ord: MonomialOrder) -> Poly:
        if not self.terms:
            return self
        c = self.lc(ord)
        if c == self.field.one:
            return self
        return self.scale(c.inverse())


def normal_form(f: Poly, G: Iterable[Poly], ord: MonomialOrder) -> Poly:
    """Remainder of multivariate division of f by G (deterministic strategy)."""
    divisors = sorted((g for g in G if g), key=lambda g: ord.key(g.lm(ord)))
    if not divisors:
        return f
    lms = [g.lm(ord) for g in divisors]
    rem = f
    while True:
        target = None
        for m in rem.support(ord):  # descending: largest reducible first
            for i, l in enumerate(lms):
                if divides(l, m):
                    target = (m, i)
                    break
            if target:
                break
        if target is None:
            return rem
        m, i = target
        g = divisors[i]
        factor = rem.coeff(m) / g.terms[lms[i]]
        rem = rem - g.mul_monomial(quotient(m, lms[i])).scale(factor)


def inter_reduce(G: Iterable[Poly], ord: MonomialOrder) -> list[Poly]:
    """Fully inter-reduced, monic, minimal generating set (same span)."""
    work = [g for g in G if g]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            others = work[:i] + work[i + 1 :]
            r = normal_form(work[i], others, ord)
            if r != work[i]:
                changed = True
                if r:
                    work[i] = r
                else:
                    del work[i]
                break
    return sorted((g.monic(ord) for g in work), key=lambda g: ord.key(g.lm(ord)))


def staircase_of(
    G: Iterable[Poly], ord: MonomialOrder, bound: Monomial | None = None
) -> list[Monomial]:
    """Monomials under no LM(g): full staircase if zero-dimensional, else ⪯ bound."""
    lms = [g.lm(ord) for g in G if g]
    if any(m == ord.one for m in lms):
        return []
    free = lambda m: not any(divides(l, m) for l in lms)
    caps = []
    for i in range(ord.n):
        pure = [l[i] for l in lms if sum(l) == l[i]]
        caps.append(min(pure) if pure else None)
    if all(c is not None for c in caps):
        out = []
        idx = [0] * ord.n

        def walk(i: int, cur: list[int]) -> None:
            if i == ord.n:
                m = tuple(cur)
                if free(m):
                    out.append(m)
                return
            for e in range(caps[i]):
                walk(i + 1, cur + [e])

        walk(0, [])
        return ord.sort(out)
    if bound is None:
        raise ValueError(
            "staircase is infinite (no pure-power LM for some variable); "
            "supply a bound monomial"
        )
    return [m for m in iter_up_to(bound, ord) if free(m)]


# -- text / JSON forms ---------------------------------------------------------

_NUM_RE = re.compile(r"^\d+(/\d+)?$")


def parse_poly(text: str, ord: MonomialOrder, field: Field) -> Poly:
    """Parse "x*y - y - 1" style text (explicit * and ^, declared variables)."""
    body = text.strip()
    if not body:
        raise ParseError("empty polynomial text")
    chunks = body.replace("-", "+-").split("+")
    terms: dict[Monomial, FieldElement] = {}
    seen_any = False
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        seen_any = True
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = field.elem(sign)
        mono = ord.one
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _NUM_RE.match(factor):
                coeff = coeff * field.elem(factor)
            else:
                mono = mono_mul(mono, parse_monomial(factor, ord))
        terms[mono] = terms.get(mono, field.zero) + coeff
    if not seen_any:
        raise ParseError(f"no terms in {text!r}")
    return Poly(field, terms)


def format_poly(f: Poly, ord: MonomialOrder) -> str:
    if not f:
        return "0"
    from fractions import Fraction

    pieces: list[tuple[bool, str]] = []  # (negative?, unsigned text)
    one = f.field.one
    for m in f.support(ord):
        c = f.terms[m]
        negative = isinstance(c.value, Fraction) and c.value < 0
        mag = -c if negative else c
        mono_txt = format_monomial(m, ord)
        if m == ord.one:
            txt = str(mag)
        elif mag == one:
            txt = mono_txt
        else:
            txt = f"{mag}*{mono_txt}"
        pieces.append((negative, txt))
    first_neg, first_txt = pieces[0]
    out = ("-" if first_neg else "") + first_txt
    for negative, txt in pieces[1:]:
        out += (" - " if negative else " + ") + txt
    return out


def poly_to_json(f: Poly, ord: MonomialOrder) -> list[dict[str, str]]:
    return [
        {"monomial": format_monomial(m, ord), "coefficient": str(f.terms[m])}
        for m in f.support(ord)
    ]
