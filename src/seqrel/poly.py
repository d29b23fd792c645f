"""Sparse multivariate polynomials over a coefficient field.

Polynomials map exponent tuples to nonzero field elements.  `Poly`
arithmetic flows through field-element dunders, so operation counting is
automatic.  The kernels below work on raw term dicts: they do their
arithmetic through the raw methods of the `Field` they are given and count
in bulk what the same `Poly` arithmetic counts.  Inter-reduction uses a
fixed deterministic strategy: the largest reducible monomial is rewritten
first, by the divisor with the smallest leading monomial.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, Iterable, Mapping

from .errors import ParseError
from .field import Field, FieldElement, FpField, count_adds, count_invs, count_mults
from .monomials import (
    Monomial,
    MonomialOrder,
    Packing,
    divides,
    format_monomial,
    mul as mono_mul,
    parse_monomial,
)


class Poly:
    """Sparse polynomial; `terms` holds only nonzero coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Mapping[Monomial, FieldElement] | None = None):
        self.field = field
        self.terms: dict[Monomial, FieldElement] = {
            m: c for m, c in (terms or {}).items() if c
        }

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    # -- leading data ----------------------------------------------------------

    def lm(self, ord: MonomialOrder) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=ord.key)

    def lc(self, ord: MonomialOrder) -> FieldElement:
        return self.terms[self.lm(ord)]

    def support(self, ord: MonomialOrder | None = None) -> list[Monomial]:
        """Support monomials, descending under `ord` when given."""
        if ord is None:
            return list(self.terms)
        return sorted(self.terms, key=ord.key, reverse=True)

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

    def monic(self, ord: MonomialOrder) -> Poly:
        if not self.terms:
            return self
        c = self.lc(ord)
        if c == self.field.one:
            return self
        return self.scale(c.inverse())


# -- raw term dicts ------------------------------------------------------------
#
# Kernels keep polynomials as raw term dicts (monomial -> int mod p, or an
# int or a Fraction over Q; never a zero value) and count in bulk exactly what
# the same `Poly` arithmetic counts through the `FieldElement` dunders.

Terms = dict  # Monomial -> raw value


def unbox(f: Poly) -> Terms:
    return {m: c.value for m, c in f.terms.items()}


def box(field: Field, terms: Terms, unpack: Callable[[int], Monomial] | None = None) -> Poly:
    return Poly(field, {unpack(m) if unpack else m: FieldElement(field, c) for m, c in terms.items()})


def raw_inverse(a, field: Field):
    """1/a, counted as one inversion."""
    count_invs(1)
    return field._inv(a)


def raw_monic(terms: Terms, lm: Monomial, field: Field) -> Terms:
    """`Poly.monic`: free when the leading coefficient is already 1, else
    one inversion and |terms| multiplications."""
    c = terms[lm]
    if c == field.one.value:
        return terms
    count_mults(len(terms))
    return dict(zip(terms, field._scale(terms.values(), raw_inverse(c, field))))


def raw_sub_shifted(terms: Terms, shifted: Iterable, h: Terms, c, field: Field) -> None:
    """terms −= c·(nu·h) in place for a nonzero c, where `shifted` gives nu·t
    for the terms t of h in h's order (tuples, or packed codes inside BMS).
    Counted like `Poly.scale` then `Poly.__sub__`: |h| multiplications and |h|
    additions; zeros dropped, term order as `Poly.__sub__` leaves it."""
    count_mults(len(h))
    count_adds(len(h))
    field._sub_into(terms, shifted, h.values(), c)


def _raw_normal_form(
    f: Terms,
    find: Callable[[Monomial], tuple[Monomial, Terms] | None],
    ord: MonomialOrder | Packing,
    field: Field,
) -> Terms:
    """Remainder of f on raw dicts, rewriting its largest reducible term
    first.  `find(t)` gives the smallest-LM divisor of t as (LM, terms), or
    None.  Returns f itself when nothing reduces, else a new dict."""
    key = ord.key
    reducer: dict[Monomial, tuple[Monomial, Terms] | None] = {}
    rem = f
    while True:
        m = None  # the largest reducible term
        for t in rem:
            if t not in reducer:
                reducer[t] = find(t)
            if reducer[t] is not None and (m is None or key(t) > key(m)):
                m = t
        if m is None:
            return rem
        lm, g = reducer[m]
        count_mults(1)  # rem[m] / lc(g): one inversion, one multiplication
        factor = field._mul(rem[m], raw_inverse(g[lm], field))
        q = ord.quotient(m, lm)
        if rem is f:
            rem = dict(f)
        raw_sub_shifted(rem, [ord.mul(q, t) for t in g], g, factor, field)


def _lm(terms: Terms, ord: MonomialOrder | Packing) -> Monomial:
    return max(terms, key=ord.key)


def inter_reduce(G: Iterable, ord: MonomialOrder | Packing, field: Field | None = None) -> list[Poly]:
    """Fully inter-reduced, monic, minimal generating set (same span).

    Each pass reduces work[i] by all the others.  Whether a polynomial
    reduces depends only on the others' LMs, so the pass goes on after a
    change that keeps the LM and restarts after an LM change or a vanished
    polynomial; which positions' LMs divide a monomial is remembered until then.

    With a BMS run's `Packing` for `ord`, G holds monic raw term dicts over
    `field` on its codes, reduced on them (divides by `mask`, product `+`,
    order `<`); the Polys, their term order and the counts are the tuple run's.
    """
    polys = [g for g in G if g]
    if not polys:
        return []
    if field is None:
        field, polys = polys[0].field, [unbox(g) for g in polys]
    work = [(_lm(g, ord), g) for g in polys]
    divisible: dict[Monomial, list[int]] = {}  # positions whose LM divides, ascending LM

    def find(t: Monomial):
        js = divisible.get(t)
        if js is None:
            js = divisible[t] = [j for j in ranked if ord.divides(work[j][0], t)]
        return next((work[j] for j in js if j != i), None)

    i = 0
    while i < len(work):
        if i == 0:
            divisible.clear()
            ranked = sorted(range(len(work)), key=lambda j: ord.key(work[j][0]))
        lm, g = work[i]
        r = _raw_normal_form(g, find, ord, field)
        if r is g or r and _lm(r, ord) == lm:
            work[i] = (lm, r)
            i += 1
            continue
        if r:
            work[i] = (_lm(r, ord), r)
        else:
            del work[i]
        i = 0
    work.sort(key=lambda d: ord.key(d[0]))
    unpack = ord.unpack if isinstance(ord, Packing) else None
    return [box(field, raw_monic(g, lm, field), unpack) for lm, g in work]


def staircase_of(G: Iterable[Poly], ord: MonomialOrder) -> list[Monomial]:
    """Monomials under no LM(g); ValueError if the staircase is infinite."""
    lms = [g.lm(ord) for g in G if g]
    if any(m == ord.one for m in lms):
        return []
    caps = []
    for i in range(ord.n):
        pure = [l[i] for l in lms if sum(l) == l[i]]
        caps.append(min(pure) if pure else None)
    if any(c is None for c in caps):
        raise ValueError("staircase is infinite (no pure-power LM for some variable)")
    return ord.sort(m for m in product(*map(range, caps)) if not any(divides(l, m) for l in lms))


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


def parse_polys(text: str, ord: MonomialOrder, field: Field) -> list[Poly]:
    """Comma-separated `parse_poly` texts, e.g. an ideal's generators."""
    return [parse_poly(t, ord, field) for t in text.split(",")]


def format_poly(f: Poly, ord: MonomialOrder) -> str:
    if not f:
        return "0"
    pieces: list[tuple[bool, str]] = []  # (negative?, unsigned text)
    one = f.field.one
    for m in f.support(ord):
        c = f.terms[m]
        negative = not isinstance(f.field, FpField) and c.value < 0
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
