"""Exact coefficient arithmetic (prime fields and Q) with operation counting.

Field elements are immutable; every arithmetic dunder reports to the active
`OpCounter` stack, so algorithm-level operation counts fall out of ordinary
expressions.  Every outside scalar enters through one parser, `Field.elem`;
a backend only turns an int or a `Fraction` into a raw value (`_coerce`).

Kernels skip the boxing: they keep raw values (an int in [0, p) over F_p, an
int or a `Fraction` over Q, or an int in a vector that stands for itself up
to a nonzero factor), combine them through the uncounted raw methods of
their `Field`, and report in bulk through `count_mults` and friends what the
same `FieldElement` arithmetic would count.  So this module alone decides how
a raw value is reduced, inverted and combined; only hankel's elimination
backends (a numpy array of residues for every F_p, int64 or Python ints by
the size of p, and integer rows for Q) and sequences' instance samplers
keep a path of their own per field kind.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Collection, Iterable, Iterator

from .errors import FieldMismatchError, ParseError


@dataclass
class OpCounter:
    """Field-operation tally; multiplications + inversions = "basic" count."""

    additions: int = 0
    multiplications: int = 0
    inversions: int = 0

    @property
    def basic(self) -> int:
        return self.multiplications + self.inversions

    def as_dict(self) -> dict[str, int]:
        return {
            "additions": self.additions,
            "multiplications": self.multiplications,
            "inversions": self.inversions,
        }


_active = threading.local()


def _counters() -> list[OpCounter]:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = []
        _active.stack = stack
    return stack


@contextmanager
def counting(ops: OpCounter) -> Iterator[OpCounter]:
    """Route this thread's field operations into `ops` (stackable)."""
    _counters().append(ops)
    try:
        yield ops
    finally:
        _counters().pop()


@contextmanager
def counting_paused() -> Iterator[None]:
    """Suspend all active counters (table setup and verification are free)."""
    stack = _counters()
    saved = stack[:]
    del stack[:]
    try:
        yield
    finally:
        stack[:] = saved


def count_adds(n: int = 1) -> None:
    for ops in _counters():
        ops.additions += n


def count_mults(n: int = 1) -> None:
    for ops in _counters():
        ops.multiplications += n


def count_invs(n: int = 1) -> None:
    for ops in _counters():
        ops.inversions += n


# Deterministic Miller-Rabin: this base set decides primality for n < 3.3e24,
# far beyond the 2^62 cap enforced below.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """Immutable scalar tied to its field; dunders count operations."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: FieldElement) -> None:
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        count_adds()
        return FieldElement(self.field, self.field._add(self.value, other.value))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        count_adds()
        return FieldElement(self.field, self.field._sub(self.value, other.value))

    def __neg__(self):
        count_adds()
        return FieldElement(self.field, self.field._neg(self.value))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        count_mults()
        return FieldElement(self.field, self.field._mul(self.value, other.value))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by the zero field element")
        count_invs()
        count_mults()
        return FieldElement(
            self.field, self.field._mul(self.value, self.field._inv(other.value))
        )

    def inverse(self) -> FieldElement:
        if not self:
            raise ZeroDivisionError("inverse of the zero field element")
        count_invs()
        return FieldElement(self.field, self.field._inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __str__(self) -> str:
        return str(self.value)

    __repr__ = __str__


class Field:
    """Backend base: `elem` parses a scalar (an element of this field, an int,
    a `Fraction`, or text read as a `Fraction`) and each subclass supplies
    `_coerce` (an int or a `Fraction` as a raw value) and the raw (uncounted)
    arithmetic: `_add`, `_sub`, `_neg`, `_mul`, `_inv` on scalars, `_dot`
    (Σ x·y), `_scale` ([x·c]) and `_sub_scaled` ([x − c·y]) on vectors,
    `_sub_into` (out[k] −= c·y in place, a new key last, a zero deleted), and
    `_primitive`, which gives an integer term dict up to a nonzero factor in
    its smallest form: as it is over F_p, divided by its content over Q."""

    def elem(self, value) -> FieldElement:
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):  # ints first: the hot path
            return FieldElement(self, self._coerce(value))
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"{value.field} element given to {self}")
            return value
        if isinstance(value, str):
            try:
                return FieldElement(self, self._coerce(Fraction(value.strip())))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"cannot parse {value!r} as an element of {self}") from exc
        raise TypeError(f"cannot coerce {type(value).__name__} into {self}")

    def _primitive(self, terms: dict) -> dict:
        return terms

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one


class FpField(Field):
    """Prime field F_p, canonical representatives in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= 1 << 62:
            raise ParseError(f"prime must be an integer < 2^62, got {p!r}")
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self._zero = FieldElement(self, 0)
        self._one = FieldElement(self, 1 % p)

    def _coerce(self, value: int | Fraction) -> int:
        if isinstance(value, int):
            return value % self.p
        return value.numerator % self.p * pow(value.denominator, -1, self.p) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _dot(self, xs: Collection, ys: Collection) -> int:
        return sum(map(mul, xs, ys)) % self.p

    def _scale(self, xs: Iterable, c) -> list:
        p = self.p
        return [x * c % p for x in xs]

    def _sub_scaled(self, xs: Iterable, ys: Iterable, c) -> list:
        p = self.p
        return [(x - c * y) % p for x, y in zip(xs, ys)]

    def _sub_into(self, out: dict, keys: Iterable, ys: Iterable, c) -> None:
        p, get = self.p, out.get
        for k, y in zip(keys, ys):
            a = (get(k, 0) - c * y) % p
            if a:
                out[k] = a
            else:
                del out[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, FpField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __str__(self) -> str:
        return f"Fp:{self.p}"

    __repr__ = __str__


class QField(Field):
    """The rationals, on top of Fraction (lowest terms, positive denominator)."""

    def __init__(self):
        self._zero = FieldElement(self, Fraction(0))
        self._one = FieldElement(self, Fraction(1))

    def _coerce(self, value: int | Fraction) -> Fraction:
        return Fraction(value)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return Fraction(1) / a

    def _dot(self, xs: Collection, ys: Collection) -> int | Fraction:
        """A plain int sum when both sides hold only ints (`index` rejects a
        `Fraction`); else one `Fraction` built at the end over the lcm L of
        the denominator products, Σ x.num·y.num·(L // (x.den·y.den)), instead
        of a gcd per term.  The empty dot is `Fraction(0)`."""
        if xs:
            try:
                return sum(map(mul, map(index, xs), map(index, ys)))
            except TypeError:
                pass
        nums = [x.numerator * y.numerator for x, y in zip(xs, ys)]
        dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
        den = lcm(*dens)
        return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)

    def _scale(self, xs: Iterable, c) -> list:
        return [x * c for x in xs]

    def _sub_scaled(self, xs: Iterable, ys: Iterable, c) -> list:
        return [x - c * y for x, y in zip(xs, ys)]

    def _sub_into(self, out: dict, keys: Iterable, ys: Iterable, c) -> None:
        get = out.get
        for k, y in zip(keys, ys):
            a = get(k, 0) - c * y
            if a:
                out[k] = a
            else:
                del out[k]

    def _primitive(self, terms: dict) -> dict:
        g = gcd(*terms.values())
        return {m: a // g for m, a in terms.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, QField)

    def __hash__(self) -> int:
        return hash("Q")

    def __str__(self) -> str:
        return "Q"

    __repr__ = __str__


QQ = QField()


def parse_field(spec: str) -> Field:
    """Parse a field spec string: "Q" or "Fp:<prime>" (e.g. "Fp:65537")."""
    text = spec.strip()
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError as exc:
            raise ParseError(f"bad field spec {spec!r}") from exc
        return FpField(p)
    raise ParseError(f"bad field spec {spec!r} (expected 'Q' or 'Fp:<prime>')")
