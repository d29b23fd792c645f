"""Output checks that do not rely on the solvers.

Everything a solver answer is checked against is written here: the
families' generating leading monomials, the DRL order, staircase counting
and the annihilation test, which runs in exact integers mod p (numpy int64)
or in `Fraction`s over Q.  Only the published reference tables and the sequence
values (read from a freshly generated instance) come from the package.

Run `python3 perfbench/check.py` for the self-test: it shows that the
checker accepts a correct answer and rejects a perturbed coefficient and a
wrong leading monomial.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Union

import numpy as np

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def family_generators(family: str, n: int, d: int) -> list[Monomial]:
    """Minimal generators of the family's leading-monomial ideal.

    Exponent tuples list x first (then y, then z): rectangle x^d,
    y^floor(d/2) (and z^ceil(d/3)); L-shape x_i*x_j (i < j) and x_i^d;
    simplex every monomial of degree d.
    """
    def pure(i: int, e: int) -> Monomial:
        return tuple(e if k == i else 0 for k in range(n))

    if family == "rectangle":
        exps = [d, d // 2, -(-d // 3)][:n]
        return [pure(i, e) for i, e in enumerate(exps)]
    if family == "lshape":
        mixed = [
            tuple(1 if k in (i, j) else 0 for k in range(n))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return mixed + [pure(i, d) for i in range(n)]
    if family == "simplex":
        return [m for m in product(range(d + 1), repeat=n) if sum(m) == d]
    raise ValueError(f"unknown family {family!r}")


def drl_key(m: Monomial):
    """Degree first, then reverse lexicographic with x > y > z."""
    return (sum(m), tuple(-e for e in reversed(m)))


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def staircase(gens: list[Monomial]) -> list[Monomial]:
    """Monomials divisible by no generator (the generators close a box)."""
    n = len(gens[0])
    box = [max(g[i] for g in gens if sum(g) == g[i]) for i in range(n)]
    return [
        m for m in product(*(range(b) for b in box))
        if not any(divides(g, m) for g in gens)
    ]


@dataclass(frozen=True)
class Windows:
    """Degrees that fix a family point's solver inputs and read windows."""

    d_s: int  # top degree of the staircase
    d_max: int  # max(d_s, top generator degree)

    @property
    def scan(self) -> int:
        """Scan solvers run up to x^(d_s + d_max): every degree up to this."""
        return self.d_s + self.d_max

    @property
    def table(self) -> int:
        """Table solvers use T = degree <= d_max, so T*T is degree <= 2*d_max."""
        return 2 * self.d_max

    def for_algorithm(self, algo: str) -> int:
        return self.table if algo.startswith("sfglm") else self.scan


def windows(family: str, n: int, d: int) -> Windows:
    gens = family_generators(family, n, d)
    d_s = max((sum(m) for m in staircase(gens)), default=0)
    return Windows(d_s, max(d_s, max(sum(g) for g in gens)))


def monomials_up_to(deg: int, n: int) -> list[Monomial]:
    return [m for m in product(range(deg + 1), repeat=n) if sum(m) <= deg]


@dataclass
class Answer:
    """A solver result reduced to plain data: exponent tuple -> raw scalar."""

    algorithm: str
    relations: list[dict[Monomial, Scalar]]
    staircase_size: int
    queries: int
    open_relations: int = 0


@dataclass
class PointCase:
    """One family point, with the published references that apply to it."""

    family: str
    n: int
    d: int
    p: int | None  # None means Q
    ref_queries: dict[str, int] = field(default_factory=dict)  # algorithm -> count
    ref_staircase: int | None = None
    values: dict[int, np.ndarray] = field(default_factory=dict)  # top degree -> value_array


def value_array(u: Callable[[Monomial], Scalar], n: int, top: int, p: int | None) -> np.ndarray:
    """u at every index of degree <= top, in a box; zero past that degree."""
    U = np.zeros((top + 1,) * n, dtype=np.int64 if p is not None else object)
    for m in monomials_up_to(top, n):
        U[m] = u(m)
    return U


def first_nonvanishing_shift(
    rel: dict[Monomial, Scalar], U: np.ndarray, p: int | None
) -> Monomial | None:
    """Smallest-degree shift s with [s*rel] != 0 among all s whose terms stay
    inside U's degree range, or None if there is none.

    All shifts at once: the bracket at shift s is sum_m c_m * U[s + m], so the
    brackets over a box of shifts are a sum of shifted slices of U.  Mod p the
    int64 sums stay exact: terms are below p^2 < 2^33.
    """
    n, top = U.ndim, U.shape[0] - 1
    k = top - max(sum(m) for m in rel)
    acc = np.zeros((k + 1,) * n, dtype=U.dtype)
    for m, c in rel.items():
        acc = acc + (c if p is None else c % p) * U[tuple(slice(e, e + k + 1) for e in m)]
    nonzero = (acc % p != 0) if p is not None else (acc != 0)
    bad = [s for s in zip(*np.nonzero(nonzero)) if sum(s) <= k]
    return tuple(int(e) for e in min(bad, key=sum)) if bad else None


def check_answer(
    case: PointCase,
    ans: Answer,
    u: Callable[[Monomial], Scalar],
    bms_queries: int | None = None,
) -> list[str]:
    """Everything wrong with one answer; an empty list means it passed.

    `u` gives raw sequence values of a fresh instance; `bms_queries` is the
    query count `bms` reached on the same point, when it ran there.
    """
    errors: list[str] = []
    where = f"{case.family} n={case.n} d={case.d} {ans.algorithm}"
    gens = family_generators(case.family, case.n, case.d)

    lms = [max(rel, key=drl_key) for rel in ans.relations if rel]
    minimal = {m for m in lms if not any(o != m and divides(o, m) for o in lms)}
    if minimal != set(gens):
        errors.append(
            f"{where}: minimal leading monomials {sorted(minimal)} != generators {sorted(gens)}"
        )

    size = len(staircase(gens))
    if ans.staircase_size != size:
        errors.append(f"{where}: staircase size {ans.staircase_size} != {size} undivided monomials")
    if case.ref_staircase is not None and size != case.ref_staircase:
        errors.append(f"{where}: {size} undivided monomials != published {case.ref_staircase}")

    expected = case.ref_queries.get(ans.algorithm)
    if expected is not None and ans.queries != expected:
        errors.append(f"{where}: {ans.queries} queries != published {expected}")
    if ans.algorithm in ("bms-linalg", "bms-tweaked") and bms_queries is not None:
        if ans.queries != bms_queries:
            errors.append(f"{where}: {ans.queries} queries != bms's {bms_queries}")

    if ans.open_relations:
        errors.append(f"{where}: {ans.open_relations} relations left open")

    # every relation must vanish on all shifts whose terms stay within
    # degree window + 2, i.e. two degrees past what the solver could read
    top = windows(case.family, case.n, case.d).for_algorithm(ans.algorithm) + 2
    if top not in case.values:
        case.values[top] = value_array(u, case.n, top, case.p)
    for rel in ans.relations:
        if not rel:
            errors.append(f"{where}: zero relation")
            continue
        shift = first_nonvanishing_shift(rel, case.values[top], case.p)
        if shift is not None:
            lm = max(rel, key=drl_key)
            errors.append(f"{where}: relation led by {lm} fails at shift {shift}")
    return errors


def _self_test() -> int:
    """Accept a true answer; reject a perturbed coefficient and a wrong LM."""
    import bench_env

    bench_env.use_checkout_package()
    from seqrel import QQ, FamilySpec, make_family, parse_order, run_bms
    from seqrel.compare import BENCH_FIELD

    failures = 0
    for fld, p in ((BENCH_FIELD, BENCH_FIELD.p), (QQ, None)):
        case = PointCase("rectangle", 2, 4, p)
        w = windows(case.family, case.n, case.d)
        ord = parse_order("drl(y<x)")
        oracle, _, _ = make_family(FamilySpec("rectangle", 4, 2, seed=3), fld)
        res = run_bms(oracle, (w.scan, 0), ord)
        fresh, _, _ = make_family(FamilySpec("rectangle", 4, 2, seed=3), fld)

        def u(i, fresh=fresh):
            return fresh.query(i).value

        rels = [{m: c.value for m, c in r.poly.terms.items()} for r in res.relations]
        good = Answer("bms", rels, len(res.staircase), res.queries)

        perturbed = [dict(r) for r in rels]
        tail = next(m for m in perturbed[0] if m != max(perturbed[0], key=drl_key))
        perturbed[0][tail] += 1
        # x*g stays in the ideal, but its leading monomial is no generator
        wrong_lm = [dict(r) for r in rels]
        wrong_lm[-1] = {(m[0] + 1,) + m[1:]: c for m, c in wrong_lm[-1].items()}

        outcomes = {
            "true answer": (check_answer(case, good, u), False),
            "perturbed coefficient": (
                check_answer(case, Answer("bms", perturbed, good.staircase_size, good.queries), u),
                True,
            ),
            "wrong leading monomial": (
                check_answer(case, Answer("bms", wrong_lm, good.staircase_size, good.queries), u),
                True,
            ),
        }
        for name, (errors, should_fail) in outcomes.items():
            ok = bool(errors) == should_fail
            failures += not ok
            verdict = "rejected" if errors else "accepted"
            print(f"{fld} {name}: {verdict} ({'ok' if ok else 'WRONG'})")
            for e in errors[:2]:
                print(f"    {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_self_test())
