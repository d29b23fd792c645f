"""Every solver reads only inside its declared window.

The windows: the down-set of the bound for the scan solvers (`bms`,
`bms-linalg`, `bms-tweaked`, `rank`); T·T for `sfglm`; T·T·{1, x_1, …, x_n}
for `sfglm-tweaked`, whose shifted candidates reach one degree past T·T.
A run's reads are its oracle's distinct queried indices, counted also when
the run raises.
"""

from __future__ import annotations

import random

import pytest

from seqrel.compare import (
    ALGORITHMS,
    FAMILY_NAMES,
    FamilySpec,
    family_degrees,
    family_order,
    make_family,
    monomials_up_to_degree,
    run_algorithm,
)
from seqrel.errors import SeqrelError
from seqrel.field import QQ, FpField
from seqrel.monomials import enumerate_up_to, mul as mono_mul, parse_monomial, parse_order
from seqrel.sequences import table_oracle

F65537, F2 = FpField(65537), FpField(2)
DRL2 = parse_order("drl(y<x)")


def window(algo, ord, bound, T) -> set:
    if algo == "sfglm":
        return {mono_mul(a, b) for a in T for b in T}
    if algo == "sfglm-tweaked":
        TT = window("sfglm", ord, bound, T)
        return TT | {mono_mul(m, v) for m in TT for v in ord.variables}
    return set(enumerate_up_to(bound, ord))


def run_and_check(algo, oracle, ord, bound, T) -> None:
    args = (None, T) if algo.startswith("sfglm") else (bound, None)
    try:
        run_algorithm(algo, oracle, ord, *args)
    except SeqrelError:
        pass
    outside = oracle._queried - window(algo, ord, bound, T)
    assert not outside, f"{algo} read outside its window: {sorted(outside)[:5]}"


FAMILY_CASES = [
    (F65537, FamilySpec(family, d, 2)) for family in FAMILY_NAMES for d in range(2, 6)
] + [
    (F65537, FamilySpec(family, d, 3)) for family in FAMILY_NAMES for d in (2, 3)
] + [
    (QQ, FamilySpec(family, d, 2)) for family in FAMILY_NAMES for d in (2, 3, 4)
]


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize(
    "field, spec", FAMILY_CASES, ids=[f"{f}-{s.family}-{s.n}D-d{s.d}" for f, s in FAMILY_CASES]
)
def test_family_runs_read_inside_their_window(field, spec, algo):
    # bench_point's windows: bound x^(d_S + d_max), table S(d_max)
    ord = family_order(spec.n)
    oracle, _, _ = make_family(spec, field)
    d_s, _, d_max = family_degrees(spec)
    bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
    run_and_check(algo, oracle, ord, bound, monomials_up_to_degree(d_max, ord))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_random_f2_tables_read_inside_their_window(algo):
    bound, T = parse_monomial("x^4", DRL2), monomials_up_to_degree(2, DRL2)
    for seed in range(200):
        rng = random.Random(seed)
        oracle = table_oracle(F2, (6, 6), [rng.randrange(2) for _ in range(36)])
        run_and_check(algo, oracle, DRL2, bound, T)
