"""The three BMS variants, traced, on sequences whose values are not all
integers, and on a small prime field.

Every output is pinned against `bms_fraction_goldens.json`: relations,
shifts, staircase, queries, operation counts, the `format_trace` text and,
for bms-tweaked, each step's reduced basis.  Rewrite the goldens with

    PYTHONPATH=src python tests/test_bms_fractions.py

and only after checking that the new outputs are meant.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from seqrel.compare import run_algorithm, verify_result
from seqrel.field import QQ, FpField
from seqrel.monomials import parse_monomial, parse_order
from seqrel.poly import format_poly, inter_reduce, parse_poly, staircase_of
from seqrel.result import result_to_json
from seqrel.sequences import IdealSequences, make_generator, table_oracle

GOLDENS = Path(__file__).with_name("bms_fraction_goldens.json")
ALGOS = ("bms", "bms-linalg", "bms-tweaked")
DRL2 = parse_order("drl(y<x)")


def _fractional_basis():
    # the README's fractional Q basis, with non-integral initial values
    text = "y^2 - 1/3*x - 2/5, x^3 - 1/7*x*y - 3/2*y"
    gb = inter_reduce([parse_poly(t, DRL2, QQ) for t in text.split(",")], DRL2)
    stair = staircase_of(gb, DRL2)
    initial = {s: QQ.elem(Fraction((-1) ** k * (k + 2), 2 * k + 3)) for k, s in enumerate(stair)}
    return IdealSequences(gb, DRL2).oracle(initial)


def _q_table():
    entries = [Fraction((7 * k) % 11 - 5, 1 + k % 4) for k in range(25)]
    return table_oracle(QQ, (5, 5), entries)


CASES = {  # name -> (fresh oracle, bound)
    "fractional-basis": (_fractional_basis, "x^6"),
    "q-table": (_q_table, "x^4"),
    "binomial-f3": (lambda: make_generator("binomial", FpField(3)), "x^7"),
}


def snapshot(case: str, algo: str) -> dict:
    fresh, bound = CASES[case]
    res = run_algorithm(algo, fresh(), DRL2, parse_monomial(bound, DRL2), trace=True)
    assert verify_result(fresh(), res, DRL2)
    out = result_to_json(res)
    if algo == "bms-tweaked":
        out["reduced_bases"] = [[format_poly(g, DRL2) for g in tr.reduced_basis] for tr in res.trace]
    return out


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_run_matches_its_golden(case, algo):
    assert snapshot(case, algo) == json.loads(GOLDENS.read_text())[case][algo]


def test_the_cases_read_non_integral_values_and_vanishing_residues():
    window = [(i, j) for i in range(5) for j in range(5)]
    for fresh in (_fractional_basis, _q_table):
        oracle = fresh()
        assert any(oracle.query(i).value.denominator > 1 for i in window)
    assert not make_generator("binomial", FpField(3)).query((3, 1))  # C(3, 1) = 0 mod 3


if __name__ == "__main__":
    goldens = {case: {algo: snapshot(case, algo) for algo in ALGOS} for case in sorted(CASES)}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
