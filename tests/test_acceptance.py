"""Acceptance gate: golden outputs, cross-algorithm agreement, reference query
counts, verdict determinism, and operation-growth exponents — each criterion
under an explicit wall-clock budget."""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

from seqrel.bms import run_bms, run_bms_linalg, run_bms_tweaked, stopping_bound
from seqrel.cli import main as cli_main
from seqrel.compare import (
    BENCH_FIELD,
    FamilySpec,
    bench_point,
    family_degrees,
    family_lms,
    gorenstein_test,
    is_zero_dimensional,
    model_mults,
    monomials_up_to_degree,
    verify_result,
)
from seqrel.field import QQ
from seqrel.fixtures import reference_queries
from seqrel.monomials import (
    degree,
    enumerate_up_to,
    format_monomial,
    parse_monomial,
    parse_order,
)
from seqrel.poly import Poly, format_poly, inter_reduce
from seqrel.ranksolver import run_rank_solver
from seqrel.sequences import make_generator, random_from_lms
from seqrel.sfglm import run_sfglm, run_sfglm_tweaked

DRL2 = parse_order("drl(y<x)")
LEX3 = parse_order("lex(z<y<x)")

FAMILIES = ("rectangle", "lshape", "simplex")

# one bound per built-in oracle, large enough that the basis has stabilized
ORACLES = [
    ("binomial", QQ, "x^4", DRL2),
    ("pow23", QQ, "x^4", DRL2),
    ("sq", QQ, "y^5", DRL2),
    ("step", QQ, "y^3", DRL2),
    ("kron", QQ, "x^4", DRL2),
    ("fib4", QQ, "z^6", LEX3),
]

SQ_REDUCED = ["x*y - x - y + 1", "x^2 - y^2 - 2*x + 2*y", "y^3 - 3*y^2 + 3*y - 1"]


@contextlib.contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"wall-clock budget {seconds}s exceeded: {elapsed:.2f}s"


def downset(bound: str, ord):
    return enumerate_up_to(parse_monomial(bound, ord), ord)


def fmt_polys(polys, ord):
    return [format_poly(g, ord) for g in polys]


def fmt_monos(monos, ord):
    return [format_monomial(m, ord) for m in monos]


def random_oracle(lms, seed):
    return random_from_lms(lms, DRL2, BENCH_FIELD, seed)


# -- 1: iterative solver golden run and event trace ------------------------------


def test_bms_binomial_golden_and_event_trace():
    with budget(1.0):
        res = run_bms(
            make_generator("binomial", QQ), parse_monomial("x^3", DRL2), DRL2, trace=True
        )
        assert fmt_polys(res.basis(), DRL2) == ["y^2", "x*y - y - 1", "x^2 - 2*x + 1"]
        assert fmt_monos((r.shift for r in res.relations), DRL2) == ["x", "x", "x"]

        # the staircase grows exactly at m = 1 and m = x*y
        added = {
            format_monomial(s.m, DRL2): fmt_monos(s.staircase_added, DRL2)
            for s in res.trace
            if s.staircase_added
        }
        assert added == {"1": ["1"], "x*y": ["y", "x"]}
        # candidates are created at m = 1 and revised exactly at x, x*y, x^2*y
        assert [format_monomial(s.m, DRL2) for s in res.trace if s.updates] == [
            "1", "x", "x*y", "x^2*y",
        ]
        assert [format_monomial(s.m, DRL2) for s in res.trace if s.failures] == [
            "1", "x", "x*y", "x^2*y",
        ]

        # the rendered --trace log carries the same events, one line per monomial
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(
                ["run", "--algo", "bms", "--generator", "binomial", "--field", "Q",
                 "--order", "drl(y<x)", "--bound", "x^3", "--trace"]
            )
        assert code == 0
        trace = json.loads(buf.getvalue())["trace"]
        assert len(trace) == 10
        assert [l.split(":")[0] for l in trace if "staircase {" in l] == ["m = 1", "m = x*y"]
        assert [l.split(":")[0] for l in trace if ":=" in l] == [
            "m = 1", "m = x", "m = x*y", "m = x^2*y",
        ]
        assert [l.split(":")[0] for l in trace if l.endswith("pass")] == [
            "m = y", "m = y^2", "m = x^2", "m = y^3", "m = x*y^2", "m = x^3",
        ]


# -- 2: table-driven solver goldens over the rationals ----------------------------


def test_sfglm_pow23_degree_two():
    with budget(1.0):
        res = run_sfglm(make_generator("pow23", QQ), downset("x^2", DRL2), DRL2)
        assert fmt_polys(res.basis(), DRL2) == ["y - 3", "x^2 - 4*x + 4"]


def test_sfglm_binomial_degree_two():
    with budget(1.0):
        res = run_sfglm(make_generator("binomial", QQ), downset("x^2", DRL2), DRL2)
        assert fmt_polys(res.basis(), DRL2) == ["x*y - y - 1"]


def test_sfglm_squares_degree_three():
    with budget(1.0):
        res = run_sfglm(make_generator("sq", QQ), downset("x^3", DRL2), DRL2)
        assert fmt_polys(res.basis(), DRL2) == SQ_REDUCED


def test_sfglm_step_small_table():
    with budget(1.0):
        T = downset("y^2", DRL2)
        assert fmt_monos(T, DRL2) == ["1", "y", "x", "y^2"]
        res = run_sfglm(make_generator("step", QQ), T, DRL2)
        assert fmt_polys(res.basis(), DRL2) == ["y^2 - 2*y + 1"]


def test_sfglm_quadrisection_univariate_table():
    # a z-power table exposes only the z-relation to the plain solver; the
    # adaptive variant extends the table and recovers the full basis
    with budget(1.0):
        d = 4
        T = [parse_monomial("1", LEX3)] + [
            parse_monomial(f"z^{k}", LEX3) for k in range(1, d + 3)
        ]
        res = run_sfglm_tweaked(make_generator("fib4", QQ), T, LEX3)
        assert fmt_polys(res.basis(), LEX3) == ["z^2 - z - 1", "y - 1", "x - 3*z - 2"]


# -- 3: adaptive-variant goldens ---------------------------------------------------


def test_tweaked_sfglm_step_rejects_spurious_candidate():
    with budget(2.0):
        res = run_sfglm_tweaked(make_generator("step", QQ), downset("y^2", DRL2), DRL2)
        assert fmt_polys(res.basis(), DRL2) == ["y^2 - 2*y + 1", "x*y - x - y + 1"]
        assert fmt_monos((r.candidate for r in res.rejected), DRL2) == ["x^2"]


def test_tweaked_bms_emits_reduced_basis():
    with budget(2.0):
        res = run_bms_tweaked(make_generator("sq", QQ), parse_monomial("y^5", DRL2), DRL2)
        assert fmt_polys(res.basis(), DRL2) == SQ_REDUCED


def test_tweaked_bms_equals_interreduced_plain_everywhere():
    with budget(2.0):
        for name, field, bound, ord in ORACLES:
            m = parse_monomial(bound, ord)
            plain = run_bms(make_generator(name, field), m, ord)
            tweaked = run_bms_tweaked(make_generator(name, field), m, ord)
            assert tweaked.basis() == inter_reduce(plain.basis(), ord), name
            assert tweaked.staircase == plain.staircase, name


# -- 4: certified shift extent scales with the bound -------------------------------


def test_certified_shift_degrees_scale_with_bound():
    with budget(1.0):
        res7 = run_bms(make_generator("binomial", QQ), parse_monomial("x^7", DRL2), DRL2)
        assert [(format_poly(r.poly, DRL2), degree(r.shift)) for r in res7.relations] == [
            ("x*y - y - 1", 5),
            ("y^4", 3),
            ("x^4 - 4*x^3 + 6*x^2 - 4*x + 1", 3),
        ]
        res5 = run_bms(make_generator("binomial", QQ), parse_monomial("x^5", DRL2), DRL2)
        assert [(format_poly(r.poly, DRL2), degree(r.shift)) for r in res5.relations] == [
            ("x*y - y - 1", 3),
            ("y^3", 2),
            ("x^3 - 3*x^2 + 3*x - 1", 2),
        ]


# -- 5: measured query counts equal the reference tables ---------------------------


def test_query_counts_match_reference_tables():
    with budget(30.0):
        checked = 0
        for n, d_hi in ((2, 10), (3, 6)):
            for (family, algo), table in reference_queries(n).items():
                for d, expected in table.items():
                    if not 2 <= d <= d_hi:
                        continue  # reference tables extend beyond the gated range
                    row = bench_point(FamilySpec(family, d, n), algo)
                    assert row.queries == expected, (family, algo, n, d)
                    checked += 1
        assert checked == 76

        # spot values: the table-driven solver pays for the full degree window
        q2 = reference_queries(2)
        q3 = reference_queries(3)
        assert (q2[("simplex", "sfglm")][2], q2[("simplex", "bms")][2]) == (15, 10)
        assert (q3[("simplex", "sfglm")][2], q3[("simplex", "bms")][2]) == (35, 20)
        assert (q2[("rectangle", "sfglm")][4], q2[("rectangle", "bms")][4]) == (45, 45)


# -- 6: the three solvers agree on random ideals ------------------------------------


def test_iterative_matrix_and_rank_solvers_agree_on_random_ideals():
    with budget(60.0):
        for family in FAMILIES:
            for seed in range(50):
                d = 2 + seed % 4
                lms = family_lms(FamilySpec(family, d, 2), DRL2)
                oracle, gb = random_oracle(lms, seed)
                bound = stopping_bound(gb, DRL2)

                a = run_bms(oracle, bound, DRL2)
                b = run_bms_linalg(random_oracle(lms, seed)[0], bound, DRL2)
                assert a.basis() == b.basis()
                assert a.staircase == b.staircase
                assert [r.shift for r in a.relations] == [r.shift for r in b.relations]
                assert a.queries == b.queries

                r = run_rank_solver(random_oracle(lms, seed)[0], bound, DRL2)
                assert r.staircase == a.staircase
                assert [rel.poly.lm(DRL2) for rel in r.relations] == [
                    g.lm(DRL2) for g in a.basis()
                ]


# -- 7: every certified shift claim re-verifies on a fresh oracle -------------------


def test_certified_shifts_verify_on_goldens():
    with budget(60.0):
        for name, field, bound, ord in ORACLES:
            m = parse_monomial(bound, ord)
            for runner in (run_bms, run_bms_linalg, run_bms_tweaked, run_rank_solver):
                res = runner(make_generator(name, field), m, ord)
                assert verify_result(make_generator(name, field), res, ord), (
                    name, res.algorithm,
                )
            T = enumerate_up_to(m, ord)
            sres = run_sfglm(make_generator(name, field), T, ord)
            assert verify_result(make_generator(name, field), sres, ord), name


def test_certified_shifts_verify_on_random_instances():
    with budget(60.0):
        for seed in range(100):
            family = FAMILIES[seed % 3]
            d = 2 + (seed // 3) % 4
            spec = FamilySpec(family, d, 2)
            lms = family_lms(spec, DRL2)
            oracle, gb = random_oracle(lms, seed)
            bound = stopping_bound(gb, DRL2)
            T = monomials_up_to_degree(2 * family_degrees(spec)[2], DRL2)
            results = (
                run_bms(oracle, bound, DRL2),
                run_bms_tweaked(random_oracle(lms, seed)[0], bound, DRL2),
                run_rank_solver(random_oracle(lms, seed)[0], bound, DRL2),
                run_sfglm(random_oracle(lms, seed)[0], T, DRL2),
            )
            for res in results:
                assert verify_result(random_oracle(lms, seed)[0], res, DRL2), (
                    family, d, seed, res.algorithm,
                )


# -- 8: zero-dimensionality dichotomy ----------------------------------------------


def test_zero_dimensionality_dichotomy():
    # the iterative solver always closes the staircase: a pure power of every
    # variable leads its output
    for name, field, bound, ord in ORACLES:
        m = parse_monomial(bound, ord)
        for runner in (run_bms, run_bms_linalg, run_bms_tweaked):
            res = runner(make_generator(name, field), m, ord)
            assert is_zero_dimensional(res.basis(), ord), (name, res.algorithm)
    for seed in range(12):
        lms = family_lms(FamilySpec(FAMILIES[seed % 3], 2 + seed % 4, 2), DRL2)
        oracle, gb = random_oracle(lms, seed)
        res = run_bms(oracle, stopping_bound(gb, DRL2), DRL2)
        assert is_zero_dimensional(res.basis(), DRL2)

    # the table-driven solver reports only what the table certifies: a degree-3
    # window on the binomial table yields one relation and an open staircase
    res = run_sfglm(make_generator("binomial", QQ), downset("x^3", DRL2), DRL2)
    assert fmt_polys(res.basis(), DRL2) == ["x*y - y - 1"]
    assert not is_zero_dimensional(res.basis(), DRL2)


# -- 9: dual-generator verdicts are deterministic under the seed --------------------


def test_gorenstein_verdicts_deterministic_under_seed():
    with budget(5.0):
        def monos(*texts):
            return [Poly.monomial(BENCH_FIELD, parse_monomial(t, DRL2)) for t in texts]

        square_free = monos("x^2", "x*y", "y^2")
        for seed in range(10):
            assert gorenstein_test(square_free, DRL2, trials=1, seed=seed) == "NotGorenstein"

        complete_intersection = monos("y^2", "x^2")
        assert (
            gorenstein_test(complete_intersection, DRL2, trials=10, seed=0)
            == "Gorenstein-likely"
        )

        # byte-identical verdicts on repeated runs with the same seed
        for J in (square_free, complete_intersection):
            first = gorenstein_test(J, DRL2, trials=3, seed=7)
            assert gorenstein_test(J, DRL2, trials=3, seed=7) == first


# -- 10: multiplication counts grow at the model-predicted exponent -----------------


def test_multiplication_growth_exponents_match_cost_model():
    # log-log slope of measured multiplication counts over d = 4..10 versus the
    # cost model `model_mults`: (#S)^2 * deg(G) for the iterative solver (the
    # basis degree, not the generator count, matches both this implementation
    # and published operation counts), |S(d_max)|^3 + (#S)^2 * #LM(G) for the
    # table-driven one
    with budget(120.0):
        ds = list(range(4, 11))
        for family in FAMILIES:
            for algo in ("bms", "sfglm"):
                specs = [FamilySpec(family, d, 2) for d in ds]
                measured = [bench_point(spec, algo).mults for spec in specs]
                model = [model_mults(spec, algo) for spec in specs]
                slope = float(np.polyfit(np.log(ds), np.log(measured), 1)[0])
                model_slope = float(np.polyfit(np.log(ds), np.log(model), 1)[0])
                assert abs(slope - model_slope) <= 0.5, (
                    family, algo, slope, model_slope,
                )
