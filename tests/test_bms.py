from __future__ import annotations

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrel.bms import (
    run_bms,
    run_bms_linalg,
    run_bms_tweaked,
    stopping_bound,
)
from seqrel.compare import FamilySpec, family_degrees, family_order, make_family
from seqrel.errors import BoundExceededError
from seqrel.field import QQ, FpField
from seqrel.monomials import enumerate_up_to, parse_monomial, parse_order
from seqrel.poly import Poly, inter_reduce, parse_poly, staircase_of
from seqrel.result import format_trace, result_to_json
from seqrel.sequences import (
    GENERATOR_NAMES,
    IdealSequences,
    bracket,
    make_generator,
    random_from_lms,
    table_oracle,
)

DRL2 = parse_order("drl(y<x)")
DRL3 = parse_order("drl(z<y<x)")
LEX3 = parse_order("lex(z<y<x)")
F65537 = FpField(65537)

BINOMIAL_TRACE = """\
m = 1: fail {1: 1}; staircase {1}; y := y [translate 1], x := x [translate 1]
m = y: pass
m = x: fail {x: 1}; y := y [keep], x := x - 1 [combine x via h = 1]
m = y^2: pass
m = x*y: fail {y: 1, x - 1: 1}; staircase {y, x}; y^2 := y^2 [translate y], x*y := x*y - 1 [combine y via h = 1], x^2 := x^2 - x [translate x - 1]
m = x^2: pass
m = y^3: pass
m = x*y^2: pass
m = x^2*y: fail {x*y - 1: 1, x^2 - x: 1}; y^2 := y^2 [keep], x*y := x*y - y - 1 [combine x*y - 1 via h = y], x^2 := x^2 - 2*x + 1 [combine x^2 - x via h = x - 1]
m = x^3: pass"""


def M(text: str, ord=DRL2):
    return parse_monomial(text, ord)


def P(text: str, ord=DRL2, field=QQ) -> Poly:
    return parse_poly(text, ord, field)


def test_binomial_trace_and_output():
    res = run_bms(make_generator("binomial", QQ), M("x^3"), DRL2, trace=True)
    assert format_trace(res.trace, DRL2) == BINOMIAL_TRACE
    assert res.basis() == [P("y^2"), P("x*y - y - 1"), P("x^2 - 2*x + 1")]
    assert res.staircase == [M("1"), M("y"), M("x")]
    assert [r.shift for r in res.relations] == [M("x"), M("x"), M("x")]
    assert res.queries == 10  # exactly the monomials of degree <= 3
    stair_steps = [tr.m for tr in res.trace if tr.staircase_added]
    assert stair_steps == [M("1"), M("x*y")]
    combine_steps = [
        tr.m for tr in res.trace if any(ev.kind == "combine" for ev in tr.updates)
    ]
    assert combine_steps == [M("x"), M("x*y"), M("x^2*y")]


def test_binomial_grows_along_the_axes():
    # the relation ideal is not zero-dimensional: larger bounds push the pure
    # powers up while the mixed relation stays
    res5 = run_bms(make_generator("binomial", QQ), M("x^5"), DRL2)
    assert res5.basis() == [
        P("x*y - y - 1"),
        P("y^3"),
        P("x^3 - 3*x^2 + 3*x - 1"),
    ]
    assert res5.staircase == [M("1"), M("y"), M("x"), M("y^2"), M("x^2")]
    assert [r.shift for r in res5.relations] == [M("x^3"), M("x^2"), M("x^2")]
    res7 = run_bms(make_generator("binomial", QQ), M("x^7"), DRL2)
    assert res7.basis() == [
        P("x*y - y - 1"),
        P("y^4"),
        P("x^4 - 4*x^3 + 6*x^2 - 4*x + 1"),
    ]
    assert [r.shift for r in res7.relations] == [M("x^5"), M("x^3"), M("x^3")]


def test_step_oracle_small_and_full_bound():
    step = make_generator("step", QQ)
    at_xy = run_bms(step, M("x*y"), DRL2)
    assert at_xy.basis() == [P("x - y"), P("y^2 - 2*y")]
    assert at_xy.staircase == [M("1"), M("y")]
    at_y3 = run_bms(make_generator("step", QQ), M("y^3"), DRL2)
    assert at_y3.basis() == [
        P("y^2 - 2*y + 1"),
        P("x*y - y^2"),
        P("x^2 - x*y - 2*y"),
    ]
    assert at_y3.staircase == [M("1"), M("y"), M("x")]
    # certificates: every relation passes all shifts up to its certified one
    for rel in at_y3.relations:
        assert rel.shift is not None
        for v in enumerate_up_to(rel.shift, DRL2):
            assert not bracket(step, rel.poly, v)


def test_fib4_lex_chain():
    res = run_bms(make_generator("fib4", QQ), M("z^6", LEX3), LEX3, trace=True)
    assert res.basis() == [
        P("z^2 - z - 1", LEX3),
        P("y", LEX3),
        P("x", LEX3),
    ]
    assert res.staircase == [M("1", LEX3), M("z", LEX3)]
    assert [r.shift for r in res.relations] == [M("z^4", LEX3), None, None]
    assert res.queries == 7
    stair_steps = [tr.m for tr in res.trace if tr.staircase_added]
    assert stair_steps == [M("z", LEX3)]
    combine_steps = [
        tr.m for tr in res.trace if any(ev.kind == "combine" for ev in tr.updates)
    ]
    assert combine_steps == [M("z^2", LEX3), M("z^3", LEX3)]


SQ_REDUCED = ["x*y - x - y + 1", "x^2 - y^2 - 2*x + 2*y", "y^3 - 3*y^2 + 3*y - 1"]


def test_sq_bound_y5():
    res = run_bms(make_generator("sq", QQ), M("y^5"), DRL2)
    assert [g.lm(DRL2) for g in res.basis()] == [M("x*y"), M("x^2"), M("y^3")]
    assert res.staircase == [M("1"), M("y"), M("x"), M("y^2")]
    assert [r.shift for r in res.relations] == [M("x^2"), M("x^2"), M("y^2")]
    assert inter_reduce(res.basis(), DRL2) == [P(t) for t in SQ_REDUCED]
    tweaked = run_bms_tweaked(make_generator("sq", QQ), M("y^5"), DRL2)
    assert tweaked.basis() == [P(t) for t in SQ_REDUCED]


def test_zero_sequence_yields_unit_ideal():
    zero = IdealSequences([Poly.monomial(QQ, M("1"))], DRL2).oracle({})
    res = run_bms(zero, M("x^2"), DRL2)
    assert res.basis() == [Poly.monomial(QQ, M("1"))]
    assert res.staircase == []
    assert res.relations[0].shift == M("x^2")


ORACLES = [
    ("binomial", QQ, "x^4", DRL2),
    ("pow23", QQ, "x^4", DRL2),
    ("sq", QQ, "y^5", DRL2),
    ("step", QQ, "y^3", DRL2),
    ("kron", QQ, "x^4", DRL2),
    ("fib4", QQ, "z^6", LEX3),
]


def test_matrix_row_variant_matches():
    for name, field, bound, ord in ORACLES:
        a = run_bms(make_generator(name, field), parse_monomial(bound, ord), ord)
        b = run_bms_linalg(make_generator(name, field), parse_monomial(bound, ord), ord)
        assert a.basis() == b.basis(), name
        assert a.staircase == b.staircase, name
        assert a.queries == b.queries, name


def test_tweaked_equals_interreduced_plain():
    for name, field, bound, ord in ORACLES:
        plain = run_bms(make_generator(name, field), parse_monomial(bound, ord), ord)
        tweaked = run_bms_tweaked(
            make_generator(name, field), parse_monomial(bound, ord), ord
        )
        assert tweaked.basis() == inter_reduce(plain.basis(), ord), name
        assert tweaked.staircase == plain.staircase, name


def test_stopping_bound_goldens():
    assert stopping_bound([P("x"), P("y^3")], DRL2) == M("y^5")
    assert stopping_bound([P("x^3"), P("y^3")], DRL2) == M("x^4*y^4")
    assert stopping_bound([P("x"), P("y")], DRL2) == M("x")
    assert stopping_bound([P(t) for t in SQ_REDUCED], DRL2) == M("y^5")
    assert stopping_bound([P("1")], DRL2) == M("1")


def test_relationset_json_round_trip():
    res = run_bms(make_generator("binomial", F65537), M("x^3"), DRL2)
    data = result_to_json(res)
    assert sorted(data) == [
        "algorithm", "bound", "field", "ops", "order", "queries", "relations", "staircase",
    ]
    assert data["relations"][0]["shift"] == "x"
    assert data["relations"][0]["tested"] is True
    assert all(sorted(r) == ["poly", "shift", "tested"] for r in data["relations"])  # every scan solver's shape
    blob = json.dumps(data, sort_keys=True)
    assert json.loads(blob) == data
    again = result_to_json(
        run_bms(make_generator("binomial", F65537), M("x^3"), DRL2)
    )
    assert json.dumps(again, sort_keys=True) == blob  # deterministic output


def test_untested_relations_serialize_as_zero_shift():
    res = run_bms(make_generator("fib4", QQ), M("z^6", LEX3), LEX3)
    data = result_to_json(res)
    by_shift = {r["shift"]: r["tested"] for r in data["relations"]}
    assert by_shift == {"z^4": True, "0": False}


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=3),
)
def test_recovers_random_rectangle_ideals(seed, a, b):
    oracle, gb = random_from_lms([(0, a), (b, 0)], DRL2, F65537, seed=seed)
    res = run_bms(oracle, stopping_bound(gb, DRL2), DRL2)
    assert res.staircase == staircase_of(gb, DRL2)
    assert inter_reduce(res.basis(), DRL2) == inter_reduce(gb, DRL2)
    for rel in res.relations:
        if rel.shift is not None:
            for v in enumerate_up_to(rel.shift, DRL2):
                assert not bracket(oracle, rel.poly, v)


# -- reads: each window code once, in window order --------------------------------

SCAN_RUNNERS = (run_bms, run_bms_linalg, run_bms_tweaked)
OFF_DRL = (  # the lex and weight runs of scripts/dump_outputs.py
    ("fib4", "lex(z<y<x)", "z^6"),
    ("step", "weight([[1,2],[0,-1]];y<x)", "x^8"),
    ("sq", "weight([[0,1],[1,0]];y<x)", "x^6"),
)


def _read_runs(field):
    """(fresh oracle, order, bound): every generator under drl, the lex and
    weight runs, and two benchmark families at their benchmark bound."""
    for name in GENERATOR_NAMES:
        ord = family_order(3 if name == "fib4" else 2)
        yield (lambda name=name: make_generator(name, field)), ord, M("x^4" if ord.n == 3 else "x^6", ord)
    for name, spec, bound in OFF_DRL:
        ord = parse_order(spec)
        yield (lambda name=name: make_generator(name, field)), ord, M(bound, ord)
    for family, n, d in (("simplex", 2, 4), ("lshape", 3, 3)):
        spec = FamilySpec(family, d, n, seed=1)
        d_s, _, d_max = family_degrees(spec)
        ord = family_order(n)
        yield (lambda spec=spec: make_family(spec, field)[0]), ord, tuple(e * (d_s + d_max) for e in ord.variable("x"))


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_scans_read_each_window_code_once_in_window_order(field):
    # step m reads u_m first; every other read of the step lies below m
    for fresh, ord, bound in _read_runs(field):
        window = enumerate_up_to(bound, ord)
        for run in SCAN_RUNNERS:
            oracle = fresh()
            res = run(oracle, bound, ord)
            assert list(oracle._values) == window, (ord, bound, run.__name__)
            assert res.queries == len(window)


@pytest.mark.parametrize("field", [F65537, QQ], ids=str)
def test_a_table_short_of_the_window_stops_at_its_first_missing_window_code(field):
    runs = 0
    for fresh, ord, bound in _read_runs(field):
        window = enumerate_up_to(bound, ord)
        box = [max(m[k] for m in window) + 1 for k in range(ord.n)]
        # each dimension one short (a table has no empty dimension), then
        # every dimension cut to half
        shapes = [tuple(b - (j == k) for j, b in enumerate(box)) for k in range(ord.n) if box[k] > 1]
        shapes.append(tuple((b + 1) // 2 for b in box))
        for shape in shapes:
            source = fresh()
            entries = [source.query(i).value for i in product(*map(range, shape))]
            first = next(k for k, m in enumerate(window) if any(map(int.__ge__, m, shape)))
            for run in SCAN_RUNNERS:
                table = table_oracle(field, shape, entries)
                with pytest.raises(BoundExceededError) as err:
                    run(table, bound, ord)
                assert err.value.index == window[first], (ord, bound, shape, run.__name__)
                assert table.queries == first + 1
                assert list(table._values) == window[:first]
                runs += 1
    assert runs >= 90
