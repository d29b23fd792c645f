"""Incremental rank-based relation solver: goldens and cross-solver agreement."""

from __future__ import annotations

import itertools
import json
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from seqrel import ranksolver
from seqrel.bms import run_bms, run_bms_linalg, run_bms_tweaked, stopping_bound
from seqrel.compare import (
    FAMILY_NAMES,
    FamilySpec,
    bench_point,
    family_degrees,
    family_order,
    make_family,
    verify_result,
)
from seqrel.errors import BoundExceededError
from seqrel.field import QQ, FpField, OpCounter, counting, parse_field
from seqrel.fixtures import reference_queries
from seqrel.monomials import (
    Packing,
    enumerate_up_to,
    format_monomial,
    grow_staircase,
    parse_monomial,
    parse_order,
)
from seqrel.poly import format_poly
from seqrel.ranksolver import _Candidate, run_rank_solver
from seqrel.result import Relation, result_to_json
from seqrel.sequences import SequenceOracle, bracket, make_generator, random_from_lms, table_oracle
from test_hankel import _ref_solve_relation  # pytest puts tests/ on sys.path

DRL2 = parse_order("drl(y<x)")
LEX3 = parse_order("lex(z<y<x)")
WEIGHT2 = parse_order("weight([[1,2],[0,-1]];y<x)")  # a negative lower row
F65537 = parse_field("Fp:65537")


def solve(gen, field, bound, ord):
    oracle = make_generator(gen, field)
    return run_rank_solver(oracle, parse_monomial(bound, ord), ord)


def fmt_rel(res):
    return [
        (
            format_poly(r.poly, res.ord),
            format_monomial(r.shift, res.ord) if r.shift is not None else None,
        )
        for r in res.relations
    ]


def fmt_monos(monos, ord):
    return [format_monomial(s, ord) for s in monos]


# -- golden outputs --------------------------------------------------------------


def test_binomial_truncations():
    res3 = solve("binomial", F65537, "x^3", DRL2)
    assert fmt_rel(res3) == [
        ("y^2", "x"),
        ("x*y + 65536*y + 65536", "x"),
        ("x^2 + 65535*x + 1", "x"),
    ]
    assert fmt_monos(res3.staircase, DRL2) == ["1", "y", "x"]
    assert res3.queries == 10

    # one degree further the y^2/x^2 truncation relations are displaced
    res4 = solve("binomial", F65537, "x^4", DRL2)
    assert fmt_rel(res4) == [
        ("x*y + 65536*y + 65536", "x^2"),
        ("y^3", "x"),
        ("x^3 + 65534*x + 2", "x"),
    ]
    assert fmt_monos(res4.staircase, DRL2) == ["1", "y", "x", "y^2", "x^2"]
    assert res4.queries == 15


def test_pow23_truncation():
    res = solve("pow23", F65537, "x^4", DRL2)
    assert fmt_rel(res) == [("y + 65534", "x^3"), ("x^2 + 65533*x + 4", "x^2")]
    assert fmt_monos(res.staircase, DRL2) == ["1", "x"]
    assert res.queries == 15


def test_squares_over_rationals():
    res = solve("sq", QQ, "y^5", DRL2)
    assert fmt_rel(res) == [
        ("x*y - x - y + 1", "x^2"),
        ("x^2 - y^2 - 2*x + 2*y", "x^2"),
        ("y^3 - 3*y^2 + 3*y - 1", "y^2"),
    ]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x", "y^2"]
    assert res.queries == 16


def test_step_small_bound():
    res = solve("step", F65537, "y^3", DRL2)
    assert fmt_rel(res) == [
        ("y^2 + 65535*y + 1", "y"),
        ("x*y + 65535*y", "1"),
        ("x^2 + 65533*y", "1"),
    ]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x"]
    assert res.queries == 7


def test_kron_truncation():
    res = solve("kron", F65537, "x^4", DRL2)
    assert fmt_rel(res) == [("y^2", "x^2"), ("x^2", "x^2")]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x", "x*y"]
    assert res.queries == 15


def test_quadrisection_lex():
    res = solve("fib4", F65537, "z^6", LEX3)
    assert fmt_rel(res) == [
        ("z^2 + 65536*z + 65536", "z^4"),
        ("y", None),
        ("x", None),
    ]
    assert fmt_monos(res.staircase, LEX3) == ["1", "z"]
    assert res.queries == 7


def test_zero_table_unit_relation():
    oracle = table_oracle(QQ, (3, 3), ["0"] * 9)
    res = run_rank_solver(oracle, parse_monomial("y^2", DRL2), DRL2)
    assert [format_poly(r.poly, DRL2) for r in res.relations] == ["1"]
    assert res.staircase == []
    assert res.queries == 4


def test_binomial_op_counts():
    # pinned totals of the scan's echelon inserts and carries plus the back
    # substitutions; at either bound only x^2 (x^3) has a nonzero product,
    # 1·α_x, which costs 1 multiplication and 1 addition.  At x^4 the x*y
    # candidate is carried onto y^2 with two rows that had reduced to zero:
    # y^2, zero as read, and x*y, cleared by the rows 1 and y.  Their two
    # subtractions are no longer replayed onto the new column, 2
    # multiplications and 2 additions fewer than when zero rows were kept.
    for field in (F65537, QQ):
        res3 = solve("binomial", field, "x^3", DRL2)
        assert res3.ops.as_dict() == {"additions": 15, "multiplications": 60, "inversions": 14}
        res4 = solve("binomial", field, "x^4", DRL2)
        assert res4.ops.as_dict() == {"additions": 62, "multiplications": 159, "inversions": 23}


# -- raw echelon inserts against the FieldElement elimination ------------------------


class _ReferenceCandidate:
    """The echelon insert and the carry onto new columns on counted
    FieldElements that `_Candidate.insert` and `_Candidate.extend` perform on
    raw values: pivot rows only, a row reduced to zero dropped with its
    steps."""

    def __init__(self):
        self.rows = []
        self.labels = []  # stream positions of the pivot rows
        self.pivots = []
        self.log = []
        self.dead = False

    def insert(self, row, label=None):
        i, steps = len(self.rows), []
        for j, p in enumerate(self.pivots):
            c = row[p]
            if c:
                row = [a - c * b for a, b in zip(row, self.rows[j])]
                steps.append((i, j, c))
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is None:
            return
        inv = row[pivot].inverse()
        self.rows.append([a * inv for a in row])
        self.log += [*steps, (i, None, inv)]
        self.labels.append(label)
        self.pivots.append(pivot)
        if pivot == len(row) - 1:
            self.dead = True

    def extend(self, ext):
        """`ext[i]` holds the new columns' values of the row labels[i]."""
        ext = list(ext)
        for i, j, c in self.log:
            ext[i] = [a * c for a in ext[i]] if j is None else [a - c * b for a, b in zip(ext[i], ext[j])]
        self.rows = [v[:-1] + e + v[-1:] for v, e in zip(self.rows, ext)]


def _row_streams(field, seed):
    """Row streams of FieldElements: full-rank, rank-deficient, zero and
    candidate-column-pivot (dead) cases, plus random ones."""
    rng = random.Random(seed)
    if isinstance(field, FpField):
        draw = lambda: field.elem(rng.randrange(field.p))
    else:
        draw = lambda: field.elem(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}")
    rand_row = lambda w: [draw() for _ in range(w)]
    zero_row = lambda w: [field.zero] * w

    def combo(rows):
        coeffs = [draw() for _ in rows]
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero) for j in range(len(rows[0]))]

    w = 5
    full = [rand_row(w) for _ in range(w)]
    r1, r2 = rand_row(w), rand_row(w)
    deficient = [r1, zero_row(w), r2, combo([r1, r2]), combo([r1, r2]), rand_row(w), combo([r1, r2])]
    zeros = [zero_row(w) for _ in range(3)]
    one, two, three = field.one, field.elem(2), field.elem(3)
    dead = [
        [one, field.zero, field.zero, two],
        [one, field.zero, field.zero, three],  # reduces onto the candidate column
        [field.zero, one, two, field.zero],
        [two, three, field.elem(4), field.elem(5)],
    ]
    streams = [full, deficient, zeros, dead, [rand_row(1) for _ in range(3)]]
    for _ in range(6):
        width = rng.randint(1, 6)
        streams.append([rand_row(width) if rng.random() < 0.8 else zero_row(width)
                        for _ in range(rng.randint(1, 8))])
    return streams


@pytest.mark.parametrize(
    "field",
    [FpField(7), F65537, FpField(2**31 - 1), FpField(2**61 - 1), QQ],
    ids=str,
)
def test_raw_insert_matches_field_element_reference(field):
    seen_dead = seen_deficient = False
    for seed in range(4):
        for stream in _row_streams(field, seed):
            ref, ref_ops = _ReferenceCandidate(), OpCounter()
            cand, ops = _Candidate(1, field, []), OpCounter()
            for k, row in enumerate(stream):
                with counting(ref_ops):
                    ref.insert(row, k)
                with counting(ops):
                    cand.insert(k, [a.value for a in row])
            assert cand.vecs == [[a.value for a in row] for row in ref.rows]
            assert cand.V == ref.labels
            assert cand.pivots == ref.pivots
            assert cand.dead == ref.dead
            assert ops == ref_ops
            seen_dead |= ref.dead
            seen_deficient |= len(ref.rows) < len(stream)
    assert seen_dead and seen_deficient


def _rank(rows):
    ref = _ReferenceCandidate()
    for row in rows:
        ref.insert(list(row))
    return len(ref.rows)


def _rank_checked(read, met):
    """A `_Candidate` that keeps the label of every row it is given and, after
    each carry, checks the module docstring's zero-row theorem: those rows
    have rank len(pivots) over the candidate's current columns.  `read` maps
    a code to its FieldElement; each carry appends to `met` how many of the
    rows had been dropped."""

    class RankChecked(_Candidate):
        __slots__ = ("labels",)

        def __init__(self, *args):
            super().__init__(*args)
            self.labels = []

        def insert(self, label, row):
            self.labels.append(label)
            super().insert(label, row)

        def extend(self, new, ext):
            super().extend(new, ext)
            cols = (*self.cols, self.lm)
            assert _rank([[read(mu + s) for s in cols] for mu in self.labels]) == len(self.pivots)
            met.append(len(self.labels) - len(self.V))

    return RankChecked


@pytest.mark.parametrize(
    "field",
    [FpField(7), F65537, FpField(2**31 - 1), FpField(2**61 - 1), QQ],
    ids=str,
)
def test_carry_matches_reference_and_fresh_build(field):
    # Each stream's columns split into old | new1 | new2 | candidate: the form
    # built on the old columns and carried twice must count what the
    # FieldElement carry counts.  Where every new column is a fixed
    # combination of the old ones on all rows, as a scan's new staircase
    # columns are (module docstring), the carry must also keep the rank, the
    # row space and the candidate-column verdict of a build made on all
    # columns at once, though it dropped the rows that reduced to zero.  A
    # dead candidate leaves the border, so the scan never carries one.
    rng = random.Random(0)
    dropped = carried = 0
    for seed in range(3):
        for stream in _row_streams(field, seed):
            w = len(stream[0]) - 1
            for a in range(w + 1):
                coeffs = [[field.elem(rng.randrange(5)) for _ in range(a)] for _ in range(w - a)]
                spanned = [
                    row[:a] + [sum((c * x for c, x in zip(cs, row)), field.zero) for cs in coeffs] + row[-1:]
                    for row in stream
                ]
                for b, rows in itertools.product(range(w - a + 1), (stream, spanned)):
                    ref, ref_ops = _ReferenceCandidate(), OpCounter()
                    cand, ops = _Candidate(w, field, list(range(a))), OpCounter()
                    for k, row in enumerate(rows):
                        with counting(ref_ops):
                            ref.insert(row[:a] + row[-1:], k)
                        with counting(ops):
                            cand.insert(k, [x.value for x in row[:a] + row[-1:]])
                    for lo, hi in [(a, a + b), (a + b, w)]:
                        if cand.dead:
                            break
                        with counting(ref_ops):
                            ref.extend([rows[k][lo:hi] for k in ref.labels])
                        with counting(ops):
                            cand.extend(list(range(lo, hi)), [[x.value for x in rows[k][lo:hi]] for k in cand.V])
                    assert cand.vecs == [[x.value for x in r] for r in ref.rows]
                    assert cand.V == ref.labels and cand.pivots == ref.pivots and cand.dead == ref.dead
                    assert ops == ref_ops
                    if rows is stream or cand.cols != list(range(w)):
                        continue  # arbitrary new columns, or dead before a carry
                    carried += 1
                    dropped += len(rows) - len(cand.V)
                    fresh = _ReferenceCandidate()
                    for row in rows:
                        fresh.insert(row)
                    assert fresh.dead == cand.dead
                    assert _rank(ref.rows) == _rank(fresh.rows) == _rank(ref.rows + fresh.rows)
    assert carried and dropped


# -- relations read off the carried form against a fresh solve -----------------------

SWEEP_ORDERS = [
    ("drl(y<x)", "x^5"),
    ("lex(y<x)", "y^6"),
    ("weight([[1,2],[0,-1]];y<x)", "x^6"),
    ("drl(z<y<x)", "x^3"),
    ("weight([[1,1,2],[0,0,-1],[0,-1,0]];z<y<x)", "x^4"),
]


def test_relations_equal_a_fresh_solve_on_random_tables(monkeypatch):
    # Each final candidate's rows, the dropped ones too, must be consistent,
    # and its Relation, read off its carried echelon form, must be the one the
    # rectangular reference solve gives on the candidate's own columns and
    # rows, with the last row as its shift.  Every carry keeps the rank of
    # all rows (`_rank_checked`).  The sweep must meet the hard case: columns
    # that joined out of ascending order and are rank-deficient, where the
    # join order picks the free variables.
    made, met = [], []
    hard = 0
    for seed in range(80):
        rng = random.Random(seed)
        field = FpField(rng.choice([2, 3, 5, 101]))
        spec, top = SWEEP_ORDERS[seed % len(SWEEP_ORDERS)]
        ord = parse_order(spec)
        bound = parse_monomial(top, ord)
        pk = Packing(ord, bound)
        shape = tuple(max(e) + 1 for e in zip(*enumerate_up_to(bound, ord)))
        oracle = table_oracle(field, shape, [rng.randrange(field.p) for _ in range(prod(shape))])

        class Recording(_rank_checked(lambda code: oracle.query(pk.unpack(code)), met)):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(ranksolver, "_Candidate", Recording)
        made.clear()
        res = run_rank_solver(oracle, bound, ord)
        final = {cand.lm: cand for cand in made}  # the last one built per code
        for rel in res.relations:
            lm = rel.poly.lm(ord)
            cand = final[pk.pack(lm)]
            rows = [pk.unpack(mu) for mu in cand.labels]
            solved, failure = _ref_solve_relation(oracle, [pk.unpack(s) for s in cand.cols], rows, lm, ord)
            assert failure is None, (seed, format_monomial(lm, ord))
            assert rel == Relation(solved, rows[-1] if rows else None), (seed, format_monomial(lm, ord))
            hard += cand.cols != sorted(cand.cols) and len(cand.pivots) < len(cand.cols)
    assert hard and sum(met)


# -- agreement with the iterative solver -------------------------------------------

AGREEMENT_CASES = [
    ("binomial", F65537, "x^3", DRL2),
    ("binomial", F65537, "x^4", DRL2),
    ("pow23", F65537, "x^4", DRL2),
    ("sq", QQ, "y^5", DRL2),
    ("step", F65537, "y^3", DRL2),
    ("kron", F65537, "x^4", DRL2),
    ("fib4", F65537, "z^6", LEX3),
    ("fib4", QQ, "z^6", LEX3),
    ("step", F65537, "x^8", WEIGHT2),
    ("step", QQ, "x^8", WEIGHT2),
]


def test_agrees_with_iterative_solver(monkeypatch):
    # every carry keeps the rank of all rows (`_rank_checked`), over Q too
    met = []
    for gen, field, bound, ord in AGREEMENT_CASES:
        m = parse_monomial(bound, ord)
        pk, check = Packing(ord, m), make_generator(gen, field)
        monkeypatch.setattr(ranksolver, "_Candidate", _rank_checked(lambda code: check.query(pk.unpack(code)), met))
        rres = run_rank_solver(make_generator(gen, field), m, ord)
        bres = run_bms(make_generator(gen, field), m, ord)
        assert fmt_monos(rres.staircase, ord) == fmt_monos(bres.staircase, ord)
        assert [format_monomial(r.poly.lm(ord), ord) for r in rres.relations] == [
            format_monomial(r.poly.lm(ord), ord) for r in bres.relations
        ]
        rshifts = [
            format_monomial(r.shift, ord) if r.shift is not None else None
            for r in rres.relations
        ]
        bshifts = [
            format_monomial(r.shift, ord) if r.shift is not None else None
            for r in bres.relations
        ]
        assert rshifts == bshifts
        assert rres.queries == bres.queries
        assert verify_result(make_generator(gen, field), rres, ord)
    assert len(met) == 30  # carries checked: 16 over Q (sq, step), 13 of step over F_p, 1 of binomial


# -- Sakata's Δ-set growth on every table of small windows ---------------------------

EXHAUSTIVE_WINDOWS = [
    (FpField(2), "drl(y<x)", "x^3"),
    (FpField(2), "drl(z<y<x)", "x^2"),
    (FpField(2), "weight([[1,2],[0,-1]];y<x)", "x^3"),
    (FpField(2), "lex(y<x)", "y^5"),
    (FpField(3), "drl(y<x)", "x^2"),
]


def test_staircase_grows_as_in_bms_and_no_candidate_is_dead(monkeypatch):
    # The module docstring's theorems on every table of each window: at each
    # scanned monomial the staircase gains what bms's gains, no candidate is
    # dead when its next row arrives, when it is carried onto new columns or
    # when its relation is read off, and the rows a candidate dropped as zero
    # leave its rank unchanged by every carry.
    scanned, growth, met = [], [], []
    table = {}  # code -> FieldElement of the table under test; every read lies in the window
    dropped = 0

    class Checked(_rank_checked(table.__getitem__, met)):
        __slots__ = ()

        def insert(self, label, row):
            nonlocal dropped
            assert not self.dead
            scanned.append(label + self.lm)  # the last insert before a growth is at m
            kept = len(self.V)
            super().insert(label, row)
            dropped += len(self.V) == kept

        def extend(self, new, ext):
            assert not self.dead
            super().extend(new, ext)

        def relation(self, unpack):
            assert not self.dead
            return super().relation(unpack)

    def recording(pk, staircase, border, new):
        added = grow_staircase(pk, staircase, border, new)
        growth.append((pk.unpack(scanned[-1]), {pk.unpack(s) for s in added}))
        return added

    monkeypatch.setattr(ranksolver, "_Candidate", Checked)
    monkeypatch.setattr(ranksolver, "stabilize", recording)
    tables = multi = 0
    for field, spec, top in EXHAUSTIVE_WINDOWS:
        ord = parse_order(spec)
        bound = parse_monomial(top, ord)
        window = enumerate_up_to(bound, ord)
        pk = Packing(ord, bound)
        codes = [pk.pack(m) for m in window]
        shape = tuple(max(e) + 1 for e in zip(*window))
        cells = [sum(e * prod(shape[j + 1 :]) for j, e in enumerate(m)) for m in window]
        for values in itertools.product(range(field.p), repeat=len(window)):
            entries = [0] * prod(shape)
            for c, v in zip(cells, values):
                entries[c] = v
            scanned.clear()
            growth.clear()
            table.clear()
            table.update(zip(codes, map(field.elem, values)))
            run_rank_solver(table_oracle(field, shape, entries), bound, ord)
            bres = run_bms(table_oracle(field, shape, entries), bound, ord, trace=True)
            want = [(tr.m, set(tr.staircase_added)) for tr in bres.trace if tr.staircase_added]
            assert growth == want, (spec, values)
            tables += 1
            multi += len(growth) > 1
    assert tables == 2 * 2**10 + 2 * 2**6 + 3**6
    assert multi > tables // 2  # most tables grow the staircase more than once
    assert (dropped, sum(met)) == (7504, 320)  # rows dropped as zero; those a carry met


# -- staircase escalation through shared failure cells -----------------------------


def test_cross_candidate_escalation():
    # u(1,2) kills the x*y candidate and, through the same table cell, the
    # y^2 candidate; both quotients enter the staircase in one step.
    entries = ["1", "0", "1", "0", "2", "0", "1", "1", "0", "0", "1", "0", "0", "0", "0"]
    oracle = table_oracle(QQ, (3, 5), entries)
    res = run_rank_solver(oracle, parse_monomial("x*y^2", DRL2), DRL2)
    assert fmt_rel(res) == [("x*y - y - 1", "y"), ("x^2 - 1", "1"), ("y^3", "1")]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x", "y^2"]
    assert res.queries == 8


def test_escalation_absorbs_codeath_quotients():
    # Factorial x-axis with a single off-axis nonzero at u(3,1): at step x^3*y
    # both the y and x^2 candidates fail, and the closure of their quotients
    # {x^3, x*y} pulls y, x*y into the staircase.
    fact = [1, 1, 2, 6, 24, 120, 720, 5040]
    entries = []
    for i in range(8):
        row = [str(fact[i])] + ["0"] * 4
        if i == 3:
            row[1] = "1"
        entries += row
    oracle = table_oracle(QQ, (8, 5), entries)
    res = run_rank_solver(oracle, parse_monomial("x^4", DRL2), DRL2)
    assert fmt_rel(res) == [
        ("y^2", "x^2"),
        ("x^2*y - x + 1", "x"),
        ("x^4 - 24", "1"),
    ]
    assert fmt_monos(res.staircase, DRL2) == ["1", "y", "x", "x*y", "x^2", "x^3"]
    # the down-set of x^4: every monomial of degree <= 4
    assert res.queries == 15


# -- the bound's window --------------------------------------------------------------


def test_reads_stay_inside_the_bound_window():
    # The family sequences behind a provider that raises on any index above the
    # bound x^D (under drl with x most significant: any index of degree > D).
    grid = [FamilySpec(f, d, 2) for f in FAMILY_NAMES for d in range(2, 7)]
    grid += [FamilySpec(f, d, 3) for f in FAMILY_NAMES for d in range(2, 5)]
    for spec in grid:
        ord = family_order(spec.n)
        d_s, _, d_max = family_degrees(spec)
        bound = tuple(e * (d_s + d_max) for e in ord.variable("x"))
        lazy = make_family(spec)[0]

        def provider(i, lazy=lazy, ord=ord, bound=bound):
            if ord.lt(bound, i):
                raise BoundExceededError(i, (d_s + d_max + 1,) * spec.n)
            return lazy.query(i)

        res = run_rank_solver(SequenceOracle(spec.n, lazy.field, provider), bound, ord)
        assert res.staircase == run_bms(make_family(spec)[0], bound, ord).staircase, spec


def test_queries_equal_the_published_bms_counts():
    # rank scans the window bms scans and reads exactly its terms
    checked = 0
    for n, d_hi in ((2, 7), (3, 4)):
        for (family, algo), table in reference_queries(n).items():
            for d, expected in table.items():
                if algo == "bms" and d <= d_hi:
                    row = bench_point(FamilySpec(family, d, n), "rank")
                    assert row.queries == expected, (family, n, d)
                    checked += 1
    assert checked == 23


# -- certification of emitted relations --------------------------------------------


def test_emitted_relations_certified():
    # every closed relation must vanish on its whole certified shift window
    for gen, field, bound, ord in AGREEMENT_CASES:
        m = parse_monomial(bound, ord)
        res = run_rank_solver(make_generator(gen, field), m, ord)
        oracle = make_generator(gen, field)
        for rel in res.relations:
            if rel.shift is None:
                continue
            # shift is the largest certified row; the window is its down-set
            for mu in enumerate_up_to(rel.shift, ord):
                assert not bracket(oracle, rel.poly, mu)


# -- serialization ------------------------------------------------------------------


def test_every_scan_solver_writes_relations_of_one_shape():
    for run in (run_bms, run_bms_linalg, run_bms_tweaked, run_rank_solver):
        for gen, field, bound, ord in AGREEMENT_CASES:
            data = result_to_json(run(make_generator(gen, field), parse_monomial(bound, ord), ord))
            assert data["relations"], (run.__name__, gen)
            for entry in data["relations"]:
                assert sorted(entry) == ["poly", "shift", "tested"], (run.__name__, gen)


def test_json_round_trip():
    entries = ["1", "0", "1", "0", "2", "0", "1", "1", "0", "0", "1", "0", "0", "0", "0"]
    oracle = table_oracle(QQ, (3, 5), entries)
    res = run_rank_solver(oracle, parse_monomial("x*y^2", DRL2), DRL2)
    data = result_to_json(res)
    assert data["relations"][0] == {
        "poly": [
            {"monomial": "x*y", "coefficient": "1"},
            {"monomial": "y", "coefficient": "-1"},
            {"monomial": "1", "coefficient": "-1"},
        ],
        "shift": "y",
        "tested": True,
    }
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    again = run_rank_solver(table_oracle(QQ, (3, 5), entries), parse_monomial("x*y^2", DRL2), DRL2)
    assert json.dumps(result_to_json(again), sort_keys=True) == text  # deterministic


# -- recovery property ---------------------------------------------------------------


@settings(deadline=None, max_examples=15)
@given(
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_matches_iterative_solver_on_random_ideals(a, b, seed):
    fld = FpField(65537)
    lms = [parse_monomial(f"y^{a}", DRL2), parse_monomial(f"x^{b}", DRL2)]
    oracle, gb = random_from_lms(lms, DRL2, fld, seed)
    bound = stopping_bound(gb, DRL2)
    rres = run_rank_solver(oracle, bound, DRL2)
    oracle2, _ = random_from_lms(lms, DRL2, fld, seed)
    bres = run_bms(oracle2, bound, DRL2)
    assert fmt_monos(rres.staircase, DRL2) == fmt_monos(bres.staircase, DRL2)
    assert [format_monomial(r.poly.lm(DRL2), DRL2) for r in rres.relations] == [
        format_monomial(r.poly.lm(DRL2), DRL2) for r in bres.relations
    ]
    rshifts = [
        format_monomial(r.shift, DRL2) if r.shift is not None else None
        for r in rres.relations
    ]
    bshifts = [
        format_monomial(r.shift, DRL2) if r.shift is not None else None
        for r in bres.relations
    ]
    assert rshifts == bshifts
