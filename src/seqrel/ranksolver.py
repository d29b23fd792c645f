"""Relation-ideal computation by incremental rank comparisons.

The scan visits every monomial m up to the bound in ascending order.  Each
border candidate leading monomial t dividing m contributes the row m/t: the
candidate admits a relation valid on its accumulated rows exactly when
adjoining the t-column to the staircase columns does NOT raise the row-space
rank.  A rank jump certifies that m/t belongs to the staircase; the staircase
is then restabilized, the candidate set becomes the new border, and every
candidate restarts from the full row window {mu : mu*t <= m}.  Relation tails
are solved only once, after the scan, from each candidate's final row set.

Per-candidate ranks are maintained as incremental row-echelon forms with the
candidate column kept last, so each visit costs one row reduction.
"""

from __future__ import annotations

from .errors import SeqrelError
from .field import Field, OpCounter, count_adds, count_invs, count_mults, counting
from .monomials import (
    Monomial,
    MonomialOrder,
    border,
    divides,
    enumerate_up_to,
    format_monomial,
    iter_up_to,
    mul as mono_mul,
    quotient,
    stabilize,
)
from .poly import Poly
from .result import Relation, Result
from .sequences import SequenceOracle
from .hankel import Inconsistent, solve_relation


class _Candidate:
    """Echelon bookkeeping for one border monomial; candidate column last.

    Rows hold raw values (ints mod p, or Fractions over Q), combined through
    the raw methods of the `Field`, and each insert counts in bulk what the
    same elimination on `FieldElement`s would: an applied stored row costs
    len(row) multiplications and len(row) additions, a new pivot 1 inversion
    and len(row) multiplications.
    """

    __slots__ = ("lm", "field", "V", "rows", "pivots", "dead")

    def __init__(self, lm: Monomial, field: Field):
        self.lm = lm
        self.field = field
        self.V: list[Monomial] = []  # rows accumulated, ascending
        self.rows: list[list] = []  # reduced echelon rows, raw values
        self.pivots: list[int] = []
        self.dead = False  # a pivot sits in the candidate column

    def insert(self, label: Monomial, row: list) -> None:
        self.V.append(label)
        field = self.field
        applied = 0
        for prow, j in zip(self.rows, self.pivots):
            c = row[j]
            if c:
                applied += 1
                row = field._sub_scaled(row, prow, c)
        count_mults(applied * len(row))
        count_adds(applied * len(row))
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is not None:
            count_invs(1)
            count_mults(len(row))
            row = field._scale(row, field._inv(row[pivot]))
            self.rows.append(row)
            self.pivots.append(pivot)
            if pivot == len(row) - 1:
                self.dead = True


def _candidate_row(
    oracle: SequenceOracle, q: Monomial, S: list[Monomial], lm: Monomial
) -> list:
    return [oracle.query(mono_mul(q, m)).value for m in (*S, lm)]


def _fresh_candidate(
    oracle: SequenceOracle,
    lm: Monomial,
    S: list[Monomial],
    upto: Monomial,
    ord: MonomialOrder,
) -> _Candidate:
    cand = _Candidate(lm, oracle.field)
    for mu in enumerate_up_to(upto, ord):
        if ord.leq(mono_mul(mu, lm), upto):
            cand.insert(mu, _candidate_row(oracle, mu, S, lm))
    return cand


def run_rank_solver(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder
) -> Result:
    ops = OpCounter()
    start = oracle.queries
    staircase: list[Monomial] = []
    candidates: list[_Candidate] = [_Candidate(ord.one, oracle.field)]
    with counting(ops):
        for m in iter_up_to(bound, ord):
            additions: list[Monomial] = []
            for cand in candidates:
                if not divides(cand.lm, m):
                    continue
                q = quotient(m, cand.lm)
                cand.insert(q, _candidate_row(oracle, q, staircase, cand.lm))
                if cand.dead:
                    additions.append(q)
            if additions:
                staircase = stabilize(staircase + additions, ord)
                candidates = [
                    _fresh_candidate(oracle, lm, staircase, m, ord)
                    for lm in border(staircase, ord)
                ]
        relations = []
        for cand in candidates:
            solved = solve_relation(oracle, staircase, cand.V, cand.lm, ord)
            shift = cand.V[-1] if cand.V else None
            if isinstance(solved, Inconsistent):
                relations.append(
                    Relation(
                        Poly.monomial(oracle.field, cand.lm),
                        shift,
                        open=True,
                        fail_row=solved.row,
                        residual=solved.residual,
                    )
                )
            else:
                if solved.lm(ord) != cand.lm:
                    raise SeqrelError(
                        f"candidate {format_monomial(cand.lm, ord)}: the relation "
                        f"solved on its rows leads with "
                        f"{format_monomial(solved.lm(ord), ord)}, not with the candidate"
                    )
                relations.append(Relation(solved, shift, open=False))
    relations.sort(key=lambda r: ord.key(r.poly.lm(ord)))
    return Result(
        "rank",
        ord,
        oracle.field,
        relations,
        staircase,
        oracle.queries - start,
        ops,
        bound=bound,
    )
