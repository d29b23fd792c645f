"""Relation-ideal computation by incremental rank comparisons.

The scan visits every monomial m up to the bound in ascending order.  Each
border candidate leading monomial t dividing m contributes the row m/t: the
candidate admits a relation valid on its accumulated rows exactly when
adjoining the t-column to the staircase columns s ≺ t does NOT raise the
row-space rank.  A rank jump certifies that m/t belongs to the staircase; the
staircase is then restabilized and the candidate set becomes the new border.
A candidate that stays in the border keeps its rows and its echelon form and
only reads and reduces the staircase columns below it that are new; a new
border monomial t is built from its row window {mu : mu*t <= m}.  Every read
u(mu*s) or u(mu*t) thus lies at or below the current m, inside the bound's
window.
Relation tails are solved only once, after the scan, from each candidate's
final row set over its columns s ≺ t.

Per-candidate ranks are maintained as incremental row-echelon forms with the
candidate column kept last, so each visit costs one row reduction.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Iterable

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
    """Echelon bookkeeping for one border monomial t over its columns s ≺ t,
    in the order they joined, with the candidate column last.

    Rows hold raw values (ints mod p, or Fractions over Q), combined through
    the raw methods of the `Field`.  Every row of V keeps its reduced vector
    (zero unless it holds a pivot), and `log` records each elimination step
    (target, source, multiplier), with source None for the scaling of a new
    pivot row.  Counted in bulk: an applied stored row costs len(row)
    multiplications and len(row) additions, a new pivot 1 inversion and
    len(row) multiplications.  `extend` carries the form onto new columns by
    replaying the log on their values, w multiplications per step and w
    additions per subtraction for w new columns, and then re-inserts, at the
    same prices, the rows whose pivot may move: those that had reduced to
    zero and the dead row.
    """

    __slots__ = ("lm", "field", "cols", "V", "vecs", "stored", "pivots", "log", "dead")

    def __init__(self, lm: Monomial, field: Field, cols: Iterable[Monomial] = ()):
        self.lm = lm
        self.field = field
        self.cols = list(cols)  # staircase columns s ≺ lm
        self.V: list[Monomial] = []  # rows accumulated, ascending
        self.vecs: list[list] = []  # reduced vector of each row of V
        self.stored: list[int] = []  # rows of V holding a pivot, in order
        self.pivots: list[int] = []
        self.log: list[tuple] = []
        self.dead = False  # a pivot sits in the candidate column

    def insert(self, label: Monomial, row: list) -> None:
        self.V.append(label)
        self.vecs.append(row)
        self._reduce(len(self.V) - 1)

    def _reduce(self, i: int) -> None:
        field, vecs, log = self.field, self.vecs, self.log
        row = vecs[i]
        applied = 0
        for j, p in zip(self.stored, self.pivots):
            c = row[p]
            if c:
                applied += 1
                row = field._sub_scaled(row, vecs[j], c)
                log.append((i, j, c))
        count_mults(applied * len(row))
        count_adds(applied * len(row))
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is not None:
            inv = field._inv(row[pivot])
            count_invs(1)
            count_mults(len(row))
            row = field._scale(row, inv)
            log.append((i, None, inv))
            self.stored.append(i)
            self.pivots.append(pivot)
            if pivot == len(row) - 1:
                self.dead = True
        vecs[i] = row

    def extend(self, new: list[Monomial], ext: list[list]) -> None:
        """Adjoin the columns `new`, before the candidate column; `ext[i]`
        holds the values of row V[i] in them."""
        field = self.field
        subs = 0
        for i, j, c in self.log:
            if j is None:
                ext[i] = field._scale(ext[i], c)
            else:
                ext[i] = field._sub_scaled(ext[i], ext[j], c)
                subs += 1
        count_mults(len(self.log) * len(new))
        count_adds(subs * len(new))
        k = len(self.cols)
        self.cols += new
        self.vecs = [v[:k] + e + v[k:] for v, e in zip(self.vecs, ext)]
        # a pivot in an old staircase column stays; the dead row and the rows
        # that had reduced to zero are zero there and are re-inserted in order
        old = [(i, p) for i, p in zip(self.stored, self.pivots) if p < k]
        self.stored = [i for i, _ in old]
        self.pivots = [p for _, p in old]
        self.dead = False
        for i in sorted(set(range(len(self.V))).difference(self.stored)):
            if any(self.vecs[i]):
                self._reduce(i)


def _row(oracle: SequenceOracle, q: Monomial, cols: list[Monomial]) -> list:
    return [oracle.query(mono_mul(q, s)).value for s in cols]


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
                cand.insert(q, _row(oracle, q, [*cand.cols, cand.lm]))
                if cand.dead:
                    additions.append(q)
            if not additions:
                continue
            staircase = stabilize(staircase + additions, ord)
            kept = {cand.lm: cand for cand in candidates}
            window: list[Monomial] | None = None
            candidates = []
            for t in border(staircase, ord):
                cols = [s for s in staircase if ord.lt(s, t)]
                cand = kept.get(t)
                if cand is None:
                    window = window or enumerate_up_to(m, ord)
                    cand = _Candidate(t, oracle.field, cols)
                    for mu in takewhile(lambda mu: ord.leq(mono_mul(mu, t), m), window):
                        cand.insert(mu, _row(oracle, mu, [*cols, t]))
                elif len(cols) > len(cand.cols):
                    have = set(cand.cols)
                    new = [s for s in cols if s not in have]
                    cand.extend(new, [_row(oracle, mu, new) for mu in cand.V])
                candidates.append(cand)
        relations = []
        for cand in candidates:
            solved = solve_relation(oracle, cand.cols, cand.V, cand.lm, ord)
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
