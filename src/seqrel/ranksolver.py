"""Relation-ideal computation by incremental rank comparisons.

The scan visits every monomial m up to the bound in ascending order, as one
int of the run's `Packing`: a code, so that a product is `+`, a quotient `-`,
t divides m exactly when `(m - t) & mask` is zero, and ≺ is `<`.  Each border
candidate t dividing m contributes the row m - t: the candidate admits a
relation valid on its accumulated rows exactly when adjoining the t-column to
the staircase columns s < t does NOT raise the row-space rank.  A rank jump
certifies that m - t belongs to the staircase; `stabilize` then grows the
packed staircase and its border in place, as in BMS, and the candidate set
becomes the new border.  A candidate's columns are the staircase codes below
it, a prefix of the sorted staircase.  A candidate that stays in the border
keeps its rows and its echelon form and only reads and reduces the staircase
columns below it that are new; a new border code t is built from its row
window, the window codes up to m - t.  Every read u(mu + s) or u(mu + t) thus
lies at or below the current m, inside the bound's window, and goes through a
run-local `PackedReads` memo.  Each candidate carries an incremental
row-echelon form with its column last, so a visit costs one row reduction.

After the scan each tail is read off that form by back substitution, with no
read and no second elimination.  A stored row is 1 at its pivot p and zero
before it and at the pivots of rows stored earlier, so, from the last stored
row back, α_p = −(row[p+1:k]·α[p+1:k] + row[k]), free variables 0: 1
multiplication and 1 addition per nonzero product.  No pivot in the candidate
column means rank[A|b] = rank[A], so every row holds; only a candidate dead
at the end goes to `hankel.solve_relation`, for its failing row and residual.
Codes are unpacked to tuples only for the `Relation`s and `Result.staircase`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import SeqrelError
from .field import Field, OpCounter, count_adds, count_invs, count_mults, counting
from .monomials import Monomial, MonomialOrder, Packing, enumerate_up_to, format_monomial
from .monomials import grow_staircase as stabilize  # looked up per call: perfbench counts it
from .poly import Poly
from .result import Relation, Result
from .sequences import PackedReads, SequenceOracle
from .hankel import Inconsistent, solve_relation


class _Candidate:
    """Echelon bookkeeping for one border code t over its columns s < t, in
    the order they joined, with the candidate column last.

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

    def __init__(self, lm: int, field: Field, cols: list[int]):
        self.lm = lm
        self.field = field
        self.cols = cols  # staircase columns s < lm
        self.V: list[int] = []  # rows accumulated, ascending
        self.vecs: list[list] = []  # reduced vector of each row of V
        self.stored: list[int] = []  # rows of V holding a pivot, in order
        self.pivots: list[int] = []
        self.log: list[tuple] = []
        self.dead = False  # a pivot sits in the candidate column

    def insert(self, label: int, row: list) -> None:
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

    def relation(self, unpack) -> Poly:
        """t + Σ α_s·s for a candidate that is not dead, by back substitution."""
        field, k, vecs = self.field, len(self.cols), self.vecs
        alpha, solved, products = [field.zero.value] * k, [], 0  # solved: pivots with α ≠ 0
        for p, i in zip(reversed(self.pivots), reversed(self.stored)):
            xs = [vecs[i][c] for c in solved]
            products += len(xs) - xs.count(0)
            dot = field._dot(xs, [alpha[c] for c in solved])
            alpha[p] = field._neg(field._add(dot, vecs[i][k]))
            if alpha[p]:
                solved.append(p)
        count_mults(products)
        count_adds(products)
        tail = {unpack(s): field.elem(a) for s, a in sorted(zip(self.cols, alpha)) if a}
        return Poly(field, {unpack(self.lm): field.one, **tail})

    def extend(self, new: list[int], ext: list[list]) -> None:
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


def run_rank_solver(
    oracle: SequenceOracle, bound: Monomial, ord: MonomialOrder
) -> Result:
    ops = OpCounter()
    start = oracle.queries
    field = oracle.field
    pk = Packing(ord, bound)
    reads = PackedReads(oracle, pk.unpack)
    window = [pk.pack(m) for m in enumerate_up_to(bound, ord)]
    staircase: set[int] = set()
    border = {0}  # the code of the monomial 1
    candidates = [_Candidate(0, field, [])]
    with counting(ops):
        for m in window:
            additions: list[int] = []
            for cand in candidates:
                q = m - cand.lm
                if q & pk.mask:
                    continue
                cand.insert(q, [reads[q + s] for s in (*cand.cols, cand.lm)])
                if cand.dead:
                    additions.append(q)
            if not additions:
                continue
            added = stabilize(pk, staircase, border, additions)
            stair = sorted(staircase)
            kept = {cand.lm: cand for cand in candidates}
            candidates = []
            for t in sorted(border):
                cols = stair[: bisect_left(stair, t)]
                new = added[: bisect_left(added, t)]  # a kept candidate's new columns
                cand = kept.get(t)
                if cand is None:
                    cand = _Candidate(t, field, cols)
                    for mu in window[: bisect_right(window, m - t)]:
                        cand.insert(mu, [reads[mu + s] for s in (*cols, t)])
                elif new:
                    cand.extend(new, [[reads[mu + s] for s in new] for mu in cand.V])
                candidates.append(cand)
        relations = []
        unpack = pk.unpack
        for cand in candidates:  # ascending LM
            lm = unpack(cand.lm)
            shift = unpack(cand.V[-1]) if cand.V else None
            if not cand.dead:
                solved = cand.relation(unpack)
            else:  # inconsistent: the solve reports the first failing row
                rows = [unpack(mu) for mu in cand.V]
                solved = solve_relation(oracle, [unpack(s) for s in cand.cols], rows, lm, ord)
            if isinstance(solved, Inconsistent):
                relations.append(Relation(Poly.monomial(field, lm), shift, open=True,
                                          fail_row=solved.row, residual=solved.residual))
            elif solved.lm(ord) != lm:
                raise SeqrelError(
                    f"candidate {format_monomial(lm, ord)}: the relation solved on its rows "
                    f"leads with {format_monomial(solved.lm(ord), ord)}, not with the candidate"
                )
            else:
                relations.append(Relation(solved, shift, open=False))
    return Result(
        "rank",
        ord,
        field,
        relations,
        [unpack(s) for s in sorted(staircase)],
        oracle.queries - start,
        ops,
        bound=bound,
    )
