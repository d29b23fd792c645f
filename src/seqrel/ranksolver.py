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
column means rank[A|b] = rank[A], so every row holds, and the relation leads
with t.  Codes are unpacked to tuples only for the `Relation`s and
`Result.staircase`.

No candidate ends the scan dead: this is Sakata's Δ-set growth (J. Symb.
Comput. 1988).  Write [μ·f] for Σ_s f_s·u(μ + s); f holds up to m when
[μ·f] = 0 for every μ with μ + LM(f) ⪯ m, and fails at m when it holds up to
m⁻, the monomial scanned just before m, but not up to m.  Valid_m is the set
of the leading monomials of the f that hold up to m, and Δ_m its complement,
a staircase (∅ before the scan).  By induction on m the staircase before m is
Δ_{m⁻}, and each candidate, a border monomial t with the staircase columns
below it, holds on its rows μ + t ⪯ m⁻.

* Reduction.  A relation for t that holds up to m can be rewritten with its
  tail on Δ_{m⁻} below t: clear the greatest tail term u ∉ Δ_{m⁻} with a
  multiple of x^{u−t'}·f_{t'}, where t' | u and f_{t'} holds up to m⁻.  That
  keeps every row of t, as μ + u ≺ μ + t ⪯ m, and brings only terms below u.
  So a candidate is dead at m exactly when t ∈ Δ_m, its f_t failing at m.
* Sakata's lemma.  If f leads with t and fails at m, then m − t ∈ Δ_m.  Else
  some g leading with v = m − t holds up to m, and [f·g] is 0 expanded by
  f's terms (rows of g up to m) but [v·f] ≠ 0 expanded by g's (the other
  rows of f lie below m).
* The converse.  Every u ∈ Δ_m ∖ Δ_{m⁻} divides m − t for a dead t.  An
  f_u holding up to m⁻ fails at m, so v = m − u ∈ Δ_m by the lemma.  If
  v ∉ Δ_{m⁻}, a border divisor t of v lies in Δ_m: t is dead, and u | m − t.
  If v ∈ Δ_{m⁻}, v divides m' − t' for a t' dead at some m' ≺ m (the
  staircase is the divisor closure of such quotients), and then
  f_u − (d/e)·x^{m'−t'−v}·f_{t'}, with d = [v·f_u] and e = [(m'−t')·f_{t'}],
  leads with u (m' − v ≺ u) and holds up to m: a contradiction.

So the dead candidates' quotients m − t grow the staircase to Δ_m, as in
BMS: a dead candidate leaves the border, and no candidate of the new border,
which lies outside Δ_m, is dead after the rebuild.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .field import Field, OpCounter, count_adds, count_invs, count_mults, counting
from .monomials import Monomial, MonomialOrder, Packing, enumerate_up_to
from .monomials import grow_staircase as stabilize  # looked up per call: perfbench counts it
from .poly import Poly
from .result import Relation, Result
from .sequences import PackedReads, SequenceOracle
from .hankel import solve_relation  # noqa: F401  perfbench's layer tracer patches it here


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
    same prices, the rows that had reduced to zero.
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
        """t + Σ α_s·s by back substitution; after the scan no candidate is
        dead (module docstring)."""
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
        holds the values of row V[i] in them.  The scan never carries a dead
        candidate (module docstring), so every pivot sits in an old column."""
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
        # the pivots stay; the rows that had reduced to zero are zero in the
        # old columns and are re-inserted in order
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
        unpack = pk.unpack
        relations = [  # ascending LM
            Relation(cand.relation(unpack), unpack(cand.V[-1]) if cand.V else None) for cand in candidates
        ]
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
