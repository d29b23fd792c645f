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
keeps its pivot rows and echelon form and reads and reduces only its new
columns; a new border code t is built from its row window, the window codes
up to m - t.  Every read u(mu + s) or u(mu + t) thus lies at or below the
current m, inside the bound's window, and goes through a run-local
`PackedReads` memo.  Each candidate carries an incremental row-echelon form
with its column last, so a visit costs one row reduction.

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

No row that reduced to zero gains a pivot later.  When the staircase grows
at m, each new column s′ ∈ Δ_m ∖ Δ_{m⁻} of a kept candidate t (s′ ≺ t) is a
fixed combination of t's old columns on every row of t.  As s′ ∉ Δ_{m⁻},
some f leading with s′ holds up to m⁻, and by the Reduction bullet (at m⁻)
its tail lies on Δ_{m⁻} below s′: old columns of t.  Each row μ of t has
μ + s′ ≺ μ + t ⪯ m, so μ is a row of f, and [μ·f] = 0 writes u(μ + s′)
through the u(μ + s) of the tail.  So a row combination that vanishes on the
old columns vanishes on the new ones, and a candidate keeps only its pivot
rows: a zero row would stay zero on every column carried in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import mul, sub

from .field import Field, OpCounter, count_adds, count_invs, count_mults, counting
from .monomials import Monomial, MonomialOrder, Packing, certified_shift, enumerate_up_to
from .monomials import grow_staircase as stabilize  # looked up per call: perfbench counts it
from .poly import Poly
from .result import Relation, Result
from .sequences import PackedReads, SequenceOracle
from .hankel import solve_relation  # noqa: F401  perfbench's layer tracer patches it here


class _Candidate:
    """Echelon bookkeeping for one border code t over its columns s < t, in
    the order they joined, with the candidate column last.

    Rows hold raw values (ints mod p, or Fractions over Q), combined through
    the raw methods of the `Field`.  Only pivot rows are kept: V holds their
    labels, `vecs` their reduced vectors and `log` each step that made them
    (target, source, multiplier) as indices into V, source None for the
    scaling of a new pivot row.  A row reduced to zero is counted and dropped
    with its steps: it stays zero on every column the scan carries in (module
    docstring).  Counted in bulk by the full-width row-operation convention,
    however the kernels compute (a row reduced at each pivot and at its
    scaling, a carry replayed a column at a time), as sfglm charges its
    checks: an applied stored row costs len(row) multiplications and as many
    additions, a new pivot 1 inversion and len(row) multiplications, a carry
    of w columns w multiplications per log step and w additions per subtraction.
    """

    __slots__ = ("lm", "field", "cols", "V", "vecs", "pivots", "log", "dead")

    def __init__(self, lm: int, field: Field, cols: list[int]):
        self.lm = lm
        self.field = field
        self.cols = cols  # staircase columns s < lm
        self.V: list[int] = []  # labels of the pivot rows, ascending
        self.vecs: list[list] = []  # reduced vector of each row of V
        self.pivots: list[int] = []
        self.log: list[tuple] = []
        self.dead = False  # a pivot sits in the candidate column

    def insert(self, label: int, row: list) -> None:
        field, vecs, log, i = self.field, self.vecs, self.log, len(self.V)
        reduce, n = field._reduce, len(log)
        for j, p in enumerate(self.pivots):
            c = reduce(row[p])
            if c:
                row = list(map(sub, row, map(mul, repeat(c), vecs[j])))
                log.append((i, j, c))
        count_mults((len(log) - n) * len(row))
        count_adds((len(log) - n) * len(row))
        pivot = next((j for j, a in enumerate(row) if reduce(a)), None)
        if pivot is None:
            del log[n:]
            return
        inv = field._inv(reduce(row[pivot]))
        count_invs(1)
        count_mults(len(row))
        log.append((i, None, inv))
        self.V.append(label)
        self.vecs.append(field._scale(row, inv))
        self.pivots.append(pivot)
        self.dead |= pivot == len(row) - 1

    def relation(self, unpack) -> Poly:
        """t + Σ α_s·s by back substitution; after the scan no candidate is
        dead (module docstring)."""
        field, k = self.field, len(self.cols)
        alpha, solved, products = [field.zero.value] * k, [], 0  # solved: pivots with α ≠ 0
        for p, vec in zip(reversed(self.pivots), reversed(self.vecs)):
            xs = [vec[c] for c in solved]
            products += len(xs) - xs.count(0)
            dot = field._dot(xs, [alpha[c] for c in solved])
            alpha[p] = field._neg(field._add(dot, vec[k]))
            if alpha[p]:
                solved.append(p)
        count_mults(products)
        count_adds(products)
        tail = {unpack(s): field.elem(a) for s, a in sorted(zip(self.cols, alpha)) if a}
        return Poly(field, {unpack(self.lm): field.one, **tail})

    def extend(self, new: list[int], ext: list[list]) -> None:
        """Adjoin the columns `new`, before the candidate column; `ext[i]`
        holds the values of row V[i] in them.  The scan never carries a dead
        candidate, and a dropped zero row stays zero (module docstring), so
        the pivots stay."""
        log, scale, cols = self.log, self.field._mul, []
        for vals in map(list, zip(*ext)):
            for i, j, c in log:  # row j < i is final: its scaling step came first
                vals[i] = scale(vals[i], c) if j is None else vals[i] - c * vals[j]
            cols.append(vals)
        count_mults(len(log) * len(new))
        count_adds((len(log) - len(self.V)) * len(new))  # each row has one scaling step
        k = len(self.cols)
        self.cols += new
        self.vecs = [v[:k] + [col[i] for col in cols] + v[k:] for i, v in enumerate(self.vecs)]


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
        relations = [Relation(c.relation(pk.unpack), certified_shift(pk, window, c.lm)) for c in candidates]
    return Result(
        "rank",
        ord,
        field,
        relations,
        [pk.unpack(s) for s in sorted(staircase)],
        oracle.queries - start,
        ops,
        bound=bound,
    )
