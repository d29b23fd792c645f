"""Relation-ideal computation from the rank profile of one multi-Hankel matrix.

Given a stable set T of monomials, the matrix H_{T,T} is read once, in full;
the column rank profile yields the useful staircase S.  The candidate leading
monomials are the border of stable(S), its divisibility-minimal outside
monomials, as in Scalar-FGLM: sfglm takes those inside T, sfglm-tweaked all
of them, so it reaches past T along the shifted staircase x_i·S.  Border
monomials do not divide one another, so the output is a reduced basis; at
rank 0 the border is {1}, the unit ideal.  Each candidate t's relation tail
is obtained by solving the square invertible system H_{S,S}·α = −H_{S,t}.
Every block is sliced from H_{T,T}; the oracle is read again only for the
column of a candidate outside T.

A candidate t inside T holds on every row of T (the rank argument of
Berthomieu, Boyer and Faugère, J. Symb. Comput. 2017):

* the columns S are independent and span the column space of H_{T,T}.  It is
  symmetric, so the rows S are independent too; every column of H_{S,T} is a
  combination of those of H_{S,S}, so H_{S,S} is nonsingular;
* t lies outside stable(S) ⊇ S, and S was taken greedily in ascending
  order, so column t is H_{T,S}·β for one β, on the profile columns before t;
* on the rows S this reads H_{S,t} = H_{S,S}·β, so the solve gives α = −β:
  the relation leads with t, and its residual H_{T,S}·α + H_{T,t} is 0.

So such a check is charged, not run, at the cost of the dense residual:
|S| multiplications and |S| additions per row.  sfglm never rejects.

Both variants run one engine, `_run`; `run_sfglm` and `run_sfglm_tweaked`
name its setting.  sfglm solves its candidates in one elimination of
[H_{S,S} | H_{S,cands}] and charges their checks on the rows outside S.
sfglm-tweaked factors H_{S,S} once, solves each candidate as it comes and
charges or runs its check on every row of T: it runs it only at a shifted
candidate outside T, the one place it can reject (a `RejectedCandidate`) or
raise, the solved relation leading with a smaller monomial (`SeqrelError`).
"""

from __future__ import annotations

from .field import FieldElement, OpCounter, count_adds, count_mults, counting
from .monomials import (
    Monomial,
    MonomialOrder,
    _nonnegative_rows,
    border,
    format_monomial,
    is_stable,
    mul as mono_mul,
    stabilize,
)
from .poly import Poly
from .result import RejectedCandidate, Relation, Result
from .sequences import SequenceOracle
from .errors import SeqrelError
from .hankel import (
    Factored,
    MultiHankelMatrix,
    _dots,
    build,
    column_rank_profile,
    factor,
    solve_relation,
    solve_tails,
)


def _validated_table(T: list[Monomial], ord: MonomialOrder) -> list[Monomial]:
    _nonnegative_rows(ord)  # raises unless 1 is the least monomial
    T = ord.sort(T)
    if not T:
        raise SeqrelError("table of monomials must be nonempty")
    if not is_stable(T):
        raise SeqrelError("table of monomials must be stable under division")
    return T


def _first_failure(
    oracle: SequenceOracle, H: MultiHankelMatrix, S: list[Monomial], rel: Poly, t: Monomial
) -> tuple[Monomial, FieldElement] | None:
    """The first row of H where the relation of a candidate t outside T leaves
    a residual H_{row,S}·α + u(row·t) ≠ 0, with that residual, or None; u(row·t)
    is read from the oracle row by row up to the first failing row.  Counted
    as the dense product: |S| multiplications and |S| additions per row."""
    field = H.field
    sums = _dots(H.array[:, [H.col_at[s] for s in S]], [rel.coeff(s).value for s in S], field)
    checked, failure = 0, None
    for checked, (row, residual) in enumerate(zip(H.row_labels, sums), 1):
        residual = field._add(residual, oracle.query(mono_mul(row, t)).value)
        if residual:
            failure = row, field.elem(residual)
            break
    count_mults(len(S) * checked)
    count_adds(len(S) * checked)
    return failure


def _solve_candidate(oracle: SequenceOracle, t: Monomial, ord: MonomialOrder, factored: Factored) -> Poly:
    rel = solve_relation(oracle, t, factored)
    if rel.lm(ord) != t:
        # a shifted-staircase candidate can lie below a staircase monomial
        raise SeqrelError(
            f"candidate {format_monomial(t, ord)}: the relation solved on the "
            f"staircase leads with {format_monomial(rel.lm(ord), ord)}, "
            "not with the candidate"
        )
    return rel


def _solve_candidates(
    H: MultiHankelMatrix, S: list[Monomial], cands: list[Monomial], ord: MonomialOrder
) -> dict[Monomial, Poly]:
    """Monic relations t + tail_S(t) for every candidate of H's columns, from
    one elimination of a block of H."""
    out = solve_tails(H, S, cands, ord)
    assert out is not None, "staircase system must be invertible"
    for t, rel in out.items():
        assert rel.lm(ord) == t, "solved tail must stay below the candidate"
    return out


def _run(oracle: SequenceOracle, T: list[Monomial], ord: MonomialOrder, algorithm: str) -> Result:
    """Both variants: read H_{T,T}, take its profile S, then solve the border
    of stable(S) in ascending order, checking each candidate outside T.  Every
    relation holds on the rows T; T[-1] is the greatest."""
    T = _validated_table(T, ord)
    tweaked = algorithm == "sfglm-tweaked"
    ops = OpCounter()
    start = oracle.queries
    gb: list[Poly] = []
    rejected: list[RejectedCandidate] = []
    with counting(ops):
        H = build(oracle, T, T, ord)
        _, S = column_rank_profile(H)  # at rank 0, the candidate 1 gives the unit ideal
        L = border(stabilize(S, ord), ord)
        if tweaked:
            factored = factor(H, S, ord)
            # S is the column rank profile of the symmetric H_{T,T}, so H_{S,S} is nonsingular
            assert len(factored.pivots) == len(S)
            solve = lambda t: _solve_candidate(oracle, t, ord, factored)
            checked_rows = len(T)
        else:
            L = [t for t in L if t in H.col_at]  # the border inside T
            solve = _solve_candidates(H, S, L, ord).__getitem__
            checked_rows = len(T) - len(S)
        for t in L:
            rel = solve(t)
            if t in H.col_at:  # it holds on every row: see the module docstring
                count_mults(len(S) * checked_rows)
                count_adds(len(S) * checked_rows)
            elif failure := _first_failure(oracle, H, S, rel, t):
                rejected.append(RejectedCandidate(t, *failure))
                continue
            gb.append(rel)
    relations = [Relation(g, T[-1]) for g in gb]
    return Result(
        algorithm, ord, oracle.field, relations, S, oracle.queries - start, ops, table=T, rejected=rejected
    )


def run_sfglm(oracle: SequenceOracle, T: list[Monomial], ord: MonomialOrder) -> Result:
    """Relations of the table restricted to T, leading monomials in T."""
    return _run(oracle, T, ord, "sfglm")


def run_sfglm_tweaked(oracle: SequenceOracle, T: list[Monomial], ord: MonomialOrder) -> Result:
    """Adaptive variant: the candidates are the whole border of stable(S).

    The border reaches past T along the shifted staircase x_i·S, so pure-power
    relations beyond the table degree are reached without enlarging T.  Only
    such a shifted candidate outside T can fail: a solved tail failing on
    some table row is rejected, reported with the first failing row and its
    residual, and a relation that leads with a staircase monomial below the
    candidate raises SeqrelError.
    """
    return _run(oracle, T, ord, "sfglm-tweaked")
