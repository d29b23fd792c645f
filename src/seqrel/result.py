"""One result type for every solver, and its JSON form.

A result holds the relations found, each with the greatest shift it was
certified on, the staircase, and the query and field-operation counts.  Scan
solvers (bms, bms-linalg, bms-tweaked, rank) record the monomial `bound` they
scanned up to; table solvers (sfglm, sfglm-tweaked) record the term set
`table`, which is also the row set every relation was verified on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import Field, FieldElement, OpCounter
from .monomials import Monomial, MonomialOrder, format_monomial
from .poly import Poly, format_poly, poly_to_json


@dataclass
class Relation:
    poly: Poly
    shift: Monomial | None  # greatest certified shift; None = never tested


@dataclass
class RejectedCandidate:
    """Candidate leading monomial whose solved tail fails on some table row:
    only sfglm-tweaked's shifted candidates outside the table can."""

    candidate: Monomial
    row: Monomial
    residual: FieldElement


@dataclass
class Result:
    algorithm: str
    ord: MonomialOrder
    field: Field
    relations: list[Relation]
    staircase: list[Monomial]
    queries: int
    ops: OpCounter
    bound: Monomial | None = None  # scan solvers: last monomial visited
    table: list[Monomial] | None = None  # table solvers: T, ascending
    rejected: list[RejectedCandidate] = dc_field(default_factory=list)
    trace: list = dc_field(default_factory=list)  # bms StepTrace per monomial

    def basis(self) -> list[Poly]:
        return [r.poly for r in self.relations]


def format_trace(traces: list, ord: MonomialOrder) -> str:
    """One line per scanned monomial of a bms event trace."""
    lines = []
    for tr in traces:
        head = f"m = {format_monomial(tr.m, ord)}"
        if not tr.failures:
            lines.append(f"{head}: pass")
            continue
        fails = ", ".join(
            f"{format_poly(g, ord)}: {e}" for g, e in tr.failures
        )
        parts = [f"{head}: fail {{{fails}}}"]
        if tr.staircase_added:
            stair = ", ".join(format_monomial(s, ord) for s in tr.staircase_added)
            parts.append(f"staircase {{{stair}}}")
        ups = []
        for ev in tr.updates:
            t = format_monomial(ev.t, ord)
            res = format_poly(ev.result, ord)
            if ev.kind == "combine":
                ups.append(
                    f"{t} := {res} [combine {format_poly(ev.source, ord)}"
                    f" via h = {format_poly(ev.h, ord)}]"
                )
            elif ev.kind == "translate":
                ups.append(f"{t} := {res} [translate {format_poly(ev.source, ord)}]")
            else:
                ups.append(f"{t} := {res} [keep]")
        parts.append(", ".join(ups))
        lines.append("; ".join(parts))
    return "\n".join(lines)


def result_to_json(res: Result) -> dict:
    """Scan results list relations with their shifts; table results list the
    basis as `gb` with the certificate row set and the rejected candidates."""
    ord = res.ord

    def fmt(m: Monomial) -> str:
        return format_monomial(m, ord)

    data = {
        "algorithm": res.algorithm,
        "order": ord.spec_string(),
        "field": str(res.field),
        "staircase": [fmt(s) for s in res.staircase],
        "queries": res.queries,
        "ops": res.ops.as_dict(),
    }
    if res.table is not None:
        data["gb"] = [poly_to_json(g, ord) for g in res.basis()]
        data["certified_shift_set"] = [fmt(t) for t in res.table]
        data["rejected"] = [
            {"candidate": fmt(r.candidate), "row": fmt(r.row), "residual": str(r.residual)}
            for r in res.rejected
        ]
    else:
        data["bound"] = fmt(res.bound)
        data["relations"] = [_relation_to_json(r, ord) for r in res.relations]
    if res.trace:
        data["trace"] = format_trace(res.trace, ord).splitlines()
    return data


def _relation_to_json(r: Relation, ord: MonomialOrder) -> dict:
    return {
        "poly": poly_to_json(r.poly, ord),
        "shift": "0" if r.shift is None else format_monomial(r.shift, ord),
        "tested": r.shift is not None,
    }
