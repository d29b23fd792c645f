"""The names perfbench's layer tracer patches must exist where it patches them.

`perfbench/tracing.py` wraps module-level functions (`bms.step`, `bracket`,
`inter_reduce`, ...) by name while a traced run is active.  A rename in
`seqrel` would break `perfbench/run.py --trace 1`; this catches it in the
unit tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from seqrel import (  # noqa: E402
    bms,
    parse_monomial,
    parse_order,
    run_bms,
    run_bms_linalg,
    run_bms_tweaked,
    run_rank_solver,
    run_sfglm,
    run_sfglm_tweaked,
    sfglm,
)
from seqrel.compare import monomials_up_to_degree  # noqa: E402
from seqrel.field import FpField  # noqa: E402
from seqrel.sequences import SequenceOracle, make_generator  # noqa: E402

DRL2 = parse_order("drl(y<x)")
F = FpField(65537)


def _originals():
    names = [(module, name) for name, modules, _, _ in tracing._WRAPPED for module in modules]
    names += [(bms, "step"), (SequenceOracle, "query")]
    names += [(sfglm, "_solve_candidates"), (sfglm, "_solve_candidate")]
    return {(module, name): getattr(module, name) for module, name in names}


def test_layer_tracer_hooks_every_solver_and_restores_the_originals():
    before = _originals()
    tracer = tracing.LayerTracer()
    bound = parse_monomial("x^4", DRL2)
    with tracer.active():
        for run in (run_bms, run_bms_linalg, run_bms_tweaked, run_rank_solver):
            run(make_generator("sq", F), bound, DRL2)
        for run in (run_sfglm, run_sfglm_tweaked):  # tweaked solves through solve_relation
            run(make_generator("sq", F), monomials_up_to_degree(2, DRL2), DRL2)
    counts, times = tracer.counts, tracer.times
    assert counts["bms.step_calls"] == 3 * 15  # monomials up to x^4, three bms runs
    assert counts["bms.fail_steps"] > 0 and counts["bms.combine_updates"] > 0
    assert counts["sequences.bracket_calls"] > 0
    assert counts["sequences.query_calls"] > 0
    assert counts["hankel.solve_relation_calls"] > 0
    assert counts["ranksolver.restabilize_calls"] > 0
    assert counts["sfglm.candidates"] > 0
    for slot in ("bms.discrepancy_s", "bms.rebuild_s", "poly.inter_reduce_s", "hankel.build_s"):
        assert times[slot] > 0, slot
    after = _originals()
    assert all(after[k] is before[k] for k in before)

