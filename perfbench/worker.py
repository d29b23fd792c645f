"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Sets the workload up, then runs whole rounds until S seconds have passed.  A
round solves every (point, algorithm) pair on a fresh oracle, re-verifies each
answer with `verify_result` on another fresh oracle, checks it with
`check.py`, and runs the containment check on the points that carry one.
Prints one JSON line: correct, attempted, failed and the metrics measured in
this process.  With --trace 1 every other round runs under the layer tracer
and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable

import bench_env
from calib import Clock, Timing
from check import Answer, PointCase, Windows, check_answer, monomials_up_to, windows
from workloads import PLANTED, WORKLOADS, Point, Workload, point_seed

# a run never starts a round it could not finish well within this many seconds
WALL_LIMIT_S = 150.0


@dataclass
class PointState:
    point: Point
    spec: Any  # seqrel FamilySpec
    win: Windows
    case: PointCase
    planted: list
    shape: tuple[int, ...] | None = None
    entries: list | None = None
    values: Any = None  # fresh instance the checker reads, made on first use


@dataclass
class Op:
    kind: str  # "solve" | "verify" | "compare"
    point: int
    algo: str
    timing: Timing | None  # None when the operation failed
    queries: int = 0
    basic_ops: int = 0


@dataclass
class Round:
    traced: bool
    ops: list[Op] = field(default_factory=list)
    wall_s: float = 0.0


class Bench:
    def __init__(self, wl: Workload, seed: int, clock: Clock):
        import seqrel
        from seqrel import compare, fixtures

        self.sq = seqrel
        self.cmp = compare
        self.wl = wl
        self.clock = clock
        self.tracer = None  # a LayerTracer while a traced round runs
        self.field = seqrel.QQ if wl.exact else compare.BENCH_FIELD
        self.p = None if wl.exact else self.field.p
        self.orders = {n: seqrel.parse_order(s) for n, s in ((2, "drl(y<x)"), (3, "drl(z<y<x)"))}
        self.runners: dict[str, Callable] = {
            "bms": seqrel.run_bms,
            "bms-linalg": seqrel.run_bms_linalg,
            "bms-tweaked": seqrel.run_bms_tweaked,
            "sfglm": seqrel.run_sfglm,
            "sfglm-tweaked": seqrel.run_sfglm_tweaked,
            "rank": seqrel.run_rank_solver,
        }
        self.states = [self._setup_point(i, pt, seed, fixtures) for i, pt in enumerate(wl.points)]
        self.errors: list[str] = []  # wrong answers
        self.raised: list[str] = []  # operations that failed
        self.verdicts: dict[tuple, list[str]] = {}

    # -- set-up: instance generation and table materialisation -----------------

    def _setup_point(self, index: int, pt: Point, seed: int, fixtures) -> PointState:
        spec = self.sq.FamilySpec(pt.family, pt.d, pt.n, point_seed(seed, index))
        oracle, planted, _ = self.sq.make_family(spec, self.field)
        win = windows(pt.family, pt.n, pt.d)
        refq = fixtures.reference_queries(pt.n)
        case = PointCase(
            pt.family, pt.n, pt.d, self.p,
            ref_queries={
                a: refq[(pt.family, a)][pt.d]
                for a in ("bms", "sfglm")
                if pt.d in refq.get((pt.family, a), {})
            },
            ref_staircase=fixtures.reference_staircase(pt.n)[pt.family].get(pt.d),
        )
        st = PointState(pt, spec, win, case, planted)
        if self.wl.table:
            st.shape = (win.table + 1,) * pt.n
            st.entries = [
                oracle.query(i).value for i in product(*(range(s) for s in st.shape))
            ]
            self.sq.table_oracle(self.field, st.shape, st.entries)
        return st

    def fresh_oracle(self, st: PointState):
        if st.entries is not None:
            return self.sq.table_oracle(self.field, st.shape, st.entries)
        return self.sq.make_family(st.spec, self.field)[0]

    # -- one round -------------------------------------------------------------

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, Timing]:
        # every timed call starts from the same collector state, so a full
        # collection owed to earlier garbage does not land inside it
        gc.collect()
        if self.tracer is not None:
            inner = fn

            def fn():
                with self.tracer.active():
                    return inner()

        return self.clock.time(fn)

    def solve(self, st: PointState, algo: str, oracle):
        order = self.orders[st.point.n]
        if algo.startswith("sfglm"):
            return self.runners[algo](oracle, monomials_up_to(st.win.d_max, st.point.n), order)
        bound = (st.win.scan,) + (0,) * (st.point.n - 1)
        return self.runners[algo](oracle, bound, order)

    def answer(self, res, algo: str) -> Answer:
        rels = [
            {m: c.value for m, c in g.terms.items()} for g in self.cmp.result_basis(res)
        ]
        opened = sum(1 for r in getattr(res, "relations", ()) if getattr(r, "open", False))
        return Answer(algo, rels, len(res.staircase), res.queries, opened)

    def check(self, st: PointState, ans: Answer, bms_queries: int | None) -> list[str]:
        """check_answer, once per distinct answer: later rounds repeat the first."""
        key = (
            id(st), ans.algorithm, ans.staircase_size, ans.queries, ans.open_relations,
            bms_queries, tuple(tuple(sorted(rel.items())) for rel in ans.relations),
        )
        if key not in self.verdicts:
            self.verdicts[key] = check_answer(st.case, ans, self.value_reader(st), bms_queries)
        return self.verdicts[key]

    def value_reader(self, st: PointState) -> Callable:
        if st.values is None:
            st.values = self.sq.make_family(st.spec, self.field)[0]
        return lambda i: st.values.query(i).value

    def attempt(self, rnd: Round, kind: str, index: int, label: str, fn: Callable[[], Any]):
        """Time one operation; a failure is counted, reported, and gives None."""
        try:
            result, timing = self.timed(fn)
        except Exception:
            pt = self.states[index].point
            self.raised.append(
                f"{pt.family} n={pt.n} d={pt.d} {kind} {label} raised: "
                f"{traceback.format_exc(limit=-4)}"
            )
            print(self.raised[-1], file=sys.stderr)
            rnd.ops.append(Op(kind, index, label, None))
            return None
        rnd.ops.append(Op(kind, index, label, timing))
        return result

    def run_round(self, rnd: Round) -> None:
        for index, st in enumerate(self.states):
            pt = st.point
            order = self.orders[pt.n]
            where = f"{pt.family} n={pt.n} d={pt.d}"
            results: dict[str, Any] = {}
            for algo in pt.algos:
                oracle = self.fresh_oracle(st)
                res = self.attempt(rnd, "solve", index, algo, lambda: self.solve(st, algo, oracle))
                if res is None:
                    rnd.ops.append(Op("verify", index, algo, None))
                    continue
                rnd.ops[-1].queries, rnd.ops[-1].basic_ops = res.queries, res.ops.basic
                results[algo] = res
                if self.tracer is not None:
                    self.tracer.record_solve(res, oracle, st.win.for_algorithm(algo))
                bms_queries = (
                    results["bms"].queries if "bms" in results else st.case.ref_queries.get("bms")
                )
                self.errors += self.check(st, self.answer(res, algo), bms_queries)
                check_oracle = self.fresh_oracle(st)
                ok = self.attempt(
                    rnd, "verify", index, algo,
                    lambda: self.cmp.verify_result(check_oracle, res, order),
                )
                if self.tracer is not None:
                    self.tracer.record_verify(check_oracle)
                if ok is False:
                    self.errors.append(f"{where} {algo}: verify_result rejected the answer")
            if pt.compare is None:
                continue
            a, b = pt.compare
            label = f"{a}<->{b}"
            if a not in results or (b != PLANTED and b not in results):
                rnd.ops.append(Op("compare", index, label, None))
                continue
            basis_a = self.cmp.result_basis(results[a])
            basis_b = st.planted if b == PLANTED else self.cmp.result_basis(results[b])
            verdicts = self.attempt(
                rnd, "compare", index, label, lambda: self.containment(basis_a, basis_b, order)
            )
            if verdicts is not None and not all(verdicts):
                self.errors.append(f"{where} {label}: ideals differ {verdicts}")

    def containment(self, A: list, B: list, order) -> tuple[bool, bool]:
        """Both directions, on the degree window `compare_algorithms` picks."""
        window = max([2] + [sum(g.lm(order)) for g in (*A, *B) if g])
        contains = self.cmp.ideal_contains_at_truncation
        return contains(B, A, order, window), contains(A, B, order, window)


def _totals(rounds: list[Round]) -> dict[str, float]:
    """Per metric, the sum over a round's operations of each one's median
    over the given rounds (all rounds attempt the same operations)."""
    tot = {"solve_s": 0.0, "verify_s": 0.0, "compare_s": 0.0, "queries": 0, "basic_ops": 0}
    for same_op in zip(*(r.ops for r in rounds)):
        done = [op for op in same_op if op.timing is not None]
        if not done:
            continue
        kind = done[0].kind
        tot[f"{kind}_s"] += statistics.median(op.timing.seconds for op in done)
        tot["queries"] += statistics.median(op.queries for op in done)
        tot["basic_ops"] += statistics.median(op.basic_ops for op in done)
    return tot


def _details(bench: Bench, rounds: list[Round], args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_median_s": statistics.median(bench.clock.kernel_s),
        "errors": bench.errors,
        "raised": bench.raised,
        "rounds": [
            {
                "traced": r.traced,
                "wall_s": r.wall_s,
                "ops": [
                    {
                        "kind": op.kind,
                        "point": "{0.family} n={0.n} d={0.d}".format(bench.states[op.point].point),
                        "algo": op.algo,
                        "raw_s": op.timing.raw if op.timing else None,
                        "s": op.timing.seconds if op.timing else None,
                        "samples": op.timing.samples if op.timing else 0,
                        "queries": op.queries,
                        "basic_ops": op.basic_ops,
                    }
                    for op in r.ops
                ],
            }
            for r in rounds
        ],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        bench_env.use_checkout_package()
    except bench_env.MissingProgram as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import LayerTracer

        tracer = LayerTracer()
    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed, Clock())
    if args.setup_only:
        return 0

    rounds: list[Round] = []
    t_start = time.perf_counter()
    # at least three plain rounds, so each operation's median drops one outlier
    min_rounds = 2 if tracer is not None else 3
    while True:
        elapsed = time.perf_counter() - t_start
        last = elapsed / len(rounds) if rounds else 0.0
        if len(rounds) >= min_rounds and (elapsed >= args.seconds or elapsed + last > WALL_LIMIT_S):
            break
        rnd = Round(traced=tracer is not None and len(rounds) % 2 == 1)
        bench.tracer = tracer if rnd.traced else None
        t0 = time.perf_counter()
        bench.run_round(rnd)
        rnd.wall_s = time.perf_counter() - t0
        if rnd.traced:
            tracer.rounds += 1
        rounds.append(rnd)

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(op.timing is None for r in rounds for op in r.ops)
    plain = _totals([r for r in rounds if not r.traced])

    if tracer is None:
        metrics = {
            name: {"value": plain[name], "unit": unit}
            for name, unit in (
                ("solve_s", "s"), ("verify_s", "s"), ("compare_s", "s"),
                ("queries", "count"), ("basic_ops", "count"),
            )
        }
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MiB"}
    else:
        traced = _totals([r for r in rounds if r.traced])

        def busy(t: dict) -> float:
            return t["solve_s"] + t["verify_s"] + t["compare_s"]

        overhead = busy(traced) / busy(plain)
        from tracing import LAYER_METRICS

        values = tracer.metrics(overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    details = _details(bench, rounds, args)
    if tracer is not None:
        details["tracer"] = tracer.summary()
    bench_env.OUT_DIR.mkdir(exist_ok=True)
    out = bench_env.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1))

    print(json.dumps({
        "correct": not bench.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
