"""Per-layer numbers for the traced run.  A layer is one `seqrel` module.

Self time per module comes from a sampling profiler: a CPU-time timer
interrupts the process every SAMPLE_INTERVAL_S (the kernel may stretch this
to its own tick, 4 ms on the host the README describes), and each sample
goes to the innermost frame that belongs to a package source file, so time
spent in the `fractions` module, numpy or builtins counts for the module
that called them.  The samples are scaled to the CPU time of the traced
calls.

Inclusive times and call counts come from wrappers around public functions,
patched where the callers look them up (several modules import them by
value), and only while a traced call runs.  Per-scalar functions are not
timed: field operations are counted by the solvers' own `OpCounter`s, and
`SequenceOracle.query` only has its calls counted.
"""

from __future__ import annotations

import signal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from seqrel import bms, compare, hankel, poly, ranksolver, sequences, sfglm

import bench_env

SAMPLE_INTERVAL_S = 0.0005
MODULES = ("field", "monomials", "poly", "sequences", "hankel", "bms", "sfglm", "ranksolver", "compare")

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("field.self_s", "s", "lower"),
    ("field.mults", "count", "lower"),
    ("field.invs", "count", "lower"),
    ("field.adds", "count", "lower"),
    ("monomials.self_s", "s", "lower"),
    ("poly.self_s", "s", "lower"),
    ("poly.inter_reduce_s", "s", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("sequences.query_calls", "count", "lower"),
    ("sequences.memo_hit_ratio", "ratio", "higher"),
    ("sequences.bracket_s", "s", "lower"),
    ("sequences.bracket_calls", "count", "lower"),
    ("sequences.out_of_window_reads", "count", "lower"),
    ("hankel.self_s", "s", "lower"),
    ("hankel.build_s", "s", "lower"),
    ("hankel.build_cells", "count", "lower"),
    ("hankel.profile_s", "s", "lower"),
    ("hankel.solve_relation_s", "s", "lower"),
    ("hankel.solve_relation_calls", "count", "lower"),
    ("bms.self_s", "s", "lower"),
    ("bms.discrepancy_s", "s", "lower"),
    ("bms.rebuild_s", "s", "lower"),
    ("bms.step_calls", "count", "lower"),
    ("bms.fail_steps", "count", "lower"),
    ("bms.combine_updates", "count", "lower"),
    ("sfglm.self_s", "s", "lower"),
    ("sfglm.candidates", "count", "lower"),
    ("sfglm.rejected", "count", "lower"),
    ("ranksolver.self_s", "s", "lower"),
    ("ranksolver.restabilize_calls", "count", "lower"),
    ("compare.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# (function name, modules that look it up, inclusive-time slot, call-count slot)
_WRAPPED = (
    ("bracket", (sequences, bms, compare), "sequences.bracket_s", "sequences.bracket_calls"),
    ("build", (hankel, sfglm), "hankel.build_s", None),
    ("column_rank_profile", (hankel, sfglm), "hankel.profile_s", None),
    ("solve_relation", (hankel, sfglm, ranksolver), "hankel.solve_relation_s", "hankel.solve_relation_calls"),
    ("inter_reduce", (poly, bms, compare), "poly.inter_reduce_s", None),
    # run_bms* hand these module globals to the engine at call time
    ("_disc_bracket", (bms,), "bms.discrepancy_s", None),
    ("_disc_matrix_row", (bms,), "bms.discrepancy_s", None),
    ("stabilize", (bms,), "bms.stabilize_s", None),
    ("stabilize", (ranksolver,), None, "ranksolver.restabilize_calls"),
)


class LayerTracer:
    """Wrappers and the sampler are live only inside `active()`."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.times: defaultdict[str, float] = defaultdict(float)
        self.samples: Counter[str] = Counter()
        self.cpu_s = 0.0
        self.rounds = 0
        self.memo_misses = 0
        self._saved: list[tuple[object, str, object]] = []
        self._modules: dict[str, str] = {}

    # -- sampling ---------------------------------------------------------------

    def _module_of(self, filename: str) -> str:
        mod = self._modules.get(filename)
        if mod is None:
            path = Path(filename)
            if path.parent == bench_env.PACKAGE and path.stem in MODULES:
                mod = path.stem
            elif path.parent == bench_env.BENCH_DIR:
                mod = "bench"
            else:
                mod = ""
            self._modules[filename] = mod
        return mod

    def _on_sample(self, signum, frame) -> None:
        while frame is not None:
            mod = self._module_of(frame.f_code.co_filename)
            if mod:
                self.samples[mod] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    # -- wrappers -------------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, inner, time_slot: str | None, count_slot: str | None):
        times, counts = self.times, self.counts

        def wrapper(*args, **kwargs):
            if count_slot is not None:
                counts[count_slot] += 1
            if time_slot is None:
                return inner(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times[time_slot] += time.perf_counter() - t0

        return wrapper

    def _install(self) -> None:
        for name, modules, time_slot, count_slot in _WRAPPED:
            for module in modules:
                self._patch(module, name, self._wrap(getattr(module, name), time_slot, count_slot))
        counts, times = self.counts, self.times

        inner_query = sequences.SequenceOracle.query

        def query(oracle, index):
            counts["sequences.query_calls"] += 1
            return inner_query(oracle, index)

        self._patch(sequences.SequenceOracle, "query", query)

        for module in (hankel, sfglm):
            inner_build = getattr(module, "build")

            def build(*args, _inner=inner_build, **kwargs):
                H = _inner(*args, **kwargs)
                counts["hankel.build_cells"] += len(H.row_labels) * len(H.col_labels)
                return H

            self._patch(module, "build", build)

        inner_step = bms.step

        def step(*args, **kwargs):
            disc0, stab0 = times["bms.discrepancy_s"], times["bms.stabilize_s"]
            t0 = time.perf_counter()
            tr = inner_step(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            counts["bms.step_calls"] += 1
            if tr.failures:
                # a failing step's time outside its discrepancies and the
                # staircase closure: failure-record refresh and border rebuild
                counts["bms.fail_steps"] += 1
                counts["bms.combine_updates"] += sum(ev.kind == "combine" for ev in tr.updates)
                times["bms.rebuild_s"] += (
                    elapsed
                    - (times["bms.discrepancy_s"] - disc0)
                    - (times["bms.stabilize_s"] - stab0)
                )
            return tr

        self._patch(bms, "step", step)

        inner_batch, inner_one = sfglm._solve_candidates, sfglm._solve_candidate

        def solve_candidates(oracle, S, cands, ord):
            counts["sfglm.candidates"] += len(cands)
            return inner_batch(oracle, S, cands, ord)

        def solve_candidate(*args, **kwargs):
            counts["sfglm.candidates"] += 1
            return inner_one(*args, **kwargs)

        self._patch(sfglm, "_solve_candidates", solve_candidates)
        self._patch(sfglm, "_solve_candidate", solve_candidate)

    def _uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextmanager
    def active(self) -> Iterator[None]:
        self._install()
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self.cpu_s += time.process_time() - cpu0
            signal.signal(signal.SIGPROF, previous)
            self._uninstall()

    # -- facts read from results and oracles -------------------------------------

    def record_solve(self, res, oracle, window: int) -> None:
        self.counts["field.mults"] += res.ops.multiplications
        self.counts["field.invs"] += res.ops.inversions
        self.counts["field.adds"] += res.ops.additions
        self.counts["sfglm.rejected"] += len(getattr(res, "rejected", ()))
        self.memo_misses += oracle.queries
        # the oracle's own record of the distinct indices it was asked for
        self.counts["sequences.out_of_window_reads"] += sum(
            1 for i in oracle._queried if sum(i) > window
        )

    def record_verify(self, oracle) -> None:
        self.memo_misses += oracle.queries

    # -- report ----------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        rounds = max(self.rounds, 1)
        per_sample = self.cpu_s / max(sum(self.samples.values()), 1)
        out = {f"{m}.self_s": self.samples[m] * per_sample / rounds for m in MODULES}
        out.update({name: value / rounds for name, value in self.times.items()})
        out.update({name: value / rounds for name, value in self.counts.items()})
        calls = self.counts["sequences.query_calls"]
        out["sequences.memo_hit_ratio"] = (calls - self.memo_misses) / calls if calls else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out.get(name, 0.0) for name, _, _ in LAYER_METRICS}

    def summary(self) -> dict:
        return {
            "samples": dict(self.samples),
            "cpu_s": self.cpu_s,
            "rounds": self.rounds,
            "counts": dict(self.counts),
            "times": dict(self.times),
        }
