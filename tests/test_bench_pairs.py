"""`scripts/bench_pairs.py` keeps every run when one of them fails.

`subprocess.run` is replaced by a fake that answers each perfbench call
from a script of outcomes, so no benchmark process starts: a JSON line, an
exit without one, or a timeout.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(solve_s: float) -> str:
    metrics = {name: {"value": solve_s if name == "solve_s" else 1.0} for name in ("setup_s", "solve_s")}
    return json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics})


def test_a_failed_or_timed_out_run_is_recorded_and_the_file_still_written(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "bound": 0.25}, {"name": "solve_s", "bound": 0.2}],
    }))

    real_run = subprocess.run

    def fake_run(cmd, **kwargs):
        if "perfbench/run.py" not in cmd:
            return real_run(cmd, **kwargs)  # `platform` asks the system
        seed, trace, side = int(cmd[cmd.index("--seed") + 1]), cmd[-1], Path(kwargs["cwd"]).name
        if side == "change" and seed == 2 and trace == "0":
            return subprocess.CompletedProcess(cmd, 1, "no line\n", "Traceback: boom\n")
        if side == "change" and seed == 3 and trace == "0":
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"], output=b"", stderr=b"still running")
        if side == "parent" and trace == "1":
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return subprocess.CompletedProcess(cmd, 0, _line(0.5 if side == "change" else 1.0) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    args = ["--parent", str(parent), "--change", str(change), "--seeds", "1-4", "--seconds", "1"]
    assert bench_pairs.main(args + ["--claim", "w:solve_s", "--slug", "t", "--what", "a test"]) == 0

    out = json.loads((change / "BENCH_t.json").read_text())
    summary = out["summary"]["w"]
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["attempted"] == {"parent": 20, "change": 12}
    assert not summary["all_correct"]
    failed = {(r["seed"], r["returncode"]): r["stderr_tail"] for r in summary["failed_runs"]}
    assert failed.keys() == {(2, 1), (3, None)}
    assert "boom" in failed[2, 1] and "killed after 600 s" in failed[3, None]
    # the medians leave the failed runs out; wins count the two whole pairs
    assert summary["solve_s"]["change"]["median"] == 0.5 and summary["solve_s"]["parent"]["median"] == 1.0
    assert summary["solve_s"]["change_wins"] == 2
    assert out["claim_check"]["met"] is False  # 2 of 4 pairs
    assert out["traced_seed_1"]["w"]["solve_s"] == {"parent": None, "change": 0.5}
    assert out["traced_seed_1"]["w"]["correct"] == {"parent": False, "change": True}


def test_a_metric_whose_parent_spreads_wider_than_its_bound_is_unresolved(tmp_path, monkeypatch):
    # the parent's solve_s spreads 0.5-1.5 (IQR over median about 0.5, bound
    # 0.2): a change inside that spread is unresolved, one below every
    # parent run is not; setup_s holds still on both sides
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "bound": 0.25}, {"name": "solve_s", "bound": 0.2}],
    }))
    real_run = subprocess.run
    change_solve = {}

    def fake_run(cmd, **kwargs):
        if "perfbench/run.py" not in cmd:
            return real_run(cmd, **kwargs)
        seed, side = int(cmd[cmd.index("--seed") + 1]), Path(kwargs["cwd"]).name
        solve = 0.5 + 0.25 * (seed % 5) if side == "parent" else change_solve[seed]
        return subprocess.CompletedProcess(cmd, 0, _line(solve) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    args = ["--parent", str(parent), "--change", str(change), "--seeds", "1-10", "--seconds", "1"]
    for slug, values, unresolved in (
        ("inside", {s: 0.9 + 0.01 * s for s in range(1, 11)}, True),
        ("below", {s: 0.4 for s in range(1, 11)}, False),
    ):
        change_solve.update(values)
        assert bench_pairs.main(args + ["--slug", slug, "--what", "a test"]) == 0
        summary = json.loads((change / f"BENCH_{slug}.json").read_text())["summary"]["w"]
        assert summary["solve_s"]["unresolved"] is unresolved, slug
        assert summary["setup_s"]["unresolved"] is False
