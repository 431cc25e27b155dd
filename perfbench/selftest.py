#!/usr/bin/env python3
"""Self-test of the benchmark (under a minute); run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every fixed tree of cold_solve is solvable, so no op fails on its input;
* a smoke run (tiny inputs, ``--smoke``) of every workload, untraced and
  traced, prints every metric of ``BENCHMARK.json`` and the op latency
  figures with their unit and sample count, and the traced run's layer
  spans cover at least nine tenths of the traced op time;
* a deliberately corrupted output (a placement with one replica removed)
  counts against ``ok_ratio`` instead of being timed silently;
* ``perfbench/design.json`` maps every per-layer metric;
* without the library next to it the benchmark exits non-zero and prints
  no result.

The file name keeps it out of pytest's ``test_*.py`` collection: it starts
subprocesses and a TCP server, which the tier-1 suite should not wait for.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_smoke_run(workload: str, trace: int) -> None:
    done = run_bench(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    )
    assert done.returncode == 0, done.stderr[-3000:]
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in section]
    rows = {line.split()[1]: line.split() for line in table[2:]}
    for metric in section:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        _, _, value, row_unit, samples, *_ = rows[name]
        assert row_unit == unit and float(value) == float(f"{result['metrics'][name]['value']:.6f}")
        assert int(samples) >= (0 if trace else 1), (workload, name, samples)
    for name in ("p50_ms", "ops_per_s", "p90_ms"):  # printed by every run
        assert int(rows[name][4]) == result["attempted"], (workload, rows[name])
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.coverage_ratio"]["value"] >= 0.9, (workload, metrics["trace.coverage_ratio"])
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert (ROOT / ".perfbench" / f"{workload}-seed3.spans.jsonl").is_file()
    print(f"ok   smoke {workload} trace={trace}: {result['attempted']} ops")


def check_corrupted_output_is_counted() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from repro.core.solution import Placement
    from workloads import ColdSolve

    workload = ColdSolve(seed=3, seconds=0.1, smoke=True)
    workload.setup()
    honest = workload.op

    def corrupted(i, tracer):
        problem, solution, cost = honest(i, tracer)
        if i == 1:  # drop one replica: its clients' requests lose their server
            replicas = solution.placement.replicas
            victim = sorted(replicas, key=repr)[0]
            solution = dataclasses.replace(solution, placement=Placement(replicas - {victim}))
        return problem, solution, cost

    workload.op = corrupted
    latencies, failed = run.measure(workload, 0.1)
    ops = len(latencies)
    ok_ratio = run.end_to_end(workload, [0.0], latencies, failed)["ok_ratio"][0]
    assert failed == 1 and ok_ratio == (ops - 1) / ops, (failed, ok_ratio, workload.notes)
    assert "validate_solution" in workload.notes[0], workload.notes
    print(f"ok   corrupted output counted: ok_ratio {ok_ratio:.3f} over {ops} ops")


def check_cold_trees_solvable() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.api import solve
    from workloads import _COLD_POOL, _COLD_SIZE, _COLD_WARM, _tree

    # Full-size trees (timed ops), their smoke sizes and the warm-up trees.
    trees = [(seed, _COLD_SIZE // div) for seed in _COLD_POOL for div in (1, 10)]
    trees += [(_COLD_WARM, _COLD_SIZE // div) for div in (10, 100)]
    for seed, size in trees:
        solve(_tree(seed, size), policy="multiple")  # raises InfeasibleError
    print(f"ok   cold_solve's {len(trees)} fixed trees are solvable")


def check_design_record() -> None:
    design = json.loads((HERE / "design.json").read_text())
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]} | {"p50_ms", "ops_per_s", "p90_ms"}
    workloads = {workload["name"] for workload in SPEC["workloads"]}
    assert set(design["workloads"]) == workloads
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in design["diagnostics"]:
            continue
        layer = design["layers"][name]
        assert set(layer["moves"]) <= end_to_end and layer["most"] in workloads, name
    print("ok   design.json maps every per-layer metric")


def check_bare_directory_fails() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench(["--workload", "cold_solve", "--seed", "1", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and "correct" not in done.stdout, done
    print(f"ok   without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    check_design_record()
    check_cold_trees_solvable()
    check_bare_directory_fails()
    check_corrupted_output_is_counted()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_smoke_run(workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
