#!/usr/bin/env python3
"""Steady four-path benchmark of the replica-placement library.

Run from the repository root::

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 10 --trace 0

One invocation runs one workload (``perfbench/workloads.py``) in this
process against the library under ``src/``, with library defaults.  It
checks every op's output, prints a table of every metric with its unit and
sample count, and ends standard output with one JSON line::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same untimed-checked ops untraced, replays them from
a fresh setup with spans on (``perfbench/tracing.py``) and reports the
``per_layer`` metrics; the spans are written to
``.perfbench/<workload>-seed<seed>.spans.jsonl``.  ``--smoke`` shrinks every
input for the self-test (``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

# The sibling modules, also when the interpreter leaves the script's
# directory off sys.path (``python3 -P``, PYTHONSAFEPATH).
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Setups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

HEURISTICS = ("CTDA", "CTDLF", "CBU", "UTD", "UBCF", "MG", "MTD", "MBU", "MixedBest")

#: per-layer metric -> (span name, statistic).  ``ms`` is self time (span
#: minus its direct children) per op, ``calls`` calls per op, ``ok`` and
#: ``failed`` the share of the span's judged calls with a true / false
#: outcome, ``child_ok`` that share among the spans directly beneath it.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "core.serialization.ms": ("core.serialization", "ms"),
    "core.index.build_ms": ("core.index.build", "ms"),
    "core.index.patch_ms": ("core.index.patch", "ms"),
    "core.tree.with_requests_ms": ("core.tree.with_requests", "ms"),
    "algorithms.state.build_ms": ("algorithms.state.build", "ms"),
    "core.validation.ms": ("core.validation", "ms"),
    "core.validation.calls": ("core.validation", "calls"),
    "core.solution.cost_ms": ("core.solution.cost", "ms"),
    "algorithms.portfolio.valid_ratio": ("algorithms.portfolio", "child_ok"),
    "algorithms.incremental.resolve_ms": ("algorithms.incremental.resolve", "ms"),
    "algorithms.incremental.solved_ratio": ("algorithms.incremental.resolve", "ok"),
    "lp.formulation.build_ms": ("lp.formulation.build", "ms"),
    "lp.solver.solve_ms": ("lp.solver.solve", "ms"),
    "lp.bounds.infeasible_ratio": ("lp.bounds", "failed"),
    "lp.ipfp.retarget_ms": ("lp.ipfp.retarget", "ms"),
    "lp.ipfp.solve_ms": ("lp.ipfp.solve", "ms"),
    "serving.fingerprint.ms": ("serving.fingerprint", "ms"),
    **{f"serving.client.{op}_ms": (f"serving.client.{op}", "ms") for op in ("update", "solve", "bound")},
    **{
        f"serving.protocol.{step}_ms": (f"serving.protocol.{step}", "ms")
        for step in ("decode", "handle", "encode")
    },
    **{f"algorithms.{name}.ms": (f"algorithms.{name}", "ms") for name in HEURISTICS},
    **{f"algorithms.{name}.success_ratio": (f"algorithms.{name}", "ok") for name in HEURISTICS},
}


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop, a probe of host speed."""
    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000.0


def quantile(values: List[float], q: int, n: int) -> float:
    """The ``q``-th of the ``n``-quantiles (``statistics`` exclusive method)."""
    return statistics.quantiles(values, n=n)[q - 1] if len(values) > 1 else values[0]


def measure(workload, seconds: float) -> Tuple[List[float], int]:
    """Run timed ops until ``seconds`` of op time and a whole pass are done
    (or exactly ``workload.fixed_ops`` ops).

    Returns the op latencies (seconds) and the number of failed ops (an
    exception, or an output that fails its untimed check).
    """
    tracer = NullTracer()
    latencies: List[float] = []
    failed = busy = 0
    i = 0
    while True:
        if workload.fixed_ops is not None:
            if i >= workload.fixed_ops:
                break
        elif busy >= seconds and i % workload.period == 0:
            break
        start = time.perf_counter()
        try:
            output = workload.op(i, tracer)
        except Exception as error:  # noqa: BLE001 - a failed op is a measured outcome
            if not failed:
                traceback.print_exc()
            output = error
        elapsed = time.perf_counter() - start
        failed += not workload.verify(i, output, elapsed)
        del output
        latencies.append(elapsed)
        busy += elapsed
        i += 1
    return latencies, failed


def timings(latencies: List[float]) -> Dict[str, Tuple[float, int]]:
    """Op latency figures -> (value, samples).

    Per-layer, not end-to-end: on the 2-vCPU host the benchmark was tuned
    on, host speed drifted by up to a third within minutes, so these moved
    by more than the largest bound an end-to-end metric may have (figures
    in ``perfbench/design.json``).  p99 is given only where a run holds
    1000 ops, so that at least ten samples lie beyond it.
    """
    ops = len(latencies)
    millis = [value * 1000.0 for value in latencies]
    figures = {
        "p50_ms": (statistics.median(millis), ops),
        "ops_per_s": (ops / sum(latencies), ops),
        "p90_ms": (quantile(millis, 9, 10), ops),
    }
    if ops >= 1000:
        figures["p99_ms"] = (quantile(millis, 99, 100), ops)
    return figures


def end_to_end(workload, setup_times, latencies, failed) -> Dict[str, Tuple[float, int]]:
    """End-to-end metric -> (value, samples)."""
    ops = len(latencies)
    success, rcost = workload.quality()
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "ok_ratio": ((ops - failed) / ops, ops),
        "success_ratio": (success, ops),
        "rcost": (rcost, workload.fixed_ops or workload.period),
        "peak_rss_mb": (workload.peak_rss_mb(), 1),
    }


def per_layer(tracer, workload, latencies, calibration) -> Dict[str, Tuple[float, int]]:
    """Per-layer metric -> (value, samples) from the traced replay."""
    ops = len(latencies)
    table = tracer.summary()
    values: Dict[str, Tuple[float, int]] = {}
    for metric, (span, statistic) in SPAN_METRICS.items():
        entry = table.get(span, {})
        calls = int(entry.get("calls", 0))
        judged = entry.get("judged", 0)
        if statistic == "ms":
            value = entry.get("self_s", 0.0) * 1000.0 / ops
        elif statistic == "calls":
            value = calls / ops
        elif statistic == "child_ok":
            children = entry.get("child_judged", 0)
            value, calls = (entry["child_ok"] / children if children else 0.0), int(children)
        elif statistic == "ok":
            value = entry["ok"] / judged if judged else 0.0
        else:  # failed
            value = (judged - entry["ok"]) / judged if judged else 0.0
        values[metric] = (value, calls)
    for metric, value in workload.layer_extras().items():
        values[metric] = (value, ops)
    values.update(timings(latencies))
    traced = tracer.op_durations()
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(latencies),
        len(traced),
    )
    values["trace.coverage_ratio"] = (tracer.coverage(), len(tracer.spans))
    values["host.calib_ms"] = (statistics.fmean(calibration), len(calibration))
    return values


def report_lines(name, metrics, units, latencies, calibration) -> List[str]:
    """The human-readable table: every metric with unit and sample count,
    then the op latency figures and the host probe of every run."""
    rows = [(metric, value, units[metric], samples) for metric, (value, samples) in metrics.items()]
    timing_units = {"p50_ms": "ms", "ops_per_s": "1/s", "p90_ms": "ms", "p99_ms": "ms"}
    rows += [
        (metric, value, timing_units[metric], samples)
        for metric, (value, samples) in timings(latencies).items()
        if metric not in metrics
    ]
    rows += [(f"host.calib_ms.{label}", value, "ms", 1) for label, value in zip(("start", "end"), calibration)]
    lines = [f"{'workload':<15} {'metric':<38} {'value':>16} {'unit':<7} samples"]
    for metric, value, unit, samples in rows:
        lines.append(f"{name:<15} {metric:<38} {value:>16.6f} {unit:<7} {samples}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Library defaults only: drop an inherited engine override, and hand the
    # library to `repro serve` subprocesses through PYTHONPATH.
    os.environ.pop("REPRO_ENGINE", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    # The LP solver prints from C straight to file descriptor 1; send that
    # (and every other stray print) to stderr so the report stays last.
    sys.stdout.flush()
    report = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    calibration = [calibrate()]
    # numpy seeds only from non-negative integers; any --seed is accepted.
    workload = WORKLOADS[args.workload](args.seed % 2**64, args.seconds, args.smoke)
    setups = 1 if (args.trace or args.smoke) else SETUPS
    traced_failed = 0
    try:
        setup_times = []
        for _ in range(setups):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        gc.collect()
        latencies, failed = measure(workload, args.seconds)
        workload.finish()
        metrics = end_to_end(workload, setup_times, latencies, failed)
        if args.trace:
            tracer = Tracer()
            traced_failed = workload.replay(tracer, len(latencies))
            calibration.append(calibrate())
            metrics = per_layer(tracer, workload, latencies, calibration)
            for metric in units:  # a layer this path never calls
                metrics.setdefault(metric, (0.0, 0))
            tracer.dump(ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        workload.teardown()
    if len(calibration) == 1:
        calibration.append(calibrate())

    for note in workload.notes[:10]:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(latencies)} failed={failed}", file=report)
    for line in report_lines(args.workload, {m: metrics[m] for m in units}, units, latencies, calibration):
        print(line, file=report)
    result = {
        "correct": failed == 0 and traced_failed == 0 and workload.consistent,
        "attempted": len(latencies),
        "failed": failed + traced_failed,
        "metrics": {m: {"value": metrics[m][0], "unit": units[m]} for m in units},
    }
    print(json.dumps(result), file=report)
    report.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
