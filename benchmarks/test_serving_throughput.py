"""Perf smoke benchmark: serving-edge throughput (PR 6 acceptance criteria).

Two assertions, both appending trajectory entries to ``BENCH_engine.json``:

* **batching wins** -- shipping a warm same-session workload as one
  batched envelope over the TCP loop server must sustain ``>= 2x`` the
  request rate of the same workload sent one envelope per round trip on
  the same connection.  Both paths pay the full serving edge (socket,
  JSON framing, dispatch, the op itself); the batch amortises what the
  tentpole says it amortises -- one wire round trip, one parse/reply
  cycle and one pool checkout for the whole run.  (This measurement is
  what exposed the missing ``TCP_NODELAY``: without it, Nagle held every
  multi-segment line for the peer's delayed ACK and batches *lost*.)
* **open-loop latency under IPPP load** -- the ``repro loadtest`` harness
  drives an inhomogeneous-Poisson arrival schedule (sinusoidal intensity,
  open loop: latency includes queueing delay behind late replies) against
  an in-process server and must answer every scheduled request.  The same
  schedule is replayed unbatched and batched; p50/p99 and req/s for both
  are recorded so the trajectory shows what coalescing buys at the edge.

Both properties are about skipped per-request work, not parallelism, so
they must show on this 1-CPU container.  Times are best-of-N to bound
noisy-neighbour spikes.
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.conftest import record_bench
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.serialization import problem_to_dict
from repro.serving import (
    LoadgenConfig,
    LoopServer,
    ReproServer,
    SessionPool,
    run_loadtest,
)
from repro.serving.client import TcpTransport
from repro.workloads.generator import GeneratorConfig, TreeGenerator

TREE_SIZE = 120
SEED = 42
REQUESTS = 400
REPS = 5
REQUIRED_BATCH_SPEEDUP = 2.0

LOAD_RATE = 120.0
LOAD_HORIZON = 1.5
LOAD_TENANTS = 3
LOAD_BATCH = 8


def make_problem(seed: int = SEED, size: int = TREE_SIZE) -> ReplicaPlacementProblem:
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(size=size, target_load=0.5)
    )
    return ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COUNTING)


def best_rate(reps: int, count: int, fn) -> float:
    """Highest requests/sec over ``reps`` runs of ``fn`` serving ``count``."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return count / best


@pytest.mark.bench
def test_batched_envelopes_double_the_request_rate():
    loop = LoopServer(ReproServer(SessionPool(4)))
    host, port = loop.listen()
    thread = threading.Thread(target=loop.serve, daemon=True)
    thread.start()
    try:
        transport = TcpTransport(host, port)
        first = transport.send(
            {"op": "solve", "problem": problem_to_dict(make_problem())}
        )
        assert first["type"] == "solve_result"

        # The same REQUESTS-item warm workload, framed both ways.
        item = {"op": "bound", "fingerprint": first["fingerprint"]}
        batch = {"op": "batch", "requests": [item] * REQUESTS}
        assert transport.send(item)["type"] == "bound_result"  # warm caches

        def per_envelope():
            for _ in range(REQUESTS):
                assert transport.send(item)["type"] == "bound_result"

        def batched():
            reply = transport.send(batch)
            assert len(reply["results"]) == REQUESTS
            assert reply["results"][-1]["type"] == "bound_result"

        single_rate = best_rate(REPS, REQUESTS, per_envelope)
        batch_rate = best_rate(REPS, REQUESTS, batched)
        transport.close()
    finally:
        loop.shutdown()
        thread.join(timeout=10)
    speedup = batch_rate / single_rate

    record_bench(
        {
            "benchmark": "serving_batch_throughput",
            "tree_size": TREE_SIZE,
            "requests": REQUESTS,
            "per_envelope_req_per_s": round(single_rate, 1),
            "batched_req_per_s": round(batch_rate, 1),
            "batch_speedup": round(speedup, 2),
            "required_speedup": REQUIRED_BATCH_SPEEDUP,
        }
    )
    assert speedup >= REQUIRED_BATCH_SPEEDUP, (
        f"batched envelopes only {speedup:.2f}x the per-envelope rate "
        f"({batch_rate:.0f} vs {single_rate:.0f} req/s); required "
        f">= {REQUIRED_BATCH_SPEEDUP}x"
    )


@pytest.mark.bench
def test_open_loop_ippp_loadtest_records_latency():
    reports = {}
    for batch in (1, LOAD_BATCH):
        config = LoadgenConfig(
            tenants=LOAD_TENANTS,
            size=40,
            horizon=LOAD_HORIZON,
            rate=LOAD_RATE,
            batch=batch,
            seed=SEED,
        )
        report = run_loadtest(
            ReproServer(SessionPool(LOAD_TENANTS + 1)), config
        )
        assert report.scheduled > 0
        assert report.served == report.scheduled
        assert report.errors == 0
        assert report.latency["p50"] <= report.latency["p99"]
        reports[batch] = report

    unbatched, batched = reports[1], reports[LOAD_BATCH]
    # Coalescing due arrivals can only cut the wire round-trips needed to
    # answer the same schedule.
    assert batched.envelopes <= unbatched.envelopes

    record_bench(
        {
            "benchmark": "serving_loadtest",
            "tenants": LOAD_TENANTS,
            "offered_rate_req_per_s": LOAD_RATE,
            "horizon_s": LOAD_HORIZON,
            "scheduled": unbatched.scheduled,
            "unbatched": {
                "req_per_s": round(unbatched.requests_per_sec, 1),
                "p50_ms": round(unbatched.latency["p50"] * 1000, 3),
                "p99_ms": round(unbatched.latency["p99"] * 1000, 3),
                "envelopes": unbatched.envelopes,
            },
            "batched": {
                "batch": LOAD_BATCH,
                "req_per_s": round(batched.requests_per_sec, 1),
                "p50_ms": round(batched.latency["p50"] * 1000, 3),
                "p99_ms": round(batched.latency["p99"] * 1000, 3),
                "envelopes": batched.envelopes,
            },
        }
    )
