"""Open-loop IPPP load harness for the serving endpoints.

Closed-loop load tests (send, wait, send again) measure a server that is
never actually saturated: the client's own waiting throttles the offered
rate, hiding queueing delay exactly when it matters.  This harness is
**open-loop**: the whole arrival schedule is sampled *up front* from an
inhomogeneous Poisson point process (:func:`~repro.workloads.distributions.
thinned_poisson_arrivals` under a :func:`~repro.workloads.distributions.
sinusoidal_intensity` diurnal curve), and every request's latency is
measured against its *scheduled* arrival time -- a server that falls
behind pays the accumulated queueing delay in its p99, as it would in
production.

The schedule spreads arrivals over ``tenants`` synthetic tenants (distinct
generated trees, so each is its own resident session server-side) and
cycles each tenant's ops through ``ops``.  With ``batch > 1`` every
dispatch coalesces all *due* arrivals (up to the cap) into one batch
envelope -- the measured contrast against ``batch=1`` on the same schedule
is exactly the amortisation the batched protocol buys, and is what
``benchmarks/test_serving_throughput.py`` records into BENCH_engine.json.

The harness drives any :class:`~repro.serving.client.ServingClient`
transport: in-process (``repro loadtest``'s default), stdio, HTTP or a
loop-server socket (``tcp://``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import ResultBase, register_result
from repro.core.serialization import problem_to_dict
from repro.serving.client import ServingClient, ServingError, connect
from repro.workloads.distributions import (
    sinusoidal_intensity,
    thinned_poisson_arrivals,
)

__all__ = ["LoadgenConfig", "LoadtestReport", "build_schedule", "run_loadtest"]


@dataclass
class LoadgenConfig:
    """Shape of one load run: the process, the tenants, the envelope size.

    ``rate`` is the *mean* offered rate (requests/second across all
    tenants); the instantaneous intensity follows a sinusoid with relative
    amplitude ``burst`` and period ``period`` seconds, so the server sees
    genuine bursts instead of a metronome.  ``batch`` caps how many due
    arrivals one envelope may carry (1 = the unbatched protocol).

    Ops come from the deterministic per-tenant ``ops`` cycle by default.
    ``op_mix`` replaces the cycle with a weighted draw *per arrival*
    (e.g. ``{"solve": 3, "bound": 1}``): each tenant gets its own slightly
    jittered copy of the weights, so the traffic resembles a fleet of
    real tenants with similar-but-not-identical workloads rather than
    ``tenants`` copies of one script.
    """

    tenants: int = 4
    size: int = 30
    horizon: float = 2.0
    rate: float = 50.0
    burst: float = 0.5
    period: float = 1.0
    batch: int = 1
    ops: Tuple[str, ...] = ("solve", "bound")
    op_mix: Optional[Mapping[str, float]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not self.ops:
            raise ValueError("ops must name at least one op")
        unknown = set(self.ops) - {"solve", "bound", "update"}
        if unknown:
            raise ValueError(
                f"unsupported loadgen ops {sorted(unknown)}; "
                "choose from solve/bound/update"
            )
        if self.op_mix is not None:
            if not self.op_mix:
                raise ValueError("op_mix must weight at least one op")
            unknown = set(self.op_mix) - {"solve", "bound", "update"}
            if unknown:
                raise ValueError(
                    f"unsupported op_mix ops {sorted(unknown)}; "
                    "choose from solve/bound/update"
                )
            for op, weight in self.op_mix.items():
                weight = float(weight)
                if not (weight > 0 and np.isfinite(weight)):
                    raise ValueError(
                        f"op_mix weight for {op!r} must be a positive finite "
                        f"number, got {weight!r}"
                    )


@register_result
@dataclass
class LoadtestReport(ResultBase):
    """Outcome of one open-loop run: throughput plus latency percentiles.

    ``latency`` percentiles are measured from each request's *scheduled*
    arrival to its reply (queueing delay included -- the open-loop
    number); ``requests_per_sec`` is served requests over the wall-clock
    span of the run.
    """

    payload_type = "loadtest_report"

    tenants: int
    horizon: float
    offered_rate: float
    batch: int
    scheduled: int
    served: int
    errors: int
    duration: float
    requests_per_sec: float
    envelopes: int
    latency: Dict[str, float] = field(default_factory=dict)
    op_counts: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        p50 = self.latency.get("p50", float("nan"))
        p99 = self.latency.get("p99", float("nan"))
        return (
            f"{self.served}/{self.scheduled} requests over {self.duration:.2f}s "
            f"({self.tenants} tenants, batch<={self.batch}): "
            f"{self.requests_per_sec:.1f} req/s, "
            f"latency p50 {p50 * 1e3:.1f}ms / p99 {p99 * 1e3:.1f}ms, "
            f"{self.errors} errors"
        )

    def to_dict(self) -> Dict[str, Any]:
        return self._tagged(
            {
                "tenants": self.tenants,
                "horizon": self.horizon,
                "offered_rate": self.offered_rate,
                "batch": self.batch,
                "scheduled": self.scheduled,
                "served": self.served,
                "errors": self.errors,
                "duration": self.duration,
                "requests_per_sec": self.requests_per_sec,
                "envelopes": self.envelopes,
                "latency": dict(self.latency),
                "op_counts": dict(self.op_counts),
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LoadtestReport":
        return cls(
            tenants=int(payload["tenants"]),
            horizon=float(payload["horizon"]),
            offered_rate=float(payload["offered_rate"]),
            batch=int(payload["batch"]),
            scheduled=int(payload["scheduled"]),
            served=int(payload["served"]),
            errors=int(payload["errors"]),
            duration=float(payload["duration"]),
            requests_per_sec=float(payload["requests_per_sec"]),
            envelopes=int(payload.get("envelopes", 0)),
            latency={k: float(v) for k, v in (payload.get("latency") or {}).items()},
            op_counts={
                str(k): int(v) for k, v in (payload.get("op_counts") or {}).items()
            },
        )


@dataclass
class _Tenant:
    """One synthetic tenant: its problem payload and serving address."""

    problem_payload: Dict[str, Any]
    client_ids: List[Any]
    fingerprint: Optional[str] = None
    next_op: int = 0
    #: ``(op names, probabilities)`` of this tenant's jittered op mix;
    #: ``None`` keeps the deterministic ``ops`` cycle.
    mix: Optional[Tuple[Tuple[str, ...], np.ndarray]] = None


def build_schedule(
    config: LoadgenConfig,
    *,
    arrivals: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, List[_Tenant]]:
    """Sample the open-loop schedule: arrival times, tenant picks, tenants.

    Deterministic in ``config.seed``.  Arrival times come from the IPPP
    sampler (thinning under the sinusoidal intensity); tenants are drawn
    uniformly per arrival, so every tenant's sub-process is itself Poisson.

    An explicit ``arrivals`` array (sorted, finite, non-negative seconds)
    replaces the sampled schedule -- the hook ``repro loadtest --trace``
    uses to replay a trace-estimated intensity
    (:meth:`~repro.workloads.traces.TraceEpochs.arrival_schedule`) against
    the same tenants and envelope logic.
    """
    from repro.core.exceptions import WorkloadError
    from repro.core.problem import ProblemKind, ReplicaPlacementProblem
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    rng = np.random.default_rng(config.seed)
    if arrivals is None:
        arrivals = thinned_poisson_arrivals(
            rng,
            sinusoidal_intensity(
                config.rate, burst=config.burst, period=config.period
            ),
            config.horizon,
            bound=config.rate * (1.0 + config.burst),
        )
    else:
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.ndim != 1:
            raise WorkloadError(
                f"arrival schedule must be 1-d, got shape {arrivals.shape}"
            )
        if arrivals.size and not np.all(np.isfinite(arrivals)):
            raise WorkloadError("arrival times must be finite")
        if arrivals.size and float(arrivals[0]) < 0:
            raise WorkloadError("arrival times must be >= 0")
        if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
            raise WorkloadError("arrival times must be sorted (non-decreasing)")
    picks = rng.integers(0, config.tenants, size=arrivals.size)
    mix_ops: Optional[Tuple[str, ...]] = None
    if config.op_mix is not None:
        mix_ops = tuple(sorted(config.op_mix))
        mix_base = np.asarray([float(config.op_mix[op]) for op in mix_ops])
    tenants: List[_Tenant] = []
    for index in range(config.tenants):
        tree = TreeGenerator(config.seed * 1009 + index).generate(
            GeneratorConfig(size=config.size, target_load=0.4)
        )
        problem = ReplicaPlacementProblem(
            tree=tree, kind=ProblemKind.REPLICA_COUNTING
        )
        mix = None
        if mix_ops is not None:
            # Per-tenant jitter (up to +/-25% per weight) off the shared
            # schedule rng, so the whole draw stays pinned by config.seed.
            jitter = 1.0 + 0.25 * (2.0 * rng.random(len(mix_ops)) - 1.0)
            weights = mix_base * jitter
            mix = (mix_ops, weights / weights.sum())
        tenants.append(
            _Tenant(
                problem_payload=problem_to_dict(problem),
                client_ids=list(tree.client_ids),
                mix=mix,
            )
        )
    return arrivals, picks, tenants


def _make_item(
    tenant: _Tenant, rng: np.random.Generator, ops: Sequence[str]
) -> Dict[str, Any]:
    """The next request envelope: sampled op mix, or the ``ops`` cycle."""
    if tenant.mix is not None:
        mix_ops, probabilities = tenant.mix
        op = mix_ops[int(rng.choice(len(mix_ops), p=probabilities))]
    else:
        op = ops[tenant.next_op % len(ops)]
    tenant.next_op += 1
    item: Dict[str, Any] = {"op": op}
    if tenant.fingerprint is not None:
        item["fingerprint"] = tenant.fingerprint
    else:
        item["problem"] = tenant.problem_payload
    if op == "update":
        client = tenant.client_ids[int(rng.integers(0, len(tenant.client_ids)))]
        item["params"] = {
            "requests": [
                {"client": client, "rate": int(rng.integers(1, 100))}
            ]
        }
    return item


def _adopt_fingerprints(
    tenants_hit: Sequence[_Tenant], replies: Sequence[Any]
) -> None:
    """Track each tenant's resident key from its latest reply."""
    for tenant, reply in zip(tenants_hit, replies):
        if isinstance(reply, Mapping):
            fingerprint = reply.get("fingerprint")
            if isinstance(fingerprint, str):
                tenant.fingerprint = fingerprint


def run_loadtest(
    target: Any,
    config: Optional[LoadgenConfig] = None,
    *,
    arrivals: Optional[np.ndarray] = None,
) -> LoadtestReport:
    """Drive ``target`` through one open-loop run; returns the report.

    ``target`` is anything :func:`~repro.serving.client.connect` accepts
    (an in-process server, an ``http://``/``tcp://`` URL, a stdio pair) or
    an existing :class:`~repro.serving.client.ServingClient`.

    The loop sleeps until each arrival's *scheduled* time, then ships
    every arrival that is already due -- one envelope each with
    ``batch=1``, coalesced into batch envelopes (cap ``config.batch``)
    otherwise.  Latency is reply time minus scheduled arrival time.

    ``arrivals`` replays an explicit schedule (e.g. one estimated from a
    real trace) instead of sampling one; see :func:`build_schedule`.
    """
    config = LoadgenConfig() if config is None else config
    client = target if isinstance(target, ServingClient) else connect(target)
    arrivals, picks, tenants = build_schedule(config, arrivals=arrivals)
    rng = np.random.default_rng(config.seed + 1)

    latencies: List[float] = []
    op_counts: Dict[str, int] = {}
    errors = 0
    served = 0
    envelopes = 0

    start = time.perf_counter()
    cursor = 0
    while cursor < arrivals.size:
        now = time.perf_counter() - start
        due_until = arrivals[cursor]
        if due_until > now:
            time.sleep(due_until - now)
            now = time.perf_counter() - start
        # Everything scheduled by `now` is due; coalesce up to the cap.
        stop = cursor
        while (
            stop < arrivals.size
            and arrivals[stop] <= now
            and stop - cursor < config.batch
        ):
            stop += 1
        stop = max(stop, cursor + 1)  # always ship at least the head arrival

        group_tenants = [tenants[picks[index]] for index in range(cursor, stop)]
        items = [_make_item(tenant, rng, config.ops) for tenant in group_tenants]
        for item in items:
            op_counts[item["op"]] = op_counts.get(item["op"], 0) + 1
        try:
            if config.batch == 1:
                replies: List[Any] = [client.request(items[0])]
            else:
                reply = client.request({"op": "batch", "requests": items})
                replies = (
                    reply.get("results", [])
                    if isinstance(reply, Mapping)
                    and reply.get("type") == "batch_result"
                    else [reply] * len(items)
                )
            envelopes += 1
        except (ServingError, OSError) as error:  # transport-level failure
            errors += len(items)
            served += len(items)
            completed = time.perf_counter() - start
            latencies.extend(completed - arrivals[i] for i in range(cursor, stop))
            cursor = stop
            continue
        completed = time.perf_counter() - start
        for offset, reply in enumerate(replies[: stop - cursor]):
            latencies.append(completed - arrivals[cursor + offset])
            served += 1
            if isinstance(reply, Mapping) and reply.get("type") == "error":
                errors += 1
        _adopt_fingerprints(group_tenants, replies)
        cursor = stop
    duration = time.perf_counter() - start

    sample = np.asarray(latencies, dtype=float)
    latency = (
        {
            "p50": float(np.percentile(sample, 50)),
            "p95": float(np.percentile(sample, 95)),
            "p99": float(np.percentile(sample, 99)),
            "max": float(sample.max()),
        }
        if sample.size
        else {}
    )
    return LoadtestReport(
        tenants=config.tenants,
        horizon=config.horizon,
        offered_rate=float(arrivals.size / config.horizon),
        batch=config.batch,
        scheduled=int(arrivals.size),
        served=served,
        errors=errors,
        duration=duration,
        requests_per_sec=float(served / duration) if duration > 0 else 0.0,
        envelopes=envelopes,
        latency=latency,
        op_counts=op_counts,
    )
