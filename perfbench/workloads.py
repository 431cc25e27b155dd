"""The benchmark's four workloads: inputs, the timed op and its checks.

Every workload builds its inputs from the run's seed in :meth:`setup` (two
keep a fixed population -- the campaign's trees, the server's tenants --
and draw only the order or the traffic from the seed, see their comments),
runs one untimed warm-up op on a separate input there, and then exposes

* :meth:`op` -- the timed unit of work, driven through the library's public
  entry points with library defaults (no engine or mode is overridden);
* :meth:`check` -- the untimed verification of one op's output;
* :meth:`quality` -- the paper's quality figures (success ratio and
  relative cost) over the run's first pass, so they depend on the seed
  alone and never on how many ops fitted in the run.

Ops cycle through a fixed input sequence of length :attr:`period`; a run
always stops on a whole pass (see ``run.measure``), and every pass after
the first must reproduce the first pass's costs exactly.
"""

from __future__ import annotations

import json
import math
import queue
import re
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from tracing import NullTracer, Tracer, library_targets

ROOT = Path(__file__).resolve().parent.parent

_TOLERANCE = 1e-6
#: problem size of the 20k-client trees (``client_fraction`` 0.7).
_COLD_SIZE = 28_600
#: generator seeds of cold_solve's trees, which the run seed picks from, and
#: of its warm-up tree.  Every one of them is solvable at the full, the
#: tenth and the hundredth size, while about 5% of the 2.9k-node trees a
#: seed draws are infeasible and would make ``solve`` raise in setup.
_COLD_POOL = (1, 2, 3, 4, 5, 6, 7, 8)
_COLD_WARM = 9


def _tree(seed: int, size: int):
    """A random heterogeneous tree at load 0.3: clients on the edge nodes,
    at most 3 children per node."""
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    return TreeGenerator(int(seed)).generate(
        GeneratorConfig(
            size=size,
            target_load=0.3,
            homogeneous=False,
            client_attachment="leaves",
            max_children=3,
        )
    )


def _solvable_tree(rng, size: int):
    """The first tree drawn from ``rng`` that the default solve can place.

    The portfolio finds no solution for about 9% of the 100-node and 5% of
    the 2.9k-node trees drawn; the benchmark's ops must not fail on their
    inputs.  (cold_solve skips this 1.3 s check per tree: it picks from
    ``_COLD_POOL``, checked once.)  MG is complete for the Multiple policy,
    so lowering rates keeps a solved tree solvable.
    """
    from repro.api import solve
    from repro.core.exceptions import InfeasibleError

    while True:
        tree = _tree(int(rng.integers(2**31)), size)
        try:
            solve(tree, policy="multiple")
        except InfeasibleError:
            continue
        return tree


def _within(low: float, high: float) -> bool:
    return low <= high + _TOLERANCE * max(1.0, abs(high))


def _tenant_cycle(rng, tree, epochs: int) -> Tuple[dict, dict, List[dict]]:
    """``(warm-up map, first-round map, per-epoch maps)`` of one tenant."""
    ids = list(tree.client_ids)
    base = {cid: tree.client(cid).requests for cid in ids}
    count = max(1, round(0.02 * len(ids)))

    def draw() -> dict:
        picked = rng.choice(len(ids), size=count, replace=False)
        return {
            ids[j]: float(max(1.0, round(base[ids[j]] * rng.uniform(0.5, 1.0)))) for j in picked
        }

    def step(previous: dict, change: dict) -> dict:
        merged = {cid: base[cid] for cid in previous}
        merged.update(change)
        return merged

    changes = [draw() for _ in range(epochs)]
    warm = draw()
    return warm, step(warm, changes[0]), [step(changes[k - 1], changes[k]) for k in range(epochs)]


class _Trajectories:
    """Cyclic rate-update sequences for several tenants, served round-robin.

    Op ``i`` belongs to tenant ``i % tenants`` and is that tenant's round
    ``j = i // tenants``.  Each epoch lowers the rate of about 2% of the
    tenant's clients (lowering keeps a solvable tree solvable) and puts
    the clients of the previous epoch back to their base rate, so the state
    after epoch ``k`` is the same on every pass of the cycle.  Every tenant
    also has a separate warm-up change for the setup; the first round
    restores its clients instead of the last epoch's.
    """

    def __init__(self, rng, trees: list, epochs: int) -> None:
        self.trees = trees
        self.epochs = epochs
        self.warm, self.first, self.cyclic = zip(
            *(_tenant_cycle(rng, tree, epochs) for tree in trees)
        )

    @property
    def period(self) -> int:
        return len(self.trees) * self.epochs

    def locate(self, i: int) -> Tuple[int, int]:
        """``(tenant, key of the tenant's state)`` after op ``i``."""
        tenant, j = i % len(self.trees), i // len(self.trees)
        return tenant, tenant * self.epochs + j % self.epochs

    def requests(self, i: int) -> dict:
        """The update map of op ``i``."""
        tenant, j = i % len(self.trees), i // len(self.trees)
        return self.first[tenant] if j == 0 else self.cyclic[tenant][j % self.epochs]


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: a run's op count is a whole number of passes over this many inputs
    period = 1
    #: a fixed op count per run (``None``: run for the requested seconds)
    fixed_ops: Optional[int] = None

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.notes: List[str] = []
        self.consistent = True
        #: first-pass ``(cost, lower bound)`` per input of the cycle; later
        #: passes and the traced replay must reproduce them exactly.
        self.first: Dict[int, Tuple[float, float]] = {}
        self.valid = self.attempted = 0

    # -- hooks ----------------------------------------------------------- #
    def setup(self) -> None:
        """Draw the inputs and warm up; replaces any earlier setup."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (idempotent)."""

    def op(self, i: int, tracer) -> object:
        raise NotImplementedError

    def check(self, i: int, output, elapsed: float) -> bool:
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the timed ops (run-level checks)."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def quality(self) -> Tuple[float, float]:
        """``(success_ratio, rcost)``: the share of ops that returned a valid
        placement, and the mean bound / cost over the first pass."""
        ratios = [bound / cost for cost, bound in self.first.values()]
        return self.valid / max(1, self.attempted), (statistics.fmean(ratios) if ratios else 0.0)

    # -- shared ---------------------------------------------------------- #
    def note(self, i: int, message: str) -> bool:
        """Record a failed check (the first few are printed); returns False."""
        self.notes.append(f"{self.name} op {i}: {message}")
        return False

    def verify(self, i: int, output, elapsed: float) -> bool:
        """Check one op's output (an exception is a failed op)."""
        self.attempted += 1
        if isinstance(output, Exception):
            return self.note(i, f"{type(output).__name__}: {output}")
        return self.check(i, output, elapsed)

    def valid_placement(self, i: int, problem, solution) -> bool:
        from repro.core.policies import Policy
        from repro.core.validation import validate_solution

        if solution is None:
            return self.note(i, "no solution")
        if not validate_solution(problem, solution, policy=Policy.MULTIPLE).valid:
            return self.note(i, "solution fails validate_solution")
        self.valid += 1
        return True

    def repeats_first_pass(self, i: int, key: int, cost: float, bound: float) -> bool:
        if not _within(bound, cost):
            return self.note(i, f"lower bound {bound} > cost {cost}")
        first = self.first.setdefault(key, (cost, bound))
        return first == (cost, bound) or self.note(
            i, f"(cost, bound) {(cost, bound)} != first pass {first}"
        )

    def replay(self, tracer: Tracer, ops: int) -> int:
        """Re-run the first ``ops`` ops from a fresh setup with spans on.

        Returns the number of traced ops whose output failed its check.
        """
        self.setup()
        failed = 0
        with tracer.patched(library_targets()):
            for i in range(ops):
                with tracer.op(i):
                    try:
                        output = self.op(i, tracer)
                    except Exception as error:  # noqa: BLE001 - a failed op is an outcome
                        output = error
                failed += not self.verify(i, output, 0.0)
        return failed

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer values measured outside the span tree (traced run)."""
        return {}


# --------------------------------------------------------------------------- #
# cold_solve
# --------------------------------------------------------------------------- #
class ColdSolve(Workload):
    """JSON text of a 20k-client tree in, validated Multiple solution out."""

    name = "cold_solve"
    INSTANCES = 3

    def setup(self) -> None:
        from repro.core.problem import ReplicaPlacementProblem
        from repro.core.serialization import problem_to_dict

        size = _COLD_SIZE // (10 if self.smoke else 1)
        picked = np.random.default_rng(self.seed).choice(_COLD_POOL, self.INSTANCES, replace=False)
        self.texts = [
            json.dumps(problem_to_dict(ReplicaPlacementProblem(tree=_tree(s, size))))
            for s in picked
        ]
        self.period = self.INSTANCES
        # The warm-up instance is a tenth of the size: it only has to load
        # the code paths, not to be timed.
        warm = ReplicaPlacementProblem(tree=_tree(_COLD_WARM, size // 10))
        self._solve(json.dumps(problem_to_dict(warm)), NullTracer())

    def _solve(self, text: str, tracer):
        from repro.api import solve
        from repro.core.serialization import problem_from_dict

        with tracer.span("core.serialization"):
            problem = problem_from_dict(json.loads(text))
        solution = solve(problem, policy="multiple")
        return problem, solution, solution.cost(problem)

    def op(self, i: int, tracer):
        return self._solve(self.texts[i % self.period], tracer)

    def check(self, i: int, output, elapsed: float) -> bool:
        from repro.core.costs import trivial_lower_bound

        problem, solution, cost = output
        return self.valid_placement(i, problem, solution) and self.repeats_first_pass(
            i, i % self.period, cost, trivial_lower_bound(problem)
        )


# --------------------------------------------------------------------------- #
# paper_campaign
# --------------------------------------------------------------------------- #
class PaperCampaign(Workload):
    """The paper's Section 7 campaign: mixed LP + eight heuristics + MixedBest."""

    name = "paper_campaign"
    LAMBDAS = tuple(round(0.1 * k, 1) for k in range(1, 10))
    SIZES = (15, 150)

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        self.records: Dict[int, object] = {}

    def setup(self) -> None:
        from repro.algorithms.base import get_heuristic
        from repro.experiments.harness import PAPER_HEURISTICS, CampaignConfig
        from repro.workloads.generator import GeneratorConfig, TreeGenerator

        self.configs = {
            homogeneous: CampaignConfig(homogeneous=homogeneous, size_range=self.SIZES)
            for homogeneous in (True, False)
        }
        self.heuristics = [(name, get_heuristic(name)) for name in PAPER_HEURISTICS]
        per_lambda = 1 if self.smoke else max(1, round(0.8 * self.seconds))
        low, high = self.SIZES[0], self.SIZES[1] // (3 if self.smoke else 1)
        # The trees come from the library's canonical campaign seed, and the
        # run seed only orders them: a few of these mixed LPs take 1-2 s
        # where the median takes 20 ms, so a campaign drawn per seed moved
        # ops_per_s by 15-25% from seed to seed.
        generator = TreeGenerator(CampaignConfig().seed)

        def draw(size: int, load: float, homogeneous: bool):
            config = self.configs[homogeneous]
            return generator.generate(
                GeneratorConfig(
                    size=size,
                    target_load=load,
                    homogeneous=homogeneous,
                    base_capacity=config.base_capacity,
                    capacity_choices=config.capacity_choices,
                    client_fraction=config.client_fraction,
                    max_children=config.max_children,
                )
            )

        # Sizes are stratified over the range (one uniform draw per stratum);
        # each pair interleaves homogeneous/Replica Counting with
        # heterogeneous/Replica Cost.
        pairs = []
        for load in self.LAMBDAS:
            for j in range(per_lambda):
                pair = []
                for homogeneous in (True, False):
                    size = int(low + (high - low + 1) * (j + generator.rng.random()) / per_lambda)
                    pair.append((load, draw(size, load, homogeneous), homogeneous))
                pairs.append(pair)
        order = np.random.default_rng(self.seed).permutation(len(pairs))
        self.plan = [entry for k in order for entry in pairs[k]]
        self.fixed_ops = len(self.plan)
        self._evaluate(0.5, draw(low, 0.5, True), True)

    def _evaluate(self, load: float, tree, homogeneous: bool):
        from repro.experiments.harness import evaluate_instance

        return evaluate_instance(tree, load, self.configs[homogeneous], self.heuristics)

    def op(self, i: int, tracer):
        load, tree, homogeneous = self.plan[i]
        return self._evaluate(load, tree, homogeneous)

    def check(self, i: int, record, elapsed: float) -> bool:
        from repro.core.costs import trivial_lower_bound
        from repro.core.problem import ReplicaPlacementProblem

        _, tree, homogeneous = self.plan[i]
        config = self.configs[homogeneous]
        first = self.records.setdefault(i, record)
        if (first.lower_bound, first.costs) != (record.lower_bound, record.costs):
            return self.note(i, "record differs from the first evaluation of this tree")
        if config.lp_time_limit is not None and elapsed >= config.lp_time_limit:
            return self.note(i, f"op took {elapsed:.1f}s, the LP may have hit its time limit")
        best = record.costs["MixedBest"]
        components = [c for n, c in record.costs.items() if n != "MixedBest" and c is not None]
        if best != (min(components) if components else None):
            return self.note(i, f"MixedBest {best} is not the cheapest heuristic")
        if not math.isfinite(record.lower_bound):
            return best is None or self.note(i, "solved an instance the LP proves infeasible")
        problem = ReplicaPlacementProblem(tree=tree, kind=config.problem_kind())
        trivial = trivial_lower_bound(problem)
        if not _within(trivial, record.lower_bound):
            return self.note(i, f"trivial bound {trivial} > mixed LP {record.lower_bound}")
        if best is not None and not _within(record.lower_bound, best):
            return self.note(i, f"mixed LP {record.lower_bound} > MixedBest {best}")
        return True

    def quality(self) -> Tuple[float, float]:
        from repro.experiments.metrics import relative_cost, success_rate

        records = [self.records[i] for i in sorted(self.records)]
        costs = [record.costs["MixedBest"] for record in records]
        return (
            success_rate(costs),
            relative_cost([record.lower_bound for record in records], costs),
        )


# --------------------------------------------------------------------------- #
# epoch_replay
# --------------------------------------------------------------------------- #
class EpochReplay(Workload):
    """Rate epochs through in-process PlacementSessions, IPFP bound each."""

    name = "epoch_replay"
    #: sessions served round-robin (several trees, so one unusual tree
    #: weighs less on a run's figures) and epochs per session cycle
    SESSIONS = 3
    EPOCHS = 25

    def setup(self) -> None:
        from repro.session import PlacementSession

        rng = np.random.default_rng(self.seed)
        size = 2860 // (4 if self.smoke else 1)
        trees = [_solvable_tree(rng, size) for _ in range(self.SESSIONS)]
        self.plan = _Trajectories(rng, trees, 5 if self.smoke else self.EPOCHS)
        self.period = self.plan.period
        self.sessions = [PlacementSession(tree) for tree in trees]
        for session, warm in zip(self.sessions, self.plan.warm):
            session.update(requests=warm)
            session.bound(method="ipfp")

    def op(self, i: int, tracer):
        session = self.sessions[i % len(self.sessions)]
        result = session.update(requests=self.plan.requests(i))
        return result, session.bound(method="ipfp")

    def check(self, i: int, output, elapsed: float) -> bool:
        result, bound = output
        _, key = self.plan.locate(i)
        return self.valid_placement(i, result.problem, result.solution) and self.repeats_first_pass(
            i, key, result.cost, bound.value
        )


# --------------------------------------------------------------------------- #
# serve_tcp
# --------------------------------------------------------------------------- #
class _Recorder:
    """Transport wrapper keeping every envelope sent (for the in-process replay)."""

    def __init__(self, transport) -> None:
        self.transport = transport
        self.sent: List[dict] = []

    def send(self, envelope: dict) -> dict:
        self.sent.append(envelope)
        return self.transport.send(envelope)

    def close(self) -> None:
        self.transport.close()


class ServeTcp(Workload):
    """Tenant rounds against ``repro serve --tcp`` on one connection."""

    name = "serve_tcp"
    TENANTS = 8
    TENANT_SEED = 2007
    EPOCHS = 16
    READS = 8

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        super().__init__(seed, seconds, smoke)
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.errors = 0
        self._extras: Dict[str, float] = {}

    # -- server lifetime ------------------------------------------------- #
    def _start_server(self) -> Tuple[str, int]:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        ready: "queue.Queue" = queue.Queue()

        def drain(stream) -> None:
            for line in stream:
                found = re.search(r"loop-serving on tcp://([^\s:]+):(\d+)", line)
                if found:
                    ready.put((found.group(1), int(found.group(2))))
                else:
                    sys.stderr.write(line)
            ready.put(None)

        self._drain = threading.Thread(target=drain, args=(self.proc.stderr,), daemon=True)
        self._drain.start()
        endpoint = ready.get(timeout=60)
        if endpoint is None:
            raise RuntimeError(f"repro serve exited with {self.proc.wait()} before listening")
        return endpoint

    def teardown(self) -> None:
        if self.client is not None:
            self.client.transport.close()
            self.client = None
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._drain.join(timeout=10)
            self.proc.stderr.close()
            self.proc = None

    # -- workload -------------------------------------------------------- #
    def setup(self) -> None:
        from repro.core.problem import ReplicaPlacementProblem
        from repro.serving.client import ServingClient, TcpTransport

        self.teardown()
        # The tenant population is fixed, as a deployment's is, and the run
        # seed draws their traffic: the IPFP/cost ratio of one 100-node tree
        # varies by about a quarter between draws, so eight drawn tenants
        # would move rcost by 10-20% from seed to seed.
        population = np.random.default_rng(self.TENANT_SEED)
        trees = [_solvable_tree(population, 100) for _ in range(2 if self.smoke else self.TENANTS)]
        rng = np.random.default_rng(self.seed)
        self.plan = _Trajectories(rng, trees, 4 if self.smoke else self.EPOCHS)
        self.period = self.plan.period

        host, port = self._start_server()
        self.recorder = _Recorder(TcpTransport(host, port))
        self.client = ServingClient(self.recorder)
        self.sessions = []
        for tree, warm in zip(trees, self.plan.warm):
            session = self.client.open(ReplicaPlacementProblem(tree=tree))
            session.solve()
            session.bound(method="ipfp")
            session.update(requests=warm)
            session.bound(method="ipfp")
            self.sessions.append(session)
        self.baseline = self.client.stats()

    def op(self, i: int, tracer):
        session = self.sessions[i % len(self.sessions)]
        with tracer.span("serving.client.update"):
            updated = session.update(requests=self.plan.requests(i))
        reads = []
        for j in range(self.READS):
            if j % 2 == 0:
                with tracer.span("serving.client.bound"):
                    reads.append(session.bound(method="ipfp"))
            else:
                with tracer.span("serving.client.solve"):
                    reads.append(session.solve())
        return updated, reads

    def verify(self, i: int, output, elapsed: float) -> bool:
        from repro.serving.client import ServingError

        self.errors += isinstance(output, ServingError)
        return super().verify(i, output, elapsed)

    def check(self, i: int, output, elapsed: float) -> bool:
        from repro.core.problem import ReplicaPlacementProblem

        updated, reads = output
        tenant, key = self.plan.locate(i)
        # The state after a round is the base tree plus that round's map
        # (which also restores the previous round's clients).
        state = ReplicaPlacementProblem(
            tree=self.plan.trees[tenant].with_requests(self.plan.requests(i))
        )
        if not self.valid_placement(i, state, updated.solution):
            return False
        bounds = {read.value for read in reads[0::2]}
        costs = {read.cost for read in reads[1::2]}
        if costs != {updated.cost} or len(bounds) != 1:
            return self.note(i, f"reads disagree: costs {costs}, bounds {bounds}")
        return self.repeats_first_pass(i, key, updated.cost, bounds.pop())

    def finish(self) -> None:
        stats = self.client.stats()
        errors = sum(int(m.get("errors", 0)) for m in stats.ops.values()) - sum(
            int(m.get("errors", 0)) for m in self.baseline.ops.values()
        )
        if errors != self.errors:
            self.consistent = False
            self.notes.append(
                f"server counted {errors} error envelopes, the client saw {self.errors}"
            )

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server process."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)
        return int(kib) / 1024.0

    # -- traced run ------------------------------------------------------ #
    def replay(self, tracer: Tracer, ops: int) -> int:
        """The rounds over TCP with client spans, then the recorded envelope
        sequence through ``handle_envelope`` on an in-process pool."""
        from repro.serving.pool import SessionPool
        from repro.serving.protocol import handle_envelope

        self.setup()
        before = self.baseline
        marks = []
        failed = 0
        for i in range(ops):
            marks.append(len(self.recorder.sent))
            with tracer.op(i):
                try:
                    output = self.op(i, tracer)
                except Exception as error:  # noqa: BLE001 - a failed op is an outcome
                    output = error
            failed += not self.verify(i, output, 0.0)
        marks.append(len(self.recorder.sent))
        after = self.client.stats()
        lines = [json.dumps(envelope) for envelope in self.recorder.sent]
        self.teardown()
        self._extras = self._server_layers(before, after, ops, sum(tracer.op_durations()))

        # `repro serve` answers a line with ReproServer.handle_line:
        # json.loads -> handle_envelope -> json.dumps(sort_keys=True).
        pool = SessionPool()
        for line in lines[: marks[0]]:
            handle_envelope(pool, json.loads(line))
        with tracer.patched(library_targets()):
            for i in range(ops):
                with tracer.op(i, name="replay.op"):
                    for line in lines[marks[i] : marks[i + 1]]:
                        with tracer.span("serving.protocol.decode"):
                            envelope = json.loads(line)
                        with tracer.span("serving.protocol.handle"):
                            handled = handle_envelope(pool, envelope)
                        with tracer.span("serving.protocol.encode"):
                            json.dumps(handled.reply, sort_keys=True)
        return failed

    @staticmethod
    def _server_layers(before, after, ops: int, round_seconds: float) -> Dict[str, float]:
        def delta(op: str, key: str) -> float:
            return after.ops.get(op, {}).get(key, 0.0) - before.ops.get(op, {}).get(key, 0.0)

        values = {}
        handled = 0.0
        for op in ("update", "solve", "bound"):
            seconds = delta(op, "seconds_total")
            handled += seconds
            values[f"serving.server.{op}_ms"] = seconds * 1000 / ops
        values["serving.transport_ms"] = (round_seconds - handled) * 1000 / ops

        def ratio(hits: float, misses: float) -> float:
            return hits / (hits + misses) if hits + misses else 0.0

        values["serving.pool.hit_ratio"] = ratio(
            after.hits - before.hits, after.misses - before.misses
        )
        values["session.solve_cache_hit_ratio"] = ratio(
            after.solve_cache_hits - before.solve_cache_hits, after.solves - before.solves
        )
        values["session.bound_cache_hit_ratio"] = ratio(
            after.bound_cache_hits - before.bound_cache_hits, after.bounds - before.bounds
        )
        values["serving.pool.bytes_estimate"] = float(after.bytes_estimate)
        return values

    def layer_extras(self) -> Dict[str, float]:
        return dict(self._extras)


WORKLOADS = {cls.name: cls for cls in (ColdSolve, PaperCampaign, EpochReplay, ServeTcp)}
