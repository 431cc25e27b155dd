"""Serving subsystem tests (:mod:`repro.serving`).

Covers the PR's acceptance criteria head on:

* **protocol fidelity** -- stdio and HTTP round-trips are bit-identical
  (costs, placements, bound values, strategies; wall-clock runtimes
  excluded) to direct :class:`~repro.session.PlacementSession` calls on
  the same problems, across policies x {counting, cost, qos, bandwidth};
* **fingerprints** -- stable under tree rebuild vs ``with_requests`` fork,
  sensitive to every content dimension;
* **pool semantics** -- LRU eviction order, byte budgets, stats
  aggregation across evictions, thread-safe checkout;
* **error envelopes** -- malformed requests of every kind produce tagged
  error replies, never exceptions or tracebacks;
* **snapshots** -- a save/restore cycle preserves warm-cache behaviour:
  repeated queries answer bit-identically from cache and the next
  rate-only ``bound()`` reports strategy ``patched``, not ``built``;
* **SLA-aware update** -- ``resolve="on_saturation"`` keeps clean epochs
  frozen and re-solves violated ones.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Any, Dict

import pytest

from repro.core.constraints import ConstraintSet
from repro.core.exceptions import SerializationError
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.results import result_from_dict
from repro.core.serialization import (
    problem_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.serving import (
    LoopServer,
    PoolStats,
    ReproServer,
    SessionPool,
    UnknownSessionError,
    connect,
    problem_fingerprint,
)
from repro.serving.client import ServingError
from repro.serving.snapshot import restore_pool, save_pool, snapshot_path
from repro.session import BoundResult, PlacementSession, SolveResult
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import problem_records

POLICIES = ("closest", "upwards", "multiple")
KINDS = ("counting", "cost", "qos", "bandwidth")


def make_problem(seed: int, kind: str = "counting", *, size: int = 30):
    """A small instance per constraint family the protocol tests sweep."""
    if kind == "counting":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(size=size, target_load=0.4)
        )
        return ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COUNTING)
    if kind == "cost":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(size=size, target_load=0.4, homogeneous=False)
        )
        return ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COST)
    if kind == "qos":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(size=size, target_load=0.4, qos_hops=(2, 5))
        )
        return ReplicaPlacementProblem(
            tree=tree,
            constraints=ConstraintSet.qos_distance(),
            kind=ProblemKind.REPLICA_COST,
        )
    if kind == "bandwidth":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(size=size, target_load=0.4, link_bandwidth=200.0)
        )
        return ReplicaPlacementProblem(
            tree=tree,
            constraints=ConstraintSet(enforce_bandwidth=True),
            kind=ProblemKind.REPLICA_COST,
        )
    raise ValueError(kind)


def canonical(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A reply payload with wall-clock noise and transport extras removed.

    ``runtime`` fields are the only non-deterministic part of the result
    protocol; ``fingerprint`` is transport metadata the server injects.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "runtime"}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    stripped = strip(payload)
    stripped.pop("fingerprint", None)
    return stripped


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_rebuild_is_stable(self):
        problem = make_problem(1, "cost")
        clone = ReplicaPlacementProblem(
            tree=tree_from_dict(tree_to_dict(problem.tree)),
            constraints=problem.constraints,
            kind=problem.kind,
        )
        assert problem_fingerprint(problem) == problem_fingerprint(clone)

    def test_fork_matches_rebuild(self):
        """A with_requests fork and a full rebuild with the same rates agree."""
        problem = make_problem(2, "counting")
        cid = problem.tree.client_ids[0]
        new_rate = problem.tree.client(cid).requests + 3.0
        fork = problem.tree.with_requests({cid: new_rate})
        payload = tree_to_dict(fork)
        rebuilt = tree_from_dict(payload)
        fork_problem = ReplicaPlacementProblem(tree=fork, kind=problem.kind)
        rebuilt_problem = ReplicaPlacementProblem(tree=rebuilt, kind=problem.kind)
        assert problem_fingerprint(fork_problem) == problem_fingerprint(
            rebuilt_problem
        )
        assert problem_fingerprint(fork_problem) != problem_fingerprint(problem)

    def test_fast_path_matches_slow_path(self):
        """Hashing with a resident TreeIndex equals hashing without one."""
        from repro.core.index import TreeIndex

        problem = make_problem(3, "qos")
        clone = ReplicaPlacementProblem(
            tree=tree_from_dict(tree_to_dict(problem.tree)),
            constraints=problem.constraints,
            kind=problem.kind,
        )
        slow = problem_fingerprint(clone)  # no index on the fresh clone
        TreeIndex.for_tree(problem.tree)  # force the fast path
        assert problem_fingerprint(problem) == slow
        # and the fork fast path (shared structural cache) stays consistent
        cid = problem.tree.client_ids[1]
        fork = problem.tree.with_requests({cid: 1.5})
        TreeIndex.for_tree(fork)
        fork_problem = ReplicaPlacementProblem(
            tree=fork, constraints=problem.constraints, kind=problem.kind
        )
        fresh = ReplicaPlacementProblem(
            tree=tree_from_dict(tree_to_dict(fork)),
            constraints=problem.constraints,
            kind=problem.kind,
        )
        assert problem_fingerprint(fork_problem) == problem_fingerprint(fresh)

    def test_sensitive_to_content(self):
        problem = make_problem(4, "counting")
        base = problem_fingerprint(problem)
        assert (
            problem_fingerprint(problem.with_kind(ProblemKind.REPLICA_COST)) != base
        )
        assert (
            problem_fingerprint(
                problem.with_constraints(ConstraintSet.qos_distance())
            )
            != base
        )
        cid = problem.tree.client_ids[0]
        bumped = ReplicaPlacementProblem(
            tree=problem.tree.with_requests(
                {cid: problem.tree.client(cid).requests + 1}
            ),
            kind=problem.kind,
        )
        assert problem_fingerprint(bumped) != base


# --------------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------------- #
class TestSessionPool:
    def test_lru_eviction_order(self):
        pool = SessionPool(capacity=2)
        problems = [make_problem(seed, size=20) for seed in (10, 11, 12)]
        keys = []
        for problem in problems:
            with pool.checkout(problem) as entry:
                keys.append(entry.fingerprint)
        # the first problem is the LRU victim
        assert pool.resident_fingerprints() == (keys[1], keys[2])
        # touching the now-LRU second problem protects it
        with pool.checkout(problems[1]):
            pass
        with pool.checkout(make_problem(13, size=20)):
            pass
        assert keys[2] not in pool.resident_fingerprints()
        assert keys[1] in pool.resident_fingerprints()

    def test_unknown_fingerprint_raises(self):
        pool = SessionPool(capacity=2)
        with pytest.raises(UnknownSessionError):
            with pool.checkout(fingerprint="no-such-session"):
                pass  # pragma: no cover

    def test_same_content_shares_a_session(self):
        pool = SessionPool(capacity=4)
        problem = make_problem(14, size=20)
        clone = ReplicaPlacementProblem(
            tree=tree_from_dict(tree_to_dict(problem.tree)), kind=problem.kind
        )
        with pool.checkout(problem) as first:
            first_session = first.session
        with pool.checkout(clone) as second:
            assert second.session is first_session
        stats = pool.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_eviction_hook_and_retired_stats(self):
        evicted = []
        pool = SessionPool(capacity=1, on_evict=(lambda entry: evicted.append(entry),))
        first = make_problem(15, size=20)
        with pool.checkout(first) as entry:
            entry.session.solve()
        solves_before = pool.stats().solves
        with pool.checkout(make_problem(16, size=20)):
            pass
        assert len(evicted) == 1
        assert evicted[0].session.stats.solves == 1
        # the evicted session's counters stay in the lifetime totals
        stats = pool.stats()
        assert stats.evictions == 1
        assert stats.solves == solves_before == 1

    def test_byte_budget_evicts(self):
        pool = SessionPool(capacity=10, max_bytes=1)  # everything is over budget
        with pool.checkout(make_problem(17, size=20)):
            pass
        with pool.checkout(make_problem(18, size=20)):
            pass
        # the budget keeps only the MRU entry resident
        assert len(pool) == 1
        assert pool.stats().evictions == 1

    def test_concurrent_checkout_different_tenants(self):
        pool = SessionPool(capacity=8)
        problems = [make_problem(20 + i, size=20) for i in range(4)]
        errors = []

        def worker(problem):
            try:
                for _ in range(3):
                    with pool.checkout(problem) as entry:
                        entry.session.solve()
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(p,)) for p in problems]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(pool) == len(problems)
        stats = pool.stats()
        assert stats.misses == len(problems)
        assert stats.hits == 2 * len(problems)

    def test_checkout_rechecks_residency_under_lock(self):
        """An entry evicted in the lookup-to-lock window is not handed out."""
        pool = SessionPool(capacity=2)
        problem = make_problem(26, size=20)
        with pool.checkout(problem) as entry:
            first_session = entry.session
            fingerprint = entry.fingerprint
        # Simulate the race: the entry gets evicted after the lookup but
        # before the caller takes its lock.
        original_acquire = pool._acquire
        raced = {"done": False}

        def racing_acquire(problem_arg, fingerprint_arg):
            result = original_acquire(problem_arg, fingerprint_arg)
            if not raced["done"]:
                raced["done"] = True
                with pool._lock:
                    victim = pool._entries.pop(fingerprint)
                    pool._retire_locked(victim)
                    pool._evictions += 1
            return result

        pool._acquire = racing_acquire
        try:
            with pool.checkout(problem) as entry:
                # the retry created a fresh resident session, not the ghost
                assert entry.session is not first_session
                assert pool.resident_fingerprints() == (fingerprint,)
        finally:
            pool._acquire = original_acquire
        # the ghost's counters were retired exactly once
        assert pool.stats().evictions == 1

    def test_pool_stats_round_trip(self):
        pool = SessionPool(capacity=3)
        with pool.checkout(make_problem(25, size=20)) as entry:
            entry.session.solve()
        payload = pool.stats().to_dict()
        clone = result_from_dict(json.loads(json.dumps(payload)))
        assert isinstance(clone, PoolStats)
        assert clone.to_dict() == payload
        assert clone.describe() == pool.stats().describe()


# --------------------------------------------------------------------------- #
# protocol round-trips: stdio and HTTP vs in-process sessions
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def http_endpoint():
    """One shared HTTP server for the round-trip sweep."""
    loop = LoopServer(ReproServer(capacity=32))
    host, port = loop.listen("127.0.0.1", 0, http=True)
    thread = threading.Thread(target=loop.serve, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        loop.shutdown()
        thread.join(timeout=10)


def run_stdio(envelopes):
    """Serve envelopes from a regular-file stdin on a fresh loop; returns reply dicts."""
    with tempfile.TemporaryFile() as stdin, tempfile.TemporaryFile() as stdout:
        stdin.write(
            "".join(json.dumps(envelope) + "\n" for envelope in envelopes).encode()
        )
        stdin.seek(0)
        loop = LoopServer(ReproServer(capacity=8))
        # The loop closes the fds it adopts; duplicates share the offsets.
        loop.add_stream(os.dup(stdin.fileno()), os.dup(stdout.fileno()))
        loop.serve()
        stdout.seek(0)
        return [json.loads(line) for line in stdout.read().splitlines()]


def reference_payloads(problem, policy):
    """What a direct in-process session answers for the protocol sweep."""
    session = PlacementSession(problem)
    solve = session.solve(policy=policy, on_error="none").to_dict()
    bound = session.bound().to_dict()
    compare = session.compare(bounds=False).to_dict()
    return solve, bound, compare


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_stdio_round_trip_bit_identical(kind, policy):
    problem = make_problem(31, kind)
    payload = problem_to_dict(problem)
    replies = run_stdio(
        [
            {"op": "solve", "problem": payload, "params": {"policy": policy}},
            {"op": "bound", "problem": payload},
            {"op": "compare", "problem": payload},
        ]
    )
    solve, bound, compare = reference_payloads(problem, policy)
    assert canonical(replies[0]) == canonical(solve)
    assert canonical(replies[1]) == canonical(bound)
    assert canonical(replies[2]) == canonical(compare)
    # replies decode into real result objects through the registry
    assert isinstance(result_from_dict(replies[0]), SolveResult)
    assert isinstance(result_from_dict(replies[1]), BoundResult)


@pytest.mark.parametrize("kind", KINDS)
def test_http_round_trip_bit_identical(http_endpoint, kind):
    problem = make_problem(32, kind)
    client = connect(http_endpoint)
    session = client.open(problem)
    solve = session.solve()
    bound = session.bound()
    compare = session.compare()
    reference = PlacementSession(problem)
    assert canonical(solve.to_dict()) == canonical(
        reference.solve(on_error="none").to_dict()
    )
    assert canonical(bound.to_dict()) == canonical(reference.bound().to_dict())
    assert canonical(compare.to_dict()) == canonical(
        reference.compare().to_dict()
    )
    assert isinstance(client.stats(), PoolStats)


def test_remote_update_sequence_matches_in_process(http_endpoint):
    """An epoch stream through HTTP equals the same stream on a session."""
    problem = make_problem(33, "counting")
    client = connect(http_endpoint)
    remote = client.open(problem)
    local = PlacementSession(problem)
    assert canonical(remote.solve().to_dict()) == canonical(
        local.solve(on_error="none").to_dict()
    )
    cids = problem.tree.client_ids
    for step, factor in ((0, 0.5), (1, 1.4), (2, 0.25)):
        cid = cids[step]
        new_rate = problem.tree.client(cid).requests * factor
        remote_result = remote.update(requests={cid: new_rate})
        local_result = local.update(requests={cid: new_rate})
        assert canonical(remote_result.to_dict()) == canonical(
            local_result.to_dict()
        )
        assert remote.fingerprint == problem_fingerprint(local.problem)
    # the remote simulate payload equals the local one
    assert canonical(remote.simulate()) == canonical(local.simulate().to_dict())


def test_remote_update_with_non_string_client_ids():
    """Integer ids survive the wire: rate maps travel in value position."""
    from repro.core.builder import TreeBuilder

    tree = (
        TreeBuilder()
        .add_node(0, capacity=10)
        .add_node(1, capacity=10, parent=0)
        .add_client(100, requests=6, parent=1)
        .add_client(101, requests=5, parent=0)
        .build()
    )
    problem = ReplicaPlacementProblem(tree=tree)
    server = ReproServer(capacity=2)
    remote = connect(server).open(problem)
    local = PlacementSession(problem)
    assert canonical(remote.solve().to_dict()) == canonical(
        local.solve(on_error="none").to_dict()
    )
    remote_step = remote.update(requests={100: 3.0})
    local_step = local.update(requests={100: 3.0})
    assert canonical(remote_step.to_dict()) == canonical(local_step.to_dict())
    assert remote.fingerprint == problem_fingerprint(local.problem)


def test_stdio_fingerprint_readdressing():
    """Fingerprint-only envelopes hit the resident session (no tree re-send)."""
    problem = make_problem(34, "counting")
    payload = problem_to_dict(problem)
    fingerprint = problem_fingerprint(problem)
    replies = run_stdio(
        [
            {"op": "solve", "problem": payload},
            {"op": "solve", "fingerprint": fingerprint},
            {"op": "stats"},
        ]
    )
    assert replies[0] == replies[1]
    stats = result_from_dict(replies[2])
    assert stats.hits == 1 and stats.misses == 1
    assert stats.solve_cache_hits == 1  # second solve came from the cache


# --------------------------------------------------------------------------- #
# error envelopes
# --------------------------------------------------------------------------- #
class TestErrorEnvelopes:
    def codes(self, envelopes):
        server = ReproServer(capacity=2)
        codes = []
        for envelope in envelopes:
            reply = json.loads(server.handle_line(json.dumps(envelope)))
            assert reply["type"] == "error", reply
            assert "message" in reply["error"]
            codes.append(reply["error"]["code"])
        return codes

    def test_malformed_envelopes_map_to_tagged_errors(self):
        problem_payload = problem_to_dict(make_problem(40, size=20))
        codes = self.codes(
            [
                [1, 2, 3],  # not an object
                {"op": "teleport"},  # unknown op
                {"op": "solve"},  # no problem, no fingerprint
                {"op": "solve", "fingerprint": "absent"},  # not resident
                {"op": "solve", "problem": {"bogus": True}},  # no tree inside
                {
                    "op": "solve",
                    "problem": {"tree": problem_payload["tree"], "constraints": "qos"},
                },  # mis-typed nested section
                {"op": "solve", "problem": problem_payload, "params": 7},
                {"op": "update", "problem": problem_payload, "params": {}},
                {
                    "op": "update",
                    "problem": problem_payload,
                    "params": {"requests": {}, "resolve": "sometimes"},
                },
                {
                    "op": "bound",
                    "problem": problem_payload,
                    "params": {"method": "bogus"},
                },
            ]
        )
        assert codes == [
            "bad_request",
            "bad_request",
            "bad_request",
            "unknown_fingerprint",
            "invalid",
            "bad_request",
            "bad_request",
            "bad_request",
            "bad_request",
            "invalid",
        ]

    @pytest.mark.parametrize(
        "field, named", [("requests", "request rate nan"), ("qos", "QoS bound nan")]
    )
    def test_nan_client_field_is_an_invalid_problem(self, field, named):
        # json.loads accepts a NaN literal; the tree columns must refuse it,
        # in the column layout and in the record layout.
        columns = problem_to_dict(make_problem(41, size=20))
        records = problem_records(columns)
        clients = columns["tree"]["clients"]
        clients.setdefault(field, [None] * len(clients["id"]))[0] = float("nan")
        records["tree"]["clients"][0][field] = float("nan")
        for payload in (columns, records):
            line = json.dumps({"op": "solve", "problem": payload})
            assert "NaN" in line
            reply = json.loads(ReproServer(capacity=2).handle_line(line))
            assert reply["type"] == "error", reply
            assert reply["error"]["code"] == "invalid"
            assert named in reply["error"]["message"]

    def test_non_json_line(self):
        server = ReproServer(capacity=2)
        reply = json.loads(server.handle_line("this is not json"))
        assert reply["type"] == "error"
        assert reply["error"]["code"] == "bad_request"

    def test_infeasible_solve_is_a_result_not_an_error(self, chain_tree):
        # total demand exceeds every single server: closest is infeasible
        problem = ReplicaPlacementProblem(tree=chain_tree)
        server = ReproServer(capacity=2)
        reply = server.handle(
            {
                "op": "solve",
                "problem": problem_to_dict(problem),
                "params": {"policy": "closest"},
            }
        )
        assert reply["type"] == "solve_result"
        assert reply["feasible"] is False

    def test_client_raises_serving_error(self):
        server = ReproServer(capacity=2)
        client = connect(server)
        session = client.open(make_problem(41, size=20))
        with pytest.raises(ServingError) as excinfo:
            session.bound(method="bogus")
        assert excinfo.value.code == "invalid"


# --------------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------------- #
class TestSnapshots:
    def warm_server(self, tmp_path, problem):
        server = ReproServer(capacity=4, snapshot_dir=tmp_path)
        client = connect(server)
        session = client.open(problem)
        solve = session.solve()
        bound = session.bound()
        cid = problem.tree.client_ids[0]
        session.update(requests={cid: problem.tree.client(cid).requests * 0.5})
        solve2 = session.solve()
        bound2 = session.bound()
        server.snapshot_all()
        return solve, bound, solve2, bound2, session.fingerprint

    def test_restore_preserves_warm_cache_behaviour(self, tmp_path):
        problem = make_problem(50, "counting")
        *_, solve2, bound2, fingerprint = self.warm_server(tmp_path, problem)

        reborn = ReproServer(capacity=4, snapshot_dir=tmp_path)
        assert reborn.restored == 1
        client = connect(reborn)
        # same-epoch queries answer bit-identically from the restored cache
        # (runtimes included: they are the *persisted* runtimes).
        reply_solve = client.request({"op": "solve", "fingerprint": fingerprint})
        reply_bound = client.request({"op": "bound", "fingerprint": fingerprint})
        assert canonical(reply_solve) == canonical(solve2.to_dict())
        assert canonical(reply_bound) == canonical(bound2.to_dict())
        stats = client.stats()
        assert stats.restored == 1
        assert stats.solve_cache_hits >= 1 and stats.bound_cache_hits >= 1

    def test_record_layout_snapshot_restores_the_same_session(self, tmp_path):
        """A snapshot whose problem is in the record layout (as the record
        writer left them) restores under the same fingerprint, with the same
        cached results."""
        problem = make_problem(54, "qos")
        *_, solve2, bound2, fingerprint = self.warm_server(tmp_path, problem)
        path = snapshot_path(tmp_path, fingerprint)
        snapshot = json.loads(path.read_text())
        state = snapshot["state"]
        assert isinstance(state["problem"]["tree"]["links"], dict)
        state["problem"] = problem_records(state["problem"])
        del snapshot["fingerprint"]  # the loader recomputes it from the problem
        path.write_text(json.dumps(snapshot))

        reborn = ReproServer(capacity=4, snapshot_dir=tmp_path)
        assert reborn.restored == 1
        client = connect(reborn)
        reply_solve = client.request({"op": "solve", "fingerprint": fingerprint})
        reply_bound = client.request({"op": "bound", "fingerprint": fingerprint})
        assert canonical(reply_solve) == canonical(solve2.to_dict())
        assert canonical(reply_bound) == canonical(bound2.to_dict())
        stats = client.stats()
        assert stats.solve_cache_hits >= 1 and stats.bound_cache_hits >= 1

    def test_restored_bound_patches_instead_of_rebuilding(self, tmp_path):
        """Acceptance criterion: next rate-only bound is 'patched' not 'built'."""
        problem = make_problem(51, "counting")
        self.warm_server(tmp_path, problem)

        pool = SessionPool(capacity=4)
        assert restore_pool(pool, tmp_path) == 1
        entry = pool.entries()[0]
        session = entry.session
        cid = problem.tree.client_ids[1]
        session.update(
            requests={cid: session.problem.tree.client(cid).requests + 2.0},
            resolve=False,
        )
        result = session.bound()
        assert result.stats.strategy == "patched"
        # and the patched bound equals a from-scratch bound on the same epoch
        scratch = PlacementSession(session.problem, mode="scratch").bound()
        assert result.value == scratch.value

    def test_snapshot_written_on_update_and_eviction(self, tmp_path):
        server = ReproServer(capacity=1, snapshot_dir=tmp_path)
        client = connect(server)
        first = make_problem(52, size=20)
        session = client.open(first)
        session.solve()
        cid = first.tree.client_ids[0]
        session.update(requests={cid: first.tree.client(cid).requests * 0.5})
        updated_fingerprint = session.fingerprint
        # updates snapshot eagerly
        assert snapshot_path(tmp_path, updated_fingerprint).exists()
        # a second tenant evicts the first, which flushes its final snapshot
        other = client.open(make_problem(53, size=20))
        other.solve()
        assert server.pool.stats().evictions == 1
        assert snapshot_path(tmp_path, updated_fingerprint).exists()

    def test_update_retires_superseded_snapshot(self, tmp_path):
        """A re-keyed tenant leaves exactly one snapshot, not a stale trail."""
        server = ReproServer(capacity=4, snapshot_dir=tmp_path)
        client = connect(server)
        problem = make_problem(55, size=20)
        session = client.open(problem)
        session.solve()
        cid = problem.tree.client_ids[0]
        for factor in (0.5, 0.75, 1.25):
            session.update(
                requests={cid: problem.tree.client(cid).requests * factor}
            )
        files = list(tmp_path.glob("*.session.json"))
        assert len(files) == 1
        assert files[0] == snapshot_path(tmp_path, session.fingerprint)
        reborn = ReproServer(capacity=4, snapshot_dir=tmp_path)
        assert reborn.restored == 1

    def test_corrupt_snapshots_are_skipped(self, tmp_path, capsys):
        problem = make_problem(54, size=20)
        pool = SessionPool(capacity=4)
        with pool.checkout(problem) as entry:
            entry.session.solve()
        save_pool(pool, tmp_path)
        (tmp_path / f"junk{'.session.json'}").write_text("{not json")
        fresh = SessionPool(capacity=4)
        assert restore_pool(fresh, tmp_path) == 1
        assert "warning" in capsys.readouterr().err

    def test_restore_decodes_only_capacity_newest(self, tmp_path):
        """Boot cost is bounded by the pool, not by the snapshot backlog."""
        import time as _time

        for seed in (56, 57, 58):
            pool = SessionPool(capacity=4)
            with pool.checkout(make_problem(seed, size=20)) as entry:
                entry.session.solve()
            save_pool(pool, tmp_path)
            _time.sleep(0.01)  # distinct mtimes: restore order is by age
        assert len(list(tmp_path.glob("*.session.json"))) == 3
        small = SessionPool(capacity=2)
        assert restore_pool(small, tmp_path) == 2
        resident = {
            entry["fingerprint"] for entry in small.stats().sessions
        }
        newest = {
            problem_fingerprint(make_problem(seed, size=20)) for seed in (57, 58)
        }
        assert resident == newest
        assert small.stats().evictions == 0  # nothing restored just to evict

    def test_non_string_type_tag_is_a_serialization_error(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"type": ["solve_result"]}))
        from repro.core.serialization import load_result

        with pytest.raises(SerializationError) as excinfo:
            load_result(path)
        assert "weird.json" in str(excinfo.value)

    def test_custom_constraints_refuse_serialisation(self, small_tree):
        class Custom(ConstraintSet):
            pass

        problem = ReplicaPlacementProblem(tree=small_tree, constraints=Custom())
        session = PlacementSession(problem)
        with pytest.raises(SerializationError):
            session.export_state()


# --------------------------------------------------------------------------- #
# client resilience
# --------------------------------------------------------------------------- #
def test_client_retries_after_eviction():
    server = ReproServer(capacity=1)
    client = connect(server)
    first = client.open(make_problem(60, size=20))
    baseline = first.solve()
    second = client.open(make_problem(61, size=20))
    second.solve()  # evicts the first tenant
    assert server.pool.stats().evictions == 1
    retried = first.solve()  # transparently re-sends the full problem
    assert canonical(retried.to_dict()) == canonical(baseline.to_dict())
    assert server.pool.stats().evictions == 2


def test_client_mirror_survives_update_then_eviction():
    server = ReproServer(capacity=1)
    client = connect(server)
    problem = make_problem(62, size=20)
    session = client.open(problem)
    session.solve()
    cid = problem.tree.client_ids[0]
    updated = session.update(
        requests={cid: problem.tree.client(cid).requests * 0.5}
    )
    other = client.open(make_problem(63, size=20))
    other.solve()  # evict the updated tenant
    resolved = session.solve()  # re-creates the session at the updated rates
    # The re-created session restarts at epoch 0, but serves the *updated*
    # problem: the client's local mirror kept the rates in step.
    assert resolved.cost == updated.cost
    assert (
        resolved.solution.placement.replicas
        == updated.solution.placement.replicas
    )


def test_remote_instance_update_keeps_open_coercions():
    """update(instance=tree) re-applies the constraints/kind from open()."""
    problem = make_problem(64, "qos")
    server = ReproServer(capacity=2)
    client = connect(server)
    remote = client.open(
        problem.tree, constraints=problem.constraints, kind=problem.kind
    )
    local = PlacementSession(
        problem.tree, constraints=problem.constraints, kind=problem.kind
    )
    assert canonical(remote.solve().to_dict()) == canonical(
        local.solve(on_error="none").to_dict()
    )
    cid = problem.tree.client_ids[0]
    next_tree = problem.tree.with_requests(
        {cid: problem.tree.client(cid).requests * 0.5}
    )
    remote_step = remote.update(next_tree)  # a bare tree, like local update
    local_step = local.update(next_tree)
    assert canonical(remote_step.to_dict()) == canonical(local_step.to_dict())
    # the resident problem still carries the QoS constraints
    assert remote.fingerprint == problem_fingerprint(local.problem)


def test_rekey_leaves_busy_same_content_session_alone():
    """Convergence onto a mid-op session never yanks it (no deadlock/loss)."""
    pool = SessionPool(capacity=4)
    base = make_problem(66, size=20)
    cid = base.tree.client_ids[0]
    bumped = ReplicaPlacementProblem(
        tree=base.tree.with_requests({cid: base.tree.client(cid).requests + 1}),
        kind=base.kind,
    )
    with pool.checkout(base) as busy:  # the base-content session is mid-op
        with pool.checkout(bumped) as entry:
            old_key = entry.fingerprint
            entry.session.update(
                requests={cid: base.tree.client(cid).requests}, resolve=False
            )
            new_key = pool.rekey(entry)
            # the busy session kept its key; ours stayed under the old one
            assert new_key == old_key == entry.fingerprint
        assert busy.fingerprint in pool.resident_fingerprints()
    assert len(pool) == 2
    assert pool.stats().evictions == 0


def test_rekey_displacement_counts_as_eviction():
    """Two tenants converging onto one problem content retire one session."""
    pool = SessionPool(capacity=4)
    base = make_problem(65, size=20)
    cid = base.tree.client_ids[0]
    bumped = ReplicaPlacementProblem(
        tree=base.tree.with_requests({cid: base.tree.client(cid).requests + 1}),
        kind=base.kind,
    )
    with pool.checkout(base):
        pass
    with pool.checkout(bumped) as entry:
        # morph the bumped tenant's epoch back onto the base content
        entry.session.update(
            requests={cid: base.tree.client(cid).requests}, resolve=False
        )
        pool.rekey(entry)
    assert len(pool) == 1
    stats = pool.stats()
    assert stats.evictions == 1
    assert stats.misses == stats.resident + stats.evictions


# --------------------------------------------------------------------------- #
# SLA-aware update
# --------------------------------------------------------------------------- #
class TestSlaAwareUpdate:
    def test_clean_replay_keeps_placement(self):
        problem = make_problem(70, "counting")
        session = PlacementSession(problem)
        before = session.solve()
        cid = problem.tree.client_ids[0]
        result = session.update(
            requests={cid: problem.tree.client(cid).requests * 0.5},
            resolve="on_saturation",
        )
        assert result.stats.strategy == "kept"
        assert result.solution.placement.replicas == before.solution.placement.replicas
        assert result.stats.replicas_added == 0
        assert result.stats.replicas_dropped == 0
        # the kept solution still validates on the new epoch
        from tests.conftest import assert_valid

        assert_valid(session.problem, result.solution, policy=session.policy)

    def test_violating_replay_resolves(self):
        """A surge past server capacity forces a real re-solve."""
        problem = make_problem(71, "counting")
        session = PlacementSession(problem)
        session.solve()
        surge = {
            cid: problem.tree.client(cid).requests * 3.0
            for cid in problem.tree.client_ids
        }
        result = session.update(requests=surge, resolve="on_saturation")
        assert result.stats.strategy != "kept"

    def test_unchanged_epoch_is_kept(self):
        problem = make_problem(72, "counting")
        session = PlacementSession(problem)
        session.solve()
        cid = problem.tree.client_ids[0]
        result = session.update(
            requests={cid: problem.tree.client(cid).requests},
            resolve="on_saturation",
        )
        assert result.stats.strategy == "kept"
        assert result.stats.requests_reassigned == 0

    def test_saturated_link_triggers_resolve(self):
        """A feasible replay that saturates a link still re-solves."""
        from repro.core.builder import TreeBuilder

        def build_problem():
            tree = (
                TreeBuilder()
                .add_node("root", capacity=20)
                .add_node("n1", capacity=20, parent="root")
                .add_client("c1", requests=6, parent="n1", bandwidth=10.0)
                .add_client("c2", requests=8, parent="root")
                .build()
            )
            return ReplicaPlacementProblem(
                tree=tree, constraints=ConstraintSet(enforce_bandwidth=True)
            )

        # c1's uplink carries its full rate whichever replica serves it;
        # bumping 6 -> 9.5 keeps the epoch feasible (9.5 <= bandwidth 10).
        lenient = PlacementSession(build_problem())
        lenient.solve()
        kept = lenient.update(requests={"c1": 9.5}, resolve="on_saturation")
        assert kept.stats.strategy == "kept"  # 95% < default threshold

        strict = PlacementSession(build_problem())
        strict.solve()
        resolved = strict.update(
            requests={"c1": 9.5},
            resolve="on_saturation",
            saturation_threshold=0.9,  # 95% utilisation is now an event
        )
        assert resolved.stats.strategy == "solved"
        assert resolved.feasible

    def test_bad_resolve_mode_rejected(self):
        problem = make_problem(73, size=20)
        session = PlacementSession(problem)
        with pytest.raises(ValueError):
            session.update(requests={}, resolve="sometimes")

    def test_falsy_resolve_values_skip_the_solve(self):
        """0 (and other bool-likes) keep the documented resolve=False path."""
        problem = make_problem(75, size=20)
        session = PlacementSession(problem)
        assert session.update(requests={}, resolve=0) is None
        assert session.stats.solves == 0
        assert session.update(requests={}, resolve=1) is not None

    def test_solve_sequence_resolve_mode(self):
        from repro.api import solve_sequence

        problem = make_problem(74, "counting")
        cid = problem.tree.client_ids[0]
        epochs = [problem]
        tree = problem.tree
        for factor in (0.9, 0.8, 0.7):
            tree = tree.with_requests({cid: problem.tree.client(cid).requests * factor})
            epochs.append(ReplicaPlacementProblem(tree=tree, kind=problem.kind))
        result = solve_sequence(epochs, resolve="on_saturation")
        counts = result.strategy_counts()
        assert counts.get("kept", 0) == 3 and counts.get("solved") == 1
        assert all(solution is not None for solution in result.solutions)
