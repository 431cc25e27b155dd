"""Serving-edge tests: batched envelopes, metrics, hardening, the loop server.

Covers this PR's acceptance criteria head on:

* **batch envelopes** -- order-matched replies bit-identical to the same
  ops sent one envelope at a time; per-item error envelopes that never
  poison neighbouring items; consecutive same-session items grouped under
  **one** pool checkout; implicit session inheritance across a trajectory
  (update re-keys mid-batch and the following items ride the new key);
  nesting rejected; snapshot upkeep after in-batch mutations;
* **metrics** -- per-op counters surface identically in the ``stats`` op
  and the ``GET /metrics`` Prometheus exposition (well-formed ``# HELP`` /
  ``# TYPE`` pairs, ``_total`` counters, trailing newline);
* **HTTP on the loop** -- ``GET /stats?format=json`` routes (query strings
  survive), hostile ``Content-Length`` values get 4xx replies instead of
  hanging the server, unknown methods a 501, one request per connection,
  an overlong head drops the connection, a client hanging up mid-reply
  costs one stderr line;
* **snapshot restore race** -- a snapshot unlinked between glob and stat
  is skipped, not fatal;
* **loop server** -- TCP and pipe peers served from one selectors thread,
  pipelined batches, EOF shutdown, slow-client eviction, regular-file and
  ``/dev/null`` stdin served in the loop (paced by the reader, never
  dropped), adopted fds handed back in their blocking mode;
* **``repro serve`` processes** -- SIGTERM snapshots the resident sessions
  and exits 0; at the fd limit the loop stops accepting instead of
  spinning, and accepts the waiting peers once a connection closes;
* **load harness** -- deterministic schedules, report round-trips, batched
  runs answering the same schedule as unbatched runs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.results import result_from_dict
from repro.core.serialization import problem_to_dict
from repro.serving import (
    LoadgenConfig,
    LoopServer,
    PoolStats,
    ReproServer,
    SessionPool,
    ServingError,
    connect,
    render_prometheus,
    run_loadtest,
)
from repro.serving.loadgen import build_schedule
from repro.serving.protocol import MAX_BATCH_ITEMS, handle_envelope
from repro.serving.snapshot import (
    SNAPSHOT_META,
    restore_pool,
    save_pool,
    snapshot_path,
)
from repro.session import PlacementSession, SolveResult
from repro.workloads.generator import GeneratorConfig, TreeGenerator


SRC = Path(__file__).resolve().parents[1] / "src"


def spawn_tcp_server(*args: str):
    """Start ``python *args`` (a ``repro serve --tcp`` process) on this
    checkout; returns it and the ``(host, port)`` it listens on."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    line = proc.stderr.readline()
    listening = re.match(r"loop-serving on tcp://([^\s:]+):(\d+)", line)
    if listening is None:
        proc.kill()
        raise AssertionError(line + proc.communicate(timeout=60)[1])
    return proc, (listening.group(1), int(listening.group(2)))


def cpu_seconds(pid: int) -> float:
    """utime + stime of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def make_problem(seed: int, *, size: int = 20) -> ReplicaPlacementProblem:
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(size=size, target_load=0.4)
    )
    return ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COUNTING)


def canonical(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Strip wall-clock noise and transport metadata (as test_serving does)."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "runtime"}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    stripped = strip(payload)
    stripped.pop("fingerprint", None)
    return stripped


def first_client_id(problem: ReplicaPlacementProblem) -> Any:
    return next(iter(problem.tree.clients())).id


# --------------------------------------------------------------------------- #
# batch envelopes
# --------------------------------------------------------------------------- #
class TestBatchEnvelope:
    def test_replies_order_matched_and_bit_identical(self):
        problem = make_problem(41)
        payload = problem_to_dict(problem)
        singles = ReproServer(SessionPool(4))
        one_by_one = [
            singles.handle({"op": "solve", "problem": payload}),
            singles.handle({"op": "bound", "problem": payload}),
            singles.handle({"op": "compare", "problem": payload}),
        ]
        batched = ReproServer(SessionPool(4)).handle(
            {
                "op": "batch",
                "requests": [
                    {"op": "solve", "problem": payload},
                    {"op": "bound", "problem": payload},
                    {"op": "compare", "problem": payload},
                ],
            }
        )
        assert batched["type"] == "batch_result"
        assert [canonical(r) for r in batched["results"]] == [
            canonical(r) for r in one_by_one
        ]

    def test_bad_item_never_poisons_the_batch(self):
        problem = make_problem(42)
        payload = problem_to_dict(problem)
        reply = ReproServer(SessionPool(4)).handle(
            {
                "op": "batch",
                "requests": [
                    {"op": "solve", "problem": payload},
                    {"op": "nonsense"},
                    {"op": "solve", "fingerprint": "not-resident"},
                    {"op": "bound", "problem": payload},
                    "not an object",
                ],
            }
        )
        kinds = [r.get("type") for r in reply["results"]]
        assert kinds == [
            "solve_result", "error", "error", "bound_result", "error"
        ]
        codes = [
            r["error"]["code"] for r in reply["results"] if r["type"] == "error"
        ]
        assert codes == ["bad_request", "unknown_fingerprint", "bad_request"]

    def test_consecutive_items_share_one_checkout(self):
        """The tentpole: a same-session run costs one pool checkout."""
        pool = SessionPool(4)
        payload = problem_to_dict(make_problem(43))
        reply = ReproServer(pool).handle(
            {
                "op": "batch",
                "requests": [{"op": "solve", "problem": payload}]
                + [{"op": "bound"}, {"op": "solve"}, {"op": "compare"}],
            }
        )
        assert all(r["type"] != "error" for r in reply["results"])
        stats = pool.stats()
        # One miss creates the session; grouped items never re-checkout.
        assert (stats.hits, stats.misses) == (0, 1)

    def test_trajectory_inherits_session_across_update(self):
        """update re-keys mid-batch; later unaddressed items follow it."""
        problem = make_problem(44)
        payload = problem_to_dict(problem)
        client = first_client_id(problem)
        server = ReproServer(SessionPool(4))
        reply = server.handle(
            {
                "op": "batch",
                "requests": [
                    {"op": "solve", "problem": payload},
                    {
                        "op": "update",
                        "params": {
                            "requests": [{"client": client, "rate": 7}]
                        },
                    },
                    {"op": "solve"},
                ],
            }
        )
        results = reply["results"]
        assert [r["type"] for r in results] == ["solve_result"] * 3
        assert results[0]["fingerprint"] != results[1]["fingerprint"]
        assert results[1]["fingerprint"] == results[2]["fingerprint"]
        # The batched trajectory equals the same trajectory on a session.
        local = PlacementSession(problem)
        assert canonical(results[0]) == canonical(
            local.solve(on_error="none").to_dict()
        )
        local.update(requests={client: 7.0})
        assert canonical(results[2]) == canonical(
            local.solve(on_error="none").to_dict()
        )

    def test_leading_unaddressed_item_is_bad_request(self):
        reply = ReproServer(SessionPool(2)).handle(
            {"op": "batch", "requests": [{"op": "solve"}]}
        )
        assert reply["results"][0]["error"]["code"] == "bad_request"

    def test_batches_do_not_nest(self):
        reply = ReproServer(SessionPool(2)).handle(
            {"op": "batch", "requests": [{"op": "batch", "requests": []}]}
        )
        item = reply["results"][0]
        assert item["error"]["code"] == "bad_request"
        assert "nest" in item["error"]["message"]

    def test_requests_shape_and_cap_enforced(self):
        server = ReproServer(SessionPool(2))
        bad = server.handle({"op": "batch", "requests": "nope"})
        assert bad["error"]["code"] == "bad_request"
        over = server.handle(
            {
                "op": "batch",
                "requests": [{"op": "stats"}] * (MAX_BATCH_ITEMS + 1),
            }
        )
        assert over["error"]["code"] == "bad_request"
        assert str(MAX_BATCH_ITEMS) in over["error"]["message"]
        empty = server.handle({"op": "batch", "requests": []})
        assert empty == {"type": "batch_result", "results": []}

    def test_batch_over_stdio_is_one_reply_line(self, tmp_path):
        payload = problem_to_dict(make_problem(45))
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps(
                {
                    "op": "batch",
                    "requests": [
                        {"op": "solve", "problem": payload},
                        {"op": "bound"},
                    ],
                }
            )
            + "\n"
        )
        replies = tmp_path / "replies.jsonl"
        loop = LoopServer(ReproServer(capacity=4))
        loop.add_stream(
            os.open(requests, os.O_RDONLY),
            os.open(replies, os.O_WRONLY | os.O_CREAT),
        )
        loop.serve()
        lines = replies.read_text().splitlines()
        assert len(lines) == 1
        reply = json.loads(lines[0])
        assert [r["type"] for r in reply["results"]] == [
            "solve_result",
            "bound_result",
        ]

    def test_in_batch_update_refreshes_snapshots(self, tmp_path):
        problem = make_problem(46)
        client = first_client_id(problem)
        server = ReproServer(SessionPool(4), snapshot_dir=tmp_path)
        reply = server.handle(
            {
                "op": "batch",
                "requests": [
                    {"op": "solve", "problem": problem_to_dict(problem)},
                    {
                        "op": "update",
                        "params": {
                            "requests": [{"client": client, "rate": 9}]
                        },
                    },
                ],
            }
        )
        old_key = reply["results"][0]["fingerprint"]
        new_key = reply["results"][1]["fingerprint"]
        assert new_key != old_key
        assert snapshot_path(tmp_path, new_key).exists()
        # The superseded snapshot is retired, not left to restore a stale
        # duplicate of this tenant on the next boot.
        assert not snapshot_path(tmp_path, old_key).exists()

    def test_mutations_collected_on_handled_request(self):
        pool = SessionPool(4)
        problem = make_problem(47)
        client = first_client_id(problem)
        handled = handle_envelope(
            pool,
            {
                "op": "batch",
                "requests": [
                    {"op": "solve", "problem": problem_to_dict(problem)},
                    {
                        "op": "update",
                        "params": {
                            "requests": [{"client": client, "rate": 3}]
                        },
                    },
                    {
                        "op": "update",
                        "params": {
                            "requests": [{"client": client, "rate": 4}]
                        },
                    },
                ],
            },
        )
        assert handled.mutated
        assert len(handled.mutations) == 2
        entries = {id(entry) for entry, _previous in handled.mutations}
        assert len(entries) == 1  # same session mutated twice

    def test_client_batch_returns_results_and_errors_in_place(self):
        problem = make_problem(48)
        client = connect(ReproServer(SessionPool(4)))
        results = client.batch(
            [
                {"op": "solve", "problem": problem_to_dict(problem)},
                {"op": "solve", "fingerprint": "missing"},
                {"op": "bound"},
            ]
        )
        assert isinstance(results[0], SolveResult)
        assert isinstance(results[1], ServingError)
        assert results[1].code == "unknown_fingerprint"
        # A failed switch releases the previous session (never hold two
        # session locks), so the next unaddressed item has nothing to
        # inherit and must re-address explicitly.
        assert isinstance(results[2], ServingError)
        assert results[2].code == "bad_request"
        with pytest.raises(ServingError):
            client.batch([{"op": "stats"}] * (MAX_BATCH_ITEMS + 1))


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_observe_op_aggregates(self):
        pool = SessionPool(2)
        pool.observe_op("solve", 0.25)
        pool.observe_op("solve", 0.75, error=True)
        pool.observe_op("stats", 0.1)
        ops = pool.stats().ops
        assert ops["solve"]["count"] == 2
        assert ops["solve"]["errors"] == 1
        assert ops["solve"]["seconds_total"] == pytest.approx(1.0)
        assert ops["solve"]["seconds_max"] == pytest.approx(0.75)
        assert ops["stats"]["count"] == 1
        assert "envelopes served" in pool.stats().describe()

    def test_every_envelope_and_batch_item_is_counted(self):
        server = ReproServer(SessionPool(4))
        payload = problem_to_dict(make_problem(51))
        server.handle({"op": "solve", "problem": payload})
        server.handle(
            {
                "op": "batch",
                "requests": [
                    {"op": "solve", "problem": payload},
                    {"op": "bound"},
                    {"op": "wat"},
                ],
            }
        )
        server.handle([1, 2, 3])  # not even an object
        ops = server.pool.stats().ops
        assert ops["solve"]["count"] == 2
        assert ops["bound"]["count"] == 1
        assert ops["batch"]["count"] == 1
        assert ops["_unknown"] == {
            "count": 1,
            "errors": 1,
            "seconds_total": ops["_unknown"]["seconds_total"],
            "seconds_max": ops["_unknown"]["seconds_max"],
        }
        assert ops["_invalid"]["errors"] == 1

    def test_pool_stats_ops_round_trip(self):
        pool = SessionPool(2)
        pool.observe_op("solve", 0.5)
        stats = pool.stats()
        rebuilt = result_from_dict(stats.to_dict())
        assert isinstance(rebuilt, PoolStats)
        assert rebuilt.ops == stats.ops

    def test_render_prometheus_well_formed(self):
        server = ReproServer(SessionPool(4))
        server.handle({"op": "solve", "problem": problem_to_dict(make_problem(52))})
        stats = server.pool.stats()
        text = render_prometheus(stats)
        assert text.endswith("\n")
        lines = text.splitlines()
        # Every sample line's metric carries a preceding HELP and TYPE.
        declared = set()
        for line in lines:
            if line.startswith("# HELP "):
                declared.add(line.split()[2])
            elif line.startswith("# TYPE "):
                assert line.split()[2] in declared
            else:
                name = line.split("{")[0].split()[0]
                assert name in declared
        # Counters end in _total (except explicitly-gauge seconds_max).
        assert 'repro_requests_total{op="solve"} 1' in text
        assert f"repro_pool_misses_total {stats.misses}" in lines
        assert f"repro_solves_total {stats.solves}" in lines

    def test_metrics_and_stats_op_agree(self):
        server = ReproServer(SessionPool(4))
        payload = problem_to_dict(make_problem(53))
        server.handle({"op": "solve", "problem": payload})
        server.handle({"op": "bound", "problem": payload})
        stats_reply = server.handle({"op": "stats"})
        text = render_prometheus(server.pool.stats())
        for op in ("solve", "bound"):
            exposed = f'repro_requests_total{{op="{op}"}} '
            sample = next(
                line for line in text.splitlines() if line.startswith(exposed)
            )
            assert int(sample.split()[-1]) == stats_reply["ops"][op]["count"]
        assert f"repro_solves_total {stats_reply['solves']}" in text

    def test_label_escaping(self):
        pool = SessionPool(2)
        # _op_label bounds real traffic to known labels; render defensively
        # escapes anyway (observe_op is a public method).
        pool.observe_op('we"ird\\op\n', 0.1)
        text = render_prometheus(pool.stats())
        assert 'op="we\\"ird\\\\op\\n"' in text


# --------------------------------------------------------------------------- #
# HTTP hardening
# --------------------------------------------------------------------------- #
@pytest.fixture()
def http_server():
    server = ReproServer(SessionPool(4))
    loop = LoopServer(server)
    host, port = loop.listen("127.0.0.1", 0, http=True)
    thread = threading.Thread(target=loop.serve, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", server
    finally:
        loop.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestHttpHardening:
    def test_stats_with_query_string_routes(self, http_server):
        url, _server = http_server
        with urllib.request.urlopen(f"{url}/stats?format=json&probe=1") as rsp:
            assert rsp.status == 200
            assert json.loads(rsp.read())["type"] == "pool_stats"
        with urllib.request.urlopen(f"{url}/?x=1") as rsp:
            assert json.loads(rsp.read())["type"] == "pool_stats"

    def test_unknown_path_is_404(self, http_server):
        url, _server = http_server
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{url}/nope")
        assert caught.value.code == 404

    def test_metrics_endpoint_scrapes(self, http_server):
        url, server = http_server
        server.handle(
            {"op": "solve", "problem": problem_to_dict(make_problem(61))}
        )
        with urllib.request.urlopen(f"{url}/metrics") as rsp:
            assert rsp.status == 200
            assert rsp.headers["Content-Type"].startswith("text/plain")
            body = rsp.read().decode()
        assert body == render_prometheus(server.pool.stats())
        assert 'repro_requests_total{op="solve"} 1' in body

    def _raw_request(self, url: str, head: str, body: bytes = b"") -> bytes:
        host, port = url[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(head.encode() + body)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_negative_content_length_is_400_not_a_hang(self, http_server):
        url, _server = http_server
        raw = self._raw_request(
            url,
            "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        )
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"negative Content-Length" in raw
        # The worker survived: the endpoint still answers.
        with urllib.request.urlopen(f"{url}/stats") as rsp:
            assert rsp.status == 200

    def test_non_numeric_content_length_is_400(self, http_server):
        url, _server = http_server
        raw = self._raw_request(
            url,
            "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
        )
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"malformed Content-Length" in raw

    def test_missing_content_length_is_411(self, http_server):
        url, _server = http_server
        raw = self._raw_request(url, "POST / HTTP/1.1\r\nHost: x\r\n\r\n")
        assert b"411" in raw.split(b"\r\n", 1)[0]

    def test_oversized_content_length_is_413(self, http_server):
        url, _server = http_server
        raw = self._raw_request(
            url,
            "POST / HTTP/1.1\r\nHost: x\r\n"
            "Content-Length: 99999999999\r\n\r\n",
        )
        assert b"413" in raw.split(b"\r\n", 1)[0]
        assert b"-byte cap" in raw

    def test_unknown_method_is_501(self, http_server):
        url, _server = http_server
        raw = self._raw_request(url, "DELETE / HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"501" in head.split(b"\r\n", 1)[0]
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_one_request_per_connection(self, http_server):
        """A pipelined second request gets no answer; the connection closes."""
        url, _server = http_server
        request = "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        raw = self._raw_request(url, request + request)
        assert raw.startswith(b"HTTP/1.0 200 ")
        assert raw.count(b"HTTP/1.0") == 1
        head, _, body = raw.partition(b"\r\n\r\n")
        assert json.loads(body)["type"] == "pool_stats"
        assert f"Content-Length: {len(body)}".encode() in head

    def test_overlong_head_drops_the_connection(self, http_server, capsys):
        url, _server = http_server
        host, port = url[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            try:
                sock.sendall(b"GET /" + b"x" * 70000)
                reply = sock.recv(65536)
            except (BrokenPipeError, ConnectionResetError):
                reply = b""
        assert reply == b""  # dropped: no status line
        with urllib.request.urlopen(f"{url}/stats") as rsp:
            assert rsp.status == 200
        assert "request head exceeds 65536 bytes" in capsys.readouterr().err

    def test_disconnect_mid_reply_is_one_log_line(
        self, http_server, capsys, monkeypatch
    ):
        """A peer gone before its reply costs one stderr line, no traceback,
        and the next request is served."""
        url, server = http_server
        host, port = url[len("http://"):].split(":")
        reset = threading.Event()
        handle = server.handle

        def handle_after_reset(envelope):
            reset.wait(10)  # the reply is written to a peer that reset
            return handle(envelope)

        monkeypatch.setattr(server, "handle", handle_after_reset)
        body = b'{"op": "stats"}'
        sock = socket.create_connection((host, int(port)), timeout=10)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(
            f"POST / HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
        )
        sock.close()  # linger 0: the close is a reset
        reset.set()
        err = ""
        deadline = time.monotonic() + 30
        while "loopserver: dropping" not in err and time.monotonic() < deadline:
            time.sleep(0.05)
            err += capsys.readouterr().err
        with urllib.request.urlopen(f"{url}/stats") as rsp:
            assert rsp.status == 200
        err += capsys.readouterr().err
        dropped = [line for line in err.splitlines() if "loopserver: dropping" in line]
        assert len(dropped) == 1, err
        assert "Traceback" not in err

    def test_access_line_per_request(self, http_server, capsys):
        url, _server = http_server
        with urllib.request.urlopen(f"{url}/stats?x=1") as rsp:
            rsp.read()
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{url}/nope")
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" - ", 1)[1] for line in lines] == [
            '"GET /stats?x=1 HTTP/1.1" 200',
            '"GET /nope HTTP/1.1" 404',
        ]

    def test_deeply_nested_body_is_400_and_the_server_lives(self, http_server):
        url, _server = http_server
        body = b"[" * 100000  # json.loads raises RecursionError, not ValueError
        raw = self._raw_request(
            url, f"POST / HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n", body
        )
        head, _, reply = raw.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert json.loads(reply)["error"]["code"] == "bad_request"
        with urllib.request.urlopen(f"{url}/stats") as rsp:
            assert rsp.status == 200

    def test_idle_connections_are_dropped(self, http_server, capsys, monkeypatch):
        """Peers that stall -- before a byte, or mid-head -- lose their
        connection at the idle deadline; the next request is served."""
        monkeypatch.setattr("repro.serving.loopserver._HTTP_IDLE_SECONDS", 0.5)
        url, _server = http_server
        host, port = url[len("http://"):].split(":")
        silent = socket.create_connection((host, int(port)), timeout=10)
        stalled = socket.create_connection((host, int(port)), timeout=10)
        try:
            stalled.sendall(b"GET /stats HTTP/1.1\r\n")  # the head never ends
            started = time.monotonic()
            assert stalled.recv(65536) == b""  # closed without a reply
            assert time.monotonic() - started >= 0.4
            assert silent.recv(65536) == b""
        finally:
            silent.close()
            stalled.close()
        with urllib.request.urlopen(f"{url}/stats") as rsp:
            assert rsp.status == 200
        err = capsys.readouterr().err
        assert err.count("idle for 0.5 s") == 2, err

    def test_handler_error_drops_one_peer_not_the_server(
        self, http_server, capsys, monkeypatch
    ):
        url, server = http_server
        handle = server.handle
        failures = []

        def fail_once(envelope):
            if not failures:
                failures.append(envelope)
                raise RuntimeError("handler bug")
            return handle(envelope)

        monkeypatch.setattr(server, "handle", fail_once)
        body = b'{"op": "stats"}'
        raw = self._raw_request(
            url, f"POST / HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n", body
        )
        assert raw == b""  # dropped, no reply
        with urllib.request.urlopen(f"{url}/stats") as rsp:
            assert rsp.status == 200
        err = capsys.readouterr().err
        assert "RuntimeError: handler bug" in err
        assert err.count("loopserver: dropping") == 1


# --------------------------------------------------------------------------- #
# snapshot restore race
# --------------------------------------------------------------------------- #
class TestRestoreRace:
    def test_vanished_snapshot_is_skipped(self, tmp_path, monkeypatch, capsys):
        pool = SessionPool(4)
        server = ReproServer(pool)
        for seed in (71, 72):
            server.handle(
                {"op": "solve", "problem": problem_to_dict(make_problem(seed))}
            )
        save_pool(pool, tmp_path)
        files = sorted(tmp_path.glob("*.session.json"))
        assert len(files) == 2
        victim = files[0]

        real_stat = Path.stat

        def racing_stat(self, *args, **kwargs):
            if self.name == victim.name:
                # Simulate another process retiring the file between the
                # directory glob and this stat call.
                raise FileNotFoundError(str(self))
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        fresh = SessionPool(4)
        assert restore_pool(fresh, tmp_path) == 1
        assert len(fresh) == 1


# --------------------------------------------------------------------------- #
# the selectors loop server
# --------------------------------------------------------------------------- #
class TestLoopServer:
    def _serve_in_thread(self, loop: LoopServer) -> threading.Thread:
        thread = threading.Thread(target=loop.serve, daemon=True)
        thread.start()
        return thread

    def test_tcp_round_trip_and_pipelined_batch(self):
        payload = problem_to_dict(make_problem(81))
        loop = LoopServer(ReproServer(SessionPool(4)))
        host, port = loop.listen()
        thread = self._serve_in_thread(loop)
        try:
            client = connect(f"tcp://{host}:{port}")
            results = client.batch(
                [
                    {"op": "solve", "problem": payload},
                    {"op": "bound"},
                ]
            )
            assert isinstance(results[0], SolveResult)
            stats = client.stats()
            assert stats.ops["batch"]["count"] == 1
            assert stats.ops["solve"]["count"] == 1
            client.transport.close()
        finally:
            loop.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_two_sockets_one_thread(self):
        loop = LoopServer(ReproServer(SessionPool(4)))
        host, port = loop.listen()
        thread = self._serve_in_thread(loop)
        try:
            first = connect(f"tcp://{host}:{port}")
            second = connect(f"tcp://{host}:{port}")
            assert isinstance(first.stats(), PoolStats)
            assert isinstance(second.stats(), PoolStats)
            # A stats reply is snapshotted before its own observe_op lands,
            # so the third call reports the two requests before it.
            assert second.stats().ops["stats"]["count"] == 2
        finally:
            loop.shutdown()
            thread.join(timeout=10)

    def test_pipe_peer_eof_stops_the_loop(self):
        read_in, write_in = os.pipe()
        read_out, write_out = os.pipe()
        loop = LoopServer(ReproServer(SessionPool(2)))
        loop.add_stream(read_in, write_out)
        thread = self._serve_in_thread(loop)
        os.write(write_in, b'{"op": "stats"}\n')
        with os.fdopen(read_out) as replies:
            assert json.loads(replies.readline())["type"] == "pool_stats"
            os.close(write_in)  # EOF: the loop should wind down on its own
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_malformed_lines_still_get_replies_in_order(self):
        read_in, write_in = os.pipe()
        read_out, write_out = os.pipe()
        loop = LoopServer(ReproServer(SessionPool(2)))
        loop.add_stream(read_in, write_out)
        thread = self._serve_in_thread(loop)
        os.write(write_in, b'not json\n\n{"op": "stats"}\n\xff\xfe\n')
        os.close(write_in)
        with os.fdopen(read_out) as replies:
            lines = [json.loads(line) for line in replies]
        thread.join(timeout=10)
        assert lines[0]["error"]["code"] == "bad_request"
        assert lines[1]["type"] == "pool_stats"
        assert "not UTF-8" in lines[2]["error"]["message"]
        assert len(lines) == 3  # the blank line is ignored, order holds

    def test_slow_client_is_dropped_not_waited_on(self, capsys):
        read_in, write_in = os.pipe()
        read_out, write_out = os.pipe()
        loop = LoopServer(ReproServer(SessionPool(2)), max_buffer=8192)
        loop.add_stream(read_in, write_out)
        thread = self._serve_in_thread(loop)
        # Never read from read_out: once the pipe and the 8 KiB buffer cap
        # fill, the loop must evict this peer instead of blocking.
        request = b'{"op": "stats"}\n'
        for _ in range(2000):
            try:
                os.write(write_in, request)
            except BrokenPipeError:
                break  # loop already dropped us and closed the pipe
        os.close(write_in)
        thread.join(timeout=30)
        assert not thread.is_alive()
        os.close(read_out)
        assert "slow client" in capsys.readouterr().err

    def test_regular_file_stdin_is_served_in_the_loop(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"op": "stats"}\nnot json\n{"op": "stats"}')
        read_out, write_out = os.pipe()
        loop = LoopServer(ReproServer(SessionPool(2)))
        loop.add_stream(os.open(path, os.O_RDONLY), write_out)
        thread = self._serve_in_thread(loop)
        with os.fdopen(read_out) as replies:
            lines = [json.loads(line) for line in replies]
        thread.join(timeout=10)
        assert not thread.is_alive()
        # the final line has no newline and is answered all the same
        assert [line["type"] for line in lines] == ["pool_stats", "error", "pool_stats"]

    def test_devnull_stdin_ends_without_output(self, tmp_path):
        replies = tmp_path / "replies.jsonl"
        loop = LoopServer(ReproServer(SessionPool(2)))
        loop.add_stream(
            os.open(os.devnull, os.O_RDONLY),
            os.open(replies, os.O_WRONLY | os.O_CREAT),
        )
        assert loop.serve() == 0
        assert replies.read_bytes() == b""

    def test_file_stdin_is_paced_by_its_reader_not_dropped(self, tmp_path, capsys):
        lines = 10000  # several read chunks
        path = tmp_path / "requests.jsonl"
        path.write_text('{"op": "stats"}\n' * lines)
        read_out, write_out = os.pipe()
        stdin = os.open(path, os.O_RDONLY)
        kept = os.dup(stdin)  # shares the loop's file offset
        # A buffer cap far below the replies: a pipe peer this slow would
        # be dropped, a file peer waits for its reader instead.
        loop = LoopServer(ReproServer(SessionPool(2)), max_buffer=8192)
        loop.add_stream(stdin, write_out)
        thread = self._serve_in_thread(loop)
        time.sleep(1.0)  # leave the replies unread while the loop runs
        offset = os.lseek(kept, 0, os.SEEK_CUR)
        os.close(kept)
        assert offset < path.stat().st_size  # no reading ahead of the reader
        with os.fdopen(read_out) as replies:
            served = [json.loads(line)["type"] for line in replies]
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert served == ["pool_stats"] * lines
        assert "dropping" not in capsys.readouterr().err

    def test_adopted_fds_get_their_blocking_mode_back(self):
        read_in, write_in = os.pipe()
        read_out, write_out = os.pipe()
        # Duplicates share the open file description, and with it the
        # O_NONBLOCK flag, as a shell's terminal shares it with the server.
        kept_in, kept_out = os.dup(read_in), os.dup(write_out)
        try:
            loop = LoopServer(ReproServer(SessionPool(2)))
            loop.add_stream(read_in, write_out)
            assert not os.get_blocking(kept_in)
            os.write(write_in, b'{"op": "stats"}\n')
            os.close(write_in)
            assert loop.serve() == 0
            assert os.get_blocking(kept_in)
            assert os.get_blocking(kept_out)
            assert json.loads(os.read(read_out, 65536))["type"] == "pool_stats"
        finally:
            for fd in (kept_in, kept_out, read_out):
                os.close(fd)

    def test_reply_to_a_closed_pipe_is_one_log_line(self, capsys):
        """A stream peer whose reader is gone costs one line; the loop's
        other peers are still served."""
        read_in, write_in = os.pipe()
        read_out, write_out = os.pipe()
        os.close(read_out)  # nobody will read the replies
        loop = LoopServer(ReproServer(SessionPool(2)))
        host, port = loop.listen()
        loop.add_stream(read_in, write_out)
        thread = self._serve_in_thread(loop)
        try:
            os.write(write_in, b'{"op": "stats"}\n')
            os.close(write_in)
            client = connect(f"tcp://{host}:{port}")
            assert isinstance(client.stats(), PoolStats)
            client.transport.close()
        finally:
            loop.shutdown()
            thread.join(timeout=10)
        err = capsys.readouterr().err
        assert "loopserver: dropping stdio: client disconnected mid-reply" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_deeply_nested_line_gets_an_error_reply(self):
        """A line nested past the JSON decoder's depth is a bad request on
        the same connection, as a malformed line is."""
        loop = LoopServer(ReproServer(SessionPool(2)))
        host, port = loop.listen()
        thread = self._serve_in_thread(loop)
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"[" * 100000 + b'\n{"op": "stats"}\n')
                replies = sock.makefile("rb")
                first = json.loads(replies.readline())
                second = json.loads(replies.readline())
                replies.close()
        finally:
            loop.shutdown()
            thread.join(timeout=10)
        assert first["error"]["code"] == "bad_request"
        assert "request is not JSON" in first["error"]["message"]
        assert second["type"] == "pool_stats"

    def test_sigterm_snapshots_resident_sessions_and_exits_zero(self, tmp_path):
        """Supervisors stop servers with SIGTERM: it must run the same
        shutdown path as SIGINT, final snapshot included."""
        directory = tmp_path / "snapshots"
        proc, (host, port) = spawn_tcp_server(
            "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
            "--snapshot-dir", str(directory),
        )
        try:
            client = connect(f"tcp://{host}:{port}")
            session = client.open(make_problem(83))
            assert session.solve().feasible  # read-only: no snapshot yet
            client.transport.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            err = proc.communicate(timeout=60)[1]
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        assert sorted(path.name for path in directory.iterdir()) == sorted(
            [SNAPSHOT_META, snapshot_path(directory, session.fingerprint).name]
        )

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_fd_limit_pauses_accepts_instead_of_spinning(self):
        """Out of fds, the listener stays readable while accept() fails; a
        loop that keeps watching it burns a CPU until a peer leaves."""
        proc, address = spawn_tcp_server(
            "-c",
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))\n"
            "from repro.cli import main\n"
            "sys.exit(main(['serve', '--tcp', '127.0.0.1:0']))\n",
        )
        # 48 fds cannot hold 60 peers: the ones past the limit wait in the
        # listen backlog, the last 10 of them with a request already sent.
        peers = [socket.create_connection(address, timeout=10) for _ in range(60)]
        try:
            peers[0].sendall(b'{"op": "stats"}\n')
            assert json.loads(peers[0].makefile().readline())["type"] == "pool_stats"
            for peer in peers[-10:]:
                peer.sendall(b'{"op": "stats"}\n')
            time.sleep(0.5)
            before = cpu_seconds(proc.pid)
            time.sleep(2.0)
            assert cpu_seconds(proc.pid) - before < 0.3
            for peer in peers[:20]:
                peer.close()
            deadline = time.monotonic() + 5.0
            for peer in peers[-10:]:
                peer.settimeout(max(deadline - time.monotonic(), 0.01))
                assert json.loads(peer.makefile().readline())["type"] == "pool_stats"
        finally:
            for peer in peers:
                peer.close()
            proc.send_signal(signal.SIGTERM)
            err = proc.communicate(timeout=60)[1]
        assert proc.returncode == 0, err


# --------------------------------------------------------------------------- #
# the load harness
# --------------------------------------------------------------------------- #
class TestLoadgen:
    CONFIG = dict(tenants=2, size=15, horizon=0.4, rate=30.0, seed=5)

    def test_schedule_is_deterministic(self):
        config = LoadgenConfig(**self.CONFIG)
        first = build_schedule(config)
        second = build_schedule(config)
        assert (first[0] == second[0]).all()
        assert (first[1] == second[1]).all()
        assert len(first[2]) == config.tenants

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(tenants=0)
        with pytest.raises(ValueError):
            LoadgenConfig(rate=0.0)
        with pytest.raises(ValueError):
            LoadgenConfig(batch=0)
        with pytest.raises(ValueError):
            LoadgenConfig(ops=("solve", "teleport"))

    @pytest.mark.parametrize("batch", [1, 8])
    def test_run_serves_the_whole_schedule(self, batch):
        config = LoadgenConfig(batch=batch, **self.CONFIG)
        report = run_loadtest(ReproServer(SessionPool(4)), config)
        assert report.served == report.scheduled > 0
        assert report.errors == 0
        assert report.requests_per_sec > 0
        assert set(report.latency) == {"p50", "p95", "p99", "max"}
        assert report.latency["p50"] <= report.latency["p99"]
        assert report.op_counts["solve"] + report.op_counts["bound"] == (
            report.served
        )
        if batch > 1:
            assert report.envelopes <= report.served
        rebuilt = result_from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert "req/s" in report.describe()

    def test_update_ops_drive_epoch_trajectories(self):
        config = LoadgenConfig(
            ops=("solve", "update"), batch=4, **self.CONFIG
        )
        server = ReproServer(SessionPool(4))
        report = run_loadtest(server, config)
        assert report.errors == 0
        assert server.pool.stats().epochs == report.op_counts.get("update", 0)
