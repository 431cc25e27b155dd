"""Multi-tenant serving layer over resident placement sessions.

The ROADMAP's serving milestone: turn the session API into a long-running
service.  The layers, each usable on its own:

* :mod:`repro.serving.fingerprint` -- stable content hashes of problems,
  so equivalent requests share one resident session;
* :mod:`repro.serving.pool` -- :class:`SessionPool`, a thread-safe,
  fingerprint-keyed LRU of :class:`~repro.session.PlacementSession`\\ s
  with byte budgets, eviction hooks, per-op request metrics and
  :class:`PoolStats` aggregation;
* :mod:`repro.serving.protocol` / :mod:`repro.serving.server` -- the JSON
  request envelopes (including batched envelopes that group same-session
  items under one checkout) and :class:`ReproServer`, which answers them
  from a pool with snapshot upkeep;
* :mod:`repro.serving.loopserver` -- :class:`LoopServer`, the one
  transport behind ``repro serve``: a single-threaded ``selectors`` event
  loop serving the protocol over stdio (any stdin), TCP and HTTP without
  ever blocking on a slow client;
* :mod:`repro.serving.metrics` -- :func:`render_prometheus`, the
  ``GET /metrics`` text exposition of :class:`PoolStats`;
* :mod:`repro.serving.snapshot` -- cross-restart persistence of resident
  sessions (warm boots via ``repro serve --snapshot-dir``);
* :mod:`repro.serving.client` -- :func:`connect`, returning a session-like
  proxy that decodes replies back into the standard result objects;
* :mod:`repro.serving.loadgen` -- the open-loop inhomogeneous-Poisson load
  harness behind ``repro loadtest`` and the serving throughput benchmark.
"""

from repro.serving.client import (
    RemoteSession,
    ServingClient,
    ServingError,
    TcpTransport,
    connect,
)
from repro.serving.fingerprint import problem_fingerprint, tree_fingerprint
from repro.serving.loadgen import LoadgenConfig, LoadtestReport, run_loadtest
from repro.serving.loopserver import LoopServer
from repro.serving.metrics import render_prometheus
from repro.serving.pool import (
    PooledSession,
    PoolStats,
    SessionPool,
    UnknownSessionError,
)
from repro.serving.protocol import (
    MAX_BATCH_ITEMS,
    OPS,
    ProtocolError,
    error_envelope,
    handle_envelope,
)
from repro.serving.server import ReproServer
from repro.serving.snapshot import restore_pool, save_pool, save_session

__all__ = [
    "problem_fingerprint",
    "tree_fingerprint",
    "SessionPool",
    "PooledSession",
    "PoolStats",
    "UnknownSessionError",
    "OPS",
    "MAX_BATCH_ITEMS",
    "ProtocolError",
    "error_envelope",
    "handle_envelope",
    "ReproServer",
    "LoopServer",
    "render_prometheus",
    "save_session",
    "save_pool",
    "restore_pool",
    "connect",
    "ServingClient",
    "RemoteSession",
    "ServingError",
    "TcpTransport",
    "LoadgenConfig",
    "LoadtestReport",
    "run_loadtest",
]
