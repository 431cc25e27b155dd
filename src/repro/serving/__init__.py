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

The package's public names resolve on first use: importing it loads none
of those modules, and ``from repro.serving import connect`` loads the
client stack alone.  So a ``repro serve`` process, which answers stdio,
TCP and HTTP peers from the loop server, pool and protocol modules, never
loads the client, the load generator or their HTTP and TLS dependencies.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.serving.client": (
            "RemoteSession",
            "ServingClient",
            "ServingError",
            "TcpTransport",
            "connect",
        ),
        "repro.serving.fingerprint": ("problem_fingerprint", "tree_fingerprint"),
        "repro.serving.loadgen": ("LoadgenConfig", "LoadtestReport", "run_loadtest"),
        "repro.serving.loopserver": ("LoopServer",),
        "repro.serving.metrics": ("render_prometheus",),
        "repro.serving.pool": (
            "PooledSession",
            "PoolStats",
            "SessionPool",
            "UnknownSessionError",
        ),
        "repro.serving.protocol": (
            "MAX_BATCH_ITEMS",
            "OPS",
            "ProtocolError",
            "error_envelope",
            "handle_envelope",
        ),
        "repro.serving.server": ("ReproServer",),
        "repro.serving.snapshot": ("restore_pool", "save_pool", "save_session"),
    },
)

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
