"""The request handler behind every ``repro serve`` transport.

:class:`ReproServer` binds a :class:`~repro.serving.pool.SessionPool` to a
snapshot directory and answers :mod:`repro.serving.protocol` envelopes
through one ``handle()`` call (``handle_line()`` for a newline-delimited
JSON request line).  The transports -- stdio, TCP and HTTP -- all live in
the single-threaded event loop of :mod:`repro.serving.loopserver`.

With a snapshot directory configured, the server restores warm sessions on
construction and re-persists a session after every mutating op (epoch
updates) and on eviction and shutdown -- see :mod:`repro.serving.snapshot`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.serving.pool import PooledSession, SessionPool
from repro.serving.protocol import error_envelope, handle_envelope
from repro.serving.snapshot import restore_pool, save_pool, save_session

__all__ = ["ReproServer"]


class ReproServer:
    """A session pool plus snapshot policy behind one ``handle()`` call.

    Parameters
    ----------
    pool:
        The session pool to serve from; built from ``capacity`` /
        ``max_bytes`` / ``mode`` when omitted.
    snapshot_dir:
        Optional persistence directory.  When given, decodable snapshots
        restore into the pool immediately (warm boot), every mutating op
        re-persists its session, and evicted sessions flush a final
        snapshot before leaving memory.
    snapshot_retain:
        Optional retention window in restarts: snapshot files of tenants
        not seen (restored or re-persisted) for this many server restarts
        are deleted at boot and on :meth:`snapshot_all` (see
        :mod:`repro.serving.snapshot`).  ``None`` keeps every file
        forever.
    """

    def __init__(
        self,
        pool: Optional[SessionPool] = None,
        *,
        capacity: int = 8,
        max_bytes: Optional[int] = None,
        mode: str = "incremental",
        snapshot_dir: Optional[Union[str, Path]] = None,
        snapshot_retain: Optional[int] = None,
    ) -> None:
        if snapshot_retain is not None and snapshot_retain < 1:
            raise ValueError(
                f"snapshot_retain must be >= 1 restarts, got {snapshot_retain}"
            )
        self.pool = pool if pool is not None else SessionPool(
            capacity, max_bytes=max_bytes, mode=mode
        )
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self.snapshot_retain = snapshot_retain
        self.restored = 0
        if self.snapshot_dir is not None:
            self.restored = restore_pool(
                self.pool, self.snapshot_dir, retain_restarts=snapshot_retain
            )
            self.pool.add_evict_hook(self._snapshot_evicted)

    # ------------------------------------------------------------------ #
    # snapshot plumbing
    # ------------------------------------------------------------------ #
    def _snapshot_evicted(self, entry: PooledSession) -> None:
        """Eviction hook: flush a leaving session's final snapshot."""
        with entry.lock:
            self._snapshot_entry(entry)

    def _snapshot_entry(self, entry: PooledSession) -> None:
        if self.snapshot_dir is None:
            return
        try:
            save_session(entry.session, self.snapshot_dir, fingerprint=entry.fingerprint)
        except Exception as error:  # noqa: BLE001 - persistence is best-effort
            print(
                f"warning: snapshot of session {entry.fingerprint[:12]}… "
                f"failed: {error}",
                file=sys.stderr,
            )

    def snapshot_all(self) -> None:
        """Persist every resident session (shutdown path)."""
        if self.snapshot_dir is not None:
            save_pool(
                self.pool, self.snapshot_dir, retain_restarts=self.snapshot_retain
            )

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def handle(self, envelope: Any) -> Dict[str, Any]:
        """Serve one envelope; always returns a reply dictionary."""
        handled = handle_envelope(self.pool, envelope)
        if handled.mutations and self.snapshot_dir is not None:
            from repro.serving.snapshot import snapshot_path

            # A batch may mutate one session several times (and several
            # sessions once each): snapshot every mutated session once, at
            # its final state, and retire every snapshot left under a
            # superseded fingerprint -- a stale file would restore a
            # duplicate of the tenant on the next boot.
            snapshotted = set()
            for entry, previous in handled.mutations:
                if id(entry) not in snapshotted:
                    snapshotted.add(id(entry))
                    with entry.lock:
                        self._snapshot_entry(entry)
                if previous is not None and previous != entry.fingerprint:
                    snapshot_path(self.snapshot_dir, previous).unlink(
                        missing_ok=True
                    )
        return handled.reply

    def handle_line(self, line: str) -> str:
        """Serve one newline-delimited JSON request line."""
        try:
            envelope = json.loads(line)
        except (RecursionError, ValueError) as error:  # nesting too deep, or not JSON
            reply = error_envelope("bad_request", f"request is not JSON: {error}")
        else:
            reply = self.handle(envelope)
        return json.dumps(reply, sort_keys=True)
