"""Fingerprint-keyed LRU pool of resident :class:`PlacementSession`\\ s.

A serving process answers placement queries for *many* tenants, each with
their own distribution tree, but memory is bounded: every resident session
carries a tree, a :class:`~repro.core.index.TreeIndex`, assembled LP
programs and per-epoch result caches.  :class:`SessionPool` keeps the hot
tenants warm and evicts the cold ones:

* sessions are keyed by :func:`~repro.serving.fingerprint.problem_fingerprint`,
  so equivalent problems -- however the request spelled them -- share one
  resident session;
* the pool holds at most ``capacity`` sessions (and, optionally, at most
  ``max_bytes`` estimated bytes, via
  :meth:`~repro.session.PlacementSession.memory_estimate`), evicting in
  least-recently-used order;
* :meth:`SessionPool.checkout` hands out a session under a **per-session**
  lock: concurrent requests against different tenants proceed in parallel,
  only same-tenant requests serialise (the session caches are not
  thread-safe);
* eviction hooks fire for every evicted session (the server uses them to
  flush a final snapshot to disk);
* :meth:`SessionPool.stats` aggregates the per-session
  :class:`~repro.session.SessionStats` into a :class:`PoolStats` -- a
  registered result type, so the serving ``stats`` op round-trips through
  :func:`repro.core.results.result_from_json` like every other reply.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.exceptions import ReproError
from repro.core.problem import ReplicaPlacementProblem
from repro.core.results import ResultBase, register_result
from repro.serving.fingerprint import problem_fingerprint
from repro.session import PlacementSession

__all__ = ["PooledSession", "PoolStats", "SessionPool", "UnknownSessionError"]


class UnknownSessionError(ReproError, KeyError):
    """A fingerprint-only request named a session that is not resident.

    Also a :class:`KeyError`: the pool is a mapping of fingerprints and
    callers may treat a miss as an ordinary missing key (the serving client
    reacts by re-sending the full problem).
    """

    def __init__(self, fingerprint: str) -> None:
        super().__init__(
            f"no resident session for fingerprint {fingerprint!r}; "
            "re-send the full problem to (re)create it"
        )
        self.fingerprint = fingerprint


class PooledSession:
    """A resident session plus its pool bookkeeping (key, lock, size)."""

    __slots__ = ("fingerprint", "session", "lock", "bytes_estimate")

    def __init__(self, fingerprint: str, session: PlacementSession) -> None:
        self.fingerprint = fingerprint
        self.session = session
        #: serialises same-tenant requests; different tenants never share it.
        self.lock = threading.Lock()
        self.bytes_estimate = session.memory_estimate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PooledSession({self.fingerprint[:12]}…, {self.session!r})"


@register_result
@dataclass
class PoolStats(ResultBase):
    """Aggregate view of a pool: occupancy, traffic and cache reuse.

    The solver counters (``solves``/``bounds``/``*_cache_hits``/``epochs``)
    aggregate over the *lifetime* of the pool: evicted sessions fold their
    :class:`~repro.session.SessionStats` into running totals before they
    leave, so the numbers never shrink when memory pressure rotates
    tenants.  ``sessions`` describes the currently-resident sessions in
    LRU-to-MRU order.
    """

    payload_type = "pool_stats"

    capacity: int
    resident: int
    hits: int
    misses: int
    evictions: int
    restored: int
    bytes_estimate: int
    max_bytes: Optional[int]
    epochs: int
    solves: int
    solve_cache_hits: int
    bounds: int
    bound_cache_hits: int
    sessions: List[Dict[str, Any]] = field(default_factory=list)
    #: per-op request counters fed by the protocol layer: ``op ->
    #: {count, errors, seconds_total, seconds_max}``.  ``GET /metrics``
    #: renders exactly these numbers (see :mod:`repro.serving.metrics`),
    #: so the Prometheus exposition and the ``stats`` op can never drift.
    ops: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line summary used by the CLI and the serving examples."""
        budget = (
            f"~{self.bytes_estimate} bytes"
            if self.max_bytes is None
            else f"~{self.bytes_estimate}/{self.max_bytes} bytes"
        )
        line = (
            f"{self.resident}/{self.capacity} resident sessions ({budget}), "
            f"{self.hits} hits / {self.misses} misses, "
            f"{self.evictions} evicted, {self.restored} restored | "
            f"{self.solves} solves ({self.solve_cache_hits} cached), "
            f"{self.bounds} bounds ({self.bound_cache_hits} cached), "
            f"{self.epochs} epoch steps"
        )
        if self.ops:
            served = sum(int(m.get("count", 0)) for m in self.ops.values())
            errors = sum(int(m.get("errors", 0)) for m in self.ops.values())
            line += f" | {served} envelopes served ({errors} errors)"
        return line

    def to_dict(self) -> Dict[str, Any]:
        return self._tagged(
            {
                "capacity": self.capacity,
                "resident": self.resident,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "restored": self.restored,
                "bytes_estimate": self.bytes_estimate,
                "max_bytes": self.max_bytes,
                "epochs": self.epochs,
                "solves": self.solves,
                "solve_cache_hits": self.solve_cache_hits,
                "bounds": self.bounds,
                "bound_cache_hits": self.bound_cache_hits,
                "sessions": list(self.sessions),
                "ops": {op: dict(metric) for op, metric in self.ops.items()},
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PoolStats":
        max_bytes = payload.get("max_bytes")
        return cls(
            capacity=int(payload["capacity"]),
            resident=int(payload["resident"]),
            hits=int(payload["hits"]),
            misses=int(payload["misses"]),
            evictions=int(payload["evictions"]),
            restored=int(payload.get("restored", 0)),
            bytes_estimate=int(payload.get("bytes_estimate", 0)),
            max_bytes=None if max_bytes is None else int(max_bytes),
            epochs=int(payload.get("epochs", 0)),
            solves=int(payload["solves"]),
            solve_cache_hits=int(payload["solve_cache_hits"]),
            bounds=int(payload["bounds"]),
            bound_cache_hits=int(payload["bound_cache_hits"]),
            sessions=[dict(entry) for entry in payload.get("sessions", [])],
            ops={
                str(op): dict(metric)
                for op, metric in (payload.get("ops") or {}).items()
            },
        )


class SessionPool:
    """Bounded, thread-safe, fingerprint-keyed cache of placement sessions.

    Parameters
    ----------
    capacity:
        Maximum number of resident sessions (LRU eviction beyond it).
    max_bytes:
        Optional budget over the summed
        :meth:`~repro.session.PlacementSession.memory_estimate` of the
        resident sessions; the LRU tail is evicted until the estimate fits
        (the most recent session always stays, whatever its size).
    mode, shards:
        Session construction defaults forwarded to every
        :class:`~repro.session.PlacementSession` the pool creates.  With
        ``shards`` set, tenant sessions solve shard-by-shard and their
        :meth:`~repro.session.PlacementSession.memory_estimate` (and so the
        ``max_bytes`` budget) reflects only the shard indexes actually
        built, never the whole-tree index.
    on_evict:
        Iterable of ``hook(entry)`` callables fired (outside the pool lock)
        for every evicted :class:`PooledSession`.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        max_bytes: Optional[int] = None,
        mode: str = "incremental",
        shards: Optional[Any] = None,
        on_evict: Tuple[Callable[[PooledSession], None], ...] = (),
    ) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.mode = mode
        self.shards = shards
        self._entries: "OrderedDict[str, PooledSession]" = OrderedDict()
        self._lock = threading.RLock()
        self._hooks: List[Callable[[PooledSession], None]] = list(on_evict)
        # lifetime counters (see PoolStats)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._restored = 0
        self._retired_epochs = 0
        self._retired_solves = 0
        self._retired_solve_hits = 0
        self._retired_bounds = 0
        self._retired_bound_hits = 0
        # per-op request counters (protocol layer feeds these via observe_op)
        self._op_metrics: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ #
    # mapping-ish surface
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def resident_fingerprints(self) -> Tuple[str, ...]:
        """Resident fingerprints in LRU-to-MRU order (tests assert on this)."""
        with self._lock:
            return tuple(self._entries)

    def add_evict_hook(self, hook: Callable[[PooledSession], None]) -> None:
        """Register an additional eviction hook."""
        self._hooks.append(hook)

    # ------------------------------------------------------------------ #
    # request metrics
    # ------------------------------------------------------------------ #
    def observe_op(self, op: str, seconds: float, *, error: bool = False) -> None:
        """Record one served envelope: latency plus success/error counts.

        The protocol layer calls this for every envelope it answers (and
        for every item inside a batch envelope), labelling it with the op
        name.  The counters surface in :attr:`PoolStats.ops` and therefore
        in both the ``stats`` op and the ``GET /metrics`` exposition.
        """
        with self._lock:
            metric = self._op_metrics.get(op)
            if metric is None:
                metric = self._op_metrics[op] = {
                    "count": 0,
                    "errors": 0,
                    "seconds_total": 0.0,
                    "seconds_max": 0.0,
                }
            metric["count"] += 1
            if error:
                metric["errors"] += 1
            metric["seconds_total"] += seconds
            if seconds > metric["seconds_max"]:
                metric["seconds_max"] = seconds

    # ------------------------------------------------------------------ #
    # checkout
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def checkout(
        self,
        problem: Optional[ReplicaPlacementProblem] = None,
        *,
        fingerprint: Optional[str] = None,
    ) -> Iterator[PooledSession]:
        """Check a session out for exclusive use (context manager).

        Exactly one of ``problem`` (create the session if absent) or
        ``fingerprint`` (resident sessions only;
        :class:`UnknownSessionError` on a miss) must be given.  The
        session's lock is held for the duration of the ``with`` block, so
        holders may freely call session methods; its byte estimate is
        refreshed on release and the pool rebalanced against the byte
        budget.

        Residency is re-checked once the lock is held: a concurrent
        insert may evict the entry in the window between the lookup and
        the lock acquisition, and handing out an already-retired session
        would double-count its stats on re-insertion (and orphan it from
        fingerprint addressing).  Eviction itself skips locked entries, so
        a session can never be evicted *while* checked out.
        """
        entry, evicted = self._acquire(problem, fingerprint)
        self._fire_hooks(evicted)
        entry.lock.acquire()
        while not self._is_resident(entry):
            # Evicted in the lookup-to-lock window: retry.  A problem keyed
            # retry re-creates the session at MRU (never evicted while we
            # race); a fingerprint-keyed retry raises UnknownSessionError,
            # which is exactly what the miss now is.
            entry.lock.release()
            entry, evicted = self._acquire(problem, fingerprint)
            self._fire_hooks(evicted)
            entry.lock.acquire()
        try:
            yield entry
        finally:
            entry.bytes_estimate = entry.session.memory_estimate()
            entry.lock.release()
            self._fire_hooks(self._rebalance())

    def _is_resident(self, entry: PooledSession) -> bool:
        with self._lock:
            return self._entries.get(entry.fingerprint) is entry

    def _acquire(
        self,
        problem: Optional[ReplicaPlacementProblem],
        fingerprint: Optional[str],
    ) -> Tuple[PooledSession, List[PooledSession]]:
        if (problem is None) == (fingerprint is None):
            raise ValueError(
                "checkout() needs exactly one of a problem or a fingerprint"
            )
        # Hash outside the pool lock: the fingerprint is a pure function of
        # the problem, and an O(n) tree hash under the global lock would
        # serialise every tenant's first contact.
        key = None if problem is None else problem_fingerprint(problem)
        with self._lock:
            if fingerprint is not None:
                entry = self._entries.get(fingerprint)
                if entry is None:
                    raise UnknownSessionError(fingerprint)
                self._entries.move_to_end(fingerprint)
                self._hits += 1
                return entry, []
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry, []
            entry = PooledSession(
                key, PlacementSession(problem, mode=self.mode, shards=self.shards)
            )
            self._entries[key] = entry
            self._misses += 1
            return entry, self._rebalance_locked()

    # ------------------------------------------------------------------ #
    # insertion paths used by restore / rekey
    # ------------------------------------------------------------------ #
    def adopt(self, entry: PooledSession, *, restored: bool = False) -> None:
        """Insert an externally-built entry (snapshot restore) at MRU."""
        with self._lock:
            self._entries[entry.fingerprint] = entry
            self._entries.move_to_end(entry.fingerprint)
            if restored:
                self._restored += 1
            evicted = self._rebalance_locked()
        self._fire_hooks(evicted)

    def rekey(self, entry: PooledSession) -> str:
        """Re-register ``entry`` under its problem's *current* fingerprint.

        An epoch :meth:`~repro.session.PlacementSession.update` changes the
        session's problem -- and therefore its content fingerprint -- so
        the server re-keys the entry after every update (while holding the
        entry's checkout lock).  If another *idle* resident session already
        answers to the new fingerprint it is displaced (counted as an
        eviction, hooks fired): the freshly updated session is the one its
        tenant keeps talking to.  A busy same-content session (mid-op on
        another thread) is never yanked -- like eviction, displacement
        respects the per-session locks -- so in that rare convergence the
        entry keeps its old fingerprint (still addressable; the reply
        carries it) until a later update re-keys it again.

        Because both eviction and displacement skip locked entries, an
        entry whose checkout lock is held is always still resident here --
        its map slot just moves.
        """
        new_key = problem_fingerprint(entry.session.problem)
        displaced: List[PooledSession] = []
        with self._lock:
            if new_key != entry.fingerprint:
                existing = self._entries.get(new_key)
                if existing is not None and existing is not entry:
                    if not existing.lock.acquire(blocking=False):
                        # Converged onto a session another thread is using:
                        # leave both resident, ours under its old key.
                        self._entries.move_to_end(entry.fingerprint)
                        return entry.fingerprint
                    try:
                        del self._entries[new_key]
                        self._retire_locked(existing)
                        self._evictions += 1
                        displaced.append(existing)
                    finally:
                        existing.lock.release()
                self._entries.pop(entry.fingerprint, None)
                entry.fingerprint = new_key
                self._entries[new_key] = entry
            self._entries.move_to_end(new_key)
        self._fire_hooks(displaced)
        return new_key

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #
    def _over_budget_locked(self) -> bool:
        if len(self._entries) > self.capacity:
            return True
        if self.max_bytes is None or len(self._entries) <= 1:
            return False
        total = sum(entry.bytes_estimate for entry in self._entries.values())
        return total > self.max_bytes

    def _rebalance_locked(self) -> List[PooledSession]:
        """Evict LRU entries until capacity and byte budget hold.

        Entries whose lock is currently held (a request is mid-flight on
        another thread) are skipped rather than yanked from under the
        holder; the overshoot is temporary -- the next release rebalances
        again.  The MRU entry is never evicted.
        """
        evicted: List[PooledSession] = []
        while self._over_budget_locked() and len(self._entries) > 1:
            victim = None
            for key, entry in self._entries.items():
                if key == next(reversed(self._entries)):
                    break  # never evict the MRU entry
                if entry.lock.acquire(blocking=False):
                    entry.lock.release()
                    victim = key
                    break
            if victim is None:
                break  # everything evictable is busy; try again later
            entry = self._entries.pop(victim)
            self._retire_locked(entry)
            self._evictions += 1
            evicted.append(entry)
        return evicted

    def _rebalance(self) -> List[PooledSession]:
        with self._lock:
            return self._rebalance_locked()

    def _retire_locked(self, entry: PooledSession) -> None:
        """Fold a leaving session's counters into the lifetime totals."""
        stats = entry.session.stats
        self._retired_epochs += stats.epochs
        self._retired_solves += stats.solves
        self._retired_solve_hits += stats.solve_cache_hits
        self._retired_bounds += stats.bounds
        self._retired_bound_hits += stats.bound_cache_hits

    def _fire_hooks(self, entries: List[PooledSession]) -> None:
        for entry in entries:
            for hook in self._hooks:
                hook(entry)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> PoolStats:
        """Aggregate the pool and per-session counters into a snapshot."""
        with self._lock:
            epochs = self._retired_epochs
            solves = self._retired_solves
            solve_hits = self._retired_solve_hits
            bounds = self._retired_bounds
            bound_hits = self._retired_bound_hits
            sessions: List[Dict[str, Any]] = []
            total_bytes = 0
            for entry in self._entries.values():
                stats = entry.session.stats
                epochs += stats.epochs
                solves += stats.solves
                solve_hits += stats.solve_cache_hits
                bounds += stats.bounds
                bound_hits += stats.bound_cache_hits
                total_bytes += entry.bytes_estimate
                sessions.append(
                    {
                        "fingerprint": entry.fingerprint,
                        "epoch": entry.session.epoch,
                        "size": entry.session.problem.size,
                        "policy": entry.session.policy.value,
                        "mode": entry.session.mode,
                        "solves": stats.solves,
                        "solve_cache_hits": stats.solve_cache_hits,
                        "bounds": stats.bounds,
                        "bound_cache_hits": stats.bound_cache_hits,
                        "bytes_estimate": entry.bytes_estimate,
                    }
                )
            return PoolStats(
                capacity=self.capacity,
                resident=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                restored=self._restored,
                bytes_estimate=total_bytes,
                max_bytes=self.max_bytes,
                epochs=epochs,
                solves=solves,
                solve_cache_hits=solve_hits,
                bounds=bounds,
                bound_cache_hits=bound_hits,
                sessions=sessions,
                ops={
                    op: dict(metric) for op, metric in self._op_metrics.items()
                },
            )

    # ------------------------------------------------------------------ #
    def entries(self) -> List[PooledSession]:
        """The resident entries in LRU-to-MRU order (snapshot helper)."""
        with self._lock:
            return list(self._entries.values())

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SessionPool(resident={len(self._entries)}/{self.capacity}, "
                f"hits={self._hits}, misses={self._misses}, "
                f"evictions={self._evictions})"
            )
