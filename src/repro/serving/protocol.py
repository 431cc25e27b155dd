"""The serving request protocol: JSON envelopes in, result payloads out.

Every transport (newline-delimited JSON over stdio, HTTP POST bodies, the
selectors loop server -- see :mod:`repro.serving.server` and
:mod:`repro.serving.loopserver`) speaks the same envelope format::

    {"op":          "solve" | "bound" | "compare" | "update" |
                    "simulate" | "stats" | "batch",
     "problem":     {...},          # problem_to_dict payload, optional
     "fingerprint": "....",         # resident-session key, optional
     "params":      {...}}          # op-specific keyword arguments

``problem``'s tree is written as one list per field
(``{"nodes": {"id": [...], "capacity": [...]}, ...}``, see
:mod:`repro.core.serialization`); a tree in the earlier record layout (a
list of one object per element) is still read.

``problem`` creates (or finds) the resident session for that content;
``fingerprint`` addresses an already-resident session without re-shipping
the tree (an :class:`~repro.serving.pool.UnknownSessionError` miss produces
an ``unknown_fingerprint`` error envelope, and the client re-sends the full
problem).  ``stats`` needs neither.

**Batched envelopes** amortise the per-request parse/dispatch cycle -- the
dominant cost once solves answer from warm caches::

    {"op": "batch", "requests": [<envelope>, <envelope>, ...]}

The reply is ``{"type": "batch_result", "results": [...]}`` with exactly
one reply per request, **order-matched**; a failing item produces its
tagged error envelope *in place* and never poisons its neighbours.
Consecutive items addressing the same resident session are served under
**one checkout** (one lock acquisition, one LRU touch, one byte-estimate
refresh for the whole run), and an item that names *neither* a problem nor
a fingerprint implicitly addresses the session of the previous item --
which is what lets a whole epoch trajectory ship as one envelope::

    {"op": "batch", "requests": [
        {"op": "solve",  "problem": {...}},
        {"op": "update", "params": {"requests": [...]}},   # same session
        {"op": "solve"},                                   # same session
        ...]}

Batch envelopes do not nest.

Replies are the **existing result-protocol payloads** -- the ``to_dict()``
output of :class:`~repro.session.SolveResult`,
:class:`~repro.session.BoundResult`, :class:`~repro.session.CompareResult`
and :class:`~repro.serving.pool.PoolStats`, round-trippable through
:func:`repro.core.results.result_from_dict` -- plus a ``"fingerprint"``
key identifying the session that answered (``from_dict`` constructors read
their fields by name, so the extra key never disturbs decoding).  Failures
of any kind map to a tagged error envelope::

    {"type": "error", "error": {"code": "...", "message": "..."}}

never to a traceback on the wire.  Codes: ``bad_request`` (malformed
envelope / unknown op / bad params), ``unknown_fingerprint`` (session not
resident), ``invalid`` (the problem or parameters fail domain validation),
``infeasible`` (a simulate on an unsolvable epoch) and ``internal``
(anything unexpected).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.exceptions import InfeasibleError, ReproError
from repro.core.problem import ReplicaPlacementProblem
from repro.serving.fingerprint import problem_fingerprint
from repro.serving.pool import PooledSession, SessionPool, UnknownSessionError

__all__ = [
    "OPS",
    "MAX_BATCH_ITEMS",
    "ProtocolError",
    "HandledRequest",
    "error_envelope",
    "is_error",
    "handle_envelope",
]

#: The operations a serving endpoint accepts.
OPS = ("solve", "bound", "compare", "update", "simulate", "stats", "batch")

#: Upper bound on the items of one batch envelope -- a runaway client gets
#: a ``bad_request`` instead of pinning a worker for an unbounded run.
MAX_BATCH_ITEMS = 10_000

#: ``update`` ops change session content (the server snapshots after them);
#: the rest only warm caches.
_MUTATING_OPS = frozenset({"update"})


class ProtocolError(ReproError):
    """A request envelope that cannot be served as asked."""

    def __init__(self, message: str, *, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


def error_envelope(code: str, message: str) -> Dict[str, Any]:
    """The tagged error reply every transport ships on failure."""
    return {"type": "error", "error": {"code": code, "message": message}}


def is_error(reply: Mapping[str, Any]) -> bool:
    """``True`` when ``reply`` is an error envelope."""
    return isinstance(reply, Mapping) and reply.get("type") == "error"


@dataclass
class HandledRequest:
    """Outcome of one envelope: the reply plus server-side bookkeeping."""

    reply: Dict[str, Any]
    #: the session that answered (``None`` for ``stats``, ``batch`` and
    #: errors -- a batch may touch several sessions; see ``mutations``)
    entry: Optional[PooledSession] = None
    #: ``(entry, fingerprint_before)`` for every mutating op served --
    #: several for a batch.  The server snapshots each mutated session once
    #: and retires snapshots left under superseded fingerprints.
    mutations: List[Tuple[PooledSession, Optional[str]]] = field(
        default_factory=list
    )

    @property
    def mutated(self) -> bool:
        """Whether any session's *content* changed (snapshot trigger)."""
        return bool(self.mutations)


# --------------------------------------------------------------------------- #
# envelope plumbing
# --------------------------------------------------------------------------- #
def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _decode_problem(payload: Any) -> ReplicaPlacementProblem:
    from repro.core.serialization import problem_from_dict

    _require_mapping(payload, '"problem"')
    try:
        return problem_from_dict(payload)
    except ReproError as error:
        raise ProtocolError(f"invalid problem payload: {error}", code="invalid") from None
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        # AttributeError covers mis-typed nested sections (e.g. a string
        # where the constraints object belongs).
        raise ProtocolError(
            f"malformed problem payload: {error}", code="bad_request"
        ) from None


def _with_fingerprint(payload: Dict[str, Any], fingerprint: str) -> Dict[str, Any]:
    payload["fingerprint"] = fingerprint
    return payload


# --------------------------------------------------------------------------- #
# op implementations (run while holding the entry's lock)
# --------------------------------------------------------------------------- #
def _op_solve(entry: PooledSession, params: Mapping[str, Any]) -> Dict[str, Any]:
    result = entry.session.solve(
        policy=params.get("policy"),
        algorithm=params.get("algorithm"),
        on_error="none",  # infeasibility is a result payload, not an error
    )
    return result.to_dict()


def _op_bound(entry: PooledSession, params: Mapping[str, Any]) -> Dict[str, Any]:
    time_limit = params.get("time_limit")
    result = entry.session.bound(
        policy=params.get("policy", "multiple"),
        method=params.get("method", "mixed"),
        time_limit=None if time_limit is None else float(time_limit),
    )
    return result.to_dict()


def _op_compare(entry: PooledSession, params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.core.policies import Policy

    policies = params.get("policies")
    result = entry.session.compare(
        policies=Policy.ordered() if policies is None else list(policies),
        bounds=bool(params.get("bounds", False)),
        bound_method=params.get("bound_method", "mixed"),
    )
    return result.to_dict()


def _decode_requests(payload: Any) -> Dict[Any, float]:
    """Decode an update's rate map from either wire spelling.

    The canonical encoding is a list of ``{"client": id, "rate": r}``
    objects -- ids stay in value position, so non-string identifiers
    survive JSON (object keys would stringify them).  A plain
    ``{client: rate}`` object is also accepted for hand-written envelopes
    whose ids are strings anyway.
    """
    if isinstance(payload, Mapping):
        return {cid: float(rate) for cid, rate in payload.items()}
    if isinstance(payload, list):
        try:
            return {entry["client"]: float(entry["rate"]) for entry in payload}
        except (KeyError, TypeError) as error:
            raise ProtocolError(
                f"malformed requests list (need client/rate objects): {error}"
            ) from None
    raise ProtocolError(
        "params.requests must be a {client: rate} object or a list of "
        '{"client": ..., "rate": ...} objects'
    )


def _op_update(entry: PooledSession, params: Mapping[str, Any]) -> Dict[str, Any]:
    requests = params.get("requests")
    instance = params.get("problem")
    if (requests is None) == (instance is None):
        raise ProtocolError(
            "update needs exactly one of params.requests (a rate map) "
            "or params.problem (the next epoch instance)"
        )
    resolve = params.get("resolve", "always")
    if resolve is True:
        resolve = "always"
    if resolve not in (False, "always", "on_saturation"):
        raise ProtocolError(
            f"unknown resolve mode {resolve!r}; expected "
            "'always', 'on_saturation' or false"
        )
    kwargs: Dict[str, Any] = {"resolve": resolve}
    threshold = params.get("saturation_threshold")
    if threshold is not None:
        kwargs["saturation_threshold"] = float(threshold)
    if requests is not None:
        result = entry.session.update(requests=_decode_requests(requests), **kwargs)
    else:
        result = entry.session.update(_decode_problem(instance), **kwargs)
    if result is None:  # resolve=False: acknowledge the epoch step
        return {"type": "update_ack", "epoch": entry.session.epoch}
    return result.to_dict()


def _op_simulate(entry: PooledSession, params: Mapping[str, Any]) -> Dict[str, Any]:
    threshold = params.get("saturation_threshold", 0.999)
    replay = entry.session.simulate(
        policy=params.get("policy"),
        algorithm=params.get("algorithm"),
        saturation_threshold=float(threshold),
    )
    return replay.to_dict()


_OP_HANDLERS = {
    "solve": _op_solve,
    "bound": _op_bound,
    "compare": _op_compare,
    "update": _op_update,
    "simulate": _op_simulate,
}


# --------------------------------------------------------------------------- #
# the checkout cursor (one checkout spans consecutive same-session items)
# --------------------------------------------------------------------------- #
class _BatchCursor:
    """The open checkout carried across the items of one envelope.

    A plain envelope opens and closes one checkout through it; a batch
    envelope *keeps* the checkout open while consecutive items address the
    same session, so a whole epoch trajectory pays one lock acquisition,
    one LRU touch and one byte-estimate refresh instead of one per item.
    Addressing a different session closes the held checkout first -- the
    per-session locks are not reentrant, so at most one is ever held.

    Also collects the ``(entry, fingerprint_before)`` pair of every
    mutating op, which the owning :func:`handle_envelope` hands to the
    server for snapshot upkeep.
    """

    __slots__ = ("_pool", "_cm", "entry", "mutations")

    def __init__(self, pool: SessionPool) -> None:
        self._pool = pool
        self._cm: Optional[Any] = None
        self.entry: Optional[PooledSession] = None
        self.mutations: List[Tuple[PooledSession, Optional[str]]] = []

    def use_problem(self, problem: ReplicaPlacementProblem) -> PooledSession:
        if (
            self.entry is not None
            and self.entry.fingerprint == problem_fingerprint(problem)
        ):
            return self.entry
        return self._switch(self._pool.checkout(problem))

    def use_fingerprint(self, fingerprint: str) -> PooledSession:
        if self.entry is not None and self.entry.fingerprint == fingerprint:
            return self.entry
        return self._switch(self._pool.checkout(fingerprint=fingerprint))

    def _switch(self, checkout: Any) -> PooledSession:
        self.close()
        entry = checkout.__enter__()  # may raise: UnknownSessionError et al.
        # Adopt only after a successful __enter__ -- close() must never
        # __exit__ a context manager that never yielded.
        self._cm, self.entry = checkout, entry
        return entry

    def record_mutation(
        self, entry: PooledSession, previous: Optional[str]
    ) -> None:
        self.mutations.append((entry, previous))

    def close(self) -> None:
        checkout, self._cm, self.entry = self._cm, None, None
        if checkout is not None:
            checkout.__exit__(None, None, None)


# --------------------------------------------------------------------------- #
# the dispatcher
# --------------------------------------------------------------------------- #
def handle_envelope(pool: SessionPool, envelope: Any) -> HandledRequest:
    """Serve one request envelope against a session pool.

    Never raises: every failure becomes an error envelope in the returned
    :class:`HandledRequest` (transports ship replies verbatim).  Session
    ops run while holding the session's checkout lock, so concurrent
    envelopes for different tenants run in parallel.  Every envelope --
    and every item inside a batch -- is timed and folded into the pool's
    per-op counters (:meth:`~repro.serving.pool.SessionPool.observe_op`).
    """
    cursor = _BatchCursor(pool)
    try:
        reply, entry = _serve(pool, envelope, cursor, allow_batch=True)
    finally:
        cursor.close()
    return HandledRequest(reply, entry=entry, mutations=cursor.mutations)


def _op_label(envelope: Any) -> str:
    """The metrics label for an envelope (bounded cardinality).

    Unknown op names map to ``_unknown`` and non-object envelopes to
    ``_invalid`` so hostile input cannot mint unbounded label values.
    """
    if not isinstance(envelope, Mapping):
        return "_invalid"
    op = envelope.get("op")
    return op if op in OPS else "_unknown"


def _serve(
    pool: SessionPool, envelope: Any, cursor: _BatchCursor, *, allow_batch: bool
) -> Tuple[Dict[str, Any], Optional[PooledSession]]:
    """Exception-ladder + timing wrapper around :func:`_handle`.

    Returns ``(reply, entry)`` and never raises; used both for top-level
    envelopes and for each item inside a batch (so per-item failures stay
    per-item and every item lands in the op metrics individually).
    """
    started = time.perf_counter()
    entry: Optional[PooledSession] = None
    try:
        reply, entry = _handle(pool, envelope, cursor, allow_batch=allow_batch)
    except ProtocolError as error:
        reply = error_envelope(error.code, str(error))
    except UnknownSessionError as error:
        reply = error_envelope("unknown_fingerprint", str(error))
    except InfeasibleError as error:
        reply = error_envelope("infeasible", str(error))
    except ReproError as error:
        reply = error_envelope("invalid", str(error))
    except (TypeError, ValueError) as error:
        # Domain validation across the package raises ValueError (unknown
        # policies, methods, modes); TypeError covers mis-typed params.
        reply = error_envelope("invalid", str(error))
    except Exception as error:  # noqa: BLE001 - never a traceback on the wire
        reply = error_envelope("internal", f"{type(error).__name__}: {error}")
    pool.observe_op(
        _op_label(envelope), time.perf_counter() - started, error=is_error(reply)
    )
    return reply, entry


def _handle(
    pool: SessionPool, envelope: Any, cursor: _BatchCursor, *, allow_batch: bool
) -> Tuple[Dict[str, Any], Optional[PooledSession]]:
    envelope = _require_mapping(envelope, "request envelope")
    op = envelope.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {list(OPS)}"
        )
    if op == "batch":
        if not allow_batch:
            raise ProtocolError("batch envelopes do not nest")
        return _handle_batch(pool, envelope, cursor), None
    params = envelope.get("params") or {}
    _require_mapping(params, '"params"')

    if op == "stats":
        return pool.stats().to_dict(), None

    problem_payload = envelope.get("problem")
    fingerprint = envelope.get("fingerprint")
    if problem_payload is not None:
        entry = cursor.use_problem(_decode_problem(problem_payload))
    elif fingerprint is not None:
        if not isinstance(fingerprint, str):
            raise ProtocolError('"fingerprint" must be a string')
        entry = cursor.use_fingerprint(fingerprint)
    else:
        # Inside a batch, an unaddressed item rides the previous item's
        # session (that's how a trajectory ships as one envelope); a
        # top-level envelope has no previous item to inherit from.
        entry = cursor.entry
        if entry is None:
            raise ProtocolError(
                f'op "{op}" needs a "problem" or a "fingerprint" (or, inside '
                "a batch, a previous item to inherit the session from)"
            )

    handler = _OP_HANDLERS[op]
    previous_fingerprint = entry.fingerprint
    payload = handler(entry, params)
    if op in _MUTATING_OPS:
        pool.rekey(entry)
        cursor.record_mutation(entry, previous_fingerprint)
    return _with_fingerprint(payload, entry.fingerprint), entry


def _handle_batch(
    pool: SessionPool, envelope: Mapping[str, Any], cursor: _BatchCursor
) -> Dict[str, Any]:
    """Serve ``{"op": "batch", "requests": [...]}``: one reply per item.

    Replies are **order-matched** to requests; a failing item contributes
    its error envelope in place and the remaining items still run.  The
    shared ``cursor`` is what groups consecutive same-session items under
    one checkout.
    """
    requests = envelope.get("requests")
    if not isinstance(requests, list):
        raise ProtocolError(
            '"requests" must be a JSON array of request envelopes'
        )
    if len(requests) > MAX_BATCH_ITEMS:
        raise ProtocolError(
            f"batch holds {len(requests)} requests; the cap is "
            f"{MAX_BATCH_ITEMS} per envelope"
        )
    results: List[Dict[str, Any]] = []
    for item in requests:
        reply, _ = _serve(pool, item, cursor, allow_batch=False)
        results.append(reply)
    return {"type": "batch_result", "results": results}
