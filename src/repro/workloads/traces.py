"""Trace-driven workloads: ingest real request logs, detect epochs, replay.

Every other workload in this package is synthetic: the generators of
:mod:`repro.workloads.dynamic` fabricate epoch trajectories from parametric
rate functions, and the load harness samples arrivals from hand-written
intensities.  This module closes the loop with **real timestamped request
logs**: a production access log (CSV or JSONL, optionally gzipped) becomes
the exact epoch trajectories and open-loop arrival schedules the rest of
the stack already consumes.

The pipeline has three stages:

**Ingest**
    :class:`Trace` holds the log as sorted parallel arrays -- timestamps,
    categorical client codes and per-event weights -- parsed by
    :meth:`Trace.from_csv` / :meth:`Trace.from_jsonl` (stdlib parsers,
    strict validation: malformed rows, non-finite values and out-of-order
    timestamps raise :class:`~repro.core.exceptions.TraceFormatError`
    naming the offending line).  :class:`TimeIndexer` wraps the sorted
    timestamp array with the sample-by-timestamp / slice-by-time-range /
    binned-count queries (all ``searchsorted``) that every later stage
    runs on.

**Epoch detection**
    :func:`detect_epochs` places epoch boundaries where traffic actually
    moves: per-bin event mass feeds a sliding-window mean-shift score (a
    Poisson z-statistic of the left-vs-right window means, combined with
    weight-share-weighted per-client scores so antiphase client shifts
    that conserve total rate are still caught) and a greedy changepoint
    pass accepts boundaries in score order under a minimum-segment guard.  :func:`fixed_epochs` is the deterministic
    equal-width fallback.  Both estimate piecewise-constant per-client
    rates per epoch and return a :class:`TraceEpochs`, whose
    :meth:`~TraceEpochs.problems` emits the epoch sequence as
    :class:`~repro.core.problem.ReplicaPlacementProblem` forks built with
    :meth:`~repro.core.tree.TreeNetwork.with_requests` -- structure-shared
    trajectories that feed
    :class:`~repro.algorithms.incremental.IncrementalResolver` and
    :meth:`~repro.session.PlacementSession.update` unchanged.

**Replay**
    :meth:`TraceEpochs.arrival_schedule` reconstructs the piecewise
    constant total intensity and samples within-epoch micro-burst arrivals
    with the exact inversion sampler
    (:func:`~repro.workloads.distributions.inversion_poisson_arrivals`),
    optionally rescaled to a target horizon and mean rate -- the schedule
    behind ``repro loadtest --trace``; ``repro dynamic --trace`` replays
    the epoch problems through the incremental resolver and
    :func:`~repro.simulation.request_flow.simulate_sequence`.

:func:`sample_trace` is the synthetic-trace **exporter**: it samples a log
from any rate-only trajectory, so ``estimate(export(trajectory))`` is a
round-trip property (re-detected boundaries and re-estimated rates match
the generating trajectory within Poisson tolerance) -- the test that pins
the whole pipeline.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.exceptions import TraceFormatError, WorkloadError
from repro.core.problem import ReplicaPlacementProblem
from repro.core.results import ResultBase, decode_float, encode_float, register_result
from repro.core.tree import NodeId, TreeNetwork
from repro.workloads.distributions import inversion_poisson_arrivals
from repro.workloads.dynamic import _epoch_problem, as_base_problem

__all__ = [
    "Trace",
    "TimeIndexer",
    "TraceEpochs",
    "TraceSummary",
    "detect_epochs",
    "fixed_epochs",
    "load_trace",
    "sample_trace",
]

#: Accepted JSONL field names, in lookup order.
_TIME_KEYS = ("t", "time", "timestamp")
_CLIENT_KEYS = ("client", "client_id")
_WEIGHT_KEYS = ("weight", "w")

#: CSV header spellings of the first column that mark row 1 as a header.
_CSV_HEADERS = frozenset(_TIME_KEYS)


# --------------------------------------------------------------------------- #
# time-indexed access over sorted timestamp arrays
# --------------------------------------------------------------------------- #
class TimeIndexer:
    """Query layer over a sorted timestamp array (all ``searchsorted``).

    The access patterns are the three every trace consumer needs:
    *sample-by-timestamp* (:meth:`at` -- which event was current at time
    ``t``), *slice-by-time-range* (:meth:`slice` -- the contiguous run of
    events inside ``[t0, t1)``) and *binned counts* (:meth:`counts` -- one
    histogram pass for epoch detection and rate estimation).
    """

    def __init__(self, times: np.ndarray):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise WorkloadError(
                f"timestamps must form a 1-d array, got shape {times.shape}"
            )
        if times.size and not np.all(np.isfinite(times)):
            raise WorkloadError("timestamps must be finite")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise WorkloadError("timestamps must be sorted (non-decreasing)")
        self._times = times

    def __len__(self) -> int:
        return int(self._times.size)

    @property
    def times(self) -> np.ndarray:
        """The underlying sorted timestamp array (not a copy; do not mutate)."""
        return self._times

    def at(self, t: float) -> int:
        """Index of the last event at or before ``t`` (``-1`` when none)."""
        return int(np.searchsorted(self._times, float(t), side="right")) - 1

    def slice(self, t0: float, t1: float) -> slice:
        """The contiguous event range with ``t0 <= time < t1``."""
        start = int(np.searchsorted(self._times, float(t0), side="left"))
        stop = int(np.searchsorted(self._times, float(t1), side="left"))
        return slice(start, max(start, stop))

    def count(self, t0: float, t1: float) -> int:
        """Number of events with ``t0 <= time < t1``."""
        window = self.slice(t0, t1)
        return window.stop - window.start

    def counts(self, edges: Sequence[float]) -> np.ndarray:
        """Per-bin event counts for increasing bin ``edges`` (length k+1).

        Bin ``i`` counts events with ``edges[i] <= time < edges[i+1]``;
        the one-sided convention means an event exactly at the final edge
        is *not* counted (callers that need it, like the epoch-rate
        estimator, clamp separately).
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise WorkloadError("bin edges must hold at least two values")
        if not np.all(np.isfinite(edges)):
            raise WorkloadError("bin edges must be finite")
        if np.any(np.diff(edges) <= 0):
            raise WorkloadError("bin edges must be strictly increasing")
        positions = np.searchsorted(self._times, edges, side="left")
        return np.diff(positions)


# --------------------------------------------------------------------------- #
# the trace itself
# --------------------------------------------------------------------------- #
@dataclass
class Trace:
    """A request log as sorted parallel arrays.

    ``times`` holds the event timestamps (sorted, finite), ``client_codes``
    the per-event index into ``client_ids`` (categorical encoding -- the
    unique client identifiers in first-appearance order), and ``weights``
    the per-event request mass (defaults to 1.0 per event; a pre-aggregated
    log can carry counts).  Build instances through :meth:`from_csv`,
    :meth:`from_jsonl`, :meth:`from_events` or :func:`load_trace`; the
    constructor validates whatever it is given.
    """

    times: np.ndarray
    client_codes: np.ndarray
    weights: np.ndarray
    client_ids: Tuple[NodeId, ...]
    name: Optional[str] = None
    _indexer: Optional[TimeIndexer] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.client_codes = np.asarray(self.client_codes, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.times.size == 0:
            raise TraceFormatError("trace holds no events")
        if not (self.times.size == self.client_codes.size == self.weights.size):
            raise TraceFormatError(
                f"parallel arrays disagree: {self.times.size} times, "
                f"{self.client_codes.size} clients, {self.weights.size} weights"
            )
        if not np.all(np.isfinite(self.times)):
            raise TraceFormatError("timestamps must be finite")
        if self.times.size > 1 and np.any(np.diff(self.times) < 0):
            raise TraceFormatError("timestamps must be sorted (non-decreasing)")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise TraceFormatError("event weights must be finite and > 0")
        if self.client_codes.size and (
            self.client_codes.min() < 0
            or self.client_codes.max() >= len(self.client_ids)
        ):
            raise TraceFormatError("client codes fall outside client_ids")

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> int:
        """Number of events in the trace."""
        return int(self.times.size)

    @property
    def span(self) -> Tuple[float, float]:
        """``(first, last)`` event timestamps."""
        return float(self.times[0]), float(self.times[-1])

    @property
    def duration(self) -> float:
        """Time between the first and last event."""
        start, end = self.span
        return end - start

    @property
    def total_weight(self) -> float:
        """Total request mass across all events."""
        return float(self.weights.sum())

    def indexer(self) -> TimeIndexer:
        """The (cached) :class:`TimeIndexer` over this trace's timestamps."""
        if self._indexer is None:
            self._indexer = TimeIndexer(self.times)
        return self._indexer

    def iter_events(self) -> Iterator[Tuple[float, NodeId, float]]:
        """Yield ``(time, client_id, weight)`` per event, in time order."""
        for t, code, w in zip(self.times, self.client_codes, self.weights):
            yield float(t), self.client_ids[int(code)], float(w)

    def __repr__(self) -> str:  # keep 100k-event arrays out of tracebacks
        label = f" {self.name!r}" if self.name else ""
        start, end = self.span
        return (
            f"<Trace{label}: {self.events} events, "
            f"{len(self.client_ids)} clients, span [{start:g}, {end:g}]>"
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(
        cls,
        records: Iterable[Sequence[Any]],
        *,
        name: Optional[str] = None,
        sort: bool = False,
    ) -> "Trace":
        """Build a trace from ``(time, client[, weight])`` records."""
        times: List[float] = []
        clients: List[Any] = []
        weights: List[float] = []
        for lineno, record in enumerate(records, start=1):
            if len(record) not in (2, 3):
                raise TraceFormatError(
                    f"expected (time, client[, weight]), got {record!r}",
                    line=lineno,
                )
            times.append(record[0])
            clients.append(record[1])
            weights.append(record[2] if len(record) == 3 else 1.0)
        return cls._assemble(times, clients, weights, name=name, sort=sort)

    @classmethod
    def from_csv(
        cls,
        source: Union[str, Path, IO[str]],
        *,
        name: Optional[str] = None,
        sort: bool = False,
    ) -> "Trace":
        """Parse a ``timestamp,client[,weight]`` CSV (gzip-transparent).

        An optional header row is recognised by its first cell spelling one
        of ``t`` / ``time`` / ``timestamp``; any other unparseable row
        raises :class:`TraceFormatError` naming the line.
        """
        with _open_source(source) as stream:
            label = name if name is not None else _source_name(source)
            times: List[str] = []
            clients: List[str] = []
            weights: List[Any] = []
            linenos: List[int] = []
            reader = csv.reader(stream)
            for lineno, row in enumerate(reader, start=1):
                if not row:
                    continue
                if lineno == 1 and row[0].strip().lower() in _CSV_HEADERS:
                    continue
                if len(row) not in (2, 3):
                    raise TraceFormatError(
                        f"expected 2 or 3 columns, got {len(row)}", line=lineno
                    )
                stamp, client = row[0].strip(), row[1].strip()
                if not client:
                    raise TraceFormatError("empty client id", line=lineno)
                try:
                    times.append(_parse_float(stamp))
                    weights.append(_parse_float(row[2]) if len(row) == 3 else 1.0)
                except ValueError as error:
                    raise TraceFormatError(str(error), line=lineno) from None
                clients.append(client)
                linenos.append(lineno)
            return cls._assemble(
                times, clients, weights, name=label, sort=sort, lines=linenos
            )

    @classmethod
    def from_jsonl(
        cls,
        source: Union[str, Path, IO[str]],
        *,
        name: Optional[str] = None,
        sort: bool = False,
    ) -> "Trace":
        """Parse newline-delimited JSON objects (gzip-transparent).

        Each line is an object with a timestamp under ``t``/``time``/
        ``timestamp``, a client id under ``client``/``client_id`` and an
        optional ``weight``/``w``.  Blank lines are skipped; anything else
        malformed raises :class:`TraceFormatError` naming the line.
        """
        with _open_source(source) as stream:
            label = name if name is not None else _source_name(source)
            times: List[Any] = []
            clients: List[Any] = []
            weights: List[Any] = []
            linenos: List[int] = []
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise TraceFormatError(
                        f"invalid JSON: {error}", line=lineno
                    ) from None
                if not isinstance(record, Mapping):
                    raise TraceFormatError(
                        f"expected a JSON object, got {type(record).__name__}",
                        line=lineno,
                    )
                stamp = _first_key(record, _TIME_KEYS)
                client = _first_key(record, _CLIENT_KEYS)
                if stamp is None:
                    raise TraceFormatError(
                        f"no timestamp field (one of {list(_TIME_KEYS)})",
                        line=lineno,
                    )
                if client is None:
                    raise TraceFormatError(
                        f"no client field (one of {list(_CLIENT_KEYS)})",
                        line=lineno,
                    )
                weight = _first_key(record, _WEIGHT_KEYS)
                try:
                    times.append(_parse_float(stamp))
                    weights.append(1.0 if weight is None else _parse_float(weight))
                except ValueError as error:
                    raise TraceFormatError(str(error), line=lineno) from None
                clients.append(client)
                linenos.append(lineno)
            return cls._assemble(
                times, clients, weights, name=label, sort=sort, lines=linenos
            )

    @classmethod
    def _assemble(
        cls,
        times: Sequence[Any],
        clients: Sequence[Any],
        weights: Sequence[Any],
        *,
        name: Optional[str],
        sort: bool,
        lines: Optional[Sequence[int]] = None,
    ) -> "Trace":
        """Validate parsed columns and encode clients categorically.

        ``lines`` maps event index -> source file line so errors detected
        here (after header/blank rows were skipped) still name the real
        line; without it the 1-based event index stands in.
        """

        def _line(index: int) -> int:
            return int(lines[index]) if lines is not None else index + 1

        stamps = np.asarray(times, dtype=float)
        mass = np.asarray(weights, dtype=float)
        if stamps.size == 0:
            raise TraceFormatError("trace holds no events")
        bad = np.flatnonzero(~np.isfinite(stamps))
        if bad.size:
            raise TraceFormatError(
                f"non-finite timestamp {stamps[bad[0]]!r}", line=_line(int(bad[0]))
            )
        bad = np.flatnonzero(~np.isfinite(mass) | (mass <= 0))
        if bad.size:
            raise TraceFormatError(
                f"event weight must be finite and > 0, got {mass[bad[0]]!r}",
                line=_line(int(bad[0])),
            )
        diffs = np.diff(stamps)
        if stamps.size > 1 and np.any(diffs < 0):
            if sort:
                order = np.argsort(stamps, kind="stable")
                stamps = stamps[order]
                mass = mass[order]
                clients = [clients[i] for i in order]
            else:
                where = int(np.flatnonzero(diffs < 0)[0]) + 1
                raise TraceFormatError(
                    f"timestamp {stamps[where]:g} is earlier than its "
                    f"predecessor {stamps[where - 1]:g} (pass sort=True to "
                    "reorder a shuffled log)",
                    line=_line(where),
                )
        code_of: Dict[Any, int] = {}
        codes = np.empty(stamps.size, dtype=np.intp)
        for index, client in enumerate(clients):
            code = code_of.get(client)
            if code is None:
                code = code_of.setdefault(client, len(code_of))
            codes[index] = code
        return cls(
            times=stamps,
            client_codes=codes,
            weights=mass,
            client_ids=tuple(code_of),
            name=name,
        )

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as newline-delimited JSON (gzip when ``*.gz``)."""
        with _open_sink(path) as stream:
            for t, client, weight in self.iter_events():
                record: Dict[str, Any] = {"t": t, "client": client}
                if weight != 1.0:
                    record["weight"] = weight
                stream.write(json.dumps(record) + "\n")

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as ``timestamp,client,weight`` CSV (gzip when ``*.gz``)."""
        with _open_sink(path) as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["timestamp", "client", "weight"])
            for t, client, weight in self.iter_events():
                writer.writerow([repr(t), client, repr(weight)])


def load_trace(
    path: Union[str, Path],
    *,
    format: Optional[str] = None,
    sort: bool = False,
) -> Trace:
    """Load a trace file, dispatching on extension (``format`` overrides).

    ``*.csv`` parses as CSV, ``*.jsonl`` / ``*.ndjson`` / ``*.json`` as
    newline-delimited JSON; a trailing ``.gz`` is transparent (the opener
    sniffs the gzip magic, so a mislabelled compressed file still loads).
    """
    suffixes = [s.lower() for s in Path(path).suffixes]
    if suffixes and suffixes[-1] == ".gz":
        suffixes = suffixes[:-1]
    kind = format
    if kind is None:
        if suffixes and suffixes[-1] == ".csv":
            kind = "csv"
        elif suffixes and suffixes[-1] in (".jsonl", ".ndjson", ".json"):
            kind = "jsonl"
        else:
            raise TraceFormatError(
                f"cannot infer the trace format of {str(path)!r}; pass "
                "format='csv' or format='jsonl'"
            )
    if kind == "csv":
        return Trace.from_csv(path, sort=sort)
    if kind == "jsonl":
        return Trace.from_jsonl(path, sort=sort)
    raise TraceFormatError(f"unknown trace format {kind!r} (csv or jsonl)")


# --------------------------------------------------------------------------- #
# epoch detection and rate estimation
# --------------------------------------------------------------------------- #
@dataclass
class TraceEpochs:
    """Piecewise-constant epoch model estimated from a trace.

    ``boundaries`` holds the ``k + 1`` increasing epoch edges spanning the
    trace, ``rates`` the estimated per-epoch per-client request rates
    (``(k, len(trace.client_ids))``, weighted events per time unit) and
    ``method`` how the boundaries were placed (``"detected"`` or
    ``"fixed"``).
    """

    trace: Trace
    boundaries: np.ndarray
    rates: np.ndarray
    method: str

    @property
    def epoch_count(self) -> int:
        return int(self.boundaries.size - 1)

    @property
    def client_ids(self) -> Tuple[NodeId, ...]:
        return self.trace.client_ids

    @property
    def widths(self) -> np.ndarray:
        """Per-epoch durations."""
        return np.diff(self.boundaries)

    @property
    def total_rates(self) -> np.ndarray:
        """Per-epoch total request rate (all clients)."""
        return self.rates.sum(axis=1)

    @property
    def mean_rate(self) -> float:
        """Time-weighted mean total rate over the whole span."""
        widths = self.widths
        return float((self.total_rates * widths).sum() / widths.sum())

    # ------------------------------------------------------------------ #
    def problems(
        self,
        base: Union[TreeNetwork, ReplicaPlacementProblem],
        *,
        rate_scale: float = 1.0,
        integral: bool = True,
    ) -> List[ReplicaPlacementProblem]:
        """The epoch sequence as structure-shared problem forks over ``base``.

        Epoch ``t`` is a :meth:`~repro.core.tree.TreeNetwork.with_requests`
        fork of the previous epoch's tree carrying the estimated rates
        (scaled by ``rate_scale`` and, by default, rounded to the integral
        request model), so consecutive epochs share every structural cache
        and feed the incremental resolver exactly like the synthetic
        trajectory generators.  Clients of ``base`` absent from the trace
        run at rate 0; trace clients unknown to the tree raise
        :class:`TraceFormatError`.
        """
        if not np.isfinite(rate_scale) or rate_scale <= 0:
            raise WorkloadError(f"rate_scale must be finite and > 0, got {rate_scale}")
        problem = as_base_problem(base)
        tree = problem.tree
        known = set(tree.client_ids)
        unknown = [cid for cid in self.client_ids if cid not in known]
        if unknown:
            shown = ", ".join(repr(cid) for cid in unknown[:5])
            more = f" (+{len(unknown) - 5} more)" if len(unknown) > 5 else ""
            raise TraceFormatError(
                f"trace clients not in the target tree: {shown}{more}"
            )
        silent = {
            cid: 0.0 for cid in tree.client_ids if cid not in set(self.client_ids)
        }
        sequence: List[ReplicaPlacementProblem] = []
        current = tree
        for t in range(self.epoch_count):
            updates = dict(silent)
            for j, cid in enumerate(self.client_ids):
                value = float(self.rates[t, j]) * rate_scale
                updates[cid] = (
                    float(max(0, round(value))) if integral else float(value)
                )
            current = current.with_requests(updates)
            sequence.append(_epoch_problem(problem, current, t))
        return sequence

    def intensity(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(breakpoints, rates)`` of the total piecewise-constant intensity.

        Directly consumable by :func:`~repro.workloads.distributions.
        inversion_poisson_arrivals`.
        """
        return self.boundaries.copy(), self.total_rates

    def arrival_schedule(
        self,
        rng: np.random.Generator,
        *,
        horizon: Optional[float] = None,
        mean_rate: Optional[float] = None,
    ) -> np.ndarray:
        """Sample a replay arrival schedule from the estimated intensity.

        The piecewise-constant total intensity is rebased to start at 0,
        optionally compressed/stretched so the span becomes ``horizon``
        (per-epoch *expected counts* are preserved), optionally rescaled so
        the time-weighted mean rate becomes ``mean_rate``, and sampled with
        the exact inversion method -- genuine micro-bursts at epoch
        transitions instead of a metronome.
        """
        edges = self.boundaries - self.boundaries[0]
        levels = self.total_rates.astype(float).copy()
        span = float(edges[-1])
        if horizon is not None:
            horizon = float(horizon)
            if not np.isfinite(horizon) or horizon <= 0:
                raise WorkloadError(
                    f"horizon must be finite and > 0, got {horizon}"
                )
            scale = horizon / span
            edges = edges * scale
            levels = levels / scale
        if mean_rate is not None:
            mean_rate = float(mean_rate)
            if not np.isfinite(mean_rate) or mean_rate <= 0:
                raise WorkloadError(
                    f"mean_rate must be finite and > 0, got {mean_rate}"
                )
            widths = np.diff(edges)
            current = float((levels * widths).sum() / widths.sum())
            if current > 0:
                levels = levels * (mean_rate / current)
        return inversion_poisson_arrivals(rng, edges, levels)

    # ------------------------------------------------------------------ #
    def summary(self, *, path: Optional[str] = None) -> "TraceSummary":
        """The registered :class:`TraceSummary` result for this model."""
        indexer = self.trace.indexer()
        k = self.epoch_count
        spans = np.clip(
            np.searchsorted(self.boundaries, self.trace.times, side="right") - 1,
            0,
            k - 1,
        )
        counts = np.bincount(spans, minlength=k)
        epochs: List[Dict[str, Any]] = []
        for t in range(k):
            order = np.argsort(self.rates[t])[::-1]
            top = [
                [self.client_ids[int(j)], float(self.rates[t, int(j)])]
                for j in order[:3]
                if self.rates[t, int(j)] > 0
            ]
            epochs.append(
                {
                    "start": float(self.boundaries[t]),
                    "end": float(self.boundaries[t + 1]),
                    "events": int(counts[t]),
                    "rate": float(self.total_rates[t]),
                    "top": top,
                }
            )
        start, end = self.trace.span
        return TraceSummary(
            events=self.trace.events,
            clients=len(self.client_ids),
            start=start,
            end=end,
            total_weight=self.trace.total_weight,
            method=self.method,
            boundaries=[float(b) for b in self.boundaries],
            epochs=epochs,
            path=path,
            name=self.trace.name if path is None else path,
        )


def _estimate_rates(trace: Trace, boundaries: np.ndarray) -> np.ndarray:
    """Weighted per-epoch per-client rates for the given epoch edges.

    Events exactly at the final boundary (the last event of the trace, by
    construction) are clamped into the last epoch so no mass is dropped.
    """
    k = boundaries.size - 1
    n = len(trace.client_ids)
    spans = np.clip(
        np.searchsorted(boundaries, trace.times, side="right") - 1, 0, k - 1
    )
    flat = spans * n + trace.client_codes
    mass = np.bincount(flat, weights=trace.weights, minlength=k * n)
    widths = np.diff(boundaries)
    return mass.reshape(k, n) / widths[:, None]


def fixed_epochs(trace: Trace, epochs: int) -> TraceEpochs:
    """Equal-width epoch model: the deterministic fallback to detection."""
    if epochs < 1:
        raise WorkloadError(f"need at least one epoch, got {epochs}")
    start, end = trace.span
    if not end > start:
        raise WorkloadError(
            "cannot build epochs over a zero-length trace span "
            f"(all {trace.events} events at t={start:g})"
        )
    boundaries = np.linspace(start, end, epochs + 1)
    return TraceEpochs(
        trace=trace,
        boundaries=boundaries,
        rates=_estimate_rates(trace, boundaries),
        method="fixed",
    )


def detect_epochs(
    trace: Trace,
    *,
    bins: Optional[int] = None,
    window: Optional[int] = None,
    threshold: float = 4.0,
    min_segment: Optional[int] = None,
    max_epochs: int = 16,
) -> TraceEpochs:
    """Place epoch boundaries where the trace's traffic actually moves.

    The span is cut into ``bins`` equal bins (default: ``events // 32``
    clamped to ``[8, 256]``) and the per-bin weighted event mass is scored
    at every interior bin edge with a sliding-window mean-shift statistic:
    with ``l`` and ``r`` the mean mass of the ``window`` bins left and
    right of the edge, the score is ``|r - l| / sqrt((l + r + 1) / window)``
    -- a Poisson z-statistic (the ``+ 1`` is a continuity guard for empty
    windows).

    The total-mass statistic is blind to *antiphase* shifts -- two clients
    trading traffic while the aggregate stays flat -- so each edge also
    gets a **weighted per-client score**: the same z-statistic computed on
    each heavy client's own binned mass (the top clients by weight share,
    capped at 32 so a million-client log stays one bincount), combined as
    the weight-share-weighted mean.  An edge's final score is the maximum
    of the total-mass and per-client scores, so a rebalancing boundary that
    conserves total rate still clears ``threshold``.

    A greedy changepoint pass then accepts edges in descending score
    order, subject to ``score >= threshold``, a spacing of at least
    ``min_segment`` bins from every accepted edge and the span ends (the
    minimum-segment guard), and at most ``max_epochs - 1`` cuts.

    A statistically flat trace yields a single epoch.  Boundary resolution
    is one bin width; :func:`fixed_epochs` is the deterministic fallback
    when the epoch grid is known a priori.
    """
    if max_epochs < 1:
        raise WorkloadError(f"max_epochs must be >= 1, got {max_epochs}")
    if not np.isfinite(threshold) or threshold <= 0:
        raise WorkloadError(f"threshold must be finite and > 0, got {threshold}")
    start, end = trace.span
    if not end > start:
        raise WorkloadError(
            "cannot detect epochs over a zero-length trace span "
            f"(all {trace.events} events at t={start:g})"
        )
    if bins is None:
        bins = int(np.clip(trace.events // 32, 8, 256))
    if bins < 2:
        raise WorkloadError(f"need at least two bins, got {bins}")
    if window is None:
        window = max(2, bins // 16)
    window = max(1, min(int(window), bins // 2))
    if min_segment is None:
        min_segment = window
    min_segment = max(1, int(min_segment))

    edges = np.linspace(start, end, bins + 1)
    slots = np.clip(
        np.searchsorted(edges, trace.times, side="right") - 1, 0, bins - 1
    )
    mass = np.bincount(slots, weights=trace.weights, minlength=bins)

    cuts: List[int] = []
    if max_epochs > 1 and bins >= 2 * window:
        prefix = np.concatenate(([0.0], np.cumsum(mass)))
        candidates = np.arange(window, bins - window + 1)
        left = (prefix[candidates] - prefix[candidates - window]) / window
        right = (prefix[candidates + window] - prefix[candidates]) / window
        scores = np.abs(right - left) / np.sqrt((left + right + 1.0) / window)

        # Weighted per-client component: an antiphase shift (clients trade
        # traffic, total stays flat) scores ~0 above, so also score each
        # heavy client's own mass curve and take the share-weighted mean.
        n_clients = len(trace.client_ids)
        if n_clients > 1:
            client_mass = np.bincount(
                trace.client_codes, weights=trace.weights, minlength=n_clients
            )
            heavy = np.argsort(client_mass, kind="stable")[::-1][:32]
            heavy = heavy[client_mass[heavy] > 0]
            if heavy.size > 1:
                shares = client_mass[heavy] / client_mass[heavy].sum()
                rows = np.full(n_clients, -1, dtype=np.intp)
                rows[heavy] = np.arange(heavy.size)
                keep = rows[trace.client_codes] >= 0
                flat = rows[trace.client_codes[keep]] * bins + slots[keep]
                per = np.bincount(
                    flat, weights=trace.weights[keep], minlength=heavy.size * bins
                ).reshape(heavy.size, bins)
                cpre = np.concatenate(
                    (np.zeros((heavy.size, 1)), np.cumsum(per, axis=1)), axis=1
                )
                c_left = (cpre[:, candidates] - cpre[:, candidates - window]) / window
                c_right = (cpre[:, candidates + window] - cpre[:, candidates]) / window
                c_scores = np.abs(c_right - c_left) / np.sqrt(
                    (c_left + c_right + 1.0) / window
                )
                scores = np.maximum(scores, shares @ c_scores)
        for pick in np.argsort(scores, kind="stable")[::-1]:
            if scores[pick] < threshold or len(cuts) >= max_epochs - 1:
                break
            cut = int(candidates[pick])
            if cut < min_segment or cut > bins - min_segment:
                continue
            if all(abs(cut - other) >= min_segment for other in cuts):
                cuts.append(cut)
        cuts.sort()

    boundaries = np.concatenate(([start], edges[cuts], [end]))
    return TraceEpochs(
        trace=trace,
        boundaries=boundaries,
        rates=_estimate_rates(trace, boundaries),
        method="detected",
    )


# --------------------------------------------------------------------------- #
# the synthetic-trace exporter (the round-trip pin)
# --------------------------------------------------------------------------- #
def sample_trace(
    trajectory: Sequence[Union[TreeNetwork, ReplicaPlacementProblem]],
    rng: np.random.Generator,
    *,
    epoch_duration: float = 1.0,
    rate_scale: float = 1.0,
    start: float = 0.0,
    name: Optional[str] = None,
) -> Trace:
    """Sample a synthetic request log from a rate-only epoch trajectory.

    Epoch ``t`` of ``trajectory`` (e.g. the output of the
    :mod:`repro.workloads.dynamic` generators) occupies
    ``[start + t*epoch_duration, start + (t+1)*epoch_duration)``; each
    client's arrivals are an inhomogeneous Poisson process whose
    piecewise-constant intensity is its per-epoch request rate times
    ``rate_scale``, sampled exactly by inversion.  Clients absent from an
    epoch's tree (join/leave trajectories) contribute rate 0 there.

    The inverse of the estimators: ``fixed_epochs(sample_trace(traj), T)``
    recovers the trajectory's boundaries exactly and its rates within
    Poisson tolerance -- the round-trip property the test suite pins.
    """
    problems = [as_base_problem(p) for p in trajectory]
    if not problems:
        raise WorkloadError("trajectory holds no epochs")
    epoch_duration = float(epoch_duration)
    if not np.isfinite(epoch_duration) or epoch_duration <= 0:
        raise WorkloadError(
            f"epoch_duration must be finite and > 0, got {epoch_duration}"
        )
    if not np.isfinite(rate_scale) or rate_scale <= 0:
        raise WorkloadError(f"rate_scale must be finite and > 0, got {rate_scale}")
    client_ids = problems[0].tree.client_ids
    members = [set(p.tree.client_ids) for p in problems]
    breakpoints = float(start) + epoch_duration * np.arange(len(problems) + 1)
    time_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []
    for j, cid in enumerate(client_ids):
        levels = [
            float(p.tree.requests(cid)) * rate_scale if cid in present else 0.0
            for p, present in zip(problems, members)
        ]
        arrivals = inversion_poisson_arrivals(rng, breakpoints, levels)
        if arrivals.size:
            time_parts.append(arrivals)
            code_parts.append(np.full(arrivals.size, j, dtype=np.intp))
    if not time_parts:
        raise WorkloadError(
            "trajectory rates are all zero; the sampled trace would be empty"
        )
    times = np.concatenate(time_parts)
    codes = np.concatenate(code_parts)
    order = np.argsort(times, kind="stable")
    return Trace(
        times=times[order],
        client_codes=codes[order],
        weights=np.ones(times.size),
        client_ids=tuple(client_ids),
        name=name,
    )


# --------------------------------------------------------------------------- #
# the registered trace summary (repro trace info)
# --------------------------------------------------------------------------- #
@register_result
@dataclass
class TraceSummary(ResultBase):
    """First-class summary of a trace and its estimated epoch model.

    Carries the ingest counters (events, clients, span, total weight) and
    the epoch model (method, boundaries, per-epoch rate table with the top
    clients) -- everything ``repro trace info`` prints, round-trippable
    through the unified result protocol.
    """

    payload_type = "trace_summary"

    events: int
    clients: int
    start: float
    end: float
    total_weight: float
    method: str
    boundaries: List[float]
    epochs: List[Dict[str, Any]]
    path: Optional[str] = None
    name: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def mean_rate(self) -> float:
        """Time-weighted mean total request rate."""
        return self.total_weight / self.duration if self.duration > 0 else 0.0

    def describe(self) -> str:
        label = f"{self.name or 'trace'}: " if (self.name or self.path) else ""
        return (
            f"{label}{self.events} events from {self.clients} clients over "
            f"[{self.start:g}, {self.end:g}] ({self.duration:g} time units), "
            f"{len(self.epochs)} epoch(s) ({self.method}), "
            f"mean rate {self.mean_rate:.1f}/unit"
        )

    def rate_table(self) -> str:
        """Aligned per-epoch rate table (the prose-mode CLI body)."""
        lines = []
        for t, epoch in enumerate(self.epochs):
            top = "  ".join(
                f"{client!r}:{rate:.1f}" for client, rate in epoch.get("top", [])
            )
            lines.append(
                f"epoch {t}: [{epoch['start']:g}, {epoch['end']:g})  "
                f"rate {epoch['rate']:.1f}/unit  "
                f"({epoch['events']} events)"
                + (f"  top {top}" if top else "")
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return self._tagged(
            {
                "events": self.events,
                "clients": self.clients,
                "start": encode_float(self.start),
                "end": encode_float(self.end),
                "total_weight": encode_float(self.total_weight),
                "method": self.method,
                "boundaries": [encode_float(b) for b in self.boundaries],
                "epochs": [
                    {
                        "start": encode_float(e["start"]),
                        "end": encode_float(e["end"]),
                        "events": int(e["events"]),
                        "rate": encode_float(e["rate"]),
                        "top": [
                            [client, encode_float(rate)]
                            for client, rate in e.get("top", [])
                        ],
                    }
                    for e in self.epochs
                ],
                "path": self.path,
                "name": self.name,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceSummary":
        return cls(
            events=int(payload["events"]),
            clients=int(payload["clients"]),
            start=decode_float(payload["start"]),
            end=decode_float(payload["end"]),
            total_weight=decode_float(payload["total_weight"]),
            method=str(payload["method"]),
            boundaries=[decode_float(b) for b in payload["boundaries"]],
            epochs=[
                {
                    "start": decode_float(e["start"]),
                    "end": decode_float(e["end"]),
                    "events": int(e["events"]),
                    "rate": decode_float(e["rate"]),
                    "top": [
                        [client, decode_float(rate)]
                        for client, rate in e.get("top", [])
                    ],
                }
                for e in payload["epochs"]
            ],
            path=payload.get("path"),
            name=payload.get("name"),
        )


# --------------------------------------------------------------------------- #
# file plumbing (gzip-transparent readers/writers)
# --------------------------------------------------------------------------- #
def _open_source(source: Union[str, Path, IO[str]]) -> IO[str]:
    """Open a path for text reading, decompressing gzip by magic bytes."""
    if hasattr(source, "read"):
        return _NonClosing(source)  # caller owns file objects
    raw = open(source, "rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
        if magic == b"\x1f\x8b":
            return io.TextIOWrapper(
                gzip.GzipFile(fileobj=raw), encoding="utf-8", newline=""
            )
        return io.TextIOWrapper(raw, encoding="utf-8", newline="")
    except Exception:
        raw.close()
        raise


def _open_sink(path: Union[str, Path]) -> IO[str]:
    """Open a path for text writing, gzip-compressing on a ``.gz`` suffix."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "wt", encoding="utf-8", newline="")
    return open(path, "w", encoding="utf-8", newline="")


class _NonClosing:
    """Context wrapper leaving caller-owned streams open on exit."""

    def __init__(self, stream: IO[str]):
        self._stream = stream

    def __enter__(self) -> IO[str]:
        return self._stream

    def __exit__(self, *exc_info: Any) -> None:
        return None


def _source_name(source: Union[str, Path, IO[str]]) -> Optional[str]:
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", None)


def _first_key(record: Mapping[str, Any], keys: Sequence[str]) -> Any:
    for key in keys:
        if key in record:
            return record[key]
    return None


def _parse_float(value: Any) -> float:
    """``float()`` with a message that names the offending value."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"not a number: {value!r}") from None
