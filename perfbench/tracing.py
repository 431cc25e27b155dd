"""In-memory span tracer for the benchmark's traced runs.

A span is ``[name, start, end, parent, op, ok]``: ``parent`` is the index of
the enclosing span (``-1`` for an op's root span), ``op`` the id of the op
it belongs to and ``ok`` an optional outcome flag (a heuristic returned a
solution, a bound was feasible, ...).

Spans come from two places, both in this package: ``with tracer.span(...)``
blocks around the benchmark's own calls, and wrappers that
:meth:`Tracer.patched` installs around public functions and methods of the
library for the length of a traced replay.  The library's source files are
never changed.  Spans are only recorded inside an open op (see
:meth:`Tracer.op`), so the benchmark's untimed output checks never show up
as layer time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

_NULL = contextlib.nullcontext()


class NullTracer:
    """The untraced run's tracer: every span is a shared no-op context."""

    def span(self, name: str):
        return _NULL


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str, op: int) -> list:
        # In memory a record also carries its own index (the parent link
        # of the spans opened beneath it); dump() writes the first six.
        parent = self._stack[-1][6] if self._stack else -1
        record = [name, 0.0, 0.0, parent, op, None, len(self.spans)]
        self.spans.append(record)
        self._stack.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list, ok: Optional[bool] = None) -> None:
        record[2] = time.perf_counter()
        record[5] = ok
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int, name: str = "op") -> Iterator[list]:
        """The root span of one op; layer spans nest under it."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        record = self._open(name, op_id)
        try:
            yield record
        finally:
            self._close(record)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[list]]:
        """A layer span around the benchmark's own call (inside an op)."""
        if not self._stack:
            yield None
            return
        record = self._open(name, self._stack[-1][4])
        try:
            yield record
        finally:
            self._close(record)

    def wrap(
        self,
        func: Callable,
        name,
        outcome: Optional[Callable[[object], bool]] = None,
    ) -> Callable:
        """``func`` with a span around every call made inside an op.

        ``name`` is a span name or a callable deriving it from the call's
        positional arguments (e.g. the heuristic instance of a method).
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            label = name(*args) if callable(name) else name
            record = tracer._open(label, tracer._stack[-1][4])
            ok = None
            try:
                result = func(*args, **kwargs)
                if outcome is not None:
                    ok = bool(outcome(result))
                return result
            finally:
                tracer._close(record, ok)

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[Tuple[object, str, object, Optional[Callable]]]):
        """Install span wrappers on ``(owner, attribute, name, outcome)`` targets.

        ``owner`` is a module or a class; class- and static methods keep
        their descriptor type.  Every original is restored on exit.
        """
        saved = []
        try:
            for owner, attribute, name, outcome in targets:
                original = (
                    owner.__dict__[attribute]
                    if isinstance(owner, type)
                    else getattr(owner, attribute)
                )
                if isinstance(original, (classmethod, staticmethod)):
                    replacement = type(original)(
                        self.wrap(original.__func__, name, outcome)
                    )
                else:
                    replacement = self.wrap(original, name, outcome)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` (duration minus direct
        children), ``ok``/``judged`` outcome counts and ``child_ok``/
        ``child_judged`` (outcomes of the spans directly beneath it)."""
        children = [0.0] * len(self.spans)
        for record in self.spans:
            if record[3] >= 0:
                children[record[3]] += record[2] - record[1]
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: dict.fromkeys(
                ("calls", "self_s", "ok", "judged", "child_ok", "child_judged"), 0.0
            )
        )
        for record, covered in zip(self.spans, children):
            entry = table[record[0]]
            entry["calls"] += 1
            entry["self_s"] += (record[2] - record[1]) - covered
            if record[5] is not None:
                entry["judged"] += 1
                entry["ok"] += record[5]
                if record[3] >= 0:
                    parent = table[self.spans[record[3]][0]]
                    parent["child_judged"] += 1
                    parent["child_ok"] += record[5]
        return dict(table)

    def op_durations(self, name: str = "op") -> List[float]:
        """Durations of the root spans called ``name``, in op order."""
        return [r[2] - r[1] for r in self.spans if r[3] < 0 and r[0] == name]

    def coverage(self) -> float:
        """Share of root-span time covered by the layer spans directly below."""
        total = covered = 0.0
        for record in self.spans:
            if record[3] < 0:
                total += record[2] - record[1]
            elif self.spans[record[3]][3] < 0:
                covered += record[2] - record[1]
        return covered / total if total > 0 else 0.0

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one ``[name, start, end, parent,
        op, ok]`` array per line, after a header naming the fields)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start_s", "end_s", "parent", "op", "ok"]))
            handle.write("\n")
            for record in self.spans:
                handle.write(json.dumps(record[:6]))
                handle.write("\n")


# --------------------------------------------------------------------------- #
# library wrap targets
# --------------------------------------------------------------------------- #
def _everywhere(function: Callable, name: str, outcome=None) -> list:
    """Targets for ``function`` in every loaded ``repro`` module that holds
    it (``from x import f`` copies the reference into the importer)."""
    targets = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                targets.append((module, attribute, name, outcome))
    return targets


def library_targets() -> list:
    """The public library calls the traced replays time, as wrap targets.

    Span names are the layer names of the per-layer metrics; see
    ``perfbench/design.json``.
    """
    import repro.algorithms  # noqa: F401 - registers every heuristic module
    from repro.algorithms.base import PlacementHeuristic
    from repro.algorithms.common import make_state
    from repro.algorithms.incremental import IncrementalResolver
    from repro.algorithms.portfolio import portfolio_solve
    from repro.core.index import TreeIndex
    from repro.core.solution import Solution
    from repro.core.tree import TreeNetwork
    from repro.core.validation import validate_solution
    from repro.lp import bounds as lp_bounds
    from repro.lp.ipfp import IPFPProgram
    from repro.serving.fingerprint import problem_fingerprint

    return [
        (TreeIndex, "for_tree", "core.index.build", None),
        (TreeIndex, "patched", "core.index.patch", None),
        (TreeNetwork, "with_requests", "core.tree.with_requests", None),
        (Solution, "cost", "core.solution.cost", None),
        (
            PlacementHeuristic,
            "try_solve",
            lambda heuristic, *_: f"algorithms.{heuristic.name}",
            lambda solution: solution is not None,
        ),
        (
            IncrementalResolver,
            "resolve",
            "algorithms.incremental.resolve",
            lambda pair: pair[1].strategy == "solved",
        ),
        (IPFPProgram, "with_requests", "lp.ipfp.retarget", None),
        (IPFPProgram, "solve", "lp.ipfp.solve", None),
        *_everywhere(make_state, "algorithms.state.build"),
        *_everywhere(validate_solution, "core.validation", lambda report: report.valid),
        *_everywhere(portfolio_solve, "algorithms.portfolio"),
        *_everywhere(lp_bounds.build_program, "lp.formulation.build"),
        *_everywhere(lp_bounds.solve_program, "lp.solver.solve"),
        *_everywhere(lp_bounds.lp_lower_bound, "lp.bounds", lambda bound: bound.feasible),
        *_everywhere(problem_fingerprint, "serving.fingerprint"),
    ]
