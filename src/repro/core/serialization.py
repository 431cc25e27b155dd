"""JSON serialization of trees, placements and solutions.

Experiment campaigns need to persist generated trees (so a run can be
reproduced exactly) and solver outputs (so relative-cost tables can be
recomputed without re-solving).  The format is deliberately plain JSON.  A
tree is written a section at a time, as one list per field:

.. code-block:: json

    {
      "nodes":   {"id": ["root", "n1"], "capacity": [10, 4],
                  "storage_cost": [10, 2]},
      "clients": {"id": ["c1", "c2"], "requests": [7, 3], "qos": [null, 2]},
      "links":   {"child": ["n1", "c1", "c2"], "parent": ["root", "n1", "n1"],
                  "comm_time": [1.0, 2.0, 1.0], "bandwidth": [null, 5, null],
                  "metrics": {"1": {"latency": 0.5, "jitter": 0.0,
                                    "loss": 0.0, "bandwidth": null}}}
    }

Nodes and clients are listed in breadth-first order and links in link
order; ``metrics`` maps a link's index to its QoS metrics.  ``null``
encodes the absence of a bound (``math.inf`` in memory).  A column whose
every entry is the reader's default is left out: storage cost equal to
capacity, comm time 1.0, no QoS bound, no bandwidth bound, no metrics.

The earlier record layout, one object per element, is still read::

    {"nodes": [{"id": "root", "capacity": 10, "storage_cost": 10}, ...],
     "clients": [{"id": "c1", "requests": 7, "qos": null}, ...],
     "links": [{"child": "c1", "parent": "root", "comm_time": 1.0,
                "bandwidth": null}, ...]}

:func:`tree_from_dict` tells the layouts apart by type (an object of lists
or a list of objects) and transposes records into columns, so both go
through one parser.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import deque
from itertools import chain, compress, repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

import numpy as np

from repro.core.constraints import ConstraintSet, QoSMode
from repro.core.exceptions import SerializationError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import TreeNetwork, _view

__all__ = [
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
    "constraints_to_dict",
    "constraints_from_dict",
    "problem_to_dict",
    "problem_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "save_result",
    "load_result",
]


def tree_to_dict(tree: TreeNetwork) -> Dict[str, Any]:
    """Serialise a tree network to a JSON-compatible dictionary of columns.

    Reads the store's id and value columns: nodes and clients in
    breadth-first order, links in link order, with no record view and no
    per-element object built.
    """
    store = tree._store
    nodes = store.bfs(clients=False)
    clients = store.bfs(clients=True) - store.n_nodes
    links = _view(store.link_order)
    ids = store.ids
    child = list(map(ids.__getitem__, links.tolist()))
    parent = list(map(ids.__getitem__, _view(store.parent)[links].tolist()))
    # Endpoints declared with another type than the element's id (1.0 for 1).
    for k, (declared_child, declared_parent) in _by_link(links, store.endpoints):
        child[k], parent[k] = declared_child, declared_parent
    comm = _view(store.comm)[links]
    return {
        "nodes": _present(
            id=list(store.node_ids),
            capacity=_view(store.capacity)[nodes].tolist(),
            storage_cost=(
                None
                if store.storage.tobytes() == store.capacity.tobytes()
                else _view(store.storage)[nodes].tolist()
            ),
        ),
        "clients": _present(
            id=list(store.client_ids),
            requests=_view(tree._requests)[clients].tolist(),
            qos=_bounds(_view(store.qos)[clients]),
        ),
        "links": _present(
            child=child,
            parent=parent,
            comm_time=comm.tolist() if (comm != 1.0).any() else None,
            bandwidth=_bounds(_view(store.bandwidth)[links]),
            metrics={str(k): value.to_dict() for k, value in _by_link(links, store.metrics)}
            or None,
        ),
    }


def _present(**columns: Any) -> Dict[str, Any]:
    """The given columns less the ``None`` ones, whose every entry is the
    reader's default."""
    return {key: column for key, column in columns.items() if column is not None}


def _bounds(values: np.ndarray) -> Optional[list]:
    """A bound column with ``null`` for inf, or None when all are inf."""
    unbounded = np.isinf(values)
    if unbounded.all():
        return None
    column = values.tolist()
    for k in np.flatnonzero(unbounded).tolist():
        column[k] = None
    return column


def _by_link(links: np.ndarray, sparse: Mapping[int, Any]) -> Iterable:
    """``(link index, value)`` of each link whose child position ``sparse``
    maps, in link order."""
    if not sparse:
        return ()
    at = np.flatnonzero(np.isin(links, list(sparse)))
    return zip(at.tolist(), map(sparse.__getitem__, links[at].tolist()))


#: The default of a field that every element must set.
_REQUIRED = object()

#: Fields of each section: (key, kind, default).  The kind is "id"
#: (hashable), "number" (accepted by float()), "bound" (a number or null)
#: or "metrics"; the default is what a record without the key holds.
_FIELDS = {
    "nodes": (
        ("id", "id", _REQUIRED),
        ("capacity", "number", _REQUIRED),
        ("storage_cost", "bound", None),
    ),
    "clients": (
        ("id", "id", _REQUIRED),
        ("requests", "number", _REQUIRED),
        ("qos", "bound", None),
    ),
    "links": (
        ("child", "id", _REQUIRED),
        ("parent", "id", _REQUIRED),
        ("comm_time", "number", 1.0),
        ("bandwidth", "bound", None),
        ("metrics", "metrics", None),
    ),
}


def tree_from_dict(payload: Dict[str, Any]) -> TreeNetwork:
    """Rebuild a tree network from :func:`tree_to_dict` output.

    Accepts both layouts (see the module docstring): a section is an
    object of columns or a list of records, which is transposed into
    columns first.  The columns go straight into the tree's store, with
    no record built.

    Raises
    ------
    SerializationError
        When a section, a column or an entry is malformed; the message
        names the section, the column or record index and the key
        (``tree.nodes.capacity[3] is not a number: 'lots'``,
        ``tree.nodes[0] has no "capacity"``).
    TreeStructureError
        When the values or the structure are invalid (a negative capacity,
        a duplicate id, a cycle, ...), as the constructor reports them.
    """
    try:
        columns = _tree_columns(payload)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
        error = _payload_error(payload)
        if error is None:
            raise
        raise error from None
    return TreeNetwork.from_columns(*columns)


def _tree_columns(payload: Dict[str, Any]):
    nodes, clients, links = (_section(payload[name], fields) for name, fields in _FIELDS.items())
    node_ids = _column(nodes, "id")
    capacity = _numbers(nodes, "capacity", len(node_ids))
    storage = _numbers(nodes, "storage_cost", len(node_ids), capacity, nullable=True)
    client_ids = _column(clients, "id")
    requests = _numbers(clients, "requests", len(client_ids))
    qos = _numbers(clients, "qos", len(client_ids), math.inf, nullable=True)
    link_child = _column(links, "child")
    n_links = len(link_child)
    link_parent = _column(links, "parent", n_links)
    comm_time = _numbers(links, "comm_time", n_links, 1.0)
    bandwidth = _numbers(links, "bandwidth", n_links, math.inf, nullable=True)
    metrics = {
        _link_index(key, n_links): _metrics_from_dict(entry)
        for key, entry in links.get("metrics", {}).items()
        if entry is not None
    }
    # Unhashable ids fail here, where they can be named, not in the store.
    deque(map(hash, chain(node_ids, client_ids, link_child, link_parent)), 0)
    return (
        node_ids, capacity, storage, client_ids, requests, qos,
        link_child, link_parent, comm_time, bandwidth, metrics,
    )


def _section(entries: Any, fields) -> Dict[str, Any]:
    """A section as columns: an object of columns as it is, a list of
    records transposed (absent keys take the field's default, and link
    metrics become the sparse ``{index: metrics}`` map)."""
    if isinstance(entries, dict):
        return entries
    columns = {}
    for key, kind, default in fields:
        if default is _REQUIRED:
            values = list(map(itemgetter(key), entries))
        else:
            values = list(map(dict.get, entries, repeat(key), repeat(default)))
        if kind == "metrics":
            values = dict(compress(enumerate(values), map(is_not, values, repeat(None))))
        columns[key] = values
    return columns


def _column(columns: Dict[str, Any], key: str, size: Optional[int] = None) -> list:
    """Column ``key``, which must be a list (of ``size`` entries)."""
    column = columns[key]
    if not isinstance(column, (list, tuple)) or size not in (None, len(column)):
        raise ValueError(f"malformed column {key!r}")
    return column


def _numbers(
    columns, key: str, size: int, default: Any = _REQUIRED, nullable: bool = False
) -> array:
    """Column ``key`` as ``array("d")``, each entry read as ``float()``
    reads it.

    A left-out column is ``default`` (a number, or a column giving each
    entry's value); a ``nullable`` column's ``None`` entries take the
    default too, and any other column's are an error.
    """
    if key not in columns and default is not _REQUIRED:
        return array("d", [default]) * size if isinstance(default, float) else default
    column = _column(columns, key, size)
    try:
        return array("d", column)
    except TypeError:
        if not nullable:
            return array("d", map(float, column))
    if isinstance(default, float):
        fill = {None: default}.get
        return array("d", map(float, map(fill, column, column)))
    return array("d", (other if value is None else float(value) for value, other in zip(column, default)))


def _link_index(key: Any, n_links: int) -> int:
    """The link index a metrics key names (decimal, as JSON keys are)."""
    index = int(key)
    if str(index) != str(key) or not 0 <= index < n_links:
        raise ValueError(f"not a link index: {key!r}")
    return index


def _metrics_from_dict(payload: Dict[str, Any]):
    from repro.qos.metrics import QoSMetrics

    return QoSMetrics.from_dict(payload)


def _payload_error(payload: Any) -> Optional[SerializationError]:
    """Name the first malformed section, column, entry or field of a tree
    payload, in either layout."""
    if not isinstance(payload, dict):
        return SerializationError(f"tree is not an object (got {type(payload).__name__})")
    for section, fields in _FIELDS.items():
        if section not in payload:
            return SerializationError(f'tree has no "{section}"')
        entries = payload[section]
        if isinstance(entries, dict):
            problem = _columns_problem(section, fields, entries)
        elif isinstance(entries, (list, tuple)):
            problem = _records_problem(section, fields, entries)
        else:
            problem = (
                f"tree.{section} is neither a list of records nor an object of "
                f"columns (got {type(entries).__name__})"
            )
        if problem:
            return SerializationError(problem)
    return None


def _records_problem(section: str, fields, entries: list) -> Optional[str]:
    for k, entry in enumerate(entries):
        where = f"tree.{section}[{k}]"
        if not isinstance(entry, dict):
            return f"{where} is not an object (got {type(entry).__name__})"
        for key, kind, default in fields:
            if key not in entry:
                if default is _REQUIRED:
                    return f'{where} has no "{key}"'
                continue
            problem = _field_problem(kind, entry[key])
            if problem:
                return f'{where} "{key}" {problem}: {entry[key]!r}'
    return None


def _columns_problem(section: str, fields, columns: dict) -> Optional[str]:
    size = first = None
    for key, kind, default in fields:
        where = f"tree.{section}.{key}"
        if key not in columns:
            if default is _REQUIRED:
                return f'tree.{section} has no "{key}"'
            continue
        column = columns[key]
        if kind == "metrics":
            if not isinstance(column, dict):
                return f"{where} is not an object (got {type(column).__name__})"
            for index, entry in column.items():
                try:
                    _link_index(index, size)
                except (TypeError, ValueError):
                    return f"{where} key {index!r} is not the index of one of the {size} links"
                problem = _field_problem(kind, entry)
                if problem:
                    return f"{where}[{index!r}] {problem}: {entry!r}"
            continue
        if not isinstance(column, (list, tuple)):
            return f"{where} is not a list (got {type(column).__name__})"
        if size is None:
            size, first = len(column), where
        elif len(column) != size:
            return f"{where} has {len(column)} entries where {first} has {size}"
        for k, value in enumerate(column):
            problem = _field_problem(kind, value)
            if problem:
                return f"{where}[{k}] {problem}: {value!r}"
    return None


def _field_problem(kind: str, value: Any) -> Optional[str]:
    try:
        if kind == "id":
            hash(value)
        elif kind == "metrics":
            if value is not None:
                _metrics_from_dict(value)
        elif value is not None or kind == "number":
            float(value)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as error:
        return {"id": "is not hashable", "metrics": f"is malformed ({error})"}.get(
            kind, "is not a number"
        )
    return None


def save_tree(tree: TreeNetwork, path: Union[str, Path]) -> Path:
    """Write a tree network to ``path`` as JSON and return the path."""
    path = Path(path)
    path.write_text(json.dumps(tree_to_dict(tree), indent=2, sort_keys=True))
    return path


def load_tree(path: Union[str, Path]) -> TreeNetwork:
    """Read a tree network previously written by :func:`save_tree`."""
    payload = json.loads(Path(path).read_text())
    return tree_from_dict(payload)


def constraints_to_dict(constraints: ConstraintSet) -> Dict[str, Any]:
    """Serialise a constraint set to a JSON-compatible dictionary.

    Plain :class:`ConstraintSet` instances and the built-in
    :class:`~repro.core.constraints.ClassedConstraintSet` (whose behaviour
    is fully determined by its data: classes, assignments, default) both
    round-trip.  Any other subclass carries behaviour (custom metrics,
    non-monotone filters) that no JSON payload can reproduce, so
    serialising one raises
    :class:`~repro.core.exceptions.SerializationError` instead of silently
    downgrading it to the base semantics.
    """
    from repro.core.constraints import ClassedConstraintSet

    if type(constraints) is ClassedConstraintSet:
        return {
            "type": "classed",
            "qos_mode": constraints.qos_mode.value,
            "enforce_bandwidth": constraints.enforce_bandwidth,
            "classes": [entry.to_dict() for entry in constraints.classes],
            "assignments": [
                [client, name] for client, name in constraints.assignments
            ],
            "default_class": constraints.default_class,
        }
    if type(constraints) is not ConstraintSet:
        raise SerializationError(
            f"cannot serialise constraint set of type "
            f"{type(constraints).__qualname__}; only plain ConstraintSet "
            "instances round-trip through JSON"
        )
    return {
        "qos_mode": constraints.qos_mode.value,
        "enforce_bandwidth": constraints.enforce_bandwidth,
    }


def constraints_from_dict(payload: Dict[str, Any]) -> ConstraintSet:
    """Rebuild a constraint set from :func:`constraints_to_dict` output."""
    tag = payload.get("type", "base")
    if tag == "classed":
        from repro.core.constraints import ClassedConstraintSet
        from repro.qos.metrics import ServiceClass

        return ClassedConstraintSet(
            qos_mode=QoSMode.parse(payload.get("qos_mode", "score")),
            enforce_bandwidth=bool(payload.get("enforce_bandwidth", False)),
            classes=tuple(
                ServiceClass.from_dict(entry) for entry in payload.get("classes", ())
            ),
            assignments=tuple(
                (entry[0], entry[1]) for entry in payload.get("assignments", ())
            ),
            default_class=str(payload.get("default_class", "")),
        )
    if tag != "base":
        raise SerializationError(f"unknown constraint-set payload type {tag!r}")
    return ConstraintSet(
        qos_mode=QoSMode.parse(payload.get("qos_mode", "none")),
        enforce_bandwidth=bool(payload.get("enforce_bandwidth", False)),
    )


def problem_to_dict(problem: ReplicaPlacementProblem) -> Dict[str, Any]:
    """Serialise a fully-specified problem (tree + constraints + cost mode).

    This is the on-the-wire instance format of the serving protocol
    (:mod:`repro.serving`) and of session snapshots: everything a server
    needs to rebuild an equivalent
    :class:`~repro.core.problem.ReplicaPlacementProblem` in another process.
    """
    return {
        "tree": tree_to_dict(problem.tree),
        "constraints": constraints_to_dict(problem.constraints),
        "kind": problem.kind.value,
        "name": problem.name,
    }


def problem_from_dict(payload: Dict[str, Any]) -> ReplicaPlacementProblem:
    """Rebuild a problem from :func:`problem_to_dict` output."""
    if "tree" not in payload:
        raise SerializationError(
            'problem payloads need a "tree" entry (see problem_to_dict)'
        )
    tree = tree_from_dict(payload["tree"])
    constraints = payload.get("constraints")
    name = payload.get("name")
    return ReplicaPlacementProblem(
        tree=tree,
        constraints=(
            constraints_from_dict(constraints)
            if constraints is not None
            else ConstraintSet.none()
        ),
        kind=ProblemKind(payload.get("kind", ProblemKind.REPLICA_COST.value)),
        name=None if name is None else str(name),
    )


def solution_to_dict(solution: Solution) -> Dict[str, Any]:
    """Serialise a solution (placement + assignment) to a dictionary."""
    return {
        "algorithm": solution.algorithm,
        "policy": solution.policy.value,
        "replicas": list(solution.placement.sorted()),
        "assignment": [
            {"client": client, "server": server, "requests": amount}
            for (client, server), amount in sorted(
                solution.assignment.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
            )
        ],
    }


def save_result(result, path: Union[str, Path]) -> Path:
    """Write any unified-protocol result to ``path`` as JSON.

    ``result`` is any object implementing the
    :class:`repro.core.results.ResultBase` protocol (sequence, bound,
    compare and campaign results all qualify); the payload is the tagged
    :meth:`to_dict` output, so :func:`load_result` can rebuild the original
    object without knowing its type in advance.
    """
    path = Path(path)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return path


def load_result(path: Union[str, Path]):
    """Rebuild a result previously written by :func:`save_result`.

    Raises
    ------
    SerializationError
        When the file is not valid JSON or its payload cannot be decoded;
        the message names the offending file, so a failure inside a batch
        of result files points at the culprit.
    """
    from repro.core.results import result_from_dict

    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        raise SerializationError(f"{path}: not a JSON result file ({error})") from None
    try:
        return result_from_dict(payload)
    except SerializationError as error:
        raise SerializationError(f"{path}: {error}") from None


def solution_from_dict(payload: Dict[str, Any]) -> Solution:
    """Rebuild a solution from :func:`solution_to_dict` output."""
    amounts = {
        (entry["client"], entry["server"]): float(entry["requests"])
        for entry in payload.get("assignment", [])
    }
    return Solution(
        placement=Placement(payload.get("replicas", [])),
        assignment=Assignment(amounts),
        policy=Policy.parse(payload.get("policy", "multiple")),
        algorithm=payload.get("algorithm", "unknown"),
    )
