"""JSON serialization of trees, placements and solutions.

Experiment campaigns need to persist generated trees (so a run can be
reproduced exactly) and solver outputs (so relative-cost tables can be
recomputed without re-solving).  The format is deliberately plain JSON:

.. code-block:: json

    {
      "nodes":   [{"id": "root", "capacity": 10, "storage_cost": 10}, ...],
      "clients": [{"id": "c1", "requests": 7, "qos": null}, ...],
      "links":   [{"child": "c1", "parent": "root",
                   "comm_time": 1.0, "bandwidth": null}, ...]
    }

``null`` encodes the absence of a bound (``math.inf`` in memory).
"""

from __future__ import annotations

import json
import math
from array import array
from collections import deque
from itertools import chain, compress, repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.constraints import ConstraintSet, QoSMode
from repro.core.exceptions import SerializationError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import TreeNetwork

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


def _encode_bound(value: float) -> Optional[float]:
    return None if math.isinf(value) else value


def tree_to_dict(tree: TreeNetwork) -> Dict[str, Any]:
    """Serialise a tree network to a JSON-compatible dictionary.

    Reads the tree's columns: nodes and clients in breadth-first order,
    links in link order, and builds no record views.
    """
    metrics = tree._store.metrics
    link_order = tree._store.link_order
    return {
        "nodes": [
            {"id": node_id, "capacity": capacity, "storage_cost": cost}
            for node_id, capacity, cost in zip(
                tree.node_ids, tree.column("capacity"), tree.column("storage_cost")
            )
        ],
        "clients": [
            {"id": client_id, "requests": requests, "qos": _encode_bound(qos)}
            for client_id, requests, qos in zip(
                tree.client_ids, tree.column("requests"), tree.column("qos")
            )
        ],
        "links": [
            _link_to_dict(child, parent, comm_time, bandwidth, metrics.get(position))
            for (child, parent), comm_time, bandwidth, position in zip(
                tree.link_keys, tree.column("comm_time"), tree.column("bandwidth"), link_order
            )
        ],
    }


def _link_to_dict(child, parent, comm_time: float, bandwidth: float, metrics) -> Dict[str, Any]:
    entry = {
        "child": child,
        "parent": parent,
        "comm_time": comm_time,
        "bandwidth": _encode_bound(bandwidth),
    }
    # Omitted (rather than null) when absent so pre-metric tree files and
    # their digests stay byte-identical.
    if metrics is not None:
        entry["metrics"] = metrics.to_dict()
    return entry


#: ``null`` (or an absent key) is an unbounded QoS bound or bandwidth:
#: ``_BOUND(value, value)`` maps None to inf and keeps anything else.
_BOUND = {None: math.inf}.get

#: Fields of each section: (key, required, kind) -- "id" (hashable), "number"
#: (accepted by float()), "bound" (a number or null) or "metrics".
_FIELDS = {
    "nodes": (("id", True, "id"), ("capacity", True, "number"), ("storage_cost", False, "bound")),
    "clients": (("id", True, "id"), ("requests", True, "number"), ("qos", False, "bound")),
    "links": (
        ("child", True, "id"),
        ("parent", True, "id"),
        ("comm_time", False, "number"),
        ("bandwidth", False, "bound"),
        ("metrics", False, "metrics"),
    ),
}


def tree_from_dict(payload: Dict[str, Any]) -> TreeNetwork:
    """Rebuild a tree network from :func:`tree_to_dict` output.

    The payload's fields go straight into the tree's columns, a section at
    a time, with no record built.

    Raises
    ------
    SerializationError
        When a section or an entry is malformed; the message names the
        section, the index and the key (``tree.nodes[0] has no
        "capacity"``).
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
    nodes, clients, links = payload["nodes"], payload["clients"], payload["links"]
    node_ids = list(map(itemgetter("id"), nodes))
    capacity = array("d", map(float, map(itemgetter("capacity"), nodes)))
    storage = array(
        "d",
        (
            capacity_k if cost is None else float(cost)
            for cost, capacity_k in zip(map(dict.get, nodes, repeat("storage_cost")), capacity)
        ),
    )
    client_ids = list(map(itemgetter("id"), clients))
    requests = array("d", map(float, map(itemgetter("requests"), clients)))
    qos = list(map(dict.get, clients, repeat("qos")))
    qos = array("d", map(float, map(_BOUND, qos, qos)))
    link_child = list(map(itemgetter("child"), links))
    link_parent = list(map(itemgetter("parent"), links))
    comm_time = array("d", map(float, map(dict.get, links, repeat("comm_time"), repeat(1.0))))
    bandwidth = list(map(dict.get, links, repeat("bandwidth")))
    bandwidth = array("d", map(float, map(_BOUND, bandwidth, bandwidth)))
    annotated = list(map(dict.get, links, repeat("metrics")))
    metrics = {
        k: _metrics_from_dict(annotated[k])
        for k in compress(range(len(annotated)), map(is_not, annotated, repeat(None)))
    }
    # Unhashable ids fail here, where they can be named, not in the store.
    deque(map(hash, chain(node_ids, client_ids, link_child, link_parent)), 0)
    return (
        node_ids, capacity, storage, client_ids, requests, qos,
        link_child, link_parent, comm_time, bandwidth, metrics,
    )


def _metrics_from_dict(payload: Dict[str, Any]):
    from repro.qos.metrics import QoSMetrics

    return QoSMetrics.from_dict(payload)


def _payload_error(payload: Any) -> Optional[SerializationError]:
    """Name the first malformed section, entry or field of a tree payload."""
    if not isinstance(payload, dict):
        return SerializationError(f"tree is not an object (got {type(payload).__name__})")
    for section, fields in _FIELDS.items():
        if section not in payload:
            return SerializationError(f'tree has no "{section}"')
        entries = payload[section]
        if not isinstance(entries, (list, tuple)):
            return SerializationError(
                f"tree.{section} is not a list (got {type(entries).__name__})"
            )
        for k, entry in enumerate(entries):
            where = f"tree.{section}[{k}]"
            if not isinstance(entry, dict):
                return SerializationError(
                    f"{where} is not an object (got {type(entry).__name__})"
                )
            for key, required, kind in fields:
                if key not in entry:
                    if required:
                        return SerializationError(f'{where} has no "{key}"')
                    continue
                problem = _field_problem(kind, entry[key])
                if problem:
                    return SerializationError(f'{where} "{key}" {problem}: {entry[key]!r}')
    return None


def _field_problem(kind: str, value: Any) -> Optional[str]:
    try:
        if kind == "id":
            hash(value)
        elif kind == "metrics":
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
