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
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.constraints import ConstraintSet, QoSMode
from repro.core.exceptions import SerializationError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import Client, InternalNode, Link, TreeNetwork

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
    """Serialise a tree network to a JSON-compatible dictionary."""
    return {
        "nodes": [
            {
                "id": node.id,
                "capacity": node.capacity,
                "storage_cost": node.storage_cost,
            }
            for node in tree.nodes()
        ],
        "clients": [
            {
                "id": client.id,
                "requests": client.requests,
                "qos": _encode_bound(client.qos),
            }
            for client in tree.clients()
        ],
        "links": [_link_to_dict(link) for link in tree.links()],
    }


def _link_to_dict(link: Link) -> Dict[str, Any]:
    entry = {
        "child": link.child,
        "parent": link.parent,
        "comm_time": link.comm_time,
        "bandwidth": _encode_bound(link.bandwidth),
    }
    # Omitted (rather than null) when absent so pre-metric tree files and
    # their digests stay byte-identical.
    if link.metrics is not None:
        entry["metrics"] = link.metrics.to_dict()
    return entry


def tree_from_dict(payload: Dict[str, Any]) -> TreeNetwork:
    """Rebuild a tree network from :func:`tree_to_dict` output."""
    seen: Dict[str, str] = {}

    def shared(value):
        # JSON decoding gives every occurrence of an id its own str; one
        # object per id lets the id-keyed lookups of every later layer hit
        # on identity instead of comparing text.
        return seen.setdefault(value, value) if type(value) is str else value

    nodes = [
        InternalNode(
            shared(entry["id"]),
            float(entry["capacity"]),
            None if (cost := entry.get("storage_cost")) is None else float(cost),
        )
        for entry in payload["nodes"]
    ]
    clients = [
        Client(
            shared(entry["id"]),
            float(entry["requests"]),
            math.inf if (qos := entry.get("qos")) is None else float(qos),
        )
        for entry in payload["clients"]
    ]
    links = [
        Link(
            shared(entry["child"]),
            shared(entry["parent"]),
            float(entry.get("comm_time", 1.0)),
            math.inf if (bandwidth := entry.get("bandwidth")) is None else float(bandwidth),
            None if (metrics := entry.get("metrics")) is None else _metrics_from_dict(metrics),
        )
        for entry in payload["links"]
    ]
    return TreeNetwork(nodes, clients, links)


def _metrics_from_dict(payload: Dict[str, Any]):
    from repro.qos.metrics import QoSMetrics

    return QoSMetrics.from_dict(payload)


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
    try:
        tree = tree_from_dict(payload["tree"])
    except KeyError:
        raise SerializationError(
            'problem payloads need a "tree" entry (see problem_to_dict)'
        ) from None
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
