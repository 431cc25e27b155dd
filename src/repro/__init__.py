"""repro - Replica placement strategies in tree networks.

This package reproduces the system described in

    Anne Benoit, Veronika Rehn, Yves Robert,
    "Strategies for Replica Placement in Tree Networks",
    INRIA RR-6040 / IPDPS 2007.

It provides:

* a tree-network substrate (clients, internal nodes, links, QoS and
  bandwidth attributes) in :mod:`repro.core`,
* the three access policies *Closest*, *Upwards* and *Multiple*,
* the optimal polynomial algorithm for the Multiple policy on homogeneous
  platforms (paper Section 4.1) in :mod:`repro.algorithms`,
* the eight polynomial heuristics of paper Section 6 plus the MixedBest
  combiner,
* integer/rational linear-programming formulations and the LP-based lower
  bound of paper Section 5 in :mod:`repro.lp`,
* workload generators and the paper's reference trees in
  :mod:`repro.workloads`,
* the experiment harness regenerating paper Figures 9-12 and Table 1 in
  :mod:`repro.experiments`,
* a stateful, cache-owning session API
  (:class:`~repro.session.PlacementSession`) with a unified
  ``describe()``/``to_dict()``/``to_json()`` result protocol in
  :mod:`repro.session` and :mod:`repro.core.results`,
* a multi-tenant serving subsystem (:mod:`repro.serving`): a
  fingerprint-keyed LRU pool of resident sessions behind a JSON request
  protocol over stdio, TCP and HTTP (``repro serve``), with snapshot
  persistence across restarts and a ``connect()`` client proxy,
* extensions of paper Section 8 (multiple objects, richer objective
  functions) in :mod:`repro.multiobject` and :mod:`repro.objectives`.

Every public name of this package resolves on first use: ``import repro``
loads only the version metadata, and ``repro.solve`` (or ``from repro
import solve``) imports :mod:`repro.api` at that moment.  A process pays
for the layers it touches -- ``repro serve`` never loads the client, the
load generator, the trace ingester or the campaign harness.

Quickstart
----------

>>> from repro import TreeBuilder, Policy, solve
>>> tree = (TreeBuilder()
...         .add_node("root", capacity=10)
...         .add_node("n1", capacity=10, parent="root")
...         .add_client("c1", requests=7, parent="n1")
...         .add_client("c2", requests=5, parent="n1")
...         .build())
>>> solution = solve(tree, policy=Policy.MULTIPLE)
>>> sorted(solution.placement.replicas)
['n1', 'root']
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

from repro._version import __version__, __paper__


def _lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's public names.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    submodule to the names it provides.  A name is imported from its
    submodule on first access and then bound in the package, so later
    lookups are plain attribute reads; a name that is itself a submodule
    of the package resolves to that module.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.core.tree": ("TreeNetwork", "InternalNode", "Client", "Link"),
        "repro.core.builder": ("TreeBuilder",),
        "repro.core.policies": ("Policy",),
        "repro.core.problem": (
            "ProblemKind",
            "ReplicaPlacementProblem",
            "replica_cost_problem",
            "replica_counting_problem",
        ),
        "repro.core.solution": ("Assignment", "Placement", "Solution"),
        "repro.core.validation": ("validate_solution", "ValidationReport"),
        "repro.core.costs": ("placement_cost", "request_lower_bound"),
        "repro.core.results": ("result_from_dict", "result_from_json"),
        "repro.session": (
            "PlacementSession",
            "SolveResult",
            "BoundResult",
            "CompareResult",
        ),
        "repro.api": (
            "solve",
            "solve_many",
            "solve_sequence",
            "SequenceResult",
            "bound_sequence",
            "BoundSequenceResult",
            "compare_policies",
            "lower_bound",
        ),
        "repro.serving.pool": ("PoolStats", "SessionPool"),
        "repro.serving.client": ("connect",),
        "repro.serving.fingerprint": ("problem_fingerprint",),
    },
)

__all__ = [
    "__version__",
    "__paper__",
    "TreeNetwork",
    "InternalNode",
    "Client",
    "Link",
    "TreeBuilder",
    "Policy",
    "ProblemKind",
    "ReplicaPlacementProblem",
    "replica_cost_problem",
    "replica_counting_problem",
    "Assignment",
    "Placement",
    "Solution",
    "validate_solution",
    "ValidationReport",
    "placement_cost",
    "request_lower_bound",
    "PlacementSession",
    "SolveResult",
    "BoundResult",
    "CompareResult",
    "result_from_dict",
    "result_from_json",
    "solve",
    "solve_many",
    "solve_sequence",
    "SequenceResult",
    "bound_sequence",
    "BoundSequenceResult",
    "compare_policies",
    "lower_bound",
    "SessionPool",
    "PoolStats",
    "connect",
    "problem_fingerprint",
]
