"""Core data model: tree networks, policies, problems, solutions, validation.

The sub-modules in :mod:`repro.core` form the substrate every algorithm in
this package operates on:

* :mod:`repro.core.tree` -- the distribution-tree data structure (internal
  nodes with capacities and storage costs, leaf clients with request rates
  and QoS bounds, links with latencies and bandwidths);
* :mod:`repro.core.builder` -- a fluent builder to assemble trees by hand;
* :mod:`repro.core.policies` -- the *Closest*, *Upwards*, *Multiple* access
  policies;
* :mod:`repro.core.problem` -- problem instances (general Replica Placement,
  Replica Cost, Replica Counting);
* :mod:`repro.core.solution` -- placements and request assignments;
* :mod:`repro.core.validation` -- full constraint checking;
* :mod:`repro.core.costs` -- objective functions and combinatorial lower
  bounds;
* :mod:`repro.core.constraints` -- QoS and link-capacity constraint records;
* :mod:`repro.core.index` -- the interned flat-tree index (dense integer
  ids, contiguous subtree spans, ancestor chains) backing the native solver
  engine, the LP assembly and the batch API;
* :mod:`repro.core.serialization` -- JSON round-tripping of trees and
  solutions.
"""

from repro.core.exceptions import (
    ReproError,
    TreeStructureError,
    InfeasibleError,
    PolicyViolationError,
    CapacityExceededError,
    QoSViolationError,
    BandwidthExceededError,
)
from repro.core.tree import TreeNetwork, InternalNode, Client, Link
from repro.core.index import TreeIndex
from repro.core.builder import TreeBuilder
from repro.core.policies import Policy
from repro.core.problem import (
    ProblemKind,
    ReplicaPlacementProblem,
    replica_cost_problem,
    replica_counting_problem,
)
from repro.core.solution import Assignment, Placement, Solution
from repro.core.validation import validate_solution, ValidationReport
from repro.core.costs import placement_cost, request_lower_bound

__all__ = [
    "ReproError",
    "TreeStructureError",
    "InfeasibleError",
    "PolicyViolationError",
    "CapacityExceededError",
    "QoSViolationError",
    "BandwidthExceededError",
    "TreeNetwork",
    "InternalNode",
    "Client",
    "Link",
    "TreeIndex",
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
]
