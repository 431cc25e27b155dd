"""Joint (integer) linear program for the multi-object problem.

Variables (Multiple policy, following paper Sections 5.2 and 8.1):

* ``x_{j,k}`` -- binary: node ``j`` holds a replica of object ``k``;
* ``y_{i,j,k}`` -- requests of client ``i`` for object ``k`` served by node
  ``j`` (``j`` must be an ancestor of ``i``).

Constraints:

* conservation: for every (client, object) with positive demand,
  ``sum_j y_{i,j,k} = r_i^(k)``;
* per-object gating: ``sum_i y_{i,j,k} <= W_j x_{j,k}`` (a node can only
  serve objects it replicates);
* shared capacity: ``sum_k sum_i y_{i,j,k} <= W_j`` (the paper's "sum on all
  the object types");
* objective: ``min sum_{j,k} s_{j,k} x_{j,k}``.

:func:`multi_object_lower_bound` relaxes the ``y`` variables to rationals
(keeping ``x`` integral), mirroring the single-object refined bound;
:func:`multi_object_exact` solves the full ILP and reconstructs a
:class:`~repro.multiobject.model.MultiObjectSolution`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.core.exceptions import InfeasibleError, SolverError
from repro.core.tree import NodeId
from repro.lp.solver import solver_output_to_stderr
from repro.multiobject.model import MultiObjectProblem, MultiObjectSolution

if TYPE_CHECKING:
    from scipy import optimize

__all__ = ["multi_object_lower_bound", "multi_object_exact"]


class _MultiObjectProgram:
    """Index the variables and assemble the constraint matrix."""

    def __init__(self, problem: MultiObjectProblem):
        self.problem = problem
        tree = problem.tree
        self.x_pairs: List[Tuple[NodeId, str]] = [
            (node_id, object_id)
            for node_id in tree.node_ids
            for object_id in problem.objects
        ]
        self.x_index = {pair: i for i, pair in enumerate(self.x_pairs)}
        self.y_triples: List[Tuple[NodeId, str, NodeId]] = []
        for (client_id, object_id), value in problem.requests.items():
            for server_id in tree.ancestors(client_id):
                self.y_triples.append((client_id, object_id, server_id))
        offset = len(self.x_pairs)
        self.y_index = {triple: offset + i for i, triple in enumerate(self.y_triples)}
        self.num_variables = len(self.x_pairs) + len(self.y_triples)
        self._build()

    def _build(self) -> None:
        problem, tree = self.problem, self.problem.tree
        rows, cols, data, lower, upper = [], [], [], [], []
        row = 0

        def add(entries, lo, hi):
            nonlocal row
            for col, coeff in entries:
                rows.append(row)
                cols.append(col)
                data.append(coeff)
            lower.append(lo)
            upper.append(hi)
            row += 1

        # conservation per (client, object)
        for (client_id, object_id), value in problem.requests.items():
            entries = [
                (self.y_index[(client_id, object_id, server_id)], 1.0)
                for server_id in tree.ancestors(client_id)
            ]
            add(entries, value, value)

        # per-object gating and shared capacity per node
        for node_id in tree.node_ids:
            capacity = problem.capacity(node_id)
            shared_entries = []
            for object_id in problem.objects:
                entries = []
                for (client_id, obj, server_id) in self.y_triples:
                    if server_id == node_id and obj == object_id:
                        entries.append((self.y_index[(client_id, obj, server_id)], 1.0))
                        shared_entries.append((self.y_index[(client_id, obj, server_id)], 1.0))
                entries.append((self.x_index[(node_id, object_id)], -capacity))
                add(entries, -math.inf, 0.0)
            if shared_entries:
                add(shared_entries, -math.inf, capacity)

        from scipy import sparse

        self.matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(row, self.num_variables)
        )
        self.lower = np.array(lower)
        self.upper = np.array(upper)

        self.objective = np.zeros(self.num_variables)
        for (node_id, object_id), index in self.x_index.items():
            self.objective[index] = problem.storage_cost(node_id, object_id)

        self.var_lower = np.zeros(self.num_variables)
        self.var_upper = np.empty(self.num_variables)
        self.var_upper[: len(self.x_pairs)] = 1.0
        for (client_id, object_id, _server), index in self.y_index.items():
            self.var_upper[index] = problem.request(client_id, object_id)

    def solve(self, *, integral_assignment: bool) -> optimize.OptimizeResult:
        from scipy import optimize

        integrality = np.zeros(self.num_variables)
        integrality[: len(self.x_pairs)] = 1
        if integral_assignment:
            integrality[len(self.x_pairs):] = 1
        with solver_output_to_stderr():
            return optimize.milp(
                c=self.objective,
                constraints=[optimize.LinearConstraint(self.matrix, self.lower, self.upper)],
                integrality=integrality,
                bounds=optimize.Bounds(self.var_lower, self.var_upper),
            )


def multi_object_lower_bound(problem: MultiObjectProblem) -> float:
    """Refined lower bound: integral replicas, rational assignments.

    Returns ``math.inf`` when even the joint relaxation is infeasible.
    """
    program = _MultiObjectProgram(problem)
    result = program.solve(integral_assignment=False)
    if result.success:
        return float(result.fun)
    if result.status == 2:
        return math.inf
    raise SolverError(f"multi-object lower bound failed: {result.message}")


def multi_object_exact(problem: MultiObjectProblem) -> MultiObjectSolution:
    """Optimal multi-object placement via the joint ILP (small instances).

    Assignment variables are required to be integral only when every request
    rate is integral (the constraint matrix of the assignment sub-problem is
    a transportation polytope, so with integral data the continuous optimum
    can always be rounded; with fractional request rates a fractional split
    is the intended semantics of the Multiple policy).
    """
    program = _MultiObjectProgram(problem)
    integral_requests = all(
        abs(value - round(value)) <= 1e-9 for value in problem.requests.values()
    )
    result = program.solve(integral_assignment=integral_requests)
    if not result.success:
        if result.status == 2:
            raise InfeasibleError("the multi-object instance is infeasible")
        raise SolverError(f"multi-object ILP failed: {result.message}")

    values = np.asarray(result.x)
    replicas = {
        pair for pair, index in program.x_index.items() if values[index] > 0.5
    }
    amounts: Dict[Tuple[NodeId, str, NodeId], float] = {}
    for triple, index in program.y_index.items():
        value = float(values[index])
        if value > 1e-6:
            amounts[triple] = round(value, 9)
    return MultiObjectSolution(
        replicas=frozenset(replicas), amounts=amounts, algorithm="multiobject-ilp"
    )
