"""Iterative-proportional-fitting lower bounds (the ``ipfp`` method).

The LP bounds of :mod:`repro.lp.bounds` solve a (mixed-integer) program per
epoch; on large dynamic workloads that cost dominates the whole pipeline.
This module trades a little tightness for a lot of speed: it lower-bounds
the *transportation relaxation* of the Multiple formulation by Lagrangian
duality, steering the duals with an IPFP-style primal scaling loop.

Relaxation chain
----------------

With rational placement ``x_j >= load_j / W_j`` the objective satisfies
``sum_j s_j x_j >= sum_j (s_j / W_j) load_j``, so

.. code-block:: text

    transportation := min sum_j c_j * load_j        c_j = s_j / W_j
                      s.t. sum_j y_ij = r_i         (cover every client)
                           load_j    <= W_j         (server capacity)
                           flow_l    <= BW_l        (link bandwidth)
                           y_ij >= 0 over eligible (client, ancestor) pairs

is a relaxation of the rational LP, which itself relaxes the paper's mixed
bound: ``transportation <= rational <= mixed <= optimal``.  For any
multipliers ``lambda_j, mu_l >= 0`` weak duality gives the valid bound

.. code-block:: text

    L(lambda, mu) = sum_i r_i * min_{j in E_i} (c_j + lambda_j + path_mu_ij)
                    - sum_j lambda_j W_j - sum_l mu_l BW_l

where ``path_mu_ij`` sums the duals of the bandwidth-limited links between
client ``i`` and server ``j``.  The solver alternates

* **row scaling** of the primal iterate ``y`` to the client rates,
* **column scaling** down to the server capacities,
* **link scaling** down to the link bandwidths,

and pushes the duals along the constraint-violation subgradient measured on
the scaled iterate, keeping the best ``L`` seen.  Every iterate yields a
*valid* bound -- stopping early (stall detection, time limit) never
produces a wrong value, only a looser one.

Client uplinks are handled structurally rather than dually: every eligible
server sits strictly above its client, so the flow on a client's uplink is
exactly ``r_i`` -- either it fits, or the instance is infeasible and the
solver returns a certificate naming the link.  The remaining certificates
(no eligible server, zero-capacity chains, Hall-style subtree overload) are
likewise exact pre-checks; a stalled scaling loop without a certificate
simply returns the best Lagrangian value with ``feasible=True``.

When every storage cost is integral the mixed bound is an integer, so the
best ``L`` is tightened to its ceiling before being clamped from below by
:func:`repro.core.costs.trivial_lower_bound` -- guaranteeing the sandwich
``trivial <= ipfp <= mixed`` that the test suite asserts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.lp.bounds import LowerBoundResult
from repro.lp.variables import VariableSpace

__all__ = ["IPFPConfig", "IPFPProgram", "ipfp_program", "ipfp_bound", "ipfp_defaults"]

#: Relative tolerance used by the feasibility pre-checks.
_EPS = 1e-9


@dataclass(frozen=True)
class IPFPConfig:
    """Tuning knobs of the IPFP bound (defaults reported by ``repro doctor``)."""

    #: Maximum scaling / dual iterations.
    max_iterations: int = 48
    #: Relative improvement below which an iteration counts as stalled.
    tolerance: float = 1e-6
    #: Consecutive stalled iterations that stop the loop.
    stall_iterations: int = 6
    #: Dual step-size multiplier (the schedule is ``step * c_ref / (1 + it)``).
    step: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError("tolerance must be a positive finite float")
        if self.stall_iterations < 1:
            raise ValueError("stall_iterations must be at least 1")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError("step must be a positive finite float")


def ipfp_defaults() -> dict:
    """Default IPFP parameters as a JSON-compatible dict (``repro doctor``)."""
    config = IPFPConfig()
    return {
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
        "stall_iterations": config.stall_iterations,
        "step": config.step,
    }


class IPFPProgram:
    """Pre-assembled state of the IPFP bound for one problem instance.

    Mirrors the role :class:`~repro.lp.formulation.LinearProgramData` plays
    for the LP bounds: build once, :meth:`solve` per epoch, and re-target
    rate-only epoch forks with :meth:`with_requests` (structure shared,
    rates re-gathered) through the same
    :class:`~repro.algorithms.incremental.IncrementalBounder` ladder.
    """

    def __init__(
        self,
        problem: ReplicaPlacementProblem,
        *,
        policy: Union[Policy, str] = Policy.MULTIPLE,
        config: Optional[IPFPConfig] = None,
    ) -> None:
        self.problem = problem
        self.policy = Policy.parse(policy)
        self.config = config or IPFPConfig()
        self.space = VariableSpace(problem)
        self._build_static()

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #
    def _build_static(self) -> None:
        space = self.space
        index = space.index
        num_y = space.num_y

        capacities = space.node_capacities
        costs = space.storage_costs
        #: per-server cost of one unit of processed load (inf when W_j = 0:
        #: a zero-capacity server can process nothing in the relaxation).
        with np.errstate(divide="ignore", invalid="ignore"):
            cost_rate = np.where(capacities > 0.0, costs / capacities, np.inf)
        self._cost_rate = cost_rate
        #: pairs whose server can actually absorb load.
        self._pair_active = (
            capacities[space.pair_server_pos] > 0.0
            if num_y
            else np.zeros(0, dtype=bool)
        )
        positive = cost_rate[np.isfinite(cost_rate) & (cost_rate > 0.0)]
        #: reference cost magnitude scaling the dual steps.
        self._cost_ref = float(positive.mean()) if positive.size else 1.0

        # Bandwidth-limited *internal* links, each with the indices of the
        # pairs whose client->server path crosses it: the clients of the
        # link's subtree are one contiguous DFS span, hence one contiguous
        # pair run, filtered by "server strictly above the link".
        self._links: List[Tuple[object, float, np.ndarray]] = []
        enforce = self.problem.constraints.enforce_bandwidth
        if enforce and num_y:
            tree = self.problem.tree
            node_depth = index.node_depth
            starts = space.client_pair_start
            ends = space.client_pair_end
            for pos, node_id in enumerate(index.node_order):
                if pos == 0:  # the root has no uplink
                    continue
                bandwidth = tree.bandwidth(node_id)
                if not math.isfinite(bandwidth):
                    continue
                c_lo = index.client_span_start[pos]
                c_hi = index.client_span_end[pos]
                if c_hi <= c_lo:
                    continue
                lo = int(starts[c_lo])
                hi = int(ends[c_hi - 1])
                depths = space.pair_server_depth[lo:hi]
                crossing = np.nonzero(depths < node_depth[pos])[0] + lo
                if crossing.size:
                    self._links.append((node_id, float(bandwidth), crossing))

    # ------------------------------------------------------------------ #
    # exact feasibility pre-checks (sound certificates only)
    # ------------------------------------------------------------------ #
    def _certificate(self) -> Optional[str]:
        space = self.space
        index = space.index
        rates = space.client_requests
        active_clients = rates > 0.0
        if not bool(active_clients.any()):
            return None
        counts = (space.client_pair_end - space.client_pair_start).astype(np.intp)

        starved = active_clients & (counts == 0)
        if bool(starved.any()):
            client = space.client_ids[int(np.argmax(starved))]
            return (
                f"client {client!r} has positive rate but no eligible server "
                "under the QoS constraint"
            )

        # All-zero-capacity eligible chains: the max eligible capacity per
        # client (reduceat is safe here: every surviving client has pairs).
        num_y = space.num_y
        if num_y:
            starts = np.minimum(space.client_pair_start, num_y - 1)
            best_cap = np.maximum.reduceat(
                space.node_capacities[space.pair_server_pos], starts
            )
            dead = active_clients & (counts > 0) & (best_cap <= 0.0)
            if bool(dead.any()):
                client = space.client_ids[int(np.argmax(dead))]
                return (
                    f"client {client!r} has positive rate but only "
                    "zero-capacity eligible servers"
                )

        if self.problem.constraints.enforce_bandwidth:
            # Client uplink flows are structural: every eligible server is a
            # proper ancestor, so the uplink must carry the full rate.
            tree = self.problem.tree
            for ci in np.nonzero(active_clients)[0]:
                client_id = space.client_ids[int(ci)]
                bandwidth = tree.bandwidth(client_id)
                if rates[ci] > bandwidth * (1.0 + _EPS):
                    return (
                        f"client {client_id!r} rate {rates[ci]:g} exceeds its "
                        f"uplink bandwidth {bandwidth:g}"
                    )

        # Hall-style subtree check: a client whose topmost eligible server
        # lies inside subtree(a) forces its whole rate into that subtree.
        if num_y:
            if space.prefix_chains:
                topmost = space.pair_server_pos[space.client_pair_end - 1]
            else:
                topmost = np.empty(len(rates), dtype=np.intp)
                depths = space.pair_server_depth
                for ci in range(len(rates)):
                    lo, hi = space.client_pair_start[ci], space.client_pair_end[ci]
                    if hi > lo:
                        topmost[ci] = space.pair_server_pos[
                            lo + int(np.argmin(depths[lo:hi]))
                        ]
            attach = np.zeros(space.num_x)
            chosen = active_clients & (counts > 0)
            np.add.at(attach, topmost[chosen], rates[chosen])
            demand = np.concatenate(([0.0], np.cumsum(attach)))
            supply = np.concatenate(([0.0], np.cumsum(space.node_capacities)))
            span_end = np.asarray(index.node_span_end, dtype=np.intp)
            positions = np.arange(space.num_x, dtype=np.intp)
            sub_demand = demand[span_end] - demand[positions]
            sub_supply = supply[span_end] - supply[positions]
            overloaded = sub_demand > sub_supply * (1.0 + _EPS) + _EPS
            if bool(overloaded.any()):
                pos = int(np.argmax(sub_demand - sub_supply))
                node = space.node_ids[pos]
                return (
                    f"subtree of {node!r} must absorb {sub_demand[pos]:g} "
                    f"requests but offers only {sub_supply[pos]:g} capacity"
                )
        return None

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self, *, time_limit: Optional[float] = None) -> LowerBoundResult:
        """Run the scaling / dual loop and return the best Lagrangian bound."""
        certificate = self._certificate()
        if certificate is not None:
            return LowerBoundResult(
                value=math.inf,
                feasible=False,
                method="ipfp",
                policy=self.policy,
                certificate=certificate,
            )
        value, objective = self._iterate(time_limit=time_limit)
        return LowerBoundResult(
            value=value,
            feasible=True,
            method="ipfp",
            policy=self.policy,
            objective=objective,
        )

    def _iterate(self, *, time_limit: Optional[float]) -> Tuple[float, float]:
        from repro.core.costs import trivial_lower_bound

        space = self.space
        config = self.config
        rates = space.client_requests
        active_clients = rates > 0.0
        trivial = float(trivial_lower_bound(self.problem))
        if not bool(active_clients.any()) or not space.num_y:
            return max(0.0, trivial), 0.0

        num_y = space.num_y
        pcp = space.pair_client_pos
        psp = space.pair_server_pos
        capacities = space.node_capacities
        capacitated = capacities > 0.0
        base = self._cost_rate[psp]
        active_pairs = self._pair_active
        # inf base costs only sit on inactive pairs; zero them so the primal
        # arithmetic stays finite (the eval path re-masks them to inf).
        base = np.where(active_pairs, base, 0.0)

        starts = np.minimum(space.client_pair_start, num_y - 1)
        eval_rows = np.nonzero(active_clients)[0]
        row_rates = rates[eval_rows]

        # Duals always start at zero: a re-targeted epoch must reproduce the
        # cold-run bound bit for bit (only the array assembly is reused).
        lam = np.zeros(space.num_x)
        n_links = len(self._links)
        mu = np.zeros(n_links)

        # Uniform-over-eligible start for the primal iterate.
        per_client = np.bincount(pcp[active_pairs], minlength=len(rates)).astype(float)
        share = np.divide(
            rates, per_client, out=np.zeros_like(rates), where=per_client > 0.0
        )
        y = np.where(active_pairs, share[pcp], 0.0)

        inf_mask = np.where(active_pairs, 0.0, np.inf)
        step = config.step * self._cost_ref
        best = -math.inf
        stalled = 0
        deadline = None if time_limit is None else time.perf_counter() + time_limit

        for iteration in range(config.max_iterations):
            # ---- dual value (valid bound at every iterate) ------------- #
            eff = base + lam[psp] + inf_mask
            for li, (_, _, crossing) in enumerate(self._links):
                if mu[li]:
                    eff[crossing] += mu[li]
            row_min = np.minimum.reduceat(eff, starts)[eval_rows]
            value = float(row_rates @ row_min) - float(lam @ capacities)
            for li, (_, bandwidth, _) in enumerate(self._links):
                value -= mu[li] * bandwidth
            if value > best + config.tolerance * max(1.0, abs(value)):
                best = max(best, value)
                stalled = 0
            else:
                best = max(best, value)
                stalled += 1
                if stalled >= config.stall_iterations:
                    break
            if deadline is not None and time.perf_counter() >= deadline:
                break

            # ---- IPFP primal scaling ----------------------------------- #
            row_sum = np.bincount(pcp, weights=y, minlength=len(rates))
            row_scale = np.divide(
                rates, row_sum, out=np.zeros_like(rates), where=row_sum > 0.0
            )
            y *= row_scale[pcp]
            load = np.bincount(psp, weights=y, minlength=space.num_x)
            over = load > capacities
            col_scale = np.ones(space.num_x)
            np.divide(capacities, load, out=col_scale, where=over & (load > 0.0))
            y *= col_scale[psp]
            flows = np.empty(n_links)
            for li, (_, bandwidth, crossing) in enumerate(self._links):
                flow = float(y[crossing].sum())
                flows[li] = flow
                if flow > bandwidth > 0.0:
                    y[crossing] *= bandwidth / flow

            # ---- dual subgradient -------------------------------------- #
            rate = step / (1.0 + iteration)
            violation = np.divide(
                load, capacities, out=np.zeros_like(load), where=capacitated
            )
            lam = np.maximum(0.0, lam + rate * (violation - 1.0) * capacitated)
            for li, (_, bandwidth, _) in enumerate(self._links):
                mu[li] = max(0.0, mu[li] + rate * (flows[li] / bandwidth - 1.0))

        objective = max(best, 0.0)
        value = objective
        costs = space.storage_costs
        if bool(np.all(np.isfinite(costs))) and bool(
            np.all(costs == np.floor(costs))
        ):
            # The mixed optimum is a sum of integral storage costs.
            value = math.ceil(value - _EPS)
        return max(float(value), trivial), objective

    # ------------------------------------------------------------------ #
    # epoch re-targeting
    # ------------------------------------------------------------------ #
    def with_requests(self, problem: ReplicaPlacementProblem) -> "IPFPProgram":
        """Re-target to a rate-only epoch fork of this program's problem.

        The eligibility layout, cost rates and link crossing indices are all
        rate-independent and shared verbatim; only the request vectors are
        re-gathered (through :meth:`VariableSpace.patched`), so solving the
        fork returns a value bit-identical to a cold run on the forked
        problem.  Raises :class:`ValueError` when the diff is not rate-only,
        matching :meth:`~repro.lp.formulation.LinearProgramData.with_requests`
        so the :class:`~repro.algorithms.incremental.IncrementalBounder`
        falls back to a rebuild on structural epochs.
        """
        from repro.algorithms.incremental import diff_problems

        delta = diff_problems(self.problem, problem)
        if not (delta.unchanged or delta.rates_only):
            raise ValueError(
                "with_requests requires a rate-only epoch diff "
                "(topology/capacity/constraint changes need a rebuild)"
            )
        fork = IPFPProgram.__new__(IPFPProgram)
        fork.problem = problem
        fork.policy = self.policy
        fork.config = self.config
        fork.space = self.space.patched(problem)
        fork._cost_rate = self._cost_rate
        fork._pair_active = self._pair_active
        fork._cost_ref = self._cost_ref
        fork._links = self._links
        return fork

    @property
    def nbytes(self) -> int:
        """Bytes of the numpy arrays held by this program and its variable space.

        :meth:`repro.session.PlacementSession.memory_estimate` charges a
        resident IPFP bounder this much (an IPFP program has no constraint
        matrix to count).
        """
        own = self._cost_rate.nbytes + self._pair_active.nbytes
        own += sum(crossing.nbytes for _link, _bandwidth, crossing in self._links)
        return own + self.space.nbytes

    def describe(self) -> str:
        """Short description used in solver diagnostics."""
        return (
            f"ipfp over {self.space.describe()}, "
            f"{len(self._links)} bandwidth-limited internal links"
        )


def ipfp_program(
    problem: ReplicaPlacementProblem,
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    config: Optional[IPFPConfig] = None,
) -> IPFPProgram:
    """Assemble (without solving) the IPFP bound state of an instance."""
    return IPFPProgram(problem, policy=policy, config=config)


def ipfp_bound(
    problem: ReplicaPlacementProblem,
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    config: Optional[IPFPConfig] = None,
    time_limit: Optional[float] = None,
) -> LowerBoundResult:
    """One-shot IPFP lower bound (``trivial <= ipfp <= mixed`` guaranteed)."""
    return ipfp_program(problem, policy=policy, config=config).solve(
        time_limit=time_limit
    )
