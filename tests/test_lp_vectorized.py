"""Equivalence suite for the vectorised LP assembly and epoch patching.

Pins three contracts of the LP fast path:

* :func:`repro.lp.build_program` produces programs **bit-identical** to the
  row-by-row :func:`repro.lp.build_program_reference` oracle -- canonical
  CSR matrix, row bounds, variable bounds, integrality, objective and
  labels -- across policies x bandwidth on/off x QoS modes x cost kinds;
* :meth:`repro.lp.LinearProgramData.with_requests` re-targets a program to
  a rate-only epoch fork bit-identically to a from-scratch rebuild (and
  refuses every diff that is not rate-only);
* :func:`repro.api.bound_sequence` returns, on every epoch of a dynamic
  trajectory, exactly the bound a from-scratch
  :func:`repro.api.lower_bound` computes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.api import bound_sequence, lower_bound
from repro.core.constraints import ConstraintSet, QoSMode
from repro.core.index import TreeIndex
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.tree import Link, TreeNetwork
from repro.lp import (
    VariableSpace,
    build_program,
    build_program_reference,
    lp_lower_bound,
    solve_program,
)
from repro.workloads import dynamic as trajectories
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import make_random_problem


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def canonical(matrix):
    """Copy of a sparse matrix in canonical CSR form."""
    out = matrix.tocsr().copy()
    out.sum_duplicates()
    out.sort_indices()
    return out


def assert_programs_identical(left, right):
    """Bit-for-bit equality of two assembled programs."""
    a, b = canonical(left.constraint_matrix), canonical(right.constraint_matrix)
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)
    for attr in (
        "objective",
        "lower",
        "upper",
        "variable_lower",
        "variable_upper",
        "integrality",
    ):
        assert np.array_equal(getattr(left, attr), getattr(right, attr)), attr
    assert left.labels == right.labels
    assert left.policy is right.policy


def with_bandwidth(tree: TreeNetwork, bandwidth: float) -> TreeNetwork:
    """Copy of a tree with every link's bandwidth set to ``bandwidth``."""
    links = [
        Link(
            child=link.child,
            parent=link.parent,
            comm_time=link.comm_time,
            bandwidth=bandwidth,
        )
        for link in tree.links()
    ]
    return TreeNetwork(tree.nodes(), tree.clients(), links)


def campaign_instances():
    """Instances covering policies x bandwidth x QoS x kind x platforms."""
    instances = []
    for seed, qos, bandwidth in (
        (2, None, False),
        (3, "distance", False),
        (4, "latency", False),
        (5, None, True),
        (6, "distance", True),
        (7, "latency", True),
    ):
        homogeneous = seed % 2 == 0
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(
                size=45,
                target_load=0.5,
                homogeneous=homogeneous,
                client_attachment="uniform",
                qos_hops=(3, 6) if qos else None,
            )
        )
        if bandwidth:
            tree = with_bandwidth(tree, 60.0)
        if qos is None:
            constraints = ConstraintSet(enforce_bandwidth=bandwidth)
        elif qos == "distance":
            constraints = ConstraintSet.qos_distance(enforce_bandwidth=bandwidth)
        else:
            constraints = ConstraintSet.qos_latency(enforce_bandwidth=bandwidth)
        kind = ProblemKind.REPLICA_COUNTING if homogeneous else ProblemKind.REPLICA_COST
        instances.append(
            ReplicaPlacementProblem(tree=tree, constraints=constraints, kind=kind)
        )
    return instances


class _EvenDepthQoS(ConstraintSet):
    """Non-monotone QoS metric: only even-depth servers are eligible.

    Eligible chains are not bottom-up prefixes, so the vectorised Closest
    assembly must fall back to the reference builder.
    """

    def qos_metric(self, tree, client_id, server_id):
        return 0.0 if tree.depth(server_id) % 2 == 0 else math.inf


class _HopsQoS(ConstraintSet):
    """Hop-count QoS that does not declare itself monotone, so the assembly
    asks the problem pair by pair and checks the answers against the
    ancestor chains (they do form bottom-up prefixes)."""

    def qos_metric(self, tree, client_id, server_id):
        return float(tree.depth(client_id) - tree.depth(server_id))


# --------------------------------------------------------------------------- #
# variable-space layout
# --------------------------------------------------------------------------- #
class TestVectorisedSpace:
    def test_pair_arrays_match_pairs_tuple(self):
        problem = make_random_problem(11, size=50, load=0.5, qos_hops=(3, 6))
        problem = dataclasses.replace(problem, constraints=ConstraintSet.qos_distance())
        space = VariableSpace(problem)
        assert space.prefix_chains
        clients, nodes = space.client_ids, space.node_ids
        rebuilt = [
            (clients[c], nodes[s])
            for c, s in zip(space.pair_client_pos, space.pair_server_pos)
        ]
        assert rebuilt == list(space.pairs)
        # Client-major layout: each client's pairs are one contiguous run.
        for ci, cid in enumerate(clients):
            lo, hi = space.client_pair_start[ci], space.client_pair_end[ci]
            assert [pair[0] for pair in space.pairs[lo:hi]] == [cid] * (hi - lo)
        # Pair requests mirror the problem's rates.
        for position, (cid, _sid) in enumerate(space.pairs):
            assert space.pair_requests[position] == problem.requests(cid)

    def test_pairs_follow_eligibility(self):
        problem = make_random_problem(12, size=40, load=0.4, qos_hops=(2, 5))
        problem = dataclasses.replace(problem, constraints=ConstraintSet.qos_latency())
        space = VariableSpace(problem)
        for cid in problem.tree.client_ids:
            expected = [(cid, sid) for sid in problem.eligible_servers(cid)]
            assert space.pairs_for_client(cid) == expected

    def test_non_prefix_subclass_detected(self):
        problem = make_random_problem(13, size=30, load=0.4, qos_hops=(2, 5))
        problem = dataclasses.replace(
            problem, constraints=_EvenDepthQoS(qos_mode=QoSMode.DISTANCE)
        )
        space = VariableSpace(problem)
        assert not space.prefix_chains
        # The pair list still matches the problem's eligibility answers.
        for cid in problem.tree.client_ids:
            expected = [(cid, sid) for sid in problem.eligible_servers(cid)]
            assert space.pairs_for_client(cid) == expected


    @pytest.mark.parametrize("seed", range(3))
    def test_pair_columns_follow_the_tree_ancestors(self, seed):
        """The flat chains the assembly gathers from are the tree's ancestor
        chains by position, and every constraint set's pair columns are the
        ancestors ``qos_satisfied`` accepts, in chain order."""
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(
                size=80,
                target_load=0.4,
                homogeneous=False,
                max_children=1 + seed,
                qos_hops=(2, 6),
                link_comm_time=0.9,
            )
        )
        index = TreeIndex.for_tree(tree)
        flat, offsets = index.client_ancestor_positions()
        for ci, client_id in enumerate(index.client_order):
            assert flat[offsets[ci] : offsets[ci + 1]].tolist() == [
                index.node_pos[a] for a in tree.ancestors(client_id)
            ]
        for constraints, prefix in (
            (ConstraintSet.none(), True),
            (ConstraintSet.qos_distance(), True),
            (ConstraintSet.qos_latency(), True),
            (_HopsQoS(qos_mode=QoSMode.DISTANCE), True),
            (_EvenDepthQoS(qos_mode=QoSMode.DISTANCE), False),
        ):
            problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
            space = VariableSpace(problem)
            assert space.prefix_chains is prefix, constraints
            for ci, client_id in enumerate(space.client_ids):
                lo, hi = space.client_pair_start[ci], space.client_pair_end[ci]
                assert [space.node_ids[s] for s in space.pair_server_pos[lo:hi]] == [
                    a for a in tree.ancestors(client_id) if problem.qos_satisfied(client_id, a)
                ], (constraints, client_id)


# --------------------------------------------------------------------------- #
# builder equivalence
# --------------------------------------------------------------------------- #
class TestBuilderEquivalence:
    @pytest.mark.parametrize("policy", Policy.ordered())
    def test_bit_identical_across_campaign(self, policy):
        for problem in campaign_instances():
            fast = build_program(problem, policy)
            reference = build_program_reference(problem, policy)
            assert_programs_identical(fast, reference)

    @pytest.mark.parametrize("policy", Policy.ordered())
    def test_bit_identical_relaxations(self, small_problem, policy):
        fast = build_program(
            small_problem, policy, integral_placement=True, integral_assignment=False
        )
        reference = build_program_reference(
            small_problem, policy, integral_placement=True, integral_assignment=False
        )
        assert_programs_identical(fast, reference)

    def test_zero_request_clients_force_bounds_not_rows(self):
        tree = TreeGenerator(21).generate(GeneratorConfig(size=30, target_load=0.4))
        zero_client = tree.client_ids[0]
        tree = tree.with_requests({zero_client: 0.0})
        problem = ReplicaPlacementProblem(tree=tree)
        fast = build_program(problem, Policy.MULTIPLE)
        reference = build_program_reference(problem, Policy.MULTIPLE)
        assert_programs_identical(fast, reference)
        space = fast.space
        for sid in problem.eligible_servers(zero_client):
            assert fast.variable_upper[space.y_index(zero_client, sid)] == 0.0

    def test_closest_limit_raised_identically(self):
        problem = make_random_problem(2, size=40, load=0.3)
        with pytest.raises(ValueError):
            build_program(problem, Policy.CLOSEST, closest_constraint_limit=1)
        with pytest.raises(ValueError):
            build_program_reference(problem, Policy.CLOSEST, closest_constraint_limit=1)

    def test_non_prefix_closest_falls_back_to_reference(self):
        problem = make_random_problem(14, size=24, load=0.4, qos_hops=(2, 5))
        problem = dataclasses.replace(
            problem, constraints=_EvenDepthQoS(qos_mode=QoSMode.DISTANCE)
        )
        fast = build_program(problem, Policy.CLOSEST)
        reference = build_program_reference(problem, Policy.CLOSEST)
        assert_programs_identical(fast, reference)

    def test_non_prefix_vectorised_policies_still_match(self):
        problem = make_random_problem(15, size=24, load=0.4, qos_hops=(2, 5))
        problem = dataclasses.replace(
            problem,
            constraints=_EvenDepthQoS(
                qos_mode=QoSMode.DISTANCE, enforce_bandwidth=True
            ),
        )
        problem = dataclasses.replace(
            problem, tree=with_bandwidth(problem.tree, 40.0)
        )
        for policy in (Policy.UPWARDS, Policy.MULTIPLE):
            assert_programs_identical(
                build_program(problem, policy),
                build_program_reference(problem, policy),
            )

    def test_same_optimum_both_builders(self, small_problem):
        for policy in Policy.ordered():
            fast = solve_program(build_program(small_problem, policy))
            reference = solve_program(build_program_reference(small_problem, policy))
            assert fast.status == reference.status
            if fast.optimal:
                assert fast.objective == pytest.approx(reference.objective)


# --------------------------------------------------------------------------- #
# epoch patching
# --------------------------------------------------------------------------- #
class TestWithRequests:
    def _churned(self, problem, seed=5, scale=1.7):
        tree = problem.tree
        rng = np.random.default_rng(seed)
        changed = {
            cid: float(max(1, round(problem.requests(cid) * rng.uniform(0.4, scale))))
            for cid in tree.client_ids[::2]
        }
        return dataclasses.replace(problem, tree=tree.with_requests(changed))

    def test_multiple_patch_shares_matrix_and_matches_rebuild(self):
        problem = make_random_problem(31, size=50, load=0.5)
        epoch = self._churned(problem)
        program = build_program(
            problem, Policy.MULTIPLE, integral_placement=True, integral_assignment=False
        )
        patched = program.with_requests(epoch)
        fresh = build_program(
            epoch, Policy.MULTIPLE, integral_placement=True, integral_assignment=False
        )
        # The Multiple matrix is rate-independent: shared verbatim.
        assert patched.constraint_matrix is program.constraint_matrix
        assert_programs_identical(patched, fresh)
        assert patched.space.problem is epoch

    @pytest.mark.parametrize("policy", (Policy.UPWARDS, Policy.CLOSEST))
    def test_single_server_patch_rewrites_data(self, policy):
        problem = make_random_problem(32, size=40, load=0.4, qos_hops=(3, 6))
        problem = dataclasses.replace(
            problem,
            constraints=ConstraintSet.qos_distance(enforce_bandwidth=True),
            tree=with_bandwidth(problem.tree, 80.0),
        )
        epoch = self._churned(problem)
        program = build_program(problem, policy)
        patched = program.with_requests(epoch)
        fresh = build_program(epoch, policy)
        # Same sparsity pattern, different data vector (rates moved).
        assert patched.constraint_matrix is not program.constraint_matrix
        assert np.array_equal(
            patched.constraint_matrix.indices, program.constraint_matrix.indices
        )
        assert np.array_equal(
            patched.constraint_matrix.indptr, program.constraint_matrix.indptr
        )
        assert_programs_identical(patched, fresh)

    def test_chained_patches(self):
        problem = make_random_problem(33, size=40, load=0.5)
        first = self._churned(problem, seed=1)
        second = self._churned(first, seed=2)
        program = build_program(problem, Policy.MULTIPLE)
        twice = program.with_requests(first).with_requests(second)
        assert_programs_identical(twice, build_program(second, Policy.MULTIPLE))

    def test_patched_solutions_match(self):
        problem = make_random_problem(34, size=36, load=0.5)
        epoch = self._churned(problem)
        program = build_program(
            problem, Policy.MULTIPLE, integral_placement=True, integral_assignment=False
        )
        patched = solve_program(program.with_requests(epoch))
        assert patched.optimal
        assert patched.objective == pytest.approx(lower_bound(epoch))

    def test_rejects_non_rate_diffs(self):
        problem = make_random_problem(35, size=30, load=0.5, homogeneous=False)
        program = build_program(problem, Policy.MULTIPLE)
        # capacity change
        node = next(iter(problem.tree.node_ids))
        degraded = trajectories.capacity_incident(
            problem, 2, at=1, nodes=(node,), factor=0.5
        )[1]
        with pytest.raises(ValueError):
            program.with_requests(degraded)
        # constraint change
        with pytest.raises(ValueError):
            program.with_requests(
                dataclasses.replace(problem, constraints=ConstraintSet.qos_distance())
            )
        # topology change
        other = make_random_problem(36, size=30, load=0.5, homogeneous=False)
        with pytest.raises(ValueError):
            program.with_requests(other)

    def test_rejects_zero_crossing_rates(self):
        problem = make_random_problem(37, size=30, load=0.4)
        client = problem.tree.client_ids[0]
        program = build_program(problem, Policy.MULTIPLE)
        zeroed = dataclasses.replace(
            problem, tree=problem.tree.with_requests({client: 0.0})
        )
        with pytest.raises(ValueError):
            program.with_requests(zeroed)

    def test_reference_single_server_programs_are_not_patchable(self):
        # Single-server patching rewrites request coefficients through the
        # assembler's nnz->pair map; the row-by-row oracle has none.
        problem = make_random_problem(38, size=30, load=0.4)
        program = build_program_reference(problem, Policy.UPWARDS)
        epoch = self._churned(problem)
        with pytest.raises(ValueError):
            program.with_requests(epoch)

    def test_reference_multiple_programs_patch_correctly(self):
        # The Multiple matrix is rate-independent, so even oracle-built
        # programs can be re-targeted (only the RHS targets move).
        problem = make_random_problem(38, size=30, load=0.4)
        program = build_program_reference(problem, Policy.MULTIPLE)
        epoch = self._churned(problem)
        assert_programs_identical(
            program.with_requests(epoch), build_program(epoch, Policy.MULTIPLE)
        )

    def test_identical_rates_yield_identical_program(self):
        problem = make_random_problem(39, size=30, load=0.4)
        epoch = dataclasses.replace(problem, tree=problem.tree.with_requests({}))
        program = build_program(problem, Policy.MULTIPLE)
        patched = program.with_requests(epoch)
        assert patched.constraint_matrix is program.constraint_matrix
        assert_programs_identical(patched, program)


# --------------------------------------------------------------------------- #
# sequence-level bounds
# --------------------------------------------------------------------------- #
class TestBoundSequence:
    def _assert_matches_scratch(self, epochs, **kwargs):
        incremental = bound_sequence(epochs, **kwargs)
        for epoch_problem, value in zip(epochs, incremental.values):
            assert value == lower_bound(epoch_problem, method=kwargs.get("method", "mixed"))
        scratch = bound_sequence(epochs, mode="scratch", **kwargs)
        assert incremental.values == scratch.values
        assert all(entry.strategy == "built" for entry in scratch.stats)
        return incremental

    def test_rate_churn_bounds_match_scratch(self):
        problem = make_random_problem(41, size=50, load=0.5)
        epochs = trajectories.rate_churn(
            problem, 8, churn=0.2, magnitude=0.6, quiet_probability=0.3, seed=41
        )
        result = self._assert_matches_scratch(epochs)
        counts = result.strategy_counts()
        # Low-churn trajectories must actually exercise the cheap paths.
        assert counts.get("patched", 0) + counts.get("reused", 0) > 0
        assert counts.get("built", 0) >= 1  # epoch 0 is always built

    def test_step_and_seasonal_trajectories(self):
        problem = make_random_problem(42, size=40, load=0.5)
        for epochs in (
            trajectories.step_change(problem, 5, at=2, factor=1.5),
            trajectories.seasonal(problem, 6, amplitude=0.3, period=4.0),
        ):
            self._assert_matches_scratch(epochs)

    def test_rational_method(self):
        problem = make_random_problem(43, size=40, load=0.5)
        epochs = trajectories.rate_churn(problem, 5, churn=0.3, seed=43)
        self._assert_matches_scratch(epochs, method="rational")

    def test_capacity_incident_forces_rebuilds(self):
        problem = make_random_problem(44, size=40, load=0.5, homogeneous=False)
        epochs = trajectories.capacity_incident(
            problem, 5, at=1, duration=2, fraction=0.3, factor=0.5, seed=44
        )
        result = self._assert_matches_scratch(epochs)
        # The incident and the recovery change capacities: both rebuild.
        assert result.strategy_counts()["built"] >= 3

    def test_join_leave_topology_changes_rebuild(self):
        problem = make_random_problem(45, size=36, load=0.5)
        epochs = trajectories.client_join_leave(
            problem, 5, join_rate=0.3, leave_rate=0.2, seed=45
        )
        self._assert_matches_scratch(epochs)

    def test_infeasible_epochs_are_inf(self):
        problem = make_random_problem(46, size=30, load=0.9)
        tree = problem.tree
        overload = {cid: problem.requests(cid) * 1000 for cid in tree.client_ids}
        epochs = [
            problem,
            dataclasses.replace(problem, tree=tree.with_requests(overload)),
        ]
        result = bound_sequence(epochs)
        assert math.isfinite(result.values[0])
        assert math.isinf(result.values[1])
        assert not result.results[1].feasible

    def test_gaps_and_describe(self):
        from repro.api import solve_sequence

        problem = make_random_problem(47, size=40, load=0.5)
        epochs = trajectories.rate_churn(problem, 6, churn=0.2, seed=47)
        solved = solve_sequence(epochs)
        bounds = bound_sequence(epochs)
        gaps = bounds.gaps(solved.costs)
        for cost, value, gap in zip(solved.costs, bounds.values, gaps):
            if cost is None or not math.isfinite(value) or value <= 0:
                assert gap is None
            else:
                assert gap == pytest.approx(cost / value)
                assert gap >= 1.0 - 1e-9  # a bound never exceeds a real cost
        assert "epochs bounded" in bounds.describe()
        with pytest.raises(ValueError):
            bounds.gaps(solved.costs[:-1])

    def test_mixed_bound_agrees_with_lp_lower_bound_object(self):
        problem = make_random_problem(48, size=36, load=0.5)
        result = bound_sequence([problem]).results[0]
        direct = lp_lower_bound(problem)
        assert result.value == direct.value
        assert result.method == direct.method
