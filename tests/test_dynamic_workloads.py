"""Tests of the dynamic-workload subsystem (PR 2).

Four layers are covered:

* the epoch fork plumbing -- :meth:`TreeNetwork.with_requests` and the
  patched :class:`TreeIndex` must be bit-identical to fresh builds;
* the trajectory generators of :mod:`repro.workloads.dynamic`;
* the :class:`IncrementalResolver` / :func:`repro.api.solve_sequence`
  stack, cross-validated against from-scratch solves epoch by epoch (the
  PR's acceptance criterion);
* the CLI surface and the churn campaign of the experiment harness.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.incremental import (
    IncrementalResolver,
    diff_problems,
    migration_stats,
)
from repro.api import solve, solve_sequence
from repro.cli import main as cli_main
from repro.core.builder import TreeBuilder
from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError, TreeStructureError
from repro.core.index import TreeIndex
from repro.core.policies import Policy
from repro.core.problem import (
    ProblemKind,
    ReplicaPlacementProblem,
    replica_cost_problem,
    replica_counting_problem,
)
from repro.core.serialization import save_tree
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import Client
from repro.core.validation import validate_solution
from repro.workloads import generate_tree
from repro.workloads.dynamic import (
    capacity_incident,
    client_join_leave,
    ramp,
    rate_churn,
    regional_churn,
    seasonal,
    step_change,
)
from tests.conftest import assert_valid


# --------------------------------------------------------------------------- #
# epoch forks: with_requests and the patched TreeIndex
# --------------------------------------------------------------------------- #
INDEX_WORKLOAD_FIELDS = ("client_requests",)
INDEX_STRUCTURAL_FIELDS = (
    "node_order",
    "client_order",
    "node_span_end",
    "client_span_start",
    "client_span_end",
    "node_parent",
    "client_parent",
    "node_depth",
    "client_depth",
    "client_ancestors",
)


class TestWithRequests:
    def test_fork_equals_full_rebuild(self):
        tree = generate_tree(size=50, target_load=0.5, seed=2)
        updates = {tree.client_ids[0]: 3.0, tree.client_ids[7]: 0.0}
        fork = tree.with_requests(updates)
        rebuilt = tree.with_clients(
            [
                Client(id=cid, requests=value, qos=tree.client(cid).qos)
                for cid, value in updates.items()
            ]
        )
        assert fork == rebuilt
        assert fork._subtree == rebuilt._subtree
        assert fork.total_requests() == rebuilt.total_requests()

    def test_fork_shares_structural_caches(self):
        tree = generate_tree(size=30, target_load=0.4, seed=3)
        fork = tree.with_requests({tree.client_ids[0]: 5.0})
        assert fork._ancestors is tree._ancestors
        assert fork._subtree_clients is tree._subtree_clients
        # One store: the position map, breadth-first order and link columns.
        assert fork._store is tree._store
        assert fork._store.order is tree._store.order
        assert fork._store.comm is tree._store.comm

    def test_noop_fork_is_distinct_but_equal(self):
        tree = generate_tree(size=30, target_load=0.4, seed=3)
        fork = tree.with_requests({})
        assert fork is not tree and fork == tree
        assert fork._requests is tree._requests

    def test_unchanged_rates_not_marked_changed(self):
        tree = generate_tree(size=30, target_load=0.4, seed=3)
        cid = tree.client_ids[0]
        fork = tree.with_requests({cid: tree.client(cid).requests})
        assert fork._patch_source[1] == ()

    def test_unknown_client_raises(self):
        tree = generate_tree(size=30, target_load=0.4, seed=3)
        with pytest.raises(TreeStructureError):
            tree.with_requests({"ghost": 1.0})

    def test_negative_rate_raises(self):
        tree = generate_tree(size=30, target_load=0.4, seed=3)
        with pytest.raises(TreeStructureError):
            tree.with_requests({tree.client_ids[0]: -1.0})

    def test_qos_bounds_preserved(self):
        tree = generate_tree(size=30, target_load=0.4, seed=4, qos_hops=(2, 4))
        cid = tree.client_ids[0]
        fork = tree.with_requests({cid: 1.0})
        assert fork.client(cid).qos == tree.client(cid).qos


class TestPatchedIndex:
    def assert_index_equal(self, left: TreeIndex, right: TreeIndex):
        for field in INDEX_STRUCTURAL_FIELDS + INDEX_WORKLOAD_FIELDS:
            assert getattr(left, field) == getattr(right, field), field
        for element_id in right.node_order + right.client_order:
            assert left.ancestors_of(element_id) == right.ancestors_of(element_id)
        subtree_requests = [left.subtree_requests_of(nid) for nid in left.node_order]
        assert subtree_requests == [right.subtree_requests_of(nid) for nid in right.node_order]

    def test_patched_index_equals_fresh_build(self):
        tree = generate_tree(size=60, target_load=0.5, seed=5)
        TreeIndex.for_tree(tree)  # ensure the base index exists
        fork = tree.with_requests({tree.client_ids[3]: 2.0, tree.client_ids[9]: 11.0})
        patched = TreeIndex.for_tree(fork)
        self.assert_index_equal(patched, TreeIndex(fork))
        # Structural arrays are shared, not copied.
        assert patched.client_ancestors is TreeIndex.for_tree(tree).client_ancestors

    def test_chained_forks_keep_patching(self):
        tree = generate_tree(size=40, target_load=0.5, seed=6)
        TreeIndex.for_tree(tree)
        current = tree
        for step, cid in enumerate(tree.client_ids[:5]):
            current = current.with_requests({cid: float(step + 1)})
            TreeIndex.for_tree(current)
        self.assert_index_equal(current._index_cache, TreeIndex(current))

    def test_fork_without_base_index_builds_fresh(self):
        tree = generate_tree(size=30, target_load=0.4, seed=7)
        fork = tree.with_requests({tree.client_ids[0]: 4.0})
        assert tree._index_cache is None
        self.assert_index_equal(TreeIndex.for_tree(fork), TreeIndex(fork))

    def test_patching_skips_never_indexed_intermediate_forks(self):
        """Regression: quiet (reused, never solved) epochs must not break the
        patch chain -- the next solved epoch patches from the last indexed
        ancestor, unioning the changed clients along the way."""
        tree = generate_tree(size=40, target_load=0.5, seed=9)
        base_index = TreeIndex.for_tree(tree)
        quiet = tree.with_requests({})  # reused epoch: never indexed
        drifted = quiet.with_requests({tree.client_ids[2]: 7.0})
        changed_again = drifted.with_requests({tree.client_ids[2]: 9.0, tree.client_ids[4]: 1.0})
        assert quiet._index_cache is None and drifted._index_cache is None
        patched = TreeIndex.for_tree(changed_again)
        # Shared structure proves it was patched (from base), not rebuilt.
        assert patched.client_ancestors is base_index.client_ancestors
        self.assert_index_equal(patched, TreeIndex(changed_again))

    def test_patch_source_released_once_indexed(self):
        """Regression: the fork back-references must not root the whole epoch
        history once a fork has its own index."""
        tree = generate_tree(size=30, target_load=0.4, seed=9)
        TreeIndex.for_tree(tree)
        fork = tree.with_requests({tree.client_ids[0]: 2.0})
        assert fork._patch_source is not None
        TreeIndex.for_tree(fork)
        assert fork._patch_source is None

    def test_qos_thresholds_shared_and_correct(self):
        tree = generate_tree(size=40, target_load=0.4, seed=8, qos_hops=(2, 4))
        problem = replica_cost_problem(tree, constraints=ConstraintSet.qos_distance())
        base_index = TreeIndex.for_tree(tree)
        base_thresholds = base_index.qos_depth_thresholds(problem)
        fork = tree.with_requests({tree.client_ids[0]: 2.0})
        fork_problem = replica_cost_problem(fork, constraints=ConstraintSet.qos_distance())
        fork_index = TreeIndex.for_tree(fork)
        assert fork_index.qos_depth_thresholds(fork_problem) == base_thresholds
        assert fork_index.qos_threshold_cache is base_index.qos_threshold_cache


# --------------------------------------------------------------------------- #
# trajectory generators
# --------------------------------------------------------------------------- #
class TestTrajectories:
    @pytest.fixture
    def base(self):
        return replica_counting_problem(
            generate_tree(size=40, target_load=0.4, seed=10)
        )

    def test_epoch_zero_is_base(self, base):
        for epochs in (
            rate_churn(base, 4, seed=1),
            ramp(base, 4, end_factor=1.5),
            seasonal(base, 4),
            step_change(base, 4, at=2, factor=2.0),
        ):
            assert len(epochs) == 4
            assert epochs[0] is base
            for problem in epochs:
                assert problem.kind is base.kind
                assert problem.constraints == base.constraints

    def test_rates_stay_integral_and_non_negative(self, base):
        for epochs in (
            rate_churn(base, 6, churn=0.5, magnitude=0.9, seed=2),
            ramp(base, 6, end_factor=0.3),
            seasonal(base, 6, amplitude=0.8, period=3),
        ):
            for problem in epochs:
                for client in problem.tree.clients():
                    assert client.requests >= 0
                    assert client.requests == int(client.requests)

    def test_step_applies_factor_from_at_onwards(self, base):
        epochs = step_change(base, 5, at=2, factor=2.0)
        for t, problem in enumerate(epochs):
            for cid in base.tree.client_ids:
                expected = base.tree.client(cid).requests * (2.0 if t >= 2 else 1.0)
                assert problem.tree.client(cid).requests == round(expected)

    def test_ramp_hits_end_factor(self, base):
        epochs = ramp(base, 5, end_factor=2.0)
        for cid in base.tree.client_ids:
            assert epochs[-1].tree.client(cid).requests == round(
                base.tree.client(cid).requests * 2.0
            )

    def test_ramp_realises_start_factor_at_first_scaled_epoch(self, base):
        """Regression: the first scaled epoch used to overshoot start_factor."""
        epochs = ramp(base, 5, start_factor=2.0, end_factor=4.0)
        for cid in base.tree.client_ids:
            rate = base.tree.client(cid).requests
            assert epochs[1].tree.client(cid).requests == round(rate * 2.0)
            assert epochs[-1].tree.client(cid).requests == round(rate * 4.0)

    def test_seasonal_returns_to_base_at_period(self, base):
        epochs = seasonal(base, 9, amplitude=0.5, period=4.0)
        assert epochs[8].tree.total_requests() == base.tree.total_requests()

    def test_churn_deterministic_given_seed(self, base):
        first = rate_churn(base, 6, churn=0.3, seed=42)
        second = rate_churn(base, 6, churn=0.3, seed=42)
        for left, right in zip(first, second):
            assert left.tree == right.tree

    def test_churn_quiet_epochs_change_nothing(self, base):
        epochs = rate_churn(base, 8, churn=1.0, quiet_probability=1.0, seed=3)
        for problem in epochs[1:]:
            assert problem.tree == base.tree

    def test_join_leave_produces_valid_trees(self, base):
        epochs = client_join_leave(
            base, 6, join_rate=0.3, leave_rate=0.3, seed=4
        )
        populations = {len(problem.tree.client_ids) for problem in epochs}
        assert len(populations) > 1  # topology actually churned
        for problem in epochs:
            assert len(problem.tree.client_ids) >= 1
            # TreeNetwork construction re-validates structure; solving works.
            assert solve(problem, policy="multiple") is not None

    def test_capacity_incident_window(self):
        base = replica_cost_problem(generate_tree(size=30, target_load=0.3, seed=11))
        epochs = capacity_incident(
            base, 6, at=2, duration=2, fraction=0.3, factor=0.5, seed=5
        )
        healthy = base.tree.total_capacity()
        capacities = [problem.tree.total_capacity() for problem in epochs]
        assert capacities[0] == capacities[1] == healthy
        assert capacities[2] == capacities[3] < healthy
        assert capacities[4] == capacities[5] == healthy

    def test_capacity_incident_rejects_counting_kind(self, base):
        with pytest.raises(ValueError):
            capacity_incident(base, 4, at=1, factor=0.5)

    def test_unchanged_epochs_preserve_fractional_rates(self):
        """Regression: factor-1.0 epochs must not round non-integral rates."""
        tree = (
            TreeBuilder()
            .add_node("root", capacity=10)
            .add_client("c", requests=2.5, parent="root")
            .build()
        )
        base = replica_cost_problem(tree)
        epochs = step_change(base, 5, at=3, factor=2)
        for problem in epochs[:3]:
            assert problem.tree.client("c").requests == 2.5
        assert epochs[3].tree.client("c").requests == 5.0
        # The pre-step epochs are therefore reusable by the resolver.
        result = solve_sequence(epochs, policy="multiple")
        assert result.strategy_counts()["reused"] >= 2

    def test_probability_parameters_validated(self, base):
        with pytest.raises(ValueError):
            rate_churn(base, 4, quiet_probability=1.5)
        with pytest.raises(ValueError):
            client_join_leave(base, 4, join_rate=1.5)
        with pytest.raises(ValueError):
            client_join_leave(base, 4, leave_rate=-0.1)


# --------------------------------------------------------------------------- #
# diffing and migration accounting
# --------------------------------------------------------------------------- #
class TestDiffAndMigrations:
    def test_diff_unchanged(self):
        tree = generate_tree(size=20, target_load=0.3, seed=12)
        problem = replica_counting_problem(tree)
        fork = ReplicaPlacementProblem(tree=tree.with_requests({}), kind=problem.kind)
        delta = diff_problems(problem, fork)
        assert delta.unchanged and not delta.rates_only

    def test_diff_rates_only(self):
        tree = generate_tree(size=20, target_load=0.3, seed=12)
        problem = replica_counting_problem(tree)
        cid = tree.client_ids[1]
        fork = ReplicaPlacementProblem(
            tree=tree.with_requests({cid: 123.0}), kind=problem.kind
        )
        delta = diff_problems(problem, fork)
        assert delta.rates_only and delta.changed_clients == (cid,)

    def test_diff_topology_change(self):
        tree = generate_tree(size=20, target_load=0.3, seed=12)
        problem = replica_counting_problem(tree)
        other = client_join_leave(problem, 2, join_rate=1.0, leave_rate=0.0, seed=1)[1]
        delta = diff_problems(problem, other)
        assert delta.topology_changed and not delta.rates_only

    def test_diff_settings_change(self):
        tree = generate_tree(size=20, target_load=0.3, seed=12)
        problem = replica_counting_problem(tree)
        other = problem.with_constraints(ConstraintSet.qos_distance())
        assert diff_problems(problem, other).settings_changed

    def test_migration_stats_hand_case(self):
        def solution(placement, amounts):
            return Solution(
                placement=Placement(placement),
                assignment=Assignment(amounts),
                policy=Policy.MULTIPLE,
            )

        before = solution(["a", "b"], {("c1", "a"): 5, ("c2", "b"): 3})
        after = solution(["b", "d"], {("c1", "b"): 5, ("c2", "b"): 4})
        added, dropped, reassigned = migration_stats(before, after)
        assert added == 1  # d
        assert dropped == 1  # a
        assert reassigned == pytest.approx(5 + 1)  # c1 moved, c2 grew by 1

    def test_migration_stats_cold_start_and_infeasible(self):
        solution = Solution(
            placement=Placement(["a"]),
            assignment=Assignment({("c", "a"): 2}),
            policy=Policy.MULTIPLE,
        )
        assert migration_stats(None, solution) == (1, 0, 2.0)
        assert migration_stats(solution, None) == (0, 1, 0.0)
        assert migration_stats(None, None) == (0, 0, 0.0)


# --------------------------------------------------------------------------- #
# the acceptance criterion: incremental == from-scratch, epoch by epoch
# --------------------------------------------------------------------------- #
def churn_cases():
    """(base problem, policy) cases for the 10%-churn cross-validation."""
    cases = []
    for seed in (31, 32, 33):
        tree = generate_tree(size=50, target_load=0.4, seed=seed)
        cases.append((replica_counting_problem(tree), "multiple"))
    tree = generate_tree(size=50, target_load=0.35, homogeneous=False, seed=34)
    cases.append((replica_cost_problem(tree), "upwards"))
    tree = generate_tree(size=50, target_load=0.2, seed=35)
    cases.append((replica_counting_problem(tree), "closest"))
    qos_tree = generate_tree(size=50, target_load=0.35, seed=36, qos_hops=(3, 6))
    cases.append(
        (
            replica_cost_problem(qos_tree, constraints=ConstraintSet.qos_distance()),
            "multiple",
        )
    )
    return cases


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("case", range(len(churn_cases())))
    def test_ten_percent_churn_matches_scratch(self, case):
        base, policy = churn_cases()[case]
        epochs = rate_churn(
            base, 10, churn=0.1, magnitude=0.5, quiet_probability=0.3, seed=100 + case
        )
        incremental = solve_sequence(epochs, policy=policy, mode="incremental")
        scratch = solve_sequence(epochs, policy=policy, mode="scratch")
        # Bit-identical costs on every epoch...
        assert incremental.costs == scratch.costs
        # ... and in fact identical placements and assignments.
        for left, right in zip(incremental.solutions, scratch.solutions):
            assert (left is None) == (right is None)
            if left is not None:
                assert left.placement.replicas == right.placement.replicas
                assert left.assignment == right.assignment
        # The incremental run must have skipped exactly the unchanged epochs.
        quiet_epochs = sum(
            1
            for previous, current in zip(epochs, epochs[1:])
            if current.tree == previous.tree
        )
        assert incremental.strategy_counts().get("reused", 0) == quiet_epochs
        assert scratch.strategy_counts() == {"solved": len(epochs)}

    def test_zero_churn_reuses_every_epoch(self):
        base = replica_counting_problem(generate_tree(size=40, target_load=0.4, seed=41))
        epochs = rate_churn(base, 6, churn=0.0, seed=1)
        result = solve_sequence(epochs, policy="multiple")
        assert result.strategy_counts() == {"solved": 1, "reused": 5}
        assert len(set(map(id, filter(None, result.solutions)))) == 1

    def test_reused_infeasible_verdicts(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=2)
            .add_client("c", requests=5, parent="root")
            .build()
        )
        base = replica_cost_problem(tree)
        epochs = rate_churn(base, 4, churn=0.0, seed=1)
        result = solve_sequence(epochs, policy="multiple")
        assert result.solutions == [None] * 4
        assert result.strategy_counts() == {"solved": 1, "reused": 3}

    def test_on_error_raise(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=10)
            .add_client("c", requests=5, parent="root")
            .build()
        )
        base = replica_cost_problem(tree)
        epochs = step_change(base, 4, at=2, factor=10)
        with pytest.raises(InfeasibleError):
            solve_sequence(epochs, policy="multiple", on_error="raise")
        result = solve_sequence(epochs, policy="multiple", on_error="none")
        assert [s is None for s in result.solutions] == [False, False, True, True]

    def test_topology_churn_matches_scratch(self):
        base = replica_counting_problem(generate_tree(size=40, target_load=0.3, seed=42))
        epochs = client_join_leave(base, 6, join_rate=0.2, leave_rate=0.2, seed=7)
        incremental = solve_sequence(epochs, policy="multiple")
        scratch = solve_sequence(epochs, policy="multiple", mode="scratch")
        assert incremental.costs == scratch.costs

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            solve_sequence([], mode="telepathy")
        with pytest.raises(ValueError):
            IncrementalResolver(mode="telepathy")


class TestPatchMode:
    def test_patched_solutions_are_valid_and_placement_stable(self):
        base = replica_counting_problem(generate_tree(size=50, target_load=0.5, seed=51))
        epochs = rate_churn(base, 10, churn=0.15, quiet_probability=0.2, seed=9)
        result = solve_sequence(epochs, policy="multiple", mode="patch")
        for problem, solution, stats in zip(epochs, result.solutions, result.stats):
            if solution is not None:
                assert_valid(problem, solution)
            if stats.strategy == "patched":
                # A successful patch never moves replicas.
                assert stats.replicas_added == 0 and stats.replicas_dropped == 0
        assert result.strategy_counts().get("patched", 0) > 0

    def test_patch_mode_reduces_reassignment_on_mild_churn(self):
        base = replica_counting_problem(generate_tree(size=50, target_load=0.5, seed=52))
        epochs = rate_churn(base, 10, churn=0.1, magnitude=0.3, seed=10)
        patch = solve_sequence(epochs, policy="multiple", mode="patch")
        scratch = solve_sequence(epochs, policy="multiple", mode="scratch")
        assert (
            patch.total_migrations()["requests_reassigned"]
            <= scratch.total_migrations()["requests_reassigned"]
        )

    def test_patch_falls_back_when_rates_explode(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=10)
            .add_node("a", capacity=10, parent="root")
            .add_client("c1", requests=6, parent="a")
            .add_client("c2", requests=4, parent="root")
            .build()
        )
        base = replica_cost_problem(tree)
        # Epoch 0 is served by the root alone (10 requests, capacity 10);
        # doubling c1 overflows that frozen placement, forcing a re-solve
        # that opens the second replica.
        epochs = step_change(base, 3, at=1, factor=2, clients=["c1"])
        result = solve_sequence(epochs, policy="multiple", mode="patch")
        assert result.solutions[0].placement.replicas == frozenset({"root"})
        assert result.solutions[1] is not None
        assert result.stats[1].strategy == "solved"
        assert "patch failed" in result.stats[1].notes
        assert result.solutions[1].placement.replicas == frozenset({"root", "a"})

    def test_patch_respects_qos(self):
        tree = generate_tree(size=40, target_load=0.4, seed=53, qos_hops=(2, 5))
        base = replica_cost_problem(tree, constraints=ConstraintSet.qos_distance())
        epochs = rate_churn(base, 8, churn=0.2, seed=11)
        result = solve_sequence(epochs, policy="multiple", mode="patch")
        for problem, solution in zip(epochs, result.solutions):
            if solution is not None:
                assert_valid(problem, solution)

    def test_patch_single_server_policies(self):
        tree = generate_tree(size=40, target_load=0.25, seed=54)
        base = replica_counting_problem(tree)
        epochs = rate_churn(base, 8, churn=0.15, magnitude=0.3, seed=12)
        for policy in ("closest", "upwards"):
            result = solve_sequence(epochs, policy=policy, mode="patch")
            for problem, solution in zip(epochs, result.solutions):
                if solution is not None:
                    assert_valid(problem, solution, policy=Policy.parse(policy))


# --------------------------------------------------------------------------- #
# CLI and churn campaign
# --------------------------------------------------------------------------- #
class TestDynamicCLI:
    @pytest.fixture
    def tree_file(self, tmp_path):
        tree = generate_tree(size=30, target_load=0.4, seed=61)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        return str(path)

    def test_churn_trajectory_run(self, tree_file, capsys):
        code = cli_main(
            ["dynamic", tree_file, "--epochs", "5", "--seed", "3", "--simulate"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "churn trajectory" in out
        assert "epoch   0" in out and "epoch   4" in out
        assert "Replay:" in out

    def test_patch_mode_and_step_trajectory(self, tree_file, capsys):
        code = cli_main(
            [
                "dynamic",
                tree_file,
                "--trajectory",
                "step",
                "--at",
                "2",
                "--factor",
                "1.2",
                "--epochs",
                "4",
                "--mode",
                "patch",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0 and "step trajectory" in out

    def test_missing_tree_errors(self, capsys):
        assert cli_main(["dynamic"]) == 1
        assert "required" in capsys.readouterr().err

    def test_trajectory_mismatched_flags_warn(self, tree_file, capsys):
        code = cli_main(
            ["dynamic", tree_file, "--trajectory", "ramp", "--churn", "0.5", "--epochs", "3"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "ramp trajectory ignores --churn" in captured.err

    def test_campaign_prints_tables(self, capsys):
        code = cli_main(
            [
                "dynamic",
                "--campaign",
                "--epochs",
                "4",
                "--trees-per-level",
                "1",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Mean per-epoch cost" in captured.out
        assert "placement stability" in captured.out
        assert "incremental" in captured.out and "patch" in captured.out
        assert "warning" not in captured.err

    def test_campaign_warns_about_ignored_flags(self, tree_file, capsys):
        code = cli_main(
            [
                "dynamic",
                tree_file,
                "--campaign",
                "--simulate",
                "--epochs",
                "3",
                "--trees-per-level",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "ignoring the tree file, --simulate" in captured.err

    def test_bounds_flag_prints_per_epoch_gaps(self, tree_file, capsys):
        code = cli_main(
            ["dynamic", tree_file, "--epochs", "4", "--seed", "9", "--bounds"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound" in out and "gap" in out
        assert "Bounds:" in out and "epochs bounded" in out

    def test_campaign_bounds_prints_gap_table(self, capsys):
        code = cli_main(
            [
                "dynamic",
                "--campaign",
                "--bounds",
                "--epochs",
                "3",
                "--trees-per-level",
                "1",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Cost relative to the per-epoch LP lower bound" in captured.out

    def test_workers_warns_on_single_trajectory(self, tree_file, capsys):
        code = cli_main(
            ["dynamic", tree_file, "--epochs", "3", "--workers", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "--workers only parallelises --campaign" in captured.err

    def test_campaign_accepts_workers(self, capsys):
        code = cli_main(
            [
                "dynamic",
                "--campaign",
                "--workers",
                "2",
                "--epochs",
                "3",
                "--trees-per-level",
                "1",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Mean per-epoch cost" in captured.out
        assert "warning" not in captured.err


class TestChurnCampaign:
    def test_campaign_records_and_series(self):
        from repro.experiments.harness import ChurnCampaignConfig, run_churn_campaign

        config = ChurnCampaignConfig(
            churn_levels=(0.1, 0.3),
            epochs=4,
            trees_per_level=2,
            size=30,
            seed=77,
        )
        result = run_churn_campaign(config)
        assert len(result.records) == 2 * 2 * 2  # levels x trees x modes
        costs = result.cost_series()
        stability = result.stability_series()
        for mode in config.modes:
            assert set(costs[mode]) == {0.1, 0.3}
            assert all(value >= 0 for value in stability[mode].values())
        assert "churn" in result.cost_table()
        assert "trajectory solves" in result.describe()

    def test_parallel_campaign_matches_sequential(self):
        from dataclasses import asdict

        from repro.experiments.harness import ChurnCampaignConfig, run_churn_campaign

        config = ChurnCampaignConfig(
            churn_levels=(0.1, 0.3),
            epochs=4,
            trees_per_level=2,
            size=30,
            seed=77,
        )
        sequential = run_churn_campaign(config)
        parallel = run_churn_campaign(config, workers=3)
        assert len(parallel.records) == len(sequential.records)

        def normalise(record):
            fields = asdict(record)
            fields.pop("runtime")  # wall times differ, outcomes must not
            return {
                key: None
                if isinstance(value, float) and math.isnan(value)
                else value
                for key, value in fields.items()
            }

        for left, right in zip(sequential.records, parallel.records):
            assert normalise(left) == normalise(right)

    def test_track_bounds_populates_gap_series(self):
        from repro.experiments.harness import ChurnCampaignConfig, run_churn_campaign

        config = ChurnCampaignConfig(
            churn_levels=(0.1,),
            epochs=4,
            trees_per_level=2,
            size=30,
            seed=78,
            track_bounds=True,
        )
        result = run_churn_campaign(config)
        for record in result.records:
            assert math.isfinite(record.mean_bound)
            # Heuristic costs can never beat the LP bound.
            assert record.mean_gap >= 1.0 - 1e-9
        gaps = result.gap_series()
        for mode in config.modes:
            assert set(gaps[mode]) == {0.1}
        assert "churn" in result.gap_table()

    def test_untracked_bounds_stay_nan(self):
        from repro.experiments.harness import ChurnCampaignConfig, run_churn_campaign

        config = ChurnCampaignConfig(
            churn_levels=(0.1,), epochs=3, trees_per_level=1, size=24, seed=79
        )
        result = run_churn_campaign(config)
        assert all(math.isnan(record.mean_gap) for record in result.records)
        assert all(math.isnan(record.mean_bound) for record in result.records)


class TestRegionalChurn:
    @pytest.fixture
    def base(self):
        return replica_counting_problem(
            generate_tree(size=50, target_load=0.4, seed=17)
        )

    def test_epoch_zero_is_base_and_metadata_survives(self, base):
        epochs = regional_churn(base, 5, seed=1)
        assert len(epochs) == 5
        assert epochs[0] is base
        for problem in epochs:
            assert problem.kind is base.kind
            assert problem.constraints == base.constraints

    def test_changes_stay_inside_one_region_subtree(self, base):
        tree = base.tree
        level = 1
        regions = {
            nid: set(tree.subtree_clients(nid))
            for nid in tree.node_ids
            if tree.depth(nid) == level
        }
        epochs = regional_churn(
            base, 6, depth=level, regions_per_epoch=1, magnitude=0.8, seed=2
        )
        for previous, current in zip(epochs, epochs[1:]):
            changed = {
                cid
                for cid in tree.client_ids
                if previous.tree.client(cid).requests
                != current.tree.client(cid).requests
            }
            if not changed:
                continue  # the factor rounded every rate back onto itself
            assert any(changed <= clients for clients in regions.values())

    def test_region_scales_by_one_shared_factor(self, base):
        tree = base.tree
        epochs = regional_churn(base, 2, magnitude=0.9, seed=5)
        previous, current = epochs
        factors = set()
        for cid in tree.client_ids:
            old = previous.tree.client(cid).requests
            new = current.tree.client(cid).requests
            if old != new and old > 0:
                # rounding blurs the exact ratio; bucket it coarsely
                factors.add(round(new / old, 1))
        assert len(factors) <= 3  # one factor, seen through integer rounding

    def test_quiet_probability_one_freezes_the_trajectory(self, base):
        epochs = regional_churn(base, 5, quiet_probability=1.0, seed=3)
        for problem in epochs[1:]:
            for cid in base.tree.client_ids:
                assert (
                    problem.tree.client(cid).requests
                    == base.tree.client(cid).requests
                )

    def test_zero_magnitude_keeps_rates_but_steps_epochs(self, base):
        epochs = regional_churn(base, 4, magnitude=0.0, seed=4)
        for problem in epochs[1:]:
            for cid in base.tree.client_ids:
                assert (
                    problem.tree.client(cid).requests
                    == base.tree.client(cid).requests
                )

    def test_depth_is_clamped_to_the_deepest_internal_level(self, base):
        epochs = regional_churn(base, 3, depth=10_000, magnitude=0.5, seed=6)
        assert len(epochs) == 3

    def test_rates_stay_integral_and_non_negative(self, base):
        epochs = regional_churn(base, 8, magnitude=0.9, seed=7)
        for problem in epochs:
            for client in problem.tree.clients():
                assert client.requests >= 0
                assert client.requests == int(client.requests)

    def test_reproducible_for_a_seed(self, base):
        first = regional_churn(base, 5, seed=8)
        second = regional_churn(base, 5, seed=8)
        assert [p.tree for p in first] == [p.tree for p in second]

    def test_parameter_validation(self, base):
        with pytest.raises(ValueError):
            regional_churn(base, 3, depth=-1)
        with pytest.raises(ValueError):
            regional_churn(base, 3, regions_per_epoch=0)
        with pytest.raises(ValueError):
            regional_churn(base, 3, magnitude=-0.1)
        with pytest.raises(ValueError):
            regional_churn(base, 3, quiet_probability=1.5)

    def test_solves_end_to_end_with_shards(self, base):
        epochs = regional_churn(base, 4, magnitude=0.4, seed=9)
        result = solve_sequence(epochs, shards=2)
        assert len(result.solutions) == len(epochs)
        for problem, solution in zip(epochs, result.solutions):
            if solution is not None:
                assert_valid(problem, solution)
