"""Sharded subtree solving: partition -> per-shard solve -> cut reconciliation.

Pins the sharding layer end to end:

* :func:`partition_problem` emits well-formed plans: antichain cuts, regions
  that partition the clients, residual/boundary bookkeeping, QoS budgets
  equal to the clients' global slack at the shard root;
* the sharded solve path indexes each shard's tree on first use and never
  materialises the whole-tree index;
* :func:`solve_sharded` is **bit-identical** to the whole-tree solve on
  forced instances whose shards are independent (no cut contention), and
  stays ``validate_solution``-feasible with a bounded cost gap on contended
  random instances, across policies x {counting, cost, qos, bandwidth};
* a sharded :class:`PlacementSession` re-solves exactly one shard after a
  single-shard rate change (asserted through per-region resolver stats).
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.portfolio import portfolio_solve
from repro.algorithms.sharded import solve_sharded, stitch_solutions
from repro.core.builder import TreeBuilder
from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError
from repro.core.index import TreeIndex
from repro.core.partition import choose_cut, partition_problem
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.session import PlacementSession
from repro.workloads.generator import GeneratorConfig, TreeGenerator

from tests.conftest import assert_valid, make_random_problem

POLICIES = (Policy.CLOSEST, Policy.UPWARDS, Policy.MULTIPLE)

W = 10.0


def forced_problem(variant: str, branches: int = 3):
    """An instance whose unique optimum is forced, shard by shard.

    ``branches`` subtrees hang off the root, each a node ``b{i}`` whose
    capacity exactly equals its clients' demand; one extra client at the
    root consumes the root's entire capacity.  Every feasible solution must
    replicate on the root and on every branch node and route each client to
    its parent -- so the whole-tree solve and the sharded solve (cut at the
    branch nodes) must agree **bit for bit**.  ``variant`` selects the cost
    mode / constraint family of the cross-validation matrix.
    """
    qos = variant == "qos"
    bandwidth = variant == "bandwidth"
    builder = TreeBuilder()
    if variant == "cost":
        builder.add_node("root", capacity=W, storage_cost=7.0)
    else:
        builder.add_node("root", capacity=W)
    builder.add_client(
        "top",
        requests=W,
        parent="root",
        qos=1 if qos else math.inf,
        bandwidth=W if bandwidth else math.inf,
    )
    for i in range(branches):
        if variant == "cost":
            builder.add_node(
                f"b{i}", capacity=W, storage_cost=5.0 + i, parent="root",
                bandwidth=0.5 if bandwidth else math.inf,
            )
        else:
            builder.add_node(
                f"b{i}", capacity=W, parent="root",
                bandwidth=0.5 if bandwidth else math.inf,
            )
        for j, rate in enumerate((6.0, 4.0)):
            builder.add_client(
                f"c{i}_{j}",
                requests=rate,
                parent=f"b{i}",
                qos=1 if qos else math.inf,
                bandwidth=rate if bandwidth else math.inf,
            )
    tree = builder.build()
    if variant == "counting":
        kind, constraints = ProblemKind.REPLICA_COUNTING, ConstraintSet.none()
    elif variant == "cost":
        kind, constraints = ProblemKind.REPLICA_COST, ConstraintSet.none()
    elif variant == "qos":
        kind, constraints = ProblemKind.REPLICA_COST, ConstraintSet.qos_distance()
    else:  # bandwidth
        kind, constraints = ProblemKind.REPLICA_COST, ConstraintSet(
            enforce_bandwidth=True
        )
    problem = ReplicaPlacementProblem(
        tree=tree, kind=kind, constraints=constraints, name=f"forced[{variant}]"
    )
    cut = tuple(f"b{i}" for i in range(branches))
    return problem, cut


# --------------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------------- #
class TestPartition:
    def test_regions_partition_the_clients(self):
        problem = make_random_problem(11, size=80, load=0.4)
        plan = partition_problem(problem, shards=4)
        tree = problem.tree
        seen = []
        for shard in plan.shards:
            assert shard.root != tree.root
            assert shard.root in tree.node_ids
            seen.extend(shard.clients)
        seen.extend(plan.residual.tree.client_ids)
        assert sorted(map(repr, seen)) == sorted(map(repr, tree.client_ids))
        # region_of agrees with the shard membership
        for index, shard in enumerate(plan.shards):
            for cid in shard.clients:
                assert plan.region_of(cid) == index
        for cid in plan.residual.tree.client_ids:
            assert plan.region_of(cid) == len(plan.shards)

    def test_cut_is_an_antichain(self):
        problem = make_random_problem(3, size=100, load=0.4)
        plan = partition_problem(problem, shards=5)
        tree = problem.tree
        roots = [shard.root for shard in plan.shards]
        for a in roots:
            for b in roots:
                if a != b:
                    assert a not in tree.ancestors(b)

    def test_demand_and_capacity_bookkeeping(self):
        problem = make_random_problem(7, size=60, load=0.5)
        plan = partition_problem(problem, shards=3)
        tree = problem.tree
        for shard in plan.shards:
            assert shard.demand == pytest.approx(tree.subtree_requests(shard.root))
            expected_capacity = sum(
                tree.node(nid).capacity for nid in shard.problem.tree.node_ids
            )
            assert shard.capacity == pytest.approx(expected_capacity)
            assert shard.contended == (shard.demand > shard.capacity)

    def test_explicit_cut_and_validation_errors(self):
        problem = make_random_problem(5, size=60, load=0.4)
        tree = problem.tree
        cut = choose_cut(tree, 3)
        plan = partition_problem(problem, cut=cut)
        assert [shard.root for shard in plan.shards] == list(cut)
        with pytest.raises(ValueError):
            partition_problem(problem)  # neither spec
        with pytest.raises(ValueError):
            partition_problem(problem, shards=2, cut=cut)  # both specs
        with pytest.raises(ValueError):
            partition_problem(problem, cut=[tree.root])  # root is not cuttable
        with pytest.raises(ValueError):
            partition_problem(problem, cut=[cut[0], cut[0]])  # duplicate
        child = None
        for nid in tree.node_ids:
            if cut[0] in tree.ancestors(nid):
                child = nid
                break
        if child is not None:
            with pytest.raises(ValueError):
                partition_problem(problem, cut=[cut[0], child])  # nested

    def test_boundary_budgets_keep_global_slack(self):
        problem, cut = forced_problem("qos")
        plan = partition_problem(problem, cut=cut)
        for shard in plan.shards:
            for cid in shard.clients:
                # qos=1 hop, the shard root is exactly 1 hop away: no slack.
                assert shard.boundary_budget(cid) == pytest.approx(0.0)
        unbounded, _ = forced_problem("counting")
        plan = partition_problem(unbounded, cut=cut)
        for shard in plan.shards:
            for cid in shard.clients:
                assert shard.boundary_budget(cid) == math.inf

    def test_shard_problems_preserve_structure(self):
        problem = make_random_problem(13, size=70, load=0.4)
        plan = partition_problem(problem, shards=3)
        whole = TreeIndex(problem.tree)
        for shard in plan.shards:
            sub = shard.problem.tree
            assert sub.root == shard.root
            for cid in sub.client_ids:
                assert problem.tree.client(cid).requests == sub.client(cid).requests
            # A shard's own index lays it out as the whole-tree span of its root.
            index = TreeIndex(sub)
            assert index.node_order == whole.subtree_nodes_of(shard.root)
            assert index.client_order == whole.subtree_clients_of(shard.root)
        assert plan.residual.tree.root == problem.tree.root


# --------------------------------------------------------------------------- #
# cross-validation: sharded vs whole-tree
# --------------------------------------------------------------------------- #
VARIANTS = ("counting", "cost", "qos", "bandwidth")


class TestIndependentShardsBitIdentical:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forced_instance_matches_whole_tree(self, policy, variant):
        problem, cut = forced_problem(variant)
        whole = portfolio_solve(problem, policy=policy)
        sharded = solve_sharded(problem, policy=policy, shards=cut)
        assert sharded.placement == whole.placement
        assert dict(sharded.assignment.items()) == dict(whole.assignment.items())
        assert sharded.cost(problem) == whole.cost(problem)
        assert_valid(problem, sharded, policy=policy)
        assert sharded.metadata["strategy"] == "independent"

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_shard_special_case_is_whole_tree(self, policy):
        problem, _ = forced_problem("cost")
        whole = portfolio_solve(problem, policy=policy)
        trivial = solve_sharded(problem, policy=policy, shards=1)
        assert trivial.placement == whole.placement
        assert dict(trivial.assignment.items()) == dict(whole.assignment.items())
        assert trivial.algorithm == whole.algorithm

    def test_sharded_solve_never_builds_the_global_index(self):
        problem = make_random_problem(31, size=80, load=0.4)
        assert problem.tree._index_cache is None
        solution = solve_sharded(problem, shards=4)
        assert solution is not None
        assert problem.tree._index_cache is None


def _contended_problem(variant: str, seed: int):
    kwargs = {}
    if variant == "qos":
        kwargs["qos_hops"] = (2, 4)
    if variant == "bandwidth":
        kwargs["link_bandwidth"] = 120.0
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(
            size=60,
            target_load=0.8,
            homogeneous=(variant == "counting"),
            **kwargs,
        )
    )
    if variant == "counting":
        kind, constraints = ProblemKind.REPLICA_COUNTING, ConstraintSet.none()
    elif variant == "qos":
        kind, constraints = ProblemKind.REPLICA_COST, ConstraintSet.qos_distance()
    elif variant == "bandwidth":
        kind, constraints = ProblemKind.REPLICA_COST, ConstraintSet(
            enforce_bandwidth=True
        )
    else:
        kind, constraints = ProblemKind.REPLICA_COST, ConstraintSet.none()
    return ReplicaPlacementProblem(tree=tree, kind=kind, constraints=constraints)


class TestContendedShardsFeasible:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", (2, 12))
    def test_valid_and_bounded_gap(self, policy, variant, seed):
        problem = _contended_problem(variant, seed)
        try:
            whole = portfolio_solve(problem, policy=policy)
        except InfeasibleError:
            whole = None
        try:
            sharded = solve_sharded(problem, policy=policy, shards=3)
        except InfeasibleError:
            sharded = None
        if sharded is not None:
            assert_valid(problem, sharded, policy=policy)
        if whole is not None:
            # the whole-tree fallback guarantees sharded never loses
            # feasibility, and the locality gap stays bounded
            assert sharded is not None
            assert sharded.cost(problem) <= 2.0 * whole.cost(problem) + 1e-9


# --------------------------------------------------------------------------- #
# session threading
# --------------------------------------------------------------------------- #
def _session_problem(seed=11, size=80, load=0.3):
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(size=size, target_load=load, homogeneous=True)
    )
    return ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COST)


class TestShardedSession:
    def test_matches_solve_sharded(self):
        problem = _session_problem()
        session = PlacementSession(problem, shards=4)
        result = session.solve()
        direct = solve_sharded(problem, shards=4)
        assert result.cost == pytest.approx(direct.cost(problem))
        assert_valid(problem, result.solution, policy=session.policy)
        # the sharded session never builds the whole-tree index
        assert problem.tree._index_cache is None

    def test_single_shard_rate_change_resolves_exactly_one_region(self):
        problem = _session_problem()
        session = PlacementSession(problem, shards=4)
        session.solve()
        plan = session.shard_plan
        assert len(plan.shards) >= 2
        target = plan.shards[1]
        cid = target.clients[0]
        old = problem.tree.client(cid).requests
        result = session.update(requests={cid: old + 1.0})
        strategies = result.solution.metadata["shard_strategies"]
        resolved = [
            index
            for index, strategy in enumerate(strategies)
            if strategy not in ("reused", "empty")
        ]
        assert resolved == [1]
        assert result.stats.strategy == "solved"
        assert_valid(session.problem, result.solution, policy=session.policy)

    def test_quiet_epoch_reuses_every_region(self):
        problem = _session_problem()
        session = PlacementSession(problem, shards=3)
        session.solve()
        result = session.update(requests={})
        assert result.stats.strategy == "reused"
        strategies = result.solution.metadata["shard_strategies"]
        assert all(s in ("reused", "empty") for s in strategies)

    def test_structural_update_invalidates_the_plan(self):
        problem = _session_problem()
        session = PlacementSession(problem, shards=3)
        session.solve()
        assert session.shard_plan is not None
        from repro.workloads.dynamic import client_join_leave

        epochs = client_join_leave(problem, 3, join_rate=0.5, leave_rate=0.0, seed=1)
        grown = epochs[-1]
        assert len(grown.tree.client_ids) > len(problem.tree.client_ids)
        result = session.update(grown)
        assert result.solution is not None
        assert_valid(session.problem, result.solution, policy=session.policy)

    def test_shards_one_is_the_whole_tree_path(self):
        problem = _session_problem()
        sharded = PlacementSession(problem, shards=1)
        plain = PlacementSession(problem)
        assert sharded.shard_plan is None
        a = sharded.solve()
        b = plain.solve()
        assert a.solution.placement == b.solution.placement
        assert dict(a.solution.assignment.items()) == dict(
            b.solution.assignment.items()
        )

    def test_export_restore_round_trips_shards(self):
        problem = _session_problem()
        session = PlacementSession(problem, shards=3)
        before = session.solve()
        state = session.export_state()
        assert state["shards"] == 3
        restored = PlacementSession.restore_state(state)
        assert restored.shards == 3
        assert restored.solve().cost == pytest.approx(before.cost)

    def test_memory_estimate_counts_built_shards_only(self):
        problem = _session_problem()
        session = PlacementSession(problem, shards=4)
        cold = session.memory_estimate()
        session.solve()
        warm = session.memory_estimate()
        assert warm > cold
        assert problem.tree._index_cache is None

    def test_regional_churn_drives_one_shard_resolves(self):
        from repro.workloads.dynamic import regional_churn

        problem = _session_problem(seed=5, size=60)
        cut = choose_cut(problem.tree, 3)
        epochs = regional_churn(problem, 6, depth=1, magnitude=0.6, seed=3)
        session = PlacementSession(problem, shards=list(cut))
        session.solve()
        for epoch in epochs[1:]:
            result = session.update(epoch)
            assert result.solution is not None
            strategies = result.solution.metadata.get("shard_strategies")
            if strategies is not None:
                resolved = [s for s in strategies if s not in ("reused", "empty")]
                # whole subtrees surge together: at most a couple of regions
                # (the surged shard, plus the residual when the surge lands
                # above every cut node) re-solve per epoch
                assert len(resolved) <= 2
