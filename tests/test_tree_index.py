"""Property-based cross-validation of :class:`repro.core.index.TreeIndex`.

The indexed flat-tree engine is only trustworthy if its interned arrays
agree with the authoritative dict-based :class:`TreeNetwork` queries.  These
tests draw a broad population of seeded random trees (plus the hand-built
fixtures) and assert, element by element, that every structural quantity the
index precomputes -- parents, depths, ancestor chains, subtree client spans,
subtree node spans, request sums, QoS depth thresholds -- matches the tree.
"""

from __future__ import annotations

import math

import pytest

from repro.core.builder import TreeBuilder
from repro.core.exceptions import TreeStructureError
from repro.core.index import TreeIndex
from repro.workloads.generator import GeneratorConfig, TreeGenerator


def random_tree(seed: int):
    """One seeded random tree; parameters vary deterministically with the seed."""
    sizes = (12, 20, 33, 47, 60)
    attachments = ("spread", "leaves", "uniform")
    config = GeneratorConfig(
        size=sizes[seed % len(sizes)],
        target_load=0.2 + 0.15 * (seed % 5),
        homogeneous=seed % 2 == 0,
        client_attachment=attachments[seed % len(attachments)],
        max_children=2 + seed % 3,
        qos_hops=(2, 5) if seed % 3 == 0 else None,
        link_comm_time=1.0 if seed % 2 == 0 else 0.5,
    )
    return TreeGenerator(seed).generate(config)


#: 50+ seeded random trees, as required by the cross-validation suite.
RANDOM_SEEDS = list(range(52))


def assert_index_matches_tree(tree):
    index = TreeIndex(tree)

    # --- populations ---------------------------------------------------- #
    assert sorted(map(repr, index.node_order)) == sorted(map(repr, tree.node_ids))
    assert sorted(map(repr, index.client_order)) == sorted(map(repr, tree.client_ids))
    assert index.n_nodes == len(tree.node_ids)
    assert index.n_clients == len(tree.client_ids)
    assert index.height == tree.height()

    # --- interning round-trips ------------------------------------------ #
    for position, node_id in enumerate(index.node_order):
        assert index.node_pos[node_id] == position
        assert index.node_index(node_id) == position
    for position, client_id in enumerate(index.client_order):
        assert index.client_pos[client_id] == position
        assert index.client_index(client_id) == position

    # --- the client layout is exactly the tree's root client tuple ------- #
    assert index.client_order == tree.subtree_clients(tree.root)

    # --- parents, depths, ancestors ------------------------------------- #
    for element_id in tree.node_ids + tree.client_ids:
        assert index.parent_of(element_id) == tree.parent(element_id)
        assert index.depth_of(element_id) == tree.depth(element_id)
        assert index.ancestors_of(element_id) == tree.ancestors(element_id)

    # --- subtree spans: clients in identical order, nodes as sets -------- #
    for node_id in tree.node_ids:
        assert index.subtree_clients_of(node_id) == tree.subtree_clients(node_id)
        assert sorted(map(repr, index.subtree_nodes_of(node_id))) == sorted(
            map(repr, tree.subtree_nodes(node_id))
        )
        assert index.subtree_requests_of(node_id) == pytest.approx(
            tree.subtree_requests(node_id)
        )

    # --- request vectors ------------------------------------------------- #
    for position, client_id in enumerate(index.client_order):
        assert index.client_requests[position] == float(tree.client(client_id).requests)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_index_matches_tree_on_random_trees(seed):
    assert_index_matches_tree(random_tree(seed))


def test_index_matches_hand_built_trees(small_tree, hetero_tree, qos_tree, chain_tree):
    for tree in (small_tree, hetero_tree, qos_tree, chain_tree):
        assert_index_matches_tree(tree)


def test_index_is_cached_per_tree(small_tree):
    assert TreeIndex.for_tree(small_tree) is TreeIndex.for_tree(small_tree)
    # A rebuilt (equal) tree gets its own index.
    other = (
        TreeBuilder()
        .add_node("root", capacity=10)
        .add_node("n1", capacity=10, parent="root")
        .add_client("c1", requests=7, parent="n1")
        .add_client("c2", requests=3, parent="n1")
        .add_client("c3", requests=2, parent="root")
        .build()
    )
    assert TreeIndex.for_tree(other) is not TreeIndex.for_tree(small_tree)


def test_index_rejects_unknown_ids(small_tree):
    index = TreeIndex.for_tree(small_tree)
    with pytest.raises(TreeStructureError):
        index.node_index("nope")
    with pytest.raises(TreeStructureError):
        index.client_index("nope")
    with pytest.raises(TreeStructureError):
        index.subtree_clients_of("c1")  # clients have no node span


def float_order_tree():
    """root -- n2 -- n1 -- c with uplink times 0.3, 0.2 and 0.1 and a 0.6
    latency bound: summed from the client up, 0.1 + 0.2 + 0.3 is
    0.6000000000000001 and excludes the root; the reverse order would sum
    to 0.6 and admit it."""
    return (
        TreeBuilder()
        .add_node("root", capacity=10)
        .add_node("n2", capacity=10, parent="root", comm_time=0.3)
        .add_node("n1", capacity=10, parent="n2", comm_time=0.2)
        .add_client("c", requests=5, parent="n1", qos=0.6, comm_time=0.1)
        .build()
    )


def test_latency_adds_links_from_the_element_up():
    """``tree.latency`` adds uplink times from the element upward with plain
    ``+`` (``sum()`` compensates float sums from Python 3.12 on, which would
    read 0.6 here), the additions the threshold climb makes."""
    tree = float_order_tree()
    assert tree.latency("c", "root") == (0.1 + 0.2) + 0.3 > 0.6
    assert tree.latency("c", "n2") == 0.1 + 0.2
    assert tree.latency("n1", "root") == 0.2 + 0.3
    assert tree.latency("c", "c") == 0


def test_qos_thresholds_match_eligible_servers():
    """The depth thresholds reproduce the per-pair QoS filtering exactly, and
    both engines offer a server the same eligible clients (the native one
    reads the thresholds, the dict one asks ``qos_satisfied`` pair by pair)."""
    from repro.algorithms.common import make_state
    from repro.core.constraints import ConstraintSet
    from repro.core.problem import ReplicaPlacementProblem
    from tests.conftest import ENGINES, on_engine

    trees = [
        TreeGenerator(seed).generate(
            GeneratorConfig(
                size=40,
                target_load=0.4,
                homogeneous=seed % 2 == 0,
                qos_hops=(1, 4),
                link_comm_time=1.0 if seed % 2 == 0 else 2.0,
            )
        )
        for seed in range(12)
    ]
    trees.append(float_order_tree())
    for tree in trees:
        for constraints in (ConstraintSet.qos_distance(), ConstraintSet.qos_latency()):
            problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
            index = TreeIndex.for_tree(tree)
            thresholds = index.qos_depth_thresholds(problem)
            eligible = {}
            for ci, client_id in enumerate(index.client_order):
                expected = tuple(
                    ancestor
                    for ancestor in tree.ancestors(client_id)
                    if problem.qos_satisfied(client_id, ancestor)
                )
                via_threshold = tuple(
                    ancestor
                    for ancestor in tree.ancestors(client_id)
                    if tree.depth(ancestor) >= thresholds[ci]
                )
                assert via_threshold == expected
                # eligible_servers (the memoised public query) agrees too.
                assert problem.eligible_servers(client_id) == expected
                eligible[client_id] = expected
            for engine in ENGINES:
                with on_engine(engine):
                    state = make_state(problem)
                for node_id in tree.node_ids:
                    assert state.eligible_pending_clients(node_id) == [
                        client_id
                        for client_id in tree.subtree_clients(node_id)
                        if tree.requests(client_id) > 0 and node_id in eligible[client_id]
                    ], (engine, node_id)

    latency = ReplicaPlacementProblem(
        tree=trees[-1], constraints=ConstraintSet.qos_latency()
    )
    assert 0.1 + 0.2 + 0.3 > 0.6 >= 0.3 + 0.2 + 0.1
    assert latency.eligible_servers("c") == ("n1", "n2")


@pytest.mark.parametrize("mode", ["distance", "latency"])
def test_qos_thresholds_read_no_ancestor_chain(mode):
    """The thresholds climb the index's parent vectors: computing them on a
    fresh index builds none of the tree's ancestor chains."""
    from repro.core.constraints import ConstraintSet
    from repro.core.problem import ReplicaPlacementProblem

    tree = TreeGenerator(5).generate(
        GeneratorConfig(size=120, target_load=0.4, qos_hops=(2, 6), link_comm_time=0.5)
    )
    constraints = getattr(ConstraintSet, f"qos_{mode}")()
    problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
    assert tree._store.memo.ancestors is None
    thresholds = TreeIndex(tree).qos_depth_thresholds(problem)
    assert len(thresholds) == len(tree.client_ids)
    assert tree._store.memo.ancestors is None


def test_infinite_qos_keeps_all_ancestors():
    from repro.core.constraints import ConstraintSet
    from repro.core.problem import ReplicaPlacementProblem

    tree = (
        TreeBuilder()
        .add_node("root", capacity=10)
        .add_node("mid", capacity=10, parent="root")
        .add_client("c", requests=5, parent="mid", qos=math.inf)
        .build()
    )
    problem = ReplicaPlacementProblem(tree=tree, constraints=ConstraintSet.qos_distance())
    assert problem.eligible_servers("c") == ("mid", "root")
