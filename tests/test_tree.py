"""Unit tests for the tree-network data structure."""

from __future__ import annotations

import math
import re

import pytest

from repro.core.exceptions import TreeStructureError
from repro.core.index import TreeIndex
from repro.core.tree import Client, InternalNode, Link, TreeNetwork

NAN = float("nan")


def raises_exactly(message):
    """``pytest.raises`` for a TreeStructureError with exactly ``message``."""
    return pytest.raises(TreeStructureError, match=f"^{re.escape(message)}$")


def build_sample():
    nodes = [
        InternalNode("root", capacity=10),
        InternalNode("a", capacity=5),
        InternalNode("b", capacity=8, storage_cost=3),
    ]
    clients = [Client("c1", requests=4), Client("c2", requests=2, qos=2)]
    links = [
        Link("a", "root", comm_time=2.0),
        Link("b", "root"),
        Link("c1", "a", comm_time=0.5),
        Link("c2", "b", bandwidth=10),
    ]
    return TreeNetwork(nodes, clients, links)


class TestComponents:
    def test_internal_node_default_storage_cost_equals_capacity(self):
        node = InternalNode("x", capacity=42)
        assert node.storage_cost == 42

    def test_internal_node_explicit_storage_cost(self):
        node = InternalNode("x", capacity=42, storage_cost=7)
        assert node.storage_cost == 7

    def test_internal_node_negative_capacity_rejected(self):
        with pytest.raises(TreeStructureError):
            InternalNode("x", capacity=-1)

    def test_internal_node_negative_cost_rejected(self):
        with pytest.raises(TreeStructureError):
            InternalNode("x", capacity=1, storage_cost=-2)

    def test_client_defaults_to_unbounded_qos(self):
        assert math.isinf(Client("c", requests=1).qos)

    def test_client_negative_requests_rejected(self):
        with pytest.raises(TreeStructureError):
            Client("c", requests=-1)

    def test_client_non_positive_qos_rejected(self):
        with pytest.raises(TreeStructureError):
            Client("c", requests=1, qos=0)

    def test_link_negative_comm_time_rejected(self):
        with pytest.raises(TreeStructureError):
            Link("a", "b", comm_time=-1)

    def test_link_key(self):
        assert Link("a", "b").key == ("a", "b")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Client("c", requests=NAN), "client 'c' has request rate nan"),
            (lambda: Client("c", requests=math.inf), "client 'c' has request rate inf"),
            (lambda: Client("c", requests=1, qos=NAN), "client 'c' has QoS bound nan"),
            (lambda: InternalNode("x", capacity=NAN), "node 'x' has capacity nan"),
            (lambda: InternalNode("x", capacity=math.inf), "node 'x' has capacity inf"),
            (
                lambda: InternalNode("x", capacity=1, storage_cost=NAN),
                "node 'x' has storage cost nan",
            ),
            (
                lambda: InternalNode("x", capacity=1, storage_cost=math.inf),
                "node 'x' has storage cost inf",
            ),
            (lambda: Link("a", "b", comm_time=NAN), "link 'a'->'b' has comm time nan"),
            (lambda: Link("a", "b", bandwidth=NAN), "link 'a'->'b' has bandwidth nan"),
        ],
    )
    def test_nan_and_unbounded_values_rejected(self, build, message):
        with pytest.raises(TreeStructureError, match=f"^{re.escape(message)}, not a "):
            build()

    def test_infinite_qos_and_bandwidth_mean_unbounded(self):
        assert Client("c", requests=1, qos=math.inf).qos == math.inf
        assert Link("a", "b", bandwidth=math.inf).bandwidth == math.inf

    def test_with_requests_rejects_nan(self):
        tree = build_sample()
        with raises_exactly("client 'c1' has request rate nan, not a finite number >= 0"):
            tree.with_requests({"c1": NAN})

    def test_with_storage_cost_returns_new_node(self):
        node = InternalNode("x", capacity=5)
        other = node.with_storage_cost(1.0)
        assert other.storage_cost == 1.0 and node.storage_cost == 5.0


class TestStructureValidation:
    def test_duplicate_node_ids_rejected(self):
        with raises_exactly("duplicate internal node id 'x'"):
            TreeNetwork(
                [InternalNode("x", capacity=1), InternalNode("x", capacity=2)], [], []
            )

    def test_duplicate_client_ids_rejected(self):
        with raises_exactly("duplicate client id 'c'"):
            TreeNetwork(
                [InternalNode("r", capacity=1)],
                [Client("c", requests=1), Client("c", requests=2)],
                [Link("c", "r")],
            )

    def test_id_shared_between_client_and_node_rejected(self):
        with raises_exactly("identifier 'x' used both as client and internal node"):
            TreeNetwork(
                [InternalNode("r", capacity=1), InternalNode("x", capacity=1)],
                [Client("x", requests=1)],
                [Link("x", "r")],
            )

    def test_client_cannot_be_a_parent(self):
        with raises_exactly(
            "link parent 'c' is not an internal node (clients must be leaves)"
        ):
            TreeNetwork(
                [InternalNode("r", capacity=1)],
                [Client("c", requests=1), Client("d", requests=1)],
                [Link("c", "r"), Link("d", "c")],
            )

    def test_two_roots_rejected(self):
        with raises_exactly("expected exactly one root internal node, found 2: ['r1', 'r2']"):
            TreeNetwork(
                [InternalNode("r1", capacity=1), InternalNode("r2", capacity=1)], [], []
            )

    def test_client_without_parent_rejected(self):
        with raises_exactly("clients without a parent link: ['c']"):
            TreeNetwork([InternalNode("r", capacity=1)], [Client("c", requests=1)], [])

    def test_double_parent_rejected(self):
        with raises_exactly("'a' has more than one parent"):
            TreeNetwork(
                [
                    InternalNode("r", capacity=1),
                    InternalNode("a", capacity=1),
                    InternalNode("b", capacity=1),
                ],
                [],
                [Link("a", "r"), Link("b", "r"), Link("a", "b")],
            )

    def test_self_loop_rejected(self):
        with raises_exactly("self-loop on 'a'"):
            TreeNetwork(
                [InternalNode("r", capacity=1), InternalNode("a", capacity=1)],
                [],
                [Link("a", "a")],
            )

    def test_empty_tree_rejected(self):
        with raises_exactly("a tree network needs at least one internal node"):
            TreeNetwork([], [], [])

    def test_unknown_link_endpoint_rejected(self):
        with raises_exactly("link child 'ghost' is not declared"):
            TreeNetwork([InternalNode("r", capacity=1)], [], [Link("ghost", "r")])

    def test_cycle_is_unreachable(self):
        with raises_exactly(
            "elements unreachable from the root (cycle or disconnected): "
            "[\"'a'\", \"'b'\", \"'c'\"]"
        ):
            TreeNetwork(
                [
                    InternalNode("r", capacity=1),
                    InternalNode("a", capacity=1),
                    InternalNode("b", capacity=1),
                ],
                [Client("c", requests=1)],
                [Link("a", "b"), Link("b", "a"), Link("c", "a")],
            )

    def test_per_item_defects_are_named_before_global_ones(self):
        # The self-loop leaves no root; the first link's parent is a client.
        with raises_exactly("self-loop on 'r'"):
            TreeNetwork([InternalNode("r", capacity=1)], [], [Link("r", "r")])
        with raises_exactly(
            "link parent 'c' is not an internal node (clients must be leaves)"
        ):
            TreeNetwork(
                [InternalNode("r1", capacity=1), InternalNode("r2", capacity=1)],
                [Client("c", requests=1), Client("d", requests=1)],
                [Link("d", "c"), Link("ghost", "r1")],
            )

    def test_first_offender_in_declaration_order(self):
        with raises_exactly("duplicate internal node id 'b'"):
            TreeNetwork(
                [InternalNode(name, capacity=1) for name in "abbcc"],
                [Client("a", requests=1)],
                [],
            )
        with raises_exactly("link child 'ghost' is not declared"):
            TreeNetwork(
                [InternalNode("r", capacity=1), InternalNode("a", capacity=1)],
                [],
                [Link("ghost", "r"), Link("a", "a")],
            )


class TestMemoisedCaches:
    MEMOISED = (
        "_ancestors",
        "_subtree_clients",
        "_children_tuples",
        "_child_nodes",
        "_child_clients",
    )

    def fresh_copy(self, tree):
        return TreeNetwork(list(tree.nodes()), list(tree.clients()), list(tree.links()))

    def test_fork_reuses_caches_built_on_its_base(self):
        tree = build_sample()
        built = {name: getattr(tree, name) for name in self.MEMOISED}
        fork = tree.with_requests({"c1": 9.0})
        fresh = self.fresh_copy(fork)
        for name in self.MEMOISED:
            assert getattr(fork, name) is built[name], name
            assert getattr(fork, name) == getattr(fresh, name), name

    def test_base_reuses_caches_built_on_its_fork(self):
        tree = build_sample()
        fork = tree.with_requests({"c2": 0.0}).with_requests({"c1": 1.0})
        for name in self.MEMOISED:
            assert getattr(tree, name) is getattr(fork, name), name
            assert getattr(tree, name) == getattr(self.fresh_copy(tree), name), name

    def test_index_hands_its_ancestor_chains_to_the_tree(self):
        tree = build_sample()
        index = TreeIndex(tree)
        for position, client_id in enumerate(index.client_order):
            assert tree.ancestors(client_id) is index.client_ancestors[position]
        assert tree._ancestors == self.fresh_copy(tree)._ancestors


class TestQueries:
    def test_root(self):
        assert build_sample().root == "root"

    def test_parent_and_children(self):
        tree = build_sample()
        assert tree.parent("a") == "root"
        assert tree.parent("root") is None
        assert set(tree.children("root")) == {"a", "b"}
        assert tree.child_nodes("root") == ("a", "b")
        assert tree.child_clients("a") == ("c1",)

    def test_ancestors_order_is_bottom_up(self):
        tree = build_sample()
        assert tree.ancestors("c1") == ("a", "root")
        assert tree.ancestors("root") == ()

    def test_is_ancestor(self):
        tree = build_sample()
        assert tree.is_ancestor("root", "c1")
        assert not tree.is_ancestor("b", "c1")

    def test_depth_and_height(self):
        tree = build_sample()
        assert tree.depth("root") == 0
        assert tree.depth("c1") == 2
        assert tree.height() == 2

    def test_distance_and_latency(self):
        tree = build_sample()
        assert tree.distance("c1", "root") == 2
        assert tree.latency("c1", "root") == pytest.approx(2.5)
        assert tree.distance("c1", "c1") == 0

    def test_distance_to_non_ancestor_raises(self):
        tree = build_sample()
        with pytest.raises(TreeStructureError):
            tree.distance("c1", "b")

    def test_path_links(self):
        tree = build_sample()
        keys = [link.key for link in tree.path_links("c1", "root")]
        assert keys == [("c1", "a"), ("a", "root")]

    def test_subtree_clients_and_requests(self):
        tree = build_sample()
        assert set(tree.subtree_clients("root")) == {"c1", "c2"}
        assert tree.subtree_clients("a") == ("c1",)
        assert tree.subtree_requests("root") == 6
        assert tree.subtree_requests("b") == 2

    def test_subtree_nodes(self):
        tree = build_sample()
        assert set(tree.subtree_nodes("root")) == {"root", "a", "b"}
        assert tree.subtree_nodes("a") == ("a",)

    def test_post_order_children_before_parents(self):
        tree = build_sample()
        order = tree.post_order_nodes()
        assert order.index("a") < order.index("root")
        assert order.index("b") < order.index("root")

    def test_unknown_lookups_raise(self):
        tree = build_sample()
        with pytest.raises(TreeStructureError):
            tree.node("ghost")
        with pytest.raises(TreeStructureError):
            tree.client("ghost")
        with pytest.raises(TreeStructureError):
            tree.children("ghost")
        with pytest.raises(TreeStructureError):
            tree.ancestors("ghost")

    def test_contains_and_kind_checks(self):
        tree = build_sample()
        assert "a" in tree and "c1" in tree and "ghost" not in tree
        assert tree.is_node("a") and not tree.is_node("c1")
        assert tree.is_client("c1") and not tree.is_client("a")

    def test_link_lookup(self):
        tree = build_sample()
        assert tree.link("c1").comm_time == 0.5
        assert tree.link("a", "root").comm_time == 2.0
        with pytest.raises(TreeStructureError):
            tree.link("root")
        with pytest.raises(TreeStructureError):
            tree.link("a", "b")


class TestAggregates:
    def test_size_counts_clients_and_nodes(self):
        assert build_sample().size == 5
        assert len(build_sample()) == 5

    def test_totals_and_load_factor(self):
        tree = build_sample()
        assert tree.total_requests() == 6
        assert tree.total_capacity() == 23
        assert tree.load_factor() == pytest.approx(6 / 23)

    def test_homogeneity(self):
        tree = build_sample()
        assert not tree.is_homogeneous()
        with pytest.raises(TreeStructureError):
            tree.uniform_capacity()

    def test_uniform_capacity_on_homogeneous_tree(self, small_tree):
        assert small_tree.is_homogeneous()
        assert small_tree.uniform_capacity() == 10

    def test_qos_and_bandwidth_flags(self):
        tree = build_sample()
        assert tree.has_qos_bounds()  # c2 has qos=2
        assert tree.has_bandwidth_limits()  # c2 uplink has bandwidth 10

    def test_flags_absent(self, small_tree):
        assert not small_tree.has_qos_bounds()
        assert not small_tree.has_bandwidth_limits()


class TestConversionsAndDunder:
    def test_to_networkx_roundtrip_structure(self):
        tree = build_sample()
        graph = tree.to_networkx()
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 4
        assert graph.nodes["a"]["capacity"] == 5
        assert graph.nodes["c1"]["kind"] == "client"

    def test_with_nodes_replaces_attributes(self):
        tree = build_sample()
        updated = tree.with_nodes([InternalNode("a", capacity=99)])
        assert updated.node("a").capacity == 99
        assert tree.node("a").capacity == 5  # original untouched

    def test_with_nodes_unknown_id_raises(self):
        with pytest.raises(TreeStructureError):
            build_sample().with_nodes([InternalNode("ghost", capacity=1)])

    def test_with_clients_replaces_attributes(self):
        tree = build_sample()
        updated = tree.with_clients([Client("c1", requests=100)])
        assert updated.client("c1").requests == 100

    def test_equality_and_hash(self):
        assert build_sample() == build_sample()
        assert hash(build_sample()) == hash(build_sample())

    def test_repr_mentions_sizes(self):
        text = repr(build_sample())
        assert "|N|=3" in text and "|C|=2" in text
