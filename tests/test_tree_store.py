"""The columnar tree store: one tree, built three ways, reads the same.

:class:`~repro.core.tree.TreeNetwork` keeps an instance as typed columns in
one store per topology, and its record classes are views built on access.
These tests pin that:

* a tree built by :class:`~repro.core.builder.TreeBuilder`, by the
  generator and by JSON decoding (of the column layout and of the record
  layout) agrees on every view, ``==``/``hash``, the ``tree_to_dict``
  bytes, fingerprints and the :class:`TreeIndex` fields; an epoch fork
  (``with_requests``) matches ``with_clients`` bit for bit, rejections
  included;
* the cold path (decode, solve, validate, cost) builds no view, and
  decoding leaves almost no GC-tracked objects;
* the memory estimate charges what the store and its index hold;
* a malformed tree payload, in either layout, is named by section, index
  and key (or column) on every surface: ``problem_from_dict``, the serving
  protocol and ``repro solve``; ``TreeNetwork.from_columns`` names a
  ``metrics`` or ``metadata`` key that addresses no link or element.
"""

from __future__ import annotations

import gc
import json
import math
import tracemalloc
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import solve
from repro.cli import main as cli_main
from repro.core import tree as tree_module
from repro.core.builder import TreeBuilder
from repro.core.exceptions import SerializationError, TreeStructureError
from repro.core.index import TreeIndex
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.serialization import problem_from_dict, problem_to_dict, tree_from_dict, tree_to_dict
from repro.core.tree import Client, InternalNode, Link
from repro.core.validation import validate_solution
from repro.qos.metrics import QoSMetrics
from repro.serving.fingerprint import problem_fingerprint
from repro.serving.pool import SessionPool
from repro.serving.protocol import handle_envelope
from repro.session import PlacementSession
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import problem_records, tree_records

INDEX_FIELDS = (
    "n_nodes",
    "n_clients",
    "height",
    "node_order",
    "client_order",
    "node_pos",
    "client_pos",
    "node_parent",
    "client_parent",
    "node_depth",
    "client_depth",
    "node_span_end",
    "client_span_start",
    "client_span_end",
    "client_ancestors",
    "client_requests",
)


def _generated(params):
    return TreeGenerator(params["seed"]).generate(
        GeneratorConfig(
            size=params["size"],
            target_load=params["load"],
            homogeneous=params["homogeneous"],
            client_attachment=params["attachment"],
            qos_hops=params["qos_hops"],
            link_bandwidth=params["bandwidth"],
            link_metrics=params["metrics"],
        )
    )


def _rebuilt(tree, metrics, relabel=False, mixed=False):
    """``tree`` declared through TreeBuilder in its own link order, with
    ``metrics`` (child -> QoSMetrics) on those uplinks and metadata on
    every element (which no comparison may see).  With ``relabel`` the ids
    become ints and every other uplink declares its parent as a float (1.0
    for 1).  With ``mixed`` every other uplink's child departs from the
    generated values -- half the storage cost, one more comm time unit, no
    QoS or bandwidth bound -- so the storage cost and comm time columns are
    written, and a bounded tree's QoS and bandwidth columns mix numbers
    with nulls."""
    ids = {element: element for element in chain(tree.node_ids, tree.client_ids)}
    if relabel:
        ids = {element: k for k, element in enumerate(ids)}
    builder = TreeBuilder()
    builder.add_node(ids[tree.root], capacity=tree.capacity(tree.root), tag=repr(tree.root))
    for k, link in enumerate(tree.links()):
        parent = ids[link.parent]
        changed = mixed and k % 2 == 0
        uplink = dict(
            parent=float(parent) if relabel and k % 2 else parent,
            comm_time=link.comm_time + changed,
            bandwidth=math.inf if changed else link.bandwidth,
            metrics=metrics.get(link.child),
            tag=repr(link.child),
        )
        if tree.is_node(link.child):
            node = tree.node(link.child)
            cost = node.storage_cost / (1 + changed)
            builder.add_node(ids[node.id], capacity=node.capacity, storage_cost=cost, **uplink)
        else:
            client = tree.client(link.child)
            qos = math.inf if changed else client.qos
            builder.add_client(ids[client.id], requests=client.requests, qos=qos, **uplink)
    return builder.build()


def _decoded(tree, records=False):
    """``tree`` through JSON text, in the column layout or as records."""
    payload = tree_to_dict(tree)
    return tree_from_dict(json.loads(json.dumps(tree_records(payload) if records else payload)))


def _observed(tree):
    """Everything the three constructions must agree on."""
    problems = [ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COST)]
    problems.append(ReplicaPlacementProblem(tree=tree, kind=ProblemKind.GENERAL))
    index = TreeIndex(tree)
    return {
        "views": (list(tree.nodes()), list(tree.clients()), list(tree.links())),
        "bytes": json.dumps(tree_to_dict(tree)),
        "fingerprints": [problem_fingerprint(problem) for problem in problems],
        "index": {name: getattr(index, name) for name in INDEX_FIELDS},
        "subtree_requests": list(map(index.subtree_requests_of, index.node_order)),
        "orders": (tree.node_ids, tree.client_ids, tree.link_keys, tree.root),
    }


tree_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "size": st.integers(min_value=3, max_value=90),
        "load": st.sampled_from([0.2, 0.5, 0.9]),
        "homogeneous": st.booleans(),
        "attachment": st.sampled_from(["spread", "leaves", "uniform"]),
        "qos_hops": st.sampled_from([None, (1, 3), (2, 5)]),
        "bandwidth": st.sampled_from([None, 40.0]),
        "metrics": st.booleans(),
    }
)

#: New rates for an epoch fork: valid ones, and each kind of rejection.
rates = st.one_of(
    st.integers(min_value=0, max_value=30).map(float),
    st.floats(min_value=0, max_value=30, allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, math.nan, math.inf]),
)


link_metrics = st.builds(
    QoSMetrics,
    latency=st.floats(min_value=0, max_value=5),
    jitter=st.floats(min_value=0, max_value=1),
    loss=st.floats(min_value=0, max_value=1),
    bandwidth=st.sampled_from([math.inf, 10.0, 55.5]),
)


class TestThreeConstructions:
    def assert_agree(self, left, right):
        assert left == right and right == left
        assert hash(left) == hash(right)
        assert _observed(left) == _observed(right)

    def assert_decodes(self, tree):
        """Both layouts decode to a tree that agrees with ``tree``."""
        for records in (False, True):
            self.assert_agree(tree, _decoded(tree, records))

    @given(params=tree_params, data=st.data())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_builder_generator_and_decoder_agree(self, params, data):
        generated = _generated(params)
        self.assert_decodes(generated)
        if params["metrics"]:
            return  # annotate_tree sorts the links, which no builder declares parents-first
        built = _rebuilt(generated, {})
        self.assert_agree(generated, built)
        self.assert_agree(generated, _decoded(built))
        # Metadata rides along in the views without taking part in ==.
        assert built.node(generated.root).metadata == {"tag": repr(generated.root)}
        assert _decoded(built).node(generated.root).metadata == {}
        # The builder's own link metrics, on some uplinks.
        children = data.draw(
            st.lists(st.sampled_from([child for child, _ in generated.link_keys]), unique=True)
        )
        relabel, mixed = data.draw(st.booleans()), data.draw(st.booleans())
        annotated = _rebuilt(
            generated, {child: data.draw(link_metrics) for child in children}, relabel, mixed
        )
        self.assert_decodes(annotated)
        assert (annotated == generated) == (not children and not relabel and not mixed)

    @given(params=tree_params, data=st.data())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_with_requests_matches_with_clients(self, params, data):
        tree = _generated(params)
        if not params["metrics"]:  # then with metadata too
            tree = _rebuilt(tree, {})
        TreeIndex.for_tree(tree)  # so the fork's index is patched, not built
        picked = data.draw(st.lists(st.sampled_from(tree.client_ids), unique=True, max_size=6))
        new = {cid: data.draw(rates) for cid in picked}
        try:
            expected = tree.with_clients(
                [Client(cid, value, tree.qos(cid)) for cid, value in new.items()]
            )
        except TreeStructureError as error:
            with pytest.raises(TreeStructureError) as raised:
                tree.with_requests(new)
            assert str(raised.value) == str(error)
            return
        fork = tree.with_requests(new)
        assert fork == expected
        assert fork._requests.tobytes() == expected._requests.tobytes()
        assert fork._subtree.tobytes() == expected._subtree.tobytes()
        assert _observed(fork) == _observed(expected)
        patched = TreeIndex.for_tree(fork)
        for name in INDEX_FIELDS:
            assert getattr(patched, name) == getattr(TreeIndex(expected), name), name
        assert list(map(patched.subtree_requests_of, patched.node_order)) == list(
            map(expected.subtree_requests, patched.node_order)
        )


def _cold_tree():
    return TreeGenerator(3).generate(
        GeneratorConfig(
            size=2860,
            target_load=0.3,
            homogeneous=False,
            client_attachment="leaves",
            max_children=3,
        )
    )


class TestViews:
    def test_views_equal_their_records(self):
        params = dict(
            seed=3, size=30, load=0.5, homogeneous=False, attachment="spread",
            qos_hops=(2, 5), bandwidth=40.0, metrics=False,
        )
        generated = _generated({**params, "metrics": True})
        tree = _rebuilt(_generated(params), {})  # metadata on every element
        for node in tree.nodes():
            record = InternalNode(node.id, node.capacity, node.storage_cost, node.metadata)
            assert node == record and hash(node) == hash(record)
            assert node.metadata == record.metadata
        for client in tree.clients():
            assert client == Client(client.id, client.requests, client.qos)
        for link in generated.links():
            assert link.metrics is not None
            assert link == Link(link.child, link.parent, link.comm_time, link.bandwidth, link.metrics)
        # absent metadata is a fresh dict per view, as the records' default
        client_id = generated.client_ids[0]
        first, second = generated.client(client_id), generated.client(client_id)
        assert first.metadata == {} and first.metadata is not second.metadata
        with pytest.raises(AttributeError):
            first.requests = 1.0  # still frozen

    def test_constructing_a_record_still_checks_its_values(self):
        with pytest.raises(TreeStructureError, match="capacity -1.0"):
            InternalNode("n", -1.0)
        with pytest.raises(TreeStructureError, match="storage cost nan"):
            InternalNode("n", 1.0, math.nan)
        assert InternalNode("n", 4.0).storage_cost == 4.0
        with pytest.raises(TreeStructureError, match="request rate inf"):
            Client("c", math.inf)
        with pytest.raises(TreeStructureError, match="QoS bound 0.0"):
            Client("c", 1.0, qos=0.0)
        with pytest.raises(TreeStructureError, match="comm time -1.0"):
            Link("c", "n", comm_time=-1.0)
        with pytest.raises(TreeStructureError, match="bandwidth nan"):
            Link("c", "n", bandwidth=math.nan)


class TestFromColumnsKeys:
    """The sparse maps of ``from_columns`` are keyed by link index
    (``metrics``) and element position (``metadata``); any other key is
    rejected by name instead of annotating another element, raising a bare
    ``IndexError``/``TypeError`` or being kept as stray data."""

    @staticmethod
    def _build(metrics=None, metadata=None):
        inf = math.inf
        return tree_module.TreeNetwork.from_columns(
            ["r", "a"], [1, 1], [1, 1], ["c"], [1], [inf], ["a", "c"], ["r", "a"],
            [1, 1], [inf, inf], metrics, metadata,
        )

    @pytest.mark.parametrize(
        "metrics, metadata, message",
        [
            ({-1: QoSMetrics(latency=2.0)}, None, "metrics key -1 is not a link index in range(2)"),
            ({5: QoSMetrics(latency=2.0)}, None, "metrics key 5 is not a link index in range(2)"),
            ({"0": QoSMetrics(latency=2.0)}, None, "metrics key '0' is not a link index in range(2)"),
            (None, {7: {"tag": 1}}, "metadata key 7 is not an element position in range(3)"),
        ],
    )
    def test_a_key_outside_its_range_is_named(self, metrics, metadata, message):
        with pytest.raises(TreeStructureError) as raised:
            self._build(metrics, metadata)
        assert str(raised.value) == message

    def test_keys_in_range_annotate_their_elements(self):
        tree = self._build({1: QoSMetrics(latency=2.0)}, {2: {"tag": 1}})
        assert tree.link("c").metrics == QoSMetrics(latency=2.0)
        assert tree.link("a").metrics is None
        assert tree.client("c").metadata == {"tag": 1}


class TestColdPath:
    def test_decode_solve_validate_cost_builds_no_view(self, monkeypatch):
        text = json.dumps(problem_to_dict(ReplicaPlacementProblem(tree=_cold_tree())))
        built = []
        # Records come from their constructors (__post_init__) and views
        # from the tree's view builders, which skip the constructor.
        for view in (tree_module.InternalNode, tree_module.Client, tree_module.Link):
            original = view.__post_init__

            def counted(self, original=original):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(view, "__post_init__", counted)
        for builder in ("_node_view", "_client_view", "_link_view"):
            original = getattr(tree_module.TreeNetwork, builder)

            def counted_view(self, position, original=original):
                view = original(self, position)
                built.append(type(view).__name__)
                return view

            monkeypatch.setattr(tree_module.TreeNetwork, builder, counted_view)
        problem = problem_from_dict(json.loads(text))
        solution = solve(problem, policy="multiple")
        assert validate_solution(problem, solution).valid
        assert solution.cost(problem) > 0
        assert built == []
        problem.tree.node(problem.tree.root)  # the accessors do build views
        assert built == ["InternalNode"]

    def test_decoding_leaves_few_gc_tracked_objects(self):
        payload = json.loads(json.dumps(tree_to_dict(_cold_tree())))
        gc.collect()
        before = len(gc.get_objects())
        tree = tree_from_dict(payload)
        gc.collect()
        assert (len(gc.get_objects()) - before) / tree.size < 0.1


class TestMemoryEstimate:
    @pytest.mark.parametrize("size", [400, 4000])
    def test_estimate_within_2x_of_traced(self, size):
        tree = TreeGenerator(size).generate(
            GeneratorConfig(size=size, target_load=0.3, homogeneous=False)
        )
        payload = json.loads(json.dumps(tree_to_dict(tree)))
        tracemalloc.start()
        try:
            decoded = tree_from_dict(payload)
            tree_bytes = tracemalloc.get_traced_memory()[0]
            index = TreeIndex.for_tree(decoded)
            both_bytes = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0.5 <= decoded.nbytes / tree_bytes <= 2.0
        assert 0.5 <= index.nbytes / (both_bytes - tree_bytes) <= 2.0

        session = PlacementSession(ReplicaPlacementProblem(tree=decoded))
        charged = session.memory_estimate()
        assert charged >= decoded.nbytes + index.nbytes
        assert 0.5 <= charged / both_bytes <= 2.0


def _generated_small():
    return TreeGenerator(5).generate(GeneratorConfig(size=20, target_load=0.3))


def _set(column, k, value):
    column[k] = value


#: A malformed tree in each layout: (layout, mutation, message).  The
#: tree has 6 nodes, 14 clients and 19 links, and writes neither storage
#: costs (equal to capacity) nor comm times (all 1.0).
MALFORMED = {
    "node_without_capacity": (
        "records",
        lambda tree: tree["nodes"][0].pop("capacity"),
        'tree.nodes[0] has no "capacity"',
    ),
    "client_without_requests": (
        "records",
        lambda tree: tree["clients"][1].pop("requests"),
        'tree.clients[1] has no "requests"',
    ),
    "link_without_parent": (
        "records",
        lambda tree: tree["links"][2].pop("parent"),
        'tree.links[2] has no "parent"',
    ),
    "non_numeric_capacity": (
        "records",
        lambda tree: tree["nodes"][0].update(capacity="lots"),
        "tree.nodes[0] \"capacity\" is not a number: 'lots'",
    ),
    "unhashable_id": (
        "records",
        lambda tree: tree["clients"][0].update(id=[1, 2]),
        'tree.clients[0] "id" is not hashable: [1, 2]',
    ),
    "nodes_not_a_list": (
        "records",
        lambda tree: tree.update(nodes=5),
        "tree.nodes is neither a list of records nor an object of columns (got int)",
    ),
    "columns_without_capacity": (
        "columns",
        lambda tree: tree["nodes"].pop("capacity"),
        'tree.nodes has no "capacity"',
    ),
    "columns_non_numeric_capacity": (
        "columns",
        lambda tree: _set(tree["nodes"]["capacity"], 3, "lots"),
        "tree.nodes.capacity[3] is not a number: 'lots'",
    ),
    "columns_null_comm_time": (
        "columns",
        lambda tree: tree["links"].update(comm_time=[1.0] * 18 + [None]),
        "tree.links.comm_time[18] is not a number: None",
    ),
    "columns_capacity_not_a_list": (
        "columns",
        lambda tree: tree["nodes"].update(capacity=5),
        "tree.nodes.capacity is not a list (got int)",
    ),
    "columns_of_unequal_length": (
        "columns",
        lambda tree: tree["clients"]["requests"].pop(),
        "tree.clients.requests has 13 entries where tree.clients.id has 14",
    ),
    "columns_unhashable_id": (
        "columns",
        lambda tree: _set(tree["clients"]["id"], 0, [1, 2]),
        "tree.clients.id[0] is not hashable: [1, 2]",
    ),
    "columns_metrics_key": (
        "columns",
        lambda tree: tree["links"].update(metrics={"19": {"latency": 1.0}}),
        "tree.links.metrics key '19' is not the index of one of the 19 links",
    ),
    "columns_metrics_entry": (
        "columns",
        lambda tree: tree["links"].update(metrics={"2": {"loss": 2}}),
        "tree.links.metrics['2'] is malformed (loss must lie in [0, 1], got 2.0): "
        "{'loss': 2}",
    ),
}


def _payload(case):
    """The problem payload of ``case`` and the message it must raise."""
    layout, mutate, message = MALFORMED[case]
    payload = problem_to_dict(ReplicaPlacementProblem(tree=_generated_small()))
    if layout == "records":
        payload = problem_records(payload)
    mutate(payload["tree"])
    return payload, message


class TestMalformedPayloads:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_problem_from_dict_names_the_field(self, case):
        payload, message = _payload(case)
        with pytest.raises(SerializationError) as raised:
            problem_from_dict(payload)
        assert str(raised.value) == message

    def test_missing_tree_keeps_its_message(self):
        with pytest.raises(SerializationError, match='need a "tree" entry'):
            problem_from_dict({"kind": "replica_cost"})

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_serving_replies_invalid_with_the_field(self, case):
        payload, message = _payload(case)
        envelope = {"op": "solve", "problem": payload}
        reply = handle_envelope(SessionPool(capacity=2), envelope).reply
        assert reply["type"] == "error"
        assert reply["error"]["code"] == "invalid"
        assert message in reply["error"]["message"]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_solve_prints_an_error_line(self, case, tmp_path, capsys):
        payload, message = _payload(case)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(payload["tree"]))
        assert cli_main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: {message}"
        assert "Traceback" not in err
