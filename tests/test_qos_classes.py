"""Tests of multi-metric QoS classes (``repro.qos`` + ``ClassedConstraintSet``).

Pins the engine-matrix equivalence (dict/fast/native bit-identical on
classed instances, monotone and non-monotone alike), the serialization
and fingerprint round trips of the new link-metric and service-class
fields, and the per-class carving of :func:`split_by_class`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.builder import TreeBuilder
from repro.core.constraints import ClassedConstraintSet, QoSMode
from repro.core.index import supports_qos_thresholds
from repro.core.problem import ReplicaPlacementProblem, replica_cost_problem
from repro.core.serialization import (
    constraints_from_dict,
    constraints_to_dict,
    problem_from_dict,
    problem_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.core.tree import TreeNetwork
from repro.qos.metrics import (
    DEFAULT_CLASSES,
    MetricScales,
    MetricWeights,
    QoSMetrics,
    ServiceClass,
    annotate_tree,
    split_by_class,
)
from repro.serving.fingerprint import problem_fingerprint
from repro.workloads.generator import GeneratorConfig, TreeGenerator, generate_tree
from tests.conftest import ENGINES, on_engine


def _classed_problem(seed=11, *, size=40, classes=None, budget=0.9):
    """A heterogeneous metric-annotated instance with binding class QoS."""
    tree = annotate_tree(
        TreeGenerator(seed).generate(
            GeneratorConfig(size=size, target_load=0.3, homogeneous=False)
        ),
        seed=seed,
    )
    constraints = ClassedConstraintSet.standard(tree, classes=classes, seed=seed)
    clients = []
    for client in tree.clients():
        scores = [s for _, s in constraints.iter_ancestor_scores(tree, client.id)]
        bound = budget * max(scores)
        clients.append(replace(client, qos=bound) if bound > 0 else client)
    tree = TreeNetwork(list(tree.nodes()), clients, list(tree.links()))
    return replica_cost_problem(tree, constraints=constraints)


class TestMetricsAndClasses:
    def test_annotate_tree_is_deterministic(self):
        tree = TreeGenerator(5).generate(GeneratorConfig(size=30, target_load=0.4))
        a = annotate_tree(tree, seed=3)
        b = annotate_tree(tree, seed=3)
        c = annotate_tree(tree, seed=4)
        for link_a, link_b in zip(a.links(), b.links()):
            assert link_a.metrics == link_b.metrics
        assert any(
            la.metrics != lc.metrics for la, lc in zip(a.links(), c.links())
        )
        # Structure is untouched: same nodes, clients and link keys (the
        # rebuilt sibling order may differ -- links are drawn in sorted
        # key order -- so compare as sets).
        assert set(a.client_ids) == set(tree.client_ids)
        assert all(link.metrics is not None for link in a.links())

    def test_generator_link_metrics_flag(self):
        tree = generate_tree(
            size=30, target_load=0.4, homogeneous=True, seed=9, link_metrics=True
        )
        assert all(link.metrics is not None for link in tree.links())
        again = generate_tree(
            size=30, target_load=0.4, homogeneous=True, seed=9, link_metrics=True
        )
        for one, two in zip(tree.links(), again.links()):
            assert one.metrics == two.metrics

    def test_score_monotone_along_root_path(self):
        problem = _classed_problem()
        tree = problem.tree
        for client in tree.clients():
            scores = [
                s
                for _, s in problem.constraints.iter_ancestor_scores(
                    tree, client.id
                )
            ]
            assert scores == sorted(scores)

    def test_non_monotone_weights_detected(self):
        preferring = ServiceClass(
            name="odd", weights=MetricWeights(latency=-1.0)
        )
        assert not preferring.monotone
        constraints = ClassedConstraintSet(classes=(preferring,))
        assert not constraints.monotone_path_metric
        assert not supports_qos_thresholds(constraints)
        assert supports_qos_thresholds(
            ClassedConstraintSet(classes=DEFAULT_CLASSES)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassedConstraintSet(classes=())
        twin = ServiceClass(name="gold")
        with pytest.raises(ValueError):
            ClassedConstraintSet(classes=(twin, DEFAULT_CLASSES[0]))
        with pytest.raises(ValueError):
            ClassedConstraintSet(
                classes=DEFAULT_CLASSES, assignments=(("c", "platinum"),)
            )
        with pytest.raises(ValueError):
            ClassedConstraintSet(
                classes=DEFAULT_CLASSES,
                assignments=(("c", "gold"), ("c", "bronze")),
            )
        with pytest.raises(ValueError):
            ClassedConstraintSet(classes=DEFAULT_CLASSES, qos_mode=QoSMode.DISTANCE)

    def test_class_of_falls_back_to_default(self):
        constraints = ClassedConstraintSet(
            classes=DEFAULT_CLASSES,
            assignments=(("a", "gold"),),
            default_class="bronze",
        )
        assert constraints.class_of("a").name == "gold"
        assert constraints.class_of("stranger").name == "bronze"


class TestEligibility:
    def test_threshold_walk_matches_per_pair_scores(self):
        problem = _classed_problem()
        tree = problem.tree
        constraints = problem.constraints
        for client in tree.clients():
            eligible = set(problem.eligible_servers(client.id))
            brute = {
                ancestor
                for ancestor, score in constraints.iter_ancestor_scores(
                    tree, client.id
                )
                if score <= client.qos
            }
            assert eligible == brute

    def test_non_monotone_fallback_matches_per_pair_scores(self):
        odd = (
            ServiceClass(name="odd", weights=MetricWeights(latency=-1.0)),
            ServiceClass(name="plain", priority=1),
        )
        problem = _classed_problem(classes=odd, budget=0.5)
        assert not supports_qos_thresholds(problem.constraints)
        tree = problem.tree
        for client in tree.clients():
            eligible = set(problem.eligible_servers(client.id))
            brute = {
                ancestor
                for ancestor, score in problem.constraints.iter_ancestor_scores(
                    tree, client.id
                )
                if score <= client.qos
            }
            assert eligible == brute


class TestEngineMatrix:
    def test_engines_bit_identical_on_classed_instances(self):
        from repro.api import compare_policies

        problem = _classed_problem()
        reference = None
        for engine in ENGINES:
            with on_engine(engine):
                results = compare_policies(problem)
            snapshot = {}
            for policy, solution in results.solutions.items():
                if solution is None:
                    snapshot[policy] = None
                else:
                    snapshot[policy] = (
                        tuple(solution.placement.sorted()),
                        solution.cost(problem),
                    )
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference


class TestSerialization:
    def test_link_metrics_round_trip(self):
        tree = annotate_tree(
            TreeGenerator(3).generate(GeneratorConfig(size=20, target_load=0.4)),
            seed=3,
        )
        rebuilt = tree_from_dict(tree_to_dict(tree))
        for one, two in zip(tree.links(), rebuilt.links()):
            assert one.metrics == two.metrics

    def test_unannotated_links_stay_byte_identical(self):
        tree = TreeGenerator(3).generate(GeneratorConfig(size=20, target_load=0.4))
        payload = tree_to_dict(tree)
        assert isinstance(payload["links"], dict)  # columns, not a list of records
        assert "metrics" not in payload["links"]

    def test_classed_constraints_round_trip(self):
        problem = _classed_problem()
        payload = constraints_to_dict(problem.constraints)
        assert payload["type"] == "classed"
        rebuilt = constraints_from_dict(payload)
        assert rebuilt == problem.constraints

    def test_base_constraints_payload_untagged(self):
        from repro.core.constraints import ConstraintSet

        payload = constraints_to_dict(ConstraintSet.qos_distance())
        assert "type" not in payload or payload.get("type") == "base"
        assert constraints_from_dict(payload) == ConstraintSet.qos_distance()

    def test_problem_round_trip(self):
        problem = _classed_problem()
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert rebuilt.constraints == problem.constraints
        assert rebuilt.kind == problem.kind
        for one, two in zip(problem.tree.links(), rebuilt.tree.links()):
            assert one.metrics == two.metrics
        for one, two in zip(problem.tree.clients(), rebuilt.tree.clients()):
            assert one.qos == two.qos


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert problem_fingerprint(_classed_problem()) == problem_fingerprint(
            _classed_problem()
        )

    def test_sensitive_to_metrics_and_assignments(self):
        base = _classed_problem(seed=11)
        other_metrics = _classed_problem(seed=11)
        tree = annotate_tree(other_metrics.tree, seed=99)
        remetriced = replace(other_metrics, tree=tree)
        assert problem_fingerprint(base) != problem_fingerprint(remetriced)

        swapped = replace(
            base,
            constraints=ClassedConstraintSet.standard(base.tree, seed=77),
        )
        assert problem_fingerprint(base) != problem_fingerprint(swapped)

    def test_round_trip_preserves_fingerprint(self):
        problem = _classed_problem()
        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert problem_fingerprint(problem) == problem_fingerprint(rebuilt)


class TestSplitByClass:
    def test_carves_demand_and_bandwidth(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=40)
            .add_node("mid", capacity=20, parent="root", bandwidth=10.0)
            .add_client("g", requests=4, parent="mid")
            .add_client("b", requests=6, parent="root")
            .build()
        )
        problem = replica_cost_problem(tree)
        carved = split_by_class(
            problem, {"g": "gold", "b": "bronze"}, DEFAULT_CLASSES
        )
        assert set(carved) == {"gold", "silver", "bronze"}
        gold = carved["gold"].tree
        assert gold.client("g").requests == pytest.approx(
            4 * DEFAULT_CLASSES[0].rate_multiplier
        )
        assert gold.client("b").requests == 0.0
        assert gold.link("mid").bandwidth == pytest.approx(
            10.0 * DEFAULT_CLASSES[0].bandwidth_fraction
        )
        bronze = carved["bronze"].tree
        assert bronze.client("b").requests == 6.0
        assert bronze.client("g").requests == 0.0
        # Infinite bandwidths are never scaled down to a finite fraction.
        for sub in carved.values():
            assert math.isinf(sub.tree.link("b").bandwidth)

    def test_unknown_class_raises(self):
        problem = _classed_problem()
        with pytest.raises(ValueError):
            split_by_class(problem, {"c": "platinum"}, DEFAULT_CLASSES)


class TestQoSMetricsType:
    def test_extend_accumulates(self):
        a = QoSMetrics(latency=1.0, jitter=0.1, loss=0.01, bandwidth=10.0)
        b = QoSMetrics(latency=2.0, jitter=0.2, loss=0.02, bandwidth=4.0)
        path = a.extend(b)
        assert path.latency == pytest.approx(3.0)
        assert path.jitter == pytest.approx(0.3)
        # Loss compounds (1 - prod(1 - p)), bandwidth is the bottleneck.
        assert path.loss == pytest.approx(1 - (1 - 0.01) * (1 - 0.02))
        assert path.bandwidth == 4.0

    def test_round_trip(self):
        metrics = QoSMetrics(latency=1.5, jitter=0.25, loss=0.005, bandwidth=8.0)
        assert QoSMetrics.from_dict(metrics.to_dict()) == metrics

    def test_service_class_round_trip(self):
        for entry in DEFAULT_CLASSES:
            assert ServiceClass.from_dict(entry.to_dict()) == entry

    def test_scales_validation(self):
        with pytest.raises(ValueError):
            MetricScales(latency=0.0)
