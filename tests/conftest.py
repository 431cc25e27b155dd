"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import math
import os

import pytest

from repro.algorithms import _native, common
from repro.core.builder import TreeBuilder
from repro.core.constraints import ConstraintSet
from repro.core.problem import (
    ProblemKind,
    ReplicaPlacementProblem,
    replica_cost_problem,
    replica_counting_problem,
)
from repro.core.validation import validate_solution
from repro.workloads.generator import GeneratorConfig, TreeGenerator


# --------------------------------------------------------------------------- #
# the two engines
# --------------------------------------------------------------------------- #
#: The engine matrix: the dict oracle and the compiled kernels.  Nothing in
#: the library picks between them; ``make_state`` builds on the kernels
#: where they load, and a test gets the dict engine the way a host without
#: a C compiler does (:func:`kernels_disabled`).
ENGINES = ("dict", "native")


@contextlib.contextmanager
def kernels_disabled():
    """Run the block on the dict engine, as a host without a C compiler does.

    ``REPRO_NATIVE_DISABLE=1`` reaches worker processes however they start;
    resetting the loader memo on entry and on exit makes ``make_state`` read
    the switch again.
    """
    previous = os.environ.get("REPRO_NATIVE_DISABLE")
    os.environ["REPRO_NATIVE_DISABLE"] = "1"
    _native._reset_for_tests()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_NATIVE_DISABLE"]
        else:
            os.environ["REPRO_NATIVE_DISABLE"] = previous
        _native._reset_for_tests()


def on_engine(engine: str):
    """Context running the block on ``engine``: ``"dict"`` with the kernels
    disabled, ``"native"`` on whatever the platform builds (the dict engine
    too where the kernels do not load)."""
    return kernels_disabled() if engine == "dict" else contextlib.nullcontext()


@pytest.fixture
def fresh_loader():
    """Reset the loader memo and the fallback-note latch around a test."""
    _native._reset_for_tests()
    common._fallback_noted = False
    yield
    _native._reset_for_tests()
    common._fallback_noted = False


# --------------------------------------------------------------------------- #
# hand-built trees
# --------------------------------------------------------------------------- #
@pytest.fixture
def small_tree():
    """root(W=10) -- n1(W=10) -- {c1: 7, c2: 3}; one extra client at the root."""
    return (
        TreeBuilder()
        .add_node("root", capacity=10)
        .add_node("n1", capacity=10, parent="root")
        .add_client("c1", requests=7, parent="n1")
        .add_client("c2", requests=3, parent="n1")
        .add_client("c3", requests=2, parent="root")
        .build()
    )


@pytest.fixture
def chain_tree():
    """A three-node chain with one client at the bottom."""
    return (
        TreeBuilder()
        .add_node("top", capacity=4)
        .add_node("mid", capacity=4, parent="top")
        .add_node("low", capacity=4, parent="mid")
        .add_client("c", requests=6, parent="low")
        .build()
    )


@pytest.fixture
def hetero_tree():
    """Heterogeneous capacities: the big server sits at the root."""
    return (
        TreeBuilder()
        .add_node("root", capacity=100, storage_cost=100)
        .add_node("a", capacity=10, parent="root")
        .add_node("b", capacity=20, parent="root")
        .add_client("ca1", requests=8, parent="a")
        .add_client("ca2", requests=6, parent="a")
        .add_client("cb1", requests=15, parent="b")
        .build()
    )


@pytest.fixture
def qos_tree():
    """Tree with finite QoS bounds (in hops) on every client."""
    return (
        TreeBuilder()
        .add_node("root", capacity=50)
        .add_node("mid", capacity=10, parent="root", comm_time=2.0)
        .add_node("leaf", capacity=10, parent="mid", comm_time=3.0)
        .add_client("near", requests=5, parent="leaf", qos=1, comm_time=1.0)
        .add_client("far", requests=5, parent="leaf", qos=3, comm_time=1.0)
        .add_client("top", requests=5, parent="root", qos=1, comm_time=1.0)
        .build()
    )


@pytest.fixture
def small_problem(small_tree):
    return replica_cost_problem(small_tree)


@pytest.fixture
def small_counting_problem(small_tree):
    return replica_counting_problem(small_tree)


@pytest.fixture
def hetero_problem(hetero_tree):
    return replica_cost_problem(hetero_tree)


# --------------------------------------------------------------------------- #
# random problems
# --------------------------------------------------------------------------- #
@pytest.fixture
def random_homogeneous_problem():
    tree = TreeGenerator(17).generate(
        GeneratorConfig(size=40, target_load=0.4, homogeneous=True)
    )
    return replica_counting_problem(tree)


@pytest.fixture
def random_heterogeneous_problem():
    tree = TreeGenerator(23).generate(
        GeneratorConfig(size=40, target_load=0.4, homogeneous=False)
    )
    return replica_cost_problem(tree)


def make_random_problem(seed: int, *, size=40, load=0.4, homogeneous=True, **kwargs):
    """Helper (not a fixture) used by parametrised tests."""
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(size=size, target_load=load, homogeneous=homogeneous, **kwargs)
    )
    kind = ProblemKind.REPLICA_COUNTING if homogeneous else ProblemKind.REPLICA_COST
    return ReplicaPlacementProblem(tree=tree, kind=kind)


# --------------------------------------------------------------------------- #
# tree payload layouts
# --------------------------------------------------------------------------- #
def tree_records(tree):
    """A column tree payload (``tree_to_dict`` output) in the record layout,
    as the record writer wrote it: every field on every element, left-out
    columns filled back with their defaults, ``metrics`` only on annotated
    links."""
    nodes, clients, links = tree["nodes"], tree["clients"], tree["links"]
    unbounded = [None] * len(clients["id"])
    node_records = [
        {"id": node_id, "capacity": capacity, "storage_cost": cost}
        for node_id, capacity, cost in zip(
            nodes["id"], nodes["capacity"], nodes.get("storage_cost", nodes["capacity"])
        )
    ]
    client_records = [
        {"id": client_id, "requests": requests, "qos": qos}
        for client_id, requests, qos in zip(
            clients["id"], clients["requests"], clients.get("qos", unbounded)
        )
    ]
    n_links = len(links["child"])
    link_records = [
        {"child": child, "parent": parent, "comm_time": comm_time, "bandwidth": bandwidth}
        for child, parent, comm_time, bandwidth in zip(
            links["child"],
            links["parent"],
            links.get("comm_time", [1.0] * n_links),
            links.get("bandwidth", [None] * n_links),
        )
    ]
    for k, metrics in links.get("metrics", {}).items():
        link_records[int(k)]["metrics"] = metrics
    return {"nodes": node_records, "clients": client_records, "links": link_records}


def problem_records(payload):
    """A ``problem_to_dict`` payload with its tree in the record layout."""
    return {**payload, "tree": tree_records(payload["tree"])}


# --------------------------------------------------------------------------- #
# assertion helpers
# --------------------------------------------------------------------------- #
def assert_valid(problem, solution, policy=None):
    """Assert that a solution passes full validation."""
    report = validate_solution(problem, solution, policy=policy)
    assert report.valid, "unexpected violations:\n" + "\n".join(report.violations)
    return report
