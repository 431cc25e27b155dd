"""Cross-validation: every engine is bit-for-bit the seed dict engine.

Every heuristic of the paper runs once per engine on every instance -- the
seed :class:`~repro.algorithms.common.RequestState` (``"dict"``, run with
the kernels disabled as on a host without a C compiler) and the
compiled-kernel :class:`~repro.algorithms.native_state.NativeRequestState`
(``"native"``, what ``make_state`` builds where the kernels load) -- and
must produce *identical* feasibility verdicts,
replica placements, request assignments and costs.  The instance population
covers homogeneous and heterogeneous platforms, all client-attachment
shapes, hop-count and latency QoS, and bandwidth-constrained links, across
more than 50 seeded random instances.

A second battery drives the state implementations through the same
scripted operation sequences (place / assign / drain / cover) and compares
the full mutable state after every step.

When no C compiler is available ``make_state`` builds the dict state; the
matrix still runs, it just exercises the same code twice.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.base import available_heuristics, get_heuristic
from repro.algorithms.common import RequestState, make_state
from repro.core.constraints import ClassedConstraintSet, ConstraintSet
from repro.core.index import supports_qos_thresholds
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.tree import Link, TreeNetwork
from repro.qos.metrics import MetricWeights, ServiceClass, annotate_tree
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import ENGINES, kernels_disabled, on_engine

#: The eight polynomial heuristics of paper Section 6.
HEURISTICS = ("CTDA", "CTDLF", "CBU", "UTD", "UBCF", "MG", "MTD", "MBU")

#: The engines validated against the dict seed.
ALT_ENGINES = tuple(engine for engine in ENGINES if engine != "dict")


def build_state(problem: ReplicaPlacementProblem, engine: str) -> RequestState:
    """The dict oracle for ``"dict"``, else what the platform builds."""
    return RequestState(problem) if engine == "dict" else make_state(problem)


def with_bandwidth(tree: TreeNetwork, limit: float) -> TreeNetwork:
    """Copy of ``tree`` whose every link carries a finite bandwidth."""
    links = [
        Link(child=l.child, parent=l.parent, comm_time=l.comm_time, bandwidth=limit)
        for l in tree.links()
    ]
    return TreeNetwork(tree.nodes(), tree.clients(), links)


def instance(seed: int) -> ReplicaPlacementProblem:
    """Deterministic instance #seed; parameters sweep with the seed."""
    homogeneous = seed % 2 == 0
    qos = (2, 5) if seed % 3 == 1 else None
    attachments = ("spread", "leaves", "uniform")
    config = GeneratorConfig(
        size=(20, 34, 48, 62)[seed % 4],
        target_load=0.25 + 0.1 * (seed % 6),
        homogeneous=homogeneous,
        client_attachment=attachments[seed % 3],
        max_children=2 + seed % 3,
        qos_hops=qos,
    )
    tree = TreeGenerator(seed).generate(config)
    if seed % 5 == 2:
        # Bandwidth-limited links (generous enough to keep some instances
        # feasible; validation rejects violating solutions either way).
        tree = with_bandwidth(tree, limit=tree.total_capacity() / 2)
        constraints = (
            ConstraintSet.qos_distance(enforce_bandwidth=True)
            if qos
            else ConstraintSet(enforce_bandwidth=True)
        )
    elif qos and seed % 2 == 0:
        constraints = ConstraintSet.qos_latency()
    elif qos:
        constraints = ConstraintSet.qos_distance()
    else:
        constraints = ConstraintSet.none()
    kind = ProblemKind.REPLICA_COUNTING if homogeneous else ProblemKind.REPLICA_COST
    return ReplicaPlacementProblem(tree=tree, constraints=constraints, kind=kind)


#: >50 random instances, as the acceptance criteria require.
INSTANCE_SEEDS = list(range(56))


def solve_all(name: str, problems, engine: str):
    """Heuristic ``name``'s solutions of ``problems``, in order, on ``engine``."""
    heuristic = get_heuristic(name)
    with on_engine(engine):
        return [heuristic.try_solve(problem) for problem in problems]


@pytest.mark.parametrize("engine", ALT_ENGINES)
@pytest.mark.parametrize("name", HEURISTICS)
def test_every_heuristic_matches_seed_engine(name, engine):
    problems = [instance(seed) for seed in INSTANCE_SEEDS]
    seed_solutions = solve_all(name, problems, "dict")
    other_solutions = solve_all(name, problems, engine)
    mismatches = []
    for seed, problem, seed_solution, other_solution in zip(
        INSTANCE_SEEDS, problems, seed_solutions, other_solutions
    ):
        if (seed_solution is None) != (other_solution is None):
            mismatches.append((seed, "feasibility", seed_solution, other_solution))
            continue
        if seed_solution is None:
            continue
        if seed_solution.placement.replicas != other_solution.placement.replicas:
            mismatches.append((seed, "placement", seed_solution, other_solution))
        elif dict(seed_solution.assignment.items()) != dict(other_solution.assignment.items()):
            mismatches.append((seed, "assignment", seed_solution, other_solution))
        elif seed_solution.cost(problem) != other_solution.cost(problem):
            mismatches.append((seed, "cost", seed_solution, other_solution))
    assert not mismatches, f"{name} [{engine}] diverged from the seed engine: {mismatches[:3]}"


def test_engine_selection_controls_state_type(small_problem):
    """The platform selects: the kernels when they load, the dict state when
    they do not; no argument selects."""
    from repro.algorithms.native_state import NativeRequestState, native_kernels_available

    expected = NativeRequestState if native_kernels_available() else RequestState
    assert type(make_state(small_problem)) is expected
    with kernels_disabled():
        assert type(make_state(small_problem)) is RequestState
    assert type(make_state(small_problem)) is expected
    with pytest.raises(TypeError):
        make_state(small_problem, engine="dict")


def test_all_eight_heuristics_are_registered():
    registered = set(available_heuristics())
    assert set(HEURISTICS) <= registered


# --------------------------------------------------------------------------- #
# scripted state-operation equivalence
# --------------------------------------------------------------------------- #
def snapshot(state: RequestState):
    return (
        {cid: state.remaining[cid] for cid in state.tree.client_ids},
        {nid: state.inreq[nid] for nid in state.tree.node_ids},
        {nid: state.residual[nid] for nid in state.tree.node_ids},
        set(state.replicas),
        dict(state.amounts),
    )


def assert_states_agree(a: RequestState, b: RequestState):
    assert snapshot(a) == snapshot(b)
    assert a.total_pending() == b.total_pending()
    assert a.all_requests_affected() == b.all_requests_affected()
    for nid in a.tree.node_ids:
        assert a.pending_clients(nid) == b.pending_clients(nid)
        assert a.eligible_pending_clients(nid) == b.eligible_pending_clients(nid)
        assert a.eligible_inreq(nid) == pytest.approx(b.eligible_inreq(nid))


@pytest.mark.parametrize("engine", ALT_ENGINES)
@pytest.mark.parametrize("qos", [None, (2, 5)])
@pytest.mark.parametrize("seed", [0, 7, 19])
def test_scripted_operations_match(seed, qos, engine):
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(size=36, target_load=0.5, homogeneous=False, qos_hops=qos)
    )
    constraints = ConstraintSet.qos_distance() if qos else ConstraintSet.none()
    problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
    dict_state = build_state(problem, "dict")
    other_state = build_state(problem, engine)
    assert_states_agree(dict_state, other_state)

    nodes = list(tree.post_order_nodes())
    for step, node_id in enumerate(nodes):
        capacity = problem.capacity(node_id)
        if step % 3 == 0:
            for state in (dict_state, other_state):
                state.place(node_id)
                state.drain(node_id, capacity / 2, largest_first=True, split_last=False)
        elif step % 3 == 1:
            for state in (dict_state, other_state):
                state.drain(node_id, capacity, largest_first=False, split_last=True)
        else:
            for state in (dict_state, other_state):
                state.cover(node_id)
        assert_states_agree(dict_state, other_state)

    # Explicit single assignments exercise assign() symmetrically.
    for client in tree.clients():
        servers = problem.eligible_servers(client.id)
        if not servers:
            continue
        amount = min(2.0, dict_state.remaining[client.id])
        if amount <= 0:
            continue
        for state in (dict_state, other_state):
            state.assign(client.id, servers[-1], amount)
    assert_states_agree(dict_state, other_state)


@pytest.mark.parametrize("engine", ALT_ENGINES)
def test_repeated_service_accumulates_like_seed_engine(small_problem, engine):
    # A split drain, then a cover of the same server: c1 is served twice.
    states = [build_state(small_problem, "dict"), build_state(small_problem, engine)]
    for state in states:
        state.drain("n1", 5.0, largest_first=True, split_last=True)
        state.cover("n1")
    assert snapshot(states[1]) == snapshot(states[0])
    assert states[1].amounts[("c1", "n1")] == 7.0


class _EvenDepthQoS(ConstraintSet):
    """Deliberately non-monotone QoS metric: only even-depth servers allowed.

    A single depth threshold cannot represent this eligible set, so the
    native engine must run the dict engine's per-pair filtering (its kernels
    never see a ``_qos_check`` problem) to match the seed.
    """

    def qos_metric(self, tree, client_id, server_id):
        return 0.0 if tree.depth(server_id) % 2 == 0 else float("inf")


@pytest.mark.parametrize("engine", ALT_ENGINES)
def test_non_monotone_constraint_subclass_matches_seed_engine(engine):
    from repro.core.constraints import QoSMode

    constraints = _EvenDepthQoS(qos_mode=QoSMode.DISTANCE)
    for seed in range(6):
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(size=30, target_load=0.4, homogeneous=False, qos_hops=(2, 5))
        )
        problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
        dict_state = build_state(problem, "dict")
        other_state = build_state(problem, engine)
        for nid in tree.node_ids:
            assert dict_state.eligible_pending_clients(nid) == other_state.eligible_pending_clients(nid)
            assert dict_state.eligible_inreq(nid) == pytest.approx(other_state.eligible_inreq(nid))
        for name in HEURISTICS:
            (seed_solution,) = solve_all(name, [problem], "dict")
            (other_solution,) = solve_all(name, [problem], engine)
            assert (seed_solution is None) == (other_solution is None), (name, engine)
            if seed_solution is not None:
                assert seed_solution.placement.replicas == other_solution.placement.replicas
                assert dict(seed_solution.assignment.items()) == dict(
                    other_solution.assignment.items()
                )


@pytest.mark.parametrize("engine", ALT_ENGINES)
def test_unserved_summary_matches(small_problem, engine):
    dict_state = build_state(small_problem, "dict")
    other_state = build_state(small_problem, engine)
    assert dict_state.unserved_summary() == other_state.unserved_summary()
    for state in (dict_state, other_state):
        state.place("n1")
        state.cover("n1")
    assert dict_state.unserved_summary() == other_state.unserved_summary()


@pytest.mark.parametrize("engine", ALT_ENGINES)
def test_state_to_solution_round_trip(small_problem, engine):
    from repro.core.policies import Policy

    state = build_state(small_problem, engine)
    state.place("root")
    covered = state.cover("root")
    assert covered == pytest.approx(12.0)
    solution = state.to_solution(Policy.MULTIPLE, "manual")
    assert solution.assignment.total_assigned() == pytest.approx(12.0)
    assert solution.placement.replicas == frozenset({"root"})


# --------------------------------------------------------------------------- #
# MG's greedy sweep, property-based
# --------------------------------------------------------------------------- #
#: rate and capacity shapes the sweep's float order must survive: generated
#: integral rates, heavy ties (repr tie-breaks) and fractional rates and
#: budgets whose sums are not exact in binary
_RATE_SHAPES = ("generated", "tied", "fractional")
#: hop and latency thresholds, a monotone classed set (thresholds) and a
#: non-monotone one (the per-pair fallback)
_QOS_SHAPES = ("none", "distance", "latency", "classed", "non_monotone")


def _sweep_problem(seed: int, size: int, rates: str, zero_share: float, qos: str):
    rng = random.Random(seed)
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(
            size=size,
            target_load=0.5,
            homogeneous=False,
            qos_hops=(1, 4) if qos in ("distance", "latency") else None,
        )
    )
    if qos in ("classed", "non_monotone"):
        tree = annotate_tree(tree, seed=seed)
    nodes = []
    for node in tree.nodes():
        capacity = node.capacity / 3 if rates == "fractional" else node.capacity
        if rng.random() < zero_share:
            capacity = 0.0
        nodes.append(replace(node, capacity=capacity))
    clients = list(tree.clients())
    if rates == "tied":
        clients = [replace(c, requests=rng.choice((2.0, 5.0))) for c in clients]
    elif rates == "fractional":
        clients = [
            replace(c, requests=rng.choice((0.1, 1 / 3, 0.7, 2.5)) * rng.randint(1, 9))
            for c in clients
        ]
    constraints = ConstraintSet.none()
    if qos == "distance":
        constraints = ConstraintSet.qos_distance()
    elif qos == "latency":
        constraints = ConstraintSet.qos_latency()
    elif qos in ("classed", "non_monotone"):
        classes = None
        if qos == "non_monotone":
            classes = (
                ServiceClass(name="odd", weights=MetricWeights(latency=-1.0)),
                ServiceClass(name="plain", priority=1),
            )
        constraints = ClassedConstraintSet.standard(tree, classes=classes, seed=seed)
        bounded = []
        for client in clients:
            scores = [s for _, s in constraints.iter_ancestor_scores(tree, client.id)]
            bound = 0.8 * max(scores)
            bounded.append(replace(client, qos=bound) if bound > 0 else client)
        clients = bounded
    tree = TreeNetwork(nodes, clients, list(tree.links()))
    return ReplicaPlacementProblem(tree=tree, constraints=constraints)


def _sweep_outcome(state: RequestState):
    return (
        set(state.replicas),
        {key: amount.hex() for key, amount in state.amounts.items()},
        {cid: state.remaining[cid].hex() for cid in state.tree.client_ids},
        {nid: state.residual[nid].hex() for nid in state.tree.node_ids},
        {nid: state.inreq[nid].hex() for nid in state.tree.node_ids},
    )


@pytest.mark.parametrize("engine", ALT_ENGINES)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=6, max_value=60),
    rates=st.sampled_from(_RATE_SHAPES),
    zero_share=st.sampled_from((0.0, 0.2, 0.5)),
    qos=st.sampled_from(_QOS_SHAPES),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_greedy_sweep_matches_seed_engine(engine, seed, size, rates, zero_share, qos):
    problem = _sweep_problem(seed, size, rates, zero_share, qos)
    if qos == "non_monotone":
        assert not supports_qos_thresholds(problem.constraints)
    elif qos != "none":
        assert supports_qos_thresholds(problem.constraints)
    seed_state = build_state(problem, "dict")
    other_state = build_state(problem, engine)
    seed_state.greedy_sweep()
    other_state.greedy_sweep()
    assert _sweep_outcome(other_state) == _sweep_outcome(seed_state)


# --------------------------------------------------------------------------- #
# the drains (drain, both first passes, the second pass, MG's sweep)
# --------------------------------------------------------------------------- #
#: a node's budget as a share of its capacity: small shares stop a drain
#: mid-span, the whole capacity lets the first passes saturate
_BUDGET_SHARES = (0.3, 0.6, 1.0)
_DRAIN_STEPS = ("drain", "cover", "first_pre", "first_post", "second", "greedy")


def _run_drain_step(state: RequestState, step: str, share: float, **order) -> None:
    if step == "drain":
        for node_id in state.tree.post_order_nodes():
            state.place(node_id)
            state.drain(node_id, share * state.problem.capacity(node_id), **order)
    elif step == "cover":
        # Root first: each node covers what no ancestor could (QoS).
        for node_id in reversed(list(state.tree.post_order_nodes())):
            state.place(node_id)
            state.cover(node_id)
    elif step in ("first_pre", "first_post"):
        state.first_pass_sweep(order=step[len("first_"):], **order)
    elif step == "second":
        state.first_pass_sweep(**order)
        state.second_pass_sweep(**order)
    else:
        state.greedy_sweep()


@pytest.mark.parametrize("engine", ALT_ENGINES)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=6, max_value=60),
    rates=st.sampled_from(_RATE_SHAPES),
    zero_share=st.sampled_from((0.0, 0.2)),
    qos=st.sampled_from(_QOS_SHAPES),
    step=st.sampled_from(_DRAIN_STEPS),
    share=st.sampled_from(_BUDGET_SHARES),
    largest_first=st.booleans(),
    split_last=st.booleans(),
)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_drains_match_seed_engine(
    engine, seed, size, rates, zero_share, qos, step, share, largest_first, split_last
):
    """Every drain and cover takes the same clients in the same order on
    every engine and serves them by the same rule: tied rates (repr
    tie-breaks), budgets that stop mid-span, whole-client mode skipping
    clients larger than the budget, QoS thresholds and the per-pair
    fallback.  Every state field -- replicas, amounts in insertion order,
    remaining, residual and ``inreq`` -- matches the dict engine's floats
    bit for bit."""
    problem = _sweep_problem(seed, size, rates, zero_share, qos)
    order = dict(largest_first=largest_first, split_last=split_last)
    states = {}
    for name in ("dict", engine):
        states[name] = build_state(problem, name)
        _run_drain_step(states[name], step, share, **order)

    def amounts_in_order(state):
        return [(key, amount.hex()) for key, amount in state.amounts.items()]

    assert amounts_in_order(states[engine]) == amounts_in_order(states["dict"])
    assert _sweep_outcome(states[engine]) == _sweep_outcome(states["dict"])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", [3, 8])
def test_to_solution_keeps_every_positive_amount(engine, seed):
    """``to_solution`` hands the state's amounts over unchecked: every one is
    a positive float, so the assignment equals a checked copy, in order."""
    from repro.core.policies import Policy
    from repro.core.solution import Assignment

    problem = instance(seed)
    state = build_state(problem, engine)
    state.first_pass_sweep(largest_first=False, split_last=True)
    state.greedy_sweep()
    assert state.amounts
    assert all(type(value) is float and value > 0 for value in state.amounts.values())
    assignment = state.to_solution(Policy.MULTIPLE, "sweeps").assignment
    assert assignment == Assignment(state.amounts)
    assert list(assignment.items()) == list(Assignment(state.amounts).items())
    assert assignment._amounts is not state.amounts
