"""Tests of the IPFP fractional-bound subsystem (``repro.lp.ipfp``).

The load-bearing property is the sandwich ``trivial <= ipfp <= mixed LP
<= heuristic cost``, pinned across a kind x constraint matrix, plus the
retarget contract: a rate-only ``with_requests`` fork reproduces the
cold-run value bit for bit (the bounder ladder depends on it).
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.incremental import IncrementalBounder
from repro.core.builder import TreeBuilder
from repro.core.constraints import ConstraintSet
from repro.core.costs import trivial_lower_bound
from repro.core.policies import Policy
from repro.core.problem import (
    ProblemKind,
    ReplicaPlacementProblem,
    replica_cost_problem,
)
from repro.lp import (
    IPFPConfig,
    IPFPProgram,
    ipfp_bound,
    ipfp_defaults,
    ipfp_program,
)
from repro.lp.bounds import (
    LowerBoundResult,
    bound_for_program,
    bound_program,
    lp_lower_bound,
)
from repro.session import PlacementSession
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import make_random_problem


def _matrix_problem(label: str, seed: int) -> ReplicaPlacementProblem:
    """One instance per cell of the sandwich matrix."""
    if label == "counting":
        return make_random_problem(seed, homogeneous=True)
    if label == "cost":
        return make_random_problem(seed, homogeneous=False)
    if label == "hetero":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(size=40, target_load=0.5, homogeneous=False)
        )
        return ReplicaPlacementProblem(tree=tree, kind=ProblemKind.GENERAL)
    if label == "qos":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(
                size=40, target_load=0.4, homogeneous=False, qos_hops=(2, 4)
            )
        )
        return replica_cost_problem(
            tree, constraints=ConstraintSet.qos_distance()
        )
    if label == "bandwidth":
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(
                size=40, target_load=0.4, homogeneous=False, link_bandwidth=60.0
            )
        )
        return replica_cost_problem(
            tree, constraints=ConstraintSet(enforce_bandwidth=True)
        )
    raise AssertionError(label)


class TestSandwich:
    @pytest.mark.parametrize(
        "label", ["counting", "cost", "hetero", "qos", "bandwidth"]
    )
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_trivial_le_ipfp_le_lp_le_cost(self, label, seed):
        problem = _matrix_problem(label, seed)
        trivial = trivial_lower_bound(problem)
        ip = ipfp_bound(problem)
        lp = lp_lower_bound(problem)
        assert ip.method == "ipfp"
        if not ip.feasible:
            # A sound certificate implies the exact relaxation fails too.
            assert not lp.feasible
            return
        assert trivial <= ip.value + 1e-9
        if lp.feasible:
            assert ip.value <= lp.value + 1e-9
        for policy in Policy.ordered():
            session = PlacementSession(problem)
            try:
                placed = session.solve(policy=policy)
            except Exception:
                continue
            assert ip.value <= placed.cost + 1e-9

    def test_integral_costs_tighten_to_integer(self):
        problem = make_random_problem(3, homogeneous=True)
        ip = ipfp_bound(problem)
        assert ip.feasible
        assert ip.value == int(ip.value)


class TestRetarget:
    def test_rate_only_retarget_equals_cold_run(self):
        problem = make_random_problem(9, homogeneous=False)
        program = ipfp_program(problem)
        cold_base = program.solve()

        surged = problem.tree.with_requests(
            {c: problem.tree.client(c).requests + 3.0 for c in problem.tree.client_ids}
        )
        next_problem = ReplicaPlacementProblem(tree=surged, kind=problem.kind)
        warm = program.with_requests(next_problem).solve()
        cold = ipfp_bound(next_problem)
        assert warm.value == cold.value
        assert warm.objective == cold.objective
        # ...and the original program still answers for the original epoch.
        assert program.solve().value == cold_base.value

    def test_structural_change_refuses_retarget(self):
        problem = make_random_problem(9, homogeneous=True)
        program = ipfp_program(problem)
        bigger = make_random_problem(10, size=50, homogeneous=True)
        with pytest.raises(ValueError):
            program.with_requests(bigger)

    def test_bounder_ladder_with_ipfp(self):
        base = make_random_problem(4, homogeneous=True)
        bounder = IncrementalBounder(method="ipfp")
        first, stats = bounder.bound(base)
        assert stats.strategy == "built"
        again, stats = bounder.bound(base)
        assert stats.strategy == "reused"
        assert again.value == first.value
        surged = ReplicaPlacementProblem(
            tree=base.tree.with_requests({base.tree.client_ids[0]: 1.0}),
            kind=base.kind,
        )
        patched, stats = bounder.bound(surged)
        assert stats.strategy == "patched"
        assert patched.value == ipfp_bound(surged).value

    def test_bound_program_dispatch(self):
        problem = make_random_problem(6, homogeneous=True)
        program = bound_program(problem, method="ipfp")
        assert isinstance(program, IPFPProgram)
        result = bound_for_program(program, method="ipfp")
        assert result.method == "ipfp"
        assert result.value == ipfp_bound(problem).value


class TestCertificates:
    def test_zero_capacity_servers(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=0, storage_cost=1)
            .add_node("mid", capacity=0, storage_cost=1, parent="root")
            .add_client("c", requests=5, parent="mid")
            .build()
        )
        problem = ReplicaPlacementProblem(tree=tree, kind=ProblemKind.GENERAL)
        result = ipfp_bound(problem)
        assert not result.feasible
        assert math.isinf(result.value)
        assert result.certificate is not None

    def test_uplink_bandwidth_overflow(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=50)
            .add_node("mid", capacity=50, parent="root")
            .add_client("c", requests=10, parent="mid", bandwidth=4.0)
            .build()
        )
        problem = replica_cost_problem(
            tree, constraints=ConstraintSet(enforce_bandwidth=True)
        )
        result = ipfp_bound(problem)
        assert not result.feasible
        assert "bandwidth" in result.certificate
        # Without bandwidth enforcement the same instance is fine.
        relaxed = replica_cost_problem(tree)
        assert ipfp_bound(relaxed).feasible

    def test_subtree_capacity_shortfall(self):
        # QoS pins both clients inside the 'mid' subtree (1 hop), whose
        # capacity cannot carry them: Hall's condition fails.
        tree = (
            TreeBuilder()
            .add_node("root", capacity=100)
            .add_node("mid", capacity=4, parent="root")
            .add_client("c1", requests=5, parent="mid", qos=1)
            .add_client("c2", requests=5, parent="mid", qos=1)
            .build()
        )
        problem = replica_cost_problem(
            tree, constraints=ConstraintSet.qos_distance()
        )
        result = ipfp_bound(problem)
        assert not result.feasible
        assert result.certificate is not None
        assert not lp_lower_bound(problem).feasible

    def test_certificate_round_trips(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=0)
            .add_client("c", requests=5, parent="root")
            .build()
        )
        problem = ReplicaPlacementProblem(tree=tree, kind=ProblemKind.GENERAL)
        result = ipfp_bound(problem)
        rebuilt = LowerBoundResult.from_dict(result.to_dict())
        assert rebuilt.certificate == result.certificate
        assert not rebuilt.feasible
        # Feasible results omit the key entirely (stable historical payloads).
        ok = ipfp_bound(make_random_problem(1, homogeneous=True))
        assert "certificate" not in ok.to_dict()
        assert LowerBoundResult.from_dict(ok.to_dict()).certificate is None


class TestSessionAndServing:
    def test_session_bound_ipfp_caches(self):
        problem = make_random_problem(2, homogeneous=True)
        session = PlacementSession(problem)
        first = session.bound(method="ipfp")
        assert first.result.method == "ipfp"
        second = session.bound(method="ipfp")
        assert second.result.value == first.result.value
        assert first.result.value == ipfp_bound(problem).value

    def test_serving_bound_op_ipfp(self):
        from repro import connect
        from repro.serving.server import ReproServer

        problem = make_random_problem(2, homogeneous=True)
        client = connect(ReproServer(capacity=2))
        session = client.open(problem)
        remote = session.bound(method="ipfp")
        assert remote.value == ipfp_bound(problem).value

    @pytest.mark.parametrize("label", ["cost", "bandwidth"])
    def test_memory_estimate_charges_ipfp_arrays(self, label):
        """The pool's byte budget sees every array a resident IPFP program owns."""
        import numpy as np

        def array_bytes(obj) -> int:
            total = 0
            for value in vars(obj).values():
                for item in value if isinstance(value, (list, tuple)) else (value,):
                    parts = item if isinstance(item, tuple) else (item,)
                    total += sum(p.nbytes for p in parts if isinstance(p, np.ndarray))
            return total

        session = PlacementSession(_matrix_problem(label, 3))
        before = session.memory_estimate()
        session.bound(method="ipfp")
        (bounder,) = session._bounders.values()
        program = bounder._program
        owned = array_bytes(program) + array_bytes(program.space)
        assert owned == program.nbytes
        assert session.memory_estimate() - before >= owned

    def test_bound_sequence_ipfp(self):
        from repro.api import bound_sequence
        from repro.workloads.dynamic import rate_churn

        base = make_random_problem(7, homogeneous=True)
        epochs = rate_churn(base, 5, churn=0.2, quiet_probability=0.2, seed=7)
        result = bound_sequence(epochs, method="ipfp")
        assert len(result.values) == 5
        for epoch, value in zip(epochs, result.values):
            assert value == ipfp_bound(epoch).value


class TestConfig:
    def test_defaults_surface(self):
        defaults = ipfp_defaults()
        assert set(defaults) == {
            "max_iterations", "tolerance", "stall_iterations", "step"
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"stall_iterations": 0},
            {"step": -1.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            IPFPConfig(**kwargs)

    def test_describe(self):
        program = ipfp_program(make_random_problem(1, homogeneous=True))
        assert "ipfp" in program.describe()
