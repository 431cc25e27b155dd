"""Tests of the session API, shim equivalence and the result protocol.

Three families:

* **Session behaviour** -- cache reuse (index identity, program patching,
  per-epoch memoisation), epoch stepping via ``update()``, engine override,
  simulation, error handling.
* **Shim equivalence** -- the free functions of :mod:`repro.api` are thin
  wrappers over a throwaway :class:`~repro.session.PlacementSession`; these
  tests pin them *bit-identical* (placements, assignments, costs, bound
  values) to direct session calls across policies x constraint sets.
* **Result protocol** -- every result type round-trips through
  ``to_dict()`` / ``to_json()`` / :func:`repro.core.results.result_from_dict`.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import (
    BoundSequenceResult,
    PlacementSession,
    Policy,
    SequenceResult,
    bound_sequence,
    compare_policies,
    lower_bound,
    result_from_dict,
    result_from_json,
    solve,
    solve_sequence,
)
from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError
from repro.core.index import TreeIndex
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.results import decode_float, encode_float
from repro.core.serialization import load_result, save_result
from repro.experiments.harness import (
    CampaignConfig,
    ChurnCampaignConfig,
    run_campaign,
    run_churn_campaign,
)
from repro.session import CompareResult, SolveResult
from repro.workloads.dynamic import rate_churn, step_change
from repro.workloads.generator import generate_tree
from tests.conftest import assert_valid, kernels_disabled, make_random_problem


def churn_epochs(problem, epochs=6, seed=11, churn=0.25):
    return rate_churn(problem, epochs, churn=churn, quiet_probability=0.3, seed=seed)


def solutions_identical(a, b):
    """Bit-identical placements, assignments and policies (or both None)."""
    if a is None or b is None:
        return a is None and b is None
    return (
        a.placement.replicas == b.placement.replicas
        and dict(a.assignment.items()) == dict(b.assignment.items())
        and a.policy is b.policy
        and a.algorithm == b.algorithm
    )


# --------------------------------------------------------------------------- #
# session behaviour
# --------------------------------------------------------------------------- #
class TestSessionCaching:
    def test_solve_then_bound_share_the_tree_index(self):
        problem = make_random_problem(3, size=60)
        session = PlacementSession(problem)
        session.solve()
        index = TreeIndex.for_tree(session.tree)
        bound = session.bound()
        assert bound.feasible
        # The bound's program was assembled on the very index the solve
        # warmed -- structural arrays are the same objects, not copies.
        program = session.program()
        assert program is not None
        assert program.space.index is index
        assert session.index is index

    def test_repeated_queries_hit_the_epoch_cache(self):
        session = PlacementSession(make_random_problem(4, size=40))
        first = session.solve()
        again = session.solve()
        assert again is first
        b1 = session.bound()
        b2 = session.bound()
        assert b2 is b1
        assert session.stats.solves == 1
        assert session.stats.bounds == 1
        assert session.stats.solve_cache_hits == 1
        assert session.stats.bound_cache_hits == 1

    def test_rate_only_update_patches_the_program(self):
        problem = make_random_problem(5, size=60)
        session = PlacementSession(problem)
        session.solve()
        before = session.bound()
        program_before = session.program()
        client = session.tree.client_ids[0]
        session.update(requests={client: problem.requests(client) + 3.0})
        after = session.bound()
        program_after = session.program()
        assert after.stats.strategy == "patched"
        assert program_after.shares_structure_with(program_before)
        # The patched bound equals a from-scratch bound of the same epoch.
        assert after.value == lower_bound(session.problem)
        assert before.epoch == 0 and after.epoch == 1

    def test_update_with_requests_preserves_constraints_and_kind(self):
        tree = generate_tree(size=30, target_load=0.3, homogeneous=True, seed=9)
        session = PlacementSession(
            tree,
            constraints=ConstraintSet.qos_distance(),
            kind=ProblemKind.REPLICA_COUNTING,
        )
        client = session.tree.client_ids[0]
        session.update(requests={client: 2.0})
        assert session.problem.constraints.has_qos
        assert session.problem.kind is ProblemKind.REPLICA_COUNTING

    def test_update_requires_exactly_one_argument(self):
        session = PlacementSession(make_random_problem(6))
        with pytest.raises(ValueError):
            session.update()
        with pytest.raises(ValueError):
            session.update(make_random_problem(6), requests={})

    def test_update_with_instance_applies_session_coercion(self):
        tree = generate_tree(size=30, target_load=0.3, homogeneous=True, seed=2)
        session = PlacementSession(tree, kind=ProblemKind.REPLICA_COUNTING)
        next_tree = tree.with_requests({tree.client_ids[0]: 1.0})
        session.update(next_tree)
        assert session.problem.kind is ProblemKind.REPLICA_COUNTING
        assert session.epoch == 1

    def test_unchanged_epoch_is_reused(self):
        problem = make_random_problem(7, size=40)
        session = PlacementSession(problem)
        first = session.solve()
        session.update(requests={})  # a quiet epoch: nothing moved
        second = session.solve(on_error="none")
        assert second.stats.strategy == "reused"
        assert solutions_identical(first.solution, second.solution)

    def test_infeasible_solve_raises_like_the_free_function(self):
        from repro.workloads import reference_trees

        problem = reference_trees.figure1_tree("c")
        session = PlacementSession(problem)
        with pytest.raises(InfeasibleError):
            session.solve(policy="closest")
        quiet = session.solve(policy="closest", on_error="none")
        assert quiet.solution is None and not quiet.feasible

    def test_engine_override_matches_default(self):
        # Heterogeneous: the homogeneous Multiple solve builds no state.
        problem = make_random_problem(8, size=40, homogeneous=False)
        fast = PlacementSession(problem).solve()
        with kernels_disabled():
            dict_engine = PlacementSession(problem).solve()
        assert solutions_identical(fast.solution, dict_engine.solution)

    def test_simulate_runs_on_the_cached_solution(self):
        session = PlacementSession(make_random_problem(9, size=40))
        replay = session.simulate()
        assert session.stats.solves == 1
        assert replay.total_traffic > 0
        # simulate() reuses the epoch cache rather than re-solving.
        session.simulate()
        assert session.stats.solves == 1

    def test_invalid_mode_and_method_rejected(self):
        with pytest.raises(ValueError):
            PlacementSession(make_random_problem(10), mode="magic")
        session = PlacementSession(make_random_problem(10))
        with pytest.raises(ValueError):
            session.bound(method="magic")
        with pytest.raises(ValueError):
            session.solve(on_error="explode")

    def test_trivial_bound_matches_free_function(self):
        problem = make_random_problem(11, size=30)
        session = PlacementSession(problem)
        assert session.bound(method="trivial").value == lower_bound(
            problem, method="trivial"
        )

    def test_scratch_mode_disables_bound_patching(self):
        problem = make_random_problem(12, size=40)
        session = PlacementSession(problem, mode="scratch")
        session.bound()
        client = session.tree.client_ids[0]
        session.update(requests={client: problem.requests(client) + 2.0})
        rebound = session.bound()
        assert rebound.stats.strategy == "built"


# --------------------------------------------------------------------------- #
# shim equivalence: free functions == session calls, bit for bit
# --------------------------------------------------------------------------- #
def shim_problem(name: str) -> ReplicaPlacementProblem:
    """The instance grid of the shim-equivalence tests."""
    if name == "counting":
        return make_random_problem(17, size=40, load=0.35)
    if name == "cost":
        return make_random_problem(17, size=40, load=0.35).with_kind(
            ProblemKind.REPLICA_COST
        )
    if name == "hetero":
        return make_random_problem(18, size=40, load=0.35, homogeneous=False)
    if name == "qos":
        problem = make_random_problem(20, size=40, load=0.3, qos_hops=(4, 8))
        return problem.with_constraints(ConstraintSet.qos_distance())
    raise ValueError(name)


class TestShimEquivalence:
    @pytest.mark.parametrize("name", ["counting", "cost", "hetero", "qos"])
    @pytest.mark.parametrize("policy", ["closest", "upwards", "multiple"])
    def test_solve_shim(self, name, policy):
        problem = shim_problem(name)
        session = PlacementSession(problem)
        try:
            via_shim = solve(problem, policy=policy)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                session.solve(policy=policy)
            return
        via_session = session.solve(policy=policy).solution
        assert solutions_identical(via_shim, via_session)
        assert_valid(problem, via_shim, policy=Policy.parse(policy))

    @pytest.mark.parametrize("method", ["mixed", "rational", "trivial"])
    def test_lower_bound_shim(self, method):
        problem = make_random_problem(19, size=40)
        session = PlacementSession(problem)
        assert lower_bound(problem, method=method) == session.bound(method=method).value

    def test_compare_shim(self):
        problem = make_random_problem(21, size=40)
        via_shim = compare_policies(problem, bounds=True)
        session = PlacementSession(problem)
        via_session = session.compare(bounds=True)
        assert list(via_shim) == list(via_session)
        for policy in via_shim:
            assert solutions_identical(via_shim[policy], via_session[policy])
        assert via_shim.costs == via_session.costs
        assert via_shim.bound.value == via_session.bound.value
        assert via_shim.gaps() == via_session.gaps()

    def test_compare_remains_mapping_compatible(self):
        results = compare_policies(make_random_problem(22, size=30))
        assert isinstance(results, CompareResult)
        assert set(results) == set(Policy.ordered())
        assert len(results) == 3
        for policy, solution in results.items():
            assert results[policy] is solution
        assert results["multiple"] is results[Policy.MULTIPLE]
        assert results.gaps() == {}  # bounds not requested
        # Mapping semantics for unknown keys: missing, not a parse error.
        assert "bogus" not in results
        assert results.get("bogus", "default") == "default"
        with pytest.raises(KeyError):
            results["bogus"]

    def test_compare_engine_override_is_bit_identical(self):
        problem = make_random_problem(23, size=40)
        default = compare_policies(problem)
        with kernels_disabled():
            forced = compare_policies(problem)
        for policy in default:
            assert solutions_identical(default[policy], forced[policy])

    @pytest.mark.parametrize("mode", ["incremental", "patch", "scratch"])
    def test_solve_sequence_shim(self, mode):
        problem = make_random_problem(25, size=50)
        epochs = churn_epochs(problem)
        via_shim = solve_sequence(epochs, mode=mode)

        session = None
        solutions = []
        strategies = []
        for epoch in epochs:
            if session is None:
                session = PlacementSession(epoch, mode=mode)
                result = session.solve(on_error="none")
            else:
                result = session.update(epoch)
            solutions.append(result.solution)
            strategies.append(result.stats.strategy)

        assert len(via_shim.solutions) == len(solutions)
        for a, b in zip(via_shim.solutions, solutions):
            assert solutions_identical(a, b)
        assert [entry.strategy for entry in via_shim.stats] == strategies

    def test_bound_sequence_shim(self):
        problem = make_random_problem(27, size=50)
        epochs = churn_epochs(problem)
        via_shim = bound_sequence(epochs)

        session = None
        values = []
        strategies = []
        for epoch in epochs:
            if session is None:
                session = PlacementSession(epoch)
            else:
                session.update(epoch, resolve=False)
            entry = session.bound()
            values.append(entry.value)
            strategies.append(entry.stats.strategy)

        assert via_shim.values == values
        assert [entry.strategy for entry in via_shim.stats] == strategies
        assert "patched" in strategies or "reused" in strategies

    def test_sequence_shims_match_scratch_costs(self):
        # The session-backed incremental path stays cost-identical to
        # per-epoch from-scratch solving (the PR 2 guarantee, re-pinned
        # through the new shims).
        problem = make_random_problem(29, size=50)
        epochs = list(step_change(problem, 5, at=2, factor=1.4))
        incremental = solve_sequence(epochs, mode="incremental")
        scratch = solve_sequence(epochs, mode="scratch")
        assert incremental.costs == scratch.costs


# --------------------------------------------------------------------------- #
# result protocol round-trips
# --------------------------------------------------------------------------- #
class TestResultProtocol:
    def test_float_encoding_bijection(self):
        values = [None, 0.0, 1.5, math.inf, -math.inf, math.nan]
        for value in values:
            encoded = encode_float(value)
            json.dumps(encoded)  # JSON-safe
            decoded = decode_float(encoded)
            if value is not None and math.isnan(value):
                assert math.isnan(decoded)
            else:
                assert decoded == value

    def test_solve_result_roundtrip(self):
        session = PlacementSession(make_random_problem(31, size=40))
        result = session.solve()
        clone = result_from_json(result.to_json())
        assert isinstance(clone, SolveResult)
        assert clone == SolveResult(
            epoch=result.epoch,
            policy=result.policy,
            solution=result.solution,
            cost=result.cost,
            stats=result.stats,
        )

    def test_bound_and_compare_roundtrip(self):
        session = PlacementSession(make_random_problem(33, size=40))
        bound = session.bound()
        clone = result_from_json(bound.to_json())
        assert clone.value == bound.value
        assert clone.stats == bound.stats

        comparison = session.compare(bounds=True)
        ct = result_from_json(comparison.to_json())
        assert ct.costs == comparison.costs
        assert ct.gaps() == comparison.gaps()
        for policy in comparison:
            assert solutions_identical(ct[policy], comparison[policy])

    def test_sequence_result_roundtrip(self):
        problem = make_random_problem(35, size=50)
        result = solve_sequence(churn_epochs(problem))
        payload = json.loads(result.to_json())
        clone = result_from_dict(payload)
        assert isinstance(clone, SequenceResult)
        assert clone == result  # dataclass equality: solutions + stats
        assert payload["type"] == "sequence_result"
        assert payload["costs"] == [encode_float(c) for c in result.costs]

    def test_bound_sequence_result_roundtrip(self):
        problem = make_random_problem(37, size=50)
        result = bound_sequence(churn_epochs(problem))
        clone = result_from_json(result.to_json())
        assert isinstance(clone, BoundSequenceResult)
        assert clone == result
        assert clone.values == result.values
        assert clone.strategy_counts() == result.strategy_counts()

    def test_infeasible_epochs_roundtrip(self):
        # Overload a tiny tree so some epochs are infeasible: Nones and inf
        # bounds must survive the JSON round-trip.
        problem = make_random_problem(39, size=30, load=0.9)
        epochs = list(step_change(problem, 4, at=1, factor=4.0))
        solved = solve_sequence(epochs)
        bounds = bound_sequence(epochs)
        assert result_from_json(solved.to_json()) == solved
        clone = result_from_json(bounds.to_json())
        assert clone == bounds
        if math.inf in bounds.values:
            assert math.inf in clone.values

    def test_campaign_result_roundtrip(self):
        config = CampaignConfig(
            trees_per_lambda=1, size_range=(15, 25), lambdas=(0.2, 0.6)
        )
        result = run_campaign(config)
        clone = result_from_json(result.to_json())
        assert clone.config == result.config
        assert clone.records == result.records
        assert clone.success_table() == result.success_table()
        assert clone.relative_cost_table() == result.relative_cost_table()

    def test_churn_campaign_result_roundtrip(self):
        config = ChurnCampaignConfig(
            churn_levels=(0.1,), epochs=3, trees_per_level=1, size=25
        )
        result = run_churn_campaign(config)
        clone = result_from_json(result.to_json())
        assert clone.config == result.config
        assert len(clone.records) == len(result.records)
        for ours, theirs in zip(result.records, clone.records):
            assert ours.mode == theirs.mode
            assert ours.mean_cost == theirs.mean_cost
            assert ours.strategies == theirs.strategies
            assert math.isnan(theirs.mean_gap) == math.isnan(ours.mean_gap)
        assert clone.cost_table() == result.cost_table()

    def test_save_and_load_result_file(self, tmp_path):
        problem = make_random_problem(41, size=40)
        result = solve_sequence(churn_epochs(problem, epochs=4))
        path = save_result(result, tmp_path / "sequence.json")
        assert load_result(path) == result

    def test_unknown_payload_type_rejected(self):
        with pytest.raises(ValueError):
            result_from_dict({"type": "not-a-result"})

    def test_describe_is_implemented_everywhere(self):
        problem = make_random_problem(43, size=40)
        session = PlacementSession(problem)
        objects = [
            session.solve(),
            session.bound(),
            session.compare(),
            solve_sequence(churn_epochs(problem, epochs=3)),
            bound_sequence(churn_epochs(problem, epochs=3)),
        ]
        for obj in objects:
            text = obj.describe()
            assert isinstance(text, str) and text
