"""Tests of the LP/ILP formulations, solver wrappers and bounds."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import TreeBuilder
from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import replica_cost_problem, replica_counting_problem
from repro.lp import (
    LinearProgramData,
    VariableSpace,
    build_program,
    exact_cost,
    exact_solution,
    lp_lower_bound,
    rational_relaxation_bound,
    solve_program,
)
from repro.workloads import reference_trees
from tests.conftest import assert_valid, make_random_problem


class TestVariableSpace:
    def test_counts(self, small_problem):
        space = VariableSpace(small_problem)
        assert space.num_x == 2
        # c1, c2 have ancestors (n1, root); c3 only root -> 5 pairs.
        assert space.num_y == 5
        assert space.num_variables == 7

    def test_indices_are_disjoint_and_dense(self, small_problem):
        space = VariableSpace(small_problem)
        indices = [space.x_index(n) for n in space.node_ids]
        indices += [space.y_index(c, s) for c, s in space.pairs]
        assert sorted(indices) == list(range(space.num_variables))

    def test_qos_removes_pairs(self, qos_tree):
        problem = replica_cost_problem(qos_tree, constraints=ConstraintSet.qos_distance())
        space = VariableSpace(problem)
        assert not space.has_pair("near", "root")
        assert space.has_pair("far", "root")

    def test_pairs_for_client_and_server(self, small_problem):
        space = VariableSpace(small_problem)
        assert set(space.pairs_for_client("c1")) == {("c1", "n1"), ("c1", "root")}
        assert set(space.pairs_for_server("root")) == {
            ("c1", "root"),
            ("c2", "root"),
            ("c3", "root"),
        }

    def test_describe(self, small_problem):
        assert "placement" in VariableSpace(small_problem).describe()


class TestFormulation:
    def test_multiple_program_dimensions(self, small_problem):
        program = build_program(small_problem, Policy.MULTIPLE)
        # 3 coverage rows + 2 capacity rows.
        assert program.num_constraints == 5
        assert program.num_variables == 7

    def test_single_server_bounds_are_binary(self, small_problem):
        program = build_program(small_problem, Policy.UPWARDS)
        assert np.all(program.variable_upper <= 1.0)

    def test_multiple_bounds_are_request_counts(self, small_problem):
        program = build_program(small_problem, Policy.MULTIPLE)
        space = program.space
        assert program.variable_upper[space.y_index("c1", "n1")] == 7

    def test_closest_adds_exclusion_rows(self, small_problem):
        upwards = build_program(small_problem, Policy.UPWARDS)
        closest = build_program(small_problem, Policy.CLOSEST)
        assert closest.num_constraints > upwards.num_constraints

    def test_closest_constraint_limit(self):
        problem = make_random_problem(2, size=40, load=0.3)
        with pytest.raises(ValueError):
            build_program(problem, Policy.CLOSEST, closest_constraint_limit=1)

    def test_bandwidth_rows_only_for_finite_links(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=100)
            .add_node("n1", capacity=100, parent="root", bandwidth=5)
            .add_client("c", requests=10, parent="n1")
            .build()
        )
        problem = replica_cost_problem(
            tree, constraints=ConstraintSet(enforce_bandwidth=True)
        )
        program = build_program(problem, Policy.MULTIPLE)
        assert any(label.startswith("bandwidth[") for label in program.labels)

    def test_with_integrality_masks(self, small_problem):
        program = build_program(small_problem, Policy.MULTIPLE)
        mixed = program.with_integrality(integral_placement=True, integral_assignment=False)
        assert mixed.integrality[: mixed.space.num_x].sum() == mixed.space.num_x
        assert mixed.integrality[mixed.space.num_x :].sum() == 0


class TestSolver:
    def test_pure_lp_path(self, small_problem):
        program = build_program(
            small_problem, Policy.MULTIPLE, integral_placement=False, integral_assignment=False
        )
        result = solve_program(program)
        assert result.optimal and result.objective <= 20

    def test_milp_path(self, small_problem):
        program = build_program(small_problem, Policy.MULTIPLE)
        result = solve_program(program)
        assert result.optimal
        assert result.objective == pytest.approx(20)  # both nodes needed

    def test_infeasible_detection(self):
        tree = (
            TreeBuilder()
            .add_node("r", capacity=1)
            .add_client("c", requests=5, parent="r")
            .build()
        )
        program = build_program(replica_cost_problem(tree), Policy.MULTIPLE)
        assert solve_program(program).infeasible

    def test_time_limit_forwarded_to_pure_lp_backend(self, small_problem, monkeypatch):
        """Regression: the pure-LP path used to drop ``time_limit`` entirely."""
        from scipy import optimize

        captured = {}
        real_linprog = optimize.linprog

        def capturing_linprog(*args, **kwargs):
            captured.update(kwargs)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(optimize, "linprog", capturing_linprog)
        program = build_program(
            small_problem, Policy.MULTIPLE, integral_placement=False, integral_assignment=False
        )
        result = solve_program(program, time_limit=30.0)
        assert result.optimal
        assert captured["options"] == {"time_limit": 30.0}

        captured.clear()
        assert solve_program(program).optimal
        assert captured["options"] == {}

    def test_time_limit_forwarded_to_milp_backend(self, small_problem, monkeypatch):
        from scipy import optimize

        captured = {}
        real_milp = optimize.milp

        def capturing_milp(*args, **kwargs):
            captured.update(kwargs)
            return real_milp(*args, **kwargs)

        monkeypatch.setattr(optimize, "milp", capturing_milp)
        program = build_program(small_problem, Policy.MULTIPLE)
        assert solve_program(program, time_limit=30.0).optimal
        assert captured["options"] == {"time_limit": 30.0}


class TestBounds:
    def test_mixed_bound_between_relaxation_and_optimum(self):
        for seed in (1, 5):
            problem = make_random_problem(seed, size=16, load=0.5)
            rational = rational_relaxation_bound(problem)
            mixed = lp_lower_bound(problem)
            if not mixed.feasible:
                assert not rational.feasible or rational.value <= mixed.value
                continue
            exact = exact_cost(problem, Policy.MULTIPLE)
            assert rational.value <= mixed.value + 1e-6
            assert mixed.value <= exact + 1e-6

    def test_bound_is_inf_on_infeasible_instance(self):
        tree = (
            TreeBuilder()
            .add_node("r", capacity=1)
            .add_client("c", requests=5, parent="r")
            .build()
        )
        bound = lp_lower_bound(replica_cost_problem(tree))
        assert not bound.feasible and math.isinf(bound.value)

    def test_bound_finite_on_multiple_only_instance(self):
        # Figure 1(c) is infeasible for Closest/Upwards but the bound uses the
        # Multiple formulation, so it stays finite (2 replicas).
        problem = replica_counting_problem(reference_trees.figure1_tree("c"))
        bound = lp_lower_bound(problem)
        assert bound.feasible and bound.value == pytest.approx(2.0)

    def test_bound_never_exceeds_any_heuristic_cost(self):
        from repro.algorithms import MultipleGreedy

        problem = make_random_problem(31, size=40, load=0.4)
        bound = lp_lower_bound(problem)
        solution = MultipleGreedy().try_solve(problem)
        if solution is not None:
            assert bound.value <= solution.cost(problem) + 1e-6

    def test_float_protocol(self, small_counting_problem):
        assert float(lp_lower_bound(small_counting_problem)) == pytest.approx(2.0)

    def test_counting_bound_at_least_ceiling(self, small_counting_problem):
        from repro.core.costs import request_lower_bound

        bound = lp_lower_bound(small_counting_problem)
        assert bound.value >= request_lower_bound(small_counting_problem.tree) - 1e-9


class TestExactILP:
    def test_figure1_feasibility_matrix(self):
        expectations = {
            "a": {Policy.CLOSEST: True, Policy.UPWARDS: True, Policy.MULTIPLE: True},
            "b": {Policy.CLOSEST: False, Policy.UPWARDS: True, Policy.MULTIPLE: True},
            "c": {Policy.CLOSEST: False, Policy.UPWARDS: False, Policy.MULTIPLE: True},
        }
        for variant, expected in expectations.items():
            problem = replica_counting_problem(reference_trees.figure1_tree(variant))
            for policy, feasible in expected.items():
                if feasible:
                    solution = exact_solution(problem, policy)
                    assert_valid(problem, solution, policy=policy)
                else:
                    with pytest.raises(InfeasibleError):
                        exact_solution(problem, policy)

    def test_exact_solution_is_validated_per_policy(self):
        problem = make_random_problem(51, size=14, load=0.4)
        for policy in Policy.ordered():
            try:
                solution = exact_solution(problem, policy)
            except InfeasibleError:
                continue
            assert_valid(problem, solution, policy=policy)

    def test_policy_dominance_of_exact_costs(self):
        for seed in (2, 6):
            problem = make_random_problem(seed + 60, size=14, load=0.4)
            costs = {}
            for policy in Policy.ordered():
                try:
                    costs[policy] = exact_cost(problem, policy)
                except InfeasibleError:
                    costs[policy] = math.inf
            assert costs[Policy.MULTIPLE] <= costs[Policy.UPWARDS] + 1e-6
            assert costs[Policy.UPWARDS] <= costs[Policy.CLOSEST] + 1e-6

    def test_exact_with_qos_respects_bounds(self, qos_tree):
        problem = replica_cost_problem(qos_tree, constraints=ConstraintSet.qos_distance())
        solution = exact_solution(problem, Policy.MULTIPLE)
        assert_valid(problem, solution)
        assert "leaf" in solution.placement  # the qos=1 client pins a replica

    def test_exact_fractional_requests_supported(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=5)
            .add_node("a", capacity=5, parent="root")
            .add_client("c", requests=7.5, parent="a")
            .build()
        )
        problem = replica_cost_problem(tree)
        solution = exact_solution(problem, Policy.MULTIPLE)
        assert solution.cost(problem) == pytest.approx(10.0)

    def test_metadata_reports_objective(self, small_counting_problem):
        solution = exact_solution(small_counting_problem, Policy.MULTIPLE)
        assert solution.metadata["objective"] == pytest.approx(2.0)


class TestSolverOutputRedirect:
    """``solver_output_to_stderr`` points fd 1 at fd 2 and always puts it
    back.  Each case runs in its own interpreter, which owns its fds."""

    @staticmethod
    def run(body: str):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = "import os, sys\nfrom repro.lp.solver import solver_output_to_stderr\n"
        return subprocess.run(
            [sys.executable, "-c", script + textwrap.dedent(body)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_nested_blocks_restore_fd1_once_the_outer_one_exits(self):
        result = self.run(
            """
            print("python-before")  # buffered; the guard flushes it to stdout
            free = os.dup(0); os.close(free)
            with solver_output_to_stderr():
                os.write(1, b"native-1\\n")
                with solver_output_to_stderr():
                    os.write(1, b"native-2\\n")
                os.write(1, b"native-3\\n")
            os.write(1, b"native-after\\n")
            again = os.dup(0); os.close(again)
            assert again == free, (again, free)  # the saved fd was closed
            """
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "python-before\nnative-after\n"
        assert result.stderr == "native-1\nnative-2\nnative-3\n"

    def test_concurrent_blocks_restore_fd1(self):
        result = self.run(
            """
            import threading
            from repro.lp import solver

            sys.setswitchinterval(1e-6)
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait(timeout=60)
                for _ in range(200):
                    with solver_output_to_stderr():
                        with solver_output_to_stderr():
                            pass

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert solver._redirect_depth == 0
            assert solver._saved_stdout_fd is None
            os.write(1, b"restored\\n")
            """
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "restored\n"

    @pytest.mark.parametrize("closed, expected", [(1, ""), (2, "native\n")])
    def test_closed_fd_makes_it_a_no_op(self, closed, expected):
        result = self.run(
            f"""
            sys.stdout = sys.stderr = None  # nothing flushes into the closed fd
            os.close({closed})
            with solver_output_to_stderr():
                try:
                    os.write(1, b"native\\n")
                except OSError:
                    pass
            """
        )
        assert result.returncode == 0
        assert result.stdout == expected

    def test_backend_calls_run_inside_the_redirect(self):
        result = self.run(
            """
            from repro.lp import solver
            from scipy import optimize

            seen = []

            def spy(name):
                real = getattr(optimize, name)

                def call(*args, **kwargs):
                    seen.append((name, solver._redirect_depth))
                    return real(*args, **kwargs)

                setattr(optimize, name, call)

            spy("milp")
            spy("linprog")
            from repro.core.problem import replica_cost_problem
            from repro.lp import lp_lower_bound, rational_relaxation_bound
            from repro.workloads.generator import generate_tree

            problem = replica_cost_problem(generate_tree(size=20, target_load=0.3, seed=4))
            lp_lower_bound(problem)
            rational_relaxation_bound(problem)
            assert {name for name, _ in seen} == {"milp", "linprog"}, seen
            assert all(depth == 1 for _, depth in seen), seen
            assert solver._redirect_depth == 0
            """
        )
        assert result.returncode == 0, result.stderr
