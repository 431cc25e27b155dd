"""The native engine's loader, fallback, diagnostics and state plumbing.

Bit-for-bit solution equivalence lives in the engine-matrix suite
(``test_fast_state_equivalence.py``); this file covers what that matrix
cannot see: the build-on-first-use kernel loader and its graceful
degradation (``REPRO_NATIVE_DISABLE``, missing compilers) to the dict
engine, the one-line fallback note, the platform -- never a setting --
picking the engine, the ``repro doctor`` report (and its exit code when
the state probe fails), the kernel-computed QoS threshold cache, and the
:class:`~repro.algorithms.native_state.VecMap` mapping views the
heuristics read.  Every test here passes with *or*
without a C compiler -- the no-compiler CI job runs this file too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.algorithms import _native, common
from repro.algorithms.common import RequestState, make_state
from repro.algorithms.native_state import (
    NativeRequestState,
    VecMap,
    native_kernels_available,
)
from repro.cli import main
from repro.core.constraints import ConstraintSet
from repro.core.problem import ReplicaPlacementProblem
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import kernels_disabled


# --------------------------------------------------------------------------- #
# loader and fallback
# --------------------------------------------------------------------------- #
def test_kernel_status_shape():
    status = _native.kernel_status()
    assert set(status) >= {"available", "source", "cache_dir", "so_path", "error"}
    assert status["source"].endswith("kernels.c")
    if status["available"]:
        assert status["so_path"] and status["error"] is None
    else:
        assert status["error"]


def test_disable_env_forces_dict_fallback(fresh_loader, monkeypatch, capsys, small_problem):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    assert not native_kernels_available()
    state = make_state(small_problem)
    assert type(state) is RequestState
    # Exactly one stderr note, however many states the process builds.
    make_state(small_problem)
    err = capsys.readouterr().err
    assert err.count("native kernels unavailable") == 1
    assert "falling back to the dict engine" in err


def test_disabled_native_engine_still_solves(fresh_loader):
    from repro.algorithms.base import get_heuristic

    tree = TreeGenerator(5).generate(
        GeneratorConfig(size=30, target_load=0.4, homogeneous=True)
    )
    problem = ReplicaPlacementProblem(tree=tree, constraints=ConstraintSet.none())
    native_solution = get_heuristic("MBU").try_solve(problem)
    with kernels_disabled():
        dict_solution = get_heuristic("MBU").try_solve(problem)
    assert (native_solution is None) == (dict_solution is None)
    if native_solution is not None:
        assert native_solution.placement.replicas == dict_solution.placement.replicas


def test_loader_memo_resets(fresh_loader, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    assert _native.load_kernels() is None
    assert _native.kernel_status()["error"] == "disabled by REPRO_NATIVE_DISABLE"
    monkeypatch.delenv("REPRO_NATIVE_DISABLE")
    # The memo survives env changes until explicitly reset...
    assert _native.load_kernels() is None
    _native._reset_for_tests()
    # ...after which availability reflects the environment again.
    assert native_kernels_available() == (_native._compiler() is not None)


def test_native_engine_name_always_valid(small_problem):
    # Whatever the toolchain, make_state must return a working state
    # (NativeRequestState subclasses RequestState, so this covers both).
    state = make_state(small_problem)
    assert isinstance(state, RequestState)
    state.place("root")
    assert state.cover("root") == pytest.approx(12.0)


# --------------------------------------------------------------------------- #
# the platform picks the engine, in fresh interpreters
# --------------------------------------------------------------------------- #
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that does not inherit
    ``REPRO_NATIVE_DISABLE``, with ``env`` set on top."""
    clean = {
        key: value for key, value in os.environ.items() if key != "REPRO_NATIVE_DISABLE"
    }
    clean.update(env, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=clean,
        capture_output=True,
        text=True,
        timeout=300,
    )


#: Prints whether the kernels loaded and the types of two states.
_STATE_TYPES = """
from repro.algorithms.common import make_state
from repro.algorithms.native_state import native_kernels_available
from repro.core.builder import TreeBuilder
from repro.core.problem import ReplicaPlacementProblem

tree = TreeBuilder().add_node("root", capacity=4).add_client("c", requests=3, parent="root").build()
problem = ReplicaPlacementProblem(tree=tree)
states = [type(make_state(problem)).__name__ for _ in range(2)]
print(native_kernels_available(), *states)
"""


def _state_types(**env: str):
    proc = _fresh_python(_STATE_TYPES, **env)
    assert proc.returncode == 0, proc.stderr
    available, *states = proc.stdout.split()
    return available == "True", states, proc.stderr


def test_fresh_interpreter_defaults_to_native():
    available, states, _ = _state_types()
    assert available or not native_kernels_available()  # as this process has
    assert states == ["NativeRequestState" if available else "RequestState"] * 2


def test_the_environment_cannot_pick_the_engine():
    """``REPRO_ENGINE`` names nothing any more: only whether the kernels load
    decides, and ``REPRO_NATIVE_DISABLE=1`` forces the fallback."""
    available, states, _ = _state_types(REPRO_ENGINE="dict")
    assert available or not native_kernels_available()
    assert states == ["NativeRequestState" if available else "RequestState"] * 2

    available, states, err = _state_types(REPRO_ENGINE="native", REPRO_NATIVE_DISABLE="1")
    assert not available
    assert states == ["RequestState"] * 2
    assert err.count("native kernels unavailable") == 1


_SOLVE_TWICE = """
import json, sys
from repro.algorithms.common import make_state
from repro.api import solve
from repro.core.problem import ReplicaPlacementProblem
from repro.core.serialization import load_tree

problem = ReplicaPlacementProblem(tree=load_tree(sys.argv[1]))
costs = [solve(problem).cost(problem) for _ in range(2)]
print(json.dumps({"costs": costs, "state": type(make_state(problem)).__name__}))
"""


def test_disabled_default_engine_falls_back_with_one_note(tmp_path):
    from repro.api import solve
    from repro.core.serialization import save_tree

    # Heterogeneous, so the solve runs the heuristic portfolio on a state.
    tree = TreeGenerator(7).generate(
        GeneratorConfig(size=60, target_load=0.4, homogeneous=False)
    )
    save_tree(tree, tmp_path / "tree.json")
    problem = ReplicaPlacementProblem(tree=tree)
    expected = solve(problem).cost(problem)

    proc = _fresh_python(_SOLVE_TWICE, str(tmp_path / "tree.json"), REPRO_NATIVE_DISABLE="1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["state"] == "RequestState"
    assert report["costs"] == [expected, expected]
    assert proc.stderr.count("native kernels unavailable") == 1
    assert "falling back to the dict engine" in proc.stderr


# --------------------------------------------------------------------------- #
# repro doctor
# --------------------------------------------------------------------------- #
def _platform_state() -> str:
    return "NativeRequestState" if native_kernels_available() else "RequestState"


def test_doctor_reports_engines_and_kernels(capsys):
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert f"request state: {_platform_state()}\n" in out
    assert "native kernels:" in out


def test_doctor_json_payload(capsys):
    assert main(["doctor", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "doctor"
    assert report["state"] == _platform_state()
    assert not {"default_engine", "env_engine", "engines"} & set(report)
    assert report["native_kernels"]["available"] == native_kernels_available()


def test_doctor_reports_fallback_when_disabled(fresh_loader, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    assert main(["doctor", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["state"] == "RequestState"
    assert not report["native_kernels"]["available"]
    assert "REPRO_NATIVE_DISABLE" in report["native_kernels"]["error"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_doctor_fails_when_the_state_probe_fails(json_flag, monkeypatch, capsys):
    def broken(problem):
        raise RuntimeError("probe broke")

    monkeypatch.setattr(common, "make_state", broken)
    assert main(["doctor", *json_flag]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines()[-1] == "error: RuntimeError: probe broke"
    if json_flag:
        assert json.loads(captured.out)["state"] is None
    else:
        assert "request state: FAILED\n" in captured.out


def test_doctor_reports_lp_backend(monkeypatch, capsys):
    import importlib.metadata
    import importlib.util

    version = importlib.metadata.version("scipy")
    assert main(["doctor", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lp_backend"] == {"available": True, "version": version}
    assert main(["doctor"]) == 0
    assert f"lp backend: scipy {version} (loaded on first LP bound)" in (
        capsys.readouterr().out
    )

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util,
        "find_spec",
        lambda name, *args: None if name == "scipy" else find_spec(name, *args),
    )
    assert main(["doctor", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lp_backend"] == {"available": False, "version": None}
    assert report["ipfp"]["available"]


# --------------------------------------------------------------------------- #
# kernel-backed internals (need a compiled kernel library)
# --------------------------------------------------------------------------- #
needs_kernels = pytest.mark.skipif(
    not native_kernels_available(), reason="native kernels unavailable"
)


@needs_kernels
def test_threshold_array_matches_python_thresholds():
    for qos, constraints in (
        ((2, 5), ConstraintSet.qos_distance()),
        ((2, 5), ConstraintSet.qos_latency()),
    ):
        tree = TreeGenerator(11).generate(
            GeneratorConfig(size=40, target_load=0.4, homogeneous=False, qos_hops=qos)
        )
        problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
        state = make_state(problem)
        assert isinstance(state, NativeRequestState)
        # The kernel-computed array must equal the thresholds a fresh index
        # computes in pure Python (the state's own index caches the kernel
        # result, so comparing against it would be circular)...
        from repro.core.index import TreeIndex

        expected = TreeIndex.for_tree(tree).qos_depth_thresholds(problem)
        index = state._index
        cached = index.qos_threshold_cache[("native", constraints.qos_mode)]
        assert list(cached) == list(expected)
        # ...and the list mirror occupies the plain-mode slot.
        assert index.qos_threshold_cache[constraints.qos_mode] == list(expected)


@needs_kernels
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["distance", "latency"])
def test_kernel_thresholds_match_the_ancestor_walk(seed, mode):
    """The threshold kernels climb parent positions; each client's threshold
    is the depth of the last ancestor of the longest bottom-up prefix of
    ``tree.ancestors`` that ``qos_satisfied`` accepts pair by pair."""
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(
            size=120,
            target_load=0.4,
            homogeneous=False,
            max_children=1 + seed % 3,
            client_attachment=("uniform", "leaves")[seed % 2],
            qos_hops=(2, 9),
            link_comm_time=0.7 + 0.2 * seed,
        )
    )
    constraints = getattr(ConstraintSet, f"qos_{mode}")()
    problem = ReplicaPlacementProblem(tree=tree, constraints=constraints)
    state = make_state(problem)
    assert isinstance(state, NativeRequestState)
    for ci, client_id in enumerate(state._index.client_order):
        expected = tree.depth(client_id)
        for ancestor in tree.ancestors(client_id):
            if not problem.qos_satisfied(client_id, ancestor):
                break
            expected = tree.depth(ancestor)
        assert state._qos_thresholds[ci] == expected, client_id


@needs_kernels
def test_native_multiple_solve_builds_no_ancestor_chains():
    """Without QoS, a native Multiple solve reads no ancestor chain: the
    kernels climb parent positions, so neither the tree's ancestor memo nor
    any per-client chain array (as long as the sum of client depths) is
    built."""
    from repro.api import solve
    from repro.core.index import TreeIndex

    tree = TreeGenerator(3).generate(
        GeneratorConfig(size=400, target_load=0.5, homogeneous=False, max_children=1)
    )
    problem = ReplicaPlacementProblem(tree=tree)
    solution = solve(problem, policy="multiple")
    assert solution is not None and solution.cost(problem) > 0
    assert tree._store.memo.ancestors is None
    index = TreeIndex.for_tree(tree)
    assert sum(index.client_depth) > 10 * len(tree)  # a chain copy would show
    assert not {"client_ancestors", "client_ancestor_positions"} & set(index._np_cache)
    arrays = index._np_cache["native_arrays"]
    lengths = {
        name: len(getattr(arrays, name))
        for name in type(arrays).__slots__
        if getattr(arrays, name) is not None
    }
    assert set(lengths.values()) <= {index.n_nodes, index.n_clients}, lengths


@needs_kernels
def test_native_state_type_and_solution_round_trip(small_problem):
    from repro.core.policies import Policy

    state = make_state(small_problem)
    assert isinstance(state, NativeRequestState)
    state.place("root")
    assert state.cover("root") == pytest.approx(12.0)
    solution = state.to_solution(Policy.MULTIPLE, "manual")
    assert solution.placement.replicas == frozenset({"root"})
    assert solution.assignment.total_assigned() == pytest.approx(12.0)


# --------------------------------------------------------------------------- #
# VecMap
# --------------------------------------------------------------------------- #
def test_vecmap_mapping_protocol():
    order = ("a", "b", "c")
    pos = {"a": 0, "b": 1, "c": 2}
    vec = array("d", [1.0, 2.0, 3.0])
    view = VecMap(vec, pos, order)

    assert view["b"] == 2.0
    assert "c" in view and "z" not in view
    assert list(view) == list(order)
    assert len(view) == 3
    assert view.get("a") == 1.0
    assert view.get("z", -1.0) == -1.0
    assert view.keys() == order
    assert view.values() == [1.0, 2.0, 3.0]
    assert dict(view.items()) == {"a": 1.0, "b": 2.0, "c": 3.0}
    assert view.copy() == {"a": 1.0, "b": 2.0, "c": 3.0}
    assert view == {"a": 1.0, "b": 2.0, "c": 3.0}

    # Writes go straight through to the positional array the kernels see.
    view["b"] = 9.5
    assert vec[1] == 9.5
    with pytest.raises(KeyError):
        view["missing"]
    with pytest.raises(KeyError):
        view["missing"] = 1.0


def test_vecmap_views_track_kernel_state(small_problem):
    state = make_state(small_problem)
    before = dict(state.residual.copy())
    state.place("root")
    state.cover("root")
    after = {nid: state.residual[nid] for nid in state.tree.node_ids}
    assert before != after
    assert state.remaining.copy() == {cid: 0.0 for cid in state.tree.client_ids}
