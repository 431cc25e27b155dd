"""CLI machine-readability regressions, exercised through real subprocesses.

Piped consumers do ``repro ... --json | jq`` (or ``json.loads`` the whole
stream): the payload must be the **only** thing on stdout, with every
warning and progress line on stderr -- even when the invocation trips
flag-mismatch warnings.  The in-process CLI tests cannot catch an
accidental ``print()`` in a library module redirecting through the same
interpreter-level ``sys.stdout`` the test harness captures, so these tests
spawn real interpreters.

The ``repro serve --stdio`` smoke here mirrors the CI workflow step: boot
the server as a subprocess, pipe solve + bound + stats envelopes through
it, and decode every reply with :func:`repro.core.results.result_from_json`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_cli(*args, input_text=None, stdin=None):
    """Run ``python -m repro`` with the checkout on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env.get('PYTHONPATH', '')}".rstrip(
        os.pathsep
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=input_text,
        stdin=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tree.json"
    result = run_cli(
        "generate", str(path), "--size", "30", "--load", "0.4", "--seed", "17"
    )
    assert result.returncode == 0, result.stderr
    return path


def assert_pure_json(stdout: str):
    """The whole stdout stream must parse as one JSON document."""
    assert stdout.strip(), "expected a JSON payload on stdout"
    return json.loads(stdout)


def test_solve_json_stdout_is_pure(tree_file):
    result = run_cli("solve", str(tree_file), "--json")
    assert result.returncode == 0, result.stderr
    payload = assert_pure_json(result.stdout)
    assert payload["type"] == "solve_result"


def test_compare_json_stdout_is_pure(tree_file):
    result = run_cli("compare", str(tree_file), "--bounds", "--json")
    assert result.returncode == 0, result.stderr
    payload = assert_pure_json(result.stdout)
    assert payload["type"] == "compare_result"


def test_batch_json_stdout_is_pure(tree_file):
    result = run_cli("batch", str(tree_file), str(tree_file), "--json")
    assert result.returncode == 0, result.stderr
    payload = assert_pure_json(result.stdout)
    assert payload["type"] == "batch" and payload["total"] == 2


def test_dynamic_json_with_warnings_keeps_stdout_pure(tree_file):
    """Flag-mismatch warnings must land on stderr, not inside the payload."""
    result = run_cli(
        "dynamic",
        str(tree_file),
        "--json",
        "--trajectory",
        "ramp",
        "--epochs",
        "4",
        # --churn is ignored by the ramp trajectory: triggers the warning
        "--churn",
        "0.4",
        "--workers",
        "2",
    )
    assert result.returncode == 0, result.stderr
    payload = assert_pure_json(result.stdout)
    assert payload["type"] == "sequence_result"
    assert "warning" in result.stderr


def test_dynamic_resolve_on_saturation_flag(tree_file):
    result = run_cli(
        "dynamic",
        str(tree_file),
        "--json",
        "--resolve",
        "on-saturation",
        "--epochs",
        "5",
        "--seed",
        "3",
    )
    assert result.returncode == 0, result.stderr
    payload = assert_pure_json(result.stdout)
    strategies = payload["strategies"]
    assert sum(strategies.values()) == 5


def test_serve_stdio_round_trip(tree_file):
    """The CI smoke: solve + bound + stats envelopes through a subprocess."""
    from repro.core.problem import ReplicaPlacementProblem
    from repro.core.results import result_from_json
    from repro.core.serialization import load_tree, problem_to_dict

    problem_payload = problem_to_dict(
        ReplicaPlacementProblem(tree=load_tree(tree_file))
    )
    envelopes = [
        {"op": "solve", "problem": problem_payload},
        {"op": "bound", "problem": problem_payload},
        {"op": "stats"},
        {"op": "nonsense"},
    ]
    result = run_cli(
        "serve",
        "--stdio",
        input_text="".join(json.dumps(env) + "\n" for env in envelopes),
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert len(lines) == len(envelopes)
    solve = result_from_json(lines[0])
    bound = result_from_json(lines[1])
    stats = result_from_json(lines[2])
    assert solve.feasible and solve.cost is not None
    assert bound.feasible and bound.value <= solve.cost
    assert stats.solves == 1 and stats.bounds == 1
    error = json.loads(lines[3])
    assert error["type"] == "error" and error["error"]["code"] == "bad_request"


def test_serve_file_stdin_replies_like_a_pipe(tree_file, tmp_path):
    """``repro serve < requests.jsonl`` answers every line, the last one
    without its newline included, exactly as the piped run does."""
    from repro.core.problem import ReplicaPlacementProblem
    from repro.core.serialization import load_tree, problem_to_dict

    def canonical(value):
        """Drop the wall-clock fields that differ between two runs."""
        if isinstance(value, dict):
            return {
                key: canonical(item)
                for key, item in value.items()
                if key != "runtime" and not key.startswith("seconds_")
            }
        return value

    payload = problem_to_dict(ReplicaPlacementProblem(tree=load_tree(tree_file)))
    text = "\n".join(
        json.dumps(envelope)
        for envelope in (
            {"op": "solve", "problem": payload},
            {"op": "bound", "problem": payload, "params": {"method": "ipfp"}},
            {"op": "stats"},
        )
    )
    requests = tmp_path / "requests.jsonl"
    requests.write_text(text)
    piped = run_cli("serve", input_text=text)
    with open(requests) as stdin:
        filed = run_cli("serve", stdin=stdin)
    assert piped.returncode == 0 and filed.returncode == 0, filed.stderr
    replies = [
        [canonical(json.loads(line)) for line in result.stdout.splitlines()]
        for result in (piped, filed)
    ]
    assert len(replies[0]) == 3
    assert replies[0] == replies[1]


def test_serve_devnull_stdin_exits_cleanly():
    result = run_cli("serve", stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--http", "8485"), "argument --http: expected HOST:PORT, got '8485'"),
        (("--tcp", "localhost:http"), "argument --tcp: expected HOST:PORT"),
        (("--stdio", "--tcp", "127.0.0.1:0"), "not allowed with argument --stdio"),
    ],
    ids=["http_address", "tcp_address", "two_transports"],
)
def test_serve_usage_errors(argv, message):
    result = run_cli("serve", *argv, stdin=subprocess.DEVNULL)
    assert result.returncode == 2
    assert message in result.stderr
    assert result.stdout == ""


def test_serve_snapshot_dir_restores_across_processes(tree_file, tmp_path):
    """Warm restart: a second server process answers from restored caches."""
    from repro.core.problem import ReplicaPlacementProblem
    from repro.core.results import result_from_json
    from repro.core.serialization import load_tree, problem_to_dict

    problem_payload = problem_to_dict(
        ReplicaPlacementProblem(tree=load_tree(tree_file))
    )
    snapshot_dir = tmp_path / "snapshots"
    first = run_cli(
        "serve",
        "--stdio",
        "--snapshot-dir",
        str(snapshot_dir),
        input_text=json.dumps({"op": "solve", "problem": problem_payload}) + "\n",
    )
    assert first.returncode == 0, first.stderr
    first_solve = result_from_json(first.stdout.strip().splitlines()[0])

    second = run_cli(
        "serve",
        "--stdio",
        "--snapshot-dir",
        str(snapshot_dir),
        input_text="".join(
            json.dumps(env) + "\n"
            for env in (
                {"op": "solve", "problem": problem_payload},
                {"op": "stats"},
            )
        ),
    )
    assert second.returncode == 0, second.stderr
    lines = second.stdout.strip().splitlines()
    warm_solve = result_from_json(lines[0])
    stats = result_from_json(lines[1])
    assert "restored 1 warm session" in second.stderr
    assert stats.restored == 1
    # answered from the restored cache: the solver-run counter still shows
    # only the *persisted* first-process solve, and the warm query counted
    # as a cache hit with a bit-identical payload (runtime included).
    assert stats.solves == 1 and stats.solve_cache_hits == 1
    assert warm_solve.to_dict() == first_solve.to_dict()


@pytest.fixture(scope="module")
def mip_tree_file(tmp_path_factory):
    """A heterogeneous tree whose mixed-bound MIP makes HiGHS print a
    diagnostic line to file descriptor 1 (seen with scipy 1.17.1)."""
    path = tmp_path_factory.mktemp("cli-mip") / "tree.json"
    result = run_cli(
        "generate", str(path), "--size", "20", "--load", "0.3",
        "--heterogeneous", "--seed", "4",
    )
    assert result.returncode == 0, result.stderr
    return path


@pytest.mark.parametrize(
    "argv, payload_type",
    [
        (("solve", "--bounds", "--json"), "solve_result"),
        (("compare", "--bounds", "--json"), "compare_result"),
        (("dynamic", "--epochs", "2", "--bounds", "--json"), "sequence_result"),
    ],
    ids=["solve", "compare", "dynamic"],
)
def test_mip_bound_keeps_json_stdout_pure(mip_tree_file, argv, payload_type):
    """Solver output of the mixed MIP goes to stderr, not before the payload."""
    command, *flags = argv
    result = run_cli(command, str(mip_tree_file), *flags)
    assert result.returncode == 0, result.stderr
    assert assert_pure_json(result.stdout)["type"] == payload_type


def test_serve_stdio_mixed_bound_then_solve_stays_in_step(mip_tree_file):
    """A mixed bound over ``serve --stdio`` yields exactly its reply line, so
    the next request's reply is the next line the client reads."""
    from repro.core.problem import ReplicaPlacementProblem
    from repro.core.serialization import load_tree
    from repro.serving.client import ServingClient, StdioTransport
    from repro.session import BoundResult, SolveResult

    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env.get('PYTHONPATH', '')}".rstrip(
        os.pathsep
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        client = ServingClient(StdioTransport.for_process(proc))
        session = client.open(ReplicaPlacementProblem(tree=load_tree(mip_tree_file)))
        bound = session.bound(method="mixed")
        solve = session.solve()
    finally:
        proc.stdin.close()
        stdout_rest = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    assert proc.returncode == 0, stderr
    assert isinstance(bound, BoundResult) and bound.method == "mixed"
    assert isinstance(solve, SolveResult) and solve.feasible
    assert bound.value <= solve.cost + 1e-9
    assert stdout_rest == ""
