"""The CLI's shared options (declared once, as argparse parent parsers).

argparse formats help text only when asked for it, so a broken help string
surfaces only under ``--help``; every sub-command renders its own here.
``--engine`` must select each available engine without moving a cost, and
``dynamic`` must warn about the flags a run drops instead of dropping them
silently.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.common import available_engines
from repro.cli import build_parser, main
from repro.core.serialization import save_tree
from repro.workloads.generator import generate_tree

SRC = Path(__file__).resolve().parent.parent / "src"


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield prefix + (name,)
                yield from _subcommands(child, prefix + (name,))


SUBCOMMANDS = list(_subcommands(build_parser()))


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory):
    # Heterogeneous: the homogeneous solve path never builds a request state,
    # so only a heterogeneous tree puts --engine to work.
    path = tmp_path_factory.mktemp("cli-options") / "tree.json"
    save_tree(generate_tree(size=40, target_load=0.4, homogeneous=False, seed=23), path)
    return str(path)


@pytest.fixture(scope="module")
def trace_file(tree_file, tmp_path_factory):
    from repro.core.serialization import load_tree
    from repro.workloads.dynamic import as_base_problem
    from repro.workloads.traces import sample_trace

    base = as_base_problem(load_tree(tree_file))
    trace = sample_trace([base, base], np.random.default_rng(3), epoch_duration=8.0)
    path = tmp_path_factory.mktemp("cli-options-trace") / "t.jsonl"
    trace.to_jsonl(path)
    return str(path)


def run_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out), captured.err


def test_subcommand_walk_reaches_nested_ones():
    assert ("trace", "info") in SUBCOMMANDS and ("table1",) in SUBCOMMANDS


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_every_subcommand_renders_its_help(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize(
    "command, flags, costs",
    [
        ("solve", (), lambda payload: payload["cost"]),
        ("batch", (), lambda payload: [r["cost"] for r in payload["results"]]),
        ("dynamic", ("--epochs", "3", "--seed", "3"), lambda payload: payload["costs"]),
    ],
    ids=["solve", "batch", "dynamic"],
)
def test_engine_flag_keeps_the_default_engines_costs(
    engine, command, flags, costs, tree_file, capsys
):
    argv = [command, tree_file, *flags, "--json"]
    default, _ = run_json(argv, capsys)
    chosen, _ = run_json([*argv, "--engine", engine], capsys)
    assert costs(chosen) == costs(default)


@pytest.mark.parametrize("engine", available_engines())
def test_serve_engine_flag_answers_with_the_default_cost(engine, tree_file, capsys):
    from repro.core.problem import ReplicaPlacementProblem
    from repro.core.serialization import load_tree, problem_to_dict

    default, _ = run_json(["solve", tree_file, "--json"], capsys)
    problem = problem_to_dict(ReplicaPlacementProblem(tree=load_tree(tree_file)))
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env.get('PYTHONPATH', '')}".rstrip(
        os.pathsep
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio", "--engine", engine],
        input=json.dumps({"op": "solve", "problem": problem}) + "\n",
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    reply = json.loads(result.stdout)
    assert reply["type"] == "solve_result"
    assert reply["cost"] == default["cost"]


@pytest.mark.parametrize("command", ["solve", "batch", "dynamic", "serve"])
def test_unknown_engine_is_a_usage_error(command, tree_file, capsys):
    argv = [command] + ([] if command == "serve" else [tree_file])
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--engine", "bogus"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_batch_json_names_the_policy_by_its_value(tree_file, capsys):
    payload, _ = run_json(["batch", tree_file, "--policy", "MULTIPLE", "--json"], capsys)
    assert payload["policy"] == "multiple"
    assert {r["solution"]["policy"] for r in payload["results"]} == {"multiple"}


def test_campaign_honours_bound_method(capsys):
    payload, err = run_json(
        [
            "dynamic", "--campaign", "--bounds", "--bound-method", "ipfp",
            "--epochs", "2", "--trees-per-level", "1", "--seed", "5", "--json",
        ],
        capsys,
    )
    assert payload["config"]["bound_method"] == "ipfp"
    assert payload["config"]["track_bounds"] is True
    assert "warning" not in err


@pytest.mark.parametrize("source", ["synthetic", "trace"])
def test_campaign_only_flags_warn_on_a_single_trajectory(
    source, tree_file, trace_file, capsys
):
    argv = ["dynamic", tree_file, "--epochs", "2", "--json"]
    if source == "trace":
        argv += ["--trace", trace_file]
    _, quiet = run_json(argv, capsys)
    assert "warning" not in quiet
    _, err = run_json([*argv, "--heterogeneous", "--trees-per-level", "5"], capsys)
    assert (
        "warning: only --campaign generates its trees; "
        "ignoring --heterogeneous, --trees-per-level"
    ) in err


@pytest.mark.parametrize("command", ["solve", "compare", "dynamic"])
def test_bound_method_without_bounds_warns(command, tree_file, capsys):
    argv = [command, tree_file] + (["--epochs", "2"] if command == "dynamic" else [])
    assert main([*argv, "--bound-method", "ipfp"]) == 0
    assert "warning: ignoring --bound-method (no --bounds)" in capsys.readouterr().err
    assert main([*argv, "--bounds", "--bound-method", "ipfp", "--json"]) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    json.loads(captured.out)


def test_prose_names_the_bound_method(tree_file, capsys):
    assert main(["compare", tree_file, "--bounds", "--bound-method", "ipfp"]) == 0
    out = capsys.readouterr().out
    assert "vs ipfp bound" in out and "LP bound" not in out
    assert main(["compare", tree_file, "--bounds"]) == 0
    assert "vs LP bound" in capsys.readouterr().out
    campaign = [
        "dynamic", "--campaign", "--bounds", "--epochs", "2",
        "--trees-per-level", "1", "--seed", "5",
    ]
    assert main([*campaign, "--bound-method", "ipfp"]) == 0
    out = capsys.readouterr().out
    assert "Cost relative to the per-epoch ipfp lower bound:" in out
    assert "LP" not in out
