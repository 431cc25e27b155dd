"""Command-line interface: ``python -m repro`` / ``repro-placement``.

Sub-commands
------------

``generate``
    Draw a random tree and write it to a JSON file.
``solve``
    Solve a tree (JSON file) under a chosen policy and print the placement.
``batch``
    Solve many tree JSON files in one go (optionally over worker
    processes) and print one result line per file.
``compare``
    Solve the same tree under all three policies and print a comparison.
``campaign``
    Run a (reduced) experimental campaign and print the success-rate and
    relative-cost tables of Figures 9-12; ``--workers N`` fans the
    instances out over a process pool.
``dynamic``
    Solve a dynamic-workload trajectory (rate churn, ramps, seasonal
    cycles, steps, client join/leave) over a tree with the incremental
    re-solver, printing per-epoch costs, strategies and migration stats;
    ``--simulate`` replays the solution sequence and reports transient
    saturation, ``--resolve on-saturation`` keeps placements frozen across
    epochs whose replay stays clean (SLA-aware re-solve), ``--campaign``
    sweeps churn intensity and prints the cost-vs-stability tables instead.
``serve``
    Run the multi-tenant serving endpoint (:mod:`repro.serving`): a
    fingerprint-keyed LRU pool of resident sessions behind the JSON
    request protocol, served from one single-threaded event loop over
    stdio (newline-delimited JSON on any stdin, the default), HTTP
    (``--http HOST:PORT``) or TCP lines (``--tcp HOST:PORT``);
    ``--snapshot-dir`` persists sessions across restarts and restores them
    warm on boot.
``doctor``
    Report which request state the platform builds
    (``NativeRequestState`` where the native C kernels compile, the dict
    ``RequestState`` otherwise), the kernels' compile status and cache, the
    IPFP bound, and whether the LP backend (scipy) is installed -- found
    without importing it.
``table1``
    Print the computational evidence backing paper Table 1.

Machine-readable output
-----------------------

``solve``, ``compare``, ``batch`` and ``dynamic`` accept ``--json``:
instead of prose they emit the ``to_dict()`` payloads of the unified
result protocol (:mod:`repro.core.results`).  The ``solve``, ``compare``
and ``dynamic`` payloads are registered result types, round-trippable
through :func:`repro.core.results.result_from_dict`; ``batch`` emits a
``{"type": "batch"}`` aggregate whose per-file ``solution`` entries decode
with :func:`repro.core.serialization.solution_from_dict`.  No option
picks the request-state engine; the platform decides: the one factory,
:func:`repro.algorithms.common.make_state`, builds on the compiled kernels
where they load and on the dict engine elsewhere, and
``REPRO_NATIVE_DISABLE=1`` forces that fallback.

An option that several sub-commands share (``--json``, ``--policy``,
``--bounds`` ...) is declared once, as a parent parser that
each of them lists in ``parents=``, and every sub-parser binds its handler
as ``run``.  Each sub-command imports the subsystems it runs when it runs,
so a process pays only for its own layers: ``serve`` never loads the batch
API, the client, the load generator, the trace ingester or the campaign
harness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.exceptions import InfeasibleError, ReproError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem

__all__ = ["main", "build_parser"]

#: Trajectory family of ``dynamic`` -> (its generator in
#: :mod:`repro.workloads.dynamic`, {generator keyword: the dest feeding it}).
_TRAJECTORIES = {
    "churn": (
        "rate_churn",
        {"churn": "churn", "magnitude": "magnitude",
         "quiet_probability": "quiet", "seed": "seed"},
    ),
    "ramp": ("ramp", {"end_factor": "factor"}),
    "seasonal": ("seasonal", {"amplitude": "amplitude", "period": "period"}),
    "step": ("step_change", {"at": "at", "factor": "factor"}),
    "join-leave": (
        "client_join_leave",
        {"join_rate": "join_rate", "leave_rate": "leave_rate", "seed": "seed"},
    ),
    "regional": (
        "regional_churn",
        {"depth": "region_depth", "magnitude": "magnitude",
         "quiet_probability": "quiet", "seed": "seed"},
    ),
}
#: The trajectory-family knobs, in warning order (an unseeded family
#: ignores ``--seed`` without a warning).
_TRAJECTORY_KNOBS = (
    "churn", "magnitude", "quiet", "factor", "at", "amplitude", "period",
    "join_rate", "leave_rate", "region_depth",
)
#: The single-trajectory dests that ``dynamic --campaign`` drops, in
#: warning order: it fixes its own churn sweep, cost mode and family.
_CAMPAIGN_IGNORES = (
    "simulate", "trajectory", "mode", "resolve", "churn", "counting", "factor",
    "at", "amplitude", "period", "join_rate", "leave_rate", "shards",
    "region_depth", "trace",
)


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser (for ``parents=``) declaring one shared option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _bounds_options(methods: Tuple[str, ...]) -> argparse.ArgumentParser:
    """The ``--bounds`` / ``--bound-method`` parent over ``methods``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--bounds",
        action="store_true",
        help="also compute the lower bound (--bound-method) and the "
        "cost-vs-bound gaps",
    )
    parent.add_argument(
        "--bound-method",
        choices=methods,
        default="mixed",
        help="lower-bound method used by --bounds (default: mixed)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser.

    argparse shares a parent's Action objects between the sub-parsers that
    list it, so no sub-parser may ``set_defaults`` a dest a parent declares:
    the new default would apply to every sub-command.
    """
    json_out = _option(
        "--json",
        action="store_true",
        help="emit the JSON payload (the result protocol's to_dict()) "
        "instead of prose",
    )
    policy = _option("--policy", default="multiple", help="closest | upwards | multiple")
    algorithm = _option("--algorithm", default=None, help="force a specific heuristic")
    counting = _option(
        "--counting",
        action="store_true",
        help="use the Replica Counting cost (homogeneous platforms)",
    )
    mode = _option(
        "--mode",
        choices=("incremental", "patch", "scratch"),
        default="incremental",
        help="re-solve strategy (default: incremental, cost-identical to scratch)",
    )
    shards = _option(
        "--shards",
        type=int,
        default=None,
        help="partition the tree into N subtree shards, solve each on its own "
        "index and reconcile at the cut (default: whole-tree)",
    )
    workers = _option(
        "--workers",
        type=int,
        default=None,
        help="evaluate independent instances over N worker processes "
        "(default: sequential; dynamic: --campaign only)",
    )
    heterogeneous = _option(
        "--heterogeneous",
        action="store_true",
        help="mix server classes (dynamic: --campaign only)",
    )
    bounds = _bounds_options(("mixed", "rational", "ipfp", "trivial"))
    epoch_bounds = _bounds_options(("mixed", "rational", "ipfp"))

    parser = argparse.ArgumentParser(
        prog="repro-placement",
        description="Replica placement strategies in tree networks "
        "(Closest / Upwards / Multiple).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        parents=[heterogeneous],
        help="generate a random tree and save it as JSON",
    )
    gen.add_argument("output", help="output JSON file")
    gen.add_argument("--size", type=int, default=50, help="problem size |C|+|N|")
    gen.add_argument("--load", type=float, default=0.5, help="target load factor lambda")
    gen.add_argument("--seed", type=int, default=None, help="random seed")
    gen.add_argument(
        "--metrics",
        action="store_true",
        help="annotate every link with multi-metric QoS attributes "
        "(latency/jitter/loss/bandwidth; see repro.qos.metrics)",
    )
    gen.add_argument(
        "--bandwidth",
        type=float,
        default=None,
        metavar="BW",
        help="give every link this finite bandwidth (default: unbounded)",
    )
    gen.set_defaults(run=_dispatch_generate)

    slv = sub.add_parser(
        "solve",
        parents=[policy, algorithm, counting, json_out, shards, bounds],
        help="solve a tree JSON file under one policy",
    )
    slv.add_argument("tree", help="tree JSON file (see the generate sub-command)")
    slv.set_defaults(run=lambda args: _dispatch_solve(args, slv))

    batch = sub.add_parser(
        "batch",
        parents=[policy, algorithm, counting, workers, json_out],
        help="solve many tree JSON files (optionally in parallel)",
    )
    batch.add_argument("trees", nargs="+", help="tree JSON files")
    batch.add_argument(
        "--on-error",
        choices=("none", "raise"),
        default="none",
        help="'none' prints 'no solution' for infeasible trees, 'raise' aborts",
    )
    batch.set_defaults(run=_dispatch_batch)

    cmp = sub.add_parser(
        "compare",
        parents=[counting, bounds, json_out],
        help="compare the three policies on a tree",
    )
    cmp.add_argument("tree", help="tree JSON file")
    cmp.set_defaults(run=lambda args: _dispatch_compare(args, cmp))

    camp = sub.add_parser(
        "campaign",
        parents=[heterogeneous, workers],
        help="run an experimental campaign (Figures 9-12)",
    )
    camp.add_argument("--trees-per-lambda", type=int, default=5)
    camp.add_argument("--min-size", type=int, default=15)
    camp.add_argument("--max-size", type=int, default=60)
    camp.add_argument("--seed", type=int, default=2007)
    camp.set_defaults(run=_dispatch_campaign)

    dyn = sub.add_parser(
        "dynamic",
        parents=[
            policy, mode, counting, epoch_bounds, heterogeneous, workers,
            json_out, shards,
        ],
        help="solve a dynamic-workload trajectory incrementally",
    )
    dyn.add_argument(
        "tree", nargs="?", default=None, help="tree JSON file (omit with --campaign)"
    )
    dyn.add_argument(
        "--trajectory",
        choices=tuple(_TRAJECTORIES),
        default="churn",
        help="request-rate trajectory family (default: churn)",
    )
    dyn.add_argument("--epochs", type=int, default=12, help="number of epochs")
    dyn.add_argument("--seed", type=int, default=None, help="trajectory random seed")
    dyn.add_argument("--churn", type=float, default=0.1, help="per-client churn probability")
    dyn.add_argument("--magnitude", type=float, default=0.5, help="churn drift magnitude")
    dyn.add_argument(
        "--quiet", type=float, default=0.25, help="probability an epoch has no change"
    )
    dyn.add_argument("--factor", type=float, default=1.5, help="step/ramp end factor")
    dyn.add_argument("--at", type=int, default=1, help="epoch of the step change")
    dyn.add_argument("--amplitude", type=float, default=0.3, help="seasonal amplitude")
    dyn.add_argument("--period", type=float, default=8.0, help="seasonal period (epochs)")
    dyn.add_argument("--join-rate", type=float, default=0.05, help="client join rate")
    dyn.add_argument("--leave-rate", type=float, default=0.05, help="client leave rate")
    dyn.add_argument(
        "--region-depth",
        type=int,
        default=1,
        help="regional: tree depth of the surging subtree roots",
    )
    dyn.add_argument(
        "--simulate",
        action="store_true",
        help="replay the solved sequence and report transient saturation",
    )
    dyn.add_argument(
        "--resolve",
        choices=("always", "on-saturation"),
        default="always",
        help="epoch re-solve discipline: 'always' (default) or the "
        "SLA-aware 'on-saturation' (keep the placement frozen while the "
        "replayed epoch stays violation- and saturation-free)",
    )
    dyn.add_argument(
        "--campaign",
        action="store_true",
        help="sweep churn intensity on generated trees (ignores the tree argument)",
    )
    dyn.add_argument(
        "--trees-per-level", type=int, default=3, help="campaign: trees per churn level"
    )
    dyn.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay a request-log trace (CSV/JSONL, gzip-transparent) "
        "instead of a synthetic trajectory: epoch boundaries are detected "
        "from the log (at most --epochs of them) and per-client rates "
        "estimated per epoch",
    )
    dyn.set_defaults(run=lambda args: _dispatch_dynamic(args, dyn))

    trc = sub.add_parser(
        "trace",
        help="inspect request-log traces (ingest, epoch detection, rates)",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    tin = trc_sub.add_parser(
        "info",
        parents=[json_out],
        help="ingest a trace file, detect epochs and print the rate table",
    )
    tin.add_argument("file", help="trace file (CSV or JSONL, optionally .gz)")
    tin.add_argument(
        "--format",
        choices=("csv", "jsonl"),
        default=None,
        help="force the parser (default: inferred from the extension)",
    )
    tin.add_argument(
        "--sort",
        action="store_true",
        help="reorder a shuffled log instead of rejecting it",
    )
    tin.add_argument(
        "--epochs",
        type=int,
        default=None,
        metavar="N",
        help="use N equal-width epochs instead of detecting boundaries",
    )
    tin.add_argument(
        "--max-epochs",
        type=int,
        default=16,
        help="cap on detected epochs (default: 16)",
    )
    tin.add_argument(
        "--bins",
        type=int,
        default=None,
        help="detection histogram bins (default: events//32, clamped to "
        "[8, 256])",
    )
    tin.add_argument(
        "--threshold",
        type=float,
        default=4.0,
        help="mean-shift z-score a boundary must reach (default: 4.0)",
    )
    tin.set_defaults(run=_dispatch_trace)

    srv = sub.add_parser(
        "serve",
        parents=[mode],
        help="serve placement queries over resident sessions "
        "(stdio, HTTP or TCP)",
    )
    transport = srv.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio",
        action="store_true",
        help="speak newline-delimited JSON on stdin/stdout (the default "
        "transport; stdin may be a pipe, terminal or file; replies are the "
        "only stdout output)",
    )
    transport.add_argument(
        "--http",
        metavar="HOST:PORT",
        type=_host_port,
        help="serve HTTP instead: POST request envelopes to /, "
        "GET /stats and /metrics (one request per connection)",
    )
    transport.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        type=_host_port,
        help="serve newline-delimited JSON over persistent TCP connections",
    )
    srv.add_argument(
        "--pool-capacity",
        type=int,
        default=8,
        help="maximum resident sessions before LRU eviction (default: 8)",
    )
    srv.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="optional byte budget over the resident sessions' estimated "
        "memory (LRU eviction until it fits)",
    )
    srv.add_argument(
        "--snapshot-dir",
        default=None,
        help="persist resident sessions here (and restore them warm on boot)",
    )
    srv.add_argument(
        "--snapshot-retain",
        type=int,
        default=None,
        metavar="RESTARTS",
        help="age out snapshot files of tenants not seen for this many "
        "server restarts (default: keep forever)",
    )
    srv.set_defaults(run=_dispatch_serve)

    load = sub.add_parser(
        "loadtest",
        parents=[json_out],
        help="drive a serving endpoint with open-loop inhomogeneous-Poisson "
        "load and report req/s plus latency percentiles",
    )
    load.add_argument(
        "--target",
        default=None,
        help="endpoint URL (http://HOST:PORT or tcp://HOST:PORT); default "
        "is an in-process server (measures the engine, not a network)",
    )
    load.add_argument(
        "--tenants", type=int, default=4, help="synthetic tenants (default: 4)"
    )
    load.add_argument(
        "--size", type=int, default=30, help="tree size per tenant (default: 30)"
    )
    load.add_argument(
        "--horizon",
        type=float,
        default=2.0,
        help="scheduled span of the arrival process in seconds (default: 2)",
    )
    load.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="mean offered rate in requests/second (default: 50)",
    )
    load.add_argument(
        "--burst",
        type=float,
        default=0.5,
        help="relative amplitude of the sinusoidal intensity in [0, 1] "
        "(default: 0.5)",
    )
    load.add_argument(
        "--batch",
        type=int,
        default=1,
        help="max due arrivals coalesced into one batch envelope "
        "(default: 1 = unbatched)",
    )
    load.add_argument(
        "--ops",
        default="solve,bound",
        help="comma-separated op cycle per tenant from solve/bound/update "
        "(default: solve,bound)",
    )
    load.add_argument(
        "--op-mix",
        default=None,
        metavar="OP=W,...",
        help="weighted op mix sampled per arrival instead of the --ops "
        "cycle, e.g. 'solve=3,bound=1' (per-tenant jittered weights)",
    )
    load.add_argument("--seed", type=int, default=0, help="schedule seed")
    load.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="sample the arrival schedule from a request-log trace instead "
        "of the sinusoidal intensity: epochs are detected from the log and "
        "its piecewise-constant intensity is rescaled to --horizon seconds "
        "at --rate mean requests/second",
    )
    load.set_defaults(run=lambda args: _dispatch_loadtest(args, load))

    bench = sub.add_parser(
        "bench",
        help="run the bench-marked perf suites (each run appends an entry to "
        "BENCH_engine.json)",
    )
    bench.add_argument(
        "-k",
        dest="keyword",
        default=None,
        help="pytest -k expression selecting a subset of the bench suites",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        help="list the available bench suites without running them",
    )
    bench.add_argument(
        "--collect-only",
        action="store_true",
        help="collect the selected bench tests without running them",
    )
    bench.set_defaults(run=_dispatch_bench)

    doc = sub.add_parser(
        "doctor",
        parents=[json_out],
        help="report the request state the platform builds, native-kernel "
        "compile status and the LP backend",
    )
    doc.set_defaults(run=_dispatch_doctor)

    sub.add_parser(
        "table1", help="print the computational evidence for paper Table 1"
    ).set_defaults(run=_dispatch_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _warn_ignored(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    dests: Iterable[str],
    message: str,
    *,
    extra: Sequence[str] = (),
) -> None:
    """Warn about the flags among ``dests`` whose value differs from
    ``parser``'s default, in ``dests`` order after ``extra``.

    ``message`` gets their comma-separated list in its ``{}``; a run that
    silently drops a flag reads as if the flag had been honoured.
    """
    ignored = list(extra) + [
        "--" + dest.replace("_", "-")
        for dest in dests
        if getattr(args, dest) != parser.get_default(dest)
    ]
    if ignored:
        print("warning: " + message.format(", ".join(ignored)), file=sys.stderr)


def _warn_unbounded(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """``--bound-method`` computes no bound without ``--bounds``."""
    if not args.bounds:
        _warn_ignored(args, parser, ("bound_method",), "ignoring {} (no --bounds)")


def _bound_name(method: str) -> str:
    """How prose names a bound: the mixed and rational programs give the
    LP bound, the other methods go by their name."""
    return "LP" if method in ("mixed", "rational") else method


def _dispatch_generate(args: argparse.Namespace) -> int:
    from repro.core.serialization import save_tree
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    tree = TreeGenerator(args.seed).generate(
        GeneratorConfig(
            size=args.size,
            target_load=args.load,
            homogeneous=not args.heterogeneous,
            link_bandwidth=args.bandwidth,
            link_metrics=args.metrics,
        )
    )
    save_tree(tree, args.output)
    print(f"wrote {tree!r} to {args.output}")
    return 0


def _dispatch_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.session import PlacementSession

    _warn_unbounded(args, parser)
    problem = _load_problem(args.tree, counting=args.counting)
    session = PlacementSession(
        problem,
        policy=args.policy,
        algorithm=args.algorithm,
        shards=args.shards,
    )
    try:
        result = session.solve()
    except InfeasibleError as error:
        if args.json:
            # The failed SolveResult is cached; re-query without raising.
            print(session.solve(on_error="none").to_json(indent=2))
        else:
            print(f"no solution: {error}")
        return 2
    bound = session.bound(method=args.bound_method) if args.bounds else None
    if args.json:
        payload = result.to_dict()
        if bound is not None:
            # An extra key on the solve payload: from_dict round-trips
            # ignore it, so the result protocol is unaffected.
            payload["bound"] = bound.result.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    solution = result.solution
    print(solution.summary(problem))
    for node_id in solution.placement.sorted():
        load = solution.assignment.server_load(node_id)
        print(f"  replica on {node_id}: load {load:g} / {problem.capacity(node_id):g}")
    if bound is not None:
        value = bound.result.value
        if bound.result.feasible and value > 0:
            gap = solution.cost(problem) / value - 1.0
            print(
                f"lower bound ({args.bound_method}): {value:g} "
                f"| gap {gap:.3f}"
            )
        else:
            print(
                f"lower bound ({args.bound_method}): "
                + ("infeasible" if not bound.result.feasible else f"{value:g}")
            )
    return 0


def _dispatch_batch(args: argparse.Namespace) -> int:
    from repro.api import solve_many

    problems = [_load_problem(path, counting=args.counting) for path in args.trees]
    solutions = solve_many(
        problems,
        policy=args.policy,
        algorithm=args.algorithm,
        workers=args.workers,
        on_error=args.on_error,
    )
    failed = sum(solution is None for solution in solutions)
    if args.json:
        from repro.core.serialization import solution_to_dict

        entries = []
        for path, problem, solution in zip(args.trees, problems, solutions):
            entry = {"path": path, "feasible": solution is not None}
            if solution is not None:
                entry["cost"] = solution.cost(problem)
                entry["replicas"] = solution.replica_count()
                entry["algorithm"] = solution.algorithm
                entry["solution"] = solution_to_dict(solution)
            entries.append(entry)
        payload = {
            "type": "batch",
            "policy": Policy.parse(args.policy).value,
            "solved": len(problems) - failed,
            "total": len(problems),
            "results": entries,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if failed < len(problems) else 2
    for path, problem, solution in zip(args.trees, problems, solutions):
        if solution is None:
            print(f"{path}: no solution")
        else:
            print(
                f"{path}: cost {solution.cost(problem):g} with "
                f"{solution.replica_count()} replicas ({solution.algorithm})"
            )
    print(f"solved {len(problems) - failed}/{len(problems)} instances")
    return 0 if failed < len(problems) else 2


def _dispatch_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.api import compare_policies

    _warn_unbounded(args, parser)
    problem = _load_problem(args.tree, counting=args.counting)
    results = compare_policies(
        problem, bounds=args.bounds, bound_method=args.bound_method
    )
    if args.json:
        print(results.to_json(indent=2))
        return 0
    gaps = results.gaps()
    for policy in Policy.ordered():
        solution = results[policy]
        if solution is None:
            print(f"{policy.value:>9}: no solution")
        else:
            line = (
                f"{policy.value:>9}: cost {solution.cost(problem):g} "
                f"with {solution.replica_count()} replicas ({solution.algorithm})"
            )
            gap = gaps.get(policy)
            if gap is not None:
                line += f" | gap {gap:.3f} vs {_bound_name(args.bound_method)} bound"
            print(line)
    if args.bounds and results.bound is not None:
        value = results.bound.value
        print(
            f"{args.bound_method} lower bound (Multiple relaxation): "
            + ("infeasible" if not results.bound.feasible else f"{value:g}")
        )
    return 0


def _dispatch_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.harness import CampaignConfig, run_campaign

    config = CampaignConfig(
        homogeneous=not args.heterogeneous,
        trees_per_lambda=args.trees_per_lambda,
        size_range=(args.min_size, args.max_size),
        seed=args.seed,
    )
    result = run_campaign(config, workers=args.workers)
    print(result.describe())
    print()
    print("Percentage of success (Figures 9 / 11):")
    print(result.success_table())
    print()
    print("Relative cost against the LP lower bound (Figures 10 / 12):")
    print(result.relative_cost_table())
    return 0


def _dispatch_table1(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1_table

    print(table1_table())
    return 0


def _dispatch_dynamic(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """The ``dynamic`` sub-command: trajectories and the churn campaign."""
    _warn_unbounded(args, parser)
    if args.campaign:
        from repro.experiments.harness import ChurnCampaignConfig, run_churn_campaign

        _warn_ignored(
            args,
            parser,
            _CAMPAIGN_IGNORES,
            "--campaign sweeps its own churn trajectories under every mode; "
            "ignoring {}",
            extra=["the tree file"] if args.tree is not None else [],
        )
        config = ChurnCampaignConfig(
            epochs=args.epochs,
            trees_per_level=args.trees_per_level,
            homogeneous=not args.heterogeneous,
            policy=args.policy,
            magnitude=args.magnitude,
            quiet_probability=args.quiet,
            seed=args.seed if args.seed is not None else 2026,
            track_bounds=args.bounds,
            bound_method=args.bound_method,
        )
        result = run_churn_campaign(config, workers=args.workers)
        if args.json:
            print(result.to_json(indent=2))
            return 0
        print(result.describe())
        print()
        print("Mean per-epoch cost by churn intensity:")
        print(result.cost_table())
        print()
        print("Requests re-routed per epoch (placement stability):")
        print(result.stability_table())
        print()
        print("Replicas moved per epoch:")
        print(result.replica_churn_table())
        if args.bounds:
            print()
            print(
                f"Cost relative to the per-epoch {_bound_name(args.bound_method)} "
                "lower bound:"
            )
            print(result.gap_table())
        return 0

    if args.tree is None:
        print("error: a tree JSON file is required unless --campaign is given", file=sys.stderr)
        return 1

    if args.workers is not None:
        print(
            "warning: --workers only parallelises --campaign runs; a single "
            "trajectory is solved sequentially (epochs are dependent)",
            file=sys.stderr,
        )
    _warn_ignored(
        args,
        parser,
        ("heterogeneous", "trees_per_level"),
        "only --campaign generates its trees; ignoring {}",
    )

    if args.trace is not None:
        from repro.workloads.traces import detect_epochs, load_trace

        # The trace dictates epoch boundaries and per-client rates.
        _warn_ignored(
            args,
            parser,
            ("trajectory", "seed", *_TRAJECTORY_KNOBS),
            "--trace derives the epoch sequence from the log; ignoring {}",
        )
        problem = _load_problem(args.tree, counting=args.counting)
        trace_model = detect_epochs(load_trace(args.trace), max_epochs=args.epochs)
        return _run_dynamic_sequence(
            args, trace_model.problems(problem), trace_model=trace_model
        )

    from repro.workloads import dynamic as trajectories

    generator, reads = _TRAJECTORIES[args.trajectory]
    _warn_ignored(
        args,
        parser,
        [dest for dest in _TRAJECTORY_KNOBS if dest not in reads.values()],
        f"the {args.trajectory} trajectory ignores {{}}",
    )
    problem = _load_problem(args.tree, counting=args.counting)
    epochs = getattr(trajectories, generator)(
        problem,
        args.epochs,
        **{keyword: getattr(args, dest) for keyword, dest in reads.items()},
    )
    return _run_dynamic_sequence(args, epochs)


def _run_dynamic_sequence(
    args: argparse.Namespace, epochs, trace_model=None
) -> int:
    """Solve and report one epoch sequence (synthetic or trace-derived).

    ``trace_model`` is the :class:`~repro.workloads.traces.TraceEpochs`
    behind a ``--trace`` replay; it labels the run and supplies the real
    epoch time spans to the ``--simulate`` replay.
    """
    from repro.api import bound_sequence, solve_sequence

    result = solve_sequence(
        epochs,
        policy=args.policy,
        mode=args.mode,
        resolve=args.resolve.replace("-", "_"),
        shards=args.shards,
    )
    bounds = None
    if args.bounds:
        bounds = bound_sequence(epochs, policy=args.policy, method=args.bound_method)
        gaps = bounds.gaps(result.costs)
    replay = None
    if args.simulate:
        from repro.simulation import simulate_sequence

        spans = None
        if trace_model is not None:
            spans = list(
                zip(trace_model.boundaries[:-1], trace_model.boundaries[1:])
            )
        replay = simulate_sequence(epochs, result.solutions, spans=spans)
    if args.json:
        payload = result.to_dict()
        payload["trajectory"] = "trace" if trace_model is not None else args.trajectory
        payload["tree"] = args.tree
        if trace_model is not None:
            payload["trace"] = {
                "file": args.trace,
                "events": trace_model.trace.events,
                "method": trace_model.method,
                "boundaries": [float(b) for b in trace_model.boundaries],
            }
        if bounds is not None:
            payload["bounds"] = bounds.to_dict()
            # gaps() yields finite floats or None, both JSON-safe as-is.
            payload["gaps"] = list(gaps)
        if replay is not None:
            payload["replay"] = {
                "summary": replay.summary(),
                "transient_saturations": [
                    {"epoch": epoch, "link": [link[0], link[1]]}
                    for epoch, link in replay.transient_saturations()
                ],
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.solved_epochs else 2
    if trace_model is not None:
        print(
            f"trace replay of {args.trace} over {args.tree} "
            f"({args.mode} mode, {args.policy} policy)"
        )
        print(trace_model.summary(path=args.trace).describe())
    else:
        print(
            f"{args.trajectory} trajectory over {args.tree} "
            f"({args.mode} mode, {args.policy} policy)"
        )
    print(result.describe())
    for epoch, entry in enumerate(result.stats):
        line = "  " + entry.describe()
        if bounds is not None:
            value = bounds.values[epoch]
            gap = gaps[epoch]
            line += f" | bound {value:g}"
            line += f" (gap {gap:.3f})" if gap is not None else " (no gap)"
        print(line)
    if bounds is not None:
        print("Bounds: " + bounds.describe())
    if replay is not None:
        print()
        print("Replay: " + replay.summary())
        for epoch, link in replay.transient_saturations():
            print(f"  epoch {epoch}: link {link[0]!r}->{link[1]!r} saturates")
    return 0 if result.solved_epochs else 2

def _host_port(text: str) -> Tuple[str, int]:
    """The ``HOST:PORT`` address of ``serve --http`` / ``--tcp``."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _dispatch_serve(args: argparse.Namespace) -> int:
    """The ``serve`` sub-command: one event loop over stdio, HTTP or TCP.

    Stdio keeps stdout strictly machine-readable -- one JSON reply line
    per request line, nothing else -- so supervisors can pipe it; all
    diagnostics go to stderr.  SIGTERM, as SIGINT, stops the loop through
    its shutdown path: the resident sessions are snapshotted and the
    process exits 0.
    """
    import signal

    from repro.serving.loopserver import LoopServer
    from repro.serving.pool import SessionPool
    from repro.serving.server import ReproServer

    pool = SessionPool(
        args.pool_capacity,
        max_bytes=args.max_bytes,
        mode=args.mode,
    )
    server = ReproServer(
        pool,
        snapshot_dir=args.snapshot_dir,
        snapshot_retain=args.snapshot_retain,
    )
    if server.restored:
        print(
            f"restored {server.restored} warm session(s) from {args.snapshot_dir}",
            file=sys.stderr,
        )

    loop = LoopServer(server)
    if args.http is not None:
        host, port = loop.listen(*args.http, http=True)
        print(
            f"serving on http://{host}:{port}/ (POST envelopes; "
            "GET /stats, /metrics)",
            file=sys.stderr,
        )
    elif args.tcp is not None:
        host, port = loop.listen(*args.tcp)
        print(
            f"loop-serving on tcp://{host}:{port} "
            "(newline-delimited JSON envelopes)",
            file=sys.stderr,
        )
    else:
        loop.add_stream(sys.stdin.fileno(), sys.stdout.fileno())
    previous = signal.signal(signal.SIGTERM, lambda _signum, _frame: loop.shutdown())
    try:
        return loop.serve()
    finally:
        signal.signal(signal.SIGTERM, previous)


def _dispatch_trace(args: argparse.Namespace) -> int:
    """The ``trace`` sub-command: ingest a log, model its epochs, report."""
    from repro.workloads.traces import detect_epochs, fixed_epochs, load_trace

    # Only `info` today; the required subparser rejects anything else.
    trace = load_trace(args.file, format=args.format, sort=args.sort)
    if args.epochs is not None:
        model = fixed_epochs(trace, args.epochs)
    else:
        model = detect_epochs(
            trace,
            bins=args.bins,
            threshold=args.threshold,
            max_epochs=args.max_epochs,
        )
    summary = model.summary(path=args.file)
    if args.json:
        print(summary.to_json(indent=2))
        return 0
    print(summary.describe())
    print(summary.rate_table())
    return 0


def _dispatch_loadtest(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """The ``loadtest`` sub-command: one open-loop IPPP run + report."""
    import numpy as np

    from repro.serving.loadgen import LoadgenConfig, run_loadtest
    from repro.serving.pool import SessionPool
    from repro.serving.server import ReproServer

    ops = tuple(op.strip() for op in args.ops.split(",") if op.strip())
    op_mix = None
    if args.op_mix is not None:
        op_mix = {}
        for part in args.op_mix.split(","):
            part = part.strip()
            if not part:
                continue
            op, separator, weight = part.partition("=")
            try:
                if not separator:
                    raise ValueError
                op_mix[op.strip()] = float(weight)
            except ValueError:
                print(
                    f"error: malformed --op-mix entry {part!r}; "
                    "expected OP=WEIGHT pairs like 'solve=3,bound=1'",
                    file=sys.stderr,
                )
                return 1
    try:
        config = LoadgenConfig(
            tenants=args.tenants,
            size=args.size,
            horizon=args.horizon,
            rate=args.rate,
            burst=args.burst,
            batch=args.batch,
            ops=ops,
            op_mix=op_mix,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    arrivals = None
    if args.trace is not None:
        from repro.workloads.traces import detect_epochs, load_trace

        # The trace's detected intensity replaces the sinusoid, rescaled to
        # the configured horizon and mean rate so --horizon/--rate keep
        # meaning what they say.
        trace = load_trace(args.trace)
        model = detect_epochs(trace)
        arrivals = model.arrival_schedule(
            np.random.default_rng(config.seed),
            horizon=config.horizon,
            mean_rate=config.rate,
        )
        _warn_ignored(
            args,
            parser,
            ("burst",),
            "--trace replaces the sinusoidal intensity; ignoring {}",
        )
    target = (
        ReproServer(SessionPool(max(args.tenants, 2)))
        if args.target is None
        else args.target
    )
    report = run_loadtest(target, config, arrivals=arrivals)
    if args.json:
        print(report.to_json())
    else:
        print(report.describe())
    return 0


def _dispatch_bench(args: argparse.Namespace) -> int:
    """The ``bench`` sub-command: run the bench-marked perf suites.

    A thin, reproducible front end over ``pytest -m bench benchmarks/`` so
    the performance trajectory (every bench run appends an entry to
    ``BENCH_engine.json``) no longer depends on ad-hoc pytest invocations.
    """
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    bench_dir = root / "benchmarks"
    if not bench_dir.is_dir():
        print(
            f"error: no benchmarks/ directory next to the package ({bench_dir}); "
            "the bench suites only ship with a source checkout",
            file=sys.stderr,
        )
        return 1

    suites = sorted(path.name for path in bench_dir.glob("test_*.py"))
    if args.list:
        print(f"bench suites in {bench_dir}:")
        for name in suites:
            print(f"  {name}")
        print("run them with: repro-placement bench [-k EXPR]")
        return 0

    import pytest

    # The bench modules import helpers as ``benchmarks.conftest``, which
    # resolves only with the repository root on sys.path (pytest normally
    # gets this for free by being launched from the checkout).
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))

    # The suites append their entries to the ledger only under this flag,
    # so plain pytest runs of benchmarks/ leave the checkout clean.
    os.environ["REPRO_BENCH_RECORD"] = "1"
    pytest_args = [str(bench_dir), "-m", "bench", "-q", "-p", "no:cacheprovider"]
    if args.keyword:
        pytest_args += ["-k", args.keyword]
    if args.collect_only:
        pytest_args.append("--collect-only")
    code = int(pytest.main(pytest_args))
    if not args.collect_only and code == 0:
        print(f"bench entries appended to {root / 'BENCH_engine.json'}")
    return code


def _dispatch_doctor(args: argparse.Namespace) -> int:
    """The ``doctor`` sub-command: request-state and native-kernel report.

    Builds a two-client probe tree and a state on it with
    :func:`repro.algorithms.common.make_state`, so ``state`` names what
    every solve on this host runs on: ``NativeRequestState`` where the
    kernels load, ``RequestState`` otherwise.  Exits 1, with the error on
    stderr after the report, when that probe fails.
    """
    from repro.algorithms._native import kernel_cache_dir, kernel_status
    from repro.algorithms.common import make_state
    from repro.core.builder import TreeBuilder

    tree = (
        TreeBuilder()
        .add_node("root", capacity=10)
        .add_client("c1", requests=3, parent="root")
        .add_client("c2", requests=2, parent="root")
        .build()
    )
    probe = ReplicaPlacementProblem(tree=tree)

    failure = None
    try:
        state = type(make_state(probe)).__name__
    except Exception as error:  # report, then fail the exit code
        state, failure = None, f"{type(error).__name__}: {error}"

    status = kernel_status()
    try:
        from repro.lp.ipfp import ipfp_bound, ipfp_defaults

        probe_bound = ipfp_bound(probe)
        ipfp = {
            "available": True,
            "probe_value": probe_bound.value,
            "defaults": ipfp_defaults(),
        }
    except Exception as error:  # report, never crash the doctor
        ipfp = {"available": False, "error": f"{type(error).__name__}: {error}"}
    lp_backend = _lp_backend()
    report = {
        "type": "doctor",
        "state": state,
        "native_kernels": status,
        "native_cache_dir": str(kernel_cache_dir()),
        "ipfp": ipfp,
        "lp_backend": lp_backend,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"request state: {state or 'FAILED'}")
        if status.get("available"):
            print(f"native kernels: compiled ({status.get('so_path')})")
        else:
            print(f"native kernels: unavailable ({status.get('error')})")
        print(f"native cache dir: {report['native_cache_dir']}")
        if ipfp.get("available"):
            defaults = ipfp["defaults"]
            print(
                "ipfp bound: available ("
                + ", ".join(f"{key}={value}" for key, value in sorted(defaults.items()))
                + ")"
            )
        else:
            print(f"ipfp bound: unavailable ({ipfp.get('error')})")
        if lp_backend["available"]:
            print(f"lp backend: scipy {lp_backend['version']} (loaded on first LP bound)")
        else:
            print("lp backend: unavailable (scipy is not installed; "
                  "mixed/rational bounds and exact solves need it)")
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def _lp_backend() -> dict:
    """Whether scipy, the LP backend, is installed, found without importing it.

    Only LP assembly and LP solves import scipy, so a host without it still
    solves and serves IPFP bounds; this tells the operator up front.
    """
    import importlib.metadata
    import importlib.util

    if importlib.util.find_spec("scipy") is None:
        return {"available": False, "version": None}
    try:
        version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        version = None
    return {"available": True, "version": version}


def _load_problem(path: str, *, counting: bool) -> ReplicaPlacementProblem:
    from repro.core.serialization import load_tree

    tree = load_tree(path)
    kind = ProblemKind.REPLICA_COUNTING if counting else ProblemKind.REPLICA_COST
    return ReplicaPlacementProblem(tree=tree, kind=kind)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
