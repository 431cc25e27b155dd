"""Quickstart: build a tree, place replicas under the three access policies.

Run with::

    python examples/quickstart.py

The script builds a small content-distribution tree by hand, solves it under
the Closest, Upwards and Multiple access policies, compares the costs with
the LP-based lower bound and prints where the replicas end up.  A "session
API" section walks the stateful ``PlacementSession`` (one object owning the
tree index, the LP program and the incremental solver state across epochs),
a "scaling up" section shows the batch API solving a whole sweep of random
instances in one call, an "engines" section tours the two interchangeable
request-state engines (dict / compiled native) behind the factory,
a "dynamic workloads" section revises a placement
across a churning request-rate trajectory with the incremental re-solver,
a "traces" section ingests a timestamped request log, detects its epochs
and replays it through the same machinery,
an "LP bounds on sequences" section tracks the cost-vs-bound gap of
that revision epoch by epoch, and a "serving" section runs the multi-tenant
serving endpoint in-process -- start a server, connect a client, step
epochs with the SLA-aware re-solve, and read the pool statistics.
"""

from __future__ import annotations

from repro import (
    PlacementSession,
    Policy,
    TreeBuilder,
    bound_sequence,
    compare_policies,
    lower_bound,
    replica_counting_problem,
    solve_many,
    solve_sequence,
)


def build_tree():
    """A tiny two-level distribution tree (homogeneous, W = 10)."""
    return (
        TreeBuilder()
        .add_node("root", capacity=10)
        .add_node("east", capacity=10, parent="root")
        .add_node("west", capacity=10, parent="root")
        .add_client("c_east_1", requests=6, parent="east")
        .add_client("c_east_2", requests=7, parent="east")
        .add_client("c_west_1", requests=4, parent="west")
        .add_client("c_root", requests=3, parent="root")
        .build()
    )


def main() -> None:
    tree = build_tree()
    problem = replica_counting_problem(tree)

    print(f"Platform: {tree}")
    print(f"Total requests: {tree.total_requests():g}, "
          f"total capacity: {tree.total_capacity():g}, "
          f"load factor lambda = {tree.load_factor():.2f}")
    print(f"LP lower bound on the number of replicas: {lower_bound(problem):g}")
    print()

    results = compare_policies(problem)
    for policy in Policy.ordered():
        solution = results[policy]
        if solution is None:
            print(f"{policy.value:>9}: no valid solution (the policy is too restrictive here)")
            continue
        placement = ", ".join(str(node) for node in solution.placement.sorted())
        print(
            f"{policy.value:>9}: {solution.replica_count()} replicas "
            f"({placement}) found by {solution.algorithm}"
        )
        for node_id in solution.placement.sorted():
            load = solution.assignment.server_load(node_id)
            print(f"{'':>11}- {node_id}: serving {load:g}/{problem.capacity(node_id):g} requests")
    print()
    print("The Multiple policy needs the fewest replicas: splitting a client's")
    print("requests over several ancestors makes every unit of capacity usable.")
    print()
    session_api()
    print()
    scaling_up()
    print()
    engines()
    print()
    sharded_solving()
    print()
    dynamic_workloads()
    print()
    traces()
    print()
    lp_bounds_on_sequences()
    print()
    qos_classes()
    print()
    serving()


def session_api() -> None:
    """Session API: one stateful object, every cache warm across queries.

    ``PlacementSession`` is what a long-running service keeps per tree: the
    tree index, the LP bound program and the incremental solver state all
    live on the session, so a solve-then-bound never re-indexes or
    re-assembles anything, and ``update(requests=...)`` steps to the next
    epoch by *patching* the cached structures.  Every result implements the
    unified ``describe()`` / ``to_dict()`` / ``to_json()`` protocol (the
    CLI's ``--json`` output).
    """
    print("Session API: cache-owning solves on one stateful object")
    session = PlacementSession(replica_counting_problem(build_tree()))

    placed = session.solve()                  # portfolio solve (caches warm now)
    bound = session.bound()                   # same index, program now resident
    print(f"  solve: {placed.describe()}")
    print(f"  bound: {bound.describe()}  -> gap {placed.cost / bound.value:.3f}")

    comparison = session.compare(bounds=True)  # rides the warm caches
    print(f"  compare: {comparison.describe()}")

    # An epoch step: one client's demand surges.  The resolver re-solves
    # incrementally and the next bound() patches the resident LP program
    # (strategy 'patched') instead of re-assembling it.
    session.update(requests={"c_east_1": 9.0})
    rebound = session.bound()
    print(f"  after update(requests=...): {rebound.describe()}")
    print(f"  cache reuse: {session.stats.describe()}")
    print(f"  machine-readable: result.to_json() -> {len(placed.to_json())} bytes")


def scaling_up() -> None:
    """Scaling up: solve a whole load sweep in one batch call.

    ``solve_many`` is the campaign workhorse: it accepts any iterable of
    trees or problems, preserves input order, maps infeasible instances to
    ``None`` (the paper's success-rate accounting) and, with ``workers=N``,
    fans the batch out over a process pool with per-worker chunking.  Every
    solve runs on the compiled flat-tree engine, which is cross-validated
    bit-for-bit against the paper-faithful implementation.
    """
    from repro.workloads.generator import generate_tree

    print("Scaling up: a miniature campaign through the batch API")
    loads = (0.2, 0.4, 0.6, 0.8)
    trees = [
        generate_tree(size=60, target_load=load, homogeneous=True, seed=seed)
        for seed in range(2)
        for load in loads
    ]
    problems = [replica_counting_problem(tree) for tree in trees]
    # workers=2 forks a small process pool; workers=None solves in-process.
    solutions = solve_many(problems, policy=Policy.MULTIPLE, workers=2)
    for (tree, problem), solution in zip(zip(trees, problems), solutions):
        label = f"lambda={tree.load_factor():.1f} size={len(tree)}"
        if solution is None:
            print(f"  {label}: no solution under Multiple")
        else:
            print(f"  {label}: {solution.summary(problem)}")


def engines() -> None:
    """Engines: two interchangeable state implementations, one factory.

    Every solve mutates a request-affectation state built by
    ``make_state``, and the platform decides which: the compiled
    ``native`` engine, whose hot loops run in a small C kernel library
    built on first use with the system compiler (~8x over ``dict`` on
    500-node trees), wherever the kernels load, and the paper-faithful
    ``dict`` engine elsewhere, with a one-line note.  No option picks one;
    ``REPRO_NATIVE_DISABLE=1`` forces the fallback, as on a host without a
    C compiler.  The two engines are cross-validated bit-for-bit, so the
    choice never moves a result.  ``repro doctor`` prints this report from
    the command line.
    """
    from repro.algorithms.common import make_state
    from repro.algorithms.native_state import native_kernels_available

    print("Engines: dict (paper-faithful), native (compiled)")
    problem = replica_counting_problem(build_tree())
    state = make_state(problem)
    print(f"  make_state(problem) -> a {type(state).__name__}")
    if native_kernels_available():
        print("  native kernels: compiled (every solve runs the C path)")
    else:
        print("  native kernels: unavailable here; every solve runs on dict")


def sharded_solving() -> None:
    """Sharded solving: partition, per-shard solve, cut reconciliation.

    Past ~10^4 clients the whole-tree pass is the wall.  ``shards=N`` cuts
    the tree at an antichain of high-level nodes, solves each subtree as an
    independent problem on its own index (the whole-tree index is never
    built), reconciles any overflow at the
    cut, and stitches a globally validated solution.  Inside a session the
    partition persists: a rate change confined to one shard re-solves only
    that shard, which is what ``repro dynamic --trajectory regional
    --shards N`` exploits on whole-subtree surges.
    """
    from repro import ReplicaPlacementProblem
    from repro.core.partition import partition_problem
    from repro.workloads.generator import large_tree

    print("Sharded solving: partition -> per-shard solve -> stitch")
    # large_tree() scales the generator to 10^5-client instances; a modest
    # size keeps this walkthrough quick.
    tree = large_tree(2_000, seed=7, target_load=0.4, homogeneous=False)
    problem = ReplicaPlacementProblem(tree=tree)
    plan = partition_problem(problem, shards=4)
    print(f"  {plan.describe()}")

    session = PlacementSession(problem, shards=4)
    first = session.solve()
    print(f"  first solve: {first.solution.algorithm} cost={first.cost:g}")

    # A single-client rate change inside shard 0 re-solves only shard 0;
    # every other region reports "reused".
    client_id = plan.shards[0].clients[0]
    old_rate = problem.tree.client(client_id).requests
    update = session.update(requests={client_id: old_rate + 2.0})
    strategies = update.solution.metadata["shard_strategies"]
    print(f"  after one rate change: regions {strategies}")
    print(f"  (the whole-tree index was never built: "
          f"{problem.tree._index_cache is None})")


def dynamic_workloads() -> None:
    """Dynamic workloads: revise a placement across shifting request rates.

    ``solve_sequence`` consumes a trajectory of epochs (here: random rate
    churn from :mod:`repro.workloads.dynamic`) and warm-starts each epoch
    from the previous one: unchanged epochs are reused outright, everything
    else is re-solved on patched tree indexes.  The default ``incremental``
    mode is cost-identical to solving every epoch from scratch; ``patch``
    mode keeps the placement frozen and re-routes only the changed clients,
    minimising migrations at a possible cost premium.
    """
    from repro.workloads.dynamic import rate_churn
    from repro.workloads.generator import generate_tree

    print("Dynamic workloads: incremental re-solving under rate churn")
    tree = generate_tree(size=60, target_load=0.5, homogeneous=True, seed=7)
    base = replica_counting_problem(tree)
    epochs = rate_churn(base, 10, churn=0.15, quiet_probability=0.3, seed=7)

    for mode in ("incremental", "patch"):
        result = solve_sequence(epochs, policy=Policy.MULTIPLE, mode=mode)
        print(f"  {mode:>11}: {result.describe()}")
    print("  (incremental = cheapest cost-identical revision; patch = fewest migrations)")


def traces() -> None:
    """Trace-driven workloads: ingest a request log, detect epochs, replay.

    The synthetic trajectories above fabricate epoch rates; this closes
    the loop with **real request logs**.  A CSV/JSONL log (gzip welcome)
    ingests into a ``Trace``; ``detect_epochs`` places epoch boundaries
    where the traffic actually shifts and estimates per-client rates; the
    resulting ``TraceEpochs`` model emits the same structure-shared
    problem sequence ``solve_sequence`` already consumes, and its
    estimated intensity drives the open-loop load harness.  From the
    shell: ``repro trace info LOG``, ``repro dynamic TREE --trace LOG``
    and ``repro loadtest --trace LOG``.
    """
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.serving.server import ReproServer
    from repro.serving.loadgen import LoadgenConfig, run_loadtest
    from repro.workloads.dynamic import as_base_problem
    from repro.workloads.traces import detect_epochs, load_trace, sample_trace

    print("Trace-driven workloads: ingest -> detect -> replay -> loadtest")
    tree = build_tree()
    base = as_base_problem(replica_counting_problem(tree))
    # Fake a production log: calm traffic, then a surge -- in real use this
    # is your access log, one `timestamp,client[,weight]` row per request.
    surge = base.tree.with_requests(
        {c: base.tree.client(c).requests * 18 for c in base.tree.client_ids}
    )
    calm = base.tree.with_requests(
        {c: base.tree.client(c).requests * 15 for c in base.tree.client_ids}
    )
    log = sample_trace(
        [as_base_problem(calm), as_base_problem(surge)],
        np.random.default_rng(7),
        epoch_duration=30.0,
    )
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "requests.jsonl.gz"
        log.to_jsonl(path)  # gzip-transparent on both ends

        trace = load_trace(path)  # repro trace info requests.jsonl.gz
        model = detect_epochs(trace)
        print(f"  ingest: {trace!r}")
        print(f"  epochs: {model.summary(path=path.name).describe()}")

        # repro dynamic TREE --trace requests.jsonl.gz
        epochs = model.problems(base, rate_scale=1.0 / 15.0)
        replayed = solve_sequence(epochs, policy=Policy.MULTIPLE)
        print(f"  replay: {replayed.describe()}")

        # repro loadtest --trace requests.jsonl.gz: the trace's detected
        # intensity (rescaled to the configured horizon and mean rate)
        # replaces the sinusoid as the arrival schedule.
        config = LoadgenConfig(tenants=2, size=16, horizon=0.5, rate=40.0)
        arrivals = model.arrival_schedule(
            np.random.default_rng(config.seed),
            horizon=config.horizon,
            mean_rate=config.rate,
        )
        report = run_loadtest(ReproServer(capacity=4), config, arrivals=arrivals)
        print(f"  loadtest: {report.describe()}")


def lp_bounds_on_sequences() -> None:
    """LP bounds on sequences: track cost-vs-bound gaps across epochs.

    ``bound_sequence`` is the LP-side companion of ``solve_sequence``: it
    computes the paper's refined lower bound (integer placement, rational
    assignment) for every epoch of a trajectory, reusing the bound of
    unchanged epochs outright and re-targeting the cached constraint matrix
    via ``LinearProgramData.with_requests`` when only request rates moved --
    the program is never re-assembled for rate-only churn.  Pairing the two
    results turns the optimality gap into a per-epoch series, cheap enough
    to monitor on every trajectory instead of a sampled few.
    """
    from repro.workloads.dynamic import rate_churn
    from repro.workloads.generator import generate_tree

    print("LP bounds on sequences: per-epoch cost-vs-bound gaps under churn")
    tree = generate_tree(size=60, target_load=0.5, homogeneous=True, seed=7)
    base = replica_counting_problem(tree)
    epochs = rate_churn(base, 10, churn=0.15, quiet_probability=0.3, seed=7)

    solved = solve_sequence(epochs, policy=Policy.MULTIPLE)
    bounds = bound_sequence(epochs, policy=Policy.MULTIPLE)
    print(f"  solve: {solved.describe()}")
    print(f"  bound: {bounds.describe()}")
    for epoch, gap in enumerate(bounds.gaps(solved.costs)):
        cost = solved.costs[epoch]
        bound = bounds.values[epoch]
        label = f"gap {gap:.3f}" if gap is not None else "no gap"
        print(f"    epoch {epoch}: cost {cost:g} vs bound {bound:g} ({label})")
    print("  (a gap of 1.000 means the heuristic provably matched the optimum)")


def qos_classes() -> None:
    """QoS classes: multi-metric links, tenant classes, the IPFP bound.

    Links can carry a full ``QoSMetrics`` annotation (latency, jitter,
    loss, bandwidth); ``ClassedConstraintSet`` groups clients into
    gold/silver/bronze service classes whose weighted **path score**
    replaces the single-metric QoS bound (monotone classes ride the same
    memoised threshold machinery as distance/latency QoS, on all three
    engines).  ``bound(method="ipfp")`` is the matching fast fractional
    lower bound -- iterative proportional fitting over the client x
    server pair arrays, re-targetable across epochs without touching a
    simplex.  From the shell: ``repro generate --metrics`` and ``repro
    solve --bounds --bound-method ipfp``.
    """
    from dataclasses import replace

    from repro.core.constraints import ClassedConstraintSet
    from repro.core.problem import replica_cost_problem
    from repro.core.tree import TreeNetwork
    from repro.qos.metrics import annotate_tree, split_by_class
    from repro.workloads.generator import generate_tree

    print("QoS classes: multi-metric links, service classes, the IPFP bound")
    tree = annotate_tree(
        generate_tree(size=60, target_load=0.3, homogeneous=False, seed=11),
        seed=11,
    )
    constraints = ClassedConstraintSet.standard(tree, seed=11)
    mix = ", ".join(
        f"{name}: {sum(1 for _, n in constraints.assignments if n == name)}"
        for name in (cls.name for cls in constraints.classes)
    )
    print(f"  classes: {mix} (assigned by {type(constraints).__name__}.standard)")

    # Give every client a score budget of 90% of its own root-path score:
    # nearby servers stay eligible, the farthest ancestors drop out.
    budgets = {
        client.id: 0.9
        * max(s for _, s in constraints.iter_ancestor_scores(tree, client.id))
        for client in tree.clients()
    }
    clients = [
        replace(c, qos=budgets[c.id]) if budgets[c.id] > 0 else c
        for c in tree.clients()
    ]
    tree = TreeNetwork(list(tree.nodes()), clients, list(tree.links()))
    # Replica Cost keeps the heterogeneous capacities (s_j = W_j).
    problem = replica_cost_problem(tree, constraints=constraints)

    session = PlacementSession(problem)
    placed = session.solve()
    ipfp = session.bound(method="ipfp")
    mixed = session.bound(method="mixed")
    print(f"  joint solve: {placed.describe()}")
    print(
        f"  bounds: ipfp {ipfp.result.value:g} <= mixed {mixed.result.value:g}"
        f" <= cost {placed.cost:g}"
        f" (ipfp gap {placed.cost / ipfp.result.value:.3f})"
    )

    # Carving each class into its own sub-problem (reserved bandwidth
    # share, provisioned gold headroom) prices per-class isolation: the
    # summed per-class costs over-provision relative to the joint solve.
    carved = split_by_class(
        problem, dict(constraints.assignments), constraints.classes
    )
    total = 0.0
    for name, sub in carved.items():
        solution = PlacementSession(sub).solve()
        total += solution.cost
        print(f"    class {name}: cost {solution.cost:g}")
    print(
        f"  isolation price: sum {total:g} vs joint {placed.cost:g} "
        f"({total / placed.cost:.2f}x)"
    )


def serving() -> None:
    """Serving: resident sessions behind the JSON protocol.

    ``repro serve`` runs this over stdio, HTTP (``--http HOST:PORT``) or
    TCP (``--tcp HOST:PORT``), all on one selectors event loop, for real
    deployments; the walkthrough drives the identical protocol stack
    in-process.  Every
    reply is a standard result payload, so ``connect()`` hands back the
    same ``SolveResult``/``BoundResult`` objects a local session returns --
    bit-identical, in fact, which is what the serving test suite pins.
    """
    import tempfile

    from repro import connect
    from repro.serving import render_prometheus
    from repro.serving.server import ReproServer

    print("Serving: a multi-tenant session pool behind the JSON protocol")
    with tempfile.TemporaryDirectory() as snapshots:
        # repro serve --stdio --pool-capacity 8 --snapshot-dir <dir>
        server = ReproServer(capacity=8, snapshot_dir=snapshots)
        client = connect(server)  # or connect("http://host:port")

        session = client.open(replica_counting_problem(build_tree()))
        placed = session.solve()
        bound = session.bound()
        print(f"  solve: {placed.describe()}")
        print(f"  bound: {bound.describe()}")

        # Epoch steps run server-side; "on_saturation" keeps the placement
        # frozen while the replayed epoch stays clean (SLA-aware re-solve).
        drifted = session.update(
            requests={"c_east_1": 5.0}, resolve="on_saturation"
        )
        print(f"  drift epoch: {drifted.describe()}")

        surged = session.update(
            requests={"c_east_1": 8.0, "c_east_2": 8.0},
            resolve="on_saturation",
        )
        print(f"  surge epoch: {surged.describe()}")

        # A batch envelope ships a whole trajectory in one round trip:
        # the first item addresses the session, later items inherit it
        # (one pool checkout for the run), and per-item errors come back
        # in place without poisoning their neighbours.
        trajectory = client.batch(
            [
                {"op": "solve", "fingerprint": session.fingerprint},
                {"op": "update", "params": {"requests": {"c_west_1": 6.0}}},
                {"op": "bound"},
            ]
        )
        print(f"  batch: {len(trajectory)} replies in one envelope")

        print(f"  pool: {client.stats().describe()}")
        # The same counters back GET /metrics (Prometheus 0.0.4 text);
        # `repro loadtest` drives open-loop Poisson arrivals against any
        # endpoint and reports p50/p99 latency and requests/sec.
        exposition = render_prometheus(server.pool.stats())
        served = [
            line for line in exposition.splitlines()
            if line.startswith("repro_requests_total")
        ]
        print("  metrics: " + "; ".join(served))

        # With --snapshot-dir, sessions persist across restarts: a reborn
        # server answers the same queries warm from the snapshot files.
        server.snapshot_all()
        reborn = ReproServer(capacity=8, snapshot_dir=snapshots)
        print(f"  after restart: restored {reborn.restored} warm session(s)")


if __name__ == "__main__":
    main()
