"""A process loads only the layers it runs.

* scipy is imported only by LP assembly and LP solves.  The IPFP bound, the
  session and serving paths and the CLI's no-LP commands are pure numpy, so
  a process that never builds or solves an LP must not pay scipy's import
  (tens of MB resident, most of a second).
* The package surface is lazy: ``repro``, ``repro.serving``,
  ``repro.workloads`` and ``repro.experiments`` resolve their public names
  on first use, and the CLI imports each subsystem in the sub-command that
  runs it.  So ``import repro`` loads nothing but the version metadata, a
  ``repro serve`` process never loads the client, the load generator, the
  trace ingester, the campaign harness or the batch API (nor the HTTP, TLS,
  e-mail and process-pool modules they drag in), and ``repro solve`` loads
  none of the campaign, trace or client stacks.
* The serving transports are one ``selectors`` loop, so nothing loads the
  standard library's threaded HTTP server.
* Laziness must not change what resolves: every public name of every
  package resolves and is listed by ``dir()``, every heuristic registers,
  and every module imports cleanly as the first ``repro`` module of a
  process (a lazy surface no longer hides an import cycle behind the order
  in which ``import repro`` used to load everything).

Every check runs in a fresh interpreter: ``sys.modules`` of the test process
says nothing about what a command loads on its own.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: A small generated instance every in-process check starts from.
_SETUP = """
import json, sys
from repro.core.problem import ReplicaPlacementProblem
from repro.workloads.generator import GeneratorConfig, TreeGenerator

tree = TreeGenerator(5).generate(
    GeneratorConfig(size=40, target_load=0.3, homogeneous=False)
)
problem = ReplicaPlacementProblem(tree=tree)
lowered = {cid: tree.client(cid).requests * 0.9 for cid in tree.client_ids[:3]}
"""

_REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

#: No-LP paths, each run as its own process.
_NO_LP_PATHS = {
    # Each module is the first ``repro`` import of its round, so an import
    # cycle that only an earlier import used to break shows up here.
    "import_every_module": """
import importlib, pkgutil, threading
import repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    importlib.import_module(name)
assert threading.active_count() == 1  # importing starts no thread
""",
    "session": """
from repro.session import PlacementSession

session = PlacementSession(problem)
assert session.solve().solution is not None
session.update(requests=lowered)
assert session.bound(method="ipfp").result.feasible
assert session.bound(method="trivial").result.feasible
""",
    "sharded_solve": """
from repro.api import solve

assert solve(problem, shards=2).algorithm.startswith("sharded[")
""",
    "handle_envelope": """
from repro.core.serialization import problem_to_dict
from repro.serving.pool import SessionPool
from repro.serving.protocol import handle_envelope, is_error

pool = SessionPool(capacity=2)


def serve(envelope):
    reply = handle_envelope(pool, envelope).reply
    assert not is_error(reply), reply
    return reply


fp = serve({"op": "solve", "problem": problem_to_dict(problem)})["fingerprint"]
params = {"requests": lowered}
fp = serve({"op": "update", "fingerprint": fp, "params": params})["fingerprint"]
serve({"op": "bound", "fingerprint": fp, "params": {"method": "ipfp"}})
serve({"op": "stats"})
batch = serve({"op": "batch", "requests": [
    {"op": "solve", "fingerprint": fp},
    {"op": "bound", "params": {"method": "ipfp"}},
]})
assert [item["type"] for item in batch["results"]] == ["solve_result", "bound_result"]
""",
    "snapshot_round_trip": """
import tempfile
from repro.serving.pool import SessionPool
from repro.serving.snapshot import restore_pool, save_pool

pool = SessionPool(capacity=2)
with pool.checkout(problem) as entry:
    entry.session.bound(method="ipfp")
with tempfile.TemporaryDirectory() as directory:
    assert len(save_pool(pool, directory)) == 1
    restored = SessionPool(capacity=2)
    assert restore_pool(restored, directory, warm_programs=True) == 1
(entry,) = restored.entries()
(bounder,) = entry.session._bounders.values()
assert type(bounder._program).__name__ == "IPFPProgram"
""",
}


#: What a threaded stdlib HTTP server would drag in.
_HTTP_SERVER_MODULES = {"http.server", "socketserver"}

#: The client, load-generator, trace, campaign and batch stacks, which no
#: placement solve or served request runs.
_OFF_PATH_MODULES = {
    "repro.api",
    "repro.serving.client",
    "repro.serving.loadgen",
    "repro.workloads.traces",
    "repro.experiments.harness",
}

#: What the stacks above drag in from the standard library.
_OFF_PATH_STDLIB = {
    "urllib.request",
    "http.client",
    "email",
    "ssl",
    "multiprocessing",
    "concurrent.futures.process",
    "uuid",
    "csv",
    "gzip",
}


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's ``src``."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=cwd,
        timeout=300,
    )


def _scipy_modules(proc: subprocess.CompletedProcess) -> list:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("path", sorted(_NO_LP_PATHS))
def test_no_lp_path_leaves_scipy_unloaded(path):
    proc = _python("-c", _SETUP + _NO_LP_PATHS[path] + _REPORT)
    assert _scipy_modules(proc) == []


def _imported(stderr: str) -> set:
    """Module names in ``-X importtime`` output (one line per first import)."""
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("doctor", "--json"),
        ("solve", "tree.json", "--bounds", "--bound-method", "ipfp", "--json"),
    ],
    ids=["doctor", "solve_ipfp_bound"],
)
def test_cli_no_lp_command_leaves_scipy_unloaded(tmp_path, argv):
    from repro.core.serialization import save_tree
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    save_tree(
        TreeGenerator(5).generate(
            GeneratorConfig(size=40, target_load=0.3, homogeneous=False)
        ),
        tmp_path / "tree.json",
    )
    proc = _python("-X", "importtime", "-m", "repro", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert "repro.cli" in imported  # the probe sees the command's imports
    assert not {m for m in imported if m.split(".")[0] == "scipy"}
    json.loads(proc.stdout)


def test_mixed_bound_loads_scipy_and_matches_lp_lower_bound():
    proc = _python(
        "-c",
        _SETUP
        + """
from repro.lp.bounds import lp_lower_bound
from repro.session import PlacementSession

assert "scipy" not in sys.modules
value = PlacementSession(problem).bound(method="mixed").result.value
assert value == lp_lower_bound(problem).value, value
"""
        + _REPORT
    )
    assert "scipy" in _scipy_modules(proc)


def _run_json(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_a_lazy_package_loads_no_submodule():
    """``import repro`` loads only the version metadata, and importing the
    other lazy packages loads nothing but themselves."""
    first, then = _run_json(
        """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

import repro
first = loaded()
import repro.serving, repro.workloads, repro.experiments
print(json.dumps([first, loaded()]))
"""
    )
    assert first == ["repro", "repro._version"]
    assert then == first + ["repro.experiments", "repro.serving", "repro.workloads"]


def test_every_public_name_resolves_and_is_listed():
    """``dir()`` lists every ``__all__`` name before any is touched, each
    resolves, and star imports and ``from repro.serving import connect``
    keep working."""
    problems = _run_json(
        """
import importlib, json, pkgutil
import repro

problems = []
packages = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
for package in packages:
    names = getattr(package, "__all__", ())
    listed = set(dir(package))
    problems += [f"{package.__name__}.{n} not in dir()" for n in names if n not in listed]
    for name in names:
        try:
            getattr(package, name)
        except AttributeError as error:
            problems.append(f"{package.__name__}.{name}: {error}")
from repro import *
from repro.serving import connect
from repro.workloads import *
from repro.experiments import *
assert connect is repro.connect and solve is repro.solve
assert reference_trees is repro.workloads.reference_trees
print(json.dumps(problems))
"""
    )
    assert problems == []


def test_available_heuristics_lists_all_eleven():
    names = _run_json(
        "import json\n"
        "from repro.algorithms.base import available_heuristics\n"
        "print(json.dumps(available_heuristics()))"
    )
    assert names == [
        "CBU", "CTDA", "CTDLF", "Exhaustive", "MBU", "MG", "MTD",
        "MixedBest", "MultipleOptimalHomogeneous", "UBCF", "UTD",
    ]


def test_solve_json_leaves_campaign_trace_and_client_stacks_unloaded(tmp_path):
    from repro.core.serialization import save_tree
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    save_tree(
        TreeGenerator(5).generate(GeneratorConfig(size=40, target_load=0.3)),
        tmp_path / "tree.json",
    )
    proc = _python("-X", "importtime", "-m", "repro", "solve", "tree.json", "--json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["type"] == "solve_result"
    imported = _imported(proc.stderr)
    assert "repro.session" in imported  # the probe sees the command's imports
    assert not imported & _OFF_PATH_MODULES


def test_import_cli_leaves_http_server_unloaded():
    proc = _python("-X", "importtime", "-c", "import repro.cli")
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert "repro.cli" in imported
    assert not imported & _HTTP_SERVER_MODULES


def test_serve_tcp_round_leaves_client_and_batch_stacks_unloaded():
    """After a tenant round -- open, solve, IPFP bound, rate update -- the
    server has loaded the serving, session, heuristic and IPFP layers and
    nothing of the client, load-generator, trace, campaign or batch stacks."""
    from repro.core.problem import ReplicaPlacementProblem
    from repro.serving.client import ServingClient, TcpTransport
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    tree = TreeGenerator(5).generate(
        GeneratorConfig(size=40, target_load=0.3, homogeneous=False)
    )
    lowered = {cid: tree.client(cid).requests * 0.9 for cid in tree.client_ids[:3]}
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    lines = []
    try:
        for line in proc.stderr:
            lines.append(line)
            listening = re.match(r"loop-serving on tcp://([^\s:]+):(\d+)", line)
            if listening:
                break
        assert listening, "".join(lines)
        client = ServingClient(TcpTransport(listening.group(1), int(listening.group(2))))
        session = client.open(ReplicaPlacementProblem(tree=tree))
        assert session.solve().feasible
        assert session.bound(method="ipfp").feasible
        assert session.update(requests=lowered).feasible
        client.transport.close()
    finally:
        proc.terminate()
        lines.append(proc.communicate(timeout=60)[1])
    assert proc.returncode == 0, "".join(lines)
    imported = _imported("".join(lines))
    assert {"repro.serving.loopserver", "repro.lp.ipfp"} <= imported
    assert not imported & (_OFF_PATH_MODULES | _OFF_PATH_STDLIB | _HTTP_SERVER_MODULES)
    assert not {m for m in imported if m.startswith("repro.experiments")}
