"""scipy is imported only by LP assembly and LP solves.

The IPFP bound, the session and serving paths and the CLI's no-LP commands
are pure numpy, so a process that never builds or solves an LP must not pay
scipy's import (tens of MB resident, most of a second).  Likewise the
serving transports are one ``selectors`` loop, so nothing loads the
standard library's threaded HTTP server.  Every check runs in a fresh
interpreter: ``sys.modules`` of the test process says nothing about what a
command loads on its own.
"""

from __future__ import annotations

import json
import os
import re
import socket
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
    "import_every_module": """
import importlib, pkgutil
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
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


def test_import_cli_leaves_http_server_unloaded():
    proc = _python("-X", "importtime", "-c", "import repro.cli")
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert "repro.cli" in imported
    assert not imported & _HTTP_SERVER_MODULES


def test_serve_tcp_leaves_http_server_unloaded():
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
        address = (listening.group(1), int(listening.group(2)))
        with socket.create_connection(address, timeout=60) as sock:
            sock.sendall(b'{"op": "stats"}\n')
            reply = sock.makefile().readline()
        assert json.loads(reply)["type"] == "pool_stats"
    finally:
        proc.terminate()
        lines.append(proc.communicate(timeout=60)[1])
    imported = _imported("".join(lines))
    assert "repro.serving.loopserver" in imported
    assert not imported & _HTTP_SERVER_MODULES
