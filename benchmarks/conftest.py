"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
default plan is a reduced version of the paper's campaign (fewer trees per
load value, smaller trees) so the whole suite finishes in a couple of
minutes on a laptop; set the environment variable ``REPRO_BENCH_FULL=1`` to
run the paper-scale plan (30 trees per lambda, sizes 15-400).

The campaign behind Figures 9/10 (and 11/12) is computed once per session
and shared by the success-rate and relative-cost benchmarks.

The perf suites hand their trajectory entries to :func:`record_bench`, which
appends them to the tracked ``BENCH_engine.json`` only when ``repro bench``
runs the suites (it sets ``REPRO_BENCH_RECORD=1``); a tier-1 run asserts the
same floors and leaves the checkout untouched.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.harness import CampaignConfig, run_campaign

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: The performance trajectory ledger at the repository root.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def record_bench(entry) -> None:
    """Append ``entry`` to ``BENCH_engine.json`` under ``REPRO_BENCH_RECORD=1``."""
    if os.environ.get("REPRO_BENCH_RECORD", "") != "1":
        return
    entries = []
    if BENCH_FILE.exists():
        try:
            entries = json.loads(BENCH_FILE.read_text())
        except (ValueError, OSError):
            entries = []
    entries.append(entry)
    BENCH_FILE.write_text(json.dumps(entries, indent=2) + "\n")


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the host has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench: perf smoke benchmarks whose trajectory entries `repro bench` "
        "records in BENCH_engine.json",
    )


def campaign_config(homogeneous: bool) -> CampaignConfig:
    """The campaign plan used by the figure benchmarks."""
    if FULL_SCALE:
        return CampaignConfig(homogeneous=homogeneous)
    return CampaignConfig(
        homogeneous=homogeneous,
        trees_per_lambda=5,
        size_range=(15, 80),
        seed=2007,
    )


@pytest.fixture(scope="session")
def homogeneous_campaign():
    """Campaign shared by the Figure 9 and Figure 10 benchmarks."""
    return run_campaign(campaign_config(homogeneous=True))


@pytest.fixture(scope="session")
def heterogeneous_campaign():
    """Campaign shared by the Figure 11 and Figure 12 benchmarks."""
    return run_campaign(campaign_config(homogeneous=False))


def run_once(benchmark, function, *args, **kwargs):
    """Run a (possibly slow) experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
