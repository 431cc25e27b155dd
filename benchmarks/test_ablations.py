"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each benchmark runs one ablation of :mod:`repro.experiments.ablations` and
prints the comparison table: the drain order used by MBU, the second pass of
UTD, the refinement of the LP lower bound, and the benefit of the MixedBest
combiner over MultipleGreedy alone.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.experiments.ablations import (
    ablate_drain_order,
    ablate_lower_bound,
    ablate_mixed_best,
    ablate_second_pass,
)


@pytest.mark.benchmark(group="ablation")
def test_ablation_mbu_drain_order(benchmark):
    result = run_once(benchmark, ablate_drain_order, count=10, seed=11)
    print("\n=== Ablation: MBU drain order ===")
    print(result.table)
    assert set(result.metrics) == {"MBU (smallest first)", "MBU (largest first)"}


@pytest.mark.benchmark(group="ablation")
def test_ablation_utd_second_pass(benchmark):
    result = run_once(benchmark, ablate_second_pass, count=10, seed=12)
    print("\n=== Ablation: UTD second pass ===")
    print(result.table)
    with_pass = result.metrics["UTD (two passes)"]["success"]
    without_pass = result.metrics["UTD (first pass only)"]["success"]
    assert with_pass > without_pass


@pytest.mark.benchmark(group="ablation")
def test_ablation_lower_bound_refinement(benchmark):
    result = run_once(benchmark, ablate_lower_bound, count=6, seed=13)
    print("\n=== Ablation: LP lower-bound refinement ===")
    print(result.table)
    # The mixed bound is by construction at least as tight as the relaxation.
    assert result.metrics["mixed"]["mean_bound_ratio"] >= 1.0 - 1e-9


@pytest.mark.benchmark(group="ablation")
def test_ablation_mixed_best_vs_mg(benchmark):
    result = run_once(benchmark, ablate_mixed_best, count=10, seed=14)
    print("\n=== Ablation: MixedBest vs MultipleGreedy ===")
    print(result.table)
    assert (
        result.metrics["MixedBest"]["relative_cost"]
        >= result.metrics["MG alone"]["relative_cost"] - 1e-9
    )
