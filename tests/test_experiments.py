"""Tests of the experiment harness: metrics, campaigns, figures, tables, ablations."""

from __future__ import annotations

import math

import pytest

from repro.experiments.ablations import (
    ablate_drain_order,
    ablate_lower_bound,
    ablate_mixed_best,
    ablate_second_pass,
)
from repro.experiments.figures import (
    figure9_homogeneous_success,
    figure10_homogeneous_cost,
    figure11_heterogeneous_success,
    figure12_heterogeneous_cost,
    reduced_config,
)
from repro.experiments.harness import CampaignConfig, run_campaign
from repro.experiments.metrics import RelativeCostAccumulator, relative_cost, success_rate
from repro.experiments.reporting import ascii_table, format_float, series_table, series_to_csv


class TestMetrics:
    def test_success_rate(self):
        assert success_rate([1.0, None, 2.0, math.inf]) == pytest.approx(0.5)
        assert success_rate([]) == 0.0
        assert success_rate([None, None]) == 0.0

    def test_relative_cost_basic(self):
        # bounds 2 and 3; heuristic costs 4 and 3 -> (0.5 + 1.0) / 2
        assert relative_cost([2, 3], [4, 3]) == pytest.approx(0.75)

    def test_relative_cost_failures_count_as_zero(self):
        assert relative_cost([2, 2], [2, None]) == pytest.approx(0.5)

    def test_relative_cost_skips_infeasible_instances(self):
        assert relative_cost([math.inf, 2], [None, 2]) == pytest.approx(1.0)

    def test_relative_cost_never_exceeds_one_for_valid_costs(self):
        # heuristic cost >= lower bound on every solvable instance
        assert relative_cost([5, 7], [5, 10]) <= 1.0

    def test_accumulator_tracks_failures(self):
        acc = RelativeCostAccumulator()
        acc.add(2, 4)
        acc.add(2, None)
        assert acc.count == 2 and acc.failures == 1
        assert acc.value() == pytest.approx(0.25)

    def test_accumulator_zero_cost_counts_as_perfect(self):
        acc = RelativeCostAccumulator()
        acc.add(0.0, 0.0)
        assert acc.value() == pytest.approx(1.0)


class TestReporting:
    def test_format_float(self):
        assert format_float(None) == "-"
        assert format_float(math.inf) == "inf"
        assert format_float(1.23456, 2) == "1.23"
        assert format_float(7) == "7"

    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "value"], [("a", 1.5), ("longer", 2)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len({len(line) for line in lines}) == 1  # all rows same width

    def test_series_table_has_one_column_per_series(self):
        table = series_table({"A": {0.1: 1.0, 0.2: 0.5}, "B": {0.1: 0.9}})
        assert "A" in table and "B" in table and "lambda" in table

    def test_series_to_csv(self):
        csv_text = series_to_csv({"A": {0.1: 1.0}})
        assert csv_text.splitlines()[0] == "lambda,A"
        assert "0.1,1.0" in csv_text


@pytest.fixture(scope="module")
def tiny_campaign():
    config = CampaignConfig(
        homogeneous=True,
        trees_per_lambda=2,
        size_range=(15, 30),
        lambdas=(0.2, 0.5),
        seed=7,
    )
    return run_campaign(config)


class TestCampaign:
    def test_record_count(self, tiny_campaign):
        assert len(tiny_campaign.records) == 4

    def test_success_series_contains_lp_and_heuristics(self, tiny_campaign):
        series = tiny_campaign.success_series()
        assert "LP" in series and "MixedBest" in series
        for values in series.values():
            assert set(values) == {0.2, 0.5}

    def test_mg_success_equals_lp_success(self, tiny_campaign):
        series = tiny_campaign.success_series()
        assert series["MG"] == series["LP"]

    def test_relative_cost_bounded_by_one(self, tiny_campaign):
        series = tiny_campaign.relative_cost_series()
        for name, values in series.items():
            for value in values.values():
                assert 0.0 <= value <= 1.0 + 1e-9

    def test_mixed_best_at_least_every_component(self, tiny_campaign):
        series = tiny_campaign.relative_cost_series()
        for load, value in series["MixedBest"].items():
            for name in ("CTDA", "UTD", "MG", "MTD", "MBU", "UBCF"):
                assert value >= series[name][load] - 1e-9

    def test_tables_render(self, tiny_campaign):
        assert "lambda" in tiny_campaign.success_table()
        assert "MixedBest" in tiny_campaign.relative_cost_table()
        assert "instances" in tiny_campaign.describe()

    def test_runtimes_recorded(self, tiny_campaign):
        record = tiny_campaign.records[0]
        assert set(record.runtimes) == set(tiny_campaign.config.heuristics)

    def test_trivial_lower_bound_mode(self):
        config = CampaignConfig(
            homogeneous=True,
            trees_per_lambda=1,
            size_range=(15, 20),
            lambdas=(0.3,),
            lower_bound_method="trivial",
            seed=5,
        )
        result = run_campaign(config)
        assert all(math.isfinite(r.lower_bound) for r in result.records)

    def test_scaled_config(self):
        config = CampaignConfig().scaled(trees_per_lambda=2, size_range=(15, 20))
        assert config.trees_per_lambda == 2 and config.size_range == (15, 20)


class TestFigures:
    @pytest.fixture(scope="class")
    def homogeneous_campaign(self):
        return run_campaign(
            reduced_config(
                homogeneous=True,
                trees_per_lambda=2,
                size_range=(15, 30),
                lambdas=(0.2, 0.6),
                seed=11,
            )
        )

    def test_figure9_series_shapes(self, homogeneous_campaign):
        figure = figure9_homogeneous_success(campaign=homogeneous_campaign)
        assert figure.figure == "Figure 9"
        assert figure.at("LP", 0.2) is not None
        assert "lambda" in figure.table()

    def test_figure10_uses_same_campaign(self, homogeneous_campaign):
        figure = figure10_homogeneous_cost(campaign=homogeneous_campaign)
        assert figure.quantity == "relative_cost"
        assert figure.at("MixedBest", 0.2) >= figure.at("CTDA", 0.2) - 1e-9

    def test_figure11_and_12_run_heterogeneous(self):
        config = reduced_config(
            homogeneous=False,
            trees_per_lambda=1,
            size_range=(15, 25),
            lambdas=(0.3,),
            seed=13,
        )
        campaign = run_campaign(config)
        fig11 = figure11_heterogeneous_success(campaign=campaign)
        fig12 = figure12_heterogeneous_cost(campaign=campaign)
        assert fig11.at("LP", 0.3) is not None
        assert fig12.at("MixedBest", 0.3) is not None

    def test_figure_at_returns_none_for_unknown_point(self, homogeneous_campaign):
        figure = figure9_homogeneous_success(campaign=homogeneous_campaign)
        assert figure.at("LP", 0.9) is None


@pytest.mark.slow
class TestTables:
    def test_table1_evidence_consistent(self):
        from repro.experiments.tables import table1_evidence, table1_table

        rows = table1_evidence(instances=2, seed=3)
        assert len(rows) == 6
        assert all(row.consistent for row in rows)
        rendering = table1_table(rows)
        assert "NP-complete" in rendering

    def test_section3_examples_table(self):
        from repro.experiments.tables import section3_examples_table

        table = section3_examples_table(n=2, big_factor=5.0)
        assert "Figure 1(b)" in table and "infeasible" in table


class TestAblations:
    def test_drain_order(self):
        result = ablate_drain_order(count=4, seed=3)
        assert set(result.metrics) == {"MBU (smallest first)", "MBU (largest first)"}

    def test_second_pass_improves_success(self):
        result = ablate_second_pass(count=6, seed=4)
        with_pass = result.metrics["UTD (two passes)"]["success"]
        without_pass = result.metrics["UTD (first pass only)"]["success"]
        assert with_pass > without_pass

    def test_lower_bound_ablation_reports_tightening(self):
        result = ablate_lower_bound(count=3, seed=5)
        assert result.metrics["mixed"]["mean_bound_ratio"] >= 1.0 - 1e-9

    def test_mixed_best_never_worse_than_mg(self):
        result = ablate_mixed_best(count=4, seed=6)
        assert (
            result.metrics["MixedBest"]["relative_cost"]
            >= result.metrics["MG alone"]["relative_cost"] - 1e-9
        )
