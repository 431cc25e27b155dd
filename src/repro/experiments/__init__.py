"""Experiment harness reproducing the paper's evaluation (Section 7).

* :mod:`repro.experiments.metrics` -- the success-rate and relative-cost
  metrics of Section 7.2;
* :mod:`repro.experiments.harness` -- campaign runner: generate random
  trees for a load sweep, run every heuristic and the LP lower bound,
  collect per-instance records;
* :mod:`repro.experiments.figures` -- regeneration of Figures 9-12 (success
  rate and relative cost, homogeneous and heterogeneous);
* :mod:`repro.experiments.tables` -- the Table 1 complexity-validation
  experiment and the Section 3 example table;
* :mod:`repro.experiments.ablations` -- ablation studies on the design
  choices of the heuristics and of the lower bound;
* :mod:`repro.experiments.reporting` -- ASCII tables and CSV export.

The package's public names resolve on first use.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.experiments.metrics": (
            "success_rate",
            "relative_cost",
            "RelativeCostAccumulator",
        ),
        "repro.experiments.harness": (
            "CampaignConfig",
            "InstanceRecord",
            "CampaignResult",
            "run_campaign",
        ),
        "repro.experiments.figures": (
            "FigureSeries",
            "figure9_homogeneous_success",
            "figure10_homogeneous_cost",
            "figure11_heterogeneous_success",
            "figure12_heterogeneous_cost",
        ),
        "repro.experiments.reporting": ("ascii_table", "series_table", "format_float"),
    },
)

__all__ = [
    "success_rate",
    "relative_cost",
    "RelativeCostAccumulator",
    "CampaignConfig",
    "InstanceRecord",
    "CampaignResult",
    "run_campaign",
    "FigureSeries",
    "figure9_homogeneous_success",
    "figure10_homogeneous_cost",
    "figure11_heterogeneous_success",
    "figure12_heterogeneous_cost",
    "ascii_table",
    "series_table",
    "format_float",
]
