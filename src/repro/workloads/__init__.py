"""Workload generation: random trees, request distributions, reference trees.

* :mod:`repro.workloads.generator` -- the seeded random tree generator used
  by the experiment campaigns (paper Section 7.2: random trees of size
  ``15 <= s <= 400`` with a target load ``lambda``);
* :mod:`repro.workloads.distributions` -- request/capacity distributions
  used to populate generated trees, plus inhomogeneous-Poisson arrival
  samplers (thinning and inversion) behind the serving load harness;
* :mod:`repro.workloads.reference_trees` -- the hand-built trees of the
  paper's motivating examples and NP-completeness reductions (Figures 1-5,
  7 and 8);
* :mod:`repro.workloads.dynamic` -- request-rate trajectories (steps, ramps,
  seasonal cycles, random churn, client join/leave, capacity incidents)
  turning one base instance into a sequence of epochs for the incremental
  re-solver;
* :mod:`repro.workloads.traces` -- trace-driven workloads: ingest real
  timestamped request logs (CSV/JSONL), detect epoch boundaries where the
  traffic actually moves, estimate per-client rates and replay the trace
  as epoch trajectories and IPPP arrival schedules.

The package's public names resolve on first use, so ``from
repro.workloads import TreeGenerator`` loads the generator alone, not the
trace ingester.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.workloads.generator": (
            "GeneratorConfig",
            "TreeGenerator",
            "generate_tree",
            "generate_campaign",
        ),
        "repro.workloads.distributions": (
            "inversion_poisson_arrivals",
            "poisson_arrivals",
            "sinusoidal_intensity",
            "thinned_poisson_arrivals",
            "uniform_requests",
            "uniform_capacities",
            "heterogeneous_capacities",
            "zipf_requests",
        ),
        "repro.workloads.reference_trees": ("reference_trees",),
        "repro.workloads.dynamic": (
            "capacity_incident",
            "client_join_leave",
            "ramp",
            "rate_churn",
            "seasonal",
            "step_change",
        ),
        "repro.workloads.traces": (
            "Trace",
            "TimeIndexer",
            "TraceEpochs",
            "TraceSummary",
            "detect_epochs",
            "fixed_epochs",
            "load_trace",
            "sample_trace",
        ),
    },
)

__all__ = [
    "Trace",
    "TimeIndexer",
    "TraceEpochs",
    "TraceSummary",
    "detect_epochs",
    "fixed_epochs",
    "load_trace",
    "sample_trace",
    "capacity_incident",
    "client_join_leave",
    "ramp",
    "rate_churn",
    "seasonal",
    "step_change",
    "GeneratorConfig",
    "TreeGenerator",
    "generate_tree",
    "generate_campaign",
    "uniform_requests",
    "uniform_capacities",
    "heterogeneous_capacities",
    "zipf_requests",
    "poisson_arrivals",
    "thinned_poisson_arrivals",
    "inversion_poisson_arrivals",
    "sinusoidal_intensity",
    "reference_trees",
]
