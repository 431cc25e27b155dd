"""Placement algorithms: the optimal greedy, the eight heuristics, baselines.

Contents
--------

* :mod:`repro.algorithms.base` -- the :class:`PlacementHeuristic` interface,
  the shared :class:`repro.algorithms.common.RequestState` bookkeeping and
  the heuristic registry;
* :mod:`repro.algorithms.common` -- the request-state engine factory
  (:func:`~repro.algorithms.common.make_state` /
  :func:`~repro.algorithms.common.use_engine`): every heuristic runs on the
  compiled :class:`repro.algorithms.native_state.NativeRequestState` (the
  default) or the paper-faithful dict engine
  :class:`~repro.algorithms.common.RequestState` (``REPRO_ENGINE=dict``
  selects it; it is also native's fallback without a C compiler), the two
  pinned to each other by the cross-validation suite;
* :mod:`repro.algorithms.multiple_homogeneous` -- the paper's optimal
  polynomial algorithm for the Multiple policy on homogeneous platforms
  (Section 4.1, Theorem 1);
* :mod:`repro.algorithms.closest` -- CTDA, CTDLF and CBU (Section 6.1);
* :mod:`repro.algorithms.upwards` -- UTD and UBCF (Section 6.2);
* :mod:`repro.algorithms.multiple` -- MTD, MBU and MG (Section 6.3);
* :mod:`repro.algorithms.mixed_best` -- the MixedBest combiner;
* :mod:`repro.algorithms.incremental` -- the epoch-by-epoch
  :class:`IncrementalResolver` for dynamic workloads (reuse / patch /
  re-solve strategies with migration accounting);
* :mod:`repro.algorithms.exhaustive` -- brute-force optimal placements for
  small instances, used to validate everything else.
"""

from repro.algorithms.base import (
    PlacementHeuristic,
    register_heuristic,
    get_heuristic,
    available_heuristics,
    heuristics_for_policy,
    solve_with,
)
from repro.algorithms.common import (
    RequestState,
    make_state,
    available_engines,
    get_default_engine,
    set_default_engine,
    use_engine,
)
from repro.algorithms.multiple_homogeneous import MultipleHomogeneousOptimal
from repro.algorithms.closest import (
    ClosestTopDownAll,
    ClosestTopDownLargestFirst,
    ClosestBottomUp,
)
from repro.algorithms.upwards import UpwardsTopDown, UpwardsBigClientFirst
from repro.algorithms.multiple import MultipleTopDown, MultipleBottomUp, MultipleGreedy
from repro.algorithms.mixed_best import MixedBest
from repro.algorithms.exhaustive import ExhaustiveSearch, optimal_cost
from repro.algorithms.incremental import (
    IncrementalResolver,
    ProblemDelta,
    ResolveStats,
    diff_problems,
    migration_stats,
)

__all__ = [
    "PlacementHeuristic",
    "register_heuristic",
    "get_heuristic",
    "available_heuristics",
    "heuristics_for_policy",
    "solve_with",
    "RequestState",
    "make_state",
    "available_engines",
    "get_default_engine",
    "set_default_engine",
    "use_engine",
    "MultipleHomogeneousOptimal",
    "ClosestTopDownAll",
    "ClosestTopDownLargestFirst",
    "ClosestBottomUp",
    "UpwardsTopDown",
    "UpwardsBigClientFirst",
    "MultipleTopDown",
    "MultipleBottomUp",
    "MultipleGreedy",
    "MixedBest",
    "ExhaustiveSearch",
    "optimal_cost",
    "IncrementalResolver",
    "ProblemDelta",
    "ResolveStats",
    "diff_problems",
    "migration_stats",
]
