"""Linear-programming formulations of the Replica Placement problem.

Paper Section 5 formulates the problem as an integer linear program for each
of the three access policies, including QoS and bandwidth constraints, and
Section 7.1 derives the lower bound used as the reference of every
experiment: the **Multiple** formulation with integer placement variables
``x_j`` but rational assignment variables ``y_{i,j}``.

This package reproduces those formulations on top of
:func:`scipy.optimize.milp` / :func:`scipy.optimize.linprog` (HiGHS), which
substitutes for the GLPK solver used by the authors -- the mathematical
programs are identical, only the backend differs.

scipy is imported on the first LP assembly or solve, never by importing
this package: the IPFP bound is pure numpy and never imports it, so
processes that only solve, serve or bound with ``method="ipfp"`` do not
pay scipy's import time and memory (``repro doctor`` reports whether it is
installed without importing it).

Contents
--------
* :mod:`repro.lp.variables` -- variable indexing (``x_j`` and sparse
  ``y_{i,j}`` restricted to QoS-eligible ancestors);
* :mod:`repro.lp.formulation` -- objective and constraint assembly for the
  single-server (Closest / Upwards) and multiple-server formulations;
* :mod:`repro.lp.solver` -- thin wrappers around the scipy backends;
* :mod:`repro.lp.bounds` -- the paper's refined lower bound and the fully
  rational relaxation;
* :mod:`repro.lp.ipfp` -- the fast iterative-proportional-fitting
  Lagrangian bound on the transportation relaxation (``method="ipfp"``);
* :mod:`repro.lp.exact` -- exact ILP solutions (small instances), returning
  regular :class:`~repro.core.solution.Solution` objects.
"""

from repro.lp.variables import VariableSpace
from repro.lp.formulation import (
    LinearProgramData,
    build_program,
    build_program_reference,
)
from repro.lp.solver import LPResult, solve_program
from repro.lp.bounds import (
    LowerBoundResult,
    bound_for_program,
    bound_program,
    lp_lower_bound,
    rational_relaxation_bound,
)
from repro.lp.ipfp import (
    IPFPConfig,
    IPFPProgram,
    ipfp_bound,
    ipfp_defaults,
    ipfp_program,
)
from repro.lp.exact import exact_solution, exact_cost

__all__ = [
    "IPFPConfig",
    "IPFPProgram",
    "ipfp_bound",
    "ipfp_defaults",
    "ipfp_program",
    "VariableSpace",
    "LinearProgramData",
    "build_program",
    "build_program_reference",
    "LPResult",
    "solve_program",
    "lp_lower_bound",
    "rational_relaxation_bound",
    "bound_for_program",
    "bound_program",
    "LowerBoundResult",
    "exact_solution",
    "exact_cost",
]
