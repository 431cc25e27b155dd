"""Thin wrappers around the scipy (HiGHS) LP / MILP backends.

:func:`solve_program` dispatches a :class:`~repro.lp.formulation.LinearProgramData`
to :func:`scipy.optimize.milp` when any variable is integral and to
:func:`scipy.optimize.linprog` otherwise, and normalises the outcome into an
:class:`LPResult`:

* ``status == "optimal"`` -- an optimal solution was found;
* ``status == "infeasible"`` -- the program has no feasible point (which for
  the exact ILPs means the instance has no valid replica placement);
* any other failure raises :class:`~repro.core.exceptions.SolverError`.

scipy is imported on the first LP assembly or solve in a process (here and
in :mod:`repro.lp.formulation`), not when this module is imported; the IPFP
bound (:mod:`repro.lp.ipfp`) never imports it.

Every backend call runs inside :func:`solver_output_to_stderr`.  HiGHS's
MIP solver prints some diagnostics (such as ``HighsMipSolverData::
transformNewIntegerFeasibleSolution tmpSolver.run();``) from C++ straight
to file descriptor 1, past ``sys.stdout``.  Left there, the line lands in
front of the payload of ``repro ... --json`` and, worse, between the reply
lines of ``repro serve --stdio``, where the client decodes it as a reply
and stays one reply behind for the rest of the connection.  So fd 1 points
at fd 2 while the backend runs, and the solver's output goes to stderr.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.core.exceptions import SolverError
from repro.lp.formulation import LinearProgramData

__all__ = ["LPResult", "solve_program", "solver_output_to_stderr"]

# File descriptors are process-wide, so is the redirect's bookkeeping.
_redirect_lock = threading.Lock()
_redirect_depth = 0
#: A duplicate of the original fd 1 while redirected, ``None`` otherwise
#: (also when fd 1 or fd 2 was closed and nothing was redirected).
_saved_stdout_fd: Optional[int] = None


@dataclass
class LPResult:
    """Outcome of an LP / MILP solve."""

    status: str
    objective: Optional[float]
    values: Optional[np.ndarray]
    message: str = ""

    @property
    def optimal(self) -> bool:
        """``True`` when an optimal solution is available."""
        return self.status == "optimal"

    @property
    def infeasible(self) -> bool:
        """``True`` when the program was proven infeasible."""
        return self.status == "infeasible"


@contextmanager
def solver_output_to_stderr() -> Iterator[None]:
    """Point file descriptor 1 at file descriptor 2 for the enclosed block.

    ``sys.stdout`` is flushed first, so what Python wrote before the block
    still reaches the real stdout (what it writes during the block stays
    buffered for it too, unless the buffer fills).  The first of any nested
    or concurrent blocks redirects and the last one out restores the
    original fd 1; the fd is process-wide, so while any block runs, native
    writes of every thread to fd 1 go to stderr.  With fd 1 or fd 2 closed
    this does nothing.
    """
    global _redirect_depth, _saved_stdout_fd
    with _redirect_lock:
        if _redirect_depth == 0:
            _saved_stdout_fd = _redirect_stdout()
        _redirect_depth += 1
    try:
        yield
    finally:
        with _redirect_lock:
            _redirect_depth -= 1
            if _redirect_depth == 0 and _saved_stdout_fd is not None:
                os.dup2(_saved_stdout_fd, 1)
                os.close(_saved_stdout_fd)
                _saved_stdout_fd = None


def _redirect_stdout() -> Optional[int]:
    """Point fd 1 at fd 2; return a duplicate of the old fd 1 (or ``None``)."""
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except (OSError, ValueError):  # closed or broken: nothing to keep
            pass
    try:
        os.fstat(2)
        saved = os.dup(1)
    except OSError:  # fd 1 or fd 2 is closed: nowhere to send or restore
        return None
    try:
        os.dup2(2, 1)
    except OSError:
        os.close(saved)
        return None
    return saved


def solve_program(program: LinearProgramData, *, time_limit: Optional[float] = None) -> LPResult:
    """Solve ``program`` and normalise the backend outcome.

    Parameters
    ----------
    time_limit:
        Optional wall-clock limit (seconds) forwarded to the backend (both
        the MILP and the pure-LP HiGHS paths honour it).
    """
    has_integer = bool(np.any(program.integrality > 0))
    if has_integer:
        return _solve_milp(program, time_limit)
    return _solve_linprog(program, time_limit)


def _solve_milp(program: LinearProgramData, time_limit: Optional[float]) -> LPResult:
    from scipy import optimize

    constraints = optimize.LinearConstraint(
        program.constraint_matrix, program.lower, program.upper
    )
    bounds = optimize.Bounds(program.variable_lower, program.variable_upper)
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    with solver_output_to_stderr():
        result = optimize.milp(
            c=program.objective,
            constraints=[constraints],
            integrality=program.integrality,
            bounds=bounds,
            options=options,
        )
    return _normalise(result)


def _solve_linprog(program: LinearProgramData, time_limit: Optional[float] = None) -> LPResult:
    from scipy import optimize

    # linprog only accepts one-sided inequality rows plus equality rows, so
    # split the two-sided rows of the generic formulation.  The split (and
    # its row blocks) is structural and cached on the program, so
    # epoch-patched programs built by ``with_requests`` skip the per-epoch
    # re-slicing entirely; only the RHS vectors below are re-gathered.
    (eq_rows, ub_rows, lb_rows), (a_eq, a_ub) = program.linprog_split()
    lower, upper = program.lower, program.upper

    b_eq = upper[eq_rows] if len(eq_rows) else None
    rhs = []
    if len(ub_rows):
        rhs.append(upper[ub_rows])
    if len(lb_rows):
        rhs.append(-lower[lb_rows])
    b_ub = np.concatenate(rhs) if rhs else None

    options = {}
    if time_limit is not None:
        # The rational relaxations go through this pure-LP path; dropping the
        # caller's limit here let pathological instances run unbounded.
        options["time_limit"] = float(time_limit)
    with solver_output_to_stderr():
        result = optimize.linprog(
            c=program.objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            # One (n, 2) array instead of n per-variable tuples.
            bounds=np.column_stack((program.variable_lower, program.variable_upper)),
            method="highs",
            options=options,
        )
    return _normalise(result)


def _normalise(result) -> LPResult:
    """Convert a scipy OptimizeResult into an :class:`LPResult`."""
    status = getattr(result, "status", None)
    message = getattr(result, "message", "") or ""
    if getattr(result, "success", False):
        return LPResult(
            status="optimal",
            objective=float(result.fun),
            values=np.asarray(result.x, dtype=float),
            message=message,
        )
    # scipy status codes: milp/linprog use 2 for infeasible, 3 for unbounded.
    if status == 2 or "infeasible" in message.lower():
        return LPResult(status="infeasible", objective=None, values=None, message=message)
    if status == 3 or "unbounded" in message.lower():
        return LPResult(status="unbounded", objective=None, values=None, message=message)
    raise SolverError(f"LP backend failed: status={status!r}, message={message!r}")
