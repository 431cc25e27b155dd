"""Assembly of the (integer) linear programs of paper Section 5.

Two formulations are produced by :func:`build_program`:

**Single server** (Closest and Upwards policies)
    ``y_{i,j}`` is a boolean meaning "``j`` is the server of client ``i``".

    * every client has exactly one server: ``sum_j y_{i,j} = 1``;
    * server capacity: ``sum_i r_i y_{i,j} <= W_j x_j``;
    * bandwidth (optional): ``sum r_i y_{i,j} <= BW_l`` over the pairs whose
      traffic crosses link ``l``;
    * *Closest* only: a client ``i`` served by ``j`` forbids any client of
      ``subtree(j)`` from being served by a strict ancestor of ``j``, i.e.
      ``y_{i,j} + sum_{j' strict ancestor of j} y_{i',j'} <= 1``.

**Multiple servers**
    ``y_{i,j}`` is the (integer) number of requests of ``i`` processed by
    ``j``.

    * request conservation: ``sum_j y_{i,j} = r_i``;
    * server capacity: ``sum_i y_{i,j} <= W_j x_j``;
    * bandwidth (optional): ``sum y_{i,j} <= BW_l`` over pairs crossing ``l``.

QoS constraints are handled upstream by simply not creating the variables of
non-eligible (client, server) pairs (see :mod:`repro.lp.variables`), which is
equivalent to the paper's ``dist(i,j) y_{i,j} <= q_i`` constraints.

The objective is always the total storage cost ``sum_j s_j x_j``.

Assembly strategy
-----------------

:func:`build_program` emits the sparse matrix as bulk COO/CSR triplets
gathered from the contiguous spans of the
:class:`~repro.lp.variables.VariableSpace` layout: the coverage block is one
masked gather over the client-major pair run, the capacity block scatters
the server-grouped pair permutation around the interleaved ``x`` columns,
each bandwidth row is a span slice of the pairs below the link filtered by
server depth, and the Closest exclusion rows are suffix runs of the other
clients' pair spans.  Row labels are built lazily (only error paths and
tests read them).  :func:`build_program_reference` keeps the original
row-by-row builder: it is the oracle the equivalence suite pins
:func:`build_program` against bit for bit, and the fallback for constraint
subclasses whose eligibility is not a bottom-up prefix chain.

For dynamic-workload epoch sequences,
:meth:`LinearProgramData.with_requests` re-targets an already-assembled
program to a rate-only epoch fork without re-assembling anything
structural, mirroring :meth:`repro.core.tree.TreeNetwork.with_requests` /
:meth:`repro.core.index.TreeIndex.patched` one layer up.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.lp.variables import VariableSpace

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["LinearProgramData", "build_program", "build_program_reference"]


class LinearProgramData:
    """A fully-assembled linear program ready for :mod:`repro.lp.solver`.

    Attributes
    ----------
    objective:
        Cost vector ``c`` (minimisation).
    constraint_matrix, lower, upper:
        Sparse constraint matrix ``A`` with row bounds ``lower <= A v <= upper``.
    variable_lower, variable_upper:
        Per-variable bounds.
    integrality:
        Per-variable integrality flags (1 = integer, 0 = continuous), in the
        format expected by :func:`scipy.optimize.milp`.
    space:
        The variable indexing used to build the program.
    policy:
        The access policy encoded by the constraints.
    labels:
        Per-row human-readable labels; built lazily on first access for
        vectorised programs (only error reporting and tests read them).
    """

    __slots__ = (
        "objective",
        "constraint_matrix",
        "lower",
        "upper",
        "variable_lower",
        "variable_upper",
        "integrality",
        "space",
        "policy",
        "_labels",
        "_label_factory",
        "_coverage_rows",
        "_request_entries",
        "_split_rows",
        "_split_matrices",
    )

    def __init__(
        self,
        objective: np.ndarray,
        constraint_matrix: sparse.csr_matrix,
        lower: np.ndarray,
        upper: np.ndarray,
        variable_lower: np.ndarray,
        variable_upper: np.ndarray,
        integrality: np.ndarray,
        space: VariableSpace,
        policy: Policy,
        labels: Optional[List[str]] = None,
        label_factory: Optional[Callable[[], List[str]]] = None,
    ):
        self.objective = objective
        self.constraint_matrix = constraint_matrix
        self.lower = lower
        self.upper = upper
        self.variable_lower = variable_lower
        self.variable_upper = variable_upper
        self.integrality = integrality
        self.space = space
        self.policy = policy
        self._labels = labels if labels is not None or label_factory is not None else []
        self._label_factory = label_factory
        #: number of leading conservation rows (rate-dependent RHS targets).
        self._coverage_rows: Optional[int] = None
        #: ``(data_positions, pair_ids)`` of the nnz entries whose coefficient
        #: equals the pair's request rate (single-server programs only).
        self._request_entries: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: cached eq/ub/lb row split (and its row blocks) for the pure-LP
        #: backend; structural, hence shared by rate-only epoch patches.
        self._split_rows: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._split_matrices = None

    # ------------------------------------------------------------------ #
    @property
    def labels(self) -> List[str]:
        """Per-row labels, materialised on first access."""
        if self._labels is None:
            self._labels = self._label_factory()
        return self._labels

    @property
    def num_variables(self) -> int:
        """Number of columns of the program."""
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        """Number of rows of the program."""
        return self.constraint_matrix.shape[0]

    # ------------------------------------------------------------------ #
    def with_integrality(
        self, *, integral_placement: bool, integral_assignment: bool
    ) -> "LinearProgramData":
        """Return a copy with different integrality requirements.

        Used to derive the paper's lower bound (integer ``x``, rational
        ``y``) and the fully rational relaxation from the exact ILP.
        """
        integrality = np.zeros(self.num_variables)
        if integral_placement:
            integrality[: self.space.num_x] = 1
        if integral_assignment:
            integrality[self.space.num_x :] = 1
        program = LinearProgramData(
            objective=self.objective,
            constraint_matrix=self.constraint_matrix,
            lower=self.lower,
            upper=self.upper,
            variable_lower=self.variable_lower,
            variable_upper=self.variable_upper,
            integrality=integrality,
            space=self.space,
            policy=self.policy,
            labels=self._labels,
            label_factory=self._label_factory,
        )
        program._coverage_rows = self._coverage_rows
        program._request_entries = self._request_entries
        program._split_rows = self._split_rows
        program._split_matrices = self._split_matrices
        return program

    # ------------------------------------------------------------------ #
    def with_requests(self, problem: ReplicaPlacementProblem) -> "LinearProgramData":
        """Re-target this program to a rate-only epoch fork of its problem.

        The constraint sparsity, objective, integrality and labels are
        shared verbatim; only the rate-dependent values are rewritten:

        * **Multiple** formulation -- the matrix itself is rate-independent
          and reused as-is; the conservation targets (``lower``/``upper`` of
          the coverage rows) and the ``y`` variable uppers are re-gathered.
        * **Single-server** formulations -- coefficients equal to ``r_i``
          (capacity and bandwidth entries) are rewritten in place of a
          copied data vector; indices/indptr are shared.

        Raises
        ------
        ValueError
            When the diff against the program's problem is not rate-only
            (topology, capacities, links, constraints or cost mode moved),
            when a client's rate crossed zero (the row pattern would
            change), or for a *single-server* program built by the
            reference builder (which records no coefficient->pair map;
            reference-built Multiple programs patch fine, their matrix
            being rate-independent).  Callers fall back to a fresh
            :func:`build_program`.
        """
        from repro.algorithms.incremental import diff_problems

        space = self.space
        delta = diff_problems(space.problem, problem)
        if not (delta.unchanged or delta.rates_only):
            raise ValueError(
                "with_requests requires a rate-only epoch diff "
                "(topology/capacity/constraint changes need a rebuild)"
            )
        if self._coverage_rows is None:
            raise ValueError(
                "this program was not built by the vectorised assembler; "
                "rebuild it with build_program"
            )
        single = self.policy.single_server
        if single and self._request_entries is None:
            raise ValueError(
                "single-server patching needs the request-entry map; rebuild"
            )

        new_space = space.patched(problem)
        old_active = space.client_requests > 0.0
        new_active = new_space.client_requests > 0.0
        if not np.array_equal(old_active, new_active):
            raise ValueError(
                "a client's request rate crossed zero; the conservation row "
                "pattern changed and the program must be rebuilt"
            )

        lower, upper = self.lower, self.upper
        variable_upper = self.variable_upper
        matrix = self.constraint_matrix
        if single:
            from scipy import sparse

            positions, pair_ids = self._request_entries
            data = matrix.data.copy()
            data[positions] = new_space.pair_requests[pair_ids]
            matrix = sparse.csr_matrix(
                (data, matrix.indices, matrix.indptr), shape=matrix.shape, copy=False
            )
        else:
            n_cov = self._coverage_rows
            targets = new_space.client_requests[new_active]
            lower = lower.copy()
            lower[:n_cov] = targets
            upper = upper.copy()
            upper[:n_cov] = targets
            variable_upper = variable_upper.copy()
            variable_upper[space.num_x :] = np.where(
                new_space.pair_requests > 0.0, new_space.pair_requests, 0.0
            )

        program = LinearProgramData(
            objective=self.objective,
            constraint_matrix=matrix,
            lower=lower,
            upper=upper,
            variable_lower=self.variable_lower,
            variable_upper=variable_upper,
            integrality=self.integrality,
            space=new_space,
            policy=self.policy,
            labels=self._labels,
            label_factory=self._label_factory,
        )
        program._coverage_rows = self._coverage_rows
        program._request_entries = self._request_entries
        program._split_rows = self._split_rows
        if matrix is self.constraint_matrix:
            program._split_matrices = self._split_matrices
        return program

    # ------------------------------------------------------------------ #
    def shares_structure_with(self, other: "LinearProgramData") -> bool:
        """Whether this program shares its structural arrays with ``other``.

        ``True`` exactly for programs related through :meth:`with_requests`
        or :meth:`with_integrality`: the objective vector, the sparsity
        pattern (CSR ``indices``/``indptr``) and the variable pair layout
        of the :class:`~repro.lp.variables.VariableSpace` are then the
        *same objects*, not equal copies (epoch forks get a patched
        :class:`~repro.core.index.TreeIndex` but share every structural
        array).  The session layer's tests and benchmarks use this to prove
        that rate-only epoch steps patched the resident program instead of
        rebuilding it.
        """
        mine, theirs = self.constraint_matrix, other.constraint_matrix
        return (
            self.objective is other.objective
            and mine.indices is theirs.indices
            and mine.indptr is theirs.indptr
            and self.space.pair_client_pos is other.space.pair_client_pos
        )

    # ------------------------------------------------------------------ #
    def linprog_split(self):
        """Cached eq/ub/lb row split for the one-sided ``linprog`` backend.

        Returns ``((eq_rows, ub_rows, lb_rows), (a_eq, a_ub))``.  The split
        is structural (which rows are equalities never depends on the rate
        values), so epoch patches built by :meth:`with_requests` inherit it
        instead of re-slicing the matrix per epoch.
        """
        if self._split_rows is None:
            lower, upper = self.lower, self.upper
            close = np.isclose(lower, upper)
            self._split_rows = (
                np.where(close)[0],
                np.where(~close & np.isfinite(upper))[0],
                np.where(~close & np.isfinite(lower))[0],
            )
        if self._split_matrices is None:
            from scipy import sparse

            eq_rows, ub_rows, lb_rows = self._split_rows
            matrix = self.constraint_matrix.tocsr()
            a_eq = matrix[eq_rows] if len(eq_rows) else None
            blocks = []
            if len(ub_rows):
                blocks.append(matrix[ub_rows])
            if len(lb_rows):
                blocks.append(-matrix[lb_rows])
            a_ub = sparse.vstack(blocks) if blocks else None
            self._split_matrices = (a_eq, a_ub)
        return self._split_rows, self._split_matrices


# --------------------------------------------------------------------------- #
# vectorised assembly
# --------------------------------------------------------------------------- #
def build_program(
    problem: ReplicaPlacementProblem,
    policy: Policy,
    *,
    integral_placement: bool = True,
    integral_assignment: bool = True,
    closest_constraint_limit: Optional[int] = 200_000,
) -> LinearProgramData:
    """Build the (I)LP of ``problem`` under ``policy`` (bulk assembly).

    Parameters
    ----------
    integral_placement, integral_assignment:
        Whether the ``x`` (resp. ``y``) variables are required to be integer.
        The exact ILP uses ``True``/``True``; the paper's refined lower bound
        uses ``True``/``False``; the fully rational relaxation uses
        ``False``/``False``.
    closest_constraint_limit:
        Safety cap on the number of Closest-specific rows (the pairwise
        exclusion constraints grow cubically); exceeded limits raise
        :class:`ValueError`.

    The produced program is bit-identical (canonical CSR, bounds,
    integrality, labels) to :func:`build_program_reference`; the equivalence
    suite pins the two to each other.
    """
    policy = Policy.parse(policy)
    space = VariableSpace(problem)
    if policy is Policy.CLOSEST and not space.prefix_chains:
        # A custom constraint subclass broke the prefix-chain property the
        # Closest suffix arithmetic relies on: use the row-by-row oracle.
        return build_program_reference(
            problem,
            policy,
            integral_placement=integral_placement,
            integral_assignment=integral_assignment,
            closest_constraint_limit=closest_constraint_limit,
            _space=space,
        )

    tree = problem.tree
    index = space.index
    single = policy.single_server
    num_x = space.num_x
    num_pairs = space.num_y

    cols_parts: List[np.ndarray] = []
    data_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    lower_parts: List[np.ndarray] = []
    upper_parts: List[np.ndarray] = []
    nnz = 0

    def append_block(cols, data, counts, lower, upper) -> int:
        """Queue a block of rows; returns its offset into the data vector."""
        nonlocal nnz
        offset = nnz
        cols_parts.append(cols)
        data_parts.append(data)
        count_parts.append(counts)
        lower_parts.append(lower)
        upper_parts.append(upper)
        nnz += len(cols)
        return offset

    # ------------------------------------------------------------------ #
    # objective
    # ------------------------------------------------------------------ #
    objective = np.zeros(space.num_variables)
    objective[:num_x] = space.storage_costs

    creq = space.client_requests
    active = creq > 0.0
    pair_counts = space.client_pair_end - space.client_pair_start

    # request-coefficient map for single-server epoch patching
    req_pos_parts: List[np.ndarray] = []
    req_pair_parts: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # per-client conservation (zero-request clients impose nothing; their
    # variables are forced to 0 through the bounds below)
    # ------------------------------------------------------------------ #
    cov_cols = num_x + np.flatnonzero(active[space.pair_client_pos])
    n_cov = int(np.count_nonzero(active))
    targets = np.ones(n_cov) if single else creq[active]
    append_block(
        cov_cols,
        np.ones(cov_cols.size),
        pair_counts[active],
        targets,
        targets,
    )

    # ------------------------------------------------------------------ #
    # server capacities:  sum_i (r_i) y_{i,j} - W_j x_j <= 0
    # ------------------------------------------------------------------ #
    order, server_counts = space.server_grouping
    cap_cols = np.empty(num_pairs + num_x, dtype=np.intp)
    cap_data = np.empty(num_pairs + num_x)
    # Grouped by ascending server position, each pair entry lands after the
    # x entries of the servers laid out before it; the x entry of server j
    # follows all of its own pairs.
    pos_pairs = np.arange(num_pairs, dtype=np.intp) + space.pair_server_pos[order]
    pos_x = np.cumsum(server_counts, dtype=np.intp) + np.arange(num_x, dtype=np.intp)
    cap_cols[pos_pairs] = num_x + order
    cap_cols[pos_x] = np.arange(num_x, dtype=np.intp)
    cap_data[pos_pairs] = space.pair_requests[order] if single else 1.0
    cap_data[pos_x] = -space.node_capacities
    cap_offset = append_block(
        cap_cols,
        cap_data,
        server_counts + 1,
        np.full(num_x, -math.inf),
        np.zeros(num_x),
    )
    if single:
        req_pos_parts.append(cap_offset + pos_pairs)
        req_pair_parts.append(order)

    # ------------------------------------------------------------------ #
    # bandwidth constraints (expressed directly over the y variables)
    # ------------------------------------------------------------------ #
    bandwidth_links: List[Tuple[object, object]] = []
    if problem.constraints.enforce_bandwidth:
        starts, ends = space.client_pair_start, space.client_pair_end
        depth_pairs = space.pair_server_depth
        client_pos = index.client_pos
        node_pos = index.node_pos
        node_depth = index.node_depth
        span_start, span_end = index.client_span_start, index.client_span_end
        ones = np.ones(0)
        for (child, parent), bandwidth in zip(tree.link_keys, tree.column("bandwidth")):
            if not math.isfinite(bandwidth):
                continue
            ci = client_pos.get(child)
            if ci is not None:
                # A client uplink: every eligible server sits at or above
                # the link's parent, so all of the client's pairs cross.
                lo, hi = int(starts[ci]), int(ends[ci])
                if hi <= lo:
                    continue
                pair_sel = np.arange(lo, hi, dtype=np.intp)
            else:
                ni = node_pos[child]
                cs, ce = span_start[ni], span_end[ni]
                if cs >= ce:
                    continue
                # Pairs of the subtree's clients form one contiguous run;
                # the crossing ones have their server strictly above the
                # link's child endpoint.
                lo, hi = int(starts[cs]), int(ends[ce - 1])
                if hi <= lo:
                    continue
                sel = np.flatnonzero(depth_pairs[lo:hi] < node_depth[ni])
                if not sel.size:
                    continue
                pair_sel = lo + sel
            if len(ones) != pair_sel.size:
                ones = np.ones(pair_sel.size)
            offset = append_block(
                num_x + pair_sel,
                space.pair_requests[pair_sel] if single else ones,
                np.array([pair_sel.size], dtype=np.intp),
                np.array([-math.inf]),
                np.array([bandwidth]),
            )
            if single:
                req_pos_parts.append(offset + np.arange(pair_sel.size, dtype=np.intp))
                req_pair_parts.append(pair_sel)
            bandwidth_links.append((child, parent))

    # ------------------------------------------------------------------ #
    # Closest-specific exclusion constraints
    # ------------------------------------------------------------------ #
    closest_meta: Optional[Tuple[np.ndarray, np.ndarray]] = None
    if policy is Policy.CLOSEST:
        y_list: List[int] = []
        s_list: List[int] = []
        e_list: List[int] = []
        # Per-element access dominates these scans: plain lists beat numpy.
        starts_l = space.client_pair_start.tolist()
        ends_l = space.client_pair_end.tolist()
        server_pos_l = space.pair_server_pos.tolist()
        active_l = active.tolist()
        client_depth = index.client_depth
        node_depth = index.node_depth
        span_start, span_end = index.client_span_start, index.client_span_end
        added = 0
        for ci in range(index.n_clients):
            if not active_l[ci]:
                continue
            for p in range(starts_l[ci], ends_l[ci]):
                server = server_pos_l[p]
                depth_j = node_depth[server]
                for other in range(span_start[server], span_end[server]):
                    if other == ci or not active_l[other]:
                        continue
                    lo, hi = starts_l[other], ends_l[other]
                    # The other's pairs strictly above j are the suffix past
                    # its first (depth(other) - depth(j)) chain entries.
                    lo += client_depth[other] - depth_j
                    if lo >= hi:
                        continue
                    y_list.append(num_x + p)
                    s_list.append(lo)
                    e_list.append(hi)
                    added += 1
                    if (
                        closest_constraint_limit is not None
                        and added > closest_constraint_limit
                    ):
                        raise ValueError(
                            "the Closest ILP exceeds the configured constraint "
                            f"limit ({closest_constraint_limit}); use a smaller "
                            "instance or the Multiple lower bound instead"
                        )
        if y_list:
            y_arr = np.asarray(y_list, dtype=np.intp)
            s_arr = np.asarray(s_list, dtype=np.intp)
            e_arr = np.asarray(e_list, dtype=np.intp)
            row_counts = e_arr - s_arr + 1
            total = int(row_counts.sum())
            row_offsets = np.zeros(len(y_arr), dtype=np.intp)
            np.cumsum(row_counts[:-1], out=row_offsets[1:])
            within = np.arange(total, dtype=np.intp) - np.repeat(row_offsets, row_counts)
            cols = np.repeat(s_arr - 1, row_counts) + within + num_x
            cols[row_offsets] = y_arr
            append_block(
                cols,
                np.ones(total),
                row_counts,
                np.full(len(y_arr), -math.inf),
                np.ones(len(y_arr)),
            )
            closest_meta = (y_arr, s_arr)

    # ------------------------------------------------------------------ #
    # matrix + bounds + integrality
    # ------------------------------------------------------------------ #
    cols = np.concatenate(cols_parts)
    data = np.concatenate(data_parts)
    row_counts = np.concatenate(count_parts)
    indptr = np.zeros(row_counts.size + 1, dtype=np.intp)
    np.cumsum(row_counts, out=indptr[1:])
    from scipy import sparse

    matrix = sparse.csr_matrix(
        (data, cols, indptr), shape=(row_counts.size, space.num_variables)
    )

    variable_lower = np.zeros(space.num_variables)
    variable_upper = np.empty(space.num_variables)
    variable_upper[:num_x] = 1.0
    positive = space.pair_requests > 0.0
    if single:
        variable_upper[num_x:] = positive.astype(float)
    else:
        variable_upper[num_x:] = np.where(positive, space.pair_requests, 0.0)

    integrality = np.zeros(space.num_variables)
    if integral_placement:
        integrality[:num_x] = 1
    if integral_assignment:
        integrality[num_x:] = 1

    program = LinearProgramData(
        objective=objective,
        constraint_matrix=matrix,
        lower=np.concatenate(lower_parts),
        upper=np.concatenate(upper_parts),
        variable_lower=variable_lower,
        variable_upper=variable_upper,
        integrality=integrality,
        space=space,
        policy=policy,
        label_factory=_label_factory(space, active, bandwidth_links, closest_meta),
    )
    program._coverage_rows = n_cov
    if single:
        program._request_entries = (
            np.concatenate(req_pos_parts),
            np.concatenate(req_pair_parts),
        )
    return program


def _label_factory(
    space: VariableSpace,
    active: np.ndarray,
    bandwidth_links: List[Tuple[object, object]],
    closest_meta: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Callable[[], List[str]]:
    """Deferred row-label builder (error paths and tests only)."""

    def build() -> List[str]:
        clients = space.client_ids
        nodes = space.node_ids
        pair_counts = space.client_pair_end - space.client_pair_start
        labels: List[str] = []
        for ci in np.flatnonzero(active).tolist():
            if pair_counts[ci]:
                labels.append(f"coverage[{clients[ci]!r}]")
            else:
                labels.append(f"coverage[{clients[ci]!r}] (no eligible server)")
        labels.extend(f"capacity[{nid!r}]" for nid in nodes)
        labels.extend(
            f"bandwidth[{child!r}->{parent!r}]" for child, parent in bandwidth_links
        )
        if closest_meta is not None:
            y_arr, s_arr = closest_meta
            pair_client = space.pair_client_pos
            pair_server = space.pair_server_pos
            num_x = space.num_x
            for y_col, suffix in zip(y_arr.tolist(), s_arr.tolist()):
                pair = y_col - num_x
                labels.append(
                    f"closest[{clients[pair_client[pair]]!r}"
                    f"@{nodes[pair_server[pair]]!r}"
                    f" vs {clients[pair_client[suffix]]!r}]"
                )
        return labels

    return build


# --------------------------------------------------------------------------- #
# reference (row-by-row) assembly
# --------------------------------------------------------------------------- #
class _ConstraintBuilder:
    """Accumulates sparse constraint rows one at a time."""

    def __init__(self, num_variables: int):
        self.num_variables = num_variables
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.data: List[float] = []
        self.lower: List[float] = []
        self.upper: List[float] = []
        self.labels: List[str] = []
        self._row = 0

    def add(self, entries: List[Tuple[int, float]], lower: float, upper: float, label: str) -> None:
        """Add one constraint row ``lower <= sum coeff*var <= upper``."""
        for col, coeff in entries:
            self.rows.append(self._row)
            self.cols.append(col)
            self.data.append(coeff)
        self.lower.append(lower)
        self.upper.append(upper)
        self.labels.append(label)
        self._row += 1

    def matrix(self) -> sparse.csr_matrix:
        """The assembled sparse constraint matrix."""
        from scipy import sparse

        return sparse.csr_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(self._row, self.num_variables),
        )


def build_program_reference(
    problem: ReplicaPlacementProblem,
    policy: Policy,
    *,
    integral_placement: bool = True,
    integral_assignment: bool = True,
    closest_constraint_limit: Optional[int] = 200_000,
    _space: Optional[VariableSpace] = None,
) -> LinearProgramData:
    """Row-by-row oracle implementation of :func:`build_program`.

    Kept verbatim from the original builder (modulo the shared
    :class:`VariableSpace` layout): the equivalence suite asserts
    :func:`build_program` matches it bit for bit, the speed benchmark
    measures the assembly win against it, and Closest programs under
    non-prefix constraint subclasses fall back to it.
    """
    policy = Policy.parse(policy)
    tree = problem.tree
    space = _space if _space is not None else VariableSpace(problem)
    builder = _ConstraintBuilder(space.num_variables)
    single = policy.single_server
    coverage_rows = 0

    # ------------------------------------------------------------------ #
    # objective
    # ------------------------------------------------------------------ #
    objective = np.zeros(space.num_variables)
    for node_id in space.node_ids:
        objective[space.x_index(node_id)] = problem.storage_cost(node_id)

    # ------------------------------------------------------------------ #
    # per-client conservation
    # ------------------------------------------------------------------ #
    for client_id in space.client_ids:
        requests = problem.requests(client_id)
        pairs = space.pairs_for_client(client_id)
        if requests <= 0:
            # Zero-request clients impose nothing; force their variables to 0
            # through the bounds below.
            continue
        target = 1.0 if single else requests
        entries = [(space.y_index(c, s), 1.0) for (c, s) in pairs]
        coverage_rows += 1
        if not entries:
            # No eligible server at all: encode infeasibility explicitly with
            # an unsatisfiable empty row.
            builder.add([], target, target, f"coverage[{client_id!r}] (no eligible server)")
            continue
        builder.add(entries, target, target, f"coverage[{client_id!r}]")

    # ------------------------------------------------------------------ #
    # server capacities:  sum_i (r_i) y_{i,j} - W_j x_j <= 0
    # ------------------------------------------------------------------ #
    for node_id in space.node_ids:
        entries = []
        for client_id, server_id in space.pairs_for_server(node_id):
            weight = problem.requests(client_id) if single else 1.0
            entries.append((space.y_index(client_id, server_id), weight))
        entries.append((space.x_index(node_id), -problem.capacity(node_id)))
        builder.add(entries, -math.inf, 0.0, f"capacity[{node_id!r}]")

    # ------------------------------------------------------------------ #
    # bandwidth constraints (expressed directly over the y variables)
    # ------------------------------------------------------------------ #
    if problem.constraints.enforce_bandwidth:
        for (child, parent), bandwidth in zip(tree.link_keys, tree.column("bandwidth")):
            if not math.isfinite(bandwidth):
                continue
            # Clients whose traffic may cross this link: those in the subtree
            # hanging below the link's child endpoint.
            if tree.is_client(child):
                crossing_clients = (child,)
            else:
                crossing_clients = tree.subtree_clients(child)
            entries = []
            for client_id in crossing_clients:
                for server_id in problem.eligible_servers(client_id):
                    # The request crosses the link iff its server sits at the
                    # link's parent endpoint or higher.
                    if server_id != parent and server_id not in tree.ancestors(parent):
                        continue
                    if not space.has_pair(client_id, server_id):
                        continue
                    weight = problem.requests(client_id) if single else 1.0
                    entries.append((space.y_index(client_id, server_id), weight))
            if entries:
                builder.add(
                    entries,
                    -math.inf,
                    bandwidth,
                    f"bandwidth[{child!r}->{parent!r}]",
                )

    # ------------------------------------------------------------------ #
    # Closest-specific exclusion constraints
    # ------------------------------------------------------------------ #
    if policy is Policy.CLOSEST:
        added = 0
        for client_id in space.client_ids:
            if problem.requests(client_id) <= 0:
                continue
            for server_id in problem.eligible_servers(client_id):
                if not space.has_pair(client_id, server_id):
                    continue
                strict_ancestors = tree.ancestors(server_id)
                for other_id in tree.subtree_clients(server_id):
                    if other_id == client_id or problem.requests(other_id) <= 0:
                        continue
                    entries = [(space.y_index(client_id, server_id), 1.0)]
                    involved = False
                    for upper_id in strict_ancestors:
                        if space.has_pair(other_id, upper_id):
                            entries.append((space.y_index(other_id, upper_id), 1.0))
                            involved = True
                    if not involved:
                        continue
                    builder.add(
                        entries,
                        -math.inf,
                        1.0,
                        f"closest[{client_id!r}@{server_id!r} vs {other_id!r}]",
                    )
                    added += 1
                    if closest_constraint_limit is not None and added > closest_constraint_limit:
                        raise ValueError(
                            "the Closest ILP exceeds the configured constraint "
                            f"limit ({closest_constraint_limit}); use a smaller "
                            "instance or the Multiple lower bound instead"
                        )

    # ------------------------------------------------------------------ #
    # variable bounds and integrality
    # ------------------------------------------------------------------ #
    variable_lower = np.zeros(space.num_variables)
    variable_upper = np.empty(space.num_variables)
    variable_upper[: space.num_x] = 1.0
    for client_id, server_id in space.pairs:
        index = space.y_index(client_id, server_id)
        requests = problem.requests(client_id)
        if requests <= 0:
            variable_upper[index] = 0.0
        else:
            variable_upper[index] = 1.0 if single else requests

    integrality = np.zeros(space.num_variables)
    if integral_placement:
        integrality[: space.num_x] = 1
    if integral_assignment:
        integrality[space.num_x :] = 1

    program = LinearProgramData(
        objective=objective,
        constraint_matrix=builder.matrix(),
        lower=np.array(builder.lower),
        upper=np.array(builder.upper),
        variable_lower=variable_lower,
        variable_upper=variable_upper,
        integrality=integrality,
        space=space,
        policy=policy,
        labels=builder.labels,
    )
    program._coverage_rows = coverage_rows
    return program
