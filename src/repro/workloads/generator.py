"""Random tree generator for the experiment campaigns.

Paper Section 7.2 evaluates the heuristics on randomly generated trees with

* problem size ``15 <= s <= 400`` (``s = |C| + |N|``),
* a target load ``lambda = sum_i r_i / sum_j W_j`` swept from 0.1 to 0.9,
* homogeneous or heterogeneous node capacities.

The authors' generator is not published; :class:`TreeGenerator` reproduces
those structural knobs with a seeded :class:`numpy.random.Generator`:

1. a random recursive tree is drawn over the internal nodes (every new node
   attaches to a uniformly-chosen existing node, subject to a branching
   limit);
2. every client leaf attaches to a uniformly-chosen internal node;
3. capacities are homogeneous (a single server class) or drawn from a small
   set of server classes;
4. request rates are drawn from a pluggable distribution and then rescaled
   (largest-remainder rounding) so the realised load matches the requested
   ``lambda`` exactly up to integer rounding.

Because results in the paper are reported as per-``lambda`` aggregates over
30 random trees, matching the distribution parameters is what matters for
reproducing the figures, not matching the authors' exact instances.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tree import TreeNetwork
from repro.workloads.distributions import (
    heterogeneous_capacities,
    uniform_capacities,
    uniform_requests,
)

__all__ = [
    "GeneratorConfig",
    "TreeGenerator",
    "generate_tree",
    "large_tree",
    "generate_campaign",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of a random tree draw.

    Parameters
    ----------
    size:
        Target problem size ``s = |C| + |N|``.
    target_load:
        Desired load factor ``lambda``.
    homogeneous:
        Single server class (``True``) or mixed classes (``False``).
    base_capacity:
        Capacity of the single class on homogeneous platforms.
    capacity_choices:
        Server classes drawn from on heterogeneous platforms.
    client_fraction:
        Fraction of the ``size`` elements that are clients.
    max_children:
        Maximum number of *internal* children per internal node (clients do
        not count against the limit).
    client_attachment:
        ``"spread"`` (default) attaches clients to the internal nodes without
        internal children, balancing the number of clients per node -- the
        natural shape of a distribution tree whose end users are spread over
        the edge servers; ``"leaves"`` picks a random edge node per client;
        ``"uniform"`` lets any internal node (including the root) have client
        children, which produces markedly harder instances for the top-down
        heuristics.
    request_low, request_high:
        Range of the raw per-client request draw before rescaling to the
        target load.
    qos_hops:
        When set, every client receives a hop-count QoS bound drawn
        uniformly from this inclusive range (used by the QoS extension
        experiments); ``None`` leaves QoS unbounded.
    link_comm_time:
        Communication time attached to every link.
    link_bandwidth:
        When set, every link carries this finite bandwidth (used by the
        bandwidth-constrained LP experiments and benchmarks); ``None``
        leaves links uncapacitated (``math.inf``).
    link_metrics:
        When ``True``, every link is annotated with multi-metric QoS
        attributes (:class:`~repro.qos.metrics.QoSMetrics`: latency
        jittered around ``link_comm_time``, plus jitter/loss/bandwidth
        draws via :func:`repro.qos.metrics.annotate_tree`), ready for
        :class:`~repro.core.constraints.ClassedConstraintSet` instances.
    """

    size: int = 50
    target_load: float = 0.5
    homogeneous: bool = True
    base_capacity: float = 100.0
    capacity_choices: Sequence[float] = (50.0, 100.0, 200.0, 400.0)
    client_fraction: float = 0.7
    max_children: int = 3
    client_attachment: str = "spread"
    request_low: int = 1
    request_high: int = 20
    qos_hops: Optional[Tuple[int, int]] = None
    link_comm_time: float = 1.0
    link_bandwidth: Optional[float] = None
    link_metrics: bool = False

    def __post_init__(self) -> None:
        if self.size < 3:
            raise ValueError("a meaningful instance needs at least 3 elements")
        if not 0.0 < self.target_load:
            raise ValueError("target_load must be positive")
        if not 0.0 < self.client_fraction < 1.0:
            raise ValueError("client_fraction must lie strictly between 0 and 1")
        if self.max_children < 1:
            raise ValueError("max_children must be at least 1")
        if self.client_attachment not in ("spread", "leaves", "uniform"):
            raise ValueError(
                "client_attachment must be 'spread' (balanced over the deepest "
                "internal nodes), 'leaves' (random over the deepest internal "
                "nodes) or 'uniform' (any internal node)"
            )
        if not 1 <= self.request_low <= self.request_high:
            raise ValueError("request_low/request_high must satisfy 1 <= low <= high")
        if self.link_bandwidth is not None and self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive (or None)")


class TreeGenerator:
    """Seeded random generator of :class:`~repro.core.tree.TreeNetwork` instances."""

    def __init__(self, seed: Optional[int] = None):
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def generate(
        self,
        config: GeneratorConfig,
        *,
        request_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None,
    ) -> TreeNetwork:
        """Draw one random tree matching ``config``."""
        rng = self.rng
        n_clients = max(1, int(round(config.size * config.client_fraction)))
        n_nodes = max(2, config.size - n_clients)
        n_clients = max(1, config.size - n_nodes)

        # --- topology over internal nodes (random recursive tree) -------- #
        # The candidate pool is "nodes already drawn that still have a free
        # child slot, in draw order", an ascending list: a draw indexes it,
        # a full node leaves it at the drawn index, and the new node joins
        # at the end.  It never drains (a new node has a free slot with
        # max_children >= 1), and once it holds two nodes it never shrinks
        # back to one, so every later draw takes at least one word: a
        # refill of one word per node still to attach never over-draws.
        node_names = [f"n{i}" for i in range(n_nodes)]
        parent_index_of = [-1] * n_nodes
        child_count = [0] * n_nodes
        open_nodes = [0]
        words: List[int] = []
        for index in range(1, n_nodes):
            choice = _draw_below(rng, words, len(open_nodes), n_nodes - index)
            parent_index = open_nodes[choice]
            parent_index_of[index] = parent_index
            child_count[parent_index] += 1
            if child_count[parent_index] >= config.max_children:
                del open_nodes[choice]
            open_nodes.append(index)

        # --- attach clients ---------------------------------------------- #
        # "leaves" attaches clients below the internal nodes that have no
        # internal children (the natural shape of a distribution tree, where
        # end users hang off the edge of the hierarchy); "uniform" allows any
        # internal node, including the root, to have client children.
        client_names = [f"c{i}" for i in range(n_clients)]
        if config.client_attachment in ("leaves", "spread"):
            attachment_pool = [
                name for name, count in zip(node_names, child_count) if count == 0
            ] or node_names
        else:
            attachment_pool = node_names
        client_parents: List[str] = []
        if config.client_attachment == "spread":
            # Balance the number of clients per edge node: every client goes
            # to one of the currently least-loaded pool nodes.  Those are
            # exactly the pool nodes not yet drawn at the current load level
            # (in pool order), so each level draws from a fresh copy of the
            # pool and removes the drawn node.  The draw bounds are known in
            # advance (P, P - 1, ..., 1, P, ... for a pool of P), and one
            # bulk draw over them consumes the same stream as a scalar draw
            # per client.
            pool = len(attachment_pool)
            choices = rng.integers(pool - np.arange(n_clients) % pool).tolist()
            for start in range(0, n_clients, pool):
                lightest = list(attachment_pool)
                client_parents.extend(map(lightest.pop, choices[start : start + pool]))
        else:
            # One bulk draw consumes the same stream as a scalar draw per
            # client (the pinned-digest tests hold it to that).
            draws = rng.integers(len(attachment_pool), size=n_clients).tolist()
            client_parents = list(map(attachment_pool.__getitem__, draws))

        # --- capacities --------------------------------------------------- #
        if config.homogeneous:
            capacities = uniform_capacities(rng, n_nodes, capacity=config.base_capacity)
        else:
            capacities = heterogeneous_capacities(
                rng, n_nodes, choices=config.capacity_choices
            )
        total_capacity = float(np.sum(capacities))

        # --- requests scaled to the target load --------------------------- #
        if request_sampler is not None:
            sampler = request_sampler
        else:
            def sampler(generator, count):
                return uniform_requests(
                    generator, count, low=config.request_low, high=config.request_high
                )
        raw = np.asarray(sampler(rng, n_clients), dtype=float)
        if np.sum(raw) <= 0:
            raw = np.ones(n_clients)
        requests = _scale_to_total(raw, config.target_load * total_capacity)

        # --- QoS bounds ---------------------------------------------------- #
        if config.qos_hops is not None:
            low, high = config.qos_hops
            # One bulk draw, same stream as a scalar draw per client.
            qos_bounds = list(map(float, rng.integers(low, high + 1, size=n_clients).tolist()))
        else:
            qos_bounds = array("d", [math.inf]) * n_clients

        # --- assemble ------------------------------------------------------ #
        # Straight into the tree's columns: node links first (in draw
        # order), then client links.
        bandwidth = (
            math.inf if config.link_bandwidth is None else float(config.link_bandwidth)
        )
        link_child = node_names[1:] + client_names
        link_parent = list(map(node_names.__getitem__, parent_index_of[1:])) + client_parents
        n_links = len(link_child)
        tree = TreeNetwork.from_columns(
            node_names,
            capacities,
            capacities,
            client_names,
            requests,
            qos_bounds,
            link_child,
            link_parent,
            array("d", [config.link_comm_time]) * n_links,
            array("d", [bandwidth]) * n_links,
        )
        if config.link_metrics:
            from repro.qos.metrics import annotate_tree

            # The annotation seed comes from this generator's stream, so one
            # TreeGenerator seed still pins the whole draw.
            tree = annotate_tree(tree, seed=int(rng.integers(2**31)))
        return tree

    # ------------------------------------------------------------------ #
    def generate_many(
        self, config: GeneratorConfig, count: int, **kwargs
    ) -> List[TreeNetwork]:
        """Draw ``count`` independent trees with the same configuration."""
        return [self.generate(config, **kwargs) for _ in range(count)]


_WORD = 1 << 32


def _draw_below(rng: np.random.Generator, words: List[int], n: int, refill: int) -> int:
    """``int(rng.integers(n))`` for ``1 <= n < 2**32``, from bulk-drawn words.

    numpy answers ``integers(n)`` with Lemire's multiply-shift rejection
    over the bit generator's 32-bit words: ``(w * n) >> 32``, redrawing
    while the low 32 bits fall below ``(2**32 - n) % n``; ``integers(1)``
    draws nothing.  ``integers(0, 2**32, size=k, dtype=uint32)`` yields the
    same words, the generator's buffered half-word included, so reducing
    them here consumes the stream exactly as scalar draws would.
    ``words`` holds the drawn words not yet used, next one last; when it
    runs dry, ``refill`` more are drawn, which must not exceed the words
    the remaining calls consume (each call with ``n > 1`` takes at least
    one), or the stream moves past where scalar draws would leave it.
    """
    if n == 1:
        return 0
    while True:
        if not words:
            words.extend(rng.integers(0, _WORD, size=refill, dtype=np.uint32)[::-1].tolist())
        scaled = words.pop() * n
        low = scaled & (_WORD - 1)
        if low >= n or low >= (_WORD - n) % n:
            return scaled >> 32


def _scale_to_total(raw: np.ndarray, target_total: float) -> np.ndarray:
    """Rescale ``raw`` to integers summing to ``round(target_total)``.

    Largest-remainder rounding keeps the realised load as close as possible
    to the requested ``lambda`` while producing integer request counts (the
    paper's requests are integral).  Every client keeps at least one request
    whenever the target allows it.
    """
    target = int(round(target_total))
    if target <= 0:
        return np.zeros_like(raw)
    scaled = raw / raw.sum() * target
    floors = np.floor(scaled).astype(int)
    remainder = target - int(floors.sum())
    if remainder > 0:
        order = np.argsort(-(scaled - floors))
        floors[order[:remainder]] += 1
    # Avoid zero-request clients when possible: shift one request from the
    # largest client to each empty one.  A lazy max-heap keyed
    # ``(-value, index)`` stands in for the per-empty-client ``np.argmax``
    # scan: it yields the same donor (largest value, first index on ties)
    # and running dry means every remaining value is <= 1, where the scan
    # version stopped transferring too.
    empty = np.flatnonzero(floors == 0)
    if not empty.size:
        return floors.astype(float)
    donors = [(-value, i) for i, value in enumerate(floors.tolist()) if value > 1]
    heapq.heapify(donors)
    for index in empty:
        donor = None
        while donors:
            neg_value, candidate = donors[0]
            if floors[candidate] != -neg_value:  # stale entry
                heapq.heappop(donors)
                continue
            donor = candidate
            break
        if donor is None:
            break
        floors[donor] -= 1
        floors[index] += 1
        heapq.heappop(donors)  # the donor's (validated) top entry
        if floors[donor] > 1:
            heapq.heappush(donors, (-int(floors[donor]), donor))
    return floors.astype(float)


def generate_tree(
    *,
    size: int = 50,
    target_load: float = 0.5,
    homogeneous: bool = True,
    seed: Optional[int] = None,
    **config_kwargs,
) -> TreeNetwork:
    """One-shot convenience wrapper around :class:`TreeGenerator`."""
    config = GeneratorConfig(
        size=size, target_load=target_load, homogeneous=homogeneous, **config_kwargs
    )
    return TreeGenerator(seed).generate(config)


def large_tree(
    n_clients: int = 100_000,
    *,
    target_load: float = 0.5,
    client_fraction: float = 0.9,
    seed: Optional[int] = 7,
    **config_kwargs,
) -> TreeNetwork:
    """A distribution tree with (exactly) ``n_clients`` client leaves.

    The scaling-up entry point: the generator's draws are list operations,
    so a 10^5-client tree builds in seconds -- the regime the sharded solve
    path (:func:`repro.algorithms.sharded.solve_sharded`) is built for.  The
    default ``client_fraction=0.9`` keeps the internal hierarchy an order
    of magnitude smaller than the client population, the shape of a real
    edge-distribution tree; all other :class:`GeneratorConfig` knobs pass
    through.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    n_internal = max(2, int(round(n_clients * (1.0 - client_fraction) / client_fraction)))
    size = n_clients + n_internal
    config = GeneratorConfig(
        size=size,
        target_load=target_load,
        client_fraction=n_clients / size,
        **config_kwargs,
    )
    return TreeGenerator(seed).generate(config)


def generate_campaign(
    *,
    lambdas: Iterable[float] = tuple(round(0.1 * k, 1) for k in range(1, 10)),
    trees_per_lambda: int = 30,
    size_range: Tuple[int, int] = (15, 400),
    homogeneous: bool = True,
    seed: Optional[int] = 2007,
    **config_kwargs,
) -> List[Tuple[float, TreeNetwork]]:
    """Generate the full experimental campaign of paper Section 7.2.

    Returns a list of ``(lambda, tree)`` pairs: ``trees_per_lambda`` random
    trees for every load value, with sizes drawn uniformly from
    ``size_range``.  The default parameters match the paper (9 load values,
    30 trees each, sizes 15-400); benchmarks use smaller values to stay
    laptop-friendly and expose these knobs.
    """
    generator = TreeGenerator(seed)
    low, high = size_range
    campaign: List[Tuple[float, TreeNetwork]] = []
    for load in lambdas:
        for _ in range(trees_per_lambda):
            size = int(generator.rng.integers(low, high + 1))
            config = GeneratorConfig(
                size=size,
                target_load=float(load),
                homogeneous=homogeneous,
                **config_kwargs,
            )
            campaign.append((float(load), generator.generate(config)))
    return campaign
