"""Multi-metric QoS edge annotations and tenant service classes.

The paper's QoS model is a single per-client bound on hop count (or link
latency).  Real distribution platforms grade paths on several axes at
once -- latency, jitter, loss, residual bandwidth -- and serve *tenants*
of different priorities whose tolerance for each axis differs.  This
module provides that layer:

* :class:`QoSMetrics` -- a per-link annotation carried by
  :attr:`repro.core.tree.Link.metrics`.  Metrics compose along a path
  with :meth:`QoSMetrics.extend`: latency and jitter add, loss combines
  as ``1 - (1-a)(1-b)``, bandwidth is the path minimum.  Every component
  is therefore monotone non-decreasing (bandwidth: non-increasing)
  toward the root.
* :class:`MetricWeights` / :class:`MetricScales` -- a per-class linear
  normalisation of a path's metrics into one scalar **path score**:
  each metric is divided by its class scale (the magnitude the class
  considers "one unit of annoyance") and the weighted parts are summed.
  With non-negative weights the score inherits the metrics'
  monotonicity, which is what lets the classed constraint set ride the
  memoised threshold machinery of :class:`repro.core.index.TreeIndex`.
* :class:`ServiceClass` -- a tenant/priority class: a name, its weights
  and scales, a ``rate_multiplier`` (demand amplification applied when a
  class is carved out into its own sub-problem), a ``bandwidth_fraction``
  (the share of every link the class may use in its sub-problem) and a
  ``priority`` rank.  :data:`DEFAULT_CLASSES` ships a gold/silver/bronze
  trio.
* helpers -- :func:`annotate_tree` draws deterministic per-link metrics
  for an existing tree, :func:`path_metrics` / :func:`iter_ancestor_scores`
  evaluate paths, and :func:`split_by_class` carves a classed problem
  into per-class sub-problems with reserved bandwidth shares.

The constraint-set integration lives in
:class:`repro.core.constraints.ClassedConstraintSet`; this module stays
import-light (stdlib + :mod:`repro.core.tree`) so the core can reach it
lazily without a cycle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.tree import Link, NodeId, TreeNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import ReplicaPlacementProblem

__all__ = [
    "QoSMetrics",
    "MetricWeights",
    "MetricScales",
    "ServiceClass",
    "DEFAULT_SCALES",
    "DEFAULT_CLASSES",
    "annotate_tree",
    "iter_ancestor_scores",
    "path_metrics",
    "split_by_class",
]


def _require_finite(name: str, value: float, *, allow_inf: bool = False) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    if not allow_inf and math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class QoSMetrics:
    """One link's (or one path's) QoS measurements.

    ``latency`` and ``jitter`` are in time units and **add** along a
    path; ``loss`` is a drop probability in ``[0, 1]`` and composes as
    independent losses (``1 - (1-a)(1-b)``); ``bandwidth`` is the
    residual capacity of the link and a path carries the **minimum**
    over its links (``math.inf`` = unconstrained).
    """

    latency: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth: float = math.inf

    def __post_init__(self) -> None:
        for name in ("latency", "jitter"):
            value = _require_finite(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        loss = _require_finite("loss", self.loss)
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must lie in [0, 1], got {loss}")
        object.__setattr__(self, "loss", loss)
        bandwidth = _require_finite("bandwidth", self.bandwidth, allow_inf=True)
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        object.__setattr__(self, "bandwidth", bandwidth)

    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls) -> "QoSMetrics":
        """The neutral element of :meth:`extend` (an empty path)."""
        return cls()

    @classmethod
    def from_link(cls, link: Link) -> "QoSMetrics":
        """The link's annotation, or a fallback derived from its fields.

        Unannotated links behave like the pre-metric model: latency is
        the link's ``comm_time``, jitter and loss are zero, bandwidth is
        the link's ``bandwidth`` -- so a classed constraint set on an
        unannotated tree degrades to a weighted-latency bound.
        """
        if link.metrics is not None:
            return link.metrics
        return cls(latency=link.comm_time, bandwidth=link.bandwidth)

    def extend(self, other: "QoSMetrics") -> "QoSMetrics":
        """Compose ``self`` (a path) with ``other`` (one more link up)."""
        return QoSMetrics(
            latency=self.latency + other.latency,
            jitter=self.jitter + other.jitter,
            loss=1.0 - (1.0 - self.loss) * (1.0 - other.loss),
            bandwidth=min(self.bandwidth, other.bandwidth),
        )

    def to_dict(self) -> Dict[str, Optional[float]]:
        """JSON-compatible payload (``null`` encodes infinite bandwidth)."""
        return {
            "latency": self.latency,
            "jitter": self.jitter,
            "loss": self.loss,
            "bandwidth": None if math.isinf(self.bandwidth) else self.bandwidth,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QoSMetrics":
        bandwidth = payload.get("bandwidth", None)
        return cls(
            latency=float(payload.get("latency", 0.0)),
            jitter=float(payload.get("jitter", 0.0)),
            loss=float(payload.get("loss", 0.0)),
            bandwidth=math.inf if bandwidth is None else float(bandwidth),
        )


@dataclass(frozen=True)
class MetricWeights:
    """How much a class cares about each metric (all weights >= 0 keeps
    the path score monotone; negative weights are allowed but drop the
    instance to the per-pair fallback eligibility path)."""

    latency: float = 1.0
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        for name in ("latency", "jitter", "loss", "bandwidth"):
            object.__setattr__(
                self, name, _require_finite(name, getattr(self, name))
            )

    @property
    def monotone(self) -> bool:
        """True when every weight is non-negative (score monotone on paths)."""
        return (
            self.latency >= 0
            and self.jitter >= 0
            and self.loss >= 0
            and self.bandwidth >= 0
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "latency": self.latency,
            "jitter": self.jitter,
            "loss": self.loss,
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricWeights":
        return cls(**{k: float(v) for k, v in payload.items()})


@dataclass(frozen=True)
class MetricScales:
    """Per-class normalisation: the magnitude of each metric worth one
    score unit.  ``bandwidth`` is the floor the class wants along the
    path; paths offering less pay ``scale/offered - 1`` (scaled by the
    bandwidth weight), paths at or above the floor pay nothing."""

    latency: float = 1.0
    jitter: float = 1.0
    loss: float = 0.05
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        for name in ("latency", "jitter", "loss", "bandwidth"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} scale must be > 0, got {value}")
            object.__setattr__(self, name, value)

    def to_dict(self) -> Dict[str, float]:
        return {
            "latency": self.latency,
            "jitter": self.jitter,
            "loss": self.loss,
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricScales":
        return cls(**{k: float(v) for k, v in payload.items()})


DEFAULT_SCALES = MetricScales()


@dataclass(frozen=True)
class ServiceClass:
    """One tenant/priority class.

    ``rate_multiplier`` amplifies the class's demand when it is carved
    into its own sub-problem (headroom provisioning for high classes);
    ``bandwidth_fraction`` is the share of every link the class's
    sub-problem may use (:func:`split_by_class`); lower ``priority``
    ranks are more important.
    """

    name: str
    weights: MetricWeights = MetricWeights()
    scales: MetricScales = DEFAULT_SCALES
    rate_multiplier: float = 1.0
    bandwidth_fraction: float = 1.0
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service class name must be non-empty")
        multiplier = _require_finite("rate_multiplier", self.rate_multiplier)
        if multiplier <= 0:
            raise ValueError(f"rate_multiplier must be > 0, got {multiplier}")
        object.__setattr__(self, "rate_multiplier", multiplier)
        fraction = _require_finite("bandwidth_fraction", self.bandwidth_fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"bandwidth_fraction must lie in (0, 1], got {fraction}"
            )
        object.__setattr__(self, "bandwidth_fraction", fraction)
        object.__setattr__(self, "priority", int(self.priority))

    # ------------------------------------------------------------------ #
    @property
    def monotone(self) -> bool:
        """True when this class's path score is monotone along root paths."""
        return self.weights.monotone

    def score(self, metrics: QoSMetrics) -> float:
        """The class's scalar path score of ``metrics`` (lower is better)."""
        w, s = self.weights, self.scales
        total = 0.0
        if w.latency:
            total += w.latency * (metrics.latency / s.latency)
        if w.jitter:
            total += w.jitter * (metrics.jitter / s.jitter)
        if w.loss:
            total += w.loss * (metrics.loss / s.loss)
        if w.bandwidth:
            if math.isinf(metrics.bandwidth):
                deficit = 0.0
            else:
                deficit = max(0.0, s.bandwidth / metrics.bandwidth - 1.0)
            total += w.bandwidth * deficit
        return total

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "weights": self.weights.to_dict(),
            "scales": self.scales.to_dict(),
            "rate_multiplier": self.rate_multiplier,
            "bandwidth_fraction": self.bandwidth_fraction,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ServiceClass":
        return cls(
            name=str(payload["name"]),
            weights=MetricWeights.from_dict(payload.get("weights", {})),
            scales=MetricScales.from_dict(payload.get("scales", {})),
            rate_multiplier=float(payload.get("rate_multiplier", 1.0)),
            bandwidth_fraction=float(payload.get("bandwidth_fraction", 1.0)),
            priority=int(payload.get("priority", 0)),
        )


#: A ready-made gold/silver/bronze tenant hierarchy: gold is latency- and
#: jitter-sensitive with provisioned headroom and half the bandwidth
#: reserve, bronze tolerates everything but heavy loss.
DEFAULT_CLASSES: Tuple[ServiceClass, ...] = (
    ServiceClass(
        name="gold",
        weights=MetricWeights(latency=1.0, jitter=0.5, loss=1.0, bandwidth=0.5),
        scales=MetricScales(latency=2.0, jitter=1.0, loss=0.01, bandwidth=4.0),
        rate_multiplier=1.25,
        bandwidth_fraction=0.5,
        priority=0,
    ),
    ServiceClass(
        name="silver",
        weights=MetricWeights(latency=1.0, jitter=0.25, loss=0.5),
        scales=MetricScales(latency=4.0, jitter=2.0, loss=0.05),
        rate_multiplier=1.0,
        bandwidth_fraction=0.3,
        priority=1,
    ),
    ServiceClass(
        name="bronze",
        weights=MetricWeights(latency=1.0, loss=0.25),
        scales=MetricScales(latency=8.0, loss=0.1),
        rate_multiplier=1.0,
        bandwidth_fraction=0.2,
        priority=2,
    ),
)


# --------------------------------------------------------------------------- #
# path evaluation
# --------------------------------------------------------------------------- #
def iter_ancestor_scores(
    tree: TreeNetwork, client_id: NodeId, service_class: ServiceClass
) -> Iterator[Tuple[NodeId, float]]:
    """Yield ``(ancestor, score)`` up the root path of ``client_id``.

    The single accumulation every consumer shares: the threshold walk of
    :meth:`repro.core.index.TreeIndex.qos_depth_thresholds`, the
    per-pair metric of
    :meth:`~repro.core.constraints.ClassedConstraintSet.qos_metric` and
    the generic ``allowed_servers`` fallback all iterate this exact
    float sequence, which is what keeps the two engines bit-identical
    on classed instances.
    """
    total = QoSMetrics.identity()
    below = client_id
    for ancestor in tree.ancestors(client_id):
        total = total.extend(QoSMetrics.from_link(tree.link(below)))
        yield ancestor, service_class.score(total)
        below = ancestor


def path_metrics(
    tree: TreeNetwork, client_id: NodeId, server_id: NodeId
) -> QoSMetrics:
    """Accumulated metrics of the path from ``client_id`` up to ``server_id``."""
    total = QoSMetrics.identity()
    below = client_id
    for ancestor in tree.ancestors(client_id):
        total = total.extend(QoSMetrics.from_link(tree.link(below)))
        if ancestor == server_id:
            return total
        below = ancestor
    from repro.core.exceptions import TreeStructureError

    raise TreeStructureError(
        f"{server_id!r} is not an ancestor of {client_id!r}"
    )


# --------------------------------------------------------------------------- #
# tree annotation and per-class carving
# --------------------------------------------------------------------------- #
def annotate_tree(
    tree: TreeNetwork,
    *,
    seed: int = 0,
    latency_jitter: float = 0.5,
    jitter_high: float = 0.3,
    loss_high: float = 0.01,
    bandwidth: Optional[float] = None,
) -> TreeNetwork:
    """Return a copy of ``tree`` whose links carry drawn :class:`QoSMetrics`.

    Deterministic in ``seed`` and the tree's link set: each link's
    latency is its ``comm_time`` perturbed by up to ``latency_jitter``
    (relative), jitter and loss are uniform draws below their highs, and
    bandwidth is the link's own bandwidth unless an explicit finite
    ``bandwidth`` override is given.  Already-annotated links are
    re-drawn like the rest.
    """
    rng = random.Random(seed)
    links = []
    for link in sorted(tree.links(), key=lambda item: repr(item.key)):
        metrics = QoSMetrics(
            latency=link.comm_time * (1.0 + latency_jitter * rng.random()),
            jitter=jitter_high * rng.random(),
            loss=loss_high * rng.random(),
            bandwidth=link.bandwidth if bandwidth is None else float(bandwidth),
        )
        links.append(replace(link, metrics=metrics))
    return TreeNetwork(list(tree.nodes()), list(tree.clients()), links)


def split_by_class(
    problem: "ReplicaPlacementProblem",
    assignments: Mapping[NodeId, str],
    classes: Sequence[ServiceClass] = DEFAULT_CLASSES,
) -> Dict[str, "ReplicaPlacementProblem"]:
    """Carve a problem into independent per-class sub-problems.

    Each class keeps only its own clients' demand (other clients drop to
    rate 0), amplified by its ``rate_multiplier``, and sees every finite
    link bandwidth scaled to its reserved ``bandwidth_fraction`` -- the
    SNIPPETS-style priority-group reservation.  Solving the sub-problems
    separately and summing costs over-provisions relative to the joint
    solve, which is exactly the per-class-isolation price the quickstart
    walkthrough demonstrates against the IPFP bound.
    """
    by_name = {cls.name: cls for cls in classes}
    unknown = sorted(set(assignments.values()) - set(by_name))
    if unknown:
        raise ValueError(f"assignments reference unknown classes {unknown}")
    tree = problem.tree
    results: Dict[str, "ReplicaPlacementProblem"] = {}
    for cls in classes:
        links = []
        for link in tree.links():
            if math.isinf(link.bandwidth):
                links.append(link)
            else:
                links.append(
                    replace(link, bandwidth=link.bandwidth * cls.bandwidth_fraction)
                )
        clients = [
            replace(
                client,
                requests=(
                    client.requests * cls.rate_multiplier
                    if assignments.get(client.id) == cls.name
                    else 0.0
                ),
            )
            for client in tree.clients()
        ]
        carved = TreeNetwork(list(tree.nodes()), clients, links)
        results[cls.name] = replace(problem, tree=carved)
    return results
