"""Constraint configuration for replica-placement problem instances.

The paper (Section 2.2) distinguishes three families of constraints:

* **server capacity** -- always enforced: the requests assigned to a replica
  never exceed its capacity ``W_j``;
* **QoS** -- optional: the transfer time (or hop distance, in the
  ``QoS = distance`` simplification) between a client and each of its servers
  is bounded by the client's ``q_i``;
* **link capacity** -- optional: the total flow of requests through a link
  never exceeds its bandwidth ``BW_l``.

:class:`ConstraintSet` records which of the optional constraints are active
and how QoS distances are measured.  Problem simplifications of
Section 2.2.3 (*Replica Cost*, *Replica Counting*) correspond to specific
constraint sets exposed as convenience constructors.

:class:`ClassedConstraintSet` extends the model past the paper: clients
belong to tenant :class:`~repro.qos.metrics.ServiceClass`\\ es and each
client's QoS bound applies to its class's weighted multi-metric **path
score** (:mod:`repro.qos.metrics`) instead of a single hop/latency count.
With non-negative class weights the score is monotone along root paths, so
the classed set rides the same memoised depth-threshold machinery as the
built-in modes (both engines keep their shared ``can_cover``/sweep
path); non-monotone weights fall back to the documented per-pair
eligibility check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.core.tree import NodeId, TreeNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.metrics import ServiceClass

__all__ = ["QoSMode", "ConstraintSet", "ClassedConstraintSet"]


class QoSMode(enum.Enum):
    """How the client-to-server QoS metric is measured."""

    #: QoS disabled (the "No QoS" simplification).
    NONE = "none"
    #: ``QoS = distance``: the metric is the number of hops ``d(i, s)``.
    DISTANCE = "distance"
    #: Latency: the metric is the sum of link communication times.
    LATENCY = "latency"
    #: Weighted multi-metric path score (requires a
    #: :class:`ClassedConstraintSet`, which carries the class weights).
    SCORE = "score"

    @classmethod
    def parse(cls, value) -> "QoSMode":
        """Coerce a :class:`QoSMode`, name or value string into a :class:`QoSMode`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            for member in cls:
                if lowered in (member.value, member.name.lower()):
                    return member
        raise ValueError(f"cannot interpret {value!r} as a QoS mode")


@dataclass(frozen=True)
class ConstraintSet:
    """Which optional constraints a problem instance enforces.

    Parameters
    ----------
    qos_mode:
        How QoS is measured (:class:`QoSMode`); :attr:`QoSMode.NONE` disables
        the constraint entirely.
    enforce_bandwidth:
        Whether link bandwidths are enforced.
    """

    qos_mode: QoSMode = QoSMode.NONE
    enforce_bandwidth: bool = False

    # -- convenience constructors --------------------------------------- #
    @classmethod
    def none(cls) -> "ConstraintSet":
        """Only server capacities (the *Replica Cost* setting)."""
        return cls(qos_mode=QoSMode.NONE, enforce_bandwidth=False)

    @classmethod
    def qos_distance(cls, enforce_bandwidth: bool = False) -> "ConstraintSet":
        """Hop-count QoS, optionally with bandwidth limits."""
        return cls(qos_mode=QoSMode.DISTANCE, enforce_bandwidth=enforce_bandwidth)

    @classmethod
    def qos_latency(cls, enforce_bandwidth: bool = False) -> "ConstraintSet":
        """Latency QoS, optionally with bandwidth limits."""
        return cls(qos_mode=QoSMode.LATENCY, enforce_bandwidth=enforce_bandwidth)

    @classmethod
    def full(cls) -> "ConstraintSet":
        """Latency QoS and bandwidth limits (the most general instance)."""
        return cls(qos_mode=QoSMode.LATENCY, enforce_bandwidth=True)

    # -- queries --------------------------------------------------------- #
    @property
    def has_qos(self) -> bool:
        """``True`` when a QoS constraint is active."""
        return self.qos_mode is not QoSMode.NONE

    def qos_metric(self, tree: TreeNetwork, client_id: NodeId, server_id: NodeId) -> float:
        """QoS metric between ``client_id`` and ``server_id`` under this mode.

        Returns 0 when QoS is disabled so that any finite bound is trivially
        satisfied.
        """
        if self.qos_mode is QoSMode.NONE:
            return 0.0
        if self.qos_mode is QoSMode.DISTANCE:
            return float(tree.distance(client_id, server_id))
        if self.qos_mode is QoSMode.SCORE:
            raise ValueError(
                "the 'score' QoS mode carries per-class metric weights and "
                "requires a ClassedConstraintSet, not a plain ConstraintSet"
            )
        return tree.latency(client_id, server_id)

    def allowed_servers(self, tree: TreeNetwork, client_id: NodeId):
        """Ancestors of ``client_id`` that satisfy its QoS bound.

        The result preserves the bottom-up (closest first) ancestor order,
        which several heuristics rely on.
        """
        bound = tree.qos(client_id)
        servers = []
        for ancestor in tree.ancestors(client_id):
            if self.qos_metric(tree, client_id, ancestor) <= bound:
                servers.append(ancestor)
        return tuple(servers)

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        parts = []
        if self.qos_mode is QoSMode.NONE:
            parts.append("no QoS")
        else:
            parts.append(f"QoS={self.qos_mode.value}")
        parts.append("bandwidth limited" if self.enforce_bandwidth else "unbounded links")
        return ", ".join(parts)


@dataclass(frozen=True)
class ClassedConstraintSet(ConstraintSet):
    """Multi-metric QoS with tenant service classes.

    Every client belongs to one :class:`~repro.qos.metrics.ServiceClass`
    (via ``assignments``, falling back to ``default_class``); its QoS
    bound ``q_i`` applies to the class's scalar **path score** -- the
    weighted, scale-normalised combination of the accumulated
    latency/jitter/loss/bandwidth metrics of the links between the
    client and a candidate server (:mod:`repro.qos.metrics`).

    With every class's weights non-negative (:attr:`monotone_path_metric`)
    the score is non-decreasing toward the root, so eligibility is a
    depth threshold per client and the instance runs on the memoised
    threshold machinery of :class:`repro.core.index.TreeIndex` -- the
    same shared ``can_cover``/sweep code path of both engines.
    Negative weights (a class that *prefers* longer paths on some axis)
    are legal but non-monotone: those instances use the documented
    per-pair fallback (``qos_satisfied`` per candidate pair).

    The set is frozen and hashable; its auto-generated ``repr`` is
    deterministic, which is what
    :func:`repro.serving.fingerprint.problem_fingerprint` hashes for
    subclassed constraint sets.
    """

    qos_mode: QoSMode = QoSMode.SCORE
    enforce_bandwidth: bool = False
    classes: Tuple["ServiceClass", ...] = ()
    assignments: Tuple[Tuple[NodeId, str], ...] = ()
    default_class: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "qos_mode", QoSMode.parse(self.qos_mode))
        if self.qos_mode is not QoSMode.SCORE:
            raise ValueError(
                "ClassedConstraintSet measures QoS as a per-class path "
                f"score; qos_mode must be 'score', got {self.qos_mode.value!r}"
            )
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("ClassedConstraintSet needs at least one class")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service class names in {names}")
        object.__setattr__(self, "classes", classes)
        default = self.default_class or names[0]
        if default not in names:
            raise ValueError(
                f"default_class {default!r} is not one of {names}"
            )
        object.__setattr__(self, "default_class", default)
        assignments = tuple(
            sorted(
                ((client, str(name)) for client, name in self.assignments),
                key=lambda pair: (repr(pair[0]), pair[1]),
            )
        )
        known = set(names)
        seen: Dict[NodeId, str] = {}
        for client, name in assignments:
            if name not in known:
                raise ValueError(
                    f"client {client!r} assigned to unknown class {name!r}"
                )
            if client in seen and seen[client] != name:
                raise ValueError(
                    f"client {client!r} assigned to both {seen[client]!r} "
                    f"and {name!r}"
                )
            seen[client] = name
        object.__setattr__(self, "assignments", assignments)

    # -- convenience constructors --------------------------------------- #
    @classmethod
    def standard(
        cls,
        tree: Optional[TreeNetwork] = None,
        *,
        classes: Optional[Sequence["ServiceClass"]] = None,
        enforce_bandwidth: bool = False,
        seed: int = 0,
    ) -> "ClassedConstraintSet":
        """The gold/silver/bronze default mix over ``tree``'s clients.

        Clients are assigned deterministically (seeded shuffle, then
        round-robin over the classes in priority order); with no tree,
        every client falls to ``default_class``.
        """
        import random

        from repro.qos.metrics import DEFAULT_CLASSES

        chosen = tuple(classes) if classes is not None else DEFAULT_CLASSES
        ordered = sorted(chosen, key=lambda entry: (entry.priority, entry.name))
        assignments: Tuple[Tuple[NodeId, str], ...] = ()
        if tree is not None:
            client_ids = sorted(tree.client_ids, key=repr)
            random.Random(seed).shuffle(client_ids)
            assignments = tuple(
                (client, ordered[position % len(ordered)].name)
                for position, client in enumerate(client_ids)
            )
        return cls(
            enforce_bandwidth=enforce_bandwidth,
            classes=chosen,
            assignments=assignments,
            default_class=ordered[-1].name,
        )

    # -- class lookup ---------------------------------------------------- #
    def _lookup(self) -> Tuple[Dict[str, "ServiceClass"], Dict[NodeId, str]]:
        cached = getattr(self, "_lookup_cache", None)
        if cached is None:
            cached = (
                {cls.name: cls for cls in self.classes},
                dict(self.assignments),
            )
            object.__setattr__(self, "_lookup_cache", cached)
        return cached

    def class_named(self, name: str) -> "ServiceClass":
        """The :class:`~repro.qos.metrics.ServiceClass` called ``name``."""
        by_name, _ = self._lookup()
        try:
            return by_name[name]
        except KeyError:
            raise ValueError(f"unknown service class {name!r}") from None

    def class_of(self, client_id: NodeId) -> "ServiceClass":
        """The class serving ``client_id`` (``default_class`` if unassigned)."""
        by_name, assigned = self._lookup()
        return by_name[assigned.get(client_id, self.default_class)]

    # -- queries --------------------------------------------------------- #
    @property
    def monotone_path_metric(self) -> bool:
        """True when every class's path score is monotone along root paths.

        The supports-thresholds predicate of
        :func:`repro.core.index.supports_qos_thresholds` keys off this:
        monotone classed sets take the memoised threshold walk, the rest
        take the per-pair fallback.
        """
        return all(entry.monotone for entry in self.classes)

    def iter_ancestor_scores(self, tree: TreeNetwork, client_id: NodeId):
        """Yield ``(ancestor, path_score)`` bottom-up for ``client_id``.

        One shared accumulation (see
        :func:`repro.qos.metrics.iter_ancestor_scores`) keeps the
        threshold walk, the per-pair metric and ``allowed_servers``
        bit-identical.
        """
        from repro.qos.metrics import iter_ancestor_scores

        return iter_ancestor_scores(tree, client_id, self.class_of(client_id))

    def qos_metric(self, tree: TreeNetwork, client_id: NodeId, server_id: NodeId) -> float:
        """The client's class path score from ``client_id`` to ``server_id``."""
        for ancestor, score in self.iter_ancestor_scores(tree, client_id):
            if ancestor == server_id:
                return score
        from repro.core.exceptions import TreeStructureError

        raise TreeStructureError(
            f"{server_id!r} is not an ancestor of {client_id!r}"
        )

    def allowed_servers(self, tree: TreeNetwork, client_id: NodeId):
        """Ancestors whose path score meets the client's bound (no early
        break: correct for monotone and non-monotone weights alike)."""
        bound = tree.qos(client_id)
        return tuple(
            ancestor
            for ancestor, score in self.iter_ancestor_scores(tree, client_id)
            if score <= bound
        )

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        names = "/".join(entry.name for entry in self.classes)
        parts = [f"QoS=score ({names})"]
        if not self.monotone_path_metric:
            parts.append("non-monotone")
        parts.append(
            "bandwidth limited" if self.enforce_bandwidth else "unbounded links"
        )
        return ", ".join(parts)
