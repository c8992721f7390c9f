"""The topology API: declare a cluster once, build it one way.

:class:`TopologySpec` is a single declarative value: ring count, hosts
per ring, protocol flavour, implementation profile, network, loss,
observers, delivery taps, and group→shard assignments in one place.  :class:`ClusterBuilder` is the fluent front end and the
**only way to assemble sim clusters**: a single ring is just the
``rings(1)`` case of the same spec, and a multi-ring cluster is that
case built once per ring onto one simulator::

    from repro.sim.build import ClusterBuilder

    ring = ClusterBuilder().hosts(8).build()                  # RingCluster
    memb = ClusterBuilder().hosts(6).membership().build()     # MembershipCluster
    multi = ClusterBuilder().rings(2).hosts(4).membership().build()
                                                              # MultiRingCluster
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Type

from repro.core.config import ProtocolConfig
from repro.core.original import OriginalRingParticipant
from repro.core.participant import AcceleratedRingParticipant
from repro.membership.params import MembershipTimeouts
from repro.net.fabric import LeafSpineSpec, build_topology
from repro.net.impair import ImpairmentModel, impairment_from_name
from repro.net.loss import LossModel
from repro.net.params import NetworkParams, GIGABIT
from repro.net.simulator import Simulator
from repro.sim.cluster import RingCluster
from repro.sim.driver import ProtocolHost
from repro.sim.profiles import ImplementationProfile, DAEMON, LIBRARY
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.multiring.cluster import MultiRingCluster
    from repro.multiring.shard_map import ShardMap
    from repro.obs.observer import ProtocolObserver
    from repro.sim.membership_driver import DeliveryTap, MembershipCluster


@dataclass(frozen=True)
class TopologySpec:
    """Everything needed to assemble a simulated cluster, in one value.

    Immutable so a spec can be shared, logged, or varied with
    :func:`dataclasses.replace` without aliasing surprises; the builder
    below is the ergonomic way to produce one.
    """

    #: Number of independent rings.  ``1`` builds the classic single
    #: ring; ``>1`` builds a :class:`~repro.multiring.cluster.
    #: MultiRingCluster` with group traffic sharded across rings.
    rings: int = 1
    hosts_per_ring: int = 8
    #: Full membership + EVS stack (DAEMON-profile default) vs the bare
    #: ordering engine (LIBRARY-profile default) of the normal-case
    #: benchmarks.
    membership: bool = False
    accelerated: bool = True
    #: Implementation profile; ``None`` resolves per mode (DAEMON for
    #: membership, LIBRARY for protocol).
    profile: Optional[ImplementationProfile] = None
    params: NetworkParams = GIGABIT
    #: Leaf–spine fabric; ``None`` is the one-rack fabric (the paper's
    #: single-switch star) of ``hosts_per_ring`` hosts.  A declared
    #: fabric's host count must equal ``hosts_per_ring``.  See
    #: :mod:`repro.net.fabric`.
    fabric: Optional[LeafSpineSpec] = None
    config: Optional[ProtocolConfig] = None
    timeouts: Optional[MembershipTimeouts] = None
    loss_model: Optional[LossModel] = None
    #: Shared impairment model wrapped around every host's delivery path
    #: (see :mod:`repro.net.impair`).
    impairment: Optional[ImpairmentModel] = None
    observer: Optional["ProtocolObserver"] = None
    #: Per-delivery callback surface (single-ring membership clusters;
    #: multi-ring clusters install their own group-aware taps).
    delivery_tap: Optional["DeliveryTap"] = None
    #: Explicit group → ring pins; unlisted groups hash.
    shard_assignments: Mapping[str, int] = field(default_factory=dict)
    ring_id_base: int = 1

    def resolved_profile(self) -> ImplementationProfile:
        if self.profile is not None:
            return self.profile
        return DAEMON if self.membership else LIBRARY

    def validate(self) -> "TopologySpec":
        if self.rings < 1:
            raise ConfigurationError(f"need at least one ring, got {self.rings}")
        if self.hosts_per_ring < 1:
            raise ConfigurationError(
                f"need at least one host per ring, got {self.hosts_per_ring}"
            )
        for group, ring in self.shard_assignments.items():
            if not 0 <= ring < self.rings:
                raise ConfigurationError(
                    f"group {group!r} assigned to ring {ring}, but the spec "
                    f"declares rings 0..{self.rings - 1}"
                )
        if self.delivery_tap is not None and not self.membership:
            raise ConfigurationError(
                "delivery taps observe the membership delivery path; "
                "add .membership() to the builder"
            )
        if self.delivery_tap is not None and self.rings > 1:
            raise ConfigurationError(
                "multi-ring clusters install their own per-ring group "
                "taps; read cluster.group_stream()/merged_stream() instead"
            )
        if self.fabric is not None:
            try:
                self.fabric.validate()
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
            if self.rings > 1:
                raise ConfigurationError(
                    "fabric topologies are single-ring; multi-ring clusters "
                    "build their own per-ring stars"
                )
            if self.fabric.num_hosts != self.hosts_per_ring:
                raise ConfigurationError(
                    f"fabric defines {self.fabric.num_hosts} hosts but the "
                    f"spec declares {self.hosts_per_ring} per ring"
                )
        if self.rings > 1 and self.impairment is not None:
            raise ConfigurationError("impairment models are single-ring only")
        return self


class ClusterBuilder:
    """Fluent assembler over :class:`TopologySpec`.

    Every setter returns ``self``; :meth:`build` dispatches on the spec
    (ring count, membership) to the right cluster class.
    """

    def __init__(self, spec: Optional[TopologySpec] = None) -> None:
        self._spec = spec if spec is not None else TopologySpec()
        self._sim: Optional[Simulator] = None

    @property
    def spec(self) -> TopologySpec:
        return self._spec

    def _set(self, **changes) -> "ClusterBuilder":
        self._spec = replace(self._spec, **changes)
        return self

    # -- fluent surface ------------------------------------------------

    def rings(self, count: int) -> "ClusterBuilder":
        return self._set(rings=count)

    def hosts(self, count: int) -> "ClusterBuilder":
        return self._set(hosts_per_ring=count)

    def membership(self, enabled: bool = True) -> "ClusterBuilder":
        return self._set(membership=enabled)

    def protocol(self) -> "ClusterBuilder":
        """Bare ordering engines (no membership layer)."""
        return self._set(membership=False)

    def accelerated(self, enabled: bool = True) -> "ClusterBuilder":
        return self._set(accelerated=enabled)

    def profile(self, profile: ImplementationProfile) -> "ClusterBuilder":
        return self._set(profile=profile)

    def network(self, params: NetworkParams) -> "ClusterBuilder":
        return self._set(params=params)

    def fabric(self, spec: Optional[LeafSpineSpec]) -> "ClusterBuilder":
        """Build on a leaf–spine fabric; the host count follows the spec.

        Pass ``None`` to return to the default: every host on one leaf
        (the one-rack fabric, the paper's single-switch star).
        """
        if spec is None:
            return self._set(fabric=None)
        return self._set(fabric=spec, hosts_per_ring=spec.num_hosts)

    def adverse_network(
        self, fabric_racks: int = 0, impair: Optional[str] = None, seed: int = 0
    ) -> "ClusterBuilder":
        """The soak / conformance topology dimension, both halves off by
        default: ``fabric_racks > 0`` splits the declared hosts evenly
        over a 2:1 oversubscribed leaf–spine fabric, and ``impair`` names
        an impairment preset (:func:`repro.net.impair.
        impairment_from_name`) seeded from ``seed``."""
        if fabric_racks:
            hosts = self._spec.hosts_per_ring
            if hosts % fabric_racks:
                raise ConfigurationError(
                    f"{hosts} hosts do not split evenly over "
                    f"{fabric_racks} racks"
                )
            self.fabric(
                LeafSpineSpec(
                    racks=fabric_racks,
                    hosts_per_rack=hosts // fabric_racks,
                    oversubscription=2.0,
                )
            )
        if impair:
            self.impair(impairment_from_name(impair, seed=seed))
        return self

    def config(self, config: ProtocolConfig) -> "ClusterBuilder":
        return self._set(config=config)

    def timeouts(self, timeouts: MembershipTimeouts) -> "ClusterBuilder":
        return self._set(timeouts=timeouts)

    def loss(self, model: Optional[LossModel]) -> "ClusterBuilder":
        return self._set(loss_model=model)

    def impair(self, model: Optional[ImpairmentModel]) -> "ClusterBuilder":
        """Wrap every host's delivery path with one impairment model."""
        return self._set(impairment=model)

    def observe(self, observer: "ProtocolObserver") -> "ClusterBuilder":
        return self._set(observer=observer)

    def tap(self, tap: "DeliveryTap") -> "ClusterBuilder":
        return self._set(delivery_tap=tap)

    def assign(self, group: str, ring: int) -> "ClusterBuilder":
        """Pin ``group`` to ``ring`` (otherwise groups hash)."""
        merged = dict(self._spec.shard_assignments)
        merged[group] = ring
        return self._set(shard_assignments=merged)

    def on(self, sim: Simulator) -> "ClusterBuilder":
        """Build onto an existing simulator instead of a fresh one."""
        self._sim = sim
        return self

    # -- derived values ------------------------------------------------

    def shard_map(self) -> "ShardMap":
        """The deterministic group → ring map this spec induces."""
        from repro.multiring.shard_map import ShardMap

        spec = self._spec.validate()
        return ShardMap(spec.rings, assignments=spec.shard_assignments)

    # -- construction --------------------------------------------------

    def build(self):
        """Dispatch on the spec: multi-ring, membership, or bare ring."""
        spec = self._spec.validate()
        if spec.rings > 1:
            return self.build_multiring()
        if spec.membership:
            return self.build_membership()
        return self.build_ring()

    def _simulator(self) -> Simulator:
        """The simulator named by :meth:`on`, else a fresh one."""
        return self._sim if self._sim is not None else Simulator()

    @staticmethod
    def _build_topology(sim: Simulator, spec: TopologySpec):
        """The spec's fabric, or the one-rack fabric of its hosts."""
        return build_topology(
            sim,
            spec.hosts_per_ring,
            spec.params,
            fabric=spec.fabric,
            loss_model=spec.loss_model,
            impairment=spec.impairment,
        )

    def build_ring(self) -> RingCluster:
        """A single bare ordering ring (the paper's §IV-A testbed)."""
        spec = self._spec.validate()
        sim = self._simulator()
        topology = self._build_topology(sim, spec)
        ring = topology.host_ids
        config = (spec.config or ProtocolConfig()).validate()
        participant_cls: Type[AcceleratedRingParticipant]
        participant_cls = (
            AcceleratedRingParticipant
            if spec.accelerated
            else OriginalRingParticipant
        )
        drivers: Dict[int, ProtocolHost] = {}
        for pid in ring:
            participant = participant_cls(
                pid,
                ring,
                config,
                ring_id=spec.ring_id_base,
                observer=spec.observer,
                clock=lambda: sim.now,
            )
            drivers[pid] = ProtocolHost(
                host=topology.host(pid),
                participant=participant,
                profile=spec.resolved_profile(),
                observer=spec.observer,
            )
        return RingCluster(
            sim=sim,
            topology=topology,
            drivers=drivers,
            ring_id=spec.ring_id_base,
            observer=spec.observer,
        )

    def build_membership(self) -> "MembershipCluster":
        """A single ring running the full membership + EVS stack."""
        from repro.sim.membership_driver import MembershipCluster

        spec = self._spec.validate()
        sim = self._simulator()
        return MembershipCluster(
            topology=self._build_topology(sim, spec),
            accelerated=spec.accelerated,
            profile=spec.resolved_profile(),
            config=spec.config,
            timeouts=spec.timeouts,
            observer=spec.observer,
            delivery_tap=spec.delivery_tap,
        )

    def build_multiring(self) -> "MultiRingCluster":
        """N independent rings on one simulator (works for N=1 too):
        each ring is the single-ring build of this spec, with its own
        switch and, in membership mode, its own group-aware tap."""
        from repro.multiring.cluster import GroupStreamTap, MultiRingCluster
        from repro.multiring.shard_map import ShardMap

        spec = self._spec.validate()
        sim = self._simulator()
        taps = [GroupStreamTap() for _ in range(spec.rings)] if spec.membership else []
        rings = []
        for index in range(spec.rings):
            ring_spec = replace(
                spec,
                rings=1,
                shard_assignments={},
                ring_id_base=spec.ring_id_base + index,
                delivery_tap=taps[index] if taps else None,
            )
            rings.append(ClusterBuilder(ring_spec).on(sim).build())
        return MultiRingCluster(
            sim=sim,
            rings=rings,
            taps=taps,
            shard_map=ShardMap(spec.rings, assignments=spec.shard_assignments),
            membership=spec.membership,
            observer=spec.observer,
        )
