"""The testbed network: hosts on leaf switches, racks joined by a spine.

Hosts attach to their rack's leaf (top-of-rack) switch, and racks
interconnect through a spine layer over trunk links that are usually
*oversubscribed*: a rack of eight 1G hosts might share a single 4G
trunk, so cross-rack incast congests the trunk long before any host link
saturates.  The paper's testbed — 8 servers on one switch — is the
one-rack fabric: a single leaf with no trunks, which is what
:func:`build_topology` builds when no :class:`LeafSpineSpec` is given.

:class:`LeafSpineSpec` declares a fabric — rack count, hosts per rack,
trunk oversubscription, per-rack link parameters (mixed 1G/10G hosts on
one ring), and per-rack extra trunk propagation (cross-rack latency
asymmetry).  Every serializing hop — host NIC, leaf host port, uplink,
downlink — is one :class:`~repro.net.link.Link`, so serialization,
propagation, and tail-drop behaviour price identically per hop.

The :class:`Fabric` fault surface is ``set_partition`` / ``heal`` /
``add_filter`` / ``remove_filter`` / ``port`` / ``total_drops``.
Partitions and filters are consulted exactly once per (frame,
destination), at the destination leaf's host port, so a fault plan or
chaos scenario means the same thing on one rack or many.

A multicast is one frame object end to end: the leaf, the spine and
each remote leaf hand the frame they received to every output port, so
every receiver's socket holds that same immutable object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.host import SimHost
from repro.net.impair import ImpairmentModel
from repro.net.link import Link
from repro.net.loss import LossModel
from repro.net.packet import Frame
from repro.net.params import NetworkParams
from repro.net.simulator import Simulator


@dataclass(frozen=True)
class LeafSpineSpec:
    """Declarative description of a leaf–spine fabric.

    Host ids are rack-major: rack ``r`` owns hosts
    ``r*hosts_per_rack .. (r+1)*hosts_per_rack - 1``.

    Attributes:
        racks: number of leaf (top-of-rack) switches.
        hosts_per_rack: hosts attached to each leaf.
        oversubscription: trunk oversubscription factor.  Each rack's
            trunk serializes at ``hosts_per_rack * host_rate /
            oversubscription`` — ``1.0`` is a non-blocking fabric,
            larger values congest the trunk under cross-rack incast.
        rack_params: optional per-rack host-link parameters (one entry
            per rack), letting mixed 1G/10G racks share one ring; racks
            fall back to the cluster-wide params when ``None``.
        rack_trunk_extra_propagation: optional per-rack extra one-way
            propagation on that rack's trunk (cross-rack latency
            asymmetry, e.g. a rack at the far end of the hall).
        trunk_params: optional explicit trunk link parameters, overriding
            the oversubscription-derived rate.
    """

    racks: int = 2
    hosts_per_rack: int = 4
    oversubscription: float = 1.0
    rack_params: Optional[Tuple[NetworkParams, ...]] = None
    rack_trunk_extra_propagation: Optional[Tuple[float, ...]] = None
    trunk_params: Optional[NetworkParams] = None

    def __post_init__(self) -> None:
        # Normalize sequences to tuples so specs stay hashable/frozen.
        if self.rack_params is not None and not isinstance(self.rack_params, tuple):
            object.__setattr__(self, "rack_params", tuple(self.rack_params))
        extra = self.rack_trunk_extra_propagation
        if extra is not None and not isinstance(extra, tuple):
            object.__setattr__(self, "rack_trunk_extra_propagation", tuple(extra))

    @property
    def num_hosts(self) -> int:
        return self.racks * self.hosts_per_rack

    def rack_of(self, host_id: int) -> int:
        return host_id // self.hosts_per_rack

    def rack_members(self, rack: int) -> Tuple[int, ...]:
        base = rack * self.hosts_per_rack
        return tuple(range(base, base + self.hosts_per_rack))

    def validate(self) -> "LeafSpineSpec":
        if self.racks < 1:
            raise ValueError(f"need at least one rack, got {self.racks}")
        if self.hosts_per_rack < 1:
            raise ValueError(
                f"need at least one host per rack, got {self.hosts_per_rack}"
            )
        if self.oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be positive, got {self.oversubscription}"
            )
        if self.rack_params is not None and len(self.rack_params) != self.racks:
            raise ValueError(
                f"rack_params has {len(self.rack_params)} entries "
                f"for {self.racks} racks"
            )
        extra = self.rack_trunk_extra_propagation
        if extra is not None and len(extra) != self.racks:
            raise ValueError(
                f"rack_trunk_extra_propagation has {len(extra)} entries "
                f"for {self.racks} racks"
            )
        return self

    def host_params_for(self, rack: int, default: NetworkParams) -> NetworkParams:
        if self.rack_params is not None:
            return self.rack_params[rack]
        return default

    def trunk_params_for(self, rack: int, default: NetworkParams) -> NetworkParams:
        """Link parameters for one rack's leaf↔spine trunk."""
        host_params = self.host_params_for(rack, default)
        if self.trunk_params is not None:
            trunk = self.trunk_params
        else:
            trunk = replace(
                host_params,
                rate_bps=host_params.rate_bps
                * self.hosts_per_rack
                / self.oversubscription,
            )
        extra = 0.0
        if self.rack_trunk_extra_propagation is not None:
            extra = self.rack_trunk_extra_propagation[rack]
        if extra:
            trunk = replace(trunk, propagation=trunk.propagation + extra)
        return trunk


def _switch_port(sim: Simulator, params: NetworkParams, deliver: Callable[[Frame], None]) -> Link:
    """A switch output port (host port or trunk): a link with the
    switch's per-port buffer."""
    return Link(sim, params, deliver, params.switch_buffer_bytes)


class _LeafSwitch:
    """One top-of-rack switch: local host ports plus an optional uplink."""

    def __init__(self, fabric: "Fabric", rack: int, latency: float) -> None:
        self._fabric = fabric
        self._sim = fabric._sim
        self._rack = rack
        self._latency = latency
        self._ports: Dict[int, Link] = {}
        #: (host_id, port) pairs frozen at attach time; the multicast
        #: fan-out loop iterates this tuple instead of a dict view (one
        #: fewer iterator protocol round-trip per ingress frame).
        self._fanout: Tuple[Tuple[int, Link], ...] = ()
        #: Trunk to the spine; ``None`` in a single-rack fabric.
        self._uplink: Optional[Link] = None

    def attach(
        self,
        host_id: int,
        deliver: Callable[[Frame], None],
        params: NetworkParams,
    ) -> None:
        if host_id in self._ports:
            raise ValueError(f"host {host_id} already attached")
        self._ports[host_id] = _switch_port(self._sim, params, deliver)
        self._fanout = tuple(self._ports.items())

    def ingress(self, frame: Frame) -> None:
        """A frame has fully arrived from a local host NIC."""
        self._fabric.frames_received += 1
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(
            sim._queue,
            (sim.now + self._latency, seq, self._forward_origin, (frame,)),
        )

    def trunk_ingress(self, frame: Frame) -> None:
        """A frame has fully arrived over the spine downlink."""
        self._fabric.frames_transited += 1
        self._sim.post(self._latency, self._forward_remote, frame)

    def _forward_origin(self, frame: Frame) -> None:
        # Hot path (on one rack, the whole switch): the partition and
        # filter checks cost no call until a fault installs one.
        fabric = self._fabric
        partition = fabric._partition
        filters = fabric._filters
        if frame.dst is None:
            src = frame.src
            for host_id, port in self._fanout:
                if host_id == src:
                    continue
                if partition and not fabric._connected(src, host_id):
                    continue
                if filters and fabric._filtered(frame, host_id):
                    continue
                port.send(frame)
            if self._uplink is not None:
                self._uplink.send(frame)
        else:
            dst = frame.dst
            port = self._ports.get(dst)
            if port is not None:
                if partition and not fabric._connected(frame.src, dst):
                    return
                if filters and fabric._filtered(frame, dst):
                    return
                port.send(frame)
            elif self._uplink is not None:
                self._uplink.send(frame)
            else:
                raise KeyError(f"frame for unattached host {dst}")

    def _forward_remote(self, frame: Frame) -> None:
        fabric = self._fabric
        partition = fabric._partition
        filters = fabric._filters
        if frame.dst is None:
            src = frame.src
            for host_id, port in self._fanout:
                if partition and not fabric._connected(src, host_id):
                    continue
                if filters and fabric._filtered(frame, host_id):
                    continue
                port.send(frame)
        else:
            dst = frame.dst
            port = self._ports.get(dst)
            if port is None:
                raise KeyError(f"frame for unattached host {dst}")
            if partition and not fabric._connected(frame.src, dst):
                return
            if filters and fabric._filtered(frame, dst):
                return
            port.send(frame)


class Fabric:
    """The switching network: leaf switches, and a spine when there is
    more than one rack.

    Partitions and filters apply once per (frame, destination), at the
    destination leaf's host port, so they cut cross-rack and intra-rack
    traffic alike.
    """

    def __init__(self, sim: Simulator, spec: LeafSpineSpec, params: NetworkParams) -> None:
        self._sim = sim
        self.spec = spec
        self.params = params
        #: Spine forwarding latency (the leaf latency comes from each
        #: rack's own host-link params).
        self._latency = params.switch_latency
        self._leaves: List[_LeafSwitch] = []
        self._downlinks: List[Link] = []
        self.frames_received = 0
        #: Frames that crossed the spine into a remote rack.
        self.frames_transited = 0
        self.frames_partitioned = 0
        self.frames_filtered = 0
        self._partition: Dict[int, int] = {}  # host -> partition group
        #: Frame filters: callables ``fn(frame, dst) -> bool`` consulted once
        #: per (frame, destination) pair during forwarding; any True drops
        #: that copy.  The fault injector installs these for token drops and
        #: link-level loss without monkey-patching the forwarding path.
        self._filters: List[Callable[[Frame, int], bool]] = []

        for rack in range(spec.racks):
            host_params = spec.host_params_for(rack, params)
            self._leaves.append(_LeafSwitch(self, rack, host_params.switch_latency))
        if spec.racks > 1:
            for rack, leaf in enumerate(self._leaves):
                trunk = spec.trunk_params_for(rack, params)
                leaf._uplink = _switch_port(sim, trunk, self._uplink_deliver(rack))
                self._downlinks.append(_switch_port(sim, trunk, leaf.trunk_ingress))

    def _uplink_deliver(self, rack: int) -> Callable[[Frame], None]:
        def deliver(frame: Frame) -> None:
            self._spine_ingress(frame, rack)

        return deliver

    # ------------------------------------------------------------------
    # Spine
    # ------------------------------------------------------------------

    def _spine_ingress(self, frame: Frame, from_rack: int) -> None:
        self._sim.post(self._latency, self._spine_forward, frame, from_rack)

    def _spine_forward(self, frame: Frame, from_rack: int) -> None:
        if frame.dst is None:
            for rack, downlink in enumerate(self._downlinks):
                if rack == from_rack:
                    continue
                downlink.send(frame)
        else:
            self._downlinks[self.spec.rack_of(frame.dst)].send(frame)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------

    def set_partition(self, *groups) -> None:
        """Partition the network: frames cross only within a group.

        Hosts not named in any group form an implicit group of their own.
        Call :meth:`heal` to restore full connectivity — the membership
        layer will then merge the rings.
        """
        self._partition = {}
        for index, group in enumerate(groups):
            for host_id in group:
                self._partition[host_id] = index

    def heal(self) -> None:
        """Remove any partition."""
        self._partition = {}

    def add_filter(self, fn: Callable[[Frame, int], bool]) -> None:
        """Install a drop filter (see ``_filters``)."""
        self._filters.append(fn)

    def remove_filter(self, fn: Callable[[Frame, int], bool]) -> None:
        """Remove a previously installed filter (no-op if absent)."""
        try:
            self._filters.remove(fn)
        except ValueError:
            pass

    def _connected(self, src: int, dst: int) -> bool:
        """Whether a partition lets ``src`` reach ``dst``; counts a cut copy."""
        default = -1
        partition = self._partition
        if partition.get(src, default) != partition.get(dst, default):
            self.frames_partitioned += 1
            return False
        return True

    def _filtered(self, frame: Frame, dst: int) -> bool:
        """Whether a filter drops this copy; counts a dropped copy."""
        for fn in list(self._filters):
            if fn(frame, dst):
                self.frames_filtered += 1
                return True
        return False

    def attach(self, host_id: int, deliver: Callable[[Frame], None]) -> None:
        rack = self.spec.rack_of(host_id)
        self._leaves[rack].attach(
            host_id, deliver, self.spec.host_params_for(rack, self.params)
        )

    def leaf_ingress(self, host_id: int) -> Callable[[Frame], None]:
        """The ``on_wire`` entry point for one host (its leaf's ingress)."""
        return self._leaves[self.spec.rack_of(host_id)].ingress

    def port(self, host_id: int) -> Link:
        """The destination-side host port (where drops/queueing surface)."""
        return self._leaves[self.spec.rack_of(host_id)]._ports[host_id]

    def trunk(self, rack: int) -> Tuple[Link, Link]:
        """(uplink, downlink) trunk ports for one rack (multi-rack only)."""
        uplink = self._leaves[rack]._uplink
        if uplink is None:
            raise ValueError("single-rack fabric has no trunks")
        return uplink, self._downlinks[rack]

    @property
    def total_drops(self) -> int:
        drops = 0
        for leaf in self._leaves:
            drops += sum(port.frames_dropped for port in leaf._ports.values())
            if leaf._uplink is not None:
                drops += leaf._uplink.frames_dropped
        drops += sum(port.frames_dropped for port in self._downlinks)
        return drops

    @property
    def peak_trunk_queue_bytes(self) -> int:
        """Worst trunk-buffer depth seen — the incast congestion signal."""
        peaks = [0]
        for leaf in self._leaves:
            if leaf._uplink is not None:
                peaks.append(leaf._uplink.peak_queue_bytes)
        peaks.extend(port.peak_queue_bytes for port in self._downlinks)
        return max(peaks)


@dataclass
class FabricTopology:
    """A fabric plus its attached hosts, and the rack map that
    correlated-failure events resolve against."""

    sim: Simulator
    params: NetworkParams
    switch: Fabric
    spec: LeafSpineSpec
    hosts: Dict[int, SimHost] = field(default_factory=dict)

    @property
    def host_ids(self) -> List[int]:
        return sorted(self.hosts)

    def host(self, host_id: int) -> SimHost:
        return self.hosts[host_id]

    @property
    def racks(self) -> Dict[int, Tuple[int, ...]]:
        """rack id -> tuple of member host ids."""
        return {
            rack: self.spec.rack_members(rack) for rack in range(self.spec.racks)
        }


def build_topology(
    sim: Simulator,
    num_hosts: int,
    params: NetworkParams,
    fabric: Optional[LeafSpineSpec] = None,
    loss_model: Optional[LossModel] = None,
    impairment: Optional[ImpairmentModel] = None,
) -> FabricTopology:
    """Build ``num_hosts`` hosts on a fabric.

    ``fabric`` declares the racks; without one, every host sits on one
    leaf — the paper's single-switch testbed.  Hosts are attached in id
    order, which also defines the default ring order used by the
    protocol layer.

    The same ``loss_model`` instance is shared by every host; models keyed
    on receiver id (all of ours) behave independently per host.
    ``impairment`` wraps every host's delivery path with one shared
    :class:`~repro.net.impair.ImpairmentModel`.
    """
    spec = fabric if fabric is not None else LeafSpineSpec(racks=1, hosts_per_rack=num_hosts)
    spec.validate()
    if spec.num_hosts != num_hosts:
        raise ValueError(
            f"fabric defines {spec.num_hosts} hosts but the cluster "
            f"wants {num_hosts}"
        )
    switch = Fabric(sim, spec, params)
    topology = FabricTopology(sim=sim, params=params, switch=switch, spec=spec)
    for host_id in range(num_hosts):
        rack = spec.rack_of(host_id)
        host = SimHost(
            host_id=host_id,
            sim=sim,
            params=spec.host_params_for(rack, params),
            on_wire=switch.leaf_ingress(host_id),
            loss_model=loss_model,
        )
        deliver: Callable[[Frame], None] = host.receive
        if impairment is not None:
            deliver = impairment.wrap(host_id, deliver, sim)
        switch.attach(host_id, deliver)
        topology.hosts[host_id] = host
    return topology
