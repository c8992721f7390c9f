"""Discrete-event network substrate.

This package stands in for the paper's physical testbed (8 servers on a
1 GbE Cisco Catalyst 2960 or a 10 GbE Arista 7100T switch).  It models the
pieces of that environment that drive the paper's results:

* one link model (:class:`Link`) for every serializing hop — the host
  NIC, each switch output port and each trunk: serialization delay
  (bytes / bit-rate), propagation, bounded tail-dropping buffers — the
  switch buffering that the Accelerated Ring protocol exploits to overlap
  senders,
* one switching model (:class:`Fabric`): leaf switches joined by a spine;
  the paper's single-switch star is the one-rack fabric that
  :func:`build_topology` builds by default,
* a single-threaded host CPU with per-message processing costs,
* separate token and data sockets with bounded receive buffers, enabling
  the priority discipline of paper §III-D,
* receiver-side loss models matching the paper's instrumented-drop
  experiments (§IV-A4).
"""

from repro.net.simulator import Simulator, EventHandle
from repro.net.packet import Frame, PortKind
from repro.net.params import NetworkParams, GIGABIT, TEN_GIGABIT
from repro.net.link import Link
from repro.net.host import SimHost, SocketBuffer, Cpu
from repro.net.loss import (
    LossModel,
    NoLoss,
    UniformLoss,
    PositionalLoss,
    BurstLoss,
)
from repro.net.fragment import fragment_datagram, Reassembler
from repro.net.fabric import Fabric, FabricTopology, LeafSpineSpec, build_topology

__all__ = [
    "Simulator",
    "EventHandle",
    "Frame",
    "PortKind",
    "NetworkParams",
    "GIGABIT",
    "TEN_GIGABIT",
    "Link",
    "SimHost",
    "SocketBuffer",
    "Cpu",
    "LossModel",
    "NoLoss",
    "UniformLoss",
    "PositionalLoss",
    "BurstLoss",
    "fragment_datagram",
    "Reassembler",
    "Fabric",
    "FabricTopology",
    "LeafSpineSpec",
    "build_topology",
]
