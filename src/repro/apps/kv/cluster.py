"""The replicated KV service: replicas, clients, and recovery wiring.

:class:`KvCluster` owns a membership-mode :class:`~repro.multiring.
cluster.MultiRingCluster` and runs one :class:`~repro.apps.kv.replica.
KvReplica` per (ring, pid).  Keys hash onto ``partitions`` groups
(``kv00``, ``kv01``, …) and groups shard onto rings through the
cluster's :class:`~repro.multiring.shard_map.ShardMap` — so every
replica of a ring applies exactly that ring's groups, in the ring's
total order, and replicas of one ring are byte-identical when healthy.

Clients (:class:`KvClient`) submit commands through their *home
daemon* on each ring (``client_id % hosts_per_ring``), which keeps a
client's per-group command sequence FIFO, and observe responses when
that home replica applies the command — the real-time intervals the
linearizability checker consumes.

Recovery orchestration (the cluster-level half of the replica-mode
machinery in :mod:`~repro.apps.kv.replica`):

* **peer state transfer** — when a replica is buffering in a majority
  configuration and a primary peer has installed the same
  configuration, the peer's snapshot is installed wholesale and the
  buffer drained (idempotence absorbs the overlap);
* **longest-log election** — when a majority configuration has *no*
  primary member (initial boot; every member crashed and recovered),
  once all its members installed it, the replica with the most applied
  commands (ties: lowest pid) adopts its state as the primary lineage
  and donates to the rest.

In a deployed system the transfer would ride a side channel with its
cut agreed through the ordered stream; here the simulator moves the
snapshot bytes directly at the triggering configuration event.  What
is *modelled* faithfully is the cut composition: transfers happen at
configuration installs, buffered deliveries overlap the snapshot, and
idempotence — not timing luck — makes the composition exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.kv.commands import (
    CommandError,
    KvCommand,
    KvResult,
    Op,
    cas as make_cas,
    decode_command,
    delete as make_delete,
    encode_command,
    get as make_get,
    put as make_put,
)
from repro.apps.kv.history import History
from repro.apps.kv.checker import CheckResult, check_history
from repro.apps.kv.replica import BUFFERING, DurableMedium, KvReplica
from repro.apps.kv.snapshot import encode_snapshot
from repro.multiring.shard_map import stable_hash
from repro.sim.build import ClusterBuilder
from repro.util.errors import ConfigurationError


#: Decoded commands a ring keeps for its replicas that have not yet
#: delivered them; a ring's replicas deliver a message within about one
#: token rotation, so a full memo is simply emptied.
_COMMAND_MEMO = 256


class _RingListener:
    """Bridges one ring's delivery tap to that ring's replicas.

    It also decodes the ring's commands for them (:meth:`decode`): every
    replica of a ring is handed the same payload, so the command is
    parsed once and the replicas share the frozen :class:`KvCommand`.
    """

    def __init__(self, cluster: "KvCluster", ring_index: int) -> None:
        self.cluster = cluster
        self.ring_index = ring_index
        self.replicas: Dict[int, KvReplica] = {}
        self._commands: Dict[bytes, KvCommand] = {}

    def decode(self, payload: bytes) -> KvCommand:
        """:func:`decode_command`, once per ordered payload on this ring."""
        commands = self._commands
        command = commands.get(payload)
        if command is None:
            if len(commands) >= _COMMAND_MEMO:
                commands.clear()
            command = commands[payload] = decode_command(payload)
        return command

    def on_deliver(self, pid, group, payload, config_id, origin_ring) -> None:
        if group is None:
            return  # not a group-framed frame; nothing of ours
        replica = self.replicas.get(pid)
        if replica is not None:
            replica.on_ordered(group, payload, config_id)

    def on_config(self, pid, configuration) -> None:
        replica = self.replicas.get(pid)
        if replica is None:
            return
        replica.on_config(configuration, self.cluster.hosts_per_ring)
        self.cluster._maybe_sync(self.ring_index)

    def on_restart(self, pid) -> None:
        replica = self.replicas.get(pid)
        if replica is not None:
            replica.local_recover()


class KvClient:
    """A client handle: issues commands, owns a request-id sequence."""

    def __init__(self, cluster: "KvCluster", client_id: int) -> None:
        self.cluster = cluster
        self.client_id = client_id
        self._next_request = 0

    def _request_id(self) -> int:
        self._next_request += 1
        return self._next_request

    def get(self, key: str) -> None:
        self._submit((make_get(key),))

    def put(self, key: str, value: bytes) -> None:
        self._submit((make_put(key, value),))

    def delete(self, key: str) -> None:
        self._submit((make_delete(key),))

    def cas(self, key: str, expected: Optional[bytes], value: bytes) -> None:
        self._submit((make_cas(key, expected, value),))

    def transact(self, ops: Sequence[Op]) -> None:
        """An atomic multi-op command; all keys must share a partition."""
        self._submit(tuple(ops))

    def _submit(self, ops: Tuple[Op, ...]) -> None:
        self.cluster.submit_command(self.client_id, self._request_id(), ops)


class KvCluster:
    """A partitioned, replicated, durable KV store on N rings."""

    def __init__(
        self,
        rings: int = 2,
        hosts_per_ring: int = 4,
        partitions: int = 8,
        snapshot_every: int = 64,
        accelerated: bool = True,
        config=None,
        timeouts=None,
        observer=None,
        loss_model=None,
        media: Optional[Dict[Tuple[int, int], DurableMedium]] = None,
    ) -> None:
        if partitions < 1:
            raise ConfigurationError(f"need at least one partition, got {partitions}")
        self.partitions = partitions
        self.hosts_per_ring = hosts_per_ring
        builder = (
            ClusterBuilder()
            .rings(rings)
            .hosts(hosts_per_ring)
            .membership()
            .accelerated(accelerated)
        )
        if config is not None:
            builder = builder.config(config)
        if timeouts is not None:
            builder = builder.timeouts(timeouts)
        if observer is not None:
            builder = builder.observe(observer)
        if loss_model is not None:
            builder = builder.loss(loss_model)
        self.net = builder.build_multiring()
        self.history = History()
        self.replicas: Dict[Tuple[int, int], KvReplica] = {}
        self.transfers_sent = 0
        self.elections_held = 0
        self._crashed_incarnations: Dict[int, set] = {}
        self._clients: Dict[int, KvClient] = {}
        for ring_index in range(self.net.num_rings):
            listener = _RingListener(self, ring_index)
            for pid in range(hosts_per_ring):
                key = (ring_index, pid)
                durable = (media or {}).get(key)
                self.replicas[key] = listener.replicas[pid] = KvReplica(
                    ring_index=ring_index,
                    pid=pid,
                    decode=listener.decode,
                    durable=durable,
                    snapshot_every=snapshot_every,
                    apply_listener=self._on_apply,
                )
            self.net.taps[ring_index].add_listener(listener)

    # -- lifecycle -----------------------------------------------------

    @property
    def sim(self):
        return self.net.sim

    def start(self) -> None:
        self.net.start()

    def run(self, duration: float) -> None:
        self.net.run(duration)

    # -- keyspace ------------------------------------------------------

    def group_of(self, key: str) -> str:
        return f"kv{stable_hash('kv:' + key) % self.partitions:02d}"

    def groups(self) -> List[str]:
        return [f"kv{index:02d}" for index in range(self.partitions)]

    def ring_groups(self, ring_index: int) -> List[str]:
        return [
            group
            for group in self.groups()
            if self.net.ring_of(group) == ring_index
        ]

    # -- client path ---------------------------------------------------

    def client(self, client_id: int) -> KvClient:
        if client_id not in self._clients:
            self._clients[client_id] = KvClient(self, client_id)
        return self._clients[client_id]

    def home_pid(self, client_id: int) -> int:
        return client_id % self.hosts_per_ring

    def submit_command(
        self, client_id: int, request_id: int, ops: Tuple[Op, ...]
    ) -> None:
        groups = {self.group_of(op.key) for op in ops}
        if len(groups) != 1:
            raise CommandError(
                f"transaction spans partitions {sorted(groups)}; commands "
                f"bind to one partition (cross-shard transactions are a "
                f"documented non-promise, docs/PROTOCOL.md §13)"
            )
        group = groups.pop()
        command = KvCommand(client_id=client_id, request_id=request_id, ops=ops)
        self.history.invoke(client_id, request_id, group, ops, self.sim.now)
        self.net.submit(
            group,
            encode_command(command),
            sender=self.home_pid(client_id),
        )

    def _on_apply(
        self, replica: KvReplica, group: str, command: KvCommand, result: KvResult
    ) -> None:
        # The client observes its response at its home replica only.
        if replica.pid == self.home_pid(command.client_id):
            self.history.respond(
                command.client_id, command.request_id, result, self.sim.now
            )

    # -- recovery orchestration ----------------------------------------

    def _host_alive(self, ring_index: int, pid: int) -> bool:
        host = self.net.ring(ring_index).hosts.get(pid)
        return host is not None and not host.host.crashed

    def _maybe_sync(self, ring_index: int) -> None:
        """Confirm-and-promote pending configurations on one ring.

        Called at every regular configuration install.  A majority
        configuration is **confirmed** only once every listed member
        has installed that exact configuration — the stand-in for the
        in-configuration confirmation round of dynamic-voting primary-
        component protocols.  Member-count majority alone is unsafe:
        under churn, two majority-member-list configurations can be
        installed by disjoint installer sets, and serving on the count
        would run two primary components concurrently (a real fork this
        subsystem's chaos suite caught).  An unconfirmed configuration
        never serves; its buffered deliveries die with it.

        On confirmation, the donor is chosen among lineage candidates
        (``primary`` holders, falling back to all installers on
        bootstrap or total loss): longest applied prefix, ties to the
        lowest pid.  The donor's state transfers to every other member,
        and everyone serves.
        """
        replicas = [
            replica
            for (ring, _pid), replica in self.replicas.items()
            if ring == ring_index
        ]
        live = [
            replica
            for replica in replicas
            if replica.alive and self._host_alive(ring_index, replica.pid)
        ]
        pending: Dict[int, List[KvReplica]] = {}
        for replica in live:
            if replica.mode == BUFFERING and replica.latest_config is not None:
                pending.setdefault(replica.latest_config.config_id, []).append(replica)
        for config_id, waiting in sorted(pending.items()):
            config = waiting[0].latest_config
            installed = [
                peer
                for peer in live
                if peer.latest_config is not None
                and peer.latest_config.config_id == config_id
            ]
            if {peer.pid for peer in installed} < set(config.members):
                continue  # unconfirmed: some member has not installed yet
            candidates = [peer for peer in installed if peer.primary] or installed
            chosen = max(
                candidates,
                key=lambda peer: (peer.store.total_applied(), -peer.pid),
            )
            self.elections_held += 1
            if chosen.mode == BUFFERING:
                chosen.become_primary()
            snapshot = encode_snapshot(chosen.store)
            for peer in installed:
                if peer is not chosen and peer.mode == BUFFERING:
                    peer.receive_transfer(snapshot)
                    self.transfers_sent += 1

    # -- fault surface -------------------------------------------------

    def ring(self, ring_index: int) -> "KvRing":
        """Ring ``ring_index``'s fault surface (see :class:`KvRing`)."""
        return KvRing(self, ring_index)

    def quiesce(self, restart=None) -> None:
        """Quiesce every ring; ``restart`` maps ring index → pids."""
        self.net.quiesce(restart)

    # -- verification surface ------------------------------------------

    def converged(self) -> bool:
        """Membership converged and every live replica is serving."""
        if not self.net.converged():
            return False
        for (ring_index, pid), replica in self.replicas.items():
            if not self._host_alive(ring_index, pid):
                continue
            if not (replica.alive and replica.primary and replica.mode == "serving"):
                return False
        return True

    def check_evs(self) -> Dict[int, str]:
        """Per-ring EVS violations, with crashed incarnations waived."""
        return self.net.check_evs(crashed=self._crashed_incarnations)

    def store_digests(self) -> Dict[int, Dict[int, str]]:
        """ring -> pid -> state digest over the ring's groups, for
        every replica whose host is up."""
        digests: Dict[int, Dict[int, str]] = {}
        for (ring_index, pid), replica in sorted(self.replicas.items()):
            if not (replica.alive and self._host_alive(ring_index, pid)):
                continue
            digests.setdefault(ring_index, {})[pid] = replica.store.digest(
                self.ring_groups(ring_index)
            )
        return digests

    def stores_converged(self) -> bool:
        """Every ring's live replicas hold byte-identical store state."""
        return all(
            len(set(per_ring.values())) == 1
            for per_ring in self.store_digests().values()
            if per_ring
        )

    def check_linearizability(self, budget: Optional[int] = None) -> CheckResult:
        """Check the client-observed history, with the converged
        stores' idempotence watermarks as the applied-ops oracle hint
        (see :func:`~repro.apps.kv.checker.check_partition`)."""
        watermarks: Dict[Tuple[str, int], int] = {}
        for ring_index in range(self.net.num_rings):
            serving = [
                replica
                for (ring, _pid), replica in sorted(self.replicas.items())
                if ring == ring_index
                and replica.alive
                and self._host_alive(ring_index, replica.pid)
                and replica.mode == "serving"
            ]
            if not serving:
                continue  # no hint for this ring's groups: full search
            best = max(serving, key=lambda r: r.store.total_applied())
            watermarks.update(best.store.watermarks)
        kwargs = {} if budget is None else {"budget": budget}
        return check_history(
            self.history, watermarks=watermarks or None, **kwargs
        )

    def counters(self) -> Dict[str, object]:
        return {
            "replicas": {
                f"r{ring}p{pid}": replica.counters()
                for (ring, pid), replica in sorted(self.replicas.items())
            },
            "transfers_sent": self.transfers_sent,
            "elections_held": self.elections_held,
            "history_ops": len(self.history),
            "history_completed": self.history.completed,
        }


class KvRing:
    """One ring of a :class:`KvCluster` as a fault target: what
    :class:`~repro.faults.injector.FaultInjector` reads and calls.

    ``crash`` also fail-stops the replica and waives its incarnation in
    :meth:`KvCluster.check_evs`; after ``restart`` the replica replays
    snapshot + WAL, resyncs and serves.  The other fault methods are
    the ring's own, as is ``observer``, which the injector reports each
    applied fault to.
    """

    def __init__(self, kv: KvCluster, ring_index: int) -> None:
        self.kv = kv
        self.index = ring_index
        self.net_ring = ring = kv.net.ring(ring_index)
        self.sim = kv.sim
        self.topology = ring.topology
        self.observer = ring.observer
        self.restart = ring.restart
        self.partition = ring.partition
        self.heal = ring.heal
        self.pause = ring.pause
        self.resume = ring.resume

    def crash(self, pid: int) -> None:
        self._crash_replica(pid)
        self.net_ring.crash(pid)

    def _crash_replica(self, pid: int) -> None:
        self.kv.replicas[(self.index, pid)].crash()
        self.kv._crashed_incarnations.setdefault(self.index, set()).add(pid)

    def arm_crash_after_append(self, pid: int, only_transactions: bool = False) -> None:
        """On its next qualifying command the replica WAL-appends, then
        dies before applying.

        The replica's volatile state goes at once, so nothing past the
        armed command is applied or logged; the host's fail-stop waits
        for the current instant's in-flight delivery batch (crashing a
        host inside its own delivery callback would run the rest of the
        batch on a corpse).
        """

        def action() -> None:
            self._crash_replica(pid)
            self.sim.schedule_at(self.sim.now, self.net_ring.crash, pid)

        when = (lambda cmd: cmd.is_transaction) if only_transactions else None
        self.kv.replicas[(self.index, pid)].arm_crash(action, when=when)
