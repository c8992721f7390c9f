"""One KV replica: a state machine riding one ring's delivery stream.

Normal case (the tippers-commit append-before-apply idiom):

1. an ordered message arrives (``on_ordered``);
2. its command bytes, as ordered, are appended to the WAL — *durable
   first*;
3. the command is applied to the in-memory store;
4. every ``snapshot_every`` appended records, the store is snapshotted
   and the WAL reset (snapshot installation is atomic in both storage
   backends, so a crash anywhere in the cycle recovers consistently).

A crash between steps 2 and 3 is the classic recovery window: the WAL
holds a command memory never saw.  Replay is idempotent (store
watermarks), so recovery applies it exactly once.

Replica modes compose the store with EVS configuration changes:

* ``serving`` — in a *confirmed* primary-component configuration
  (majority member list, and every listed member actually installed
  it), synced with the lineage: apply deliveries directly.
* ``buffering`` — in a majority configuration that is not yet
  confirmed and promoted by the cluster orchestrator (every install
  starts here, as does a freshly recovered replica): deliveries are
  buffered, scoped to this configuration; watermark idempotence makes
  the buffer/transfer overlap harmless.
* ``stalled`` — in a minority configuration: deliveries are *dropped*.
  Commands ordered in non-primary components are never applied by
  anyone (their clients see no response), which is what keeps two
  sides of a partition from diverging.

Transitional configurations change nothing: their deliveries belong to
the closed regular configuration and are handled under its mode — that
is precisely the guarantee transitional views exist to provide.

The cluster layer (:mod:`~repro.apps.kv.cluster`) drives the
cross-replica parts: who donates state transfer, and the
longest-WAL election when a majority forms with no primary survivor.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.apps.kv.commands import KvCommand, KvResult
from repro.apps.kv.snapshot import decode_snapshot, encode_snapshot
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import MemoryWalStorage, WriteAheadLog

SERVING, BUFFERING, STALLED = "serving", "buffering", "stalled"


class DurableMedium:
    """A replica's 'disk': WAL bytes plus the latest snapshot image.

    Owned by the cluster, not the replica, so it survives process
    crashes exactly like a filesystem survives a killed daemon.  The
    default in-memory backends model the disk inside the simulator;
    file-backed storage (:class:`~repro.apps.kv.wal.FileWalStorage`)
    drops in for the CLI's durable runs.
    """

    def __init__(
        self,
        wal_storage: Optional[object] = None,
        snapshot_storage: Optional[object] = None,
    ) -> None:
        self.wal_storage = wal_storage if wal_storage is not None else MemoryWalStorage()
        self.snapshot_storage = (
            snapshot_storage if snapshot_storage is not None else MemoryWalStorage()
        )

    def write_snapshot(self, data: bytes) -> None:
        self.snapshot_storage.replace(data)

    def read_snapshot(self) -> bytes:
        return self.snapshot_storage.read()


def recover_store(durable: DurableMedium) -> Tuple[KvStore, int]:
    """Rebuild a store from a medium: snapshot, then WAL redo replay.

    Returns ``(store, wal_records_replayed)``.  Standalone so the CLI's
    ``recover-replay`` can run the exact code path a replica runs.
    """
    store = decode_snapshot(durable.read_snapshot())
    if store is None:
        store = KvStore()
    replayed = 0
    for record in WriteAheadLog(durable.wal_storage).records():
        store.apply(record.group, record.command)
        replayed += 1
    return store, replayed


class KvReplica:
    """The per-(ring, pid) application state machine."""

    def __init__(
        self,
        ring_index: int,
        pid: int,
        decode: Callable[[bytes], KvCommand],
        durable: Optional[DurableMedium] = None,
        snapshot_every: int = 64,
        apply_listener: Optional[
            Callable[["KvReplica", str, KvCommand, KvResult], None]
        ] = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.ring_index = ring_index
        self.pid = pid
        self.durable = durable if durable is not None else DurableMedium()
        self.snapshot_every = snapshot_every
        self.apply_listener = apply_listener
        #: Payload -> command, shared by the ring's replicas so that each
        #: ordered command is parsed once per ring.
        self.decode = decode

        self.store: KvStore = KvStore()
        self.wal = WriteAheadLog(self.durable.wal_storage)
        self.alive = True
        self.primary = False
        self.mode = BUFFERING
        self.latest_config = None  # latest *regular* Configuration seen
        self.buffer: List[Tuple[str, bytes]] = []

        # Counters (exported into chaos / bench reports).
        self.applies = 0
        self.duplicates_skipped = 0
        self.dropped_minority = 0
        self.snapshots_taken = 0
        self.recoveries = 0
        self.transfers_received = 0
        self._records_since_snapshot = 0

        # Chaos hook: crash between WAL append and apply (see arm_crash).
        self._crash_when: Optional[Callable[[KvCommand], bool]] = None
        self._crash_action: Optional[Callable[[], None]] = None

    # -- delivery path -------------------------------------------------

    def on_ordered(self, group: str, payload: bytes, config_id: int) -> None:
        """One ordered message for this replica, in delivery order."""
        if not self.alive:
            return
        if self.mode == STALLED:
            self.dropped_minority += 1
            return
        if self.mode == BUFFERING:
            self.buffer.append((group, payload))
            return
        self._ingest(group, payload)

    def _ingest(self, group: str, payload: bytes) -> None:
        command = self.decode(payload)
        self.wal.append_ordered(group, payload)
        self._records_since_snapshot += 1
        if self._crash_when is not None and self._crash_when(command):
            # The armed chaos crash: durable append done, apply never
            # happens.  Disarm first — the action tears this process
            # down and must not recurse.
            self._crash_when = None
            action, self._crash_action = self._crash_action, None
            if action is not None:
                action()
            return
        result = self.store.apply(group, command)
        if result is None:
            self.duplicates_skipped += 1
        else:
            self.applies += 1
            if self.apply_listener is not None:
                self.apply_listener(self, group, command, result)
        if self._records_since_snapshot >= self.snapshot_every:
            self.take_snapshot()

    def drain(self) -> None:
        buffered, self.buffer = self.buffer, []
        for group, payload in buffered:
            self._ingest(group, payload)

    # -- configuration path --------------------------------------------

    def on_config(self, configuration, ring_size: int) -> None:
        """A new configuration installed at this replica.

        ``ring_size`` is the ring's nominal full membership count; only
        a configuration holding a strict majority of it can become the
        primary component.  But a member-count majority is *claimed*
        membership, not actual: under churn, two configurations with
        majority member lists can be installed by disjoint installer
        sets (a listed member that fails mid-install lands in a
        different configuration instead).  Serving on member count
        alone therefore forks the lineage — so every install, even at a
        current primary, drops to ``buffering`` until the cluster
        orchestrator confirms that *all* listed members installed this
        exact configuration (the dynamic-voting confirmation round) and
        promotes it.

        The buffer is scoped to the new configuration: deliveries
        buffered under a configuration that never confirms die with it
        (nobody applied them; their clients see incomplete operations).
        ``primary`` survives as the lineage-candidacy flag — it marks
        state that was part of the last confirmed primary component and
        weighs into the next promotion's donor choice.
        """
        if not self.alive or configuration.transitional:
            return
        self.latest_config = configuration
        self.buffer.clear()
        if len(configuration.members) * 2 <= ring_size:
            self.mode = STALLED
        else:
            self.mode = BUFFERING

    # -- durability / recovery -----------------------------------------

    def take_snapshot(self) -> None:
        self.durable.write_snapshot(encode_snapshot(self.store))
        self.wal.reset()
        self._records_since_snapshot = 0
        self.snapshots_taken += 1

    def crash(self) -> None:
        """Process death: volatile state gone, the medium stays."""
        self.alive = False
        self.primary = False
        self.store = KvStore()
        self.buffer.clear()
        self.mode = BUFFERING
        self.latest_config = None
        self._crash_when = None
        self._crash_action = None

    def local_recover(self) -> int:
        """Restart: rebuild from snapshot + WAL; returns records replayed.

        The recovered replica is *not* primary — its local state covers
        only what it had durably logged before dying.  It buffers until
        the cluster resyncs it (peer transfer or election).
        """
        self.store, replayed = recover_store(self.durable)
        self.wal = WriteAheadLog(self.durable.wal_storage)
        self._records_since_snapshot = 0
        self.alive = True
        self.primary = False
        self.mode = BUFFERING
        self.buffer.clear()
        self.recoveries += 1
        return replayed

    # -- resync (cluster-driven) ---------------------------------------

    def become_primary(self) -> None:
        """Adopt own state as the primary lineage (election winner, or
        sole bootstrap case); drain anything buffered meanwhile."""
        self.primary = True
        if self.mode == BUFFERING:
            self.mode = SERVING
            self.drain()

    def receive_transfer(self, snapshot_bytes: bytes) -> None:
        """Install a donor's snapshot and catch up from the buffer.

        The donor state supersedes local history wholesale (it is a
        superset prefix of the same per-group orders), so it also
        becomes the new durable snapshot and the WAL resets — exactly
        as if this replica had just taken that snapshot itself.
        """
        store = decode_snapshot(snapshot_bytes)
        if store is None:
            raise ValueError("state transfer carried an empty snapshot")
        self.store = store
        self.durable.write_snapshot(snapshot_bytes)
        self.wal.reset()
        self._records_since_snapshot = 0
        self.transfers_received += 1
        self.become_primary()

    # -- chaos hook ----------------------------------------------------

    def arm_crash(
        self,
        action: Callable[[], None],
        when: Optional[Callable[[KvCommand], bool]] = None,
    ) -> None:
        """Crash this replica between WAL append and apply.

        ``when`` selects the triggering command (default: the next
        one); ``action`` performs the actual teardown (the cluster
        crashes the underlying host so membership sees a real
        fail-stop, then calls :meth:`crash`).
        """
        self._crash_when = when if when is not None else (lambda _command: True)
        self._crash_action = action

    def counters(self) -> dict:
        return {
            "applies": self.applies,
            "duplicates_skipped": self.duplicates_skipped,
            "dropped_minority": self.dropped_minority,
            "snapshots_taken": self.snapshots_taken,
            "recoveries": self.recoveries,
            "transfers_received": self.transfers_received,
            "wal_records": self.wal.records_appended,
        }

    def __repr__(self) -> str:
        return (
            f"KvReplica(ring={self.ring_index}, pid={self.pid}, "
            f"mode={self.mode}, primary={self.primary}, "
            f"applied={self.store.total_applied()})"
        )
