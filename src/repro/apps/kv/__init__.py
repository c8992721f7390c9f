"""``repro.apps.kv`` — a durable replicated KV store on the ordered stream.

The store is a textbook state-machine-replication application over the
Accelerated Ring stack (docs/PROTOCOL.md §13):

* **Commands** (:mod:`~repro.apps.kv.commands`) — GET/PUT/DELETE/CAS
  and atomic multi-op transactions, encoded as the payloads of ordered
  messages.
* **Store** (:mod:`~repro.apps.kv.store`) — the deterministic state
  machine every replica applies, with idempotence watermarks and a
  byte-stable state digest for convergence checking.
* **WAL + snapshots** (:mod:`~repro.apps.kv.wal`,
  :mod:`~repro.apps.kv.snapshot`) — redo logging in the
  append-before-apply discipline, periodic compaction, torn-tail-safe
  recovery.
* **Replica + cluster** (:mod:`~repro.apps.kv.replica`,
  :mod:`~repro.apps.kv.cluster`) — replicas applying the per-ring
  delivery stream of a :class:`~repro.multiring.cluster.
  MultiRingCluster`, primary-component semantics under partitions, and
  crash recovery that composes local WAL replay with peer state
  transfer at EVS configuration changes.
* **Checker** (:mod:`~repro.apps.kv.checker`) — a per-partition
  linearizability checker over client-observed histories.
* **Chaos** (:mod:`~repro.apps.kv.chaos`) — seeded fault scenarios
  (including crash-between-WAL-append-and-apply) with byte-identical
  JSON reports.
"""

from repro.apps.kv.commands import (
    CAS,
    DELETE,
    GET,
    PUT,
    CommandError,
    KvCommand,
    KvResult,
    Op,
    cas,
    decode_command,
    delete,
    encode_command,
    get,
    put,
)
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import (
    FileWalStorage,
    MemoryWalStorage,
    WalRecord,
    WriteAheadLog,
)
from repro.apps.kv.snapshot import decode_snapshot, encode_snapshot
from repro.apps.kv.replica import DurableMedium, KvReplica
from repro.apps.kv.cluster import KvClient, KvCluster
from repro.apps.kv.history import History, Operation
from repro.apps.kv.checker import CheckResult, check_history, check_partition

__all__ = [
    "GET",
    "PUT",
    "DELETE",
    "CAS",
    "CommandError",
    "KvCommand",
    "KvResult",
    "Op",
    "get",
    "put",
    "delete",
    "cas",
    "encode_command",
    "decode_command",
    "KvStore",
    "WalRecord",
    "WriteAheadLog",
    "MemoryWalStorage",
    "FileWalStorage",
    "encode_snapshot",
    "decode_snapshot",
    "DurableMedium",
    "KvReplica",
    "KvClient",
    "KvCluster",
    "History",
    "Operation",
    "CheckResult",
    "check_history",
    "check_partition",
]
