"""KV benchmark suite: skewed workloads against store and cluster.

Two tiers, because the interesting costs live at different depths:

* **store tier** — commands stream straight into a :class:`~repro.apps.
  kv.store.KvStore` through the WAL append-before-apply path (no
  network, no simulator).  This is the state-machine hot path, so it
  can afford *multi-million-key* Zipfian keyspaces and hundreds of
  thousands of operations; it measures apply throughput, WAL byte
  volume, and snapshot cadence under realistic skew.
* **cluster tier** — the same workload shape driven end-to-end through
  a :class:`~repro.apps.kv.cluster.KvCluster`: ordering ring, replica
  apply, response capture.  Simulated metrics here (ops applied,
  completion counts, store digest) are deterministic per seed and
  byte-stable in the report; only wall-clock throughput varies by
  machine.

These are the cases of ``repro bench --suite kv``
(:mod:`repro.bench.harness` runs and gates them).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

from repro.apps.kv.cluster import KvCluster
from repro.apps.kv.commands import KvCommand, put
from repro.apps.kv.replica import DurableMedium
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import WalRecord, WriteAheadLog
from repro.apps.kv.snapshot import encode_snapshot
from repro.bench.harness import BenchCase
from repro.faults.drive import boot
from repro.workloads.kv import DiurnalArrivals, KvOpMix, ZipfianKeys, drive_schedule


# ----------------------------------------------------------------------
# Store tier
# ----------------------------------------------------------------------

def _store_case(
    num_keys: int,
    operations: int,
    zipf_s: float,
    snapshot_every: int = 4096,
) -> Callable[[int], Dict[str, Any]]:
    def run(seed: int) -> Dict[str, Any]:
        keys = ZipfianKeys(num_keys=num_keys, s=zipf_s, seed=seed + 11)
        store = KvStore()
        durable = DurableMedium()
        wal = WriteAheadLog(durable.wal_storage)
        group = "kv00"
        since_snapshot = 0
        snapshots = 0
        t0 = time.perf_counter()
        for index in range(operations):
            command = KvCommand(
                client_id=index % 8,
                request_id=index // 8 + 1,
                ops=(put(keys.draw(), b"%d" % index),),
            )
            wal.append(WalRecord(group=group, command=command))
            store.apply(group, command)
            since_snapshot += 1
            if since_snapshot >= snapshot_every:
                durable.write_snapshot(encode_snapshot(store))
                wal.reset()
                since_snapshot = 0
                snapshots += 1
        wall = time.perf_counter() - t0
        return {
            "deterministic": {
                "operations": operations,
                "keyspace": num_keys,
                "zipf_s": zipf_s,
                "distinct_keys": sum(len(part) for part in store.data.values()),
                "snapshots_taken": snapshots,
                "wal_records_tail": wal.records_appended - snapshots * snapshot_every,
                "digest": store.digest(),
            },
            "wall": {
                "wall_time_s": round(wall, 4),
                "ops_per_sec": round(operations / wall, 1) if wall > 0 else 0.0,
            },
        }

    return run


# ----------------------------------------------------------------------
# Cluster tier
# ----------------------------------------------------------------------

def _cluster_case(
    rings: int,
    hosts_per_ring: int,
    partitions: int,
    num_keys: int,
    duration: float,
    peak_rate: float,
) -> Callable[[int], Dict[str, Any]]:
    def run(seed: int) -> Dict[str, Any]:
        kv = KvCluster(
            rings=rings,
            hosts_per_ring=hosts_per_ring,
            partitions=partitions,
            snapshot_every=256,
        )
        base = boot(kv)
        keys = ZipfianKeys(num_keys=num_keys, s=0.99, seed=seed + 21)
        arrivals = DiurnalArrivals(
            trough_rate=peak_rate / 4.0,
            peak_rate=peak_rate,
            period=duration,
            seed=seed + 22,
        )
        mix = KvOpMix(keys=keys, num_clients=hosts_per_ring, seed=seed + 23)
        scheduled = drive_schedule(kv, mix.schedule(arrivals.times(duration)), base)
        t0 = time.perf_counter()
        kv.run(duration + 0.2)
        wall = time.perf_counter() - t0
        digests = kv.store_digests()
        applies = sum(
            replica.applies for replica in kv.replicas.values()
        )
        return {
            "deterministic": {
                "rings": rings,
                "hosts_per_ring": hosts_per_ring,
                "partitions": partitions,
                "ops_scheduled": scheduled,
                "ops_completed": kv.history.completed,
                "ops_incomplete": kv.history.incomplete,
                "replica_applies": applies,
                "stores_converged": kv.stores_converged(),
                "digest": {
                    str(ring): sorted(set(per.values()))[0]
                    for ring, per in sorted(digests.items())
                    if per
                },
                "sim_time": round(kv.sim.now, 9),
            },
            "wall": {
                "wall_time_s": round(wall, 4),
                "ops_per_sec": round(scheduled / wall, 1) if wall > 0 else 0.0,
            },
        }

    return run


CASES: List[BenchCase] = [
    BenchCase(
        name="store-2m-zipf",
        run=_store_case(num_keys=2_000_000, operations=200_000, zipf_s=0.99),
        summary="200k skewed puts over a 2M-key space, WAL+snapshot path",
    ),
    BenchCase(
        name="store-2m-uniform",
        run=_store_case(num_keys=2_000_000, operations=200_000, zipf_s=0.0),
        summary="200k uniform puts over a 2M-key space (cold-key regime)",
    ),
    BenchCase(
        name="cluster-2x4",
        run=_cluster_case(
            rings=2,
            hosts_per_ring=4,
            partitions=8,
            num_keys=10_000,
            duration=0.5,
            peak_rate=800.0,
        ),
        summary="end-to-end ordered KV on 2 rings x 4 replicas",
    ),
]
