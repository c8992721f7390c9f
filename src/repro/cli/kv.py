"""``kv``: the replicated KV store — ``run``, ``chaos``, ``recover-replay``."""

from __future__ import annotations

import argparse
import json

from repro.cli.checks import _add_library_arguments, _run_library


def _kv_run(args: argparse.Namespace) -> int:
    from repro.apps.kv.cluster import KvCluster
    from repro.faults.drive import boot
    from repro.workloads.kv import (
        DiurnalArrivals,
        KvOpMix,
        ZipfianKeys,
        drive_schedule,
    )

    kv = KvCluster(
        rings=args.rings,
        hosts_per_ring=args.hosts,
        partitions=args.partitions,
    )
    base = boot(kv)
    keys = ZipfianKeys(num_keys=args.keys, s=args.zipf, seed=args.seed + 1)
    arrivals = DiurnalArrivals(
        trough_rate=args.rate / 4.0,
        peak_rate=args.rate,
        period=args.duration,
        seed=args.seed + 2,
    )
    mix = KvOpMix(keys=keys, num_clients=args.clients, seed=args.seed + 3)
    scheduled = drive_schedule(kv, mix.schedule(arrivals.times(args.duration)), base)
    kv.run(args.duration + 0.3)
    lin = kv.check_linearizability()
    doc = {
        "topology": {
            "rings": args.rings,
            "hosts_per_ring": args.hosts,
            "partitions": args.partitions,
        },
        "seed": args.seed,
        "ops_scheduled": scheduled,
        "ops_completed": kv.history.completed,
        "ops_incomplete": kv.history.incomplete,
        "stores_converged": kv.stores_converged(),
        "linearizability": lin.to_dict(),
        "sim_time": round(kv.sim.now, 9),
    }
    ok = doc["stores_converged"] and lin.ok and lin.decided
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"  {'PASS' if ok else 'FAIL'}  {args.rings}x{args.hosts} "
            f"partitions={args.partitions} seed={args.seed} "
            f"ops={scheduled} completed={doc['ops_completed']} "
            f"linearizable={lin.ok and lin.decided}"
        )
        for violation in lin.violations:
            print(f"        violation: {violation}")
    return 0 if ok else 1


def _kv_chaos(args: argparse.Namespace) -> int:
    from repro.apps.kv.chaos import SCENARIOS, run_kv_scenario

    return _run_library(
        args,
        SCENARIOS,
        run_kv_scenario,
        "KV scenario",
        lambda report: (
            f"ops={report.history['ops']} "
            f"completed={report.history['completed']}"
        ),
    )


def _kv_recover_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.apps.kv.commands import KvCommand, put
    from repro.apps.kv.replica import DurableMedium, recover_store
    from repro.apps.kv.snapshot import encode_snapshot
    from repro.apps.kv.store import KvStore
    from repro.apps.kv.wal import FileWalStorage, WalRecord, WriteAheadLog

    directory = Path(args.dir)
    durable = DurableMedium(
        wal_storage=FileWalStorage(directory / "wal.bin"),
        snapshot_storage=FileWalStorage(directory / "snapshot.bin"),
    )

    if args.demo:
        # Stage a crash scene: a snapshot, a WAL suffix past it, and
        # (optionally) a torn final append — then recover from it.
        store = KvStore()
        wal = WriteAheadLog(durable.wal_storage)
        wal.reset()
        for index in range(24):
            command = KvCommand(
                client_id=0, request_id=index + 1,
                ops=(put(f"k{index % 8}", b"%d" % index),),
            )
            store.apply("kv00", command)
            if index < 16:
                continue  # first 16 live only in the snapshot
            wal.append(WalRecord(group="kv00", command=command))
        snap = KvStore()
        for index in range(16):
            snap.apply(
                "kv00",
                KvCommand(client_id=0, request_id=index + 1,
                          ops=(put(f"k{index % 8}", b"%d" % index),)),
            )
        durable.write_snapshot(encode_snapshot(snap))
        if args.torn:
            durable.wal_storage.append(b"\x00\x00\x00\x40partial-frame")
        print(
            f"demo scene staged in {directory}: snapshot with 16 commands, "
            f"WAL suffix of 8{', torn tail appended' if args.torn else ''}"
        )

    store, replayed = recover_store(durable)
    digest = store.digest()
    print(
        f"recovered: {replayed} WAL record(s) replayed past the snapshot; "
        f"{sum(len(p) for p in store.data.values())} key(s) across "
        f"{len(store.data)} group(s); applied={store.total_applied()}"
    )
    print(f"digest: {digest}")
    return 0


def register(sub) -> None:
    kv = sub.add_parser(
        "kv",
        help="replicated KV store on the ordered stream: run, "
             "chaos (with linearizability checking), recover-replay",
    )
    kv_sub = kv.add_subparsers(dest="kv_mode", required=True)

    kv_run = kv_sub.add_parser(
        "run", help="fault-free seeded run with linearizability checking"
    )
    kv_run.add_argument("--rings", type=int, default=2)
    kv_run.add_argument("--hosts", type=int, default=4,
                        help="replicas per ring")
    kv_run.add_argument("--partitions", type=int, default=8,
                        help="key partitions (Spread groups) across rings")
    kv_run.add_argument("--keys", type=int, default=256,
                        help="Zipfian keyspace size")
    kv_run.add_argument("--zipf", type=float, default=0.99,
                        help="Zipf skew exponent s (0 = uniform)")
    kv_run.add_argument("--clients", type=int, default=4)
    kv_run.add_argument("--rate", type=float, default=400.0,
                        help="peak ops/sec (diurnal trough is rate/4)")
    kv_run.add_argument("--duration", type=float, default=0.6,
                        help="simulated seconds of workload")
    kv_run.add_argument("--seed", type=int, default=0)
    kv_run.add_argument("--json", action="store_true")
    kv_run.set_defaults(func=_kv_run)

    kv_chaos = kv_sub.add_parser(
        "chaos",
        help="KV chaos scenarios: faults under load, then convergence, "
             "EVS, and linearizability checks",
    )
    _add_library_arguments(kv_chaos, "kv-smoke")
    kv_chaos.add_argument("--out", default=None, metavar="DIR",
                          help="write <scenario>_seed<seed>.json into DIR")
    kv_chaos.set_defaults(func=_kv_chaos)

    kv_recover = kv_sub.add_parser(
        "recover-replay",
        help="rebuild a store from on-disk snapshot + WAL (the replica "
             "restart path, against real files)",
    )
    kv_recover.add_argument("dir", help="directory holding wal.bin/snapshot.bin")
    kv_recover.add_argument("--demo", action="store_true",
                            help="stage a demo crash scene in DIR first")
    kv_recover.add_argument("--torn", action="store_true",
                            help="with --demo: append a torn WAL tail")
    kv_recover.set_defaults(func=_kv_recover_replay)
