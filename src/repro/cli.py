"""Command-line interface.

``python -m repro <command>`` (or the ``accelring`` console script):

* ``demo`` — the quickstart comparison at one operating point.
* ``sweep`` — a latency-vs-throughput sweep (mini Fig. 2/4).
* ``maxtp`` — the headline maximum-throughput table.
* ``figure`` — regenerate a committed result (or ``all``), save it under
  ``benchmarks/results/`` and check its shape against the paper's.
* ``chaos`` — run a named fault-injection scenario under EVS checking.
* ``soak`` — run many seeded random fault plans under EVS checking.
* ``conformance`` — differential oracle + bounded schedule exploration
  across the protocol variants.
* ``kv`` — the replicated KV store: fault-free runs, chaos scenarios
  with linearizability checking, WAL recover-replay.
* ``fleet run`` — real daemons on loopback under closed-loop clients;
  fails unless every message is acked and the health counters are 0.
* ``daemon`` — run a real daemon (UDP ring + unix client socket).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional, Sequence

from repro.bench.experiments import run_max_throughput, run_point
from repro.bench.report import format_metrics, format_series, save_metrics_json, save_results
from repro.obs.observer import MetricsObserver
from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.profiles import PROFILES
from repro.util.errors import ConfigurationError


def _params(name: str):
    return TEN_GIGABIT if name == "10g" else GIGABIT


def cmd_demo(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    params = _params(args.network)
    print(
        f"{args.profile} / {args.network} / {args.rate:.0f} Mbps / "
        f"{args.payload} B payloads / {args.service} delivery"
    )
    service = DeliveryService[args.service.upper()]
    want_metrics = args.metrics or args.metrics_json is not None
    for accelerated, label in ((False, "original"), (True, "accelerated")):
        observer = MetricsObserver() if want_metrics else None
        point = run_point(
            profile=profile,
            accelerated=accelerated,
            params=params,
            rate_mbps=args.rate,
            payload_size=args.payload,
            service=service,
            observer=observer,
        )
        print(
            f"  {label:12s} goodput {point.goodput_mbps:7.1f} Mbps   "
            f"latency {point.latency_us:8.1f} us   "
            f"worst-5% {point.worst5_us:8.1f} us"
        )
        if observer is not None:
            if args.metrics:
                print()
                print(format_metrics(observer.registry, title=f"{label} protocol metrics"))
                print()
            if args.metrics_json is not None:
                path = save_metrics_json(f"{args.metrics_json}-{label}.json", observer.registry)
                print(f"  metrics saved to {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    params = _params(args.network)
    service = DeliveryService[args.service.upper()]
    rates = [float(rate) for rate in args.rates.split(",")]
    series = {}
    for accelerated in (False, True):
        name = "accelerated" if accelerated else "original"
        series[name] = [
            run_point(
                profile=profile,
                accelerated=accelerated,
                params=params,
                rate_mbps=rate,
                payload_size=args.payload,
                service=service,
            )
            for rate in rates
        ]
    print(
        format_series(
            f"latency vs throughput — {args.profile}, {args.network}, "
            f"{args.service}",
            series,
        )
    )
    return 0


def cmd_maxtp(args: argparse.Namespace) -> int:
    print(f"maximum goodput (closed-loop senders), payload {args.payload} B")
    print(f"{'profile':10s}{'network':>9s}{'original':>12s}{'accelerated':>14s}")
    for network in ("1g", "10g"):
        for name, profile in PROFILES.items():
            row = []
            for accelerated in (False, True):
                point = run_max_throughput(
                    profile=profile,
                    accelerated=accelerated,
                    params=_params(network),
                    payload_size=args.payload,
                )
                row.append(point.goodput_mbps)
            print(f"{name:10s}{network:>9s}{row[0]:>10.0f}Mb{row[1]:>12.0f}Mb")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench.figures import FIGURES

    if args.key != "all" and args.key not in FIGURES:
        print(f"unknown figure {args.key!r}; choose from {list(FIGURES)} or 'all'",
              file=sys.stderr)
        return 2
    keys = list(FIGURES) if args.key == "all" else [args.key]
    failed = 0
    for key in keys:
        figure = FIGURES[key]
        title, data = figure.run()
        text = figure.render(title, data)
        print(text)
        print(f"saved {save_results(figure.filename, text)}")
        for description, ok in figure.check(data):
            print(f"  {'PASS' if ok else 'FAIL'}  {key}: {description}")
            failed += not ok
        print()
    print(f"{len(keys)} figure(s), {failed} failed check(s)")
    return 1 if failed else 0


def _write_artifact(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name``, creating the directory."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _emit(
    args: argparse.Namespace,
    report,
    line: str,
    artifact: str,
    details: Sequence[str] = (),
) -> int:
    """Print one checked report, save it under ``--out``, return its
    exit code (0 when ``report.ok``).

    ``--json`` prints the report's canonical JSON and nothing else;
    otherwise a ``PASS``/``FAIL`` status line carrying ``line``, then
    the ``details`` lines as given.
    """
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(f"  {'PASS' if report.ok else 'FAIL'}  {line}")
        for detail in details:
            print(detail)
    if args.out is not None:
        path = _write_artifact(args.out, artifact, report.to_json())
        if not args.json:
            print(f"report written to {path}")
    return 0 if report.ok else 1


def _run_library(
    args: argparse.Namespace,
    scenarios,
    run: Callable,
    kind: str,
    fields: Callable[[object], str],
) -> int:
    """``chaos`` and ``kv chaos``: list a scenario library, or run one
    scenario / all of them at ``--seed`` and summarise."""
    if args.list or (args.scenario is None and not args.all):
        for name in sorted(scenarios):
            print(f"  {name:18s} {scenarios[name].summary}")
        return 0
    names = sorted(scenarios) if args.all else [args.scenario]
    if names[0] not in scenarios:
        print(
            f"unknown {kind} {names[0]!r}; choose from {sorted(scenarios)}",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for name in names:
        report = run(name, seed=args.seed)
        failures += _emit(
            args,
            report,
            f"{name:18s} seed={report.seed} {fields(report)} "
            f"sim_time={report.sim_time:.3f}s",
            f"{name}_seed{args.seed}.json",
            [f"        violation: {violation}" for violation in report.violations],
        )
    if not args.json:
        print()
        print(f"{len(names) - failures} passed, {failures} failed")
    return 1 if failures else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIOS, run_scenario

    return _run_library(
        args,
        SCENARIOS,
        run_scenario,
        "scenario",
        lambda report: (
            f"hosts={report.num_hosts} events={len(report.events)} "
            f"deliveries={sum(report.deliveries.values())}"
        ),
    )


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.faults.soak import Counterexample, run_soak

    if args.replay is not None:
        with open(args.replay, "r", encoding="utf-8") as handle:
            counterexample = Counterexample.from_json(handle.read())
        print(
            f"replaying counterexample: soak seed {counterexample.soak_seed} "
            f"case {counterexample.index} (seed={counterexample.seed}, "
            f"hosts={counterexample.num_hosts}, "
            f"events={len(counterexample.plan)})"
        )
        violation = counterexample.replay()
        if violation is None:
            print("  PASS  the failure no longer reproduces")
            return 0
        print("  FAIL  violation reproduces:")
        for line in violation.splitlines():
            print(f"        {line}")
        return 1

    def progress(case) -> None:
        if case.violation is not None:
            print(f"  case {case.index}: VIOLATION (seed={case.seed})")
        elif (case.index + 1) % 25 == 0 or case.index + 1 == args.plans:
            print(f"  {case.index + 1}/{args.plans} plans checked")

    report = run_soak(
        plans=args.plans,
        num_hosts=args.hosts,
        seed=args.seed,
        max_steps=args.max_steps,
        minimize=not args.no_minimize,
        fabric_racks=args.fabric_racks,
        impair=args.impair,
        progress=progress,
    )
    if args.out is not None:
        path = _write_artifact(args.out, "soak_report.json", report.to_json())
        print(f"report written to {path}")
        for counterexample in report.counterexamples:
            path = _write_artifact(
                args.out,
                f"counterexample_{counterexample.index}.json",
                counterexample.to_json(),
            )
            print(f"counterexample written to {path}")
    print()
    print(
        f"{report.plans - report.failures}/{report.plans} plans passed, "
        f"{report.failures} EVS violation(s)"
    )
    for counterexample in report.counterexamples:
        print(
            f"  case {counterexample.index}: seed={counterexample.seed} "
            f"minimized to {len(counterexample.minimized_steps)} step(s); "
            f"replay with: python -m repro soak --replay "
            f"counterexample_{counterexample.index}.json"
        )
    return 1 if report.failures else 0


def _conformance_workload(args: argparse.Namespace):
    from repro.conformance.workload import Workload

    return Workload(
        num_hosts=args.hosts,
        rounds=args.rounds,
        burst_size=args.burst_size,
        probe_burst=args.probe_burst,
        fabric_racks=args.fabric_racks,
        impair=args.impair or "",
    )


def _divergence_lines(divergences) -> List[str]:
    return [
        f"        {line}"
        for divergence in divergences
        for line in divergence.describe().splitlines()
    ]


def _print_divergences(divergences) -> None:
    for line in _divergence_lines(divergences):
        print(line)


def _exploration_details(report) -> List[str]:
    """Each divergent schedule's divergences, then the coverage table."""
    details: List[str] = []
    for case in report.divergent:
        details.append(
            f"  divergent schedule minimized to "
            f"{len(case.minimized_steps)} step(s):"
        )
        details.extend(_divergence_lines(case.report.divergences))
    if report.coverage is not None:
        details.append(report.coverage.format())
    return details


def cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance.differ import ConformanceReport, run_differential
    from repro.conformance.explorer import ExplorationReport, explore
    from repro.faults.plan import FaultPlan

    variants = tuple(args.variants.split(","))

    if args.mode == "report":
        if args.artifact is None:
            print("conformance report needs an artifact file", file=sys.stderr)
            return 2
        with open(args.artifact, "r", encoding="utf-8") as handle:
            payload = handle.read()
        import json as _json

        data = _json.loads(payload)
        if "divergent" in data:
            report = ExplorationReport.from_json(payload)
            print(
                f"exploration: depth={report.depth} budget={report.budget} "
                f"enumerated={report.enumerated} deduped={report.deduped} "
                f"ran={report.ran} skipped={report.skipped_budget} "
                f"{'PASS' if report.ok else 'FAIL'}"
            )
            for line in _exploration_details(report):
                print(line)
            return 0 if report.ok else 1
        report = ConformanceReport.from_json(payload)
        print(
            f"differential: variants={','.join(report.variants)} "
            f"seed={report.seed} {'PASS' if report.ok else 'FAIL'}"
        )
        _print_divergences(report.divergences)
        if report.coverage is not None:
            print(report.coverage.format())
        return 0 if report.ok else 1

    if args.mode == "replay":
        if args.artifact is None:
            print("conformance replay needs an artifact file", file=sys.stderr)
            return 2
        with open(args.artifact, "r", encoding="utf-8") as handle:
            saved = ConformanceReport.from_json(handle.read())
        print(
            f"replaying differential: variants={','.join(saved.variants)} "
            f"seed={saved.seed} plan events={len(saved.plan_events)}"
        )
        report = run_differential(
            saved.workload,
            plan=saved.plan if saved.plan_events else None,
            seed=saved.seed,
            variants=saved.variants,
        )
        if report.ok:
            print("  PASS  no divergence reproduces")
            return 0
        print(f"  FAIL  {len(report.divergences)} divergence(s) reproduce:")
        _print_divergences(report.divergences)
        return 1

    if args.mode in ("sharded", "sharded-explore"):
        from repro.conformance.multiring import (
            ShardedWorkload,
            explore_sharded,
            run_sharded_differential,
        )

        ring_counts = tuple(int(n) for n in args.rings.split(","))
        sharded_workload = ShardedWorkload(
            num_groups=args.groups, hosts_per_ring=args.hosts
        )
        if args.mode == "sharded":
            report = run_sharded_differential(
                sharded_workload, ring_counts=ring_counts, seed=args.seed
            )
            return _emit(
                args,
                report,
                f"rings={','.join(map(str, ring_counts))} "
                f"seed={args.seed} groups={args.groups} "
                f"deliveries={report.deliveries}",
                "conformance_sharded.json",
                _divergence_lines(report.divergences),
            )

        num_rings = max(ring_counts)
        explore_report = explore_sharded(
            num_rings=num_rings,
            workload=sharded_workload,
            seed=args.seed,
            progress=None if args.json else print,
        )
        return _emit(
            args,
            explore_report,
            f"rings={num_rings} cases={len(explore_report.cases)} "
            f"failures={len(explore_report.failures)}",
            "conformance_sharded_explore.json",
            [
                f"        ring {case['ring']} {case['kind']} "
                f"pid {case['pid']} @{case['at']}: "
                f"converged={case['converged']} evs={case['evs']}"
                for case in explore_report.failures
            ],
        )

    if args.mode == "realtime":
        from repro.conformance.realtime import (
            RealtimeWorkload,
            run_realtime_differential,
        )

        workload = RealtimeWorkload(
            num_hosts=args.hosts, burst_size=args.burst_size
        )
        report = run_realtime_differential(workload=workload, crash=args.crash)
        return _emit(
            args,
            report,
            f"sim vs real  hosts={workload.num_hosts} "
            f"crash={args.crash} deliveries={report.deliveries} "
            f"decode_errors={report.decode_errors} "
            f"real_wall={report.real_wall_s:.2f}s",
            "conformance_realtime.json",
            _divergence_lines(report.divergences),
        )

    workload = _conformance_workload(args)

    if args.mode == "run":
        plan = None
        if args.plan is not None:
            import json as _json

            with open(args.plan, "r", encoding="utf-8") as handle:
                plan = FaultPlan.from_dicts(_json.load(handle))
        report = run_differential(
            workload, plan=plan, seed=args.seed, variants=variants
        )
        return _emit(
            args,
            report,
            f"variants={','.join(variants)} seed={args.seed} "
            f"hosts={workload.num_hosts} "
            f"plan_events={len(report.plan_events)} "
            f"deliveries={report.deliveries}",
            "conformance_report.json",
            _divergence_lines(report.divergences),
        )

    if args.mode == "explore":

        def progress(ran: int, total: int, diverged: bool) -> None:
            if diverged:
                print(f"  schedule {ran}: DIVERGENCE")
            elif ran % 5 == 0 or ran == total:
                print(f"  {ran} schedule(s) checked")

        report = explore(
            workload,
            depth=args.depth,
            budget=args.budget,
            seed=args.seed,
            variants=variants,
            max_instants=args.max_instants,
            minimize=not args.no_minimize,
            progress=progress,
        )
        code = _emit(
            args,
            report,
            f"depth={report.depth} "
            f"enumerated={report.enumerated} deduped={report.deduped} "
            f"ran={report.ran} skipped_budget={report.skipped_budget} "
            f"divergent={len(report.divergent)}",
            "conformance_explore.json",
            _exploration_details(report),
        )
        if args.out is not None:
            for index, case in enumerate(report.divergent):
                path = _write_artifact(
                    args.out, f"divergence_{index}.json", case.report.to_json()
                )
                print(f"divergence written to {path}")
        return code

    print(f"unknown conformance mode {args.mode!r}", file=sys.stderr)
    return 2


def _kv_run(args: argparse.Namespace) -> int:
    import json as _json

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
        print(_json.dumps(doc, indent=2, sort_keys=True))
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


def cmd_kv(args: argparse.Namespace) -> int:
    handlers = {
        "run": _kv_run,
        "chaos": _kv_chaos,
        "recover-replay": _kv_recover_replay,
    }
    return handlers[args.kv_mode](args)


def _fleet_run(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json

    from repro.runtime.fleet import Fleet, run_fleet_workload

    async def run() -> dict:
        fleet = Fleet(num_daemons=args.daemons, accelerated=not args.original)
        await fleet.start()
        try:
            return await run_fleet_workload(
                fleet,
                num_clients=args.clients,
                duration=args.duration,
                payload_size=args.payload,
                pipeline=args.pipeline,
                crash_pid=(args.daemons - 1) if args.crash else None,
            )
        finally:
            await fleet.drain_and_stop()

    report = asyncio.run(run())
    counters = report["counters"]
    # PROTOCOL.md §15: every message acked, and no malformed datagram or
    # slow-client drop on the way, whatever the speed.
    ok = (
        report["messages_acked"] == report["messages_sent"]
        and counters["decode_errors"] == 0
        and counters["clients_dropped_slow"] == 0
    )
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"  {'PASS' if ok else 'FAIL'}  {args.daemons} daemon(s), "
            f"{args.clients} client(s), {report['duration_s']:.2f}s: "
            f"{report['msgs_per_sec']:,.0f} msgs/sec closed-loop, "
            f"p50 {report['latency_p50_ms']:.1f}ms "
            f"p99 {report['latency_p99_ms']:.1f}ms, "
            f"{report['reconnects']} reconnect(s)"
        )
        # Coalescing at a glance (PROTOCOL.md §9.1): when a visit's
        # messages share datagrams, datagrams/msg falls well below 2 and
        # msgs/batch (1.0 = nothing was ever batched) rises; the client
        # side of the same thing is msgs/client-write (1.0 = every
        # message had a socket write of its own).
        batches = counters["batches_sent"]
        print(
            f"        acked {report['messages_acked']}/"
            f"{report['messages_sent']}, decode_errors="
            f"{counters['decode_errors']}, dropped_slow="
            f"{counters['clients_dropped_slow']}, datagrams/msg "
            f"{counters['datagrams_sent'] / max(1, report['messages_acked']):.2f}, "
            f"msgs/client-write "
            f"{counters['messages_delivered_to_clients'] / max(1, counters['client_writes']):.1f}, "
            f"msgs/batch "
            f"{counters['batched_messages'] / batches if batches else 1.0:.1f}"
        )
    return 0 if ok else 1


def cmd_daemon(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.ipc import UnixEndpoint, parse_endpoint
    from repro.runtime.transport import local_ring_addresses
    from repro.spread.daemon import SpreadDaemon

    pids = list(range(args.ring_size))
    peers = local_ring_addresses(pids, base_port=args.base_port)
    endpoint = parse_endpoint(args.socket or f"/tmp/accelring-{args.pid}.sock")
    if not isinstance(endpoint, UnixEndpoint):
        print(
            f"daemon --socket must be a unix endpoint, got {endpoint}",
            file=sys.stderr,
        )
        return 2

    async def run() -> None:
        daemon = SpreadDaemon(
            args.pid,
            peers,
            endpoint.path,
            accelerated=not args.original,
        )
        await daemon.start()
        print(
            f"daemon {args.pid} up: udp data/token ports "
            f"{peers[args.pid].data_port}/{peers[args.pid].token_port}, "
            f"clients at {daemon.socket_path}"
        )
        try:
            while True:
                await asyncio.sleep(2.0)
                print(
                    f"  ring={daemon.node.members} state={daemon.node.state} "
                    f"delivered={daemon.node.delivered_count}"
                )
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await daemon.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _add_library_arguments(parser: argparse.ArgumentParser, job: str) -> None:
    """The arguments ``chaos`` and ``kv chaos`` share (see _run_library)."""
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario name (omit with --list or --all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed: same seed, byte-identical report")
    parser.add_argument("--json", action="store_true",
                        help="print the full scenario reports as JSON")
    parser.add_argument("--list", action="store_true",
                        help="list available scenarios")
    parser.add_argument("--all", action="store_true",
                        help=f"run every scenario (CI's {job} job)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelring",
        description="Accelerated Ring: fast total ordering for modern data centers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="compare both protocols at one operating point")
    demo.add_argument("--profile", choices=sorted(PROFILES), default="spread")
    demo.add_argument("--network", choices=["1g", "10g"], default="1g")
    demo.add_argument("--rate", type=float, default=300.0, help="aggregate Mbps")
    demo.add_argument("--payload", type=int, default=1350)
    demo.add_argument("--service", choices=["agreed", "safe"], default="agreed")
    demo.add_argument("--metrics", action="store_true",
                      help="print per-protocol observer metrics tables")
    demo.add_argument("--metrics-json", default=None, metavar="PREFIX",
                      help="save observer metrics snapshots as "
                           "benchmarks/results/PREFIX-<protocol>.json")
    demo.set_defaults(func=cmd_demo)

    sweep = sub.add_parser("sweep", help="latency vs throughput sweep")
    sweep.add_argument("--profile", choices=sorted(PROFILES), default="daemon")
    sweep.add_argument("--network", choices=["1g", "10g"], default="1g")
    sweep.add_argument("--rates", default="100,300,500,700,850",
                       help="comma-separated Mbps")
    sweep.add_argument("--payload", type=int, default=1350)
    sweep.add_argument("--service", choices=["agreed", "safe"], default="agreed")
    sweep.set_defaults(func=cmd_sweep)

    maxtp = sub.add_parser("maxtp", help="maximum-throughput table")
    maxtp.add_argument("--payload", type=int, default=1350)
    maxtp.set_defaults(func=cmd_maxtp)

    figure = sub.add_parser(
        "figure",
        help="regenerate a committed result, save it and check its shape",
    )
    figure.add_argument("key", help="1..13, headline, mechanism, ablation-*, "
                                    "scaling, scaling-rings, or 'all'")
    figure.set_defaults(func=cmd_figure)

    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario and check EVS invariants",
    )
    _add_library_arguments(chaos, "chaos-smoke")
    chaos.set_defaults(func=cmd_chaos, out=None)

    soak = sub.add_parser(
        "soak",
        help="run seeded random fault plans under EVS checking (soak test)",
    )
    soak.add_argument("--plans", type=int, default=200,
                      help="number of random fault plans to run")
    soak.add_argument("--hosts", type=int, default=4,
                      help="cluster size for every plan")
    soak.add_argument("--seed", type=int, default=1,
                      help="master seed: every case seed derives from it")
    soak.add_argument("--max-steps", type=int, default=8,
                      help="max abstract fault steps per generated plan")
    soak.add_argument("--out", default=None, metavar="DIR",
                      help="write soak_report.json and counterexample_<n>.json "
                           "artifacts into DIR")
    soak.add_argument("--fabric-racks", type=int, default=0, metavar="N",
                      help="soak on a leaf-spine fabric with N racks "
                           "(adds correlated rack_power_loss to the action "
                           "vocabulary; 0 = single-switch star)")
    soak.add_argument("--impair", default=None,
                      choices=("reorder", "jitter", "duplicate"),
                      help="layer a named impairment preset under every plan")
    soak.add_argument("--no-minimize", action="store_true",
                      help="keep failing plans as generated (skip shrinking)")
    soak.add_argument("--replay", default=None, metavar="FILE",
                      help="replay a counterexample_<n>.json artifact instead "
                           "of generating plans")
    soak.set_defaults(func=cmd_soak)

    conformance = sub.add_parser(
        "conformance",
        help="differential conformance: compare protocol variants' "
             "delivery orders under fault schedules",
    )
    conformance.add_argument(
        "mode",
        choices=[
            "run",
            "explore",
            "replay",
            "report",
            "sharded",
            "sharded-explore",
            "realtime",
        ],
        help="run one differential; explore bounded fault schedules; "
             "replay or pretty-print a saved artifact; compare sharded "
             "multi-ring delivery against single-ring (sharded); sweep "
             "depth-1 faults per ring under EVS checking (sharded-explore); "
             "diff the simulator against real loopback daemons (realtime)",
    )
    conformance.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help="artifact file for replay/report modes",
    )
    conformance.add_argument("--hosts", type=int, default=4,
                             help="cluster size for every variant")
    conformance.add_argument("--seed", type=int, default=0,
                             help="master seed: same seed, same runs")
    conformance.add_argument("--variants", default="original,accelerated",
                             help="comma-separated variant list "
                                  "(original, accelerated, spread)")
    conformance.add_argument("--rounds", type=int, default=2,
                             help="burst rounds per host in the main phase")
    conformance.add_argument("--burst-size", type=int, default=12,
                             help="messages per burst")
    conformance.add_argument("--probe-burst", type=int, default=6,
                             help="messages per post-quiesce probe burst")
    conformance.add_argument("--plan", default=None, metavar="FILE",
                             help="run mode: fault plan JSON "
                                  "(FaultPlan.to_dicts format)")
    conformance.add_argument("--rings", default="1,2",
                             help="sharded modes: comma-separated ring "
                                  "counts to compare (sharded) or the max "
                                  "to explore (sharded-explore)")
    conformance.add_argument("--groups", type=int, default=6,
                             help="sharded modes: number of Spread groups")
    conformance.add_argument("--depth", type=int, default=2,
                             help="explore mode: max fault atoms per schedule")
    conformance.add_argument("--budget", type=int, default=24,
                             help="explore mode: max differential runs")
    conformance.add_argument("--max-instants", type=int, default=4,
                             help="explore mode: harvested instants kept")
    conformance.add_argument("--fabric-racks", type=int, default=0, metavar="N",
                             help="run the workload on a leaf-spine fabric "
                                  "with N racks (0 = single-switch star)")
    conformance.add_argument("--impair", default=None,
                             choices=("reorder", "jitter", "duplicate"),
                             help="layer a named impairment preset under "
                                  "every variant run")
    conformance.add_argument("--crash", action="store_true",
                             help="realtime mode: crash and restart one "
                                  "daemon at the scripted barriers")
    conformance.add_argument("--no-minimize", action="store_true",
                             help="explore mode: keep divergent schedules "
                                  "as enumerated (skip shrinking)")
    conformance.add_argument("--json", action="store_true",
                             help="print the full report as JSON")
    conformance.add_argument("--out", default=None, metavar="DIR",
                             help="write report (and divergence) JSON "
                                  "artifacts into DIR")
    conformance.set_defaults(func=cmd_conformance)

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
    kv_run.set_defaults(func=cmd_kv)

    kv_chaos = kv_sub.add_parser(
        "chaos",
        help="KV chaos scenarios: faults under load, then convergence, "
             "EVS, and linearizability checks",
    )
    _add_library_arguments(kv_chaos, "kv-smoke")
    kv_chaos.add_argument("--out", default=None, metavar="DIR",
                          help="write <scenario>_seed<seed>.json into DIR")
    kv_chaos.set_defaults(func=cmd_kv)

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
    kv_recover.set_defaults(func=cmd_kv)

    fleet = sub.add_parser(
        "fleet",
        help="multi-daemon loopback fleet: closed-loop client workloads (run)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_mode", required=True)

    fleet_run = fleet_sub.add_parser(
        "run",
        help="start N daemons + M concurrent clients over loopback and "
             "drive a closed-loop workload",
    )
    fleet_run.add_argument("--daemons", type=int, default=3,
                           help="ring size (one daemon per simulated server)")
    fleet_run.add_argument("--clients", type=int, default=8,
                           help="concurrent SpreadClient connections, "
                                "round-robined across daemons")
    fleet_run.add_argument("--duration", type=float, default=2.0,
                           help="workload wall-clock seconds")
    fleet_run.add_argument("--payload", type=int, default=64,
                           help="payload bytes per message")
    fleet_run.add_argument("--pipeline", type=int, default=1,
                           help="in-flight messages per client")
    fleet_run.add_argument("--crash", action="store_true",
                           help="crash and restart the last daemon "
                                "mid-workload (clients reconnect)")
    fleet_run.add_argument("--original", action="store_true",
                           help="run the original Totem Ring protocol")
    fleet_run.add_argument("--json", action="store_true",
                           help="print the full workload report as JSON")
    fleet_run.set_defaults(func=_fleet_run)

    daemon = sub.add_parser("daemon", help="run a real daemon over UDP")
    daemon.add_argument("--pid", type=int, required=True)
    daemon.add_argument("--ring-size", type=int, default=3)
    daemon.add_argument("--base-port", type=int, default=28800)
    daemon.add_argument(
        "--socket",
        default=None,
        help="client endpoint: a unix socket path or unix:// spec",
    )
    daemon.add_argument("--original", action="store_true",
                        help="run the original Totem Ring protocol")
    daemon.set_defaults(func=cmd_daemon)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"accelring: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
