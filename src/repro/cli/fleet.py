"""``fleet run`` and ``daemon``: real daemons on loopback UDP."""

from __future__ import annotations

import argparse
import json
import sys


def _fleet_run(args: argparse.Namespace) -> int:
    import asyncio
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
        print(json.dumps(report, indent=2, sort_keys=True))
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
        # message had a socket write of its own).  Packing (PROTOCOL.md
        # §15) is envelopes/container: 1.0 = nothing was ever packed,
        # as at one message in flight per client.
        batches = counters["batches_sent"]
        containers = counters["containers_sent"]
        print(
            f"        acked {report['messages_acked']}/"
            f"{report['messages_sent']}, decode_errors="
            f"{counters['decode_errors']}, dropped_slow="
            f"{counters['clients_dropped_slow']}, datagrams/msg "
            f"{counters['datagrams_sent'] / max(1, report['messages_acked']):.2f}, "
            f"msgs/client-write "
            f"{counters['messages_delivered_to_clients'] / max(1, counters['client_writes']):.1f}, "
            f"msgs/batch "
            f"{counters['batched_messages'] / batches if batches else 1.0:.1f}, "
            f"envelopes/container "
            f"{counters['envelopes_packed'] / containers if containers else 1.0:.1f}"
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


def register(sub) -> None:
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
