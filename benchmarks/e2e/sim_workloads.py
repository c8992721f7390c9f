"""The four simulator-driven workloads: ring-sat, ring-lossy, member-crash, kv-zipf.

Each ``*_slice(seed, quick, tracer)`` builds a fresh cluster through the
public :class:`~repro.sim.build.ClusterBuilder` / :class:`KvCluster`
surface, generates its inputs from ``seed``, runs warm-up, the measured
window and a drain, verifies the output and returns a
:class:`harness.Slice`.  Layer counters are read from public attributes
before and after the measured window; nothing in ``src/`` is edited.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.apps.kv.cluster import KvCluster
from repro.apps.kv.replica import DurableMedium
from repro.apps.kv.wal import MemoryWalStorage
from repro.bench.windows import window_for
from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.faults import FaultInjector, PlanBuilder
from repro.net.loss import UniformLoss
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import DeliveryTap
from repro.sim.profiles import DAEMON, LIBRARY
from repro.util.stats import RunStats
from repro.util.units import Mbps
from repro.workloads.generators import ClosedLoopWorkload, FixedRateWorkload
from repro.workloads.kv import KvOpMix, ZipfianKeys, drive_schedule

from harness import HOST, SIM, Slice, Tracer
from verify import same_order, stores_agree, stream_digest, undelivered

PAYLOAD = 1350
#: Workloads start injecting this long after the ring's first token.
_START = 0.002
#: Membership stacks need this much simulated time to form their ring.
_BOOT = 0.08

Counts = Dict[str, Tuple[float, str, str]]


# ----------------------------------------------------------------------
# Counters shared by every sim workload
# ----------------------------------------------------------------------


def _net_snapshot(sim, topologies: Sequence[object], from_others: int) -> Dict[str, float]:
    """``from_others``: messages delivered so far at hosts that did not send them."""
    hosts = [host for topology in topologies for host in topology.hosts.values()]
    return {
        "events": sim.events_processed,
        "from_others": from_others,
        "nic_bytes": sum(host.nic.bytes_sent for host in hosts),
        "cpu_busy": sum(host.cpu.busy_time for host in hosts),
        "data_frames": sum(host.data_socket.frames_received for host in hosts),
        "hosts": len(hosts),
    }


def _token_snapshot(participants: Sequence[object]) -> Dict[str, float]:
    return {
        "visits": sum(p.rounds_completed for p in participants),
        "originated": sum(p.messages_originated for p in participants),
        "retransmitted": sum(p.retransmissions_sent for p in participants),
        "members": len(participants),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _net_counts(
    before: Dict[str, float],
    after: Dict[str, float],
    topologies: Sequence[object],
    msgs: int,
    sim_s: float,
    host_s: float,
    stack: str,
) -> Counts:
    events = after["events"] - before["events"]
    ports = [
        topology.switch.port(host_id)
        for topology in topologies
        for host_id in topology.hosts
    ]
    return {
        "net.simulator.events_per_msg": (_ratio(events, msgs), "count", SIM),
        "net.simulator.host_ns_per_event": (_ratio(host_s * 1e9, events), "ns", HOST),
        "net.switch.drops": (
            sum(topology.switch.total_drops for topology in topologies), "count", SIM,
        ),
        "net.switch.peak_queue_bytes": (
            max(port.peak_queue_bytes for port in ports), "bytes", SIM,
        ),
        "net.nic.bytes_per_msg": (
            _ratio(after["nic_bytes"] - before["nic_bytes"], msgs), "bytes", SIM,
        ),
        "net.host.cpu_busy_share_sim": (
            _ratio(after["cpu_busy"] - before["cpu_busy"], after["hosts"] * sim_s),
            "ratio", SIM,
        ),
        # Messages delivered per data datagram received: 1.0 while each
        # message travels alone, higher once coalescing reaches the stack.
        f"sim.{stack}.msgs_per_datagram": (
            _ratio(
                after["from_others"] - before["from_others"],
                after["data_frames"] - before["data_frames"],
            ),
            "ratio", SIM,
        ),
    }


def _token_counts(before: Dict[str, float], after: Dict[str, float], sim_s: float) -> Counts:
    visits = after["visits"] - before["visits"]
    originated = after["originated"] - before["originated"]
    retransmitted = after["retransmitted"] - before["retransmitted"]
    return {
        "core.token.rounds_per_sim_s": (
            _ratio(visits, after["members"] * sim_s), "1/s", SIM,
        ),
        "core.participant.msgs_per_token_visit": (_ratio(originated, visits), "count", SIM),
        "core.participant.retransmit_share": (
            _ratio(retransmitted, originated + retransmitted), "ratio", SIM,
        ),
    }


def _sim_digest(stream: Sequence[object], latencies: Sequence[float], events: int) -> str:
    return stream_digest([stream_digest(stream), repr(sorted(latencies)), events])


# ----------------------------------------------------------------------
# ring-sat and ring-lossy: the bare ordering ring
# ----------------------------------------------------------------------


class SeededClosedLoop(ClosedLoopWorkload):
    """The library-prototype closed loop with payload sizes drawn from the
    seed (uniform in ``mean ± spread``): a saturated sender has no other
    input a seed could vary, and every run must get its inputs from one."""

    def __init__(self, rng: random.Random, mean: int, spread: int) -> None:
        self._rng = rng
        self._bounds = (mean - spread, mean + spread)
        super().__init__(payload_size=mean, service=DeliveryService.AGREED)

    # The base class reads ``self.payload_size`` once per submitted message.
    payload_size = property(
        lambda self: self._rng.randint(*self._bounds), lambda self, value: None
    )


def _ring_slice(tracer: Tracer, builder, workload, warm, measure, drain) -> Slice:
    began = time.perf_counter()
    with tracer.span("setup"):
        cluster = builder.build_ring()
        stop = _START + warm + measure
        workload.attach(cluster, start=_START, stop=stop)
        cluster.set_measure_from(_START + warm)
        drivers = [cluster.drivers[pid] for pid in cluster.ring]
        for driver in drivers:
            driver.keep_delivered_log = True
        cluster.start()
    with tracer.span("warmup"):
        cluster.run(_START + warm)
    setup_s = time.perf_counter() - began

    participants = [driver.participant for driver in drivers]
    topologies = [cluster.topology]
    token_before = _token_snapshot(participants)
    logged_before = [len(driver.delivered_log) for driver in drivers]
    net_before = _net_snapshot(
        cluster.sim, topologies, sum(logged_before) - token_before["originated"]
    )
    with tracer.span("measure"), tracer.profiled():
        measure_began = time.perf_counter()
        cluster.run(measure)
        measure_s = time.perf_counter() - measure_began
    token_after = _token_snapshot(participants)
    logged_after = [len(driver.delivered_log) for driver in drivers]
    net_after = _net_snapshot(
        cluster.sim, topologies, sum(logged_after) - token_after["originated"]
    )
    delivered = [after - before for after, before in zip(logged_after, logged_before)]
    with tracer.span("drain"):
        cluster.run(drain)

    with tracer.span("verify"):
        streams = {
            driver.participant.pid: [(m.pid, m.seq) for m in driver.delivered_log]
            for driver in drivers
        }
        problems = same_order(streams)
        attempted = sum(driver.stats.messages_sent for driver in drivers)
        failed = attempted - min(len(stream) for stream in streams.values())
    stats = cluster.aggregate()
    msgs = min(delivered)
    counts = _net_counts(
        net_before, net_after, topologies, msgs,
        sim_s=measure, host_s=measure_s, stack="driver",
    )
    counts.update(_token_counts(token_before, token_after, measure))
    return Slice(
        attempted=attempted,
        failed=attempted if problems else failed,
        setup_s=setup_s,
        measure_s=measure_s,
        msgs=msgs,
        goodput_mbps=stats.goodput_bps / 1e6,
        latencies=stats.latency.samples,
        clock=SIM,
        digest=_sim_digest(streams[0], stats.latency.samples, cluster.sim.events_processed),
        problems=problems,
        counts=counts,
    )


def ring_sat_slice(seed: int, quick: bool, tracer: Tracer) -> Slice:
    """Paper Fig. 4's maximum-throughput point: 8 hosts, 10 GbE, LIBRARY
    profile, every sender saturated (closed loop), Agreed delivery."""
    builder = (
        ClusterBuilder()
        .hosts(8)
        .profile(LIBRARY)
        .network(TEN_GIGABIT)
        .config(window_for(LIBRARY, TEN_GIGABIT, True, PAYLOAD))
    )
    workload = SeededClosedLoop(random.Random(seed), mean=PAYLOAD, spread=50)
    warm, measure = (0.004, 0.008) if quick else (0.01, 0.03)
    return _ring_slice(tracer, builder, workload, warm, measure, drain=0.01)


def ring_lossy_slice(seed: int, quick: bool, tracer: Tracer) -> Slice:
    """The same ring network-bound and lossy: 1 GbE, open-loop Poisson
    500 Mbit/s, Safe delivery, 1 % receive loss (paper Figs. 9-12)."""
    builder = (
        ClusterBuilder()
        .hosts(8)
        .profile(LIBRARY)
        .network(GIGABIT)
        .config(window_for(LIBRARY, GIGABIT, True, PAYLOAD))
        .loss(UniformLoss(0.01, rng=random.Random(seed)))
    )
    workload = FixedRateWorkload(
        PAYLOAD, Mbps(500), DeliveryService.SAFE, poisson=True, seed=seed
    )
    warm, measure = (0.01, 0.04) if quick else (0.02, 0.18)
    return _ring_slice(tracer, builder, workload, warm, measure, drain=0.02)


# ----------------------------------------------------------------------
# member-crash: the full membership stack across a leader failure
# ----------------------------------------------------------------------


class _RecordingTap(DeliveryTap):
    """Per-receiver delivery streams, latency/goodput meters and
    configuration installs, all stamped with simulated time."""

    def __init__(self) -> None:
        self.sim = None
        self.streams: Dict[int, List[Tuple[int, float]]] = {}
        self.times: Dict[int, List[float]] = {}
        self.stats: Dict[int, RunStats] = {}
        self.configs: List[Tuple[float, int, frozenset]] = []
        self.measure_from = 0.0
        #: Messages delivered at hosts that did not send them.
        self.from_others = 0

    def on_deliver(self, pid, message, config_id, origin_ring) -> None:
        self.on_deliver_batch(pid, (message,), config_id, origin_ring)

    def on_deliver_batch(self, pid, messages, config_id, origin_ring) -> None:
        now = self.sim.now
        stats = self.stats.get(pid)
        if stats is None:
            stats = self.stats[pid] = RunStats()
            self.streams[pid] = []
            self.times[pid] = []
        stats.record_delivery_batch(now, messages, self.measure_from)
        # (sender, submit time) identifies a message across ring changes.
        self.streams[pid].extend((m.pid, m.timestamp) for m in messages)
        self.times[pid].extend([now] * len(messages))
        self.from_others += sum(1 for m in messages if m.pid != pid)

    def on_config(self, pid, configuration) -> None:
        if not configuration.transitional:
            self.configs.append((self.sim.now, pid, frozenset(configuration.members)))

    def installed_at(self, members: frozenset, pids: Sequence[int], after: float) -> float:
        """When the last of ``pids`` installed the regular configuration
        ``members`` (first install after ``after``)."""
        return max(
            min(
                (t for t, who, m in self.configs if who == pid and m == members and t >= after),
                default=float("inf"),
            )
            for pid in pids
        )


def _membership_counts(
    tap: _RecordingTap,
    survivors: Sequence[int],
    everyone: Sequence[int],
    crashed_at: float,
    detected_at: float,
    restarted_at: float,
) -> Counts:
    """The anatomy of one crash and rejoin, in simulated milliseconds."""
    reformed = tap.installed_at(frozenset(survivors), survivors, crashed_at)
    rejoined = tap.installed_at(frozenset(everyone), everyone, restarted_at)
    # Time without service: the longest gap between consecutive
    # deliveries at any survivor across the crash.
    outage = max(
        later - earlier
        for pid in survivors
        for earlier, later in zip(tap.times[pid], tap.times[pid][1:])
    )
    return {
        "membership.controller.reconfigs": (
            len({members for t, _pid, members in tap.configs if t > crashed_at}), "count", SIM,
        ),
        "membership.controller.detect_sim_ms": ((detected_at - crashed_at) * 1e3, "ms", SIM),
        "membership.controller.recovery_sim_ms": ((reformed - detected_at) * 1e3, "ms", SIM),
        "membership.controller.rejoin_sim_ms": ((rejoined - restarted_at) * 1e3, "ms", SIM),
        "membership.controller.outage_sim_ms": (outage * 1e3, "ms", SIM),
    }


def _poisson_times(rng: random.Random, rate: float, start: float, stop: float) -> List[float]:
    times, now = [], start + rng.expovariate(rate)
    while now < stop:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def member_crash_slice(seed: int, quick: bool, tracer: Tracer) -> Slice:
    """Six daemons on 10 GbE under open-loop Poisson load; the ring leader
    (pid 0) crashes mid-run and recovers later, with requests still due
    at every host during the outage: one in eight of them, so the
    95th percentile of latency is a wait for the new ring.

    ``FixedRateWorkload.attach`` raises AttributeError on a single-ring
    MembershipCluster (see README findings), so the schedule is placed on
    ``cluster.hosts[pid].submit`` directly.
    """
    hosts, victim = 6, 0
    survivors = [pid for pid in range(hosts) if pid != victim]
    rate_bps = Mbps(400)
    duration = 0.07 if quick else 0.10
    crash_at, recover_at = 0.02, (0.035 if quick else 0.06)
    step = 0.0001  # state-poll granularity for the detection time

    began = time.perf_counter()
    tap = _RecordingTap()
    with tracer.span("setup"):
        cluster = (
            ClusterBuilder()
            .hosts(hosts)
            .membership()
            .profile(DAEMON)
            .network(TEN_GIGABIT)
            # Inert on this stack today (README findings): set so that the
            # one-interpreter work shows here and nowhere else.
            .config(replace(ProtocolConfig(), messages_per_datagram=8))
            .tap(tap)
            .build()
        )
        tap.sim = sim = cluster.sim
        cluster.start()
    with tracer.span("warmup"):
        cluster.run(_BOOT)
    if set(cluster.states().values()) != {"operational"}:
        raise RuntimeError(f"ring did not form during boot: {cluster.states()}")
    setup_s = time.perf_counter() - began

    base = tap.measure_from = sim.now
    per_sender = rate_bps / (PAYLOAD * 8.0) / hosts
    attempted_keys = []

    def submit(pid: int) -> None:
        host = cluster.hosts[pid]  # the current incarnation
        if host.host.crashed:
            return
        # Pre-crash submissions at the victim die with it: not attempts.
        if pid != victim or sim.now >= base + recover_at:
            attempted_keys.append((pid, sim.now))
        host.submit(b"", DeliveryService.AGREED, PAYLOAD)

    for pid in range(hosts):
        rng = random.Random(seed * 1009 + pid)
        for when in _poisson_times(rng, per_sender, base, base + duration):
            sim.schedule_at(when, submit, pid)
    plan = PlanBuilder().crash(victim, at=crash_at).recover(victim, at=recover_at).build()
    FaultInjector(cluster, plan, seed=seed).arm()

    topologies = [cluster.topology]
    steady = [cluster.hosts[pid].controller.ordering for pid in range(hosts)]
    net_before = _net_snapshot(sim, topologies, tap.from_others)
    token_before = _token_snapshot(steady)
    detected_at = float("inf")
    with tracer.span("measure"), tracer.profiled():
        measure_began = time.perf_counter()
        with tracer.span("pre_crash"):
            # Strictly before the crash event, so the token counters read
            # here belong to one undisturbed ring.
            cluster.run(crash_at - step)
            token_after = _token_snapshot(steady)
            cluster.run(step)
        with tracer.span("outage"):
            while sim.now < base + recover_at - step / 2:
                cluster.run(step)
                if detected_at > sim.now and any(
                    state != "operational" for state in cluster.states().values()
                ):
                    detected_at = sim.now
        with tracer.span("post_recover"):
            cluster.run(base + duration - sim.now)
        measure_s = time.perf_counter() - measure_began
    net_after = _net_snapshot(sim, topologies, tap.from_others)
    with tracer.span("drain"):
        cluster.run(0.005)

    with tracer.span("verify"):
        problems: List[str] = []
        try:
            cluster.checker.check(crashed={victim})
        except AssertionError as violation:
            problems.append(f"EVS: {violation}")
        everyone = tuple(range(hosts))
        if set(cluster.rings().values()) != {everyone} or set(
            cluster.states().values()
        ) != {"operational"}:
            problems.append(f"ring did not re-converge: {cluster.rings()}")
        live_streams = {pid: tap.streams[pid] for pid in survivors}
        problems.extend(same_order(live_streams))
        # The recovered incarnation only owes deliveries from its rejoin on.
        rejoined = tap.installed_at(frozenset(everyone), [victim], base + recover_at)
        owed = [key for key in attempted_keys if key[1] >= rejoined]
        failed = undelivered(attempted_keys, live_streams) + undelivered(
            owed, {victim: tap.streams[victim]}
        )

    latencies = [s for pid in survivors for s in tap.stats[pid].latency.samples]
    msgs = min(len(tap.streams[pid]) for pid in survivors)
    counts = _net_counts(
        net_before, net_after, topologies, msgs,
        sim_s=duration, host_s=measure_s, stack="membership_driver",
    )
    counts.update(_token_counts(token_before, token_after, crash_at - step))
    counts.update(
        _membership_counts(
            tap, survivors, everyone,
            crashed_at=base + crash_at, detected_at=detected_at, restarted_at=base + recover_at,
        )
    )
    goodput = sum(tap.stats[pid].throughput.goodput_bps() for pid in survivors) / len(survivors)
    return Slice(
        attempted=len(attempted_keys),
        failed=len(attempted_keys) if problems else failed,
        setup_s=setup_s,
        measure_s=measure_s,
        msgs=msgs,
        goodput_mbps=goodput / 1e6,
        latencies=latencies,
        clock=SIM,
        digest=_sim_digest(tap.streams[survivors[0]], latencies, sim.events_processed),
        problems=problems,
        counts=counts,
    )


# ----------------------------------------------------------------------
# kv-zipf: the replicated KV store under light, skewed load
# ----------------------------------------------------------------------


class _CountingWalStorage(MemoryWalStorage):
    """The in-memory WAL 'disk', counting bytes ever appended (the log
    itself is truncated at every snapshot)."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes_appended = 0

    def append(self, data: bytes) -> None:
        self.bytes_appended += len(data)
        super().append(data)


def kv_zipf_slice(seed: int, quick: bool, tracer: Tracer) -> Slice:
    """2 rings x 4 replicas, 8 partitions; constant 8000 ops/s of a
    read-mostly mix over Zipf(0.99) keys: light load, so host time goes
    to idle token rotation, and replies to clients in tens of microseconds."""
    rings, per_ring, rate = 2, 4, 8000.0
    duration = 0.04 if quick else 0.15

    began = time.perf_counter()
    with tracer.span("setup"):
        wals = {
            (ring, pid): _CountingWalStorage()
            for ring in range(rings) for pid in range(per_ring)
        }
        kv = KvCluster(
            rings=rings, hosts_per_ring=per_ring, partitions=8, snapshot_every=256,
            media={key: DurableMedium(wal_storage=wal) for key, wal in wals.items()},
        )
        kv.start()
    with tracer.span("warmup"):
        kv.run(_BOOT)
    if not kv.converged():
        raise RuntimeError("KV cluster did not converge during boot")
    keys = ZipfianKeys(num_keys=10_000, s=0.99, seed=seed)
    mix = KvOpMix(keys=keys, num_clients=per_ring, seed=seed + 1)
    schedule = mix.schedule([index / rate for index in range(int(rate * duration))])
    base = kv.sim.now
    drive_schedule(kv, schedule, base)
    setup_s = time.perf_counter() - began

    sim = kv.sim
    topologies = [ring.topology for ring in kv.net.rings]
    participants = [
        host.controller.ordering for ring in kv.net.rings for host in ring.hosts.values()
    ]

    def from_others() -> int:
        return sum(
            1
            for ring in kv.net.rings
            for pid, host in ring.hosts.items()
            for message in host.delivered
            if message.pid != pid
        )

    net_before = _net_snapshot(sim, topologies, from_others())
    token_before = _token_snapshot(participants)
    with tracer.span("measure"), tracer.profiled():
        measure_began = time.perf_counter()
        kv.run(duration)
        measure_s = time.perf_counter() - measure_began
    net_after = _net_snapshot(sim, topologies, from_others())
    token_after = _token_snapshot(participants)
    completed = kv.history.completed
    with tracer.span("drain"):
        kv.run(0.002)

    with tracer.span("verify"):
        problems = stores_agree(kv.store_digests())
        verdict = kv.check_linearizability()
        if not (verdict.ok and verdict.decided):
            problems.extend(verdict.violations or ["linearizability undecided"])
    operations = kv.history.operations
    latencies = [op.response - op.invoke for op in operations if op.complete]
    payload_bytes = sum(
        len(part.key) + len(part.value or b"")
        for op in operations if op.complete for part in op.ops
    )
    applies = sum(replica.applies for replica in kv.replicas.values())
    counts = _net_counts(
        net_before, net_after, topologies, completed,
        sim_s=duration, host_s=measure_s, stack="membership_driver",
    )
    counts.update(_token_counts(token_before, token_after, duration))
    counts.update({
        "kv.cluster.token_visits_per_op": (
            _ratio(token_after["visits"] - token_before["visits"], completed), "count", SIM,
        ),
        "kv.replica.applies_per_op": (_ratio(applies, len(operations)), "count", SIM),
        "kv.wal.bytes_per_op": (
            _ratio(sum(wal.bytes_appended for wal in wals.values()), applies), "bytes", SIM,
        ),
    })
    return Slice(
        attempted=len(schedule),
        failed=len(schedule) if problems else kv.history.incomplete,
        setup_s=setup_s,
        measure_s=measure_s,
        msgs=completed,
        goodput_mbps=payload_bytes * 8.0 / duration / 1e6,
        latencies=latencies,
        clock=SIM,
        digest=_sim_digest(
            [(op.client_id, op.request_id, op.response) for op in operations],
            latencies, sim.events_processed,
        ),
        problems=problems,
        counts=counts,
    )
