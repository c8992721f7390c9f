"""The two real-runtime workloads: fleet-rate (open loop) and fleet-sat (closed loop).

Both stand up a loopback :class:`~repro.runtime.fleet.Fleet` of three
Spread daemons (real UDP between daemons, unix sockets to clients) on
one event loop, in one thread, next to the clients and the load
generator.  Nothing polls inside a timed region: sends are ``call_at``
timers, receipts are ``await client.receive()``, window edges are timer
callbacks, completion is an ``asyncio.Event``.
"""

from __future__ import annotations

import asyncio
import errno
import os
import random
import resource
import time
from typing import Dict, List, Tuple

from repro.runtime.fleet import Fleet

from harness import CLOCK, HOST, OUT_DIR, Slice, Tracer, percentile
from verify import same_order, undelivered

GROUP = "bench"
DAEMONS = 3

Key = Tuple[int, int]  # (sending client, per-run message index)


def _payload(client: int, index: int, pad: bytes) -> bytes:
    return b"%d:%d:" % (client, index) + pad


def _key(payload: bytes) -> Key:
    client, index, _pad = payload.split(b":", 2)
    return int(client), int(index)


class _Marks:
    """Process and fleet counters read at one edge of the measured window."""

    def __init__(self, fleet: Fleet, now: float) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.wall = now
        self.cpu = usage.ru_utime + usage.ru_stime
        self.sys = usage.ru_stime
        self.counters = fleet.counters()


async def _boot(tracer: Tracer, clients: int):
    """Fleet formed and ``clients`` joined to one group, each seeing the
    full view.  Unix socket paths are capped near 100 bytes, so the
    working directory is given relative to the current one."""
    workdir = os.path.relpath(os.path.join(OUT_DIR, f"fleet-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    with tracer.span("setup"):
        while True:
            began = time.perf_counter()
            fleet = Fleet(DAEMONS, workdir=workdir)
            try:
                await fleet.start()
                break
            except OSError as error:
                # ephemeral_ring_addresses releases each port before the
                # daemons bind it, so two of its six picks can coincide
                # (seen once in ~1500 boots): boot again on fresh ports.
                if error.errno != errno.EADDRINUSE:
                    raise
                await fleet.drain_and_stop()
        form_s = time.perf_counter() - began
        handles = [await fleet.connect_client(name=f"c{i}") for i in range(clients)]
        for client in handles:
            await client.join(GROUP)
        for client in handles:
            await client.wait_for_view(GROUP, clients)
    return fleet, handles, workdir, time.perf_counter() - began, form_s


async def _shutdown(fleet: Fleet, workdir: str, receivers: List[asyncio.Task]) -> None:
    for task in receivers:
        task.cancel()
    await asyncio.gather(*receivers, return_exceptions=True)
    await fleet.drain_and_stop()
    os.rmdir(workdir)


def _runtime_counts(
    before: _Marks, after: _Marks, msgs: int, form_s: float
) -> Dict[str, Tuple[float, str, str]]:
    delta = {
        name: after.counters[name] - before.counters[name] for name in after.counters
    }
    cpu = after.cpu - before.cpu
    return {
        "runtime.node.datagrams_per_msg": (delta["datagrams_sent"] / msgs, "count", CLOCK),
        "runtime.node.msgs_per_batch": (
            delta["batched_messages"] / delta["batches_sent"] if delta["batches_sent"] else 1.0,
            "count", CLOCK,
        ),
        "runtime.loop.busy_share": (cpu / (after.wall - before.wall), "ratio", CLOCK),
        "runtime.loop.cpu_us_per_msg": (cpu / msgs * 1e6, "us", HOST),
        "runtime.loop.sys_share": ((after.sys - before.sys) / cpu, "ratio", CLOCK),
        "runtime.fleet.form_s": (form_s, "s", CLOCK),
        "runtime.backpressure.clients_dropped_slow": (
            after.counters["clients_dropped_slow"], "count", CLOCK,
        ),
        "runtime.node.decode_errors": (after.counters["decode_errors"], "count", CLOCK),
        "spread.daemon.client_deliveries_per_msg": (
            delta["messages_delivered_to_clients"] / msgs, "count", CLOCK,
        ),
    }


def _health_problems(counters: Dict[str, int]) -> List[str]:
    return [
        f"{name} = {counters[name]}"
        for name in ("decode_errors", "clients_dropped_slow")
        if counters[name]
    ]


# ----------------------------------------------------------------------
# fleet-rate: open loop at a third of capacity
# ----------------------------------------------------------------------


async def _fleet_rate(seed: int, quick: bool, tracer: Tracer) -> Slice:
    clients, rate, size = 6, 1000.0, 64
    warm, measure = (0.1, 0.4) if quick else (0.2, 1.0)
    fleet, handles, workdir, setup_s, form_s = await _boot(tracer, clients)
    loop = asyncio.get_running_loop()

    # Independent users, steadily: one message per 1/rate interval, due at
    # a seeded uniform offset inside it.  (Poisson bursts differ so much
    # between seeds that they, not the fleet, would set the tail.)
    rng = random.Random(seed)
    total = round(rate * (warm + measure))
    offsets = [(index + rng.random()) / rate for index in range(total)]
    senders = [rng.randrange(clients) for _ in range(total)]
    pad = rng.randbytes(size - 16)

    base = loop.time() + 0.02
    lateness: List[float] = []
    latencies: List[float] = []
    orders: List[List[Key]] = [[] for _ in range(clients)]
    echoed_in_window = 0
    last_delivery = base
    missing = total * clients
    done = asyncio.Event()
    marks: List[_Marks] = []

    def fire(index: int) -> None:
        lateness.append(loop.time() - (base + offsets[index]))
        handles[senders[index]].multicast([GROUP], _payload(senders[index], index, pad))

    async def receive(me: int) -> None:
        nonlocal echoed_in_window, last_delivery, missing
        client, order = handles[me], orders[me]
        while True:
            event = await client.receive()
            if not hasattr(event, "payload"):
                continue
            now = loop.time()
            key = _key(event.payload)
            order.append(key)
            if key[0] == me and offsets[key[1]] >= warm:
                # Timed from when the message was due, not when it left.
                latencies.append(now - (base + offsets[key[1]]))
                echoed_in_window += 1
            last_delivery = now
            missing -= 1
            if missing == 0:
                done.set()

    for index, offset in enumerate(offsets):
        loop.call_at(base + offset, fire, index)
    loop.call_at(base + warm, lambda: marks.append(_Marks(fleet, loop.time())))
    receivers = [asyncio.ensure_future(receive(me)) for me in range(clients)]
    with tracer.span("warmup"):
        await asyncio.sleep(base + warm - loop.time())
    with tracer.span("measure"), tracer.profiled():
        try:
            # A message not echoed within a second of the last one due has failed.
            await asyncio.wait_for(done.wait(), measure + 1.0)
        except asyncio.TimeoutError:
            pass
    marks.append(_Marks(fleet, last_delivery))

    with tracer.span("verify"):
        streams = dict(enumerate(orders))
        problems = same_order(streams) + _health_problems(marks[1].counters)
        attempted = [(senders[index], index) for index in range(total)]
        failed = undelivered(attempted, streams)
    with tracer.span("drain"):
        await _shutdown(fleet, workdir, receivers)

    measure_s = last_delivery - (base + warm)
    counts = _runtime_counts(marks[0], marks[1], echoed_in_window, form_s)
    counts["bench.generator_late_p99_ms"] = (percentile(lateness, 0.99) * 1e3, "ms", CLOCK)
    return Slice(
        attempted=total,
        failed=total if problems else failed,
        setup_s=setup_s,
        measure_s=measure_s,
        msgs=echoed_in_window,
        goodput_mbps=echoed_in_window * size * 8.0 / measure_s / 1e6,
        latencies=latencies,
        clock=HOST,
        rate_clock=CLOCK,
        setup_clock=CLOCK,
        problems=problems,
        counts=counts,
    )


def fleet_rate_slice(seed: int, quick: bool, tracer: Tracer) -> Slice:
    """Six clients offer 1000 msgs/s of 64 B in aggregate on a fixed
    schedule (about a third of capacity): latency without queueing."""
    return asyncio.run(_fleet_rate(seed, quick, tracer))


# ----------------------------------------------------------------------
# fleet-sat: closed loop at capacity
# ----------------------------------------------------------------------


async def _fleet_sat(seed: int, quick: bool, tracer: Tracer) -> Slice:
    clients, pipeline, size = 3, 16, 1024
    # Fixed work, not fixed time: every slice orders the same number of
    # messages, so memory and the sample count do not follow the machine's
    # speed.  About 0.2 s of warm-up and 1 s measured on the reference box.
    warm_msgs, measure_msgs = (400, 2000) if quick else (1200, 6000)
    fleet, handles, workdir, setup_s, form_s = await _boot(tracer, clients)
    loop = asyncio.get_running_loop()
    pad = random.Random(seed).randbytes(size - 16)

    sent = [0] * clients
    sent_at: List[Dict[int, float]] = [{} for _ in range(clients)]
    orders: List[List[Key]] = [[] for _ in range(clients)]
    latencies: List[float] = []
    acked = 0
    marks: List[_Marks] = []
    warmed = asyncio.Event()
    measured = asyncio.Event()
    done = asyncio.Event()

    def fire(me: int, now: float) -> None:
        handles[me].multicast([GROUP], _payload(me, sent[me], pad))
        sent_at[me][sent[me]] = now
        sent[me] += 1

    async def receive(me: int) -> None:
        nonlocal acked
        client, order = handles[me], orders[me]
        while True:
            event = await client.receive()
            if not hasattr(event, "payload"):
                continue
            now = loop.time()
            key = _key(event.payload)
            order.append(key)
            if key[0] == me:
                acked += 1
                if len(marks) == 1:
                    latencies.append(now - sent_at[me].pop(key[1]))
                # The window's edges are the acks that open and close it.
                if acked == warm_msgs or acked == warm_msgs + measure_msgs:
                    marks.append(_Marks(fleet, now))
                    (warmed if len(marks) == 1 else measured).set()
                if len(marks) < 2:
                    fire(me, now)
            if len(marks) == 2 and all(len(seen) == sum(sent) for seen in orders):
                done.set()

    receivers = [asyncio.ensure_future(receive(me)) for me in range(clients)]
    for me in range(clients):
        for _ in range(pipeline):
            fire(me, loop.time())
    with tracer.span("warmup"):
        await asyncio.wait_for(warmed.wait(), 30.0)
    with tracer.span("measure"), tracer.profiled():
        await asyncio.wait_for(measured.wait(), 60.0)
    with tracer.span("drain"):
        try:
            await asyncio.wait_for(done.wait(), 1.0)
        except asyncio.TimeoutError:
            pass
    counters = fleet.counters()

    with tracer.span("verify"):
        streams = dict(enumerate(orders))
        problems = same_order(streams) + _health_problems(counters)
        attempted = [(me, index) for me in range(clients) for index in range(sent[me])]
        failed = undelivered(attempted, streams)
    await _shutdown(fleet, workdir, receivers)

    before, after = marks
    measure_s = after.wall - before.wall
    return Slice(
        attempted=len(attempted),
        failed=len(attempted) if problems else failed,
        setup_s=setup_s,
        measure_s=measure_s,
        msgs=measure_msgs,
        goodput_mbps=measure_msgs * size * 8.0 / measure_s / 1e6,
        latencies=latencies,
        clock=HOST,
        setup_clock=CLOCK,
        problems=problems,
        counts=_runtime_counts(before, after, measure_msgs, form_s),
    )


def fleet_sat_slice(seed: int, quick: bool, tracer: Tracer) -> Slice:
    """Three clients each keep 16 multicasts of 1024 B in flight: the
    capacity of the real runtime (its latency is Little's law)."""
    return asyncio.run(_fleet_sat(seed, quick, tracer))
