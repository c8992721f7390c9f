"""Per-layer microbenchmarks: direct timed calls into public functions.

Every benchmark is a function that does a fixed amount of work on fixed
inputs and returns ``(elapsed seconds, units of work)``; the reported
value is the median over repetitions of elapsed time per unit.  They
localise a regression to a layer before anyone opens a profiler; which
end-to-end metric each should move is tabulated in README.md.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.apps.kv.checker import check_history
from repro.apps.kv.commands import KvCommand, get, put
from repro.apps.kv.history import History
from repro.apps.kv.snapshot import encode_snapshot
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import WalRecord, WriteAheadLog
from repro.core.buffer import MessageBuffer
from repro.core.codec import (
    decode,
    decode_data_batch,
    encode_data,
    encode_data_batch,
    encode_token,
)
from repro.core.events import MulticastData, SendToken
from repro.core.messages import DataMessage, DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import RegularToken, initial_token
from repro.core.transport_core import CoalescingAccumulator, decode_data_port, encode_run
from repro.evs.checker import EvsChecker
from repro.evs.configuration import Configuration
from repro.evs.events import ConfigDelivery, MessageDelivery
from repro.membership.codec import decode_any, encode_any
from repro.membership.messages import JoinMessage
from repro.multiring.merge import merge_streams
from repro.net.fabric import LeafSpineSpec, build_topology
from repro.net.fragment import Reassembler, fragment_datagram
from repro.net.host import Cpu
from repro.net.packet import Frame, PortKind
from repro.net.params import TEN_GIGABIT
from repro.net.simulator import Simulator
from repro.obs.observer import MetricsObserver, NullObserver
from repro.runtime import ipc
from repro.runtime.ports import ephemeral_ring_addresses
from repro.runtime.transport import UdpTransport
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.packing import Packer, unpack_payload
from repro.spread.wire import AppData, decode_envelope

AGREED = DeliveryService.AGREED
Work = Tuple[float, int]  # (elapsed seconds, units)


def _data(seq: int, pid: int = 0, size: int = 1350) -> DataMessage:
    return DataMessage(seq=seq, pid=pid, round=1, service=AGREED, payload=bytes(size))


def _timed(fn: Callable[[], object], units: int) -> Work:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start, units


def _noop(*_args: object) -> None:
    return None


# -- core ---------------------------------------------------------------


def encode_data_ns() -> Work:
    message = _data(1)
    return _timed(lambda: [encode_data(message) for _ in range(4000)], 4000)


def decode_data_ns() -> Work:
    data = encode_data(_data(1))
    return _timed(lambda: [decode(data) for _ in range(4000)], 4000)


def token_roundtrip_ns() -> Work:
    token = RegularToken(ring_id=1, token_id=5, seq=100, aru=90, fcc=30, rtr=[91, 95])
    return _timed(lambda: [decode(encode_token(token)) for _ in range(4000)], 4000)


def batch_roundtrip_ns_per_msg() -> Work:
    batch = [_data(seq) for seq in range(1, 9)]
    return _timed(
        lambda: [decode_data_batch(encode_data_batch(batch)) for _ in range(500)], 4000
    )


def on_token_idle_ns() -> Work:
    participant = AcceleratedRingParticipant(0, [0])
    token = initial_token(1)

    def rounds() -> None:
        current = token
        for _ in range(4000):
            current = participant.on_token(current)[0].token

    return _timed(rounds, 4000)


def _token_of(effects: list) -> RegularToken:
    return next(effect.token for effect in effects if type(effect) is SendToken)


def on_token_send_ns_per_msg() -> Work:
    """One token visit that stamps and multicasts a full personal window
    (submit included), per message sent."""
    participant = AcceleratedRingParticipant(0, [0])
    window = participant.config.personal_window
    payload = bytes(1350)

    def rounds() -> None:
        token = initial_token(1)
        for _ in range(100):
            for _ in range(window):
                participant.submit(payload, AGREED)
            token = _token_of(participant.on_token(token))

    return _timed(rounds, 100 * window)


def on_data_ns() -> Work:
    """A receiver handling in-order data messages from its predecessor."""
    sender = AcceleratedRingParticipant(0, [0, 1])
    receiver = AcceleratedRingParticipant(1, [0, 1])
    window = sender.config.personal_window
    payload = bytes(1350)
    token = initial_token(1)
    elapsed = 0.0
    for _ in range(100):
        for _ in range(window):
            sender.submit(payload, AGREED)
        effects = sender.on_token(token)
        messages = [e.message for e in effects if type(e) is MulticastData]
        start = time.perf_counter()
        for message in messages:
            receiver.on_data(message)
        elapsed += time.perf_counter() - start
        token = _token_of(receiver.on_token(_token_of(effects)))
    return elapsed, 100 * window


def buffer_insert_ns() -> Work:
    messages = [_data(seq, size=0) for seq in range(1, 8001)]
    buffer = MessageBuffer()
    return _timed(lambda: [buffer.insert(message) for message in messages], 8000)


def coalesce_ns_per_msg() -> Work:
    messages = [_data(seq) for seq in range(1, 9)] * 1000

    def run() -> None:
        accumulator = CoalescingAccumulator(8)
        for message in messages:
            full = accumulator.push(message)
            if full is not None:
                encode_run(full)
        tail = accumulator.take()
        if tail is not None:
            encode_run(tail)

    return _timed(run, len(messages))


def decode_port_ns_per_msg() -> Work:
    data = encode_run([_data(seq) for seq in range(1, 9)])
    return _timed(lambda: [decode_data_port(data) for _ in range(500)], 4000)


# -- membership ---------------------------------------------------------


def membership_codec_roundtrip_ns() -> Work:
    join = JoinMessage(
        sender=1, proc_set=frozenset(range(6)), fail_set=frozenset({5}), ring_seq=7
    )
    return _timed(lambda: [decode_any(encode_any(join)) for _ in range(4000)], 4000)


# -- net ----------------------------------------------------------------


def simulator_dispatch_ns() -> Work:
    """Post and dispatch an empty callback: the simulator's ceiling."""
    sim = Simulator()

    def run() -> None:
        for index in range(20000):
            sim.post(index * 1e-6, _noop)
        sim.run(until=1.0)

    return _timed(run, 20000)


def simulator_timer_cancel_ns() -> Work:
    sim = Simulator()

    def run() -> None:
        for _ in range(10000):
            sim.schedule(1.0, _noop).cancel()
        sim.run(until=2.0)

    return _timed(run, 10000)


def _forward_ns_per_copy(fabric) -> Work:
    """Host 0 multicasts full-size frames; time per copy that reaches a
    receiver's socket (NIC serialization, switching, receive)."""
    sim = Simulator()
    topology = build_topology(sim, 8, TEN_GIGABIT, fabric=fabric)
    nic = topology.host(0).nic
    frames = 2000

    def run() -> None:
        for _ in range(frames):
            nic.send(Frame.acquire(0, None, PortKind.DATA, 1404, None))
        sim.run(until=1.0)

    work = _timed(run, frames * 7)
    received = sum(topology.host(pid).data_socket.frames_received for pid in range(1, 8))
    if received != frames * 7:
        raise RuntimeError(f"forwarding benchmark lost frames: {received}")
    return work


def switch_forward_ns_per_copy() -> Work:
    return _forward_ns_per_copy(None)


def fabric_forward_ns_per_copy() -> Work:
    return _forward_ns_per_copy(LeafSpineSpec(racks=2, hosts_per_rack=4))


def net_fragment_roundtrip_ns_per_frag() -> Work:
    reassembler = Reassembler()
    payload = object()

    def run() -> None:
        for _ in range(2000):
            for frame in fragment_datagram(0, None, PortKind.DATA, 8884, payload, 1500):
                reassembler.accept(frame)

    return _timed(run, 2000 * 6)


def host_cpu_submit_ns() -> Work:
    sim = Simulator()
    cpu = Cpu(sim)

    def run() -> None:
        for _ in range(10000):
            cpu.submit(1e-6, _noop)
        sim.run(until=1.0)

    return _timed(run, 10000)


# -- runtime ------------------------------------------------------------


def ipc_frame_roundtrip_ns() -> Work:
    """Pack a 64-byte groupcast, read it back through a StreamReader."""
    payload = bytes(64)

    async def run() -> Work:
        reader = asyncio.StreamReader()
        start = time.perf_counter()
        for _ in range(2000):
            reader.feed_data(ipc.pack_groupcast(["bench"], AGREED, payload))
            _opcode, body = await ipc.read_frame(reader)
            ipc.unpack_groupcast(body)
        return time.perf_counter() - start, 2000

    return asyncio.run(run())


def udp_roundtrip_us() -> Work:
    """Token-port ping-pong between two UdpTransports, event-driven."""
    rounds = 1000

    async def run() -> Work:
        done = asyncio.Event()
        seen = 0

        def at_pinger(_data: bytes) -> None:
            nonlocal seen
            seen += 1
            if seen == rounds:
                done.set()
            else:
                pinger.send_token(b"ping", 1)

        peers = ephemeral_ring_addresses(range(2))
        pinger = UdpTransport(0, peers, on_data=_noop, on_token=at_pinger)
        echoer = UdpTransport(
            1, peers, on_data=_noop, on_token=lambda data: echoer.send_token(data, 0)
        )
        await pinger.start()
        await echoer.start()
        try:
            start = time.perf_counter()
            pinger.send_token(b"ping", 1)
            await asyncio.wait_for(done.wait(), 10.0)
            return time.perf_counter() - start, rounds
        finally:
            pinger.close()
            echoer.close()

    return asyncio.run(run())


# -- spread -------------------------------------------------------------


def spread_wire_roundtrip_ns() -> Work:
    envelope = AppData(sender="#c0#0", groups=("bench",), payload=bytes(64))
    return _timed(lambda: [decode_envelope(envelope.encode()) for _ in range(4000)], 4000)


def spread_pack_ns_per_msg() -> Work:
    envelope = AppData(sender="#c0#0", groups=("bench",), payload=bytes(64)).encode()

    def run() -> None:
        packer = Packer(budget=1350)
        for _ in range(12000):
            for packet in packer.add(envelope):
                unpack_payload(packet)
        for packet in packer.flush():
            unpack_payload(packet)

    return _timed(run, 12000)


def spread_fragment_roundtrip_ns_per_frag() -> Work:
    envelope = AppData(sender="#c0#0", groups=("bench",), payload=bytes(9000)).encode()
    fragmenter = Fragmenter(chunk_size=1300)
    reassembler = FragmentReassembler()
    pieces = len(fragmenter.fragment(envelope))

    def run() -> None:
        for _ in range(400):
            for piece in fragmenter.fragment(envelope):
                reassembler.accept(0, decode_envelope(piece))

    return _timed(run, 400 * pieces)


# -- multiring ----------------------------------------------------------


def merge_ns_per_item() -> Work:
    streams = [list(range(100_000)), list(range(100_000))]
    return _timed(lambda: merge_streams(streams), 200_000)


# -- apps.kv ------------------------------------------------------------


def _puts(count: int) -> List[KvCommand]:
    return [
        KvCommand(client_id=1, request_id=index + 1, ops=(put(f"k{index % 512}", b"v" * 16),))
        for index in range(count)
    ]


def wal_append_ns() -> Work:
    records = [WalRecord(group="kv00", command=command) for command in _puts(4000)]
    wal = WriteAheadLog()
    return _timed(lambda: [wal.append(record) for record in records], 4000)


def store_apply_ns() -> Work:
    commands = _puts(4000)
    store = KvStore()
    return _timed(lambda: [store.apply("kv00", command) for command in commands], 4000)


def snapshot_encode_us_per_kkey() -> Work:
    store = KvStore()
    for index in range(4000):
        store.apply(
            "kv00", KvCommand(client_id=1, request_id=index + 1, ops=(put(f"k{index}", b"v" * 16),))
        )
    return _timed(lambda: encode_snapshot(store), 4)


def kv_check_us_per_op() -> Work:
    """Linearizability check of a sequential read/write history."""
    store = KvStore()
    history = History()
    for index in range(600):
        key = f"k{index % 16}"
        ops = (put(key, b"%d" % index),) if index % 3 == 0 else (get(key),)
        command = KvCommand(client_id=index % 4, request_id=index + 1, ops=ops)
        history.invoke(command.client_id, command.request_id, "kv00", ops, index * 1e-4)
        result = store.apply("kv00", command)
        history.respond(command.client_id, command.request_id, result, index * 1e-4 + 5e-5)

    def run() -> None:
        if not check_history(history).ok:
            raise RuntimeError("a sequential history must be linearizable")

    return _timed(run, 600)


# -- evs / obs ----------------------------------------------------------


def evs_record_ns() -> Work:
    checker = EvsChecker()

    def run() -> None:
        for seq in range(1, 8001):
            checker.record(0, MessageDelivery(seq, 0, AGREED, 1, 1))

    return _timed(run, 8000)


def evs_check_us_per_event() -> Work:
    checker = EvsChecker()
    members = (0, 1, 2)
    for pid in members:
        checker.record(pid, ConfigDelivery(Configuration.regular(1, members)))
        checker.record_batch(
            pid, [MessageDelivery(seq, seq % 3, AGREED, 1, 1) for seq in range(1, 2001)]
        )
    return _timed(checker.check, 3 * 2001)


def obs_hook_ns() -> Work:
    """Cost of one MetricsObserver token hook over the NullObserver's."""
    token = initial_token(1)

    def hooks(observer) -> float:
        start = time.perf_counter()
        for index in range(4000):
            observer.on_token_received(0, token, now=index * 1e-6)
        return time.perf_counter() - start

    return hooks(MetricsObserver()) - hooks(NullObserver()), 4000


#: name -> (function, unit of the reported time per unit of work)
MICROS: Dict[str, Tuple[Callable[[], Work], str]] = {
    "core.codec.encode_data_ns": (encode_data_ns, "ns"),
    "core.codec.decode_data_ns": (decode_data_ns, "ns"),
    "core.codec.token_roundtrip_ns": (token_roundtrip_ns, "ns"),
    "core.codec.batch_roundtrip_ns_per_msg": (batch_roundtrip_ns_per_msg, "ns"),
    "core.participant.on_token_idle_ns": (on_token_idle_ns, "ns"),
    "core.participant.on_token_send_ns_per_msg": (on_token_send_ns_per_msg, "ns"),
    "core.participant.on_data_ns": (on_data_ns, "ns"),
    "core.buffer.insert_ns": (buffer_insert_ns, "ns"),
    "core.transport_core.coalesce_ns_per_msg": (coalesce_ns_per_msg, "ns"),
    "core.transport_core.decode_port_ns_per_msg": (decode_port_ns_per_msg, "ns"),
    "membership.codec.roundtrip_ns": (membership_codec_roundtrip_ns, "ns"),
    "net.simulator.dispatch_ns": (simulator_dispatch_ns, "ns"),
    "net.simulator.timer_cancel_ns": (simulator_timer_cancel_ns, "ns"),
    "net.switch.forward_ns_per_copy": (switch_forward_ns_per_copy, "ns"),
    "net.fabric.forward_ns_per_copy": (fabric_forward_ns_per_copy, "ns"),
    "net.fragment.roundtrip_ns_per_frag": (net_fragment_roundtrip_ns_per_frag, "ns"),
    "net.host.cpu_submit_ns": (host_cpu_submit_ns, "ns"),
    "runtime.ipc.frame_roundtrip_ns": (ipc_frame_roundtrip_ns, "ns"),
    "runtime.transport.udp_roundtrip_us": (udp_roundtrip_us, "us"),
    "spread.wire.roundtrip_ns": (spread_wire_roundtrip_ns, "ns"),
    "spread.packing.pack_ns_per_msg": (spread_pack_ns_per_msg, "ns"),
    "spread.fragmentation.roundtrip_ns_per_frag": (spread_fragment_roundtrip_ns_per_frag, "ns"),
    "multiring.merge.ns_per_item": (merge_ns_per_item, "ns"),
    "kv.wal.append_ns": (wal_append_ns, "ns"),
    "kv.store.apply_ns": (store_apply_ns, "ns"),
    "kv.snapshot.encode_us_per_kkey": (snapshot_encode_us_per_kkey, "us"),
    "kv.checker.check_us_per_op": (kv_check_us_per_op, "us"),
    "evs.checker.record_ns": (evs_record_ns, "ns"),
    "evs.checker.check_us_per_event": (evs_check_us_per_event, "us"),
    "obs.metrics.hook_ns": (obs_hook_ns, "ns"),
}


def run_micros(repetitions: int = 5) -> Dict[str, Tuple[float, str]]:
    """Median time per unit of every microbenchmark: name -> (value, unit).
    Raw host time; the caller scales by the machine factor."""
    per_second = {"ns": 1e9, "us": 1e6}
    results: Dict[str, Tuple[float, str]] = {}
    for name, (fn, unit) in MICROS.items():
        per_unit = []
        for _ in range(repetitions):
            elapsed, units = fn()
            per_unit.append(elapsed / units * per_second[unit])
        results[name] = (statistics.median(per_unit), unit)
    return results
