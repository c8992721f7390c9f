"""``messages_per_datagram`` on the membership stack.

The membership sim host executes effects through the same run grouping
as the bare driver and puts runs on the wire through the same
fragment/reassemble path, so coalescing is live on the full stack (and
on the KV store built on it) — not only on the bare ring."""

from dataclasses import replace

from repro.apps.kv.chaos import run_kv_scenario
from repro.core.config import ProtocolConfig
from repro.net.params import TEN_GIGABIT
from repro.sim.build import ClusterBuilder
from repro.workloads.generators import ClosedLoopWorkload

PAYLOAD = 1350


def _saturated(mpd):
    cluster = (
        ClusterBuilder()
        .hosts(6)
        .membership()
        .network(TEN_GIGABIT)
        .config(replace(ProtocolConfig(), messages_per_datagram=mpd))
        .build()
    )
    cluster.start()
    cluster.run(0.08)
    assert set(cluster.states().values()) == {"operational"}
    workload = ClosedLoopWorkload(payload_size=PAYLOAD)
    workload.attach(cluster, start=cluster.sim.now + 0.001, stop=cluster.sim.now + 0.02)
    cluster.run(0.04)
    hosts = cluster.hosts
    return {
        "cluster": cluster,
        "injected": workload.messages_injected,
        "datagrams": sum(h.reassembler.datagrams_completed for h in hosts.values()),
        "frames": sum(h.host.data_socket.frames_received for h in hosts.values()),
        "from_others": sum(
            1 for pid, h in hosts.items() for m in h.delivered if m.pid != pid
        ),
        "orders": {tuple((m.pid, m.seq) for m in h.delivered) for h in hosts.values()},
    }


def test_mpd_8_coalesces_and_fragments_on_the_membership_stack():
    run = _saturated(8)
    cluster = run["cluster"]
    # More than one message per data datagram...
    assert run["from_others"] > 2 * run["datagrams"]
    # ...and full runs (8 x 1350 B) exceed the 1500 B MTU, so datagrams
    # crossed the wire as fragments and were reassembled.
    assert 8 * PAYLOAD > cluster.topology.params.mtu
    assert run["frames"] > 2 * run["datagrams"]
    cluster.checker.check()
    assert len(run["orders"]) == 1
    (order,) = run["orders"]
    assert len(order) == run["injected"] > 0


def test_mpd_1_sends_every_message_alone():
    run = _saturated(1)
    assert run["from_others"] == run["datagrams"] == run["frames"]
    run["cluster"].checker.check()
    assert len(run["orders"]) == 1


def test_kv_chaos_scenario_converges_and_linearizes_at_mpd_4():
    report = run_kv_scenario(
        "kv-crash-mid-txn",
        seed=3,
        config=replace(ProtocolConfig(), messages_per_datagram=4),
    )
    assert report.ok, report.violations
    assert report.converged and report.stores_converged
    assert report.linearizability["ok"] and not report.evs_violations
