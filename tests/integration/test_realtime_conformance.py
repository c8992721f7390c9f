"""The sim↔real differential oracle.

The simulator and the asyncio/UDP runtime share one sans-io protocol
core; this oracle replays one serialized workload through both and
requires the delivered streams to be *identical* (fault-free) or
calm-prefix-equal (crash/restart).  The serialized schedule — one
sender per burst, barrier until every live node delivered the burst —
is what makes exact stream equality sound: with no contention the
total order is schedule-independent, so any difference is a real
implementation divergence, not scheduling noise.
"""

import dataclasses

from repro.conformance.differ import run_differential
from repro.conformance.realtime import RealtimeWorkload, run_sim_serialized

#: Small workload so each oracle run stays in CI-smoke territory.
WORKLOAD = RealtimeWorkload(
    num_hosts=3, bursts=4, burst_size=4, probe_bursts=2, probe_burst_size=3
)


def test_fault_free_streams_identical():
    report = run_differential(WORKLOAD)
    assert report.variants == ("sim", "real")
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.deliveries["sim"] == report.deliveries["real"] > 0
    assert report.converged == {"sim": True, "real": True}


def test_crash_restart_calm_prefixes_agree():
    workload = dataclasses.replace(WORKLOAD, crash=True, crash_burst=1, restart_burst=2)
    report = run_differential(workload)
    assert report.ok, [d.describe() for d in report.divergences]
    assert report.deliveries["sim"] == report.deliveries["real"] > 0


def test_injected_divergence_is_detected():
    """The oracle actually *detects* — two sim runs with different
    workloads stand in for a buggy real runtime."""

    baseline = run_sim_serialized(WORKLOAD)
    mutated = run_sim_serialized(
        dataclasses.replace(WORKLOAD, burst_size=WORKLOAD.burst_size + 1)
    )
    report = run_differential(WORKLOAD, runs={"sim": baseline, "real": mutated})
    assert not report.ok
    assert report.divergences


def test_a_decode_error_on_a_real_node_fails_the_report(monkeypatch):
    # A malformed datagram fails the report whatever the streams say.
    from repro.conformance import realtime

    class Garbled(realtime.RingNode):
        async def stop(self):
            await super().stop()
            self.decode_errors += 1

    monkeypatch.setattr(realtime, "RingNode", Garbled)
    report = run_differential(WORKLOAD)
    (decode,) = report.divergences
    assert (decode.kind, decode.variant_b) == ("decode", "real")
    assert f"dropped {WORKLOAD.num_hosts} malformed" in decode.detail
    assert not report.ok
    rebuilt = type(report).from_json(report.to_json())
    assert rebuilt.divergences == report.divergences and not rebuilt.ok
