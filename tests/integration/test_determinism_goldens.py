"""Byte-identical determinism goldens.

The hot-path optimization work is gated on a hard invariant: every
optimization must be a pure constant-factor change, leaving the seeded
event graph untouched.  These tests pin that invariant to committed
golden files recorded before the optimization sweep:

* two chaos-scenario reports (leader crash, token loss) serialized as
  canonical JSON, and
* a full transmit-schedule trace of a seeded Poisson workload, down to
  the ``repr`` of every event timestamp.

If one of these fails after an engine change, the change altered
*behavior*, not just speed — fix the change; do not re-record the golden
unless the protocol itself intentionally changed.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.ledger import TransmitLedger
from repro.core.messages import DeliveryService
from repro.faults.scenarios import run_scenario
from repro.net.packet import PortKind
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import SPREAD
from repro.util.units import Mbps
from repro.workloads.generators import FixedRateWorkload

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.mark.parametrize("scenario", ["leader-crash", "token-loss"])
def test_chaos_report_matches_golden(scenario):
    report = run_scenario(scenario, seed=7)
    rendered = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    golden = (GOLDEN_DIR / f"chaos_{scenario}_seed7.json").read_text()
    assert rendered == golden


def _render_trace() -> str:
    cluster = (
        ClusterBuilder()
        .hosts(4)
        .accelerated(True)
        .profile(SPREAD)
        .network(GIGABIT)
        .build()
    )
    ledger = TransmitLedger(cluster.topology)
    workload = FixedRateWorkload(
        payload_size=1350,
        aggregate_rate_bps=Mbps(200),
        service=DeliveryService.AGREED,
        poisson=True,
        seed=11,
    )
    workload.attach(cluster, start=0.002, stop=0.012)
    cluster.start()
    cluster.run(0.02)
    lines = [
        f"events_processed={cluster.sim.events_processed}",
        f"now={cluster.sim.now!r}",
    ]
    for pid in cluster.ring:
        lines.append(f"host {pid}: " + ",".join(ledger.sequence_of(pid)))
    for row, mark in ledger.schedule():
        kind = "token" if row.port is PortKind.TOKEN else "data"
        lines.append(
            f"{row.time!r} {row.host} {kind} {mark.seq} {int(mark.post_token)} {mark.round}"
        )
    return "\n".join(lines) + "\n"


def test_transmit_schedule_matches_golden():
    golden = (GOLDEN_DIR / "sim_trace_seed11.txt").read_text()
    assert _render_trace() == golden
