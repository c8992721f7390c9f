#!/usr/bin/env python3
"""Anatomy of a token round: why the accelerated protocol wins.

Records what every simulated host hands its NIC in a transmit ledger
(``repro.analysis.ledger``) and prints the mechanism quantities behind
the paper's §III-A argument, side by side for both protocols at the
same offered load:

* token rotation time (the accelerated token comes back sooner),
* dead-air fraction (periods in which nobody is sending shrink),
* single-core CPU utilization (the budget the paper insists on).

Run:  python examples/round_anatomy.py
"""

from repro.analysis.ledger import TransmitLedger
from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import SPREAD
from repro.util.stats import percentile
from repro.util.units import Mbps, seconds_to_usec
from repro.workloads import FixedRateWorkload

RATE_MBPS = 600
DURATION = 0.06


def measure(accelerated: bool) -> dict:
    config = ProtocolConfig(
        personal_window=30,
        accelerated_window=30 if accelerated else 0,
        global_window=240,
    )
    cluster = (
        ClusterBuilder()
        .hosts(8)
        .accelerated(accelerated)
        .profile(SPREAD)
        .network(GIGABIT)
        .config(config)
        .build()
    )
    ledger = TransmitLedger(cluster.topology)
    workload = FixedRateWorkload(payload_size=1350,
                                 aggregate_rate_bps=Mbps(RATE_MBPS))
    workload.attach(cluster, start=0.001, stop=DURATION)
    cluster.set_measure_from(0.02)
    cluster.start()
    cluster.sim.run(until=0.02)
    ledger.mark()
    cluster.run(DURATION - 0.02)
    stats = cluster.aggregate()
    rotations = ledger.rotation_times(0)
    wire_stats = ledger.wire_stats(0.02, DURATION)
    return {
        "round_mean_us": seconds_to_usec(ledger.mean_rotation(0)),
        "round_p99_us": seconds_to_usec(percentile(rotations, 0.99)),
        "dead_air_pct": 100 * wire_stats.dead_air_fraction,
        "longest_gap_us": seconds_to_usec(wire_stats.longest_gap),
        "cpu_peak_pct": 100 * max(ledger.cpu_share().values()),
        "latency_us": seconds_to_usec(stats.mean_latency),
    }


def main() -> None:
    print(f"Spread profile, 1 GbE, {RATE_MBPS} Mbps offered, 1350 B payloads")
    print()
    original = measure(False)
    accelerated = measure(True)
    rows = (
        ("token rotation mean (us)", "round_mean_us"),
        ("token rotation p99 (us)", "round_p99_us"),
        ("dead air (% of time)", "dead_air_pct"),
        ("longest send gap (us)", "longest_gap_us"),
        ("peak CPU (% of one core)", "cpu_peak_pct"),
        ("delivery latency (us)", "latency_us"),
    )
    print(f"{'':28s}{'original':>12s}{'accelerated':>14s}")
    for label, key in rows:
        print(f"{label:28s}{original[key]:>12.1f}{accelerated[key]:>14.1f}")
    print()
    print("Same messages, same wire — the accelerated token simply never waits")
    print("behind a participant's own multicasts (paper §III-A).")


if __name__ == "__main__":
    main()
