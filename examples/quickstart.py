#!/usr/bin/env python3
"""Quickstart: totally ordered multicast in the simulated testbed.

Builds the paper's 8-server cluster twice — once with the original Totem
Ring protocol and once with the Accelerated Ring protocol — drives the
same 300 Mbps workload through both, and prints the latency/throughput
comparison that motivates the paper.

Run:  python examples/quickstart.py
"""

from repro import ClusterBuilder, GIGABIT, SPREAD
from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.util.units import Mbps, seconds_to_usec
from repro.workloads import FixedRateWorkload


def run_protocol(accelerated: bool) -> dict:
    config = ProtocolConfig(personal_window=30,
                            accelerated_window=30 if accelerated else 0,
                            global_window=240)
    cluster = (
        ClusterBuilder()
        .hosts(8)
        .accelerated(accelerated)
        .profile(SPREAD)          # production-Spread cost model
        .network(GIGABIT)         # 1-gigabit fabric
        .config(config)
        .build()
    )
    workload = FixedRateWorkload(
        payload_size=1350,
        aggregate_rate_bps=Mbps(300),
        service=DeliveryService.AGREED,
    )
    workload.attach(cluster, start=0.005, stop=0.15)
    cluster.set_measure_from(0.05)   # skip warm-up
    cluster.start()
    cluster.run(0.16)
    stats = cluster.aggregate()
    return {
        "goodput_mbps": stats.goodput_bps / 1e6,
        "latency_us": seconds_to_usec(stats.mean_latency),
        "token_rounds": stats.token_rounds,
    }


def main() -> None:
    print("Accelerated Ring quickstart — 8 daemons, 1 GbE, 300 Mbps, Agreed delivery")
    print()
    original = run_protocol(accelerated=False)
    accelerated = run_protocol(accelerated=True)
    print(f"{'':24s}{'original':>12s}{'accelerated':>14s}")
    for key, label in (
        ("goodput_mbps", "goodput (Mbps)"),
        ("latency_us", "mean latency (us)"),
        ("token_rounds", "token rounds"),
    ):
        print(f"{label:24s}{original[key]:>12.1f}{accelerated[key]:>14.1f}")
    improvement = 100 * (1 - accelerated["latency_us"] / original["latency_us"])
    print()
    print(f"Accelerated Ring cuts latency by {improvement:.0f}% at the same throughput —")
    print("the effect of releasing the token before the multicasts finish (paper Fig. 2).")


if __name__ == "__main__":
    main()
