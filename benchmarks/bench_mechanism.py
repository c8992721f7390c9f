"""Mechanism benchmark: token rotation time and dead air (paper §III-A).

Quantifies the causal chain behind every figure: the accelerated
protocol completes token rotations faster and leaves the wire idle less,
at identical offered load.
"""

from repro.analysis import RoundAnalyzer, WireAnalyzer
from repro.bench.report import format_table, save_results
from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import SPREAD
from repro.util.units import Mbps, seconds_to_usec
from repro.workloads.generators import FixedRateWorkload

RATES = (300, 500, 700)


def _measure(accelerated: bool, rate: float):
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
    rounds, wire = RoundAnalyzer(), WireAnalyzer()
    rounds.attach(cluster)
    wire.attach(cluster)
    workload = FixedRateWorkload(payload_size=1350, aggregate_rate_bps=Mbps(rate))
    workload.attach(cluster, start=0.001, stop=0.06)
    cluster.start()
    cluster.run(0.06)
    return (
        seconds_to_usec(rounds.stats().mean),
        100.0 * wire.stats(0.02, 0.06).dead_air_fraction,
    )


def test_mechanism_rounds_and_dead_air(benchmark):
    def job():
        rows = []
        for rate in RATES:
            orig_round, orig_idle = _measure(False, rate)
            accel_round, accel_idle = _measure(True, rate)
            rows.append(
                [
                    f"{rate:.0f}",
                    f"{orig_round:.1f}",
                    f"{accel_round:.1f}",
                    f"{orig_idle:.1f}",
                    f"{accel_idle:.1f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(job, rounds=1, iterations=1)
    text = format_table(
        "Mechanism: token rotation time and dead air (Spread, 1 GbE)",
        ["rate_mbps", "round_orig_us", "round_accel_us",
         "idle_orig_%", "idle_accel_%"],
        rows,
    )
    save_results("mechanism.txt", text)
    print("\n" + text)
    for row in rows:
        assert float(row[2]) < float(row[1])  # faster rotations
        assert float(row[4]) <= float(row[3]) + 1e-9  # no more dead air
