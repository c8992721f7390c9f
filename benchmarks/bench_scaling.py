"""Extension benchmark: scaling with ring size and with ring count.

The paper evaluates 8 servers (its testbed).  Token rings have an
inherent scaling trade-off — rotation time grows with the number of
participants — so this extension sweeps the ring size at a fixed
aggregate rate.  The accelerated protocol's advantage should *grow* with
ring size: every extra hop in the original protocol adds a full
"finish-multicasting, then pass" serialization, while the accelerated
token overlaps them.

The second dimension is the multi-ring layer's answer to the same
ceiling: instead of growing one ring, shard groups over N independent
rings (docs/PROTOCOL.md §11).  Saturated closed-loop senders on N rings
should order close to N× the work of one ring in the same simulated
window — measured on the deterministic metrics (``events_processed``,
aggregate ``goodput_mbps``), which the baseline gate holds bit-stable;
wall-clock cannot speed up on a single interpreter and is not asserted.
"""

from repro.bench.experiments import MEASURE, WARMUP, _build_ring, _run_cluster
from repro.bench.harness import SUITES, run_case
from repro.bench.report import format_table, save_results
from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.profiles import DAEMON
from repro.util.units import Mbps
from repro.workloads.generators import FixedRateWorkload

RING_SIZES = (2, 4, 8, 12, 16)
RATE_MBPS = 400


def _measure(num_hosts: int, accelerated: bool):
    config = ProtocolConfig(
        personal_window=30,
        accelerated_window=30 if accelerated else 0,
        global_window=30 * num_hosts,
    )
    cluster = _build_ring(accelerated, DAEMON, GIGABIT, config=config, num_hosts=num_hosts)
    workload = FixedRateWorkload(payload_size=1350,
                                 aggregate_rate_bps=Mbps(RATE_MBPS))
    return _run_cluster(cluster, workload, WARMUP, MEASURE)


def test_scaling_with_ring_size(benchmark):
    def job():
        rows = []
        for size in RING_SIZES:
            orig = _measure(size, accelerated=False)
            accel = _measure(size, accelerated=True)
            rows.append(
                [
                    f"{size}",
                    f"{orig.latency_us:.1f}",
                    f"{accel.latency_us:.1f}",
                    f"{orig.latency_us / accel.latency_us:.2f}x",
                ]
            )
        return rows

    rows = benchmark.pedantic(job, rounds=1, iterations=1)
    text = format_table(
        f"Scaling: ring size at {RATE_MBPS} Mbps aggregate (daemon, 1 GbE)",
        ["ring_size", "orig_lat_us", "accel_lat_us", "advantage"],
        rows,
    )
    save_results("scaling.txt", text)
    print("\n" + text)
    # Latency grows with ring size for both protocols...
    orig_latencies = [float(row[1]) for row in rows]
    accel_latencies = [float(row[2]) for row in rows]
    assert orig_latencies[-1] > orig_latencies[0]
    assert accel_latencies[-1] > accel_latencies[0]
    # ...and the accelerated protocol wins at every size, by a growing
    # margin from small to large rings.
    for orig, accel in zip(orig_latencies[1:], accel_latencies[1:]):
        assert accel < orig
    assert (orig_latencies[-1] / accel_latencies[-1]) > (
        orig_latencies[0] / accel_latencies[0]
    )


def test_scaling_with_ring_count(benchmark):
    """Sharding over N rings orders near-N× the work of one ring."""

    def job():
        return {
            case.name: run_case(case, repeats=1)["deterministic"]
            for case in SUITES["scaling"]
        }

    results = benchmark.pedantic(job, rounds=1, iterations=1)
    rows = []
    base = results["rings-1"]
    for rings in (1, 2, 4):
        result = results[f"rings-{rings}"]
        rows.append(
            [
                f"{rings}",
                f"{result['events_processed']}",
                f"{result['goodput_mbps']:.1f}",
                f"{result['events_processed'] / base['events_processed']:.2f}x",
                f"{result['goodput_mbps'] / base['goodput_mbps']:.2f}x",
            ]
        )
    text = format_table(
        "Scaling: ring count, closed-loop senders (library, 1 GbE)",
        ["rings", "events", "goodput_mbps", "event_scale", "goodput_scale"],
        rows,
    )
    save_results("scaling_rings.txt", text)
    print("\n" + text)
    events = {n: results[f"rings-{n}"]["events_processed"] for n in (1, 2, 4)}
    goodput = {n: results[f"rings-{n}"]["goodput_mbps"] for n in (1, 2, 4)}
    # The acceptance gate: >= 1.7x at two rings, still growing at four.
    assert events[2] >= 1.7 * events[1]
    assert goodput[2] >= 1.7 * goodput[1]
    assert events[4] > events[2]
    assert goodput[4] > goodput[2]
