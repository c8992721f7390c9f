"""Figure 1: the example execution schedule.

Three participants send a total of twenty messages with Personal
window 5 and Accelerated window 3.  The paper's figure shows the
original protocol emitting ``1 2 3 4 5 [token]`` per participant while
the accelerated protocol emits ``1 2 [token] 3 4 5`` — the token carries
exactly the same sequence numbers in both.
"""

from repro.bench.report import format_table, save_results
from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY
from repro.sim.trace import ScheduleTrace


def _run_schedule(accelerated: bool):
    config = ProtocolConfig(
        personal_window=5,
        accelerated_window=3 if accelerated else 0,
        global_window=100,
    )
    cluster = (
        ClusterBuilder()
        .hosts(3)
        .accelerated(accelerated)
        .profile(LIBRARY)
        .network(GIGABIT)
        .config(config)
        .build()
    )
    trace = ScheduleTrace()
    trace.attach(cluster)
    # Participant A sends twice (rounds 1 and 2); B and C once each.
    submissions = {0: 10, 1: 5, 2: 5}
    for pid, count in submissions.items():
        for _ in range(count):
            cluster.driver(pid).client_submit(payload_size=1350)
    cluster.start()
    cluster.run(0.01)
    return trace


def test_fig01_schedule(benchmark):
    traces = benchmark.pedantic(
        lambda: (_run_schedule(False), _run_schedule(True)), rounds=1, iterations=1
    )
    original, accelerated = traces
    rows = []
    for pid in range(3):
        rows.append(
            [
                f"participant {pid}",
                " ".join(original.sequence_of(pid)[:8]),
                " ".join(accelerated.sequence_of(pid)[:8]),
            ]
        )
    text = format_table(
        "Fig 1: transmit schedules (T<n> = token carrying seq n)",
        ["participant", "original", "accelerated"],
        rows,
    )
    save_results("fig01.txt", text)
    print("\n" + text)

    # The paper's defining property: in the original protocol every data
    # message precedes the token; accelerated sends 3 of 5 after it.
    orig_a = original.sequence_of(0)
    accel_a = accelerated.sequence_of(0)
    assert orig_a[:6] == ["1", "2", "3", "4", "5", "T5"]
    assert accel_a[:6] == ["1", "2", "T5", "3", "4", "5"]
    # Token sequence numbers are identical in both protocols.
    orig_tokens = [e.seq for e in original.events if e.kind == "token"]
    accel_tokens = [e.seq for e in accelerated.events if e.kind == "token"]
    assert orig_tokens[:6] == accel_tokens[:6]
