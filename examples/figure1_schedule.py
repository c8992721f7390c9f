#!/usr/bin/env python3
"""Reproduce the paper's Figure 1: the example transmit schedule.

Three participants send twenty messages with Personal window 5 and
Accelerated window 3.  The original protocol sends all five data messages
before the token; the accelerated protocol sends two, releases the token,
then sends the remaining three — while the token carries exactly the same
sequence numbers.

Run:  python examples/figure1_schedule.py
"""

from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY
from repro.sim.trace import ScheduleTrace


def run_schedule(accelerated: bool) -> ScheduleTrace:
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
    # Participant A sends in rounds 1 and 2; B and C once each (20 total).
    for pid, count in {0: 10, 1: 5, 2: 5}.items():
        for _ in range(count):
            cluster.driver(pid).client_submit(payload_size=1350)
    cluster.start()
    cluster.run(0.01)
    return trace


def main() -> None:
    for accelerated, title in ((False, "(a) Original Ring Protocol"),
                               (True, "(b) Accelerated Ring Protocol")):
        trace = run_schedule(accelerated)
        print(title)
        for pid, label in enumerate("ABC"):
            schedule = trace.sequence_of(pid)[:8]
            cells = " ".join(f"{cell:>4s}" for cell in schedule)
            print(f"  {label}: {cells}")
        print()
    print("T<n> marks the token leaving a participant with seq field n.")
    print("Note (b): A emits '1 2 T5 3 4 5' — the token, carrying seq 5, departs")
    print("before messages 3-5 are multicast, so B starts sending 6-10 earlier.")


if __name__ == "__main__":
    main()
