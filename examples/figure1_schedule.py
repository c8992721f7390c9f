#!/usr/bin/env python3
"""Reproduce the paper's Figure 1: the example transmit schedule.

Three participants send twenty messages with Personal window 5 and
Accelerated window 3.  The original protocol sends all five data messages
before the token; the accelerated protocol sends two, releases the token,
then sends the remaining three — while the token carries exactly the same
sequence numbers.

Run:  python examples/figure1_schedule.py
"""

from repro.bench.tables import schedule_trace


def main() -> None:
    for accelerated, title in ((False, "(a) Original Ring Protocol"),
                               (True, "(b) Accelerated Ring Protocol")):
        trace = schedule_trace(accelerated)
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
