"""The drive-and-converge steps under every checked run.

Chaos scenarios, the soak drive, KV chaos and the conformance oracles
all boot, arm a plan, run a window, quiesce, wait for convergence and
judge; they differ only in data (window length, which crashed pids the
quiesce restarts, poll cadence — tabulated per runner in
docs/TESTING.md, "How a scenario run is built").  The steps that need
code of their own are here; the rest are ``FaultInjector(...).arm()``,
the cluster surface (``quiesce`` / ``converged`` / ``accepting``,
docs/PROTOCOL.md §8) and ``EvsChecker.violation()``.

:func:`poll` is the only fixed-slice polling loop in the package.
Polling in fixed slices, rather than stepping to the first converged
event, keeps the sequence of checks — and so the final ``sim.now`` — a
pure function of the seed.
"""

from __future__ import annotations

from typing import Callable

#: Simulated seconds a fresh cluster gets to form its first ring before
#: a plan is armed or traffic starts.
BOOT = 0.08


def boot(cluster) -> float:
    """Start ``cluster``, let it form its ring, return the time base
    plans and traffic are scheduled against."""
    cluster.start()
    cluster.run(BOOT)
    return cluster.sim.now


def poll(cluster, check: Callable[[], bool], slice: float, slices: int) -> bool:
    """Run ``cluster`` in ``slice``-second steps until ``check()`` holds.

    Checks before each of at most ``slices`` steps and once after the
    last, so an already-true condition costs no simulated time.
    """
    for _ in range(slices):
        if check():
            return True
        cluster.run(slice)
    return check()


def wait_converged(cluster, slice: float, slices: int) -> bool:
    return poll(cluster, cluster.converged, slice, slices)
