"""Pinned EVS regression schedules.

Every entry here is a fault schedule that once produced a real Extended
Virtual Synchrony violation, reduced to its minimal form and pinned with
the exact seed that exposed it.  They run through the same library drive
as ``python -m repro soak`` (:mod:`repro.faults.soak`), so a regression
re-fires exactly the way the original finding did.

seed-7 token-loss + crash (found by the hypothesis chaos suite):
    Two token drops stall the ring long enough that the survivors of
    ``crash(0)`` regroup while a Safe message is mid-flight.  One
    survivor had already delivered that Safe message in the old regular
    configuration (its stability was proven by the full ring before the
    crash); the others still held it undelivered.  Recovery used to cut
    each survivor's regular/transitional delivery at its *local* first
    undelivered Safe message, so the survivors disagreed on the
    delivered set of the closed ring — the virtual synchrony violation.
    The fix agrees on the split point instead: the maximum
    ``last_delivered`` over the old ring's survivors, carried on the
    commit token (identical at every member), marks the prefix that must
    be delivered in the old regular configuration by everyone.

seed-7 crash-while-paused + restart (found by the same hypothesis test
while this suite was being built):
    ``pause`` stalls the CPU with a frame's processing charge in flight;
    ``crash`` then only flagged the SimHost as crashed, leaving the
    stalled CPU work, the stall flag, and the kernel socket buffers
    behind.  ``restart`` reuses the SimHost, and un-stalling its CPU
    resurrected the *old* incarnation's work: the pre-crash
    MembershipHost processed a stale frame, its effects re-armed its own
    timers, and from then on two controllers with the same pid ran
    concurrently on one NIC — a violation of fail-stop.  Each kept a
    private ``highest_ring_seq``, so the zombie and the restarted
    controller eventually proposed the *same* ring id with different
    member sets: a regular-configuration agreement violation
    (``configuration (seq, rep) installed with different members``).
    Fixed by making ``SimHost.crash`` wipe all volatile state (queued
    CPU work, stall, socket buffers) and by latching the crashed
    ``MembershipHost`` incarnation permanently dead so an in-flight CPU
    completion or stray timer can never revive it.
"""

import pytest

from repro.faults import PlanBuilder, check_plan
from repro.sim.build import ClusterBuilder

NUM_HOSTS = 4
SEED = 7


def _seed7_plan(first_drop: int, second_drop: int):
    return (
        PlanBuilder()
        .token_drop(at=0.038, count=first_drop)
        .token_drop(at=0.095, count=second_drop)
        .crash(0, at=0.100)
        .build(num_hosts=NUM_HOSTS)
    )


@pytest.mark.parametrize("first_drop", [1, 2])
@pytest.mark.parametrize("second_drop", [1, 2])
def test_seed7_token_loss_crash_schedule_holds_evs(first_drop, second_drop):
    """The original finding plus its drop-count neighbours.

    All four variants violated virtual synchrony before the agreed
    delivery split point (``deliver_high``) existed; all must stay
    clean.  ``check_plan`` returns the violation message or ``None``.
    """
    plan = _seed7_plan(first_drop, second_drop)
    violation = check_plan(plan, num_hosts=NUM_HOSTS, seed=SEED)
    assert violation is None, violation


def _zombie_plan_minimal():
    # The minimal form of the crash-while-paused finding: the pause must
    # land while the ring is live (CPU work in flight), the crash must
    # hit the paused process, and the restart must reuse its host.
    return (
        PlanBuilder()
        .pause(1, at=0.064)
        .crash(1, at=0.089)
        .recover(1, at=0.113)
        .build(num_hosts=NUM_HOSTS)
    )


def _zombie_plan_as_found():
    # The schedule exactly as hypothesis discovered it (extra churn
    # around the core pause/crash/recover triple).
    return (
        PlanBuilder()
        .crash(2, at=0.059)
        .pause(1, at=0.064)
        .crash(1, at=0.089)
        .recover(1, at=0.113)
        .crash(0, at=0.137)
        .loss_burst(at=0.175, duration=0.03, rate=0.3, pids={1})
        .build(num_hosts=NUM_HOSTS)
    )


@pytest.mark.parametrize(
    "make_plan", [_zombie_plan_minimal, _zombie_plan_as_found],
    ids=["minimal", "as-found"],
)
def test_crash_while_paused_restart_holds_evs(make_plan):
    """Both the minimal triple and the original discovery must stay clean."""
    plan = make_plan()
    violation = check_plan(plan, num_hosts=NUM_HOSTS, seed=SEED)
    assert violation is None, violation


def test_crashed_incarnation_stays_dead_after_restart():
    """White-box companion to the zombie regression: after a
    crash-while-paused restart, the old MembershipHost incarnation must
    never process work again, even though its SimHost lives on."""
    cluster = ClusterBuilder().hosts(3).membership().build()
    cluster.start()
    cluster.run(0.08)
    old = cluster.hosts[1]
    cluster.pause(1)
    cluster.run(0.02)
    cluster.crash(1)
    cluster.run(0.02)
    cluster.restart(1)
    fresh = cluster.hosts[1]
    assert fresh is not old
    assert old._dead
    frozen_state = old.controller.state
    frozen_seq = old.controller.highest_ring_seq
    cluster.run(1.0)
    # The dead incarnation made no progress while the cluster re-formed.
    assert old.controller.state is frozen_state
    assert old.controller.highest_ring_seq == frozen_seq
    # And the live cluster converged onto a single ring without it.
    live = [cluster.hosts[pid] for pid in cluster.live_pids()]
    rings = {host.controller.ring_id for host in live}
    assert len(rings) == 1
    assert all(host.controller.state.name == "OPERATIONAL" for host in live)
