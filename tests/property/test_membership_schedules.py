"""Property-based membership testing: random fault schedules.

Hypothesis generates arbitrary interleavings of crashes, restarts,
partitions, heals, and submissions; after every schedule the EVS
checker must accept all traces, and once faults stop, the live nodes
must converge back to a single operational ring.

This is the membership algorithm's equivalent of the ordering
protocol's random-loss property tests: the guarantees must hold on
*every* schedule, not just the hand-written scenarios.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.messages import DeliveryService
from repro.sim.build import ClusterBuilder

NUM_HOSTS = 4

# One fault-schedule step.
steps = st.one_of(
    st.tuples(st.just("crash"), st.integers(0, NUM_HOSTS - 1)),
    st.tuples(st.just("restart"), st.integers(0, NUM_HOSTS - 1)),
    st.tuples(st.just("partition"), st.integers(1, NUM_HOSTS - 1)),
    st.tuples(st.just("heal"), st.just(0)),
    st.tuples(st.just("submit"), st.integers(0, NUM_HOSTS - 1)),
    st.tuples(st.just("submit_safe"), st.integers(0, NUM_HOSTS - 1)),
    st.tuples(st.just("run"), st.integers(1, 4)),  # x50ms
)


def apply_schedule(schedule):
    cluster = ClusterBuilder().hosts(NUM_HOSTS).membership().build()
    cluster.start()
    cluster.run(0.08)
    crashed = set()
    ever_crashed = set()
    partitioned = False
    for action, argument in schedule:
        if action == "crash":
            if argument not in crashed:
                cluster.crash(argument)
                crashed.add(argument)
                ever_crashed.add(argument)
        elif action == "restart":
            if argument in crashed:
                cluster.restart(argument)
                crashed.discard(argument)
        elif action == "partition":
            left = set(range(argument))
            right = set(range(argument, NUM_HOSTS))
            cluster.partition(left, right)
            partitioned = True
        elif action == "heal":
            cluster.heal()
            partitioned = False
        elif action in ("submit", "submit_safe"):
            if argument not in crashed:
                cluster.hosts[argument].submit(
                    payload_size=64,
                    service=DeliveryService.SAFE
                    if action == "submit_safe"
                    else DeliveryService.AGREED,
                )
        elif action == "run":
            cluster.run(0.05 * argument)
    # Quiesce: heal, let membership converge and traffic drain.
    cluster.heal()
    cluster.run(1.5)
    return cluster, crashed, ever_crashed


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(steps, min_size=0, max_size=12))
def test_evs_holds_on_every_fault_schedule(schedule):
    cluster, crashed, ever_crashed = apply_schedule(schedule)
    # Guarantees hold for every trace.  Restarted processes are waived
    # like crashed ones: their pre-crash incarnation's submissions died
    # with them.
    cluster.checker.check(crashed=ever_crashed | crashed)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(steps, min_size=1, max_size=8))
def test_live_nodes_reconverge_after_faults_stop(schedule):
    cluster, crashed, ever_crashed = apply_schedule(schedule)
    live = sorted(set(range(NUM_HOSTS)) - crashed)
    if not live:
        return
    expected = tuple(live)
    # Allow extra settling time for deep schedules.
    for _ in range(12):
        rings = set(cluster.rings().values())
        states = set(cluster.states().values())
        if rings == {expected} and states == {"operational"}:
            break
        cluster.run(0.25)
    assert set(cluster.rings().values()) == {expected}, (
        f"live nodes {live} failed to converge: {cluster.rings()}"
    )
    # And the merged ring still orders traffic end to end.
    cluster.hosts[live[0]].submit(payload_size=32, service=DeliveryService.SAFE)
    cluster.run(0.4)
    for pid in live:
        assert any(
            m.pid == live[0] and m.payload_size == 32
            for m in cluster.hosts[pid].delivered
        )
    cluster.checker.check(crashed=ever_crashed | crashed)
