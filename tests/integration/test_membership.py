"""Integration tests for membership: crashes, partitions, merges, with
EVS guarantees checked on every trace."""


from repro.core.messages import DeliveryService
from repro.membership.controller import MemberState
from repro.membership.messages import RecoveredMessage
from repro.net.packet import PortKind
from repro.obs.observer import ProtocolObserver
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import DeliveryTap


def boot(n=4, accelerated=True):
    cluster = ClusterBuilder().hosts(n).membership().accelerated(accelerated).build()
    cluster.start()
    cluster.run(0.06)
    return cluster


def wait_for_rings(cluster, expected, budget=0.8, step=0.05, hold=3):
    """Wait until every live node reports the expected ring(s) and the
    view stays put for ``hold`` consecutive checks (membership may churn
    briefly while competing proposals settle)."""
    elapsed = 0.0
    stable = 0
    while elapsed < budget:
        rings = set(cluster.rings().values())
        states = set(cluster.states().values())
        if rings == expected and states == {"operational"}:
            stable += 1
            if stable >= hold:
                return
        else:
            stable = 0
        cluster.run(step)
        elapsed += step
    assert set(cluster.rings().values()) == expected


class TestBoot:
    def test_all_nodes_form_one_ring(self):
        cluster = boot(4)
        assert set(cluster.rings().values()) == {(0, 1, 2, 3)}
        assert set(cluster.states().values()) == {"operational"}

    def test_eight_node_ring(self):
        cluster = boot(8)
        wait_for_rings(cluster, {tuple(range(8))})

    def test_single_node_forms_singleton(self):
        cluster = boot(1)
        assert cluster.rings() == {0: (0,)}

    def test_traffic_flows_and_is_checked(self):
        cluster = boot(3)
        for host in cluster.hosts.values():
            for index in range(8):
                host.submit(
                    payload_size=100,
                    service=DeliveryService.SAFE if index % 2 else DeliveryService.AGREED,
                )
        cluster.run(0.1)
        assert all(len(h.delivered) == 24 for h in cluster.hosts.values())
        cluster.checker.check()


class TestCrash:
    def test_ring_reforms_without_crashed_member(self):
        cluster = boot(4)
        cluster.crash(1)
        wait_for_rings(cluster, {(0, 2, 3)})
        cluster.checker.check(crashed={1})

    def test_messages_flow_after_crash(self):
        cluster = boot(4)
        for host in cluster.hosts.values():
            host.submit(payload_size=50)
        cluster.run(0.05)
        cluster.crash(2)
        wait_for_rings(cluster, {(0, 1, 3)})
        for pid in (0, 1, 3):
            cluster.hosts[pid].submit(payload_size=50, service=DeliveryService.SAFE)
        cluster.run(0.4)
        counts = {p: len(h.delivered) for p, h in cluster.hosts.items() if p != 2}
        assert counts == {0: 7, 1: 7, 3: 7}
        cluster.checker.check(crashed={2})

    def test_in_flight_messages_recovered_across_view_change(self):
        cluster = boot(4)
        for host in cluster.hosts.values():
            for _ in range(5):
                host.submit(payload_size=100)
        # crash immediately: some messages are still in flight
        cluster.crash(3)
        cluster.run(0.4)
        wait_for_rings(cluster, {(0, 1, 2)})
        survivors = [h for p, h in cluster.hosts.items() if p != 3]
        # survivors' own messages must all be delivered (self-delivery)
        for host in survivors:
            own = [m for m in host.delivered if m.pid == host.pid]
            assert len(own) == 5
        cluster.checker.check(crashed={3})

    def test_majority_crash_leaves_survivor_operational(self):
        cluster = boot(3)
        cluster.crash(0)
        cluster.crash(1)
        wait_for_rings(cluster, {(2,)})
        cluster.hosts[2].submit(payload_size=10)
        cluster.run(0.1)
        assert any(m.pid == 2 for m in cluster.hosts[2].delivered)
        cluster.checker.check(crashed={0, 1})


class TestPartition:
    def test_partition_forms_two_rings(self):
        cluster = boot(4)
        cluster.partition({0, 1}, {2, 3})
        cluster.run(0.4)
        rings = cluster.rings()
        assert rings[0] == rings[1] == (0, 1)
        assert rings[2] == rings[3] == (2, 3)
        cluster.checker.check()

    def test_both_sides_make_progress(self):
        cluster = boot(4)
        cluster.partition({0, 1}, {2, 3})
        cluster.run(0.4)
        for pid in (0, 2):
            cluster.hosts[pid].submit(payload_size=20, service=DeliveryService.SAFE)
        cluster.run(0.2)
        assert any(m.pid == 0 for m in cluster.hosts[1].delivered)
        assert any(m.pid == 2 for m in cluster.hosts[3].delivered)
        # messages do not cross the partition
        assert not any(m.pid == 2 for m in cluster.hosts[0].delivered)
        cluster.checker.check()

    def test_heal_merges_rings(self):
        cluster = boot(4)
        cluster.partition({0, 1}, {2, 3})
        cluster.run(0.4)
        cluster.heal()
        wait_for_rings(cluster, {(0, 1, 2, 3)}, budget=1.2)
        cluster.checker.check()

    def test_traffic_after_merge_reaches_everyone(self):
        cluster = boot(4)
        cluster.partition({0, 1}, {2, 3})
        cluster.run(0.4)
        cluster.heal()
        wait_for_rings(cluster, {(0, 1, 2, 3)}, budget=1.2)
        cluster.hosts[0].submit(payload_size=30, service=DeliveryService.SAFE)
        cluster.run(0.2)
        for host in cluster.hosts.values():
            assert any(m.pid == 0 and m.payload_size == 30 for m in host.delivered)
        cluster.checker.check()

    def test_minority_singleton_partition(self):
        cluster = boot(3)
        cluster.partition({0, 1}, {2})
        cluster.run(0.5)
        rings = cluster.rings()
        assert rings[2] == (2,)
        assert rings[0] == (0, 1)
        cluster.checker.check()


class TestRecovery:
    def test_crashed_process_rejoins_after_restart(self):
        """Paper §II: the protocol tolerates process crashes *and
        recoveries* — a restarted daemon merges back into the ring."""
        cluster = boot(4)
        cluster.crash(2)
        wait_for_rings(cluster, {(0, 1, 3)})
        cluster.restart(2)
        wait_for_rings(cluster, {(0, 1, 2, 3)}, budget=2.5)
        cluster.checker.check(crashed={2})

    def test_restarted_representative_rejoins(self):
        """Restarting the boot representative must not reuse its old ring
        ids (the ring-seq persists across the crash, as on Totem's stable
        storage)."""
        cluster = boot(4)
        cluster.crash(0)
        wait_for_rings(cluster, {(1, 2, 3)})
        cluster.restart(0)
        wait_for_rings(cluster, {(0, 1, 2, 3)}, budget=2.5)
        cluster.hosts[0].submit(payload_size=64, service=DeliveryService.SAFE)
        cluster.run(0.3)
        for pid in (1, 2, 3):
            assert any(m.pid == 0 for m in cluster.hosts[pid].delivered)
        cluster.checker.check(crashed={0})

    def test_traffic_around_restart_is_consistent(self):
        cluster = boot(3)
        for host in cluster.hosts.values():
            for _ in range(5):
                host.submit(payload_size=80)
        cluster.run(0.05)
        cluster.crash(1)
        wait_for_rings(cluster, {(0, 2)})
        cluster.restart(1)
        wait_for_rings(cluster, {(0, 1, 2)}, budget=2.5)
        cluster.hosts[1].submit(payload_size=80, service=DeliveryService.SAFE)
        cluster.run(0.3)
        for pid in (0, 2):
            assert any(
                m.pid == 1 and m.service == DeliveryService.SAFE
                for m in cluster.hosts[pid].delivered
            )
        cluster.checker.check(crashed={1})


class _RecoveryWindows(ProtocolObserver):
    def __init__(self):
        self.windows = {}

    def on_membership_event(self, pid, event, detail=None, now=None):
        if event == "recovery_started":
            self.windows[pid] = tuple(detail["window"])


class _Tape(DeliveryTap):
    """Per pid, deliveries and configurations in delivery order."""

    def __init__(self):
        self.events = {}

    def on_deliver_batch(self, pid, messages, config_id, origin_ring):
        self.events.setdefault(pid, []).extend(
            ("message", origin_ring, m.pid, m.seq) for m in messages
        )

    def on_config(self, pid, configuration):
        kind = "transitional" if configuration.transitional else "regular"
        self.events.setdefault(pid, []).append((kind, configuration.config_id))


class TestRecoveryFlood:
    def test_a_hole_only_recovery_can_fill_is_filled(self):
        # Every recovery of the chaos library has an empty window
        # (high == low), so nothing else reaches the (Recover,
        # RecoveredMessage) row.  Here the sender's last messages never
        # reach its ring predecessor, and the token that carries the
        # predecessor's retransmission request dies at the crashed
        # sender: the request reaches nobody who could answer it, and
        # only the recovery flood can fill the hole.
        sender, receiver = 3, 2
        windows, tape = _RecoveryWindows(), _Tape()
        cluster = (
            ClusterBuilder().hosts(4).membership().observe(windows).tap(tape).build()
        )
        cluster.start()
        cluster.run(0.06)
        assert set(cluster.rings().values()) == {(0, 1, 2, 3)}
        old_ring = cluster.hosts[receiver].controller.ring_id
        flooded = []

        def lose_the_senders_data(frame, dst):
            if frame.payload.__class__ is RecoveredMessage:
                flooded.append((frame.src, dst, frame.payload.message.seq))
            return frame.src == sender and frame.kind is PortKind.DATA and dst == receiver

        cluster.topology.switch.add_filter(lose_the_senders_data)
        controller = cluster.hosts[receiver].controller
        received = []
        on_message = controller.on_message

        def spy(message):
            received.append((controller.state, type(message)))
            return on_message(message)

        controller.on_message = spy
        for _ in range(3):
            cluster.hosts[sender].submit(payload_size=64)
        cluster.run(0.002)
        assert {p: len(h.delivered) for p, h in cluster.hosts.items()} == {
            0: 3, 1: 3, receiver: 0, sender: 3,
        }
        cluster.crash(sender)
        wait_for_rings(cluster, {(0, 1, 2)})

        survivors = (0, 1, 2)
        for pid in survivors:
            low, high = windows.windows[pid]
            assert high > low
        assert {dst for _src, dst, _seq in flooded} >= {receiver}
        assert (MemberState.RECOVER, RecoveredMessage) in received
        lost = [("message", old_ring, sender, seq) for seq in (1, 2, 3)]
        for pid in survivors:
            events = tape.events[pid]
            closing = next(i for i, e in enumerate(events) if e[0] == "transitional")
            # The same old-ring set, all of it ahead of the transitional
            # configuration that closes the old ring.
            assert [e for e in events[:closing] if e[0] == "message"] == lost
            assert [e for e in events[closing:] if e[0] == "message"] == []
        cluster.checker.check(crashed={sender})


class TestChurn:
    def test_repeated_crash_and_partition_sequence(self):
        cluster = boot(5)
        for host in cluster.hosts.values():
            host.submit(payload_size=40)
        cluster.run(0.05)
        cluster.crash(4)
        cluster.run(0.3)
        cluster.partition({0, 1}, {2, 3})
        cluster.run(0.4)
        for pid in (0, 2):
            cluster.hosts[pid].submit(payload_size=40, service=DeliveryService.SAFE)
        cluster.run(0.2)
        cluster.heal()
        cluster.run(0.8)
        wait_for_rings(cluster, {(0, 1, 2, 3)}, budget=1.0)
        cluster.checker.check(crashed={4})

    def test_original_protocol_membership_works_too(self):
        cluster = boot(3, accelerated=False)
        assert set(cluster.rings().values()) == {(0, 1, 2)}
        cluster.crash(1)
        wait_for_rings(cluster, {(0, 2)})
        cluster.checker.check(crashed={1})
