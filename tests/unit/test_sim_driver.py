"""Unit tests for the sim driver, cluster builder, profiles, and the
transmit schedule."""

import pytest

from repro.analysis.ledger import TransmitLedger
from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.net.packet import PortKind
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import DAEMON, LIBRARY, PROFILES, SPREAD


class TestProfiles:
    def test_registry_contains_all_three(self):
        assert set(PROFILES) == {"library", "daemon", "spread"}

    def test_cost_hierarchy_library_cheapest(self):
        # The meaningful per-message cost is receive-to-deliver: Spread's
        # overhead is concentrated on delivery (group-name analysis, many
        # clients), per the paper's §IV-A1 analysis.
        for size in (1384, 9000):
            def total(profile):
                return profile.recv_cost(size) + profile.deliver_cpu

            assert total(LIBRARY) < total(DAEMON) < total(SPREAD)
        assert LIBRARY.deliver_cpu < DAEMON.deliver_cpu < SPREAD.deliver_cpu
        assert LIBRARY.token_cpu < DAEMON.token_cpu < SPREAD.token_cpu

    def test_header_hierarchy(self):
        assert LIBRARY.data_header_bytes < DAEMON.data_header_bytes < SPREAD.data_header_bytes

    def test_spread_payload_fits_mtu(self):
        # Paper: 1350-byte payloads leave room for Spread's headers in a
        # 1500-byte MTU.
        assert 1350 + SPREAD.data_header_bytes == 1500

    def test_library_has_no_ipc_cost(self):
        assert LIBRARY.ingest_cpu == 0.0
        assert DAEMON.ingest_cpu > 0.0

    def test_per_byte_costs_positive(self):
        for profile in PROFILES.values():
            assert profile.per_byte_recv > 0
            assert profile.per_byte_send > 0
            assert profile.send_cost(1000) > profile.send_cpu


class TestCluster:
    def test_build_cluster_rings_match(self):
        cluster = ClusterBuilder().hosts(4).build()
        assert cluster.ring == [0, 1, 2, 3]
        for pid, driver in cluster.drivers.items():
            assert driver.participant.pid == pid
            assert driver.participant.ring == [0, 1, 2, 3]

    def test_original_flag_selects_baseline(self):
        cluster = ClusterBuilder().hosts(2).accelerated(False).build()
        assert not cluster.drivers[0].participant.accelerated
        cluster = ClusterBuilder().hosts(2).accelerated(True).build()
        assert cluster.drivers[0].participant.accelerated

    def test_double_start_rejected(self):
        cluster = ClusterBuilder().hosts(2).build()
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.start()

    def test_token_circulates_when_idle(self):
        cluster = ClusterBuilder().hosts(3).network(GIGABIT).build()
        cluster.start()
        cluster.run(0.005)
        stats = cluster.aggregate()
        assert stats.token_rounds > 10  # idle rotation continues

    def test_messages_flow_and_are_measured(self):
        cluster = ClusterBuilder().hosts(3).network(GIGABIT).profile(LIBRARY).build()
        cluster.start()
        for _ in range(5):
            cluster.driver(0).client_submit(payload_size=500)
        cluster.run(0.01)
        stats = cluster.aggregate()
        assert stats.latency.count == 15  # 5 messages delivered at 3 hosts
        assert stats.goodput_bps > 0

    def test_measure_from_excludes_warmup(self):
        cluster = ClusterBuilder().hosts(2).profile(LIBRARY).build()
        cluster.set_measure_from(1.0)  # far future: nothing measured
        cluster.start()
        cluster.driver(0).client_submit(payload_size=100)
        cluster.run(0.01)
        assert cluster.aggregate().latency.count == 0

    def test_safe_latency_exceeds_agreed(self):
        def run(service):
            cluster = ClusterBuilder().hosts(3).profile(LIBRARY).build()
            cluster.start()
            cluster.sim.run(until=0.001)
            cluster.driver(0).client_submit(payload_size=500, service=service)
            cluster.run(0.02)
            return cluster.aggregate().latency.mean

        assert run(DeliveryService.SAFE) > run(DeliveryService.AGREED)


class TestTransmitSchedule:
    def test_trace_captures_token_and_data(self):
        cluster = ClusterBuilder().hosts(3).profile(LIBRARY).build()
        ledger = TransmitLedger(cluster.topology)
        cluster.driver(0).client_submit(payload_size=100)
        cluster.start()
        cluster.run(0.002)
        kinds = {row.port for row, _ in ledger.schedule()}
        assert kinds == {PortKind.TOKEN, PortKind.DATA}

    def test_sequence_of_interleaves_in_time_order(self):
        cluster = (
            ClusterBuilder()
            .hosts(3)
            .profile(LIBRARY)
            .config(ProtocolConfig(personal_window=5, accelerated_window=3,
                                  global_window=50))
            .build()
        )
        ledger = TransmitLedger(cluster.topology)
        for _ in range(5):
            cluster.driver(0).client_submit(payload_size=100)
        cluster.start()
        cluster.run(0.002)
        schedule = ledger.sequence_of(0)
        assert schedule[:6] == ["1", "2", "T5", "3", "4", "5"]
