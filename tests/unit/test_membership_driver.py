"""Unit tests for the sim membership driver plumbing."""

from repro.net.packet import Frame, PortKind
from repro.sim.build import ClusterBuilder


def booted(n=3):
    cluster = ClusterBuilder().hosts(n).membership().build()
    cluster.start()
    cluster.run(0.08)
    return cluster


def test_states_and_rings_exclude_crashed():
    cluster = booted(3)
    cluster.crash(1)
    assert 1 not in cluster.states()
    assert 1 not in cluster.rings()


def test_crash_cancels_timers():
    cluster = booted(2)
    host = cluster.hosts[0]
    assert host._effects.armed_timers  # token-loss and beacon timers armed
    cluster.crash(0)
    assert not host._effects.armed_timers


def test_checker_wired_to_all_hosts():
    cluster = booted(2)
    cluster.hosts[0].submit(payload_size=10)
    cluster.run(0.05)
    assert cluster.checker.submissions.get(0) == 1
    assert len(cluster.checker.traces[1]) > 0


def test_restart_creates_fresh_controller():
    cluster = booted(3)
    old_controller = cluster.hosts[2].controller
    cluster.crash(2)
    cluster.run(0.2)
    cluster.restart(2)
    assert cluster.hosts[2].controller is not old_controller
    assert cluster.hosts[2].controller.highest_ring_seq >= old_controller.highest_ring_seq


def test_restart_clears_stale_socket_frames():
    cluster = booted(3)
    cluster.crash(2)
    cluster.run(0.2)
    # frames may have piled up while crashed hosts don't receive; either
    # way the restart must start with empty sockets
    cluster.restart(2)
    host = cluster.hosts[2].host
    assert len(host.token_socket) == 0
    assert len(host.data_socket) == 0


def test_partition_and_heal_forwarding():
    cluster = booted(4)
    cluster.partition({0, 1}, {2, 3})
    before = cluster.topology.switch.frames_partitioned
    cluster.run(0.1)
    assert cluster.topology.switch.frames_partitioned > before
    cluster.heal()
    blocked = cluster.topology.switch.frames_partitioned
    cluster.run(0.1)
    assert cluster.topology.switch.frames_partitioned == blocked


def test_submissions_to_crashed_host_do_not_crash():
    cluster = booted(2)
    cluster.crash(1)
    cluster.hosts[1].submit(payload_size=10)  # queued, never sent
    cluster.run(0.05)
    cluster.checker.check(crashed={1})


def test_control_messages_cost_cpu():
    cluster = booted(2)
    busy = cluster.hosts[0].host.cpu.busy_time
    assert busy > 0


# ----------------------------------------------------------------------
# Receive selection: which socket the idle CPU reads next (the §III-D
# rule itself is one table for every host: tests/unit/test_receive_rule.py)
# ----------------------------------------------------------------------


def idle_host(cluster, pid=0):
    """``pid``'s membership host with both sockets emptied, so a test
    queues exactly the frames it selects among."""
    member = cluster.hosts[pid]
    member.host.token_socket.clear()
    member.host.data_socket.clear()
    return member


def selected(member):
    """The payload the next CPU task hands the process (None: no task)."""
    task = member._select_work()
    return None if task is None else task[2][0]


def test_a_token_frame_hands_its_payload_to_the_process():
    member = idle_host(booted(3))
    token = object()
    frame = Frame(1, member.pid, PortKind.TOKEN, 64, token)
    member.host.token_socket.push(frame)
    assert selected(member) is token
    socket = member.host.token_socket
    assert len(socket) == 0 and socket.queued_bytes == 0
    assert frame.payload is token  # the frame is left as it was built
