"""Unit tests for the simulated host: sockets, CPU, loss hook."""

import pytest

from repro.net.host import Cpu, SimHost, SocketBuffer
from repro.net.loss import UniformLoss
from repro.net.packet import Frame, PortKind
from repro.net.params import GIGABIT
from repro.net.simulator import Simulator


def frame(kind=PortKind.DATA, size=100, src=1):
    return Frame(src=src, dst=0, kind=kind, size=size, payload=b"p")


class TestSocketBuffer:
    def test_push_pop_fifo(self):
        sock = SocketBuffer(1000)
        first, second = frame(), frame()
        assert sock.push(first)
        assert sock.push(second)
        assert sock.pop() is first
        assert sock.pop() is second

    def test_overflow_drops(self):
        sock = SocketBuffer(150)
        assert sock.push(frame(size=100))
        assert not sock.push(frame(size=100))
        assert sock.frames_dropped == 1
        assert len(sock) == 1

    def test_queued_bytes_tracks(self):
        sock = SocketBuffer(1000)
        sock.push(frame(size=300))
        assert sock.queued_bytes == 300
        sock.pop()
        assert sock.queued_bytes == 0

    def test_a_deep_buffer_releases_in_fifo_order(self):
        # More frames than the 256 slots the buffer's queue used to
        # start with, through push and through SimHost.receive's inline.
        sock = SocketBuffer(1_000_000)
        host = SimHost(0, Simulator(), GIGABIT, on_wire=lambda f: None)
        frames = [frame(size=64 + index % 7) for index in range(1000)]
        for arrived in frames:
            assert sock.push(arrived)
            host.receive(arrived)
        for buffer in (sock, host.data_socket):
            assert len(buffer) == 1000
            assert list(buffer._frames) == frames
            assert buffer.queued_bytes == sum(f.size for f in frames)
            assert [buffer.pop() for _ in frames] == frames
            assert buffer.queued_bytes == 0 and len(buffer) == 0


class TestCpu:
    def test_submitted_tasks_run_in_order(self):
        sim = Simulator()
        cpu = Cpu(sim)
        seen = []
        cpu.submit(1e-6, lambda: seen.append("a"))
        cpu.submit(1e-6, lambda: seen.append("b"))
        sim.run_until_idle()
        assert seen == ["a", "b"]
        assert cpu.busy_time == pytest.approx(2e-6)
        assert cpu.tasks_executed == 2

    def test_idle_hook_pulled_when_queue_empty(self):
        sim = Simulator()
        cpu = Cpu(sim)
        seen = []
        work = [(1e-6, seen.append, ("hook",))]
        cpu.idle_hook = lambda: work.pop() if work else None
        cpu.kick()
        sim.run_until_idle()
        assert seen == ["hook"]

    def test_submit_takes_precedence_over_idle_hook(self):
        sim = Simulator()
        cpu = Cpu(sim)
        seen = []
        pulls = []
        cpu.idle_hook = lambda: pulls.append(1) or None
        cpu.submit(1e-6, lambda: seen.append("explicit"))
        sim.run_until_idle()
        assert seen == ["explicit"]
        # idle hook consulted only after the queue drained
        assert len(pulls) >= 1

    def test_kick_on_idle_cpu_is_safe(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.kick()
        cpu.kick()
        sim.run_until_idle()
        assert cpu.tasks_executed == 0


class TestSimHost:
    def make_host(self, loss=None):
        sim = Simulator()
        host = SimHost(0, sim, GIGABIT, on_wire=lambda f: None, loss_model=loss)
        return sim, host

    def test_frames_routed_by_port_kind(self):
        sim, host = self.make_host()
        host.receive(frame(PortKind.DATA))
        host.receive(frame(PortKind.TOKEN))
        assert len(host.data_socket) == 1
        assert len(host.token_socket) == 1

    def test_loss_model_drops_data_only(self):
        sim, host = self.make_host(loss=UniformLoss(rate=0.999999, seed=1))
        host.receive(frame(PortKind.DATA))
        host.receive(frame(PortKind.TOKEN))
        assert len(host.data_socket) == 0
        assert len(host.token_socket) == 1
        assert host.frames_lost_to_model == 1

    def test_crashed_host_ignores_frames(self):
        sim, host = self.make_host()
        host.crash()
        host.receive(frame())
        assert len(host.data_socket) == 0
        host.recover()
        host.receive(frame())
        assert len(host.data_socket) == 1

    def test_receive_kicks_cpu(self):
        sim, host = self.make_host()
        processed = []

        def idle():
            if len(host.data_socket):
                f = host.data_socket.pop()
                return (1e-6, processed.append, (f,))
            return None

        host.cpu.idle_hook = idle
        host.receive(frame())
        sim.run_until_idle()
        assert len(processed) == 1

    def test_crash_wipes_volatile_state(self):
        """Fail-stop loses everything: queued CPU work, a GC-stall, and
        the kernel socket buffers.  Leaving any behind lets a later
        recover() of the same host resurrect the dead incarnation's
        work (the crash-while-paused zombie regression)."""
        sim, host = self.make_host()
        host.pause()  # stall first so the submitted work queues instead of starting
        host.receive(frame(PortKind.DATA))
        host.receive(frame(PortKind.TOKEN))
        host.cpu.submit(1e-6, lambda: pytest.fail("dead work executed"))
        host.crash()
        assert len(host.data_socket) == 0
        assert len(host.token_socket) == 0
        assert host.data_socket.queued_bytes == 0
        assert not host.cpu.stalled
        host.recover()
        sim.run_until_idle()  # the pre-crash task must never run

    def test_crash_while_paused_recover_restarts_clean(self):
        sim, host = self.make_host()
        host.pause()
        host.crash()
        host.recover()
        ran = []
        host.cpu.submit(1e-6, lambda: ran.append(True))
        sim.run_until_idle()
        assert ran == [True]
