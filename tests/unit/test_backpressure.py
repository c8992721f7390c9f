"""Unit tests for the bounded per-client send queue.

Frames queue on ``send`` and reach the socket on ``flush`` (one write per
batch, straight through while the socket keeps up); what the socket does
not take stays counted against the window until it has.
"""

import asyncio

from repro.runtime.backpressure import ClientSendQueue, flush_all


class _PipeServer:
    """A real loopback stream pair so drain() exercises real transports."""

    def __init__(self):
        self.reader = None
        self._server = None
        self._path = None

    async def open(self, tmp_path):
        connected = asyncio.Event()

        def on_client(reader, writer):
            self.reader = reader
            self._client_writer = writer
            connected.set()

        self._path = str(tmp_path / "pipe.sock")
        self._server = await asyncio.start_unix_server(on_client, path=self._path)
        reader, writer = await asyncio.open_unix_connection(self._path)
        await connected.wait()
        return reader, writer

    async def close(self):
        self._client_writer.close()
        self._server.close()
        await self._server.wait_closed()


def test_flush_writes_the_batch_through_in_one_write(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        writes = []
        real_write = writer.write
        writer.write = lambda data: (writes.append(data), real_write(data))[1]
        queue = ClientSendQueue(writer, capacity_bytes=1024)
        assert queue.send(b"hello")
        assert queue.send(b"world")
        assert queue.pending_frames == [b"hello", b"world"]
        tasks = len(asyncio.all_tasks())
        queue.flush()
        # Written in the caller's own step: no task, nothing left queued.
        assert writes == [b"helloworld"]
        assert queue.writes == 1
        assert len(asyncio.all_tasks()) == tasks
        assert queue.pending_frames == []
        assert queue.window.queued_bytes == 0
        data = await asyncio.wait_for(pipe.reader.readexactly(10), 5)
        assert data == b"helloworld"
        queue.flush()  # nothing queued: no write
        assert writes == [b"helloworld"]
        assert queue.writes == 1
        await queue.aclose()
        await pipe.close()

    asyncio.run(scenario())


def test_flush_all_flushes_each_touched_queue_once(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        unflushed = []
        queue = ClientSendQueue(writer, capacity_bytes=1024, unflushed=unflushed)
        idle = ClientSendQueue(writer, capacity_bytes=1024, unflushed=unflushed)
        queue.send(b"a")
        queue.send(b"b")
        assert unflushed == [queue]  # registered once, the idle queue never
        flush_all(unflushed)
        assert unflushed == [] and idle.pending_frames == []
        assert await asyncio.wait_for(pipe.reader.readexactly(2), 5) == b"ab"
        queue.send(b"c")
        assert unflushed == [queue]  # and again after a flush
        await queue.aclose()
        await pipe.close()

    asyncio.run(scenario())


def test_backlog_stays_in_the_window_until_the_socket_takes_it(tmp_path):
    """A reader that stalls: the unsent tail of a write stays reserved,
    later frames queue behind it (never a second write on top), and once
    the reader catches up everything arrives, in order, and the window
    empties."""

    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        capacity = 8 << 20
        queue = ClientSendQueue(writer, capacity_bytes=capacity)
        chunk = bytes(range(256)) * 256  # 64 KiB
        sent = 0
        # Nobody reads: some flush soon leaves bytes in the transport.
        while writer.transport.get_write_buffer_size() == 0:
            assert queue.send(chunk)
            queue.flush()
            sent += 1
            assert sent < 100, "the socket never backed up"
        backlog = writer.transport.get_write_buffer_size()
        assert 0 < backlog <= len(chunk)
        assert queue.window.queued_bytes == backlog
        # Backed up: frames only queue, flush leaves them alone.
        assert queue.send(b"tail-1") and queue.send(b"tail-2")
        queue.flush()
        assert queue.pending_frames == [b"tail-1", b"tail-2"]
        assert writer.transport.get_write_buffer_size() == backlog
        assert queue.window.queued_bytes == backlog + 12
        # The reader catches up: the drain task writes the rest on.
        data = await asyncio.wait_for(
            pipe.reader.readexactly(sent * len(chunk) + 12), 10
        )
        assert data == chunk * sent + b"tail-1tail-2"
        await asyncio.sleep(0.01)
        assert queue.window.queued_bytes == 0
        assert queue.pending_frames == []
        # ... and the fast path is back: a flush writes straight through.
        queue.send(b"again")
        queue.flush()
        assert queue.pending_frames == []
        await queue.aclose()
        await pipe.close()

    asyncio.run(scenario())


def test_overflow_marks_slow_and_aborts(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        queue = ClientSendQueue(writer, capacity_bytes=16)
        # Nothing flushes: the window fills, so the third frame
        # overflows deterministically.
        assert queue.send(b"x" * 8)
        assert queue.send(b"y" * 8)
        assert not queue.send(b"z")
        assert queue.dropped_slow
        assert queue.closing
        # Every send after the drop is refused.
        assert not queue.send(b"a")
        await queue.drain_and_close()
        await pipe.close()

    asyncio.run(scenario())


def test_sends_after_close_are_refused(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        queue = ClientSendQueue(writer, capacity_bytes=1024)
        await queue.aclose()
        assert not queue.send(b"late")
        assert not queue.dropped_slow  # refusal, not an overflow drop
        await pipe.close()

    asyncio.run(scenario())


def test_drain_and_close_flushes_what_is_queued(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        queue = ClientSendQueue(writer, capacity_bytes=1024)
        queue.send(b"last words")
        await queue.drain_and_close()
        assert await asyncio.wait_for(pipe.reader.read(), 5) == b"last words"
        await pipe.close()

    asyncio.run(scenario())


def test_aclose_is_idempotent_and_leaves_no_task(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        queue = ClientSendQueue(writer, capacity_bytes=1 << 20)
        # Back the socket up so a drain task is alive at close.
        while writer.transport.get_write_buffer_size() == 0:
            queue.send(b"f" * 65536)
            queue.flush()
        before = len(asyncio.all_tasks())
        await queue.aclose()
        await queue.aclose()
        await asyncio.sleep(0.01)
        assert len(asyncio.all_tasks()) < before
        assert queue.window.queued_bytes == 0
        await pipe.close()

    asyncio.run(scenario())


def test_peer_disconnect_ends_quietly(tmp_path):
    async def scenario():
        pipe = _PipeServer()
        _, writer = await pipe.open(tmp_path)
        queue = ClientSendQueue(writer, capacity_bytes=1024)
        # The peer vanishes; subsequent writes hit a dead connection,
        # which the queue must absorb.
        pipe._client_writer.transport.abort()
        await asyncio.sleep(0.01)
        for _ in range(4):
            queue.send(b"into-the-void")
            queue.flush()
            await asyncio.sleep(0.005)
        await queue.drain_and_close()
        await pipe.close()

    asyncio.run(scenario())
