"""Write-ahead logging in the append-before-apply discipline.

A replica appends a redo record — the ordered command plus its target
group — *before* mutating in-memory state (:mod:`~repro.apps.kv.
replica`).  The record body holds the command bytes exactly as they
were ordered (:meth:`WriteAheadLog.append_ordered`): the strict command
codec re-encodes every command it accepts to those same bytes, so the
log equals what :func:`encode_record` would write, without re-encoding
the command each replica just parsed.  After a crash, replaying the
snapshot plus the WAL suffix reconstructs exactly the state the
replica had durably committed to, including commands appended but
never applied in memory (the classic crash-between-append-and-apply
window the chaos suite exercises).

Record framing::

    record := length:u32  crc32(body):u32  body
    body   := group_len:u16 group  command_bytes   (as ordered)

Recovery tolerates a torn tail: a record whose frame is truncated or
whose CRC does not match ends replay at the last good record — the
write simply never happened, which is the correct durability semantics
for an append that was racing a crash.  A bad record *followed by good
bytes* is different (that's corruption, not a torn write) and raises.

Two storage backends share the codec: :class:`MemoryWalStorage` models
the disk inside the simulator (it survives a replica crash/restart the
way a filesystem survives a process crash), and :class:`FileWalStorage`
writes real files for the CLI's ``recover-replay`` workflow.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.apps.kv.commands import (
    CommandError,
    KvCommand,
    decode_command,
    encode_command,
)
from repro.util.errors import ConfigurationError

_FRAME = struct.Struct("!II")
_U16 = struct.Struct("!H")


class WalCorruption(ConfigurationError):
    """Bad bytes in the *middle* of a WAL (not a torn tail)."""


@dataclass(frozen=True)
class WalRecord:
    """One redo record: an ordered command bound to its group."""

    group: str
    command: KvCommand


def frame_record(group: str, command_bytes: bytes) -> bytes:
    """Frame one record from its group and encoded command."""
    gname = group.encode("utf-8")
    if len(gname) > 0xFFFF:
        raise ConfigurationError(f"group name too long: {group!r}")
    body = _U16.pack(len(gname)) + gname + command_bytes
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def encode_record(record: WalRecord) -> bytes:
    """Frame one record; byte-stable (pinned by the property tests)."""
    return frame_record(record.group, encode_command(record.command))


def decode_body(body: bytes) -> WalRecord:
    (glen,) = _U16.unpack_from(body)
    if len(body) < _U16.size + glen:
        raise CommandError("record body shorter than its group name")
    group = body[_U16.size : _U16.size + glen].decode("utf-8")
    command = decode_command(body[_U16.size + glen :])
    return WalRecord(group=group, command=command)


def iter_records(data: bytes) -> Iterator[WalRecord]:
    """Yield records until the data ends or a torn tail is found.

    A frame that is incomplete, fails its CRC, or fails to parse stops
    iteration **iff it is the last frame** (a torn append).  Anywhere
    else it raises :class:`WalCorruption`.
    """
    pos = 0
    total = len(data)
    while pos < total:
        start = pos
        if pos + _FRAME.size > total:
            return  # torn: header itself incomplete
        length, crc = _FRAME.unpack_from(data, pos)
        pos += _FRAME.size
        if pos + length > total:
            return  # torn: body incomplete
        body = data[pos : pos + length]
        pos += length
        if zlib.crc32(body) != crc:
            if pos >= total:
                return  # torn: garbage tail
            raise WalCorruption(
                f"CRC mismatch at offset {start} with "
                f"{total - pos} byte(s) following"
            )
        try:
            record = decode_body(body)
        except CommandError as exc:
            if pos >= total:
                return
            raise WalCorruption(f"bad record at offset {start}: {exc}") from exc
        yield record


class MemoryWalStorage:
    """An in-memory 'disk': survives simulated process crashes."""

    def __init__(self, data: bytes = b"") -> None:
        self._buffer = bytearray(data)

    def append(self, data: bytes) -> None:
        self._buffer += data

    def read(self) -> bytes:
        return bytes(self._buffer)

    def replace(self, data: bytes) -> None:
        self._buffer = bytearray(data)


class FileWalStorage:
    """Real files for the CLI's durable runs and recover-replay."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, data: bytes) -> None:
        with open(self.path, "ab") as handle:
            handle.write(data)

    def read(self) -> bytes:
        try:
            return self.path.read_bytes()
        except FileNotFoundError:
            return b""

    def replace(self, data: bytes) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(data)
        tmp.replace(self.path)


class WriteAheadLog:
    """Append-only redo log over either storage backend."""

    def __init__(self, storage: Optional[object] = None) -> None:
        self.storage = storage if storage is not None else MemoryWalStorage()
        self.records_appended = 0

    def append(self, record: WalRecord) -> None:
        self.append_ordered(record.group, encode_command(record.command))

    def append_ordered(self, group: str, command_bytes: bytes) -> None:
        """Log one command as ordered: its bytes, framed with ``group``."""
        self.storage.append(frame_record(group, command_bytes))
        self.records_appended += 1

    def records(self) -> List[WalRecord]:
        """Every durable record, torn tail excluded."""
        return list(iter_records(self.storage.read()))

    def reset(self) -> None:
        """Drop the log (after its contents made it into a snapshot)."""
        self.storage.replace(b"")
