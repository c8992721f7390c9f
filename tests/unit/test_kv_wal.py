"""Unit tests for the WAL: framing, torn tails, corruption, recovery."""

import pytest

from repro.apps.kv.commands import KvCommand, put
from repro.apps.kv.replica import DurableMedium, recover_store
from repro.apps.kv.snapshot import SnapshotError, decode_snapshot, encode_snapshot
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import (
    FileWalStorage,
    MemoryWalStorage,
    WalCorruption,
    WalRecord,
    WriteAheadLog,
    encode_record,
    iter_records,
)


def record(reqid, key="k", value=b"v", group="g"):
    return WalRecord(
        group=group,
        command=KvCommand(client_id=0, request_id=reqid, ops=(put(key, value),)),
    )


class TestFraming:
    def test_append_and_read_back(self):
        wal = WriteAheadLog()
        for reqid in range(1, 6):
            wal.append(record(reqid))
        assert [r.command.request_id for r in wal.records()] == [1, 2, 3, 4, 5]
        assert wal.records_appended == 5

    def test_reset_drops_everything(self):
        wal = WriteAheadLog()
        wal.append(record(1))
        wal.reset()
        assert wal.records() == []
        assert wal.storage.read() == b""

    def test_records_preserve_group_binding(self):
        wal = WriteAheadLog()
        wal.append(record(1, group="kv03"))
        wal.append(record(2, group="kv07"))
        assert [r.group for r in wal.records()] == ["kv03", "kv07"]


class TestTornTail:
    def test_truncated_header_is_torn(self):
        data = encode_record(record(1)) + b"\x00\x01"
        assert [r.command.request_id for r in iter_records(data)] == [1]

    def test_truncated_body_is_torn(self):
        good = encode_record(record(1))
        partial = encode_record(record(2))[:-3]
        assert [r.command.request_id for r in iter_records(good + partial)] == [1]

    def test_crc_garbage_at_end_is_torn(self):
        good = encode_record(record(1))
        bad = bytearray(encode_record(record(2)))
        bad[-1] ^= 0xFF  # flip a payload byte; CRC now mismatches
        assert [r.command.request_id for r in iter_records(good + bytes(bad))] == [1]

    def test_corruption_mid_log_raises(self):
        first = bytearray(encode_record(record(1)))
        first[-1] ^= 0xFF
        data = bytes(first) + encode_record(record(2))
        with pytest.raises(WalCorruption):
            list(iter_records(data))

    def test_empty_log(self):
        assert list(iter_records(b"")) == []


class TestFileStorage:
    def test_round_trip_through_files(self, tmp_path):
        storage = FileWalStorage(tmp_path / "wal.bin")
        wal = WriteAheadLog(storage)
        wal.append(record(1))
        wal.append(record(2))
        # A fresh handle over the same file sees the same records.
        reopened = WriteAheadLog(FileWalStorage(tmp_path / "wal.bin"))
        assert [r.command.request_id for r in reopened.records()] == [1, 2]

    def test_replace_is_atomic_rename(self, tmp_path):
        storage = FileWalStorage(tmp_path / "snap.bin")
        storage.replace(b"image-1")
        storage.replace(b"image-2")
        assert storage.read() == b"image-2"
        assert not (tmp_path / "snap.bin.tmp").exists()

    def test_missing_file_reads_empty(self, tmp_path):
        storage = FileWalStorage(tmp_path / "absent.bin")
        assert storage.read() == b""


class TestSnapshotCodec:
    def build_store(self):
        store = KvStore()
        store.apply("g1", KvCommand(client_id=0, request_id=1,
                                    ops=(put("a", b"1"),)))
        store.apply("g2", KvCommand(client_id=1, request_id=4,
                                    ops=(put("b", b""),)))
        return store

    def test_round_trip(self):
        store = self.build_store()
        decoded = decode_snapshot(encode_snapshot(store))
        assert decoded.data == store.data
        assert decoded.applied_counts == store.applied_counts
        assert decoded.watermarks == store.watermarks
        assert decoded.digest() == store.digest()

    def test_canonical_encoding(self):
        a, b = KvStore(), KvStore()
        a.apply("g", KvCommand(client_id=0, request_id=1, ops=(put("x", b"1"),)))
        a.apply("g", KvCommand(client_id=0, request_id=2, ops=(put("y", b"2"),)))
        b.apply("g", KvCommand(client_id=0, request_id=1, ops=(put("y", b"2"),)))
        b.apply("g", KvCommand(client_id=0, request_id=2, ops=(put("x", b"1"),)))
        # Same final state (modulo identical watermarks) -> same bytes.
        assert encode_snapshot(a) == encode_snapshot(b)

    def test_torn_snapshot_decodes_to_none(self):
        data = encode_snapshot(self.build_store())
        assert decode_snapshot(data[: len(data) // 2]) is None
        assert decode_snapshot(b"") is None

    def test_bad_magic_raises(self):
        import struct
        import zlib

        body = b"NOTMAGIC" + b"\x00" * 4
        framed = struct.pack("!II", len(body), zlib.crc32(body)) + body
        with pytest.raises(SnapshotError):
            decode_snapshot(framed)


class TestRecovery:
    def test_snapshot_plus_suffix(self):
        medium = DurableMedium()
        live = KvStore()
        wal = WriteAheadLog(medium.wal_storage)
        for reqid in range(1, 9):
            rec = record(reqid, key=f"k{reqid}")
            live.apply(rec.group, rec.command)
            if reqid == 5:
                medium.write_snapshot(encode_snapshot(live))
                wal.reset()
            else:
                if reqid > 5:
                    wal.append(rec)
                elif reqid <= 5:
                    wal.append(rec)
        recovered, replayed = recover_store(medium)
        assert replayed == 3  # records 6..8
        assert recovered.digest() == live.digest()

    def test_recovery_from_wal_alone(self):
        medium = DurableMedium()
        live = KvStore()
        wal = WriteAheadLog(medium.wal_storage)
        for reqid in range(1, 4):
            rec = record(reqid, key=f"k{reqid}")
            live.apply(rec.group, rec.command)
            wal.append(rec)
        recovered, replayed = recover_store(medium)
        assert replayed == 3
        assert recovered.digest() == live.digest()

    def test_recovery_survives_torn_tail(self):
        medium = DurableMedium()
        wal = WriteAheadLog(medium.wal_storage)
        wal.append(record(1))
        medium.wal_storage.append(encode_record(record(2))[:-4])
        recovered, replayed = recover_store(medium)
        assert replayed == 1
        assert recovered.value("g", "k") == b"v"

    def test_empty_medium_recovers_empty_store(self):
        recovered, replayed = recover_store(DurableMedium())
        assert replayed == 0
        assert recovered.total_applied() == 0


class TestMemoryStorage:
    def test_survives_handle_replacement(self):
        storage = MemoryWalStorage()
        WriteAheadLog(storage).append(record(1))
        # A new WAL handle over the same storage (a replica restart)
        # still sees the durable bytes.
        assert [r.command.request_id
                for r in WriteAheadLog(storage).records()] == [1]
