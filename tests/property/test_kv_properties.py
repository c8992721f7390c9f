"""Property tests for the KV durability stack.

Three laws carry the recovery story, so they get generative coverage:

* **codec byte-stability** — command and WAL-record encodings are pinned
  by golden bytes (they live in WAL files and snapshots; an encoding
  change silently corrupts every durable image) and round-trip for all
  inputs;
* **snapshot canonicity** — equal states encode to equal bytes, and
  decode inverts encode;
* **recovery equivalence** — for any command sequence and any snapshot
  cut point, ``replay(snapshot, wal_suffix)`` equals the full replay,
  torn WAL tails included.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.apps.kv.commands import (
    CAS,
    DELETE,
    GET,
    PUT,
    CommandError,
    KvCommand,
    Op,
    decode_command,
    encode_command,
)
from repro.apps.kv.replica import DurableMedium, recover_store
from repro.apps.kv.snapshot import decode_snapshot, encode_snapshot
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import (
    WalRecord,
    WriteAheadLog,
    encode_record,
    frame_record,
    iter_records,
)

keys = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=24
)
values = st.binary(max_size=128)
groups = st.sampled_from(["kv00", "kv01", "kv02", "партиция"])


def op_strategy():
    return st.one_of(
        st.builds(lambda k: Op(GET, k), keys),
        st.builds(lambda k, v: Op(PUT, k, value=v), keys, values),
        st.builds(lambda k: Op(DELETE, k), keys),
        st.builds(
            lambda k, e, v: Op(CAS, k, value=v, expected=e),
            keys,
            st.one_of(st.none(), values),
            values,
        ),
    )


commands = st.builds(
    KvCommand,
    client_id=st.integers(min_value=0, max_value=2**32 - 1),
    request_id=st.integers(min_value=0, max_value=2**64 - 1),
    ops=st.lists(op_strategy(), min_size=1, max_size=5).map(tuple),
)

records = st.builds(WalRecord, group=groups, command=commands)


def _field(data, wide=False):
    return struct.pack("!I" if wide else "!H", len(data)) + data


#: Command-shaped bytes with any key bytes and any CAS presence byte:
#: what a decoder sees, valid or not.
wire_keys = st.one_of(keys.map(lambda key: key.encode("utf-8")), st.binary(max_size=8))
wire_ops = st.one_of(
    st.builds(
        lambda kind, key: bytes([kind]) + _field(key),
        st.sampled_from([GET, DELETE]),
        wire_keys,
    ),
    st.builds(
        lambda key, value: bytes([PUT]) + _field(key) + _field(value, wide=True),
        wire_keys,
        values,
    ),
    st.builds(
        lambda key, present, expected, value: bytes([CAS])
        + _field(key)
        + bytes([present])
        + (_field(expected, wide=True) if present else b"")
        + _field(value, wide=True),
        wire_keys,
        st.integers(min_value=0, max_value=255),
        values,
        values,
    ),
)
wire_commands = st.builds(
    lambda client_id, request_id, ops: struct.pack("!IQH", client_id, request_id, len(ops))
    + b"".join(ops),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(wire_ops, min_size=1, max_size=4),
)


class TestCommandCodec:
    @given(command=commands)
    def test_round_trip(self, command):
        assert decode_command(encode_command(command)) == command

    @given(command=commands)
    def test_encoding_is_deterministic(self, command):
        assert encode_command(command) == encode_command(command)

    @given(data=st.one_of(wire_commands, st.binary(max_size=64)))
    def test_every_accepted_encoding_is_canonical(self, data):
        """The decoder accepts no two encodings of one command, so a
        replica may log the bytes it was handed as the command's
        encoding."""
        try:
            decoded = decode_command(data)
        except CommandError:
            return
        assert encode_command(decoded) == data

    def test_golden_bytes(self):
        """Pinned encodings: these bytes live in durable files.

        If this test fails, the wire format changed — that corrupts
        every existing WAL and snapshot.  Do not update the goldens
        without a migration story.
        """
        single = KvCommand(
            client_id=7, request_id=300, ops=(Op(PUT, "ab", value=b"xyz"),)
        )
        assert encode_command(single) == bytes.fromhex(
            "00000007" "000000000000012c" "0001"  # header
            "02" "0002" "6162" "00000003" "78797a"  # put ab=xyz
        )
        txn = KvCommand(
            client_id=1,
            request_id=2,
            ops=(
                Op(GET, "k"),
                Op(DELETE, "d"),
                Op(CAS, "c", value=b"v", expected=None),
                Op(CAS, "c", value=b"v", expected=b"e"),
            ),
        )
        assert encode_command(txn) == bytes.fromhex(
            "00000001" "0000000000000002" "0004"
            "01" "0001" "6b"                      # get k
            "03" "0001" "64"                      # delete d
            "04" "0001" "63" "00" "00000001" "76"  # cas c None->v
            "04" "0001" "63" "01" "00000001" "65" "00000001" "76"
        )

    def test_golden_wal_record(self):
        record = WalRecord(
            group="kv03",
            command=KvCommand(client_id=0, request_id=1,
                              ops=(Op(PUT, "k", value=b"v"),)),
        )
        assert encode_record(record) == bytes.fromhex(
            "0000001d"  # body length = 29
            "b36e3990"  # crc32(body)
            "0004" "6b763033"  # group kv03
            "00000000" "0000000000000001" "0001"
            "02" "0001" "6b" "00000001" "76"
        )


class TestWalRecordCodec:
    @given(record=records)
    def test_framing_the_ordered_bytes_is_the_record_encoding(self, record):
        ordered = encode_command(record.command)
        assert frame_record(record.group, ordered) == encode_record(record)
        wal = WriteAheadLog()
        wal.append_ordered(record.group, ordered)
        assert wal.storage.read() == encode_record(record)
        assert wal.records() == [record]

    @given(record_list=st.lists(records, max_size=8))
    def test_concatenated_records_round_trip(self, record_list):
        blob = b"".join(encode_record(record) for record in record_list)
        assert list(iter_records(blob)) == record_list

    @given(record_list=st.lists(records, max_size=5), junk=st.binary(max_size=40))
    def test_torn_tail_never_loses_whole_records(self, record_list, junk):
        """Appending arbitrary junk to a valid WAL either reads back as
        all records (junk happened to parse, or was empty) or stops at
        the torn tail — it never raises and never drops a good prefix.
        """
        blob = b"".join(encode_record(record) for record in record_list)
        from repro.apps.kv.wal import WalCorruption

        try:
            recovered = list(iter_records(blob + junk))
        except WalCorruption:
            return  # junk formed a framed-but-bad record with bytes after
        assert recovered[: len(record_list)] == record_list

    @given(record_list=st.lists(records, min_size=1, max_size=5),
           cut=st.integers(min_value=1, max_value=200))
    def test_truncation_keeps_a_record_prefix(self, record_list, cut):
        blob = b"".join(encode_record(record) for record in record_list)
        truncated = blob[: max(0, len(blob) - cut)]
        recovered = list(iter_records(truncated))
        assert recovered == record_list[: len(recovered)]


class TestSnapshotCodec:
    @given(command_list=st.lists(commands, max_size=12))
    def test_round_trip_preserves_digest(self, command_list):
        store = KvStore()
        for index, command in enumerate(command_list):
            store.apply(f"kv{index % 3:02d}", command)
        decoded = decode_snapshot(encode_snapshot(store))
        assert decoded is not None
        assert decoded.digest() == store.digest()
        assert decoded.watermarks == store.watermarks

    @given(command_list=st.lists(commands, max_size=10),
           cut=st.integers(min_value=0, max_value=400))
    def test_torn_snapshot_is_none_or_equal(self, command_list, cut):
        store = KvStore()
        for command in command_list:
            store.apply("kv00", command)
        data = encode_snapshot(store)
        truncated = data[: len(data) - cut] if cut else data
        decoded = decode_snapshot(truncated)
        if decoded is not None:
            assert decoded.digest() == store.digest()


class TestRecoveryEquivalence:
    @settings(deadline=None)
    @given(
        command_list=st.lists(commands, min_size=1, max_size=20),
        cut=st.integers(min_value=0, max_value=20),
        torn=st.binary(max_size=17),
    )
    def test_snapshot_plus_wal_suffix_equals_full_replay(
        self, command_list, cut, torn
    ):
        """The recovery law, over arbitrary histories and cut points.

        A replica that snapshotted after ``cut`` commands and logged
        the rest recovers to exactly the state of a replica that
        applied everything — even with a torn tail on the WAL (the torn
        command is simply not yet durable on either side).
        """
        cut = min(cut, len(command_list))
        full = KvStore()
        for index, command in enumerate(command_list):
            full.apply(f"kv{index % 2:02d}", command)

        medium = DurableMedium()
        durable = KvStore()
        wal = WriteAheadLog(medium.wal_storage)
        for index, command in enumerate(command_list):
            group = f"kv{index % 2:02d}"
            if index < cut:
                durable.apply(group, command)
            else:
                wal.append(WalRecord(group=group, command=command))
        if cut:
            medium.write_snapshot(encode_snapshot(durable))
        if torn:
            medium.wal_storage.append(torn)

        try:
            recovered, replayed = recover_store(medium)
        except Exception:
            # Junk can only fail mid-log if it framed a decodable-but-
            # bad record; recover_store must never fail without it.
            assert torn
            return
        if not torn:
            assert replayed == len(command_list) - cut
            assert recovered.digest() == full.digest()
        else:
            # With junk appended the replay may stop at the tail, but
            # never before the genuine suffix ends.
            assert replayed >= len(command_list) - cut


class TestStoreDeterminism:
    @given(command_list=st.lists(commands, max_size=15))
    def test_same_sequence_same_digest(self, command_list):
        a, b = KvStore(), KvStore()
        for command in command_list:
            ra = a.apply("g", command)
            rb = b.apply("g", command)
            assert ra == rb
        assert a.digest() == b.digest()

    @given(command_list=st.lists(commands, max_size=15))
    def test_interleaving_across_groups_is_immaterial(self, command_list):
        """Per-group sequences determine per-group state regardless of
        how the groups' applies interleave (the multi-ring guarantee)."""
        a, b = KvStore(), KvStore()
        for index, command in enumerate(command_list):
            a.apply(f"g{index % 2}", command)
        for index, command in enumerate(command_list):
            if index % 2 == 0:
                b.apply("g0", command)
        for index, command in enumerate(command_list):
            if index % 2 == 1:
                b.apply("g1", command)
        assert a.digest() == b.digest()
