"""Unit tests for the KV state machine (store + commands)."""

import pytest

from repro.apps.kv.commands import (
    CommandError,
    KvCommand,
    Op,
    cas,
    decode_command,
    delete,
    encode_command,
    get,
    put,
)
from repro.apps.kv.store import KvStore


def cmd(client, reqid, *ops):
    return KvCommand(client_id=client, request_id=reqid, ops=tuple(ops))


class TestBasicOps:
    def test_put_then_get(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"x")))
        result = store.apply("g", cmd(0, 2, get("a")))
        assert result.ok
        assert result.values == (b"x",)
        assert result.applied == (False,)

    def test_get_absent_key(self):
        store = KvStore()
        result = store.apply("g", cmd(0, 1, get("nope")))
        assert result.ok
        assert result.values == (None,)

    def test_delete_existing_and_absent(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"x")))
        hit = store.apply("g", cmd(0, 2, delete("a")))
        assert hit.applied == (True,)
        assert hit.values == (b"x",)
        miss = store.apply("g", cmd(0, 3, delete("a")))
        assert miss.ok  # deleting an absent key succeeds, applies nothing
        assert miss.applied == (False,)
        assert store.value("g", "a") is None

    def test_cas_success_and_failure(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"old")))
        won = store.apply("g", cmd(0, 2, cas("a", b"old", b"new")))
        assert won.ok and won.applied == (True,)
        lost = store.apply("g", cmd(0, 3, cas("a", b"old", b"newer")))
        assert not lost.ok
        assert lost.values == (b"new",)  # the value the CAS observed
        assert store.value("g", "a") == b"new"

    def test_cas_none_means_compare_and_create(self):
        store = KvStore()
        created = store.apply("g", cmd(0, 1, cas("a", None, b"v")))
        assert created.ok
        again = store.apply("g", cmd(0, 2, cas("a", None, b"w")))
        assert not again.ok
        assert store.value("g", "a") == b"v"


class TestTransactionAtomicity:
    def test_failed_cas_rolls_back_all_writes(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"1"), put("b", b"2")))
        before = store.digest()
        result = store.apply(
            "g",
            cmd(0, 2, put("a", b"9"), delete("b"), put("c", b"3"),
                cas("a", b"wrong", b"never")),
        )
        assert not result.ok
        # Watermarks advance (the command was consumed), state does not.
        after_data = {k: v for k, v in store.data["g"].items()}
        assert after_data == {"a": b"1", "b": b"2"}
        assert store.digest() != before  # watermark moved
        assert "c" not in store.data["g"]

    def test_rollback_restores_deleted_then_recreated_key(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"orig")))
        result = store.apply(
            "g", cmd(0, 2, delete("a"), put("a", b"temp"),
                     cas("missing", b"x", b"y")),
        )
        assert not result.ok
        assert store.value("g", "a") == b"orig"

    def test_cas_sees_earlier_ops_in_same_txn(self):
        store = KvStore()
        result = store.apply(
            "g", cmd(0, 1, put("a", b"seed"), cas("a", b"seed", b"grown"))
        )
        assert result.ok
        assert store.value("g", "a") == b"grown"

    def test_txn_all_writes_land_on_success(self):
        store = KvStore()
        result = store.apply(
            "g", cmd(0, 1, put("x", b"1"), put("y", b"2"), delete("z"))
        )
        assert result.ok
        assert store.data["g"] == {"x": b"1", "y": b"2"}


class TestIdempotence:
    def test_duplicate_request_skipped(self):
        store = KvStore()
        first = store.apply("g", cmd(3, 7, put("a", b"x")))
        assert first is not None
        dup = store.apply("g", cmd(3, 7, put("a", b"CLOBBER")))
        assert dup is None
        assert store.value("g", "a") == b"x"

    def test_stale_request_below_watermark_skipped(self):
        store = KvStore()
        store.apply("g", cmd(3, 9, put("a", b"x")))
        assert store.apply("g", cmd(3, 5, put("a", b"old"))) is None

    def test_watermarks_scoped_per_group_and_client(self):
        store = KvStore()
        store.apply("g1", cmd(0, 5, put("a", b"x")))
        assert store.apply("g2", cmd(0, 5, put("a", b"y"))) is not None
        assert store.apply("g1", cmd(1, 5, put("b", b"z"))) is not None


class TestDigestAndCopy:
    def test_same_commands_same_digest(self):
        a, b = KvStore(), KvStore()
        for store in (a, b):
            store.apply("g1", cmd(0, 1, put("k", b"v")))
            store.apply("g2", cmd(1, 1, delete("k")))
        assert a.digest() == b.digest()

    def test_different_values_different_digest(self):
        a, b = KvStore(), KvStore()
        a.apply("g", cmd(0, 1, put("k", b"v1")))
        b.apply("g", cmd(0, 1, put("k", b"v2")))
        assert a.digest() != b.digest()

    def test_digest_over_group_subset(self):
        a, b = KvStore(), KvStore()
        a.apply("shared", cmd(0, 1, put("k", b"v")))
        b.apply("shared", cmd(0, 1, put("k", b"v")))
        b.apply("extra", cmd(0, 1, put("j", b"w")))
        assert a.digest(["shared"]) == b.digest(["shared"])
        assert a.digest() != b.digest()

    def test_copy_is_independent(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"x")))
        clone = store.copy()
        store.apply("g", cmd(0, 2, put("a", b"mutated")))
        assert clone.value("g", "a") == b"x"
        assert clone.digest() != store.digest()

    def test_total_applied_counts_commands_not_ops(self):
        store = KvStore()
        store.apply("g", cmd(0, 1, put("a", b"1"), put("b", b"2")))
        store.apply("h", cmd(0, 1, put("c", b"3")))
        store.apply("g", cmd(0, 1, put("a", b"dup")))  # duplicate
        assert store.total_applied() == 2


class TestCommandValidation:
    def test_zero_ops_rejected(self):
        with pytest.raises(CommandError):
            KvCommand(client_id=0, request_id=1, ops=())

    def test_get_with_value_rejected(self):
        with pytest.raises(CommandError):
            Op(kind=1, key="a", value=b"x")

    def test_put_without_value_rejected(self):
        with pytest.raises(CommandError):
            Op(kind=2, key="a")

    def test_codec_round_trip_all_kinds(self):
        command = cmd(
            7, 42,
            get("k1"), put("k2", b"v"), delete("k3"),
            cas("k4", None, b"new"), cas("k5", b"exp", b"new"),
        )
        assert decode_command(encode_command(command)) == command

    def test_trailing_bytes_rejected(self):
        data = encode_command(cmd(0, 1, get("k"))) + b"\x00"
        with pytest.raises(CommandError):
            decode_command(data)

    @pytest.mark.parametrize("present", [2, 0x80, 0xFF])
    def test_cas_presence_byte_other_than_0_or_1_rejected(self, present):
        data = bytearray(encode_command(cmd(0, 1, cas("k", b"e", b"v"))))
        flag_at = 14 + 1 + 2 + 1  # header, kind, key length, key
        assert data[flag_at] == 1
        data[flag_at] = present
        with pytest.raises(CommandError, match="presence byte"):
            decode_command(bytes(data))

    def test_key_that_is_not_utf8_rejected(self):
        data = bytearray(encode_command(cmd(0, 1, get("k"))))
        data[-1] = 0xFF
        with pytest.raises(CommandError, match="UTF-8"):
            decode_command(bytes(data))

    def test_is_transaction(self):
        assert not cmd(0, 1, get("k")).is_transaction
        assert cmd(0, 1, get("k"), get("j")).is_transaction
