"""Checker self-tests: known-linearizable and known-violating histories.

The checker is itself a verification tool, so it gets adversarial
tests in both directions: histories that *are* linearizable despite
looking suspicious (overlapping intervals, incomplete operations that
must be linearized to explain a later read), and histories that are
*not* despite every individual read returning a once-written value
(stale reads, lost updates, CAS double-wins).
"""

from repro.apps.kv.checker import check_history
from repro.apps.kv.commands import KvResult, cas, get, put
from repro.apps.kv.history import History


def invoke(history, client, reqid, ops, at, group="g"):
    return history.invoke(client, reqid, group, tuple(ops), at)


def respond(history, client, reqid, at, ok=True, values=(), applied=()):
    history.respond(client, reqid,
                    KvResult(ok=ok, values=tuple(values),
                             applied=tuple(applied)), at)


class TestLinearizable:
    def test_empty_history(self):
        result = check_history(History())
        assert result.ok and result.decided

    def test_sequential_put_get(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"x")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"x"], applied=[True])
        invoke(h, 0, 2, [get("a")], 2.0)
        respond(h, 0, 2, 3.0, values=[b"x"], applied=[False])
        assert check_history(h).ok

    def test_concurrent_writes_any_order(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"x")], 0.0)
        invoke(h, 1, 1, [put("a", b"y")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"x"], applied=[True])
        respond(h, 1, 1, 1.0, values=[b"y"], applied=[True])
        # A read overlapping neither write may see either winner.
        invoke(h, 2, 1, [get("a")], 2.0)
        respond(h, 2, 1, 3.0, values=[b"y"], applied=[False])
        assert check_history(h).ok

    def test_incomplete_write_explains_later_read(self):
        # The write never responded, but a later read sees its value:
        # legal iff the checker linearizes the incomplete op.
        h = History()
        invoke(h, 0, 1, [put("a", b"ghost")], 0.0)  # never responds
        invoke(h, 1, 1, [get("a")], 5.0)
        respond(h, 1, 1, 6.0, values=[b"ghost"], applied=[False])
        assert check_history(h).ok

    def test_incomplete_write_may_also_vanish(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"ghost")], 0.0)  # never responds
        invoke(h, 1, 1, [get("a")], 5.0)
        respond(h, 1, 1, 6.0, values=[None], applied=[False])
        assert check_history(h).ok

    def test_partitions_checked_independently(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"x")], 0.0, group="g1")
        respond(h, 0, 1, 1.0, values=[b"x"], applied=[True])
        invoke(h, 0, 2, [get("a")], 2.0, group="g2")
        respond(h, 0, 2, 3.0, values=[None], applied=[False])  # other shard
        result = check_history(h)
        assert result.ok
        assert set(result.partitions) == {"g1", "g2"}


class TestViolations:
    def test_stale_read(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"new")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"new"], applied=[True])
        # Strictly after the write completed, a read sees the old value.
        invoke(h, 1, 1, [get("a")], 2.0)
        respond(h, 1, 1, 3.0, values=[None], applied=[False])
        result = check_history(h)
        assert not result.ok and result.decided

    def test_lost_update(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"x")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"x"], applied=[True])
        invoke(h, 1, 1, [put("a", b"y")], 2.0)
        respond(h, 1, 1, 3.0, values=[b"y"], applied=[True])
        # After both, two reads disagree with the only legal order.
        invoke(h, 2, 1, [get("a")], 4.0)
        respond(h, 2, 1, 5.0, values=[b"x"], applied=[False])
        result = check_history(h)
        assert not result.ok and result.decided

    def test_cas_double_win(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"base")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"base"], applied=[True])
        # Two CAS from the same expected value cannot both succeed.
        invoke(h, 1, 1, [cas("a", b"base", b"one")], 2.0)
        invoke(h, 2, 1, [cas("a", b"base", b"two")], 2.0)
        respond(h, 1, 1, 3.0, values=[b"one"], applied=[True])
        respond(h, 2, 1, 3.0, values=[b"two"], applied=[True])
        result = check_history(h)
        assert not result.ok and result.decided

    def test_read_from_the_future(self):
        h = History()
        invoke(h, 0, 1, [get("a")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"later"], applied=[False])
        invoke(h, 1, 1, [put("a", b"later")], 2.0)  # invoked after the read returned
        respond(h, 1, 1, 3.0, values=[b"later"], applied=[True])
        result = check_history(h)
        assert not result.ok and result.decided


class TestBudgetAndPrunes:
    def build_many_incomplete_writes(self, count):
        h = History()
        for client in range(count):
            invoke(h, client, 1, [put(f"k{client}", b"v")], 0.0)
        invoke(h, count, 1, [get("k0")], 1.0)
        respond(h, count, 1, 2.0, values=[None], applied=[False])
        return h

    def test_tiny_budget_yields_undecided(self):
        h = self.build_many_incomplete_writes(12)
        result = check_history(h, budget=3)
        assert not result.ok
        assert not result.decided
        assert result.partitions["g"] == "undecided"

    def test_watermark_prune_decides_mass_incomplete(self):
        h = self.build_many_incomplete_writes(12)
        # Oracle: no incomplete write was ever applied.
        watermarks = {}
        result = check_history(h, budget=200, watermarks=watermarks)
        assert result.ok and result.decided

    def test_watermark_keeps_applied_incomplete_writes(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"ghost")], 0.0)  # incomplete, but applied
        invoke(h, 1, 1, [get("a")], 1.0)
        respond(h, 1, 1, 2.0, values=[b"ghost"], applied=[False])
        # Watermark says client 0 reached request 1: the write stays in.
        result = check_history(h, watermarks={("g", 0): 1})
        assert result.ok and result.decided
        # And with the watermark saying it was never applied, the op is
        # omitted — the read of b"ghost" then has no writer: violation.
        result = check_history(h, watermarks={("g", 0): 0})
        assert not result.ok and result.decided

    def test_incomplete_pure_gets_always_dropped(self):
        h = History()
        for client in range(20):
            invoke(h, client, 1, [get("k")], 0.0)  # never respond
        invoke(h, 99, 1, [put("k", b"v")], 1.0)
        respond(h, 99, 1, 2.0, values=[b"v"], applied=[True])
        result = check_history(h, budget=100)
        assert result.ok and result.decided
        assert result.checked_ops == 1  # only the completed put survives

    def test_checked_ops_accumulates_across_partitions(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"x")], 0.0, group="g1")
        respond(h, 0, 1, 1.0, values=[b"x"], applied=[True])
        invoke(h, 0, 2, [put("b", b"y")], 2.0, group="g2")
        respond(h, 0, 2, 3.0, values=[b"y"], applied=[True])
        assert check_history(h).checked_ops == 2


class TestTransactions:
    def test_atomic_txn_visible_as_unit(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"1"), put("b", b"2")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"1", b"2"], applied=[True, True])
        invoke(h, 1, 1, [get("a"), get("b")], 2.0)
        respond(h, 1, 1, 3.0, values=[b"1", b"2"], applied=[False, False])
        assert check_history(h).ok

    def test_torn_txn_read_is_violation(self):
        h = History()
        invoke(h, 0, 1, [put("a", b"1"), put("b", b"2")], 0.0)
        respond(h, 0, 1, 1.0, values=[b"1", b"2"], applied=[True, True])
        # Sees a's write but not b's: impossible under atomicity.
        invoke(h, 1, 1, [get("a"), get("b")], 2.0)
        respond(h, 1, 1, 3.0, values=[b"1", None], applied=[False, False])
        result = check_history(h)
        assert not result.ok and result.decided

    def test_failed_cas_txn_leaves_no_trace(self):
        h = History()
        invoke(h, 0, 1, [put("x", b"next"), cas("gate", b"open", b"done")], 0.0)
        respond(h, 0, 1, 1.0, ok=False, values=[b"next", None],
                applied=[True, False])
        invoke(h, 1, 1, [get("x")], 2.0)
        respond(h, 1, 1, 3.0, values=[None], applied=[False])
        assert check_history(h).ok
