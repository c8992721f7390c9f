"""Client-observed operation histories.

A :class:`History` records what *clients* saw: each operation's
invocation time (the moment the command was handed to the ordering
layer) and, if it ever arrived, its response time and result (the
moment the client's home replica applied the command).  This is the
input contract of the linearizability checker — real-time intervals
around each operation, nothing about internal protocol state.

Operations that never received a response stay **incomplete**.  The
checker treats them the standard way: an incomplete operation may have
taken effect at any point after its invocation, or never at all (e.g.
a command submitted in a minority component and dropped, or one whose
home replica died first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.kv.commands import KvResult, Op


@dataclass
class Operation:
    """One client operation and what the client observed of it."""

    op_id: int
    client_id: int
    request_id: int
    group: str
    ops: Tuple[Op, ...]
    invoke: float
    response: Optional[float] = None
    result: Optional[KvResult] = None

    @property
    def complete(self) -> bool:
        return self.response is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op_id": self.op_id,
            "client_id": self.client_id,
            "request_id": self.request_id,
            "group": self.group,
            "ops": [
                {
                    "kind": op.kind_name,
                    "key": op.key,
                    "value": None if op.value is None else op.value.hex(),
                    "expected": None if op.expected is None else op.expected.hex(),
                }
                for op in self.ops
            ],
            "invoke": round(self.invoke, 9),
            "response": None if self.response is None else round(self.response, 9),
            "ok": None if self.result is None else self.result.ok,
        }


class History:
    """An append-only record of invocations and responses."""

    def __init__(self) -> None:
        self.operations: List[Operation] = []
        self._open: Dict[Tuple[int, int], Operation] = {}

    def invoke(
        self,
        client_id: int,
        request_id: int,
        group: str,
        ops: Tuple[Op, ...],
        when: float,
    ) -> Operation:
        operation = Operation(
            op_id=len(self.operations),
            client_id=client_id,
            request_id=request_id,
            group=group,
            ops=ops,
            invoke=when,
        )
        self.operations.append(operation)
        self._open[(client_id, request_id)] = operation
        return operation

    def respond(
        self, client_id: int, request_id: int, result: KvResult, when: float
    ) -> None:
        """Attach a response; double responses are ignored.

        A duplicate can only come from a replayed command at a
        recovered home replica — the first response the client saw is
        the one the history keeps.
        """
        operation = self._open.pop((client_id, request_id), None)
        if operation is None:
            return
        operation.response = when
        operation.result = result

    # ------------------------------------------------------------------

    def by_group(self) -> Dict[str, List[Operation]]:
        grouped: Dict[str, List[Operation]] = {}
        for operation in self.operations:
            grouped.setdefault(operation.group, []).append(operation)
        return grouped

    @property
    def completed(self) -> int:
        return sum(1 for op in self.operations if op.complete)

    @property
    def incomplete(self) -> int:
        return len(self.operations) - self.completed

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [operation.to_dict() for operation in self.operations]

    def __len__(self) -> int:
        return len(self.operations)
