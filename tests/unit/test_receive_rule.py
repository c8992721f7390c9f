"""The §III-D receive rule, one table run against all three places that
write it.

Which input a process takes next — a token or a data datagram — is
decided by ``ProtocolHost._select_work`` (the bare simulated ring),
``MembershipHost._select_work`` (the simulated membership stack) and
``RingNode._pass`` (the real runtime).  The rule is the same everywhere:
a token is taken ahead of queued data only once the engine has raised
its priority, data first otherwise; with no ring formed (membership
traffic only) the token port goes first; a simulated host absorbs
fragments that complete no datagram and takes the token behind them.
Each row of :data:`RULE` is a queue state and the order in which its
inputs reach the process; each substrate runs every row that can occur
on it.
"""

from types import SimpleNamespace

import pytest

from repro.core.participant import AcceleratedRingParticipant
from repro.net.packet import Frame, PortKind
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.sim.build import ClusterBuilder
from tests.conftest import make_ring

#: ``state -> (ring formed, token priority raised, queued, taken)``:
#: ``queued`` is what waits on the two ports, data before token where
#: both do; ``taken`` the inputs the process gets, in order.
RULE = {
    "token-only": (True, False, ["token"], ["token"]),
    "data-only": (True, False, ["data"], ["data"]),
    "both-priority-low": (True, False, ["data", "token"], ["data", "token"]),
    "both-priority-raised": (True, True, ["data", "token"], ["token", "data"]),
    "no-ring-formed": (False, False, ["data", "token"], ["token", "data"]),
    "fragments-ahead-of-token": (True, False, ["fragment", "fragment", "token"], ["token"]),
}


class _SimHostPorts:
    """A simulated host's token and data sockets, emptied, and its idle
    hook: the CPU asks it for the next task whenever its queue drains."""

    def __init__(self, driver):
        self.driver = driver
        self.sockets = (driver.host.token_socket, driver.host.data_socket)
        for socket in self.sockets:
            socket.clear()
        self._fragments = 0

    def queue(self, kind):
        if kind == "token":
            frame = Frame(1, 0, PortKind.TOKEN, 64, SimpleNamespace(label="token"))
            self.driver.host.token_socket.push(frame)
            return
        # The first fragments of a three-fragment datagram complete nothing.
        fragment = None
        if kind == "fragment":
            fragment = (99, self._fragments, 3)
            self._fragments += 1
        datagram = SimpleNamespace(label="data", payload_size=100)
        self.driver.host.data_socket.push(
            Frame(1, None, PortKind.DATA, 100, datagram, fragment=fragment)
        )

    def take_all(self):
        taken = []
        while (task := self.driver._select_work()) is not None:
            _cost, _fn, args = task
            if args:  # a non-final fragment is a task with no input
                taken.append(args[0].label)
        assert all(len(socket) == 0 and socket.queued_bytes == 0 for socket in self.sockets)
        return taken


def _bare_sim(formed, raised):
    driver = ClusterBuilder().hosts(3).build().driver(0)
    driver.participant.token_has_priority = raised
    return _SimHostPorts(driver)


def _membership_sim(formed, raised):
    cluster = ClusterBuilder().hosts(3).membership().build()
    if formed:
        cluster.start()
        cluster.run(0.08)
        cluster.hosts[0].controller.ordering.token_has_priority = raised
    member = cluster.hosts[0]
    assert (member.controller.ordering is not None) == formed
    return _SimHostPorts(member)


class _RuntimePorts:
    """A runtime node's two input queues and one pass over them."""

    def __init__(self, formed, raised):
        node = RingNode(0, ephemeral_ring_addresses(range(3)))
        if formed:
            ordering = make_ring(AcceleratedRingParticipant)[0]
            ordering.token_has_priority = raised
            node.controller.ordering = ordering
        assert (node.controller.ordering is not None) == formed
        self.node = node
        self.taken = []
        node._handle_token = node._handle_data = self.taken.append

    def queue(self, kind):
        queue = self.node._token_queue if kind == "token" else self.node._data_queue
        queue.append(kind)

    def take_all(self):
        self.node._pass()
        assert not self.node._data_queue and not self.node._token_queue
        return self.taken


#: ``substrate -> (build(formed, raised), the states it never meets)``:
#: the bare ring is configured, never formed; the runtime's kernel
#: reassembles a datagram before the node sees it.
SUBSTRATES = {
    "bare-sim": (_bare_sim, {"no-ring-formed"}),
    "membership-sim": (_membership_sim, set()),
    "runtime": (_RuntimePorts, {"fragments-ahead-of-token"}),
}


@pytest.mark.parametrize(
    "substrate,state",
    [
        (substrate, state)
        for substrate, (_build, never) in SUBSTRATES.items()
        for state in RULE
        if state not in never
    ],
)
def test_the_receive_rule(substrate, state):
    formed, raised, queued, taken = RULE[state]
    build, _never = SUBSTRATES[substrate]
    ports = build(formed, raised)
    for kind in queued:
        ports.queue(kind)
    assert ports.take_all() == taken
