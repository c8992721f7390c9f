"""Tripwire: effects have one interpreter, deliveries one shape,
clusters one assembly path, seeded behaviour one pin (the goldens),
checked runs one drive-and-converge loop, the membership controller one transition table,
the runtime one daemon, one client and one client protocol, the
daemon one container path, the
committed results one producer, the network one link and one topology,
fault-schedule searches one explorer, the simulator one transmit
instrument, the differential's spread variant the daemon's layout,
latency samples one unboxed store, the CLI one package of eight commands,
each protocol event one observer hook, a datagram fragment one frame,
the differential oracles one entry point and one report, the
simulator's timer heap one owner, faults one injector.

Scans the package source so that a re-grown effect ladder, a second
delivery effect or a per-message delivery hook, a second run-grouping
accumulator, a new deprecation shim, a bench baseline or a comparator
against one, a bench environment knob, a private convergence poll or a second way to
arm a fault plan, a dispatch ladder or hand-placed timer cancel in
the membership controller, a second daemon or client protocol, a
second figure harness, a second serializing queue, a pooled or
rewritten frame, a probe telling two topologies apart, a second
exploration loop, the daemon forwarding a packed container, a second
transmit callback, the spread mirror ordering the reference codec's
layout, a per-sender latency store kept beside the pooled samples, a parser outside ``repro.cli``, a
second observer hook for one event, a second differential report or
entry point, a network model pushing onto the simulator's timer heap,
a fault scheduled by hand beside the injector, or an unused import again fails
tier-1 instead of drifting in unnoticed (the shape of the port and
unseeded-random tripwires in ``conftest.py``, applied to the source
tree)."""

import argparse
import ast
import builtins
import dataclasses
import functools
import re
from array import array
from pathlib import Path
from typing import Dict, List

import repro
from repro.core.events import Deliver, Effect
from repro.sim.cluster import ClusterStats
from repro.util.stats import LatencyStats, RunStats

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
#: The only module allowed to dispatch on effect types or to construct
#: the coalescing accumulator.
EXECUTOR = SRC / "core" / "executor.py"
#: The effect classes' own ``__eq__`` methods compare classes.
EXEMPT = {EXECUTOR, SRC / "core" / "events.py"}
_EFFECTS = (
    "Deliver|MulticastData|SendToken|Stable|SendControl|SetTimer|"
    "CancelTimer|DeliverConfiguration"
)
FORBIDDEN = {
    "dispatches on effect types": re.compile(
        r"isinstance\(\s*effect\s*,"
        rf"|\b(kind|type\(\w+\)|\w+\.__class__) (is|is not|==|!=) ({_EFFECTS})\b"
        rf"|isinstance\([^()]*,\s*\(?\s*({_EFFECTS})\b"
    ),
    "constructs a CoalescingAccumulator": re.compile(r"\bCoalescingAccumulator\("),
    "keeps a deprecation shim": re.compile(r"DeprecationWarning|_from_builder"),
    "reads a bench environment knob": re.compile(r"REPRO_BENCH_"),
}
#: A report-vs-baseline comparator: what ``repro bench`` gated with
#: (``conformance/`` compares delivery orders, a different job).
BASELINE_GATE = re.compile(r"^\s*def (compare_\w*|baseline_path)\(", re.MULTILINE)
#: Modules that were deleted: a re-export shim (its importers name the
#: real home), the second daemon and client (``spread/`` has the one),
#: the pytest-benchmark glue and the results-text re-parser
#: (``bench/figures.py`` produces and checks every result), the star
#: network (``net/link.py`` and ``net/fabric.py`` are the one model), and
#: ``repro bench``'s harness and suites (``tests/golden/`` pins their
#: seeded windows, ``benchmarks/e2e`` measures).
DELETED_SHIMS = (
    "net/ring.py",
    "runtime/daemon.py",
    "runtime/client.py",
    "bench/runner.py",
    "bench/acceptance.py",
    "net/nic.py",
    "net/switch.py",
    "net/topology.py",
    "bench/harness.py",
    "runtime/bench.py",
    "apps/kv/bench.py",
)


def _violations():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path in EXEMPT:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for what, pattern in FORBIDDEN.items():
                if pattern.search(line):
                    found.append(f"{path.relative_to(SRC)}:{number} {what}: {line.strip()}")
    return found


def test_one_behaviour_pin():
    # Seeded behaviour is pinned by tests/golden/ alone: no committed
    # bench baselines, no `bench` subcommand, no comparator against one.
    from repro.cli import build_parser

    assert not (REPO / "benchmarks" / "baselines").exists()
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert "bench" not in commands
    definitions = [
        f"{name}: {match.group(1)}"
        for name, text in _sources().items()
        if not name.startswith("conformance/")
        for match in BASELINE_GATE.finditer(text)
    ]
    assert definitions == []
    # ...and the patterns bite on what this replaced.
    assert BASELINE_GATE.search("def compare_reports(current: Report, baseline: Report):")
    assert BASELINE_GATE.search("def baseline_path(suite: str, root=None) -> Path:")
    knob = FORBIDDEN["reads a bench environment knob"]
    assert knob.search('os.environ.get("REPRO_BENCH_WALL_TOL", "0.5")')
    assert knob.search('os.environ.get("REPRO_BENCH_FAST", "0")')


#: A pytest-benchmark round: the shape of the retired figure harness.
PEDANTIC = re.compile(r"\bbenchmark\.pedantic\(")


def test_one_figure_producer():
    assert sorted(REPO.glob("benchmarks/bench_*.py")) == []
    found = [
        str(path.relative_to(REPO))
        for path in sorted(REPO.rglob("*.py"))
        if path != Path(__file__)
        and not any(part.startswith(".") for part in path.relative_to(REPO).parts)
        and PEDANTIC.search(path.read_text())
    ]
    assert found == []
    # ...and the pattern bites on what this replaced.
    assert PEDANTIC.search("    title, series = benchmark.pedantic(figure_fn, rounds=1)")


def test_only_the_executor_interprets_effects():
    assert _violations() == []
    assert not set(DELETED_SHIMS) & set(_sources())


def test_the_tripwire_patterns_bite():
    dispatch = FORBIDDEN["dispatches on effect types"]
    for line in (
        "if isinstance(effect, MulticastData):",
        "elif kind is Deliver:",
        "if type(effect) is SendToken:",
        "if effect.__class__ is not MulticastData:",
        "if isinstance(item, (Deliver, DeliverConfiguration)):",
        "seqs = [e for e in core if isinstance(e, Deliver)]",
    ):
        assert dispatch.search(line), line
    assert not dispatch.search("if isinstance(message, DataMessage):")
    assert not dispatch.search("if isinstance(e, MessageDelivery)")
    assert not dispatch.search("if payload.__class__ is CoalescedDatagram:")
    # The executor itself is exempt, and does dispatch.
    assert dispatch.search(EXECUTOR.read_text())


# ----------------------------------------------------------------------
# One delivery shape: a run, from _deliver_ready to the application
# ----------------------------------------------------------------------

#: A per-message delivery hook on an observer or tap.  (The group-decoded
#: listener interface, ``on_deliver(self, pid, group, payload, ...)``, and
#: ``RingNode.on_deliver(messages, config_id)`` are other things.)
SCALAR_HOOK = re.compile(r"def on_deliver\(\s*self,\s*pid(:\s*\w+)?,\s*message\b")


def _effect_classes(cls=Effect):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _effect_classes(subclass)


def test_a_delivery_is_one_effect_and_one_hook():
    # Deliver's slot is the only thing that shadows Effect.messages, and
    # events.py names nothing else a delivery of messages.
    assert [c for c in _effect_classes() if "messages" in vars(c)] == [Deliver]
    assert re.findall(r"^class (Deliver\w*)\(", _sources()["core/events.py"], re.M) == [
        "Deliver",
        "DeliverConfiguration",
    ]
    scalar = {name for name, text in _sources().items() if SCALAR_HOOK.search(text)}
    assert scalar == set()
    # The executor hands a run to its backend from one site.
    assert _occurrences(r"\bdeliver\(effect\.") == {"core/executor.py": 1}
    # Only the runtime node has a delivery callback attribute to set.
    assert set(_occurrences(r"self\.on_deliver(_batch)?\b")) == {"runtime/node.py"}
    # ...and the patterns bite on what this replaced.
    assert SCALAR_HOOK.search("def on_deliver(self, pid, message, now=None):")
    assert SCALAR_HOOK.search("def on_deliver(\n        self, pid: int, message: DataMessage")
    assert SCALAR_HOOK.search("def on_deliver(self, pid, message, config_id, origin_ring)")
    assert not SCALAR_HOOK.search("def on_deliver(self, pid, group, payload, config_id")
    assert not SCALAR_HOOK.search("def on_deliver_batch(self, pid, messages, now=None):")


# ----------------------------------------------------------------------
# One drive-and-converge loop (repro.faults.drive)
# ----------------------------------------------------------------------

#: pattern → {file: occurrences} it may have, package-wide.  ``None``
#: allows any number in that file.
ONE_HOME = {
    # The EVS verdict is EvsChecker.violation(); nobody else catches.
    r"except EvsViolation": {"evs/checker.py": 1},
    # cluster.accepting(pid) is the one reader of a host's stall flag.
    r"\._paused\b": {"sim/membership_driver.py": None},
    # Healing is the clusters' own heal/quiesce plus the injector's Heal.
    r"\.heal\(\)": {
        "sim/membership_driver.py": 2,
        "sim/cluster.py": 1,
        "faults/injector.py": 1,
    },
    # differ.health_divergences builds every oracle's evs/converge entries.
    r'kind="converge"': {"conformance/differ.py": 1},
    # JsonReport is the reports' text form; FaultPlan is a plan, not a report.
    r"def to_json\(self": {"util/jsonreport.py": 1, "faults/plan.py": 1},
    # One artifact writer under every --out.
    r"os\.makedirs\(": {"cli/checks.py": 1, "bench/report.py": None},
    # The sim↔real oracle interprets its schedule in one place.
    r"in build_schedule\(": {"conformance/realtime.py": 1},
    # FaultInjector(cluster, plan, ...).arm() is the one way to arm a plan.
    r"run_plan|build_with_injector|fault_plan": {},
}


@functools.lru_cache(maxsize=None)
def _sources():
    """relative path → text of every module in the package, read once."""
    return {
        str(path.relative_to(SRC)): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def _occurrences(pattern):
    regex = re.compile(pattern)
    counts = {name: len(regex.findall(text)) for name, text in _sources().items()}
    return {name: found for name, found in counts.items() if found}


def test_each_drive_step_has_one_home():
    for pattern, allowed in ONE_HOME.items():
        counts = _occurrences(pattern)
        assert set(counts) <= set(allowed), (pattern, counts)
        for name, limit in allowed.items():
            if limit is not None:
                assert counts.get(name, 0) == limit, (pattern, name, counts)
    # _emit prints every report; what is left are two non-report
    # documents (kv run, fleet run) and one progress switch.
    json_switches = _occurrences(r"if args\.json")
    assert sum(json_switches[name] for name in json_switches if name.startswith("cli/")) <= 4


def _loops_that_run_a_cluster(tree):
    """``for ... in range(...)`` / ``while`` loops that advance a
    cluster with ``.run(...)`` — the shape of a private poll loop."""
    found = []
    for node in ast.walk(tree):
        polling = isinstance(node, ast.While) or (
            isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", None) == "range"
        )
        if not polling:
            continue
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "run"
                and getattr(call.func.value, "id", None) != "asyncio"
            ):
                found.append(node.lineno)
    return found


def test_the_only_polling_loop_is_drive_poll():
    loops = {
        name: lines
        for name, text in _sources().items()
        if (lines := _loops_that_run_a_cluster(ast.parse(text)))
    }
    assert list(loops) == ["faults/drive.py"] and len(loops["faults/drive.py"]) == 1
    # ...and the pattern bites on the loops this replaced.
    old = "for _ in range(_MAX_POLLS):\n    cluster.run(_POLL_SLICE)\n    if ok(): break"
    assert _loops_that_run_a_cluster(ast.parse(old)) == [1]
    assert _loops_that_run_a_cluster(ast.parse("for case in cases:\n    case.run(seed)")) == []


# ----------------------------------------------------------------------
# One transition table (membership/controller.py, docs/PROTOCOL.md §6)
# ----------------------------------------------------------------------

#: A per-type or per-name dispatch ladder: what the table replaced.
CONTROLLER_LADDER = re.compile(r"isinstance\(\s*message\s*,|\bname\s*==\s*TIMER_\w+")


def _cancel_sites(source):
    """function name → number of ``CancelTimer(...)`` calls in its body."""
    sites = {}
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = sum(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CancelTimer"
                for node in ast.walk(function)
            )
            if calls:
                sites[function.name] = calls
    return sites


def test_the_controller_dispatches_and_cancels_through_its_table():
    controller = _sources()["membership/controller.py"]
    assert not CONTROLLER_LADDER.search(controller)
    # _enter cancels what an edge cancels; the one in-state cancel is
    # `settle` when the view changes under a settle window.
    assert _cancel_sites(controller) == {"_enter": 1, "_join": 1}
    # ...and the patterns bite on what this replaced.
    assert CONTROLLER_LADDER.search("        elif isinstance(message, JoinMessage):")
    assert CONTROLLER_LADDER.search("        elif name == TIMER_COMMIT:")
    old = (
        "def _enter_recover(self, token, effects):\n"
        "    effects.append(CancelTimer(TIMER_COMMIT))\n"
        "    effects.append(CancelTimer(TIMER_JOIN))\n"
    )
    assert _cancel_sites(old) == {"_enter_recover": 2}


# ----------------------------------------------------------------------
# Client frames are decoded where a read lands (runtime/ipc.py)
# ----------------------------------------------------------------------

#: Both ends of the daemon–client boundary.
CLIENT_BOUNDARY = ("spread/daemon.py", "spread/client_api.py")
#: Reading client frames through a stream reader and a task: what
#: ``ipc.FrameProtocol`` replaced on both ends.
STREAM_READ = re.compile(
    r"\bStreamReader\b|\bFrameReader\b|\.fill\(\)"
    r"|\b(open_unix_connection|open_connection|start_unix_server|start_server)\("
)


def test_client_frames_are_decoded_in_data_received_on_both_ends():
    sources = _sources()
    found = [
        f"{name}: {line.strip()}"
        for name in CLIENT_BOUNDARY
        for line in sources[name].splitlines()
        if STREAM_READ.search(line)
    ]
    assert found == []
    # The servers and the clients' endpoints build the one protocol.
    assert "ipc.FrameProtocol" in sources["spread/daemon.py"]
    assert len(re.findall(r"\(\s*FrameProtocol\b", sources["runtime/ipc.py"])) == 2
    # ...and the pattern bites on what this replaced.
    for line in (
        "        frames = ipc.FrameReader(reader)",
        "                        await frames.fill()",
        "        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter",
        "        self._server = await asyncio.start_unix_server(",
        "            self._tcp_server = await asyncio.start_server(",
        "        return await asyncio.open_unix_connection(self.path)",
    ):
        assert STREAM_READ.search(line), line
    assert not STREAM_READ.search("        await frames.wait()")


# ----------------------------------------------------------------------
# One daemon, one client, one client protocol (spread/, runtime/ipc.py)
# ----------------------------------------------------------------------

#: The retired single-group client protocol's names.
RETIRED_CLIENT_PROTOCOL = re.compile(r"\bOP_(SUBMIT|DELIVER|CONFIG)\b|\bpack_deliver\b")


def _classes_holding_a_send_queue(source):
    """Names of the classes that construct a ``ClientSendQueue``: each
    is a daemon's per-client state."""
    return [
        cls.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ClientSendQueue"
            for node in ast.walk(cls)
        )
    ]


def test_one_daemon_one_client_one_client_protocol():
    from repro.runtime import ipc

    assert _occurrences(RETIRED_CLIENT_PROTOCOL.pattern) == {}
    opcodes = {name: value for name, value in vars(ipc).items() if name.startswith("OP_")}
    assert opcodes == {
        "OP_JOIN": 4, "OP_LEAVE": 5, "OP_GROUPCAST": 6,
        "OP_GROUP_VIEW": 7, "OP_HELLO": 8, "OP_WELCOME": 9,
    }
    holders = {
        name: classes
        for name, text in _sources().items()
        if (classes := _classes_holding_a_send_queue(text))
    }
    assert holders == {"spread/daemon.py": ["_ClientSession"]}
    # ...and the patterns bite on what this replaced.
    for line in (
        "        if opcode != ipc.OP_SUBMIT:",
        "        if opcode == ipc.OP_DELIVER:",
        "        if opcode == ipc.OP_CONFIG:",
        "        pack_deliver = ipc.pack_deliver",
    ):
        assert RETIRED_CLIENT_PROTOCOL.search(line), line
    assert not RETIRED_CLIENT_PROTOCOL.search("        if opcode == ipc.OP_GROUPCAST:")
    assert not RETIRED_CLIENT_PROTOCOL.search("    return ipc.pack_groupcast(groups, service, payload)")
    old = (
        "class DaemonServer(ClientListener):\n"
        "    def _client_connected(self, connection):\n"
        "        queue = ClientSendQueue(connection, self.client_window_bytes, self._unflushed)\n"
        "        self._clients[connection] = queue\n"
    )
    assert _classes_holding_a_send_queue(old) == ["DaemonServer"]
    assert _classes_holding_a_send_queue("class ClientSendQueue:\n    pass\n") == []


#: The reference codec's packed container and its bare envelope: the
#: daemon orders every groupcast in a frames container, so it neither
#: packs, builds nor forwards either.
OTHER_GROUPCAST_LAYOUTS = {
    "repro.spread.packing", "Packer", "Packed", "packed_item_spans", "unpack_payload",
    "ENV_PACKED",
    "ENV_APP", "AppData", "app_data_prefix", "envelope_prefix", "_forward_app_data",
}


def _names_used(source):
    """Every module, name and attribute a module imports, defines or
    refers to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_one_container_path_in_the_daemon():
    assert _names_used(_sources()["spread/daemon.py"]) & OTHER_GROUPCAST_LAYOUTS == set()
    # ...and the check bites on what this replaced: the Packed path ...
    packed = (
        "from repro.spread.packing import Packer\n"
        "from repro.spread.wire import ENV_PACKED, packed_item_spans\n"
        "def _apply_container(self, container, message):\n"
        "    for start, end in wire.packed_item_spans(container):\n"
        "        pass\n"
    )
    assert _names_used(packed) & OTHER_GROUPCAST_LAYOUTS == {
        "repro.spread.packing", "Packer", "ENV_PACKED", "packed_item_spans",
    }
    # ... and the bare AppData path, even with nothing of it imported.
    bare = (
        "def _forward_app_data(self, data, service):\n"
        "    start = 3 + ((data[1] << 8) | data[2])\n"
    )
    assert _names_used(bare) & OTHER_GROUPCAST_LAYOUTS == {"_forward_app_data"}
    submit = "self._submit_envelope(session.envelope_prefix + body[1:], service)\n"
    assert _names_used(submit) & OTHER_GROUPCAST_LAYOUTS == {"envelope_prefix"}


# ----------------------------------------------------------------------
# One network model: one link, one topology (net/link.py, net/fabric.py)
# ----------------------------------------------------------------------

#: Scheduling a frame's serialization: what every serializing queue does.
SERIALIZES = re.compile(r"\* 8\.0 / self\._rate_bps\b")
#: Telling a switch or topology apart by what attributes it happens to have.
TOPOLOGY_PROBE = re.compile(r"\b(hasattr|getattr)\(\s*[\w.]*(switch|topology|fabric)\b")


def _classes_matching(source, pattern):
    """Names of the classes whose body matches ``pattern``."""
    lines = source.splitlines()
    return [
        cls.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        and pattern.search("\n".join(lines[cls.lineno - 1 : cls.end_lineno]))
    ]


def test_one_link_and_no_topology_probe():
    serializers = {
        name: classes
        for name, text in _sources().items()
        if name.startswith("net/") and (classes := _classes_matching(text, SERIALIZES))
    }
    assert serializers == {"net/link.py": ["Link"]}
    assert _occurrences(TOPOLOGY_PROBE.pattern) == {}
    # ...and the patterns bite on what this replaced.
    nic = (
        "class Nic:\n"
        "    def _start_next(self):\n"
        "        heappush(q, (sim.now + (size + self._overhead) * 8.0 / self._rate_bps, seq))\n"
    )
    assert _classes_matching(nic, SERIALIZES) == ["Nic"]
    assert _classes_matching(nic.replace("Nic", "OutputPort"), SERIALIZES) == ["OutputPort"]
    for line in (
        '    if hasattr(switch, "frames_transited"):',
        '            racks = getattr(self.cluster.topology, "racks", None)',
    ):
        assert TOPOLOGY_PROBE.search(line), line
    assert not TOPOLOGY_PROBE.search('        restart = getattr(self.cluster, "restart", None)')


# ----------------------------------------------------------------------
# One frame per datagram fragment, queued in deques (net/packet.py)
# ----------------------------------------------------------------------

#: The frame pool, its per-port clones and the hand-indexed frame ring.
RETIRED_FRAME_SURFACE = re.compile(r"FrameRing|recycle|clone_for|_POOL_CAP|_trunk_clone")
FRAME_ACQUIRE = re.compile(r"\bFrame\.acquire\(")
#: Variables that held a frame where frames were rewritten in place.
FRAME_NAME = re.compile(r"frame|clone|copy|spare")


def _frame_attribute_stores(source):
    """``name.attr`` assignment targets that rewrite a frame's fields."""
    from repro.net.packet import Frame

    stores = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for item in ast.walk(target):
                if (
                    isinstance(item, ast.Attribute)
                    and isinstance(item.ctx, ast.Store)
                    and item.attr in Frame.__slots__
                    and isinstance(item.value, ast.Name)
                    and FRAME_NAME.search(item.value.id)
                ):
                    stores.append(f"{item.value.id}.{item.attr}")
    return stores


def test_a_frame_is_built_once_and_never_pooled():
    stores = {
        name: found
        for name, text in _sources().items()
        if name != "net/packet.py" and (found := _frame_attribute_stores(text))
    }
    assert stores == {}
    assert _occurrences(RETIRED_FRAME_SURFACE.pattern) == {}
    # Frame.acquire is the constructor under its old name, defined once
    # and called from nowhere in the package.
    assert _occurrences(FRAME_ACQUIRE.pattern) == {}
    assert _occurrences(r"\bdef acquire\(") == {"net/packet.py": 1}
    # ...and the patterns bite on what this replaced.
    old = (
        "def _trunk_clone(frame):\n"
        "    clone = Frame.acquire(frame.src, frame.dst, frame.kind, frame.size, None)\n"
        "    clone.fragment = frame.fragment\n"
        "    copy = frame.clone_for(7)\n"
        "    copy.dst, frame.payload = 7, None\n"
        "    self.size = 3\n"
    )
    assert _frame_attribute_stores(old) == ["clone.fragment", "copy.dst", "frame.payload"]
    assert FRAME_ACQUIRE.search(old)
    for line in (
        "from repro.core.transport_core import FrameRing",
        "            frame.recycle()",
        "                port.send(clone_for(host_id))",
        "        if len(_pool) < _POOL_CAP:",
    ):
        assert RETIRED_FRAME_SURFACE.search(line), line


# ----------------------------------------------------------------------
# One explorer: every schedule search is one loop (faults/explorer.py)
# ----------------------------------------------------------------------

#: A call of the shared shrinker: only the one exploration loop shrinks.
SHRINKS = re.compile(r"(?<!def )\bgreedy_minimize\(")
#: The loops and report types the one explorer replaced.
RETIRED_EXPLORERS = re.compile(
    r"^\s*(def|class) (explore_sharded|ShardedExplorationReport|SoakReport|SoakCase"
    r"|minimize_steps|_depth1_plan)\b",
    re.MULTILINE,
)


def test_one_explorer():
    assert _occurrences(SHRINKS.pattern) == {"faults/explorer.py": 1}
    assert _occurrences(RETIRED_EXPLORERS.pattern) == {}
    # ...and the patterns bite on what this replaced.
    for line in (
        "    return greedy_minimize(steps, still_fails)",
        "                minimized = greedy_minimize(steps, still_diverges)",
    ):
        assert SHRINKS.search(line), line
    assert not SHRINKS.search("def greedy_minimize(items: List, still_fails) -> List:")
    for line in (
        "def explore_sharded(",
        "class ShardedExplorationReport(JsonReport):",
        "class SoakReport(JsonReport):",
        "class SoakCase:",
        "def minimize_steps(",
        "def _depth1_plan(kind: str, pid: int, at: float) -> FaultPlan:",
    ):
        assert RETIRED_EXPLORERS.search(line), line
    assert not RETIRED_EXPLORERS.search("def explore_grid(")


# ----------------------------------------------------------------------
# One transmit instrument on the simulator (analysis/ledger.py)
# ----------------------------------------------------------------------

#: The per-driver transmit callback the ledger replaced.
TRANSMIT_CALLBACK = re.compile(r"\bon_transmit\b")
#: Setting another object's tap: a link's, from outside it.  (Its
#: declaration in net/link.py is annotated; a host or harness keeps its
#: own delivery tap as ``self.tap``.)
SETS_A_TAP = re.compile(r"(?<!\bself)\.tap\s*=(?!=)")
#: The reference codec's layout, which no daemon orders.
REFERENCE_CODEC = {"Packer", "unpack_payload", "AppData"}
#: The spread codec: the envelope layouts (``wire.py``), the frames
#: container (``frames.py``) and fragments (``fragmentation.py``).
SPREAD_CODEC = {"spread/wire.py", "spread/frames.py", "spread/fragmentation.py"}
#: Knowing the frames container's layout: walking client frames by their
#: head, reading the sender's length, building a container by hand,
#: decoding a groupcast out of a container slice, sizing a container.
#: (``runtime/ipc.py`` owns the client frame itself.)
FRAMES_LAYOUT = re.compile(
    r"\bFRAME_HEADER\b"
    r"|\[1:3\]|\[1\]\s*<<\s*8"
    r"|\bframes_prefix\([^)]*\)\s*\+"
    r"|\bunpack_groupcast\(\s*\w+\s*\["
    r"|\bCONTAINER_BUDGET\b"
)
#: Knowing a fragment chunk size: a ``Fragmenter`` given a chunk size of
#: its own, the chunk size read or set, the constant, or the daemon
#: option that once set it.
CHUNK_SIZE = re.compile(
    r"\bFragmenter\(\s*[^)\s]|\bchunk_size\b|\bFRAGMENT_CHUNK\b|\bpack_budget\b"
)


def test_one_transmit_instrument():
    assert _occurrences(TRANSMIT_CALLBACK.pattern) == {}
    assert _occurrences(SETS_A_TAP.pattern) == {"analysis/ledger.py": 1}
    assert "self.tap: Optional[Callable[[Frame], None]] = None" in _sources()["net/link.py"]


def test_the_spread_mirror_orders_what_a_daemon_orders():
    found = {
        name: used
        for name, text in _sources().items()
        if name.startswith("conformance/")
        and (used := _names_used(text) & REFERENCE_CODEC)
    }
    assert found == {}
    # The daemon and the mirror build and walk frames containers with
    # the codec's functions, fragmenting at the codec's chunk size: no
    # module outside the codec knows the layout or a chunk size.
    assert set(_occurrences(FRAMES_LAYOUT.pattern)) <= SPREAD_CODEC | {"runtime/ipc.py"}
    assert set(_occurrences(CHUNK_SIZE.pattern)) <= {
        "spread/fragmentation.py", "spread/frames.py",
    }
    variants = _names_used(_sources()["conformance/variants.py"])
    daemon = _names_used(_sources()["spread/daemon.py"])
    assert {"pack_groupcasts", "walk_frames"} <= variants & daemon


def test_the_frames_layout_patterns_bite():
    """On the mirror and the daemon as they were before both called the
    codec: each line of a drifted copy that knows the layout or a chunk
    size trips a pattern."""
    for line in (
        # conformance/variants.py: _groupcast_payloads, _SpreadPipeline
        '    at = 3 + int.from_bytes(container[1:3], "big")',
        "        _opcode, length = ipc.FRAME_HEADER.unpack_from(container, at)",
        "        at += ipc.FRAME_HEADER.size",
        "        _groups, _service, payload = ipc.unpack_groupcast(container[at : at + length])",
        '        container = frames_prefix(f"h{pid}") + ipc.pack_groupcast(',
        # spread/daemon.py: its private container builder and walk
        "CONTAINER_BUDGET = DATAGRAM_BUDGET - DATA_HEADER_BYTES",
        "_unpack_frame_header = ipc.FRAME_HEADER.unpack_from",
        "        at = 3 + ((container[1] << 8) | container[2])",
    ):
        assert FRAMES_LAYOUT.search(line), line
    for line in (
        "        pack_budget: int = 1350,",
        "        self.fragmenter = Fragmenter(chunk_size=pack_budget)",
        "        largest = self.fragmenter.chunk_size - len(prefix)",
        "        self.fragmenters = {pid: Fragmenter(1300) for pid in range(num_hosts)}",
    ):
        assert CHUNK_SIZE.search(line), line
    assert not FRAMES_LAYOUT.search("        self.frames_prefix = frames_prefix(member_name)")
    assert not FRAMES_LAYOUT.search("        groups, service, end = self._received_headers.parse(body)")
    assert not CHUNK_SIZE.search("        self.fragmenter = Fragmenter()")


def test_the_transmit_and_mirror_patterns_bite():
    for line in (
        "        self.host.multicast_datagram(payload, size, self.on_transmit)",
        "            driver.on_transmit = self._make_hook(cluster, pid)",
    ):
        assert TRANSMIT_CALLBACK.search(line), line
    assert SETS_A_TAP.search("            host.nic.tap = self._recorder(host_id)")
    assert SETS_A_TAP.search("        cluster.topology.hosts[0].nic.tap=hook")
    assert not SETS_A_TAP.search("        if self.tap is not None:")
    assert not SETS_A_TAP.search("        if link.tap == hook:")
    assert not SETS_A_TAP.search("        self.tap = ConformanceTap()")
    old = (
        "from repro.spread.packing import Packer, unpack_payload\n"
        "from repro.spread.wire import AppData, Fragment, decode_envelope\n"
        "packers = {pid: Packer() for pid in range(num_hosts)}\n"
    )
    assert _names_used(old) & REFERENCE_CODEC == REFERENCE_CODEC


# ----------------------------------------------------------------------
# One store of latency samples (util/stats.py)
# ----------------------------------------------------------------------

#: A pid-keyed container of latencies: the per-sender store ``RunStats``
#: kept beside the pooled samples until they became two arrays.
PER_SENDER_STORE = re.compile(
    r"\b(Dict|DefaultDict|Mapping|dict|defaultdict)\[\s*int\s*,\s*[\w.]*?"
    r"(LatencyStats|List\[float\]|list\[float\])"
)
#: Boxed samples: a list of floats where the ``array('d')`` belongs.
BOXED_SAMPLES = re.compile(r"\b(List|list)\[float\]")


def _boxed_or_per_sender_fields(cls):
    return [
        field.name
        for field in dataclasses.fields(cls)
        if PER_SENDER_STORE.search(str(field.type))
        or BOXED_SAMPLES.search(str(field.type))
    ]


def test_one_store_of_latency_samples():
    samples = LatencyStats().samples
    assert isinstance(samples, array) and samples.typecode == "d"
    for cls in (LatencyStats, RunStats, ClusterStats):
        assert _boxed_or_per_sender_fields(cls) == [], cls
    # The per-sender view is derived on read: the property's return type
    # and its local are the only pid-keyed latency containers in src/.
    assert isinstance(vars(RunStats)["per_sender_latency"], property)
    assert _occurrences(PER_SENDER_STORE.pattern) == {"util/stats.py": 2}


def test_the_latency_store_patterns_bite():
    @dataclasses.dataclass
    class Boxed:
        samples: List[float] = dataclasses.field(default_factory=list)
        per_sender_latency: Dict[int, LatencyStats] = dataclasses.field(
            default_factory=dict
        )
        per_sender_worst_5pct_mean: float = 0.0

    assert _boxed_or_per_sender_fields(Boxed) == ["samples", "per_sender_latency"]
    for line in (
        "    per_sender_latency: Dict[int, LatencyStats] = field(default_factory=dict)",
        "        self.by_sender: Dict[int, List[float]] = {}",
        "    worst: defaultdict[int, list[float]]",
    ):
        assert PER_SENDER_STORE.search(line), line
    assert not PER_SENDER_STORE.search("    drivers: Dict[int, ProtocolHost]")
    assert not PER_SENDER_STORE.search('    senders: "array[int]" = field(default_factory=f)')


# ----------------------------------------------------------------------
# Annotations name things their module binds (pyflakes F821, offline)
# ----------------------------------------------------------------------


def _annotation_names(annotation):
    """Every bare name an annotation refers to, string forms included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted)


def _unbound_annotation_names(source):
    """Names used in annotations that the module never binds by import,
    def, class or assignment (and that are not builtins)."""
    tree = ast.parse(source)
    bound = set(dir(builtins))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spec = node.args
            arguments = spec.posonlyargs + spec.args + spec.kwonlyargs
            arguments += [a for a in (spec.vararg, spec.kwarg) if a is not None]
            annotations += [a.annotation for a in arguments if a.annotation]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return sorted(
        {name for a in annotations for name in _annotation_names(a)} - bound
    )


def test_every_annotation_names_something_its_module_binds():
    # CI's `ruff check` selects F821, but neither ruff nor pyflakes is in
    # the offline image, so two `MembershipCluster` annotations without
    # an import went unseen; this is the same rule on the stdlib.
    unbound = {
        name: names
        for name, text in _sources().items()
        if (names := _unbound_annotation_names(text))
    }
    assert unbound == {}


def test_the_annotation_check_bites():
    parent = (
        "from typing import Optional\n"
        "def _submit(cluster: MembershipCluster, pid: int) -> None: ...\n"
        "class Run:\n"
        "    cluster: Optional[MembershipCluster] = None\n"
        "    other: 'Optional[Missing]' = None\n"
    )
    assert _unbound_annotation_names(parent) == ["MembershipCluster", "Missing"]
    fixed = "from repro.sim.membership_driver import MembershipCluster\n" + parent
    assert _unbound_annotation_names(fixed) == ["Missing"]
    guarded = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.obs.observer import ProtocolObserver\n"
        "def f(observer: 'ProtocolObserver') -> 'Self': ...\n"
        "Self = object\n"
    )
    assert _unbound_annotation_names(guarded) == []


# ----------------------------------------------------------------------
# Every import is used (pyflakes F401, offline)
# ----------------------------------------------------------------------

#: pyproject's per-file F401 ignores: the modules that re-export an API.
REEXPORTS = re.compile(r'^"([^"]+)" = \["F401"\]', re.MULTILINE)


def _unused_imports(source):
    """Names a module imports and never uses.  A name is used when it
    appears bare, or inside a string constant that parses as an
    expression (string annotations, ``__all__`` entries)."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update(
                    (a.asname or a.name).split(".")[0] for a in node.names if a.name != "*"
                )
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_every_import_is_used():
    # CI's `ruff check` selects F401, which nothing offline runs; four
    # unused test imports sat unseen until an AST scan found them.
    reexports = set(REEXPORTS.findall((REPO / "pyproject.toml").read_text()))
    assert "src/repro/__init__.py" in reexports
    paths = sorted(SRC.rglob("*.py")) + sorted((REPO / "tests").rglob("*.py"))
    unused = {
        name: names
        for name in (str(path.relative_to(REPO)) for path in paths)
        if name not in reexports
        and (names := _unused_imports((REPO / name).read_text()))
    }
    assert unused == {}


def test_the_unused_import_check_bites():
    parent = (
        "import pytest\n"
        "from repro.apps.kv.checker import check_history, check_partition\n"
        "check_history([])\n"
    )
    assert _unused_imports(parent) == ["check_partition", "pytest"]
    guarded = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from repro.runtime.ipc import FrameProtocol\n"
        "def f(writer: 'asyncio.StreamWriter | FrameProtocol') -> str:\n"
        "    return os.path.sep\n"
    )
    assert _unused_imports(guarded) == []
    assert _unused_imports("from repro.obs.metrics import Counter\n__all__ = ['Counter']\n") == []


# ----------------------------------------------------------------------
# One CLI (repro.cli): argparse stays in it, one command per job
# ----------------------------------------------------------------------

#: An import of argparse, in either spelling.
IMPORTS_ARGPARSE = r"(?m)^\s*(?:import argparse\b|from argparse import)"
#: ``repro figure`` is the one way to run a paper experiment, and
#: ``conformance report`` / ``replay`` the one way to read an artifact back.
COMMANDS = ["demo", "figure", "chaos", "soak", "conformance", "kv", "fleet", "daemon"]


def test_one_cli_with_one_command_per_job():
    from repro.cli import build_parser

    importers = set(_occurrences(IMPORTS_ARGPARSE))
    assert importers and all(name.startswith("cli/") for name in importers), importers
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(commands) == COMMANDS
    # ...and the pattern bites on a library module growing its own parser.
    assert re.search(IMPORTS_ARGPARSE, "import json\nimport argparse\n")
    assert re.search(IMPORTS_ARGPARSE, "    from argparse import ArgumentParser\n")
    assert not re.search(IMPORTS_ARGPARSE, "# a parser built with argparse\n")


# ----------------------------------------------------------------------
# One observer hook per protocol event (obs/observer.py)
# ----------------------------------------------------------------------

#: The paper's round, recovery and injected faults, one hook each.
OBSERVER_HOOKS = {
    "on_token_received",
    "on_token_sent",
    "on_multicast",
    "on_deliver_batch",
    "on_retransmit_requested",
    "on_flow_control",
    "on_membership_event",
    "on_fault",
}
#: What the fold retired: a second hook for a retransmission answer
#: (``on_multicast(retransmission=True)`` is it), per-phase recovery hooks
#: (``on_membership_event("recovery_*")`` are they), the fan-out class, and
#: the snapshot pass-throughs (``observer.snapshot()`` and
#: ``render_table`` are they).
RETIRED_OBSERVER_SURFACE = re.compile(
    r"\bon_retransmit\b|\bon_recovery_\w|\bCompositeObserver\b"
    r"|\bmetrics_snapshot\(|\bformat_metrics\b"
)


def _observer_classes(classes, known):
    """``known`` grown by every class in ``classes`` descended from one
    of them, by the base's name."""
    observers = set(known)
    grown = True
    while grown:
        grown = False
        for cls in classes:
            bases = {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
            if cls.name not in observers and bases & observers:
                observers.add(cls.name)
                grown = True
    return observers


def _classes(text):
    return [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ClassDef)]


def _stale_observer_overrides(sources, known=frozenset({"ProtocolObserver"})):
    """``Class.on_x`` for every ``on_*`` method, on a class descended
    from an observer class in ``known`` or in its own module, that names
    no base hook: an override nothing calls any more."""
    stale = []
    for text in sources:
        classes = _classes(text)
        observers = _observer_classes(classes, known) - {"ProtocolObserver"}
        stale += [
            f"{cls.name}.{item.name}"
            for cls in classes
            if cls.name in observers
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and item.name.startswith("on_")
            and item.name not in OBSERVER_HOOKS
        ]
    return sorted(stale)


def test_one_observer_hook_per_protocol_event():
    from repro.obs.observer import ProtocolObserver

    assert {name for name in vars(ProtocolObserver) if name.startswith("on_")} == OBSERVER_HOOKS
    tests = {
        str(path.relative_to(REPO)): path.read_text()
        for path in sorted((REPO / "tests").rglob("*.py"))
        if path != Path(__file__)
    }
    found = [
        f"{name}:{number}: {line.strip()}"
        for name, text in {**_sources(), **tests}.items()
        for number, line in enumerate(text.splitlines(), start=1)
        if RETIRED_OBSERVER_SURFACE.search(line)
    ]
    assert found == []
    # Observer classes in src/ (tests subclass them too), then every
    # override in src/ and tests/ names a hook the stack still fires.
    package = [cls for text in _sources().values() for cls in _classes(text)]
    known = _observer_classes(package, {"ProtocolObserver"})
    assert {"MetricsObserver", "CoverageObserver", "NullObserver"} <= known
    assert _stale_observer_overrides(_sources().values(), known) == []
    assert _stale_observer_overrides(tests.values(), known) == []


def test_the_observer_hook_patterns_bite():
    for line in (
        "    def on_recovery_started(self, pid, detail=None, now=None):",
        "                        observer.on_retransmit(pid, requested, now=now)",
        "from repro.obs.observer import CompositeObserver, MetricsObserver",
        "    snap = cluster.metrics_snapshot()",
        "print(format_metrics(observer.registry, title=title))",
        '            getattr(self.observer, "on_recovery_retry")(self.pid, detail=detail)',
    ):
        assert RETIRED_OBSERVER_SURFACE.search(line), line
    for line in (
        "    def on_retransmit_requested(self, pid, seq, now=None):",
        '        self._notify("recovery_started", ring_id=rec.new_ring_id)',
        "    def _on_recovery_timeout(self, effects):",
        "def test_runtime_nodes_produce_metrics_snapshot():",
    ):
        assert not RETIRED_OBSERVER_SURFACE.search(line), line
    old = (
        "class _RecoveryWindows(ProtocolObserver):\n"
        "    def on_recovery_started(self, pid, detail=None, now=None): ...\n"
        "class Counting(_RecoveryWindows):\n"
        "    def on_retransmit(self, pid, seq, now=None): ...\n"
        "    def on_multicast(self, pid, message, retransmission=False, now=None): ...\n"
        "class Tap:\n"
        "    def on_config(self, pid, configuration): ...\n"
    )
    assert _stale_observer_overrides([old]) == [
        "Counting.on_retransmit",
        "_RecoveryWindows.on_recovery_started",
    ]


# ----------------------------------------------------------------------
# One differential oracle (conformance/differ.py)
# ----------------------------------------------------------------------

#: What the one oracle replaced: a report class and an entry point per
#: substrate, and the realtime report's wall-clock field.
RETIRED_ORACLE_SURFACE = re.compile(
    r"\b(ShardedReport|RealtimeReport|run_sharded_differential"
    r"|run_realtime_differential|real_wall_s)\b"
)
#: A report class definition.
REPORT_CLASS = re.compile(r"^class \w+\(JsonReport\)", re.MULTILINE)


def _report_classes(sources: Dict[str, str]) -> Dict[str, int]:
    return {
        name: len(REPORT_CLASS.findall(text))
        for name, text in sources.items()
        if name.startswith("conformance/") and REPORT_CLASS.search(text)
    }


def test_one_differential_oracle_with_one_report():
    assert _occurrences(RETIRED_ORACLE_SURFACE.pattern) == {}
    tests = [
        str(path.relative_to(REPO))
        for path in sorted((REPO / "tests").rglob("*.py"))
        if path != Path(__file__) and RETIRED_ORACLE_SURFACE.search(path.read_text())
    ]
    assert tests == []
    assert _report_classes(_sources()) == {"conformance/differ.py": 1}
    # ...and the patterns bite on what this replaced.
    old = {
        "conformance/differ.py": "@dataclass\nclass ConformanceReport(JsonReport):\n",
        "conformance/multiring.py": "@dataclass\nclass ShardedReport(JsonReport):\n",
        "conformance/realtime.py": (
            "@dataclass\n"
            "class RealtimeReport(JsonReport):\n"
            "    real_wall_s: float = 0.0\n"
        ),
    }
    assert _report_classes(old) == dict.fromkeys(old, 1)
    for line in (
        "    from repro.conformance.multiring import ShardedReport",
        "def run_sharded_differential(",
        "        report = run_realtime_differential(workload=workload, crash=args.crash)",
        '            "real_wall_s": round(self.real_wall_s, 3),',
    ):
        assert RETIRED_ORACLE_SURFACE.search(line), line


# ----------------------------------------------------------------------
# Two event heaps, split by entry kind (net/simulator.py)
# ----------------------------------------------------------------------

#: The timer heap or the handle-entry tag, named on another object than
#: ``self`` (the executor's own ``self._timers`` is its timer table).
SIMULATOR_PRIVATE = re.compile(r"\b_HANDLE\b|(?<!\bself)\._timers\b")
#: The network models that push simulator events inline, past ``post``.
INLINE_PUSHERS = ("net/link.py", "net/host.py", "net/fabric.py")


def _heap_push_targets(source):
    """The heap of every ``heappush`` call, as source text; a local name
    reads through its assignment in the same function."""
    targets = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, ast.FunctionDef):
            continue
        bound = {
            target.id: ast.unparse(node.value)
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("heappush"):
                heap = ast.unparse(node.args[0])
                targets.append(bound.get(heap, heap))
    return targets


def test_only_the_simulator_names_its_timer_heap():
    assert set(_occurrences(SIMULATOR_PRIVATE.pattern)) == {"net/simulator.py"}
    sources = _sources()
    pushes = {name: _heap_push_targets(sources[name]) for name in INLINE_PUSHERS}
    assert all(pushes.values()), pushes  # each still pushes inline...
    assert {heap for heaps in pushes.values() for heap in heaps} == {"sim._queue"}
    # ...and the patterns bite on a pusher that reaches for the timers.
    for line in (
        "from repro.net.simulator import _HANDLE",
        "        heappush(sim._timers, (when, seq, handle, handle_tag))",
        "        due = self._sim._timers[0][0]",
    ):
        assert SIMULATOR_PRIVATE.search(line), line
    assert not SIMULATOR_PRIVATE.search("        self._timers: Dict[str, object] = {}")
    old = (
        "def _finish(self, frame):\n"
        "    sim = self._sim\n"
        "    heap = sim._timers\n"
        "    heappush(heap, (sim.now + self._propagation, seq, self._deliver, (frame,)))\n"
        "    heappush(sim._queue, (sim.now + cost, seq, self._finish, (fn, args)))\n"
    )
    assert _heap_push_targets(old) == ["sim._timers", "sim._queue"]


# ----------------------------------------------------------------------
# One fault path: plans through FaultInjector (faults/injector.py)
# ----------------------------------------------------------------------

#: The cluster fault methods that only a plan's injector schedules.
FAULT_METHODS = {"crash", "restart", "partition", "heal", "pause", "resume"}
#: module → the functions there that may still hand one to the
#: simulator, with the reason.
SCHEDULES_A_FAULT = {
    "apps/kv/cluster.py": {
        # The crash-after-append hook runs inside the host's own delivery
        # callback; the host's fail-stop waits for the batch to finish.
        "KvRing.arm_crash_after_append.action",
    },
}
#: The KV store's own event log, which the injector's ``applied`` replaced.
KV_EVENT_LOG = re.compile(r"^def _event\(", re.MULTILINE)


def _scheduled_faults(source):
    """Dotted scopes that pass a fault method to ``schedule`` /
    ``schedule_at``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("schedule", "schedule_at")
                and any(
                    isinstance(part, ast.Attribute) and part.attr in FAULT_METHODS
                    for arg in child.args
                    for part in ast.walk(arg)
                )
            ):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_faults_reach_a_cluster_only_through_the_injector():
    scheduled = {
        name: set(scopes)
        for name, text in _sources().items()
        if not name.startswith("faults/") and (scopes := _scheduled_faults(text))
    }
    assert scheduled == SCHEDULES_A_FAULT
    chaos = _sources()["apps/kv/chaos.py"]
    assert not KV_EVENT_LOG.search(chaos)
    assert "schedule_at" not in chaos
    # ...and the patterns bite on what the plans replaced.
    old = (
        "def _crash_mid_txn(kv, base, rng):\n"
        "    kv.sim.schedule_at(base + 0.45, kv.restart, ring, victim)\n"
        "def _cascade_replicas(kv, base, rng):\n"
        "    for kind, at, ring, pid in plan:\n"
        "        kv.sim.schedule_at(base + at, kv.crash if crash else kv.restart, ring, pid)\n"
        "class KvCluster:\n"
        "    def arm_crash_between_append_and_apply(self, ring_index, pid):\n"
        "        def action():\n"
        "            self.sim.schedule_at(\n"
        "                self.sim.now, self.net.crash, ring_index, pid\n"
        "            )\n"
        "def stall(cluster):\n"
        "    cluster.sim.schedule(0.1, cluster.pause, 2)\n"
    )
    assert _scheduled_faults(old) == [
        "_crash_mid_txn",
        "_cascade_replicas",
        "KvCluster.arm_crash_between_append_and_apply.action",
        "stall",
    ]
    assert _scheduled_faults("cluster.sim.schedule_at(when, cluster.submit, group)") == []
    assert KV_EVENT_LOG.search(
        "def _event(kind: str, at: float, **details: Any) -> Dict[str, Any]:"
    )
