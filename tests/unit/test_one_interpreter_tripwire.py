"""Tripwire: effects have one interpreter, deliveries one shape,
clusters one assembly path, seeded behaviour one pin (the goldens),
checked runs one drive-and-converge loop, the membership controller one transition table,
the runtime one daemon, one client and one client protocol, the
committed results one producer, the network one link and one topology.

Scans the package source so that a re-grown effect ladder, a second
delivery effect or a per-message delivery hook, a second run-grouping
accumulator, a new deprecation shim, a bench baseline or a comparator
against one, a bench environment knob, a private convergence poll or a second way to
arm a fault plan, a dispatch ladder or hand-placed timer cancel in
the membership controller, a second daemon or client protocol, a
second figure harness, a second serializing queue or a probe telling two
topologies apart fails tier-1 instead of drifting in unnoticed (the
shape of the port and unseeded-random tripwires in ``conftest.py``,
applied to the source tree)."""

import argparse
import ast
import builtins
import functools
import re
from pathlib import Path

import repro
from repro.core.events import Deliver, Effect

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
        "multiring/cluster.py": 1,
        "faults/injector.py": 1,
    },
    # differ.health_divergences builds every oracle's evs/converge entries.
    r'kind="converge"': {"conformance/differ.py": 1},
    # JsonReport is the reports' text form; FaultPlan is a plan, not a report.
    r"def to_json\(self": {"util/jsonreport.py": 1, "faults/plan.py": 1},
    # One artifact writer under every --out.
    r"os\.makedirs\(": {"cli.py": 1, "bench/report.py": None},
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
    assert _occurrences(r"if args\.json").get("cli.py", 0) <= 4


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
    assert not RETIRED_CLIENT_PROTOCOL.search("    return ipc.groupcast_frame_from_tail(s, t)")
    old = (
        "class DaemonServer(ClientListener):\n"
        "    def _client_connected(self, connection):\n"
        "        queue = ClientSendQueue(connection, self.client_window_bytes, self._unflushed)\n"
        "        self._clients[connection] = queue\n"
    )
    assert _classes_holding_a_send_queue(old) == ["DaemonServer"]
    assert _classes_holding_a_send_queue("class ClientSendQueue:\n    pass\n") == []


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
