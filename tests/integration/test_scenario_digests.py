"""Committed digests of every seeded scenario, oracle and soak drive.

``tests/golden/scenario_digests.json`` maps a run's name to the sha256
of its canonical JSON document (``indent=2, sort_keys=True``, no
trailing newline).  Where the two chaos goldens pin two reports byte
for byte, this file pins *every* runner that boots a cluster, arms a
plan, quiesces, polls for convergence and judges the traces — chaos,
KV chaos, the three oracles, both conformance explorations and the soak
drive — so a change to how a run is driven (a poll cadence, a window, a
quiesce rule) shows up as a moved ``sim_time``, event count or stream,
not merely as "still passes".  The ``bench/`` entries pin the seeded
benchmark windows behind the paper's numbers: the accelerated ring at
maximum throughput, fixed rates, Safe delivery, datagram coalescing and
on a leaf–spine fabric, 1/2/4 sharded rings, and the KV store and
cluster under skewed load.

The chaos and KV entries are asserted inside the scenario libraries'
own parametrized tests (``test_chaos_scenarios.py``,
``test_kv_cluster.py``) through :func:`assert_digest`, so they cost no
extra runs; everything else is produced and checked here.  Regenerate
(policy: ``tests/golden/README.md``) with::

    PYTHONPATH=src python -m tests.integration.test_scenario_digests
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from repro.apps.kv.chaos import SCENARIOS as KV_SCENARIOS, run_kv_scenario
from repro.apps.kv.cluster import KvCluster
from repro.apps.kv.commands import KvCommand, put
from repro.apps.kv.replica import DurableMedium
from repro.apps.kv.snapshot import encode_snapshot
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import WalRecord, WriteAheadLog
from repro.bench.experiments import window_summary
from repro.bench.tables import ring_count_window
from repro.bench.windows import window_for
from repro.conformance import differ
from repro.conformance.explorer import explore_instants
from repro.conformance.multiring import ShardedWorkload, explore_grid
from repro.conformance.realtime import RealtimeWorkload, run_sim_serialized
from repro.conformance.variants import VARIANT_NAMES
from repro.conformance.workload import Workload
from repro.core.messages import DeliveryService
from repro.evs.checker import EvsViolation
from repro.faults.drive import boot
from repro.faults.generator import ACTIONS, FABRIC_ACTIONS, build_plan, random_steps
from repro.faults.plan import PlanBuilder
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.faults.soak import case_seed, drive_plan
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY
from repro.util.units import Mbps
from repro.workloads.generators import ClosedLoopWorkload, FixedRateWorkload
from repro.workloads.kv import DiurnalArrivals, KvOpMix, ZipfianKeys, drive_schedule

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "scenario_digests.json"

CHAOS_SEED = 7
KV_SEED = 1
SOAK_SEED = 1
SOAK_HOSTS = 4


def digest(document) -> str:
    text = json.dumps(document, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_digest(key: str, document) -> None:
    expected = json.loads(GOLDEN.read_text())[key]
    assert digest(document) == expected, (
        f"{key}: the seeded run no longer produces the committed output "
        f"(see tests/golden/README.md)"
    )


def chaos_key(name: str) -> str:
    return f"chaos/{name}@seed{CHAOS_SEED}"


def kv_key(name: str) -> str:
    return f"kv/{name}@seed{KV_SEED}"


def _stream_digest(streams) -> str:
    return hashlib.sha256(repr(sorted(streams.items())).encode("utf-8")).hexdigest()


def _run_document(run) -> dict:
    """What one VariantRun contributes: its streams, clock and verdict."""
    return {
        "streams": _stream_digest(run.streams),
        "sim_time": repr(run.sim_time),
        "traffic_base": repr(run.traffic_base),
        "converged": run.converged,
        "evs_violation": run.evs_violation,
        "final_members": list(run.final_members),
        "crashed_pids": sorted(run.crashed_pids),
    }


#: The fault plans the single-ring differential is pinned under: none,
#: one that repairs everything it breaks, and one that leaves its crash
#: for the quiesce phase to restart.
DIFFERENTIAL_PLANS = {
    "fault-free": None,
    "crash-recover-pause-resume": (
        PlanBuilder()
        .crash(1, at=0.02)
        .pause(2, at=0.03)
        .resume(2, at=0.05)
        .recover(1, at=0.1)
        .build()
    ),
    "crash-unrecovered": PlanBuilder().crash(1, at=0.02).build(),
}


def _differential(plan) -> dict:
    # The report carries verdicts and coverage but not the runs' clocks
    # or streams; record those from the runs the oracle itself makes.
    runs = []

    def recording(*args):
        runs.append(differ.run_variant(*args))
        return runs[-1]

    recorded = differ.Substrate(Workload, recording)
    with mock.patch.dict(differ.SUBSTRATES, {name: recorded for name in VARIANT_NAMES}):
        report = differ.run_differential(
            Workload(), plan=plan, variants=VARIANT_NAMES
        )
    return {
        "report": report.to_dict(),
        "runs": {run.variant: _run_document(run) for run in runs},
    }


def _soak_case(index: int, fabric_racks: int = 0, impair=None) -> dict:
    """Case ``index`` of ``repro soak --seed 1 --hosts 4``, as driven."""
    derived = case_seed(SOAK_SEED, index)
    steps = random_steps(
        random.Random(derived),
        SOAK_HOSTS,
        max_steps=8,
        actions=FABRIC_ACTIONS if fabric_racks else ACTIONS,
    )
    plan = build_plan(steps, SOAK_HOSTS, racks=fabric_racks)
    cluster = drive_plan(
        plan,
        num_hosts=SOAK_HOSTS,
        seed=derived,
        fabric_racks=fabric_racks,
        impair=impair,
    )
    verdict = None
    try:
        cluster.checker.check(crashed=plan.crashed_pids())
    except EvsViolation as violation:
        verdict = str(violation)
    return {
        "plan": plan.to_dicts(),
        "sim_now": repr(cluster.sim.now),
        "events_processed": cluster.sim.events_processed,
        "deliveries": {
            str(pid): len(host.delivered)
            for pid, host in sorted(cluster.hosts.items())
        },
        "verdict": verdict,
    }


# The two exploration entries were recorded from the report types the
# one explorer replaced; each producer projects the one report onto that
# document by selecting and renaming its fields.


def _sharded_explore() -> dict:
    """The per-ring depth-1 grid on 2 rings at the 0.25 anchor."""
    report = explore_grid(num_rings=2, anchors=(0.25,)).to_dict()
    params = report["params"]
    return {
        "num_rings": params["num_rings"],
        "workload": params["workload"],
        "seed": params["seed"],
        "ok": report["ok"],
        "cases": [
            {
                "ring": case["ring"],
                "kind": case["label"]["kind"],
                "pid": case["label"]["pid"],
                "at": case["label"]["at"],
                "ok": case["ok"],
                "converged": case["report"]["converged"],
                "evs": case["report"]["evs"],
                "deliveries": case["report"]["deliveries"],
            }
            for case in report["cases"]
        ],
    }


def _instants_explore() -> dict:
    """Harvested instants at depth 1, five differential runs."""
    report = explore_instants(Workload(), depth=1, budget=5).to_dict()
    source = ("workload", "seed", "depth", "variants", "instants")
    counts = ("budget", "enumerated", "deduped", "ran", "skipped_budget", "ok", "coverage")
    return {
        **{key: report["params"][key] for key in source},
        **{key: report[key] for key in counts},
        "divergent": [
            {
                "atoms": case["label"],
                "steps": case["steps"],
                "minimized_steps": case["minimized_steps"],
                "report": case["report"],
            }
            for case in report["cases"]
            if not case["ok"]
        ],
    }


def _bench_ring(
    params,
    warmup,
    measure,
    rate_mbps=None,
    service=DeliveryService.AGREED,
    messages_per_datagram=1,
    racks=0,
    impair=None,
) -> dict:
    """The paper's library methodology on the 8-host accelerated ring:
    closed-loop senders (maximum throughput), or a fixed aggregate rate
    when ``rate_mbps`` is given; ``racks`` puts it on a 2:1
    oversubscribed leaf–spine, ``impair`` layers a named impairment."""
    config = replace(
        window_for(LIBRARY, params, True, 1350),
        messages_per_datagram=messages_per_datagram,
    )
    cluster = (
        ClusterBuilder()
        .hosts(8)
        .profile(LIBRARY)
        .network(params)
        .config(config)
        .adverse_network(racks, impair)
        .build_ring()
    )
    if rate_mbps is None:
        workload = ClosedLoopWorkload(payload_size=1350, service=service)
    else:
        workload = FixedRateWorkload(
            payload_size=1350, aggregate_rate_bps=Mbps(rate_mbps), service=service
        )
    return window_summary(cluster, workload, warmup, measure)


#: ``bench/<suite>/<case>`` → the simulated ring's window.
BENCH_RINGS = {
    "smoke/agreed-1g-200": lambda: _bench_ring(GIGABIT, 0.01, 0.02, rate_mbps=200.0),
    "smoke/closed-loop-10g": lambda: _bench_ring(TEN_GIGABIT, 0.005, 0.01),
    "headline/max-throughput-10g": lambda: _bench_ring(TEN_GIGABIT, 0.04, 0.08),
    "headline/agreed-1g-500": lambda: _bench_ring(GIGABIT, 0.04, 0.08, rate_mbps=500.0),
    "headline/safe-10g": lambda: _bench_ring(
        TEN_GIGABIT, 0.04, 0.08, service=DeliveryService.SAFE
    ),
    # The datagram-coalescing sweep (PROTOCOL.md §9.1), anchored at
    # max-throughput-10g (one message per datagram).
    **{
        f"headline/batch-10g-mpd{m}": lambda m=m: _bench_ring(
            TEN_GIGABIT, 0.04, 0.08, messages_per_datagram=m
        )
        for m in (2, 4, 8)
    },
    # The same closed loop on one switch, a two-rack leaf–spine, and the
    # leaf–spine with reordering: trunk serialization and reorder tolerance.
    "fabric/star-1g": lambda: _bench_ring(GIGABIT, 0.01, 0.02),
    "fabric/leafspine-2x4": lambda: _bench_ring(GIGABIT, 0.01, 0.02, racks=2),
    "fabric/leafspine-reorder": lambda: _bench_ring(
        GIGABIT, 0.01, 0.02, racks=2, impair="reorder"
    ),
}


def _kv_store(zipf_s: float, num_keys=2_000_000, operations=200_000, snapshot_every=4096) -> dict:
    """Puts streamed straight into one store through the WAL
    append-before-apply path, snapshotting every ``snapshot_every``:
    the state machine at a multi-million-key scale no cluster reaches."""
    keys = ZipfianKeys(num_keys=num_keys, s=zipf_s, seed=11)
    store = KvStore()
    durable = DurableMedium()
    wal = WriteAheadLog(durable.wal_storage)
    snapshots = 0
    for index in range(operations):
        command = KvCommand(
            client_id=index % 8,
            request_id=index // 8 + 1,
            ops=(put(keys.draw(), b"%d" % index),),
        )
        wal.append(WalRecord(group="kv00", command=command))
        store.apply("kv00", command)
        if (index + 1) % snapshot_every == 0:
            durable.write_snapshot(encode_snapshot(store))
            wal.reset()
            snapshots += 1
    return {
        "operations": operations,
        "keyspace": num_keys,
        "zipf_s": zipf_s,
        "distinct_keys": sum(len(part) for part in store.data.values()),
        "snapshots_taken": snapshots,
        "wal_records_tail": wal.records_appended - snapshots * snapshot_every,
        "digest": store.digest(),
    }


def _kv_cluster() -> dict:
    """Diurnal Zipfian traffic (200–800 ops/s over 0.5 s, 10 000 keys)
    through the ordered, replicated KV cluster on 2 rings of 4."""
    kv = KvCluster(rings=2, hosts_per_ring=4, partitions=8, snapshot_every=256)
    base = boot(kv)
    arrivals = DiurnalArrivals(trough_rate=200.0, peak_rate=800.0, period=0.5, seed=22)
    mix = KvOpMix(keys=ZipfianKeys(num_keys=10_000, s=0.99, seed=21), num_clients=4, seed=23)
    scheduled = drive_schedule(kv, mix.schedule(arrivals.times(0.5)), base)
    kv.run(0.7)
    return {
        "rings": 2,
        "hosts_per_ring": 4,
        "partitions": 8,
        "ops_scheduled": scheduled,
        "ops_completed": kv.history.completed,
        "ops_incomplete": kv.history.incomplete,
        "replica_applies": sum(replica.applies for replica in kv.replicas.values()),
        "stores_converged": kv.stores_converged(),
        "digest": {
            str(ring): sorted(set(per.values()))[0]
            for ring, per in sorted(kv.store_digests().items())
            if per
        },
        "sim_time": round(kv.sim.now, 9),
    }


PRODUCERS = {}
for _name in sorted(SCENARIOS):
    PRODUCERS[chaos_key(_name)] = (
        lambda name=_name: run_scenario(name, seed=CHAOS_SEED).to_dict()
    )
for _name in sorted(KV_SCENARIOS):
    PRODUCERS[kv_key(_name)] = (
        lambda name=_name: run_kv_scenario(name, seed=KV_SEED).to_dict()
    )
for _name, _plan in DIFFERENTIAL_PLANS.items():
    PRODUCERS[f"differential/{_name}"] = lambda plan=_plan: _differential(plan)
PRODUCERS["sharded/differential"] = (
    lambda: differ.run_differential(ShardedWorkload()).to_dict()
)
PRODUCERS["sharded/explore"] = _sharded_explore
PRODUCERS["explore/depth1-budget5"] = _instants_explore
for _crash in (False, True):
    PRODUCERS[f"realtime-sim/{'crash' if _crash else 'fault-free'}"] = (
        lambda crash=_crash: _run_document(
            run_sim_serialized(RealtimeWorkload(crash=crash))
        )
    )
for _index in range(10):
    PRODUCERS[f"soak/star/case{_index}"] = lambda index=_index: _soak_case(index)
for _index in range(4):
    PRODUCERS[f"soak/fabric2-reorder/case{_index}"] = (
        lambda index=_index: _soak_case(index, fabric_racks=2, impair="reorder")
    )
for _case, _produce in BENCH_RINGS.items():
    PRODUCERS[f"bench/{_case}"] = _produce
for _rings in (1, 2, 4):
    PRODUCERS[f"bench/scaling/rings-{_rings}"] = (
        lambda rings=_rings: ring_count_window(rings)
    )
PRODUCERS["bench/kv/store-2m-zipf"] = lambda: _kv_store(0.99)
PRODUCERS["bench/kv/store-2m-uniform"] = lambda: _kv_store(0.0)
PRODUCERS["bench/kv/cluster-2x4"] = _kv_cluster

#: Entries asserted by the scenario libraries' own tests, not here.
_ASSERTED_ELSEWHERE = ("chaos/", "kv/")


def test_golden_names_exactly_the_producers():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(PRODUCERS)


@pytest.mark.parametrize(
    "key", [key for key in PRODUCERS if not key.startswith(_ASSERTED_ELSEWHERE)]
)
def test_run_matches_committed_digest(key):
    assert_digest(key, PRODUCERS[key]())


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {key: digest(produce()) for key, produce in PRODUCERS.items()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"recorded {len(PRODUCERS)} digests in {GOLDEN}")
