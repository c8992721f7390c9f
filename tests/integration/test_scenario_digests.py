"""Committed digests of every seeded scenario, oracle and soak drive.

``tests/golden/scenario_digests.json`` maps a run's name to the sha256
of its canonical JSON document (``indent=2, sort_keys=True``, no
trailing newline).  Where the two chaos goldens pin two reports byte
for byte, this file pins *every* runner that boots a cluster, arms a
plan, quiesces, polls for convergence and judges the traces — chaos,
KV chaos, the three oracles, both explorers and the soak drive — so a
change to how a run is driven (a poll cadence, a window, a quiesce
rule) shows up as a moved ``sim_time``, event count or stream, not
merely as "still passes".

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
from pathlib import Path
from unittest import mock

import pytest

from repro.apps.kv.chaos import SCENARIOS as KV_SCENARIOS, run_kv_scenario
from repro.conformance import differ
from repro.conformance.explorer import explore
from repro.conformance.multiring import explore_sharded, run_sharded_differential
from repro.conformance.realtime import RealtimeWorkload, run_sim_serialized
from repro.conformance.variants import VARIANT_NAMES
from repro.conformance.workload import Workload
from repro.evs.checker import EvsViolation
from repro.faults.generator import ACTIONS, FABRIC_ACTIONS, build_plan, random_steps
from repro.faults.plan import PlanBuilder
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.faults.soak import case_seed, drive_plan

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
    real_run_variant = differ.run_variant

    def recording(*args, **kwargs):
        runs.append(real_run_variant(*args, **kwargs))
        return runs[-1]

    with mock.patch.object(differ, "run_variant", recording):
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
PRODUCERS["sharded/differential"] = lambda: run_sharded_differential().to_dict()
PRODUCERS["sharded/explore"] = (
    lambda: explore_sharded(num_rings=2, anchors=(0.25,)).to_dict()
)
PRODUCERS["explore/depth1-budget5"] = (
    lambda: explore(Workload(), depth=1, budget=5).to_dict()
)
for _crash in (False, True):
    PRODUCERS[f"realtime-sim/{'crash' if _crash else 'fault-free'}"] = (
        lambda crash=_crash: _run_document(
            run_sim_serialized(RealtimeWorkload(), crash=crash)
        )
    )
for _index in range(10):
    PRODUCERS[f"soak/star/case{_index}"] = lambda index=_index: _soak_case(index)
for _index in range(4):
    PRODUCERS[f"soak/fabric2-reorder/case{_index}"] = (
        lambda index=_index: _soak_case(index, fabric_racks=2, impair="reorder")
    )

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
