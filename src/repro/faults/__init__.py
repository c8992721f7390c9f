"""Deterministic fault injection and chaos scenarios.

The faults layer turns the simulator's ad-hoc fault hooks into scripted,
reproducible chaos experiments:

* :mod:`repro.faults.events` — typed fault events (crash, recover,
  crash after append, partition, heal, token drop, loss burst,
  pause/resume, rack power loss).
* :mod:`repro.faults.plan` — :class:`FaultPlan`: a validated,
  time-ordered schedule with a builder DSL and JSON round-trip.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: compiles a
  plan into simulator events via first-class injection points (switch
  frame filters, host receive interceptors, the cluster fault surface,
  ``KvCluster.ring(i)`` included).
* :mod:`repro.faults.drive` — the boot / poll-for-convergence steps
  every checked run (chaos, soak, KV chaos, the conformance oracles)
  shares.
* :mod:`repro.faults.scenarios` — a named scenario library whose
  reports are EVS-checked and byte-identical per seed.
* :mod:`repro.faults.generator` — seeded random *valid* fault-plan
  generation, shared by the hypothesis suite and the soak harness.
* :mod:`repro.faults.explorer` — the one explorer: every schedule
  search (soak, both conformance searches) is one loop and one report.
* :mod:`repro.faults.soak` — the soak harness: N seeded random plans
  under full EVS checking, with minimized replayable counterexamples
  (``python -m repro soak``).

Quickstart::

    from repro.faults import PlanBuilder, FaultInjector
    from repro.sim.build import ClusterBuilder

    cluster = ClusterBuilder().hosts(4).membership().build()
    cluster.start(); cluster.run(0.08)
    plan = PlanBuilder().crash(1, at=0.02).recover(1, at=0.2).build()
    FaultInjector(cluster, plan, seed=7).arm()
    cluster.run(1.0)
    cluster.checker.check(crashed={1})

or from the command line: ``python -m repro chaos partition-heal --seed 7``.
"""

from repro.faults.events import (
    Crash,
    CrashAfterAppend,
    EVENT_TYPES,
    FaultEvent,
    Heal,
    LossBurst,
    Partition,
    Pause,
    RackPowerLoss,
    Recover,
    Resume,
    TokenDrop,
    event_from_dict,
)
from repro.faults.explorer import ExplorationReport, explore
from repro.faults.generator import build_plan, random_steps
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PlanBuilder
from repro.faults.soak import (
    Counterexample,
    check_plan,
    drive_plan,
    run_soak,
)
from repro.faults.scenarios import (
    SCENARIOS,
    ScenarioReport,
    ScenarioSpec,
    run_all,
    run_scenario,
)

__all__ = [
    "Counterexample",
    "Crash",
    "CrashAfterAppend",
    "EVENT_TYPES",
    "ExplorationReport",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Heal",
    "LossBurst",
    "Partition",
    "Pause",
    "PlanBuilder",
    "RackPowerLoss",
    "Recover",
    "Resume",
    "SCENARIOS",
    "ScenarioReport",
    "ScenarioSpec",
    "TokenDrop",
    "build_plan",
    "check_plan",
    "drive_plan",
    "event_from_dict",
    "explore",
    "random_steps",
    "run_all",
    "run_scenario",
    "run_soak",
]
