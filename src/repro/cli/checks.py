"""``chaos``, ``soak`` and ``conformance``: checked runs and their reports.

Every report these commands write is one of the artifact kinds in
:func:`_kinds`.  The command that writes a report prints its kind's
status line; ``conformance report`` prints the same line when it reads
the file back, and ``conformance replay`` re-runs the kinds that replay.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Set, Tuple


def _write_artifact(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name``, creating the directory."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _emit(
    args: argparse.Namespace,
    report,
    line: str,
    artifact: str,
    details: Sequence[str] = (),
) -> int:
    """Save one checked report under ``--out``, print it, return its
    exit code (0 when ``report.ok``).

    ``--json`` prints the report's canonical JSON and nothing else;
    otherwise a ``PASS``/``FAIL`` status line carrying ``line``, then
    the ``details`` lines as given.  The artifact is written before
    anything is printed, so a closed stdout cannot lose it.
    """
    path = None if args.out is None else _write_artifact(args.out, artifact, report.to_json())
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(f"  {'PASS' if report.ok else 'FAIL'}  {line}")
        for detail in details:
            print(detail)
        if path is not None:
            print(f"report written to {path}")
    return 0 if report.ok else 1


def _run_library(
    args: argparse.Namespace,
    scenarios,
    run: Callable,
    kind: str,
    fields: Callable[[object], str],
) -> int:
    """``chaos`` and ``kv chaos``: list a scenario library, or run one
    scenario / all of them at ``--seed`` and summarise."""
    if args.list or (args.scenario is None and not args.all):
        for name in sorted(scenarios):
            print(f"  {name:18s} {scenarios[name].summary}")
        return 0
    names = sorted(scenarios) if args.all else [args.scenario]
    if names[0] not in scenarios:
        print(
            f"unknown {kind} {names[0]!r}; choose from {sorted(scenarios)}",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for name in names:
        report = run(name, seed=args.seed)
        failures += _emit(
            args,
            report,
            f"{name:18s} seed={report.seed} {fields(report)} "
            f"sim_time={report.sim_time:.3f}s",
            f"{name}_seed{args.seed}.json",
            [f"        violation: {violation}" for violation in report.violations],
        )
    if not args.json:
        print()
        print(f"{len(names) - failures} passed, {failures} failed")
    return 1 if failures else 0


def _add_library_arguments(parser: argparse.ArgumentParser, job: str) -> None:
    """The arguments ``chaos`` and ``kv chaos`` share (see _run_library)."""
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario name (omit with --list or --all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed: same seed, byte-identical report")
    parser.add_argument("--json", action="store_true",
                        help="print the full scenario reports as JSON")
    parser.add_argument("--list", action="store_true",
                        help="list available scenarios")
    parser.add_argument("--all", action="store_true",
                        help=f"run every scenario (CI's {job} job)")


# ----------------------------------------------------------------------
# Artifact kinds: one status line per report, written or read back
# ----------------------------------------------------------------------


def _indented(text: Optional[str]) -> List[str]:
    return [f"        {line}" for line in (text or "").splitlines()]


def _divergence_lines(divergences) -> List[str]:
    return [line for divergence in divergences for line in _indented(divergence.describe())]


def _case_name(case) -> str:
    return f"{json.dumps(case.label)} seed={case.seed} ring={case.ring}"


def _progress(report, case) -> None:
    """Explorer progress: every failing case, and every tenth run."""
    if not case.ok:
        print(f"  case {_case_name(case)}: FAIL")
    elif report.ran % 10 == 0:
        print(f"  {report.ran} case(s) checked")


def _exploration_line(report) -> str:
    return (
        f"{report.source}: enumerated={report.enumerated} deduped={report.deduped} "
        f"ran={report.ran} skipped_budget={report.skipped_budget} "
        f"failures={len(report.failures)}"
    )


def _exploration_details(report) -> List[str]:
    """Each failing case, shrunk, with what its oracle found — the
    differential's divergences, the per-shard EVS verdicts or soak's
    violation — then the merged coverage table."""
    from repro.conformance.variants import ConformanceDivergence

    details: List[str] = []
    for case in report.failures:
        found = case.report
        shrunk = len(case.minimized_steps)
        details.append(f"  case {_case_name(case)} minimized to {shrunk} step(s):")
        divergences = map(ConformanceDivergence.from_dict, found.get("divergences", []))
        details += _divergence_lines(divergences)
        details += [f"        ring {ring}: {text}" for ring, text in found.get("evs", {}).items()]
        if found.get("converged") is False:
            details.append("        the cluster did not reconverge")
        details += _indented(found.get("violation"))
    if report.coverage is not None:
        details.append(report.coverage.format())
    return details


def _divergence_details(report) -> List[str]:
    coverage = report.coverage
    return _divergence_lines(report.divergences) + ([coverage.format()] if coverage else [])


def _differential_line(report) -> str:
    """The workload's fields, then the per-run delivery counts in the
    order the JSON artifact keeps."""
    workload = " ".join(f"{key}={value}" for key, value in report.workload.to_dict().items())
    return (
        f"differential: variants={','.join(report.variants)} seed={report.seed} "
        f"plan_events={len(report.plan_events)} {workload} "
        f"deliveries={dict(sorted(report.deliveries.items()))}"
    )


def _replay_differential(saved) -> List[str]:
    from repro.conformance.differ import run_differential

    report = run_differential(
        saved.workload,
        plan=saved.plan if saved.plan_events else None,
        seed=saved.seed,
        variants=saved.variants,
    )
    return _divergence_lines(report.divergences)


class _Kind(NamedTuple):
    """One artifact kind: the JSON keys that tell it apart, its class, its
    status line and detail lines, and its replay — the lines of the
    failure that reproduces, none when it no longer does (``None`` for a
    kind that does not replay)."""

    keys: Set[str]
    cls: type
    line: Callable[[Any], str]
    details: Callable[[Any], List[str]]
    replay: Optional[Callable[[Any], List[str]]]


def _kinds() -> Tuple[_Kind, ...]:
    from repro.conformance.differ import ConformanceReport
    from repro.faults.explorer import ExplorationReport
    from repro.faults.soak import Counterexample

    return (
        _Kind(
            {"source", "cases"}, ExplorationReport, _exploration_line, _exploration_details, None
        ),
        _Kind(
            {"soak_seed", "minimized_steps"},
            Counterexample,
            lambda c: (
                f"counterexample: soak seed={c.soak_seed} case={c.index} seed={c.seed} "
                f"hosts={c.num_hosts} events={len(c.plan)}"
            ),
            lambda c: _indented(c.violation),
            lambda c: _indented(c.replay()),
        ),
        _Kind(
            {"plan", "variants"},
            ConformanceReport,
            _differential_line,
            _divergence_details,
            _replay_differential,
        ),
    )


def _emit_report(args: argparse.Namespace, report, artifact: str) -> int:
    """:func:`_emit` with the line and details of ``report``'s kind."""
    kind = next(kind for kind in _kinds() if isinstance(report, kind.cls))
    return _emit(args, report, kind.line(report), artifact, kind.details(report))


def _read_back(args: argparse.Namespace) -> int:
    """``conformance report`` prints a saved artifact as the command that
    wrote it did; ``conformance replay`` re-runs one and exits 0 when the
    failure no longer reproduces."""
    if args.artifact is None:
        print(f"conformance {args.mode} needs an artifact file", file=sys.stderr)
        return 2
    with open(args.artifact, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    keys = set(data) if isinstance(data, dict) else set()
    kinds = [kind for kind in _kinds() if kind.keys <= keys]
    if not kinds or (args.mode == "replay" and kinds[0].replay is None):
        readable = (
            "a differential or a soak counterexample" if args.mode == "replay" else
            "an exploration or soak report, a soak counterexample, or a "
            "differential, sharded or realtime report"
        )
        print(f"{args.artifact}: not a report {args.mode} reads ({readable})", file=sys.stderr)
        return 2
    kind = kinds[0]
    report = kind.cls.from_dict(data)
    if args.mode == "report":
        name = os.path.basename(args.artifact)
        return _emit(args, report, kind.line(report), name, kind.details(report))
    print(f"replaying {kind.line(report)}")
    reproduced = kind.replay(report)
    if not reproduced:
        print("  PASS  the failure no longer reproduces")
        return 0
    print("  FAIL  the failure reproduces:")
    print("\n".join(reproduced))
    return 1


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIOS, run_scenario

    return _run_library(
        args,
        SCENARIOS,
        run_scenario,
        "scenario",
        lambda report: (
            f"hosts={report.num_hosts} events={len(report.events)} "
            f"deliveries={sum(report.deliveries.values())}"
        ),
    )


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.faults.soak import counterexamples, run_soak

    report = run_soak(
        plans=args.plans,
        num_hosts=args.hosts,
        seed=args.seed,
        max_steps=args.max_steps,
        minimize=not args.no_minimize,
        fabric_racks=args.fabric_racks,
        impair=args.impair,
        progress=_progress,
    )
    code = _emit_report(args, report, "soak_report.json")
    for counterexample in counterexamples(report) if args.out is not None else ():
        name = f"counterexample_{counterexample.index}.json"
        path = _write_artifact(args.out, name, counterexample.to_json())
        print(f"counterexample written to {path}; "
              f"replay with: python -m repro conformance replay {path}")
    return code


def _ring_counts(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(count) for count in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ring counts, got {text!r}"
        ) from None


def cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance.differ import ConformanceReport, run_differential
    from repro.conformance.explorer import explore_instants
    from repro.conformance.workload import Workload
    from repro.faults.plan import FaultPlan

    variants = tuple(args.variants.split(","))
    progress = None if args.json else _progress

    if args.mode in ("report", "replay"):
        return _read_back(args)

    if args.mode in ("sharded", "sharded-explore"):
        from repro.conformance.multiring import ShardedWorkload, explore_grid

        sharded_workload = ShardedWorkload(
            num_groups=args.groups, hosts_per_ring=args.hosts
        )
        if args.mode == "sharded":
            report = run_differential(
                sharded_workload,
                seed=args.seed,
                variants=[f"rings-{count}" for count in args.rings],
            )
            return _emit_report(args, report, "conformance_sharded.json")

        report = explore_grid(
            num_rings=max(args.rings),
            workload=sharded_workload,
            seed=args.seed,
            budget=args.budget,
            minimize=not args.no_minimize,
            progress=progress,
        )
        return _emit_report(args, report, "conformance_sharded_explore.json")

    if args.mode == "realtime":
        from repro.conformance.realtime import RealtimeWorkload

        workload = RealtimeWorkload(
            num_hosts=args.hosts, burst_size=args.burst_size, crash=args.crash
        )
        report = run_differential(workload)
        return _emit_report(args, report, "conformance_realtime.json")

    workload = Workload(
        num_hosts=args.hosts,
        rounds=args.rounds,
        burst_size=args.burst_size,
        probe_burst=args.probe_burst,
        fabric_racks=args.fabric_racks,
        impair=args.impair or "",
    )

    if args.mode == "run":
        plan = None
        if args.plan is not None:
            with open(args.plan, "r", encoding="utf-8") as handle:
                plan = FaultPlan.from_dicts(json.load(handle))
        report = run_differential(
            workload, plan=plan, seed=args.seed, variants=variants
        )
        return _emit_report(args, report, "conformance_report.json")

    report = explore_instants(
        workload,
        depth=args.depth,
        budget=args.budget,
        seed=args.seed,
        variants=variants,
        max_instants=args.max_instants,
        minimize=not args.no_minimize,
        progress=progress,
    )
    code = _emit_report(args, report, "conformance_explore.json")
    if args.out is not None:
        for index, case in enumerate(report.failures):
            divergence = ConformanceReport.from_dict(case.report).to_json()
            path = _write_artifact(args.out, f"divergence_{index}.json", divergence)
            print(f"divergence written to {path}")
    return code


def register(sub) -> None:
    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario and check EVS invariants",
    )
    _add_library_arguments(chaos, "chaos-smoke")
    chaos.set_defaults(func=cmd_chaos, out=None)

    soak = sub.add_parser(
        "soak",
        help="run seeded random fault plans under EVS checking (soak test)",
    )
    soak.add_argument("--plans", type=int, default=200,
                      help="number of random fault plans to run")
    soak.add_argument("--hosts", type=int, default=4,
                      help="cluster size for every plan")
    soak.add_argument("--seed", type=int, default=1,
                      help="master seed: every case seed derives from it")
    soak.add_argument("--max-steps", type=int, default=8,
                      help="max abstract fault steps per generated plan")
    soak.add_argument("--out", default=None, metavar="DIR",
                      help="write soak_report.json and counterexample_<n>.json "
                           "artifacts into DIR")
    soak.add_argument("--fabric-racks", type=int, default=0, metavar="N",
                      help="soak on a leaf-spine fabric with N racks "
                           "(adds correlated rack_power_loss to the action "
                           "vocabulary; 0 = single-switch star)")
    soak.add_argument("--impair", default=None,
                      choices=("reorder", "jitter", "duplicate"),
                      help="layer a named impairment preset under every plan")
    soak.add_argument("--no-minimize", action="store_true",
                      help="keep failing plans as generated (skip shrinking)")
    soak.set_defaults(func=cmd_soak, json=False)

    conformance = sub.add_parser(
        "conformance",
        help="differential conformance: compare protocol variants' "
             "delivery orders under fault schedules",
    )
    conformance.add_argument(
        "mode",
        choices=[
            "run",
            "explore",
            "replay",
            "report",
            "sharded",
            "sharded-explore",
            "realtime",
        ],
        help="run one differential; explore bounded fault schedules; "
             "replay a saved differential or soak counterexample; print "
             "any saved artifact (report); compare sharded "
             "multi-ring delivery against single-ring (sharded); sweep "
             "depth-1 faults per ring under EVS checking (sharded-explore); "
             "diff the simulator against real loopback daemons (realtime)",
    )
    conformance.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help="artifact file for replay/report modes",
    )
    conformance.add_argument("--hosts", type=int, default=4,
                             help="cluster size for every variant")
    conformance.add_argument("--seed", type=int, default=0,
                             help="master seed: same seed, same runs")
    conformance.add_argument("--variants", default="original,accelerated",
                             help="comma-separated variant list "
                                  "(original, accelerated, spread)")
    conformance.add_argument("--rounds", type=int, default=2,
                             help="burst rounds per host in the main phase")
    conformance.add_argument("--burst-size", type=int, default=12,
                             help="messages per burst")
    conformance.add_argument("--probe-burst", type=int, default=6,
                             help="messages per post-quiesce probe burst")
    conformance.add_argument("--plan", default=None, metavar="FILE",
                             help="run mode: fault plan JSON "
                                  "(FaultPlan.to_dicts format)")
    conformance.add_argument("--rings", type=_ring_counts, default="1,2",
                             help="sharded modes: comma-separated ring "
                                  "counts to compare (sharded) or the max "
                                  "to explore (sharded-explore)")
    conformance.add_argument("--groups", type=int, default=6,
                             help="sharded modes: number of Spread groups")
    conformance.add_argument("--depth", type=int, default=2,
                             help="explore mode: max fault atoms per schedule")
    conformance.add_argument("--budget", type=int, default=24,
                             help="explore modes: max oracle runs")
    conformance.add_argument("--max-instants", type=int, default=4,
                             help="explore mode: harvested instants kept")
    conformance.add_argument("--fabric-racks", type=int, default=0, metavar="N",
                             help="run the workload on a leaf-spine fabric "
                                  "with N racks (0 = single-switch star)")
    conformance.add_argument("--impair", default=None,
                             choices=("reorder", "jitter", "duplicate"),
                             help="layer a named impairment preset under "
                                  "every variant run")
    conformance.add_argument("--crash", action="store_true",
                             help="realtime mode: crash and restart one "
                                  "daemon at the scripted barriers")
    conformance.add_argument("--no-minimize", action="store_true",
                             help="explore modes: keep failing schedules "
                                  "as enumerated (skip shrinking)")
    conformance.add_argument("--json", action="store_true",
                             help="print the full report as JSON")
    conformance.add_argument("--out", default=None, metavar="DIR",
                             help="write report (and divergence) JSON "
                                  "artifacts into DIR")
    conformance.set_defaults(func=cmd_conformance)
