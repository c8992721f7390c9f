"""``demo`` and ``figure``: one operating point, and the committed results."""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import run_point
from repro.bench.report import save_metrics_json, save_results
from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.obs.export import render_table
from repro.obs.observer import MetricsObserver
from repro.sim.profiles import PROFILES


def cmd_demo(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    params = TEN_GIGABIT if args.network == "10g" else GIGABIT
    print(
        f"{args.profile} / {args.network} / {args.rate:.0f} Mbps / "
        f"{args.payload} B payloads / {args.service} delivery"
    )
    service = DeliveryService[args.service.upper()]
    want_metrics = args.metrics or args.metrics_json is not None
    for accelerated, label in ((False, "original"), (True, "accelerated")):
        observer = MetricsObserver() if want_metrics else None
        point = run_point(
            profile=profile,
            accelerated=accelerated,
            params=params,
            rate_mbps=args.rate,
            payload_size=args.payload,
            service=service,
            observer=observer,
        )
        print(
            f"  {label:12s} goodput {point.goodput_mbps:7.1f} Mbps   "
            f"latency {point.latency_us:8.1f} us   "
            f"worst-5% {point.worst5_us:8.1f} us"
        )
        if observer is not None:
            if args.metrics:
                print()
                print(render_table(observer.registry, title=f"{label} protocol metrics"))
                print()
            if args.metrics_json is not None:
                path = save_metrics_json(f"{args.metrics_json}-{label}.json", observer.registry)
                print(f"  metrics saved to {path}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench.figures import FIGURES

    if args.key != "all" and args.key not in FIGURES:
        print(f"unknown figure {args.key!r}; choose from {list(FIGURES)} or 'all'",
              file=sys.stderr)
        return 2
    keys = list(FIGURES) if args.key == "all" else [args.key]
    failed = 0
    for key in keys:
        figure = FIGURES[key]
        title, data = figure.run()
        text = figure.render(title, data)
        print(text)
        print(f"saved {save_results(figure.filename, text)}")
        for description, ok in figure.check(data):
            print(f"  {'PASS' if ok else 'FAIL'}  {key}: {description}")
            failed += not ok
        print()
    print(f"{len(keys)} figure(s), {failed} failed check(s)")
    return 1 if failed else 0


def register(sub) -> None:
    demo = sub.add_parser("demo", help="compare both protocols at one operating point")
    demo.add_argument("--profile", choices=sorted(PROFILES), default="spread")
    demo.add_argument("--network", choices=["1g", "10g"], default="1g")
    demo.add_argument("--rate", type=float, default=300.0, help="aggregate Mbps")
    demo.add_argument("--payload", type=int, default=1350)
    demo.add_argument("--service", choices=["agreed", "safe"], default="agreed")
    demo.add_argument("--metrics", action="store_true",
                      help="print per-protocol observer metrics tables")
    demo.add_argument("--metrics-json", default=None, metavar="PREFIX",
                      help="save observer metrics snapshots as "
                           "benchmarks/results/PREFIX-<protocol>.json")
    demo.set_defaults(func=cmd_demo)

    figure = sub.add_parser(
        "figure",
        help="regenerate a committed result, save it and check its shape",
    )
    figure.add_argument("key", help="1..13, headline, mechanism, ablation-*, "
                                    "scaling, scaling-rings, or 'all'")
    figure.set_defaults(func=cmd_figure)
