#!/usr/bin/env python3
"""Compare two result documents of run.py: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (A is the base), the bound from BENCHMARK.json
and a verdict:

* ``better`` / ``worse`` — B's median moved past the bound, in the
  metric's good / bad direction;
* ``within`` — it did not;
* ``unresolved`` — either side's slice-to-slice spread (q3 - q1 over the
  median) is wider than the bound, so the bound cannot be resolved.

Sim-time metrics are exact per seed: the last column marks whether they
are bit-identical (``=``) or not (``!=``) — a simulator speed-up must
leave them identical.  A and B are documents written by
``run.py --out`` (the suite), e.g. one per commit.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def verdict(base: Dict[str, object], other: Dict[str, object], better: str, bound: float) -> str:
    for side in (base, other):
        if "q1" in side and (side["q3"] - side["q1"]) / side["value"] > bound:
            return "unresolved"
    change = other["value"] / base["value"] - 1.0
    gain = change if better == "higher" else -change
    if gain > bound:
        return "better"
    return "worse" if gain < -bound else "within"


def compare(base: Dict[str, object], other: Dict[str, object], spec: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload, base_result in base["workloads"].items():
        other_result = other["workloads"].get(workload)
        if other_result is None:
            continue
        for entry in spec["end_to_end"]:
            a = base_result["e2e"][entry["name"]]
            b = other_result["e2e"][entry["name"]]
            rows.append({
                "workload": workload,
                "metric": entry["name"],
                "unit": entry["unit"],
                "a": a,
                "b": b,
                "ratio": b["value"] / a["value"],
                "bound": entry["bound"],
                "verdict": verdict(a, b, entry["better"], entry["bound"]),
                "exact": ("=" if a["value"] == b["value"] else "!=") if a.get("clock") == "sim" else "",
            })
    return rows


def _cell(metric: Dict[str, object]) -> str:
    text = f"{metric['value']:.5g}"
    if "q1" in metric:
        text += f" [{metric['q1']:.5g}, {metric['q3']:.5g}]"
    return text


def render(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B/A | bound | verdict | sim |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} | {_cell(row['a'])} | "
            f"{_cell(row['b'])} | {row['ratio']:.4f} | {row['bound']:.2f} | "
            f"{row['verdict']} | {row['exact']} |"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(documents[0], documents[1], spec)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
