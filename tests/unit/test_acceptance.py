"""The figure table's shape checks (repro.bench.figures.FIGURES).

Every check gets one hand-built input it passes and one it fails; the
committed results are the entries' files, and the cheap entries
regenerate them byte for byte.
"""

import os

import pytest

import repro.bench.report as report
from repro.bench.experiments import ExperimentPoint
from repro.bench.figures import FIGURES, MEASURED
from repro.bench.report import Table
from repro.cli import main

IMPLS = ("library", "daemon", "spread")


def pt(x, latency=100.0, goodput=100.0, retransmissions=0):
    return ExperimentPoint(
        rate_mbps=x, goodput_mbps=goodput, latency_us=latency, worst5_us=0.0,
        retransmissions=retransmissions, token_rounds=0,
    )


def changed(series, name, *points):
    """``series`` with curve ``name`` replaced by ``points``."""
    return {**series, name: list(points)}


def changed_cell(table, row, column, value):
    rows = [list(cells) for cells in table.rows]
    rows[row][column] = value
    return Table(table.headers, rows)


def loss_curve(*latencies, xs=(0, 5, 25)):
    return [ExperimentPoint(480, 480.0, lat, 0.0, 0, 0, x=x) for x, lat in zip(xs, latencies)]


FIG1 = Table(["participant", "original", "accelerated"], [
    ["participant 0", "1 2 3 4 5 T5 16 17", "1 2 T5 3 4 5 16 17"],
    ["participant 1", "6 7 8 9 10 T10 T20 T20", "6 7 T10 8 9 10 T20 T20"],
    ["participant 2", "11 12 13 14 15 T15 T20 T20", "11 12 T15 13 14 15 T20 T20"],
])
FIG2 = {
    f"{impl}-{proto}": [pt(500, latency=lat, goodput=500), pt(900, goodput=top)]
    for impl in IMPLS
    for proto, lat, top in (("orig", 200.0, 800), ("accel", 100.0, 900))
}
FIG4 = {f"{impl}-accel": [pt(100), pt(2000, goodput=top)]
        for impl, top in zip(IMPLS, (4000, 3000, 2000))}
FIG5 = {
    f"{impl}-{size}": [pt(500, goodput=1000 * scale)]
    for impl, gain in zip(IMPLS, (1.3, 1.6, 2.0))
    for size, scale in (("1350B", 1), ("8850B", gain))
}
FIG8 = {
    "spread-orig": [pt(100, latency=50.0), pt(1000, latency=200.0)],
    "spread-accel": [pt(100, latency=60.0), pt(1000, latency=100.0)],
}
FIG9 = {
    "agreed-orig": loss_curve(50.0, 70.0, 100.0),
    "agreed-accel": loss_curve(60.0, 90.0, 130.0),
    "safe-orig": loss_curve(300.0, 320.0, 100.0),
    "safe-accel": loss_curve(320.0, 330.0, 105.0),
}
FIG12 = {"safe-orig": loss_curve(300.0, 350.0, 500.0), "safe-accel": loss_curve(200.0, 250.0, 300.0)}
#: Rows stored farthest-first: the check must read distance from the data.
FIG13 = {
    name: loss_curve(base + 20, base + 10, base, xs=(3, 2, 1))
    for name, base in (("agreed-orig", 58.0), ("agreed-accel", 75.0),
                       ("safe-orig", 301.0), ("safe-accel", 337.0))
}
HEADLINE = {
    **{f"1g-{impl}-{proto}": [pt(0, goodput=top)]
       for impl, accel in zip(IMPLS, (950, 940, 930))
       for proto, top in (("orig", 800), ("accel", accel))},
    **{f"10g-{impl}-{proto}": [pt(0, goodput=top)]
       for impl, orig, accel in zip(IMPLS, (3000, 2500, 1500), (4600, 3300, 2000))
       for proto, top in (("orig", orig), ("accel", accel))},
    **{f"10g-{impl}-accel-8850B": [pt(0, goodput=top)]
       for impl, top in zip(IMPLS, (6000, 5500, 4000))},
}
MECHANISM = Table(["rate_mbps", "round_orig_us", "round_accel_us", "idle_orig_%", "idle_accel_%"], [
    ["300", "427.7", "179.1", "75.1", "65.2"],
    ["500", "650.3", "196.3", "78.1", "47.9"],
])
WINDOW = {
    "accel_window=30/30": [pt(600, latency=140.0)],
    "accel_window=0/30": [pt(600, latency=500.0)],
    "accel_window=8/30": [pt(600, latency=140.0)],
}
PRIORITY = {"aggressive": [pt(500), pt(1000)], "post_token": [pt(500), pt(1000)]}
BUFFERS = {
    "accel-4KiB": [pt(0, goodput=650.0, retransmissions=7000)],
    "accel-256KiB": [pt(0, goodput=968.0)],
    "orig-256KiB": [pt(0, goodput=779.0)],
}
JUMBO = {"mtu1500-fragmented": [pt(0, goodput=5000.0)], "mtu9000-jumbo": [pt(0, goodput=5100.0)]}
SCALING = Table(["ring_size", "orig_lat_us", "accel_lat_us", "advantage"], [
    ["2", "82.8", "44.2", "1.87x"],
    ["4", "145.7", "64.4", "2.26x"],
    ["16", "477.5", "164.9", "2.90x"],
])
RINGS = Table(["rings", "events", "goodput_mbps", "event_scale", "goodput_scale"], [
    ["1", "75688", "1241.4", "1.00x", "1.00x"],
    ["2", "151376", "2482.8", "2.00x", "2.00x"],
    ["4", "302752", "4965.6", "4.00x", "4.00x"],
])

#: (key, check description) -> (an input it passes, an input it fails).
CASES = {
    ("1", "original: participant 0 sends 1-5, then the token (T5)"):
        (FIG1, changed_cell(FIG1, 0, 1, "1 2 T5 3 4 5 16 17")),
    ("1", "accelerated: participant 0 sends 1 2, the token (T5), then 3-5"):
        (FIG1, changed_cell(FIG1, 0, 2, "1 2 3 4 5 T5 16 17")),
    ("1", "every participant's tokens carry the same seqs in both protocols"):
        (FIG1, changed_cell(FIG1, 1, 2, "6 7 T9 8 9 10 T20 T20")),
    ("2", "1GbE: accelerated max goodput beats original (all impls)"):
        (FIG2, changed(FIG2, "library-accel", pt(500, latency=100.0), pt(900, goodput=800))),
    ("2", "1GbE @500Mbps: accelerated latency < 70% of original"):
        (FIG2, changed(FIG2, "spread-accel", pt(500, latency=150.0), pt(900, goodput=900))),
    ("4", "10GbE hierarchy: library > daemon > spread"):
        (FIG4, changed(FIG4, "daemon-accel", pt(2000, goodput=4500))),
    ("5", "8850B gain ordered spread > daemon > library > 1.2x"):
        (FIG5, changed(FIG5, "library-8850B", pt(500, goodput=1100))),
    ("8", "Safe/10GbE crossover: orig wins at 100 Mbps, accel wins at 1000 Mbps"):
        (FIG8, changed(FIG8, "spread-orig", pt(100, latency=70.0), pt(1000, latency=200.0))),
    ("9", "loss @480Mbps/10GbE: Agreed penalty, Safe parity"):
        (FIG9, changed(FIG9, "agreed-accel", *loss_curve(60.0, 90.0, 110.0))),
    ("12", "loss @350Mbps/1GbE: accelerated Safe wins at every loss rate"):
        (FIG12, changed(FIG12, "safe-accel", *loss_curve(200.0, 350.0, 300.0))),
    ("13", "latency grows with loser-source ring distance"):
        (FIG13, changed(FIG13, "safe-accel", *loss_curve(330.0, 335.0, 337.0, xs=(3, 2, 1)))),
    ("headline", "headline maxima in calibrated ranges"):
        (HEADLINE, changed(HEADLINE, "1g-spread-accel", pt(0, goodput=880))),
    ("headline", "accelerated beats original on every implementation and fabric"):
        (HEADLINE, changed(HEADLINE, "1g-library-orig", pt(0, goodput=960))),
    ("headline", "10GbE hierarchy: library > daemon > spread"):
        (HEADLINE, changed(HEADLINE, "10g-daemon-accel", pt(0, goodput=4700))),
    ("headline", "8850B payloads raise every implementation's maximum > 1.2x"):
        (HEADLINE, changed(HEADLINE, "10g-library-accel-8850B", pt(0, goodput=5000))),
    ("mechanism", "accelerated token rotations are faster at every rate"):
        (MECHANISM, changed_cell(MECHANISM, 1, 2, "700.0")),
    ("mechanism", "accelerated leaves no more dead air at every rate"):
        (MECHANISM, changed_cell(MECHANISM, 0, 4, "75.2")),
    ("ablation-window", "full Accelerated window < 60% of the original protocol's latency"):
        (WINDOW, changed(WINDOW, "accel_window=30/30", pt(600, latency=400.0))),
    ("ablation-priority", "aggressive priority within 1.15x of post-token latency at every rate"):
        (PRIORITY, changed(PRIORITY, "aggressive", pt(500), pt(1000, latency=120.0))),
    ("ablation-buffers", "4KiB buffers force more retransmissions than 256KiB (accelerated)"):
        (BUFFERS, changed(BUFFERS, "accel-4KiB", pt(0, goodput=650.0))),
    ("ablation-buffers", "4KiB buffers cost > 15% of the accelerated 256KiB goodput"):
        (BUFFERS, changed(BUFFERS, "accel-4KiB", pt(0, goodput=900.0, retransmissions=7000))),
    ("ablation-buffers", "256KiB buffers: accelerated goodput beats original"):
        (BUFFERS, changed(BUFFERS, "orig-256KiB", pt(0, goodput=1000.0))),
    ("ablation-jumbo", "jumbo frames keep >= 98% of the fragmented goodput"):
        (JUMBO, changed(JUMBO, "mtu9000-jumbo", pt(0, goodput=4800.0))),
    ("scaling", "original latency grows from the smallest ring to the largest"):
        (SCALING, changed_cell(SCALING, 2, 1, "80.0")),
    ("scaling", "accelerated latency grows from the smallest ring to the largest"):
        (SCALING, changed_cell(SCALING, 2, 2, "40.0")),
    ("scaling", "accelerated wins at every ring size past the smallest"):
        (SCALING, changed_cell(SCALING, 1, 2, "150.0")),
    ("scaling", "the accelerated advantage is larger on the largest ring than the smallest"):
        (SCALING, changed_cell(SCALING, 2, 2, "260.0")),
    ("scaling-rings", "two rings order >= 1.7x one ring's events and goodput"):
        (RINGS, changed_cell(RINGS, 1, 2, "2000.0")),
    ("scaling-rings", "four rings order more events and goodput than two"):
        (RINGS, changed_cell(RINGS, 2, 1, "151376")),
}
CASES.update({
    (key, MEASURED[0]): ({"a": [pt(100)], "b": [pt(200)]}, {"a": [pt(100)], "b": []})
    for key, figure in FIGURES.items()
    if MEASURED in figure.checks
})


def test_every_check_has_hand_built_inputs():
    assert set(CASES) == {
        (key, description)
        for key, figure in FIGURES.items()
        for description, _ in figure.checks
    }


@pytest.mark.parametrize("key, description", sorted(CASES))
def test_check_passes_and_fails_on_hand_built_inputs(key, description):
    passing, failing = CASES[key, description]
    predicate = dict(FIGURES[key].checks)[description]
    assert predicate(passing)
    assert not predicate(failing)


def test_measured_fails_a_point_without_latency():
    assert not MEASURED[1]({"a": [pt(100, latency=0.0)]})


def test_criteria_cover_key_figures():
    for key in ("1", "2", "4", "5", "8", "9", "12", "13", "headline", "mechanism",
                "scaling", "scaling-rings"):
        assert len(FIGURES[key].checks) > (MEASURED in FIGURES[key].checks), key


def test_results_files_are_the_entries_files():
    committed = {name for name in os.listdir(report.RESULTS_DIR) if name.endswith(".txt")}
    assert committed == {figure.filename for figure in FIGURES.values()}
    assert len(FIGURES) == 21


def test_fig01_and_mechanism_regenerate_the_committed_files(tmp_path, monkeypatch, capsys):
    committed = report.RESULTS_DIR
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    for key in ("1", "mechanism"):
        assert main(["figure", key]) == 0
        filename = FIGURES[key].filename
        with open(os.path.join(committed, filename)) as want:
            assert (tmp_path / filename).read_text() == want.read(), filename
    assert "FAIL" not in capsys.readouterr().out
