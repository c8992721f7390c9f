"""Unit tests for benchmark harness utilities."""

import os

import pytest

from repro.bench.experiments import (
    ExperimentPoint,
    loss_sweep,
    positional_loss_sweep,
    run_point,
)
from repro.bench.report import format_series, format_table
from repro.bench.windows import window_for
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.profiles import DAEMON, LIBRARY, SPREAD


class TestWindows:
    def test_accelerated_window_matches_personal(self):
        config = window_for(LIBRARY, GIGABIT, accelerated=True)
        assert config.accelerated_window == config.personal_window

    def test_original_window_zero(self):
        config = window_for(SPREAD, TEN_GIGABIT, accelerated=False)
        assert config.accelerated_window == 0

    def test_large_payload_uses_smaller_window(self):
        small = window_for(DAEMON, TEN_GIGABIT, accelerated=True, payload_size=8850)
        normal = window_for(DAEMON, TEN_GIGABIT, accelerated=True, payload_size=1350)
        assert small.personal_window < normal.personal_window

    def test_global_window_scales_with_hosts(self):
        config = window_for(LIBRARY, GIGABIT, accelerated=True)
        assert config.global_window == config.personal_window * 8


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "long_header"], [["1", "2"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[2]

    def test_format_series_contains_all_curves(self):
        point = ExperimentPoint(
            rate_mbps=100, goodput_mbps=99.5, latency_us=50.0, worst5_us=80.0,
            retransmissions=0, token_rounds=10,
        )
        text = format_series("Fig X", {"curve-a": [point], "curve-b": [point]})
        assert "curve-a" in text and "curve-b" in text
        assert "99.5" in text

    def test_save_results_writes_file(self, tmp_path, monkeypatch):
        import repro.bench.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        path = report.save_results("test.txt", "content")
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read() == "content\n"


class TestRunPoint:
    def test_point_measures_goodput_near_rate(self):
        point = run_point(
            profile=LIBRARY,
            accelerated=True,
            params=GIGABIT,
            rate_mbps=100,
            warmup=0.01,
            measure=0.03,
        )
        assert point.goodput_mbps == pytest.approx(100, rel=0.1)
        assert point.latency_us > 0
        assert point.retransmissions == 0

    def test_loss_sweeps_plot_the_swept_value(self):
        # Figs. 9-12 are plotted against loss %, Fig. 13 against ring
        # distance: the rows name those, not the (fixed) offered rate.
        losses = loss_sweep(accelerated=True, params=GIGABIT, rate_mbps=50,
                            loss_rates=(0.0, 0.05), profile=LIBRARY)
        distances = positional_loss_sweep(accelerated=True, params=GIGABIT, rate_mbps=50,
                                          distances=(1, 3), profile=LIBRARY)
        assert [point.row()[0].strip() for point in losses] == ["0", "5"]
        assert [point.row()[0].strip() for point in distances] == ["1", "3"]
        assert {point.rate_mbps for point in losses + distances} == {50}

    def test_row_format(self):
        point = ExperimentPoint(
            rate_mbps=480, goodput_mbps=481.2, latency_us=58.4, worst5_us=102.6,
            retransmissions=705, token_rounds=100,
        )
        row = point.row()
        assert row[0].strip() == "480"
        assert row[-1].strip() == "705"
