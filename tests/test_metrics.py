"""Unit tests for metrics: stats and timelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import Timeline, summarize


class TestSummaryStats:
    def test_basic_stats(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == 2.5
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.median == 2.5
        assert stats.count == 4
        assert stats.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentiles(self):
        stats = summarize(np.arange(101.0))
        assert stats.p95 == pytest.approx(95.0)
        assert stats.p99 == pytest.approx(99.0)

    def test_scaled(self):
        stats = summarize([1.0, 2.0]).scaled(1000.0)
        assert stats.mean == 1500.0
        assert stats.count == 2

    def test_row_format(self):
        row = summarize([1.0]).row("warm funcx")
        assert "warm funcx" in row and "mean=" in row


class TestTimeline:
    def test_record_and_read(self):
        tl = Timeline()
        tl.record("pods", 0.0, 1)
        tl.record("pods", 5.0, 3)
        times, values = tl.series("pods")
        assert list(times) == [0.0, 5.0]
        assert list(values) == [1.0, 3.0]
        assert len(tl) == 2

    def test_out_of_order_insert_keeps_sorted(self):
        tl = Timeline()
        tl.record("s", 5.0, 1)
        tl.record("s", 2.0, 2)
        times, values = tl.series("s")
        assert list(times) == [2.0, 5.0]
        assert list(values) == [2.0, 1.0]

    def test_step_resample(self):
        tl = Timeline()
        tl.record("pods", 1.0, 5)
        tl.record("pods", 10.0, 2)
        out = tl.step_resample("pods", [0.0, 1.0, 5.0, 10.0, 20.0])
        assert list(out) == [0.0, 5.0, 5.0, 2.0, 2.0]

    def test_step_resample_empty_series(self):
        tl = Timeline()
        assert list(tl.step_resample("none", [0.0, 1.0])) == [0.0, 0.0]

    def test_bin_mean(self):
        tl = Timeline()
        for t, v in [(0.1, 10.0), (0.9, 20.0), (1.5, 100.0)]:
            tl.record("lat", t, v)
        centers, means = tl.bin_mean("lat", 1.0)
        assert list(centers) == [0.5, 1.5]
        assert list(means) == [15.0, 100.0]

    def test_bin_mean_validation(self):
        with pytest.raises(ValueError):
            Timeline().bin_mean("x", 0.0)

    def test_max_over(self):
        tl = Timeline()
        tl.record("s", 0.0, 3)
        tl.record("s", 1.0, 9)
        assert tl.max_over("s") == 9.0
        with pytest.raises(ValueError):
            tl.max_over("empty")

    def test_rate_of_events(self):
        tl = Timeline()
        for i in range(10):
            tl.record("ev", float(i), 1)
        # events at t=0..9; window 5 looks back from t=9: events at 4..9 = 6
        assert tl.rate_of_events("ev", window=5.0) == pytest.approx(6 / 5.0)
