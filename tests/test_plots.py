"""Tests for the ASCII plotting helpers."""

import pytest

from repro.experiments import ExperimentResult
from repro.experiments.plots import line_chart, plot_experiment
from repro.obs.monitor import sparkline


class TestLineChart:
    def test_multi_series(self):
        out = line_chart(
            [1, 2, 3, 4],
            {"up": [1, 2, 3, 4], "down": [4, 3, 2, 1]},
            width=20, height=6, title="trend",
        )
        assert "trend" in out
        assert "o up" in out and "x down" in out
        assert "o" in out and "x" in out

    def test_axis_labels(self):
        out = line_chart([0, 10], {"s": [5.0, 15.0]}, y_label="tflops")
        assert "15" in out and "5" in out and "tflops" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {})
        with pytest.raises(ValueError):
            line_chart([1], {"s": [1]})
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1]})
        with pytest.raises(ValueError):
            line_chart([2, 2], {"s": [1, 2]})

    def test_flat_series_ok(self):
        out = line_chart([1, 2], {"s": [3.0, 3.0]})
        assert "o" in out


class TestSparkline:
    """The one sparkline, the dashboard's."""

    def test_shape(self):
        out = sparkline([1, 2, 3, 2, 1])
        assert len(out) == 5
        assert out[2] > out[0]  # higher block for higher value

    def test_flat(self):
        assert len(set(sparkline([5, 5, 5]))) == 1

    def test_empty(self):
        assert sparkline([]) == "(no data)"


class TestPlotExperiment:
    def test_grouped_figure(self):
        r = ExperimentResult("f", "t", ("batch", "p", "tflops"))
        for B in (32, 128):
            for p, v in ((2, 10.0), (4, 8.0), (8, 5.0)):
                r.add(B, p, v + B / 100)
        out = plot_experiment(r)
        assert "32" in out and "128" in out  # two series in legend

    def test_skips_non_numeric(self):
        r = ExperimentResult("f", "t", ("name", "value"))
        r.add("a", 1.0)
        r.add("b", 2.0)
        assert plot_experiment(r) == ""

    def test_skips_nan_rows(self):
        r = ExperimentResult("f", "t", ("x", "y"))
        r.add(1, 1.0)
        r.add(2, float("nan"))
        r.add(3, 3.0)
        # Mismatched lengths after NaN filtering -> no chart, no crash.
        assert isinstance(plot_experiment(r), str)

    def test_real_experiments_plot_or_skip_cleanly(self):
        from repro.experiments import fig06, fig12

        assert plot_experiment(fig06()) != ""
        assert plot_experiment(fig12()) != ""
