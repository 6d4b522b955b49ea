"""Unit tests for the experiment result helpers (the experiments
themselves are checked against the paper in test_paper_claims.py)."""

import pytest

from repro.experiments import base
from repro.experiments.base import ExperimentResult, Point, Series


def test_series_helpers():
    series = Series("s", "x", "y")
    series.add(1, 10.0)
    series.add(2, 20.0)
    assert series.y_at(2) == 20.0
    assert series.max_y == 20.0
    with pytest.raises(KeyError):
        series.y_at(3)


def test_result_render_contains_anchors():
    result = ExperimentResult(
        experiment_id="x", title="T",
        series=[Series("s", "KB", "MB/s", [Point(1, 2.0)])],
        scalars={"rate": 12.34}, paper={"rate": 10.0},
        notes=["a note"])
    text = result.render()
    assert "x: T" in text
    assert "12.34" in text
    assert "(paper: 10)" in text
    assert "a note" in text


def test_result_series_lookup():
    result = ExperimentResult("x", "T", series=[Series("a", "x", "y")])
    assert result.series_named("a").name == "a"
    with pytest.raises(KeyError):
        result.series_named("b")


def test_ratio_helper():
    assert base.ratio(5.0, 10.0) == 0.5
    assert base.ratio(5.0, None) is None
    assert base.ratio(5.0, 0) is None
