"""The verdicts of ``scripts/pairs.py``, the paired benchmark comparison,
on synthetic runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

TIGHT = [99.0, 100.0, 100.0, 101.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.0]
WIDE = [40.0, 160.0, 60.0, 140.0, 100.0, 100.0, 50.0, 150.0, 70.0, 130.0]


def _verdict(better, parent, change):
    metric = {"name": "m", "better": better, "bound": 0.25}
    return pairs.verdict(metric, pairs.summary(parent), pairs.summary(change))


@pytest.mark.parametrize("better, worse", [("higher", 0.7), ("lower", 1.3)])
def test_a_median_worse_beyond_the_bound_is_refused(better, worse):
    assert _verdict(better, TIGHT, [v * worse for v in TIGHT]) == "worse beyond bound"
    # worse, but within the bound
    assert _verdict(better, TIGHT, [v * (1 + (worse - 1) / 2) for v in TIGHT]) == "within bound"


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_runs_too_spread_to_tell_are_unresolved(better):
    assert _verdict(better, TIGHT, WIDE) == "unresolved"
    assert _verdict(better, WIDE, TIGHT) == "unresolved"
    # as spread, but no run of one side reaches the other's: the runs tell
    better_side = [v * (5 if better == "higher" else 0.2) for v in WIDE]
    assert _verdict(better, WIDE, better_side) == "within bound"


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_equal_runs_are_within_bound(better):
    assert _verdict(better, TIGHT, list(TIGHT)) == "within bound"


def test_summary_reads_quartiles_and_range():
    q1, med, q3, lo, hi = pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, lo, hi) == (3.0, 1.0, 5.0) and q1 < med < q3


def test_relative_to_a_zero_reference():
    assert pairs.relative(0.0, 0.0) == 0.0
    assert pairs.relative(1.0, 0.0) == math.inf
    assert pairs.relative(-1.0, 0.0) == -math.inf
    assert pairs.relative(3.0, 2.0) == 0.5
    # a metric at 0 on both sides, such as failed ops, is within bound
    assert _verdict("lower", [0.0] * 4, [0.0] * 4) == "within bound"
    assert _verdict("lower", [0.0] * 4, [1.0] * 4) == "worse beyond bound"
