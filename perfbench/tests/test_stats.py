"""Statistics and tracer bookkeeping of the benchmark.

Run with: python3 -m pytest perfbench/tests
"""

import statistics
import time
from types import SimpleNamespace

import pytest

from stats import median, rounds_for, spread, sum_of_medians
from tracer import Tracer
from worker import timed_rounds
from workloads import Item


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([5.0] * 10) == 0.0


def test_median_rejects_empty():
    assert median([3, 1, 2]) == 2.0
    with pytest.raises(ValueError):
        median([])


def test_rounds_for_is_odd_with_a_floor():
    assert rounds_for(24, 4.0) == 7
    assert rounds_for(24, 0.9) == 27
    assert rounds_for(24, 4.5) == 5
    assert rounds_for(1, 4.0) == 3


def test_sum_of_medians_ignores_a_stall():
    steady = [[0.10, 0.11, 0.10], [0.20, 0.21, 0.20]]
    stalled = [[0.10, 1.30, 0.10], [0.95, 0.20, 0.20]]
    assert sum_of_medians(stalled) == sum_of_medians(steady) == pytest.approx(0.30)


def test_self_time_subtracts_child_spans():
    tr = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    wrapped_child = tr.spanned("b.child", child)
    wrapped_parent = tr.spanned("a.parent", parent)
    wrapped_parent()            # inactive: passes through, records nothing
    assert tr.spans == []
    tr.active = True
    wrapped_parent()
    tr.active = False
    s = tr.summary()
    assert s["calls"] == {"a.parent": 1, "b.child": 1}
    assert s["layer_self_s"]["b"] == pytest.approx(s["inclusive_s"]["b.child"])
    assert s["layer_self_s"]["a"] == pytest.approx(
        s["inclusive_s"]["a.parent"] - s["inclusive_s"]["b.child"])
    assert 0.005 < s["layer_self_s"]["a"] < s["layer_self_s"]["b"]


def test_counted_and_none_returns():
    tr = Tracer()
    f = tr.counted("c.f", lambda: 1)
    g = tr.spanned("c.g", lambda: None)
    tr.active = True
    f(), f(), g()
    s = tr.summary()
    assert s["calls"] == {"c.f": 2, "c.g": 1}
    assert s["nones"] == {"c.g": 1}
    assert "c.f" not in s["inclusive_s"]


def test_calls_that_raise_count_as_failed_and_are_not_timed():
    def boom():
        raise RuntimeError("fails every time")

    wl = SimpleNamespace(items=[Item("ok", 0, 2, lambda: 1), Item("bad", 0, 3, boom)])
    seconds, outputs, failed, _ = timed_rounds(wl, 3, lambda r: None)
    assert [len(s) for s in seconds] == [3, 0]
    assert outputs == [1, None]
    assert failed == 9
