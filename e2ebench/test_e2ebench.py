"""The benchmark's own metric math: percentile choice, due-time latency,
self-time subtraction, host-speed scaling, and the tracer's wrap/unwrap
bookkeeping."""

import statistics
import types

import numpy as np
import pytest

import hostspeed
from benchstats import (
    due_time_latency,
    due_times,
    quartile_spread,
    require_percentile,
    self_times,
    supported_percentile,
)
from tracing import Tracer


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_require_percentile_refuses_an_unsupported_tail():
    values = list(range(99))
    with pytest.raises(ValueError, match="p90"):
        require_percentile(values, 90)
    assert require_percentile(list(range(100)), 90) == pytest.approx(np.percentile(range(100), 90))


def test_due_time_latency_charges_a_stall_to_the_requests_behind_it():
    due = due_times(0.0, rate=10.0, count=3)
    assert due == pytest.approx([0.0, 0.1, 0.2])
    # The first request stalls for 0.3 s; the next two go out late.
    sent = [0.0, 0.30, 0.31]
    done = [0.30, 0.31, 0.32]
    latency, lateness = due_time_latency(due, sent, done)
    assert latency == pytest.approx([0.30, 0.21, 0.12])
    assert lateness == pytest.approx([0.0, 0.20, 0.11])
    # Timed from the send instead, the stall would vanish from requests 2-3.
    assert [d - s for s, d in zip(sent, done)][1:] == pytest.approx([0.01, 0.01])


def test_due_times_rejects_a_zero_rate():
    with pytest.raises(ValueError):
        due_times(0.0, rate=0.0, count=1)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 3.0),
        (3, 1, 2.0, 5.0),  # overlaps span 2: [1, 5] is covered once
        (4, 1, 9.0, 12.0),  # runs past the parent: only [9, 10] counts
        (5, 2, 1.5, 2.5),  # grandchild: charged to span 2, not span 1
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_host_speed_factor_scales_to_the_reference_probe_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factor([ref]) == pytest.approx(1.0)
    # A host at half speed doubles the probe: measured time is halved.
    assert hostspeed.factor([2 * ref]) == pytest.approx(0.5)
    # Probes on either side combine as a geometric mean of speeds.
    assert hostspeed.factor([ref, 4 * ref]) == pytest.approx(0.5)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 12.0)


def test_tracer_wraps_records_nesting_and_restores_originals():
    def inner(x):
        return x + 1

    owner = types.SimpleNamespace(inner=inner)
    tracer = Tracer()
    tracer.wrap(owner, "inner", "layer.inner", after=lambda t, args, result: t.count("calls"))

    def outer(x):
        token = tracer.begin("layer.outer", rid=7)
        try:
            return owner.inner(x)
        finally:
            tracer.end(token)

    assert outer(1) == 2
    (child, parent) = tracer.spans
    assert child[2] == "layer.inner" and parent[2] == "layer.outer"
    assert child[1] == parent[0]  # parent link
    assert child[5] == parent[5] == 7  # request id inherited
    assert tracer.counters["calls"] == 1
    tracer.uninstall()
    assert owner.inner is inner


def test_tracer_wraps_methods_only_where_they_are_defined():
    class Base:
        def method(self):
            return 1

    class Derived(Base):
        pass

    with pytest.raises(KeyError):
        Tracer().wrap(Derived, "method", "x")
    tracer = Tracer()
    tracer.wrap(Base, "method", "x")
    assert Derived().method() == 1 and len(tracer.spans) == 1
    tracer.uninstall()
    assert "method" in Base.__dict__ and Base.method.__name__ == "method"
