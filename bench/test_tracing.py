"""Self-time accounting of the benchmark tracer, on nested fake spans.

Run from the repository root:  python3 -m pytest bench/test_tracing.py
"""

import types

import pytest

from tracing import Tracer


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0,100] holds middle [10,70] and inner [80,90];
    # middle holds inner [20,50].
    tracer = Tracer(clock=fake_clock([0, 10, 20, 50, 70, 80, 90, 100]))
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    ns = pytest.approx
    assert summary["outer"] == {"calls": 1, "total_s": ns(100e-9), "self_s": ns(30e-9)}
    assert summary["middle"] == {"calls": 1, "total_s": ns(60e-9), "self_s": ns(30e-9)}
    assert summary["inner"] == {"calls": 2, "total_s": ns(40e-9), "self_s": ns(40e-9)}
    assert list(tracer.durations_s("inner")) == [ns(30e-9), ns(10e-9)]


def test_wrapped_calls_nest_count_and_restore():
    def leaf(x):
        return x + 1

    def parent(x):
        return lib.leaf(x) * 2

    lib = types.SimpleNamespace(leaf=leaf, parent=parent)
    counted = types.SimpleNamespace(tick=lambda: None)
    tracer = Tracer(clock=fake_clock([0, 5, 8, 20, 30, 31, 32, 40]))
    lib_seen = []
    tracer.wrap(lib, "parent", "parent")
    tracer.wrap(lib, "leaf", "leaf", on_result=lib_seen.append)
    tracer.wrap_count(counted, "tick", "ticks")
    assert lib.parent(1) == 4
    assert lib.parent(2) == 6
    counted.tick()
    tracer.close()
    assert lib.leaf is leaf and lib.parent is parent and counted.tick() is None
    summary = tracer.summary()
    assert summary["parent"]["calls"] == 2
    assert summary["parent"]["self_s"] == pytest.approx((20 - 3 + 10 - 1) * 1e-9)
    assert summary["leaf"]["total_s"] == pytest.approx(4e-9)
    assert tracer.counts == {"ticks": 1}
    assert lib_seen == [2, 3]


def test_summary_refuses_open_spans():
    tracer = Tracer(clock=fake_clock([0, 1]))
    tracer.enter(tracer.name_id("open"))
    with pytest.raises(RuntimeError):
        tracer.summary()
