"""Span nesting, timing, and the module-level trace() fast path."""

import itertools

from repro import obs
from repro.obs import Collector


def _fake_clock(step=1.0):
    """A deterministic clock advancing ``step`` per call, starting at 100."""
    counter = itertools.count()
    return lambda: 100.0 + step * next(counter)


class TestSpanTiming:
    def test_duration_from_injected_clock(self):
        # Clock calls: t0 (construction), enter, exit -> duration = 1 tick.
        col = Collector(clock=_fake_clock())
        with col.span("work"):
            pass
        (span,) = col.spans
        assert span["name"] == "work"
        # Exact equality is safe: the injected clock steps in whole ticks.
        assert span["duration"] == 1
        # start is measured relative to collector construction (t0).
        assert span["start"] == 1

    def test_nesting_records_parent_and_depth(self):
        col = Collector(clock=_fake_clock())
        with col.span("outer"):
            with col.span("inner"):
                pass
            with col.span("sibling"):
                pass
        spans = {s["name"]: s for s in col.spans}
        assert spans["outer"]["parent"] is None
        assert spans["outer"]["depth"] == 0
        assert spans["inner"]["parent"] == "outer"
        assert spans["inner"]["depth"] == 1
        assert spans["sibling"]["parent"] == "outer"
        assert spans["sibling"]["depth"] == 1

    def test_spans_complete_in_exit_order(self):
        col = Collector(clock=_fake_clock())
        with col.span("outer"):
            with col.span("inner"):
                pass
        assert [s["name"] for s in col.spans] == ["inner", "outer"]

    def test_attrs_preserved(self):
        col = Collector(clock=_fake_clock())
        with col.span("enumerate", {"n": 3, "network": "B8"}):
            pass
        (span,) = col.spans
        assert span["attrs"] == {"n": 3, "network": "B8"}

    def test_collector_without_span_records(self):
        """keep_spans=False: spans still nest, counters and gauges stay,
        but no finished record is kept."""
        col = Collector(clock=_fake_clock(), keep_spans=False)
        with col.span("outer"):
            with col.span("inner"):
                (inner,) = [s for s in col.open_spans if s["name"] == "inner"]
                assert inner["depth"] == 1
            col.incr("served")
            col.gauge("depth", 3)
        assert col.spans == [] and col.open_spans == []
        assert col.counters == {"served": 1} and col.gauges == {"depth": 3}
        assert col.snapshot()["spans"] == []

    def test_span_closed_on_exception(self):
        col = Collector(clock=_fake_clock())
        try:
            with col.span("outer"):
                with col.span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        spans = {s["name"]: s for s in col.spans}
        assert set(spans) == {"outer", "inner"}
        # The stack unwound: a fresh span is a root again.
        with col.span("after"):
            pass
        assert {s["name"]: s["depth"] for s in col.spans}["after"] == 0


class TestModuleFastPath:
    def test_trace_is_noop_when_disabled(self):
        assert not obs.enabled()
        cm = obs.trace("anything", n=1)
        with cm:
            pass
        # The disabled path hands back one shared singleton.
        assert cm is obs.trace("other")

    def test_trace_records_when_collecting(self):
        with obs.collecting() as col:
            assert obs.enabled()
            assert obs.current() is col
            with obs.trace("step", k=2):
                pass
        assert not obs.enabled()
        (span,) = col.spans
        assert span["name"] == "step"
        assert span["attrs"] == {"k": 2}
        assert span["duration"] >= 0.0

    def test_collecting_restores_previous_collector(self):
        with obs.collecting() as outer:
            with obs.collecting() as inner:
                obs.incr("seen")
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None
        assert inner.counters == {"seen": 1}
        assert outer.counters == {}

    def test_annotate_and_gauge(self):
        with obs.collecting() as col:
            obs.annotate("winning_tier", "tier-2")
            obs.gauge("queue.depth", 7.5)
        assert col.notes == {"winning_tier": "tier-2"}
        assert col.gauges == {"queue.depth": 7.5}

    def test_snapshot_shape(self):
        with obs.collecting() as col:
            with obs.trace("a"):
                obs.incr("c", 2)
        snap = col.snapshot()
        assert set(snap) == {"spans", "counters", "gauges", "notes"}
        assert snap["counters"] == {"c": 2}
        assert [s["name"] for s in snap["spans"]] == ["a"]
