"""Self-tests of the benchmark's own plumbing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END, PER_LAYER = stats.declared(HERE.parent / "BENCHMARK.json")


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "rid": None}


def test_self_time_with_nested_overlapping_and_truncated_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),  # overlaps b
        _span(3, "b", 3.0, 5.0, parent=1),
        _span(4, "c", 9.0, 12.0, parent=1),  # outlives its parent: clipped to [9, 10]
        _span(5, "a1", 1.5, 2.0, parent=2),  # one level deeper
        _span(6, "open", 6.0, None, parent=1),  # never closed: truncated at now
    ]
    self_s = tracing.self_times(spans, now=7.0)
    assert self_s[1] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert self_s[2] == pytest.approx(2.5)
    assert self_s[3] == pytest.approx(2.0)
    assert self_s[4] == pytest.approx(3.0)
    assert self_s[6] == pytest.approx(1.0)
    assert tracing.summarize(spans, now=7.0)["root"]["total"] == pytest.approx(10.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert stats.tail(list(range(19))) is None
    assert stats.tail(list(range(20))) == (50.0, 9)
    assert stats.tail(list(range(100)))[0] == 90.0
    assert stats.tail(list(range(1000))) == (99.0, 989)
    assert stats.tail(list(range(10000))) == (99.9, 9989)


def test_p99_is_unavailable_without_ten_samples_beyond_it():
    assert run.p99(list(range(999))) == 0.0
    assert run.p99(list(range(1000))) == 989


def test_emitted_names_are_wellformed_and_declared():
    assert all(stats.NAME_RE.match(n) for n in [*END_TO_END, *PER_LAYER])
    assert not set(END_TO_END) & set(PER_LAYER)
    assert set(tracing.layer_metrics([], 1)) <= set(PER_LAYER)
    ctx = run.Context("solve-cli", 1, 1.0, False, HERE, {})
    ctx.tally(True, "")
    line = run.result(ctx, dict.fromkeys(END_TO_END, 1.0), END_TO_END)
    assert set(line["metrics"]) == set(END_TO_END) and line["correct"]
    with pytest.raises(ValueError):
        run.result(ctx, {**dict.fromkeys(END_TO_END, 1.0), "bogus": 1.0}, END_TO_END)
    with pytest.raises(ValueError):
        run.result(ctx, {"setup_s": 1.0}, END_TO_END)


def test_tracer_spans_the_cascade_and_restores_it():
    from repro.core import fallback
    from repro.topology import torus

    original = fallback.solve_with_fallback
    tracer = tracing.Tracer().install()
    try:
        fallback.solve_with_fallback(torus(3, 3))
    finally:
        tracer.uninstall()
    assert fallback.solve_with_fallback is original
    assert {"fallback", "enumerate", "checker"} <= {s["name"] for s in tracer.spans}
    values = tracing.layer_metrics(tracer.spans, 1)
    assert values["fallback.wins.tier-1"] == 1
    assert values["enumerate.cuts_per_s"] > 0


def test_generators_are_seeded():
    for make in (workloads.hot_stream, workloads.churn_stream):
        assert make("1", 400) == make("1", 400)
        assert make("1", 400) != make("2", 400)
    assert workloads.cli_pass("1") == workloads.cli_pass("1")
    assert workloads.cli_pass("1") != workloads.cli_pass("2")


def test_churn_reports_its_share_of_repeats():
    specs = workloads.churn_stream("3", 2000)
    fresh = [s for s in specs if s["family"] == "generic"]
    assert 0.05 < workloads.repeat_share(specs) <= 0.10
    assert sum(s is workloads.B16_SPEC for s in specs) / len(specs) == pytest.approx(0.15, abs=0.01)
    distinct = {(s["num_nodes"], *map(tuple, s["edges"])) for s in fresh}
    assert len(distinct) == len({s["name"] for s in fresh})


def test_cli_specs_follow_the_cli():
    assert check.cli_spec(["bn", "3"])["params"] == {"n": 8}
    assert check.cli_spec(["torus", "4", "--checkpoint"])["params"] == {"sides": [4, 4]}


def test_pinned_butterflies_admit_tighter_answers_but_no_looser_ones():
    expected = check.Expectations().interval(check.cli_spec(["bn", "16"]))
    digest = expected[0]
    assert expected[1:] == check.PINNED_BN[16]
    assert check.within((digest, 0, 16), expected)
    assert check.within((digest, 14, 15), expected)
    assert not check.within((digest, 0, 17), expected)
    assert not check.within(("other", 0, 16), expected)
