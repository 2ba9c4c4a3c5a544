"""Exporters: folded flame stacks and OpenMetrics text exposition.

Two one-way bridges out of the repo's own telemetry formats into the
standard tool ecosystem, both zero-dependency and both fed by any dict
carrying ``spans`` / ``counters`` / ``gauges`` — any run timeline
(:mod:`repro.obs.telemetry`), one-shard or fleet:

* :func:`folded_stacks` renders the span tree in Brendan Gregg's
  *folded stack* format (``root;child;leaf <self-µs>``), the input
  ``flamegraph.pl`` / speedscope / inferno all accept, so "where did
  the wall-clock go" becomes one flame graph away;
* :func:`openmetrics_lines` renders counters and gauges as an
  OpenMetrics / Prometheus text exposition — counters gain the
  ``_total`` suffix, names are sanitized to the metric charset and
  prefixed ``repro_``, the document ends with ``# EOF`` — so a CI job
  or a node exporter's textfile collector can scrape a run's stats
  without parsing anything bespoke.

File-writing variants follow the atomic temp/``os.replace`` discipline
like every other artifact writer in the repo.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Any

__all__ = [
    "folded_stacks",
    "write_folded",
    "openmetrics_lines",
    "write_openmetrics",
]


def folded_stacks(doc: dict[str, Any]) -> list[str]:
    """Render ``doc["spans"]`` as folded flame-graph stacks.

    Each line is ``frame;frame;...;frame <value>`` where the value is
    the span's *self* time in integer microseconds — its duration minus
    the durations of its direct children, clamped at zero (truncated
    children can nominally outlive a truncated parent).  Stacks sharing
    a frame chain aggregate.  Parentage follows span ``id``/``parent_id``
    when present (timelines carry them); spans
    without a resolvable parent are roots.  Lines are sorted, so output
    is deterministic for a given document.
    """
    spans = [s for s in doc.get("spans", []) if isinstance(s, dict)]
    by_id = {s["id"]: s for s in spans if s.get("id") is not None}

    def _frames(span: dict[str, Any]) -> list[str]:
        chain: list[str] = []
        seen: set[Any] = set()
        cur: dict[str, Any] | None = span
        while cur is not None:
            chain.append(str(cur.get("name", "?")))
            pid = cur.get("parent_id")
            if pid is None or pid not in by_id or pid in seen:
                break
            seen.add(pid)
            cur = by_id[pid]
        return chain[::-1]

    child_time: dict[Any, float] = {}
    for s in spans:
        pid = s.get("parent_id")
        if pid is not None and pid in by_id:
            child_time[pid] = child_time.get(pid, 0.0) + float(
                s.get("duration", 0.0)
            )

    folded: dict[str, int] = {}
    for s in spans:
        self_time = float(s.get("duration", 0.0)) - child_time.get(
            s.get("id"), 0.0
        )
        value = max(0, int(round(self_time * 1_000_000)))
        key = ";".join(_frames(s))
        folded[key] = folded.get(key, 0) + value
    return [f"{stack} {value}" for stack, value in sorted(folded.items())]


def write_folded(path: str | os.PathLike, doc: dict[str, Any]) -> Path:
    """Atomically write the folded-stack rendering of ``doc``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text("\n".join(folded_stacks(doc)) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    """Sanitize a dotted repo metric name into the Prometheus charset."""
    clean = _METRIC_CHARS.sub("_", name).strip("_") or "unnamed"
    if clean[0].isdigit():
        clean = "_" + clean
    return f"repro_{clean}"


def openmetrics_lines(doc: dict[str, Any]) -> list[str]:
    """Render ``doc``'s counters and gauges as OpenMetrics text lines.

    Counters become ``repro_<name>_total`` with ``# TYPE ... counter``;
    gauges keep their name with ``# TYPE ... gauge``.  A ``run_id`` in
    the document becomes an info-style gauge label set.  The exposition
    ends with the mandatory ``# EOF`` terminator and is sorted, hence
    deterministic.
    """
    lines: list[str] = []
    run_id = doc.get("run_id")
    if isinstance(run_id, str):
        lines.append("# TYPE repro_run info")
        lines.append(f'repro_run_info{{run_id="{run_id}"}} 1')
    counters = doc.get("counters") or {}
    for name in sorted(counters):
        value = counters[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {int(value)}")
    gauges = doc.get("gauges") or {}
    for name in sorted(gauges):
        value = gauges[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(value):g}")
    spans = doc.get("spans")
    if isinstance(spans, list):
        lines.append("# TYPE repro_timeline_spans gauge")
        lines.append(f"repro_timeline_spans {len(spans)}")
    lines.append("# EOF")
    return lines


def write_openmetrics(path: str | os.PathLike, doc: dict[str, Any]) -> Path:
    """Atomically write the OpenMetrics exposition of ``doc``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text("\n".join(openmetrics_lines(doc)) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path
