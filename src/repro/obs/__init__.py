"""Observability: tracing spans, solver counters, run timelines.

The cut/expansion pipeline is a cascade of budgeted exponential solvers
(:mod:`repro.core.fallback`); this package is how a run explains itself.
Three primitives, all zero-dependency:

* **spans** — ``with trace("enumerate", n=3): ...`` records a nestable
  monotonic-clock timing with its parent and attributes;
* **counters/gauges** — ``incr("cuts.bb.nodes_pruned", k)`` named solver
  statistics (cuts enumerated, DP states, B&B prunes, worker retries,
  dropped packets, checkpoint writes), incremented through a
  no-op-when-disabled fast path so hot loops pay ~nothing by default;
* **timelines** — :class:`ShardCollector` journals a process's spans to
  a crash-safe shard file and :func:`merge_shards` folds any set of
  shards into one ``repro-telemetry-timeline/1`` document.  It is the
  one run-record format: a fleet run (``dist run --telemetry``, ``serve
  --telemetry``) merges many shards, and ``solve --trace`` /
  ``fuzz --trace`` write a one-shard timeline whose header adds the
  command, budget state, the degradation tier that won, the result and
  :func:`capture_environment` (git revision, toolchain versions).

Nothing records unless a :class:`Collector` is active
(``with collecting() as col: ...``); the CLI's ``solve --trace PATH``
does exactly that and ``repro-butterfly stats PATH`` reads it back.  See
``docs/observability.md`` for naming conventions and format guarantees.
"""

from .collector import (
    Collector,
    activate,
    annotate,
    collecting,
    current,
    enabled,
    gauge,
    incr,
    trace,
)
from .export import (
    folded_stacks,
    openmetrics_lines,
    write_folded,
    write_openmetrics,
)
from .telemetry import (
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    TIMELINE_KIND,
    ShardCollector,
    TraceContext,
    capture_environment,
    critical_path,
    load_timeline,
    merge_shards,
    new_run_id,
    read_shard,
    validate_timeline,
    write_timeline,
)

__all__ = [
    "Collector",
    "activate",
    "annotate",
    "collecting",
    "current",
    "enabled",
    "gauge",
    "incr",
    "trace",
    "TELEMETRY_KIND",
    "TELEMETRY_VERSION",
    "TIMELINE_KIND",
    "ShardCollector",
    "TraceContext",
    "capture_environment",
    "critical_path",
    "load_timeline",
    "merge_shards",
    "new_run_id",
    "read_shard",
    "validate_timeline",
    "write_timeline",
    "folded_stacks",
    "openmetrics_lines",
    "write_folded",
    "write_openmetrics",
]
