"""The shard worker loop: claim, heartbeat, compute, complete.

A worker is one process in the fleet spawned by
:func:`repro.dist.run.distributed_cut_profile`.  Its loop is deliberately
tiny:

1. poll the budget — an expired budget abandons the held lease (no
   attempt penalty) and exits;
2. :meth:`~repro.dist.coordinator.ShardCoordinator.claim` a shard —
   which transparently *steals* work from crashed or stalled peers,
   since claiming reclaims any expired lease first;
3. fire the chaos hook (:class:`~repro.resilience.faults.CrashSchedule`)
   — in production a no-op, in chaos runs the point where a planned
   SIGKILL lands;
4. run :func:`~repro.cuts.enumerate_exact.shard_minima` over the leased
   range, heartbeating from the per-batch callback; a failed heartbeat
   means the lease was reclaimed out from under us (we stalled past the
   deadline) and the shard is abandoned mid-compute;
5. :meth:`~repro.dist.coordinator.ShardCoordinator.complete` the shard
   with the pre-fold partial profile.

Workers exit when every shard is done or quarantined, or their budget
expires.  All result-bearing state flows through the coordinator's
journal; a worker's exit status is irrelevant to correctness — which is
the whole point.
"""

from __future__ import annotations

import os
import time

import numpy as np

from pathlib import Path

from ..cuts.enumerate_exact import shard_minima
from ..obs import ShardCollector, TraceContext, activate, incr
from ..resilience.budget import Budget
from ..resilience.faults import CrashSchedule
from .coordinator import ShardCoordinator

__all__ = ["worker_main", "shard_payload"]

#: Parent/worker poll interval while waiting for a lease to free up.
_IDLE_SLEEP = 0.02


def shard_payload(best: np.ndarray, best_mask: np.ndarray) -> dict:
    """JSON-safe completion payload for one shard's pre-fold state."""
    return {
        "best": [int(x) for x in best],
        "best_mask": [int(x) for x in best_mask],
    }


def worker_main(
    index: int,
    root: str,
    key: str,
    edges: np.ndarray,
    counted: np.ndarray,
    remaining_seconds: float | None,
    schedule_root: str | None = None,
    *,
    lease_seconds: float = 15.0,
    max_attempts: int = 3,
    batch_bits: int | None = None,
    telemetry: dict | None = None,
) -> None:
    """Run one shard worker until the sweep settles or the budget expires.

    Designed as a :class:`multiprocessing.Process` target, so everything
    it needs arrives as plain arguments.  ``remaining_seconds`` (not a
    :class:`~repro.resilience.budget.Budget`) crosses the process
    boundary because budgets carry injected clocks that may not pickle;
    the worker rebuilds its own deadline, and ``CLOCK_MONOTONIC`` being
    system-wide on Linux keeps it aligned with the parent's.

    ``telemetry`` (``{"dir": path, "context": TraceContext wire dict}``)
    opts the worker into fleet tracing: a
    :class:`~repro.obs.telemetry.ShardCollector` journaling to
    ``dir/<worker>.jsonl`` becomes the process-global collector, so
    every ``incr``/``trace`` in the worker lands in its shard file.  The
    ordering is deliberate: each ``dist.claim`` span is **flushed open**
    before the chaos hook fires, so a SIGKILL mid-shard leaves a durable
    open-span marker the timeline merger reports as truncated.
    """
    coord = ShardCoordinator(
        root, key, lease_seconds=lease_seconds, max_attempts=max_attempts
    )
    budget = (
        Budget.unlimited()
        if remaining_seconds is None
        else Budget(float(remaining_seconds))
    )
    schedule = CrashSchedule(schedule_root) if schedule_root else None
    name = f"w{int(index)}.{os.getpid()}"
    claims = 0
    tele: ShardCollector | None = None
    if telemetry is not None:
        tele = ShardCollector(
            Path(telemetry["dir"]) / f"{name}.jsonl",
            context=TraceContext.from_wire(telemetry.get("context")),
            worker=name,
        )
        # Process-global for the life of this worker; teardown is exit.
        activate(tele)
        tele.flush()

    def _flush() -> None:
        if tele is not None:
            tele.flush()

    while True:
        if budget.expired():
            incr("dist.worker.budget_exits")
            _flush()
            return
        lease = coord.claim(name)
        if lease is None:
            if coord.unfinished() == 0:
                _flush()
                return
            # Remaining shards are leased to peers or cooling off in
            # backoff; wait for a lease to expire or the sweep to settle.
            time.sleep(_IDLE_SLEEP)
            continue
        incr("dist.worker.claims")
        span = (
            tele.span(
                "dist.claim",
                {"shard": lease.shard, "lo": lease.lo, "hi": lease.hi},
            )
            if tele is not None
            else None
        )
        if span is not None:
            span.__enter__()
            tele.event("claim", shard=lease.shard)
            # Durable open-span marker *before* the kill point below.
            tele.flush()
        if schedule is not None:
            # Chaos hook, keyed to this worker's claim ordinal: a doomed
            # worker dies here, lease in hand, for the fleet to steal.
            schedule.maybe_crash(int(index), claims)
        claims += 1
        width = max(1, int(lease.hi) - int(lease.lo))

        def _on_batch(done_through: int) -> bool:
            # RL010: the budget is polled on every batch of the shard
            # sweep, and the heartbeat doubles as the lease liveness
            # check — False abandons the shard mid-compute.
            if budget.expired():
                return False
            progress = (int(done_through) - int(lease.lo)) / width
            ok = coord.heartbeat(name, lease.shard, progress=progress)
            if tele is not None:
                tele.gauge(f"dist.shard.{lease.shard}.progress", progress)
                tele.flush()
            return ok

        result = shard_minima(
            edges, counted, lease.lo, lease.hi,
            batch_bits=budget.batch_bits(batch_bits)
            if batch_bits is not None else None,
            on_batch=_on_batch,
        )
        if result is None:
            # Budget expiry or a stolen lease; either way the shard is
            # someone else's problem now (abandon is a no-op if the
            # lease is already gone).
            coord.abandon(name, lease.shard)
            incr("dist.worker.abandons")
            if span is not None:
                tele.event("abandon", shard=lease.shard)
                span.__exit__(None, None, None)
                tele.flush()
            if budget.expired():
                incr("dist.worker.budget_exits")
                _flush()
                return
            continue
        best, best_mask = result
        accepted = coord.complete(
            name, lease.shard, shard_payload(best, best_mask)
        )
        if accepted:
            # Counted only on *accepted* completion, so the fleet's
            # merged total over the completed shard union equals the
            # serial sweep's — a straggler losing the completion race
            # must not double-count its range.
            incr("cuts.enumerate.cuts_evaluated", int(lease.hi) - int(lease.lo))
        incr("dist.worker.completions")
        if span is not None:
            tele.event("complete", shard=lease.shard, accepted=accepted)
            span.__exit__(None, None, None)
            tele.flush()
