"""Distributed exhaustive sweep: spawn a fleet, survive its failures.

:func:`distributed_cut_profile` is the distributed counterpart of
:func:`repro.cuts.enumerate_exact.cut_profile`: same arguments-in,
same :class:`~repro.cuts.enumerate_exact.CutProfile` out, and — the
contract everything downstream leans on — **bit-identical values and
witnesses** to the serial sweep whenever the sweep completes, no matter
how many workers crashed, stalled, or were SIGKILLed along the way.

Why the merge is exact: every shard worker accumulates through the one
shared batch kernel with the strict-``<`` witness rule, so a shard's
payload carries the minimum capacity and *lowest achieving mask* of its
range.  Folding completed shards in ascending-``lo`` order with the same
strict-``<`` rule therefore reproduces exactly the state an
uninterrupted serial sweep reaches after its last batch; the complement
fold is applied once, at the very end, just as the serial path does.

Why a crash never corrupts the answer: shard payloads are deterministic
functions of ``(edges, counted, lo, hi)``.  A reclaimed shard recomputes
to identical bytes; a straggler completing after its lease was stolen
delivers the same bytes the thief would; and any *union of completed
shards* — even from a run the budget killed halfway — is the elementwise
minimum over the masks actually examined, i.e. a certified **upper
bound** profile (``complete=False``), exactly the partial-result
contract of the serial solver.

The parent is the last line of defense: when the whole fleet dies, or
shards are quarantined as poison (they killed every worker that touched
them), the parent claims the leftovers itself — in-process, no pool to
poison — so a chaos run still terminates with the exact answer.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

import numpy as np

from ..cuts.enumerate_exact import (
    CutProfile,
    _complement_fold,
    _fingerprint,
    enumeration_shards,
    shard_minima,
)
from ..obs import (
    ShardCollector,
    TraceContext,
    annotate,
    gauge,
    incr,
    load_timeline,
    merge_shards,
    new_run_id,
    trace,
    write_timeline,
)
from ..resilience.budget import Budget
from ..resilience.faults import CrashSchedule
from ..topology.base import Network
from .coordinator import ShardCoordinator
from .worker import shard_payload, worker_main

__all__ = [
    "distributed_cut_profile",
    "dist_key",
    "merge_payloads",
    "merge_to_profile",
]

#: Parent monitor poll interval.
_MONITOR_SLEEP = 0.02


def dist_key(net: Network, counted: np.ndarray, shards: int) -> str:
    """Coordinator key for one distributed sweep.

    The serial checkpoint fingerprint (structure digest + counted digest
    + batch contract version) plus the shard-grid size: a state
    directory resharded to a different grid must re-initialize, because
    shard ids would no longer name the same ranges.
    """
    return f"{_fingerprint(net, counted)}:s{int(shards)}"


def merge_payloads(
    payloads: list[tuple[int, int, dict]], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fold completed-shard payloads into one pre-fold running state.

    ``payloads`` must be ascending by ``lo`` (the coordinator's
    :meth:`~repro.dist.coordinator.ShardCoordinator.completed_payloads`
    order); the strict-``<`` rule then keeps, per count, the lowest
    achieving mask across the union of ranges — the serial sweep's
    choice.  Malformed payloads (wrong length) are skipped: dropping a
    shard can only weaken the bound, never falsify it.
    """
    inf = np.iinfo(np.int64).max
    best = np.full(m + 1, inf, dtype=np.int64)
    best_mask = np.zeros(m + 1, dtype=np.uint64)
    # repro-lint: disable=RL010 -- in-memory fold bounded by the shard count (no sweep work happens here)
    for _lo, _hi, payload in payloads:
        vals = np.asarray(payload.get("best", ()), dtype=np.int64)
        masks = np.asarray(payload.get("best_mask", ()), dtype=np.uint64)
        if vals.shape != (m + 1,) or masks.shape != (m + 1,):
            incr("dist.merge.malformed_payloads")
            continue
        better = vals < best
        best[better] = vals[better]
        best_mask[better] = masks[better]
    return best, best_mask


def merge_to_profile(
    net: Network,
    counted: np.ndarray,
    payloads: list[tuple[int, int, dict]],
) -> CutProfile:
    """A :class:`CutProfile` from completed-shard payloads alone.

    This is the **merge-is-an-upper-bound** contract as a function: any
    set of completed shards — a finished sweep, a budget-killed one, or
    the leftovers in a coordinator directory whose run never came back —
    folds into a profile whose finite entries are certified upper
    bounds, with ``complete=True`` exactly when the union covers the
    whole mask space (and then the profile is bit-identical to the
    serial sweep's).
    """
    counted = np.asarray(counted, dtype=np.int64)
    n = net.num_nodes
    total = 1 << (n - 1) if n else 0
    best, best_mask = merge_payloads(
        sorted(payloads, key=lambda t: t[0]), len(counted)
    )
    covered = sum(int(hi) - int(lo) for lo, hi, _ in payloads)
    best, best_mask = _complement_fold(best, best_mask, n)
    return CutProfile(net, counted, best, best_mask, covered == total)


def _kept_telemetry(tele_dir: Path) -> dict | None:
    """Pointer block of the fleet timeline already in ``tele_dir``, if any."""
    path = tele_dir / "timeline.json"
    try:
        timeline = load_timeline(path)
    except ValueError:
        return None
    run_id = timeline.get("run_id")
    names = timeline.get("shard_files")
    if not isinstance(run_id, str) or not isinstance(names, list):
        return None
    return {
        "run_id": run_id,
        "dir": str(tele_dir),
        "shard_files": [str(tele_dir / str(name)) for name in names],
        "timeline": str(path),
    }


def distributed_cut_profile(
    net: Network,
    counted: np.ndarray | None = None,
    *,
    state_dir: str,
    shards: int = 8,
    workers: int = 2,
    budget: Budget | None = None,
    schedule: CrashSchedule | None = None,
    lease_seconds: float = 15.0,
    max_attempts: int = 3,
    batch_bits: int | None = None,
    status: dict | None = None,
    telemetry: str | None = None,
) -> CutProfile:
    """Exact cut profile by lease-coordinated multi-process enumeration.

    Parameters
    ----------
    net, counted:
        As :func:`~repro.cuts.enumerate_exact.cut_profile` (same node
        limit; ``counted`` defaults to all nodes).
    state_dir:
        Coordinator directory.  A directory holding a same-key state is
        *resumed* — its done shards are not recomputed — so an
        interrupted run picks up where it left off, bit-identically; a
        stale-key state is replaced.
    shards:
        Ceiling on the shard-grid size (tiny mask spaces yield fewer).
    workers:
        Fleet size; each worker is a separate process.
    budget:
        Optional wall-clock budget.  Workers receive the remaining
        seconds at spawn; on expiry the merged done-shard union is
        returned as a partial (``complete=False``) upper-bound profile.
    schedule:
        Optional chaos plan; workers fire it after every claim.
    lease_seconds, max_attempts:
        Lease protocol knobs (see
        :class:`~repro.dist.coordinator.ShardCoordinator`).
    status:
        Optional dict, filled with the final coordinator summary plus
        ``workers_spawned``, ``workers_killed`` and
        ``parent_takeovers`` (and, when tracing, ``telemetry``).
    telemetry:
        Optional directory for fleet tracing.  The parent journals its
        own ``parent.jsonl`` shard there (whose ``dist.run`` span is the
        anchor every worker's spans re-parent under), each worker
        journals ``<worker>.jsonl``, and after the sweep the shards are
        merged into ``timeline.json`` — span tree, summed counters,
        critical path.  The pointer block lands in ``status`` and in the
        ambient collector's ``telemetry`` note, so a traced CLI run's
        timeline names every artifact.  On a state that is already
        settled nothing is swept, so nothing in the directory is
        written; the pointer names the timeline already there, if any.
    """
    if counted is None:
        counted = np.arange(net.num_nodes, dtype=np.int64)
    counted = np.asarray(counted, dtype=np.int64)
    ranges = enumeration_shards(net, shards)  # validates the node limit

    key = dist_key(net, counted, shards)
    coord = ShardCoordinator(
        state_dir, key,
        lease_seconds=lease_seconds, max_attempts=max_attempts,
    )
    coord.ensure(ranges)
    gauge("dist.shards_total", len(ranges))
    # A settled state starts no worker and claims no shard: the run only
    # re-certifies the sweep, and leaves the sweep's telemetry as it was.
    settled = coord.settled()

    edges = net.edges
    remaining = None if budget is None else budget.remaining()
    procs: list[multiprocessing.Process] = []
    killed = 0
    takeovers = 0

    # The parent's own telemetry shard.  Its ``dist.run`` span is the
    # anchor: workers inherit ``(run_id, that span's id)`` as their
    # TraceContext, so the merger re-parents every worker's claims under
    # one root — one fleet, one tree.
    tele_dir = None if telemetry is None else Path(telemetry)
    parent_tele: ShardCollector | None = None
    root_span = None
    wire: dict | None = None
    if tele_dir is not None and not settled:
        parent_tele = ShardCollector(
            tele_dir / "parent.jsonl",
            context=TraceContext(new_run_id()),
            worker="parent",
        )

    with trace(
        "dist.run", network=net.name, shards=len(ranges), workers=workers
    ):
        if parent_tele is not None:
            root_span = parent_tele.span(
                "dist.run",
                {"network": net.name, "shards": len(ranges),
                 "workers": int(workers)},
            )
            root_span.__enter__()
            wire = {
                "dir": str(tele_dir),
                "context": TraceContext(
                    parent_tele.context.run_id, root_span.id
                ).to_wire(),
            }
            parent_tele.flush()
        if ranges and not settled:
            for i in range(max(1, int(workers))):
                p = multiprocessing.Process(
                    target=worker_main,
                    args=(
                        i, str(state_dir), key, edges, counted, remaining,
                        None if schedule is None else str(schedule.root),
                    ),
                    kwargs={
                        "lease_seconds": lease_seconds,
                        "max_attempts": max_attempts,
                        "batch_bits": batch_bits,
                        "telemetry": wire,
                    },
                    daemon=True,
                )
                p.start()
                procs.append(p)
            incr("dist.workers_spawned", len(procs))

            try:
                # Monitor: wait for the fleet to drain, the budget to
                # expire, or everyone to die.  Workers exit on their own
                # when the sweep settles.
                while any(p.is_alive() for p in procs):
                    if budget is not None and budget.expired():
                        incr("dist.budget_expiries")
                        break
                    time.sleep(_MONITOR_SLEEP)
            finally:
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                for p in procs:
                    p.join()
            killed = sum(1 for p in procs if p.exitcode not in (0, None))
            if killed:
                incr("dist.workers_killed", killed)

        # Serial takeover: the parent finishes whatever the fleet left
        # behind — quarantined poison shards (claimed in-process, where
        # a chaos token cannot kill us: the armer-PID guard exempts the
        # arming parent, and a SIGKILLed parent would fail the run
        # anyway, which is the correct report) and shards leased to dead
        # workers, whose leases it waits out.
        while ranges and (budget is None or not budget.expired()):
            lease = coord.claim("parent", include_quarantined=True)
            if lease is None:
                if coord.unfinished() == 0:
                    break
                time.sleep(_MONITOR_SLEEP)
                continue
            takeovers += 1
            incr("dist.parent_takeovers")
            tk_span = None
            if parent_tele is not None:
                tk_span = parent_tele.span(
                    "dist.claim",
                    {"shard": lease.shard, "lo": lease.lo, "hi": lease.hi,
                     "takeover": True},
                )
                tk_span.__enter__()
                parent_tele.event("takeover", shard=lease.shard)
                parent_tele.flush()

            width = max(1, int(lease.hi) - int(lease.lo))

            def _on_batch(done_through: int) -> bool:
                if budget is not None and budget.expired():
                    return False
                progress = (int(done_through) - int(lease.lo)) / width
                return coord.heartbeat(
                    "parent", lease.shard, progress=progress
                )

            result = shard_minima(
                edges, counted, lease.lo, lease.hi,
                batch_bits=batch_bits, on_batch=_on_batch,
            )
            if result is None:
                coord.abandon("parent", lease.shard)
                if tk_span is not None:
                    tk_span.__exit__(None, None, None)
                    parent_tele.flush()
                break
            accepted = coord.complete(
                "parent", lease.shard, shard_payload(*result)
            )
            if accepted and parent_tele is not None:
                # Same accepted-completion counting rule as the workers:
                # the merged fleet total over completed shards must
                # equal the serial sweep's.
                parent_tele.incr(
                    "cuts.enumerate.cuts_evaluated",
                    int(lease.hi) - int(lease.lo),
                )
            if tk_span is not None:
                tk_span.__exit__(None, None, None)
                parent_tele.flush()

        if root_span is not None:
            root_span.__exit__(None, None, None)
            parent_tele.flush()

    payloads = coord.completed_payloads()
    prof = merge_to_profile(net, counted, payloads)
    gauge("dist.shards_done", len(payloads))

    telemetry_info: dict | None = None
    if parent_tele is not None:
        shard_files = sorted(p for p in tele_dir.glob("*.jsonl"))
        timeline = merge_shards(
            shard_files, run_id=parent_tele.context.run_id
        )
        timeline_path = write_timeline(tele_dir / "timeline.json", timeline)
        telemetry_info = {
            "run_id": parent_tele.context.run_id,
            "dir": str(tele_dir),
            "shard_files": [str(p) for p in shard_files],
            "timeline": str(timeline_path),
        }
    elif tele_dir is not None:
        telemetry_info = _kept_telemetry(tele_dir)
    if telemetry_info is not None:
        # Lands in the ambient collector (if any), so a traced CLI run's
        # timeline header points at the shard files and merged timeline.
        annotate("telemetry", telemetry_info)

    summary = coord.summary() or {}
    if status is not None:
        status.update(summary)
        status["workers_spawned"] = len(procs)
        status["workers_killed"] = killed
        status["parent_takeovers"] = takeovers
        status["complete"] = prof.complete
        if telemetry_info is not None:
            status["telemetry"] = telemetry_info
    return prof
