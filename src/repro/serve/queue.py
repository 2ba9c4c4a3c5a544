"""The serving job queue: in-flight dedup ahead of one drain thread.

A request whose raw edge digest matches a job already in flight
**attaches** to that job (same id, one more client) and pays nothing.
Any other request gets its own job, even one isomorphic to a job in
flight (``Torus(4, 3)`` behind ``Torus(3, 4)``): its certificate embeds
its own network spec.  Isomorphic work is shared in one place, the
full-set key of the shared :class:`~repro.perf.cache.SolverCache`; the
drain thread solves one job at a time, so a job queued behind its twin
meets the cache the twin just warmed and resolves as a tier-0 hit with
a transported witness.

The drain thread takes the oldest pending job, solves it with
:func:`~repro.serve.jobs.solve_job` (so spans and counters land on the
server's collector), flushes that collector when it journals to a
telemetry shard, and settles the job before taking the next one.  Each
job gets the budget that *remains* when its own solve starts: deadlines
are fixed at submission, so time spent queued is spent budget, and a
request that expires mid-queue still returns the certified tier-5
interval rather than an error.

Obs surface: ``serve.requests`` / ``serve.dedup_hits`` /
``serve.solves`` counters and the ``serve.queue_depth`` gauge.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from ..obs import ShardCollector, current, gauge, incr
from ..perf.canonical import canonical_form
from ..topology.base import Network
from .jobs import DONE, FAILED, RUNNING, Job, solve_job

__all__ = ["JobQueue"]


class JobQueue:
    """In-process queue of solve jobs with a background drain thread.

    ``cache_dir`` is the shared solver-cache root every solve opens
    (``None`` disables tier-0 entirely — used by the conformance tests,
    which need byte-identical cold solves).
    """

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        # repro-lint: disable=RL007 -- request deadlines share the budget clock; injectable for tests
        clock=time.monotonic,
    ) -> None:
        self._cond = threading.Condition()
        self._clock = clock
        self._cache_dir = None if cache_dir is None else str(cache_dir)
        self._jobs: dict[str, Job] = {}
        self._pending: deque[Job] = deque()
        self._inflight: dict[str, str] = {}  # edge digest -> live job id
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission and inspection
    # ------------------------------------------------------------------ #
    def submit(
        self, spec: dict[str, Any], net: Network, *, timeout: float | None = None
    ) -> tuple[Job, bool]:
        """Enqueue a solve for ``net`` (or attach to an in-flight twin).

        Returns ``(job, deduped)``; ``deduped`` is true when the request
        joined an existing job instead of creating one.
        """
        key = canonical_form(net).key
        with self._cond:
            if self._closed:
                raise RuntimeError("job queue is closed")
            incr("serve.requests")
            existing = self._inflight.get(net.edge_digest)
            if existing is not None:
                job = self._jobs[existing]
                job.clients += 1
                incr("serve.dedup_hits")
                return job, True
            self._seq += 1
            now = self._clock()
            job = Job(
                id=f"job-{self._seq:06d}-{net.edge_digest[:10]}",
                key=key,
                digest=net.edge_digest,
                spec=spec,
                timeout=timeout,
                submitted=now,
                deadline=None if timeout is None else now + float(timeout),
            )
            self._jobs[job.id] = job
            self._pending.append(job)
            self._inflight[job.digest] = job.id
            gauge("serve.queue_depth", len(self._pending))
            self._cond.notify_all()
            return job, False

    def get(self, job_id: str) -> Job | None:
        """The job with this id, or ``None``."""
        with self._cond:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until the job settles (done/failed) or ``timeout`` passes."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            while job.state not in (DONE, FAILED):
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return job

    # ------------------------------------------------------------------ #
    # Drain loop
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background drain thread (idempotent)."""
        with self._cond:
            if self._thread is not None:
                return
            self._closed = False
            self._thread = threading.Thread(
                target=self._drain, name="serve-drain", daemon=True
            )
        self._thread.start()

    def stop(self) -> None:
        """Close submission, finish the pending backlog, join the thread."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join()
        self._thread = None

    def _drain(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            self._run(job)

    def _next_job(self) -> Job | None:
        """Claim the oldest pending job; ``None`` once closed and drained."""
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            if not self._pending:
                return None
            job = self._pending.popleft()
            job.state = RUNNING
            job.started = self._clock()
            gauge("serve.queue_depth", len(self._pending))
            return job

    def _run(self, job: Job) -> None:
        """Solve one claimed job on what remains of its budget, then settle it."""
        remaining = None
        if job.deadline is not None:
            remaining = max(0.0, job.deadline - job.started)
        incr("serve.solves")
        try:
            res = solve_job({
                "spec": job.spec,
                "cache": self._cache_dir,
                "budget_seconds": remaining,
            })
            col = current()
            if isinstance(col, ShardCollector):
                # Journal before the job settles: a killed server's shard
                # still holds every job a client saw done.
                col.flush()
        except Exception as exc:  # noqa: BLE001 - the drain thread must survive
            res = {"error": f"{type(exc).__name__}: {exc}"}
        with self._cond:
            job.finished = self._clock()
            job.spec = None
            if "certificate" in res:
                job.state = DONE
                job.certificate = res["certificate"]
                job.tier = res.get("tier")
                job.exact = res.get("exact")
            else:
                job.state = FAILED
                job.error = str(res.get("error", "solver returned no result"))
            self._inflight.pop(job.digest, None)
            self._cond.notify_all()
