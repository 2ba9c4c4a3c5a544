"""The serving job queue: canonical-fingerprint dedup ahead of one drain thread.

Two layers of deduplication turn a zipfian request mix into roughly one
solve per automorphism orbit:

* **attach** — a request whose raw edge digest matches a job already in
  flight joins that job (same id, one more client) and pays nothing;
* **hold back** — a request that is merely *isomorphic* to an in-flight
  job (same canonical fingerprint, different digest) needs its own
  certificate (the embedded network spec differs), so it gets its own
  job — but the drain loop admits only one job per fingerprint into
  each batch and holds the rest for the next one, by which time the
  first solve has warmed the shared :class:`~repro.perf.cache.SolverCache`
  and the held job resolves as a tier-0 hit with a transported witness.

The drain thread solves each admitted job in turn with
:func:`~repro.serve.jobs.solve_job`, so spans and counters land on the
server's collector; when that collector journals to a telemetry shard,
it is flushed after every job.  Each job carries the *remaining* budget
at execution time: deadlines are fixed at submission, so time spent
queued is spent budget, and a request that expires mid-queue still
returns the certified tier-5 interval rather than an error.

Obs surface: ``serve.requests`` / ``serve.dedup_hits`` /
``serve.orbit_deferrals`` / ``serve.solves`` counters and the
``serve.queue_depth`` gauge.
"""

from __future__ import annotations

import threading
import time
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
        self._pending: list[Job] = []
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
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - the drain thread must survive
                self._settle_failed(batch, f"{type(exc).__name__}: {exc}")

    def _next_batch(self) -> list[Job] | None:
        """Claim one job per canonical fingerprint; hold isomorphs back."""
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            if not self._pending:
                return None  # closed and fully drained
            batch: list[Job] = []
            keys: set[str] = set()
            held: list[Job] = []
            for job in self._pending:
                if job.key in keys:
                    held.append(job)
                    incr("serve.orbit_deferrals")
                else:
                    keys.add(job.key)
                    batch.append(job)
            self._pending = held
            now = self._clock()
            for job in batch:
                job.state = RUNNING
                job.started = now
            gauge("serve.queue_depth", len(self._pending))
            return batch

    def _execute(self, batch: list[Job]) -> None:
        now = self._clock()
        incr("serve.solves", len(batch))
        col = current()
        results = []
        for job in batch:
            remaining = None
            if job.deadline is not None:
                remaining = max(0.0, job.deadline - now)
            results.append(solve_job({
                "spec": job.spec,
                "cache": self._cache_dir,
                "budget_seconds": remaining,
            }))
            if isinstance(col, ShardCollector):
                # Journal after every job, before it settles: a killed
                # server's shard still holds every job a client saw done.
                col.flush()
        finished = self._clock()
        with self._cond:
            for job, res in zip(batch, results):
                job.finished = finished
                if isinstance(res, dict) and "certificate" in res:
                    job.state = DONE
                    job.certificate = res["certificate"]
                    job.tier = res.get("tier")
                    job.exact = res.get("exact")
                else:
                    job.state = FAILED
                    if isinstance(res, dict):
                        job.error = str(res.get("error", "solver returned no result"))
                    else:
                        job.error = "solver returned no result"
                self._inflight.pop(job.digest, None)
            self._cond.notify_all()

    def _settle_failed(self, batch: list[Job], message: str) -> None:
        with self._cond:
            for job in batch:
                if job.state == RUNNING:
                    job.state = FAILED
                    job.error = message
                self._inflight.pop(job.digest, None)
            self._cond.notify_all()
