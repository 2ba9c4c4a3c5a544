"""A supervised process pool: crash/hang detection, retries, serial fallback.

``multiprocessing.Pool`` alone is brittle for long sweeps: a worker killed
by the OOM killer silently loses its task (the pool respawns the process
but the task never returns), and a hung worker stalls ``pool.map``
forever.  :func:`supervised_map` wraps the pool with the production
behaviors the solvers need:

* every task is submitted with ``apply_async`` and watched against a
  per-task deadline, so crashed *and* hung workers are both detected as
  timeouts;
* failed or timed-out tasks are retried with exponential backoff up to a
  retry cap;
* once a task exhausts its retries — or the pool cannot be created at
  all — it degrades gracefully to in-process serial execution in the
  parent, so the answer is still computed (exactness is preserved; only
  the speedup is lost);
* the pool is terminated and joined on **every** exit path (success,
  worker exception, budget expiry, ``KeyboardInterrupt``), so interrupted
  runs never leak child processes.

Results are reported incrementally through ``on_result`` so callers can
checkpoint completed work ranges as they land.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Any, Callable, Sequence

from ..obs import incr
from .budget import Budget

__all__ = ["RetryPolicy", "SupervisionReport", "supervised_map"]

_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats failing or unresponsive tasks.

    Attributes
    ----------
    task_timeout:
        Seconds a single task may run before it is presumed lost (crashed
        or hung worker); ``None`` disables hang detection.
    max_retries:
        Resubmissions per task before degrading to serial execution.
    backoff, backoff_factor, max_backoff:
        Exponential backoff between resubmissions of the same task:
        ``backoff * backoff_factor**(attempt-1)``, capped at
        ``max_backoff`` seconds.
    """

    task_timeout: float | None = 600.0
    max_retries: int = 2
    backoff: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 30.0

    def delay(self, attempt: int) -> float:
        """Backoff before resubmission number ``attempt`` (1-based)."""
        return min(self.backoff * self.backoff_factor ** (attempt - 1),
                   self.max_backoff)


@dataclass
class SupervisionReport:
    """What the supervisor observed during one :func:`supervised_map` run.

    Beyond the aggregate tallies, two per-task records keep the retry and
    degradation history from being swallowed: ``task_attempts`` maps a
    task index to how many of its pool attempts *failed* (crashed, raised
    or timed out; absent = first submission succeeded), and
    ``degraded_tasks`` lists the tasks that fell back to in-process
    serial execution — either after exhausting their retries or because
    the pool never came up.  The same events are published as ``pool.*``
    obs counters (:mod:`repro.obs`) when a collector is active.
    """

    total: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    serial_tasks: int = 0
    pool_broken: bool = False
    errors: list[str] = field(default_factory=list)
    task_attempts: dict[int, int] = field(default_factory=dict)
    degraded_tasks: list[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every task produced a result."""
        return self.completed == self.total


def supervised_map(
    task_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    policy: RetryPolicy | None = None,
    budget: Budget | None = None,
    on_result: Callable[[int, Any, Any], None] | None = None,
    report: SupervisionReport | None = None,
) -> list[Any]:
    """Map ``task_fn`` over ``tasks`` under supervision.

    Returns one result slot per task, ``None`` for tasks the budget cut
    off (inspect ``report.complete`` to distinguish).  ``task_fn`` must be
    picklable (module-level) and is also called directly in the parent for
    serial fallback, after running ``initializer`` there once.
    """
    policy = policy or RetryPolicy()
    report = report if report is not None else SupervisionReport()
    report.total = len(tasks)
    results: list[Any] = [None] * len(tasks)
    done = [False] * len(tasks)

    parent_ready = False

    def _run_serial(i: int, degraded: bool = False) -> None:
        nonlocal parent_ready
        if initializer is not None and not parent_ready:
            initializer(*initargs)
            parent_ready = True
        if degraded:
            # A pool task landed in the parent: record the transition
            # rather than swallowing it into the aggregate serial count.
            report.degraded_tasks.append(i)
            incr("pool.serial_degrades")
        results[i] = task_fn(tasks[i])
        done[i] = True
        report.serial_tasks += 1
        report.completed += 1
        if on_result is not None:
            on_result(i, tasks[i], results[i])

    def _serial_sweep(degraded: bool = False) -> list[Any]:
        for i in range(len(tasks)):
            if done[i]:
                continue
            if budget is not None and budget.expired():
                break
            _run_serial(i, degraded=degraded)
        return results

    if not tasks:
        return results
    if workers <= 1:
        return _serial_sweep()

    pool = None
    try:
        try:
            pool = Pool(workers, initializer=initializer, initargs=initargs)
        except (OSError, ValueError) as exc:
            report.pool_broken = True
            report.errors.append(f"pool unavailable: {exc}")
            incr("pool.broken")
            return _serial_sweep(degraded=True)

        now = time.monotonic  # repro-lint: disable=RL007 -- task deadlines, not a measurement span
        attempts = [0] * len(tasks)

        def _submit(i: int) -> tuple[Any, float | None]:
            deadline = (
                None if policy.task_timeout is None
                else now() + policy.task_timeout
            )
            return pool.apply_async(task_fn, (tasks[i],)), deadline

        pending: dict[int, tuple[Any, float | None]] = {
            i: _submit(i) for i in range(len(tasks))
        }

        def _sleep(seconds: float) -> None:
            if budget is not None:
                rem = budget.remaining()
                if rem is not None:
                    seconds = min(seconds, rem)
            if seconds > 0:
                time.sleep(seconds)

        def _failed(i: int, why: str) -> None:
            """Retry a lost/failed task, or degrade it to serial."""
            del pending[i]
            attempts[i] += 1
            report.errors.append(f"task {i}: {why}")
            if attempts[i] > policy.max_retries:
                report.task_attempts[i] = attempts[i]
                _run_serial(i, degraded=True)
                return
            report.retries += 1
            report.task_attempts[i] = attempts[i]
            incr("pool.retries")
            _sleep(policy.delay(attempts[i]))
            pending[i] = _submit(i)

        while pending:
            if budget is not None and budget.expired():
                break
            progressed = False
            for i in sorted(pending):
                async_result, deadline = pending[i]
                if async_result.ready():
                    progressed = True
                    try:
                        value = async_result.get()
                    except Exception as exc:  # worker raised
                        report.failures += 1
                        incr("pool.worker_failures")
                        _failed(i, f"worker exception: {exc!r}")
                        continue
                    del pending[i]
                    results[i] = value
                    done[i] = True
                    report.completed += 1
                    if on_result is not None:
                        on_result(i, tasks[i], value)
                elif deadline is not None and now() > deadline:
                    progressed = True
                    report.timeouts += 1
                    incr("pool.task_timeouts")
                    _failed(i, "task timeout (crashed or hung worker)")
            if not progressed:
                _sleep(_POLL_SECONDS)
        return results
    finally:
        if pool is not None:
            # Terminate rather than close: lost tasks from killed workers
            # would make close()+join() wait forever.
            pool.terminate()
            pool.join()
