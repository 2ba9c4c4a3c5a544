"""The supervised pool: retries, hang detection, serial fallback, no leaks.

Task functions live at module level (the pool pickles them).  One-shot
failure modes are keyed on a filesystem token so that exactly the first
attempt misbehaves and the retry succeeds, whichever process runs it.
"""

import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.resilience import (
    Budget,
    RetryPolicy,
    SupervisionReport,
    supervised_map,
)
from repro.resilience.faults import arm_crash_token, maybe_crash

_FAST = RetryPolicy(task_timeout=10.0, max_retries=2, backoff=0.01)


def _square(x):
    return x * x


def _raise_once(arg):
    token, x = arg
    try:
        os.unlink(token)
    except FileNotFoundError:
        return x
    raise RuntimeError("transient failure")


def _fail_in_children(arg):
    parent_pid, x = arg
    if os.getpid() != parent_pid:
        raise RuntimeError("this task only works in the parent")
    return x


def _hang_once(arg):
    token, x = arg
    try:
        os.unlink(token)
    except FileNotFoundError:
        return x
    time.sleep(60)
    return x


def _always_raise(_x):
    raise RuntimeError("permanent failure")


def _die_once(arg):
    # The first pool worker to run this consumes the token and SIGKILLs
    # itself mid-task (an OOM kill); the retry finds the token gone.
    token, x = arg
    maybe_crash(token)
    return x * x


def _no_leaked_children(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestHappyPath:
    def test_maps_in_order(self):
        report = SupervisionReport()
        out = supervised_map(
            _square, [1, 2, 3, 4, 5], workers=2, policy=_FAST, report=report
        )
        assert out == [1, 4, 9, 16, 25]
        assert report.complete and report.retries == 0
        assert _no_leaked_children()

    def test_serial_when_single_worker(self):
        report = SupervisionReport()
        out = supervised_map(_square, [3, 4], workers=1, report=report)
        assert out == [9, 16]
        assert report.serial_tasks == 2

    def test_empty_tasks(self):
        assert supervised_map(_square, [], workers=4) == []

    def test_on_result_sees_every_completion(self):
        seen = []
        supervised_map(
            _square, [2, 3], workers=2, policy=_FAST,
            on_result=lambda i, task, value: seen.append((i, task, value)),
        )
        assert sorted(seen) == [(0, 2, 4), (1, 3, 9)]


class TestFailureModes:
    def test_worker_exception_is_retried(self, tmp_path):
        token = str(arm_crash_token(tmp_path / "raise-once"))
        report = SupervisionReport()
        out = supervised_map(
            _raise_once, [(token, 7)], workers=2, policy=_FAST, report=report
        )
        assert out == [7]
        assert report.complete
        assert not os.path.exists(token)
        # One failed pool attempt recorded, no serial degradation.
        assert report.task_attempts == {0: 1}
        assert report.degraded_tasks == []

    def test_persistent_failure_degrades_to_serial(self):
        # Fails in every pool worker (wrong pid) but succeeds in the parent
        # after the retry cap — exactness survives a poisoned pool.
        report = SupervisionReport()
        policy = RetryPolicy(task_timeout=10.0, max_retries=1, backoff=0.01)
        out = supervised_map(
            _fail_in_children, [(os.getpid(), 5)], workers=2,
            policy=policy, report=report,
        )
        assert out == [5]
        assert report.serial_tasks == 1
        assert report.failures >= 2  # initial attempt + retry both failed
        # The degradation history is not swallowed: both failed pool
        # attempts are on record, and the task is named as degraded.
        assert report.task_attempts == {0: 2}
        assert report.degraded_tasks == [0]

    def test_hung_worker_detected_by_timeout(self, tmp_path):
        token = str(arm_crash_token(tmp_path / "hang-once"))
        report = SupervisionReport()
        policy = RetryPolicy(task_timeout=0.5, max_retries=2, backoff=0.01)
        out = supervised_map(
            _hang_once, [(token, 9)], workers=2, policy=policy, report=report
        )
        assert out == [9]
        assert report.timeouts >= 1
        assert _no_leaked_children()

    def test_sigkilled_worker_mid_task_is_reclaimed(self, tmp_path):
        """Worker death, not just worker exception: the process running
        the task is SIGKILLed, its in-flight task is lost, and the pool
        must notice (deadline), retry, and still return the right answer
        without leaking children."""
        token = str(arm_crash_token(tmp_path / "die-once"))
        report = SupervisionReport()
        policy = RetryPolicy(task_timeout=1.0, max_retries=2, backoff=0.01)
        with obs.collecting() as col:
            out = supervised_map(
                _die_once, [(token, 6)], workers=2, policy=policy,
                report=report,
            )
        assert out == [36]
        assert report.complete
        assert not os.path.exists(token)  # the kill actually fired
        # The reclaim is on the record: a lost attempt, a timeout, and
        # the published pool counters all agree.
        assert report.task_attempts == {0: 1}
        assert report.timeouts == 1
        assert report.retries == 1
        assert report.degraded_tasks == []
        assert col.counters["pool.task_timeouts"] == 1
        assert col.counters["pool.retries"] == 1
        assert _no_leaked_children()

    def test_sigkilled_worker_in_a_batch_keeps_order(self, tmp_path):
        # The death of one worker must not disturb the other tasks'
        # results or ordering.
        token = str(arm_crash_token(tmp_path / "die-once-batch"))
        policy = RetryPolicy(task_timeout=1.0, max_retries=2, backoff=0.01)
        tasks = [(token, x) for x in (1, 2, 3, 4)]
        report = SupervisionReport()
        out = supervised_map(
            _die_once, tasks, workers=2, policy=policy, report=report
        )
        assert out == [1, 4, 9, 16]
        assert report.complete
        assert _no_leaked_children()

    def test_parent_exception_terminates_pool(self):
        policy = RetryPolicy(task_timeout=10.0, max_retries=0, backoff=0.01)
        with pytest.raises(RuntimeError, match="permanent failure"):
            supervised_map(_always_raise, [1], workers=2, policy=policy)
        assert _no_leaked_children()


class TestObservability:
    def test_degradation_publishes_pool_counters(self):
        policy = RetryPolicy(task_timeout=10.0, max_retries=1, backoff=0.01)
        with obs.collecting() as col:
            out = supervised_map(
                _fail_in_children, [(os.getpid(), 5)], workers=2,
                policy=policy,
            )
        assert out == [5]
        counters = col.counters
        assert counters["pool.worker_failures"] >= 2
        assert counters["pool.retries"] == 1
        assert counters["pool.serial_degrades"] == 1
        assert _no_leaked_children()

    def test_clean_run_publishes_no_failure_counters(self):
        with obs.collecting() as col:
            out = supervised_map(_square, [2, 3], workers=2, policy=_FAST)
        assert out == [4, 9]
        assert not any(k.startswith("pool.") for k in col.counters)

    def test_timeout_counter(self, tmp_path):
        token = str(arm_crash_token(tmp_path / "hang-once-obs"))
        policy = RetryPolicy(task_timeout=0.5, max_retries=2, backoff=0.01)
        with obs.collecting() as col:
            out = supervised_map(
                _hang_once, [(token, 9)], workers=2, policy=policy
            )
        assert out == [9]
        assert col.counters["pool.task_timeouts"] >= 1
        assert _no_leaked_children()


class TestBudget:
    def test_expired_budget_returns_partial(self):
        report = SupervisionReport()
        out = supervised_map(
            _square, [1, 2, 3], workers=2, policy=_FAST,
            budget=Budget(0), report=report,
        )
        assert out == [None, None, None]
        assert not report.complete
        assert _no_leaked_children()

    def test_serial_path_respects_budget_between_tasks(self):
        t = {"v": 0.0}

        def clock():
            t["v"] += 1.0
            return t["v"]

        report = SupervisionReport()
        out = supervised_map(
            _square, [1, 2, 3, 4], workers=1,
            budget=Budget(2.5, clock=clock), report=report,
        )
        # Polls before each task: the third poll is past the deadline.
        assert out == [1, 4, None, None]
        assert report.completed == 2 and not report.complete

