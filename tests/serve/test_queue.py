"""Queue semantics under load: dedup, one job at a time, degradation.

The load-bearing claims of the serving layer, asserted at the queue
level where they are deterministic: concurrent clients on one
fingerprint trigger exactly one solve (counted via ``serve.*`` and
``perf.cache.*``), the drain thread settles each job before it takes
the next, on the budget that remains when that job's own solve starts,
an isomorph queued behind its twin lands on the warm cache, and a
request whose budget expires while queued still settles with a
certified bound — never an error.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs import collecting
from repro.serve import queue as queue_module
from repro.serve.jobs import DONE, FAILED, RUNNING
from repro.serve.queue import JobQueue
from repro.topology import butterfly, mesh, torus
from repro.verify.serialize import network_spec


def _submit(queue, net, *, timeout=None):
    return queue.submit(network_spec(net), net, timeout=timeout)


class TestDedup:
    def test_concurrent_clients_one_fingerprint_one_solve(self, tmp_path):
        """Five clients, one instance, exactly one solver execution."""
        net = butterfly(4)
        queue = JobQueue(cache_dir=str(tmp_path / "cache"))
        with collecting() as col:
            # Pile the requests up before the drain thread exists: all
            # five are concurrent from the queue's point of view.
            jobs = [_submit(queue, net) for _ in range(5)]
            first, deduped0 = jobs[0]
            assert deduped0 is False
            assert all(job is first for job, _ in jobs)
            assert all(dup for _, dup in jobs[1:])
            assert first.clients == 5
            queue.start()
            assert queue.wait(first.id, timeout=60).state == DONE
            queue.stop()
            counters = col.counters
        assert counters["serve.requests"] == 5
        assert counters["serve.dedup_hits"] == 4
        assert counters["serve.solves"] == 1
        # One cold solve: two lookups missed, profile + certificate stored.
        assert counters["perf.cache.miss"] == 2
        assert counters["perf.cache.store"] == 2
        assert "perf.cache.hit" not in counters

    def test_finished_job_is_not_attached_to(self, tmp_path):
        """Dedup is in-flight only: a re-request after completion is a
        fresh job (which the cache then answers as tier-0)."""
        net = butterfly(4)
        queue = JobQueue(cache_dir=str(tmp_path / "cache"))
        with collecting() as col:
            queue.start()
            job1, _ = _submit(queue, net)
            queue.wait(job1.id, timeout=60)
            job2, deduped = _submit(queue, net)
            assert job2.id != job1.id and deduped is False
            queue.wait(job2.id, timeout=60)
            queue.stop()
            assert job2.tier == "tier-0"
            assert col.counters["perf.cache.hit"] >= 1

    def test_isomorph_behind_its_twin_hits_the_warm_cache(self, tmp_path):
        """Torus(3,4) and Torus(4,3) share a fingerprint but need their
        own certificates: two jobs, solved in turn, so the second lands
        on the cache the first warmed — one real solve, one tier-0 hit."""
        a, b = torus(3, 4), torus(4, 3)
        queue = JobQueue(cache_dir=str(tmp_path / "cache"))
        with collecting() as col:
            ja, da = _submit(queue, a)
            jb, db = _submit(queue, b)
            assert da is db is False and ja.id != jb.id
            assert ja.key == jb.key
            queue.start()
            assert queue.wait(ja.id, timeout=60).state == DONE
            assert queue.wait(jb.id, timeout=60).state == DONE
            queue.stop()
            counters = col.counters
        assert counters["perf.cache.hit"] >= 1
        assert ja.tier == "tier-1" and jb.tier == "tier-0"
        # Each certificate embeds its *own* instance's spec.
        assert ja.certificate["network"]["edge_digest"] == a.edge_digest
        assert jb.certificate["network"]["edge_digest"] == b.edge_digest


def _fake_result(task):
    """What ``solve_job`` returns, without solving anything."""
    return {"certificate": {"network": task["spec"]}, "tier": "tier-1", "exact": True}


class TestOneJobAtATime:
    """The drain thread claims, solves and settles one job, then the next."""

    def test_job_behind_another_gets_the_budget_that_remains(self, monkeypatch):
        t = [0.0]
        starts = []

        def solve_for_3s(task):
            starts.append((t[0], task["budget_seconds"]))
            t[0] += 3.0
            return _fake_result(task)

        monkeypatch.setattr(queue_module, "solve_job", solve_for_3s)
        queue = JobQueue(cache_dir=None, clock=lambda: t[0])
        first, _ = _submit(queue, butterfly(4), timeout=5.0)
        second, _ = _submit(queue, torus(3, 3), timeout=5.0)
        queue.start()
        queue.stop()
        (t1, budget1), (t2, budget2) = starts
        assert math.isclose(t1, 0.0, abs_tol=0.0) and math.isclose(budget1, 5.0)
        # The second solve starts at t=3 with what is left of its 5 s.
        assert math.isclose(t2, 3.0) and math.isclose(budget2, 2.0)
        assert math.isclose(second.started, 3.0)
        assert math.isclose(first.finished, 3.0)
        assert math.isclose(second.finished, 6.0)
        assert first.state == second.state == DONE

    def test_first_job_settles_while_the_second_still_runs(self, monkeypatch):
        a, b = butterfly(4), torus(3, 3)
        second_running, release = threading.Event(), threading.Event()

        def solve(task):
            if task["spec"]["edge_digest"] == b.edge_digest:
                second_running.set()
                release.wait(60)
            return _fake_result(task)

        monkeypatch.setattr(queue_module, "solve_job", solve)
        queue = JobQueue(cache_dir=None)
        ja, _ = _submit(queue, a)
        jb, _ = _submit(queue, b)
        queue.start()
        try:
            assert second_running.wait(30)
            assert queue.wait(ja.id, timeout=5).state == DONE
            assert jb.state == RUNNING
        finally:
            release.set()
            queue.stop()
        assert jb.state == DONE

    def test_each_certificate_names_its_own_job(self, tmp_path):
        """A three-job backlog settles every result onto its own job."""
        nets = [butterfly(4), torus(3, 3), mesh(2, 3)]
        queue = JobQueue(cache_dir=str(tmp_path / "cache"))
        jobs = [_submit(queue, net)[0] for net in nets]
        queue.start()
        queue.stop()
        for job, net in zip(jobs, nets):
            assert job.state == DONE
            assert job.digest == net.edge_digest
            assert job.certificate["network"]["edge_digest"] == net.edge_digest
            assert job.certificate["quantity"] == f"BW({net.name})"

    def test_raising_solve_fails_its_job_and_the_queue_serves_on(self, monkeypatch):
        a, b = butterfly(4), torus(3, 3)

        def solve(task):
            if task["spec"]["edge_digest"] == a.edge_digest:
                raise RuntimeError("solver crashed")
            return _fake_result(task)

        monkeypatch.setattr(queue_module, "solve_job", solve)
        queue = JobQueue(cache_dir=None)
        ja, _ = _submit(queue, a)
        jb, _ = _submit(queue, b)
        queue.start()
        queue.stop()
        assert ja.state == FAILED and "RuntimeError: solver crashed" in ja.error
        assert ja.finished is not None and ja.spec is None
        assert jb.state == DONE


class TestDegradation:
    def test_budget_expired_mid_queue_still_certifies(self, tmp_path):
        """A request that waits out its whole budget in the queue gets
        the certified trivial interval, not a failure."""
        t = [0.0]
        queue = JobQueue(cache_dir=str(tmp_path / "cache"), clock=lambda: t[0])
        net = butterfly(4)
        job, _ = _submit(queue, net, timeout=5.0)
        assert math.isclose(job.deadline, 5.0, rel_tol=0.0, abs_tol=0.0)
        t[0] = 60.0  # the queue sat on it long past the deadline
        queue.start()
        settled = queue.wait(job.id, timeout=120)
        queue.stop()
        assert settled.state == DONE
        data = settled.certificate
        assert data["lower"] == 0 and data["upper"] == net.num_edges
        assert "tier-5" in data["upper_evidence"]
        assert settled.exact is False

    def test_live_budget_passes_remaining_time(self, tmp_path):
        t = [100.0]
        queue = JobQueue(cache_dir=None, clock=lambda: t[0])
        job, _ = _submit(queue, butterfly(4), timeout=30.0)
        t[0] = 110.0  # 20 s of budget left at execution
        queue.start()
        settled = queue.wait(job.id, timeout=120)
        queue.stop()
        assert settled.state == DONE and settled.exact is True

    def test_solver_error_fails_job_not_drain_thread(self, tmp_path):
        """A poisoned task settles as FAILED; the queue keeps serving."""
        queue = JobQueue(cache_dir=None)
        net = butterfly(4)
        bad, _ = queue.submit({"family": "nope"}, net)
        queue.start()
        assert queue.wait(bad.id, timeout=60).state == FAILED
        assert "ValueError" in bad.error
        # The drain thread survived: later work still completes.
        ok, _ = _submit(queue, torus(3, 3))
        assert queue.wait(ok.id, timeout=60).state == DONE
        queue.stop()


class TestLifecycle:
    def test_stop_drains_backlog(self):
        queue = JobQueue(cache_dir=None)
        jobs = [_submit(queue, butterfly(4))[0], _submit(queue, torus(3, 3))[0]]
        queue.start()
        queue.stop()
        assert all(j.state == DONE for j in jobs)

    def test_closed_queue_refuses_submission(self):
        queue = JobQueue(cache_dir=None)
        queue.start()
        queue.stop()
        with pytest.raises(RuntimeError, match="closed"):
            _submit(queue, butterfly(4))

    def test_unknown_job_lookups(self):
        queue = JobQueue(cache_dir=None)
        assert queue.get("job-nope") is None
        assert queue.wait("job-nope", timeout=0.1) is None
