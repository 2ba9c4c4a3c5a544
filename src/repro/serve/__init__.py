"""Bisection-as-a-service: certified bounds over HTTP.

The serving layer turns the repo's solve pipeline into a concurrent
API: an asyncio HTTP front end (:mod:`repro.serve.server`) accepts
network specs, a job queue (:mod:`repro.serve.queue`) attaches a
request to an identical one in flight, and the queue's drain thread
runs the degradation cascade one job at a time under per-request
budgets, against a shared solver cache whose full-set keys
(:mod:`repro.perf.canonical`) serve an axis-rotated twin from tier 0 — so the
answer is always a *certificate* (checkable by ``repro-butterfly
verify``), never a timeout error.  Telemetry rides the fleet-tracing
stack of :mod:`repro.obs.telemetry`: live OpenMetrics at ``/metrics``,
a merged span timeline on shutdown.

Start one from the CLI (``repro-butterfly serve``) or in-process::

    queue = JobQueue(cache_dir=".cache")
    server = ServeServer(queue).start()
    client = ServeClient(server.host, server.port)
    accepted, status = client.solve_and_wait({"family": "bn", "params": {"n": 4}})
    certificate_json = client.result_text(accepted["job"])
"""

from .client import ServeClient, ServeError
from .jobs import DONE, FAILED, QUEUED, RUNNING, Job, RequestError, parse_request, solve_job
from .queue import JobQueue
from .server import ServeServer

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "Job",
    "JobQueue",
    "RequestError",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "parse_request",
    "solve_job",
]
