"""Bisection-as-a-service: certified bounds over HTTP.

The serving layer turns the repo's solve pipeline into a concurrent
API: an asyncio HTTP front end (:mod:`repro.serve.server`) accepts
network specs, a dedup-aware job queue (:mod:`repro.serve.queue`)
collapses isomorphic requests onto one solve through the canonical
fingerprints of :mod:`repro.perf.canonical`, and the queue's drain
thread runs the degradation cascade under per-request budgets — so the
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
