"""The job model of the serving API and its solve task.

A *job* is one accepted solve request on its way through the queue:
``queued`` → ``running`` → ``done`` (a certificate is ready) or
``failed`` (the solver raised — distinct from an *expired budget*, which
still certifies the trivial tier-5 interval and lands in ``done``).
Requests parse through :func:`parse_request`, which normalizes the
client's network spec through the same
:func:`~repro.verify.serialize.network_from_spec` round trip the
certificate files use, so a drifted or malformed spec is rejected at the
door (HTTP 400) instead of surfacing as a solver error.

:func:`solve_job` is the unit of work the queue's drain thread runs,
one job at a time, exception-free by contract, returning either a
ready-to-serialize certificate dict or an ``{"error": ...}`` record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..core.fallback import solve_with_fallback
from ..obs import current, trace
from ..resilience.budget import Budget
from ..topology.base import Network
from ..verify.serialize import (
    certificate_to_data,
    network_from_spec,
    network_spec,
    spec_node_count,
)

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "Job",
    "RequestError",
    "parse_request",
    "solve_job",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Default cap on accepted instance sizes.  Solves are exponential in the
#: worst case; anything above this is a policy decision, not a request.
DEFAULT_MAX_NODES = 4096


class RequestError(ValueError):
    """A malformed or out-of-policy solve request (served as HTTP 400)."""


def parse_request(
    body: bytes | str,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    default_timeout: float | None = None,
) -> tuple[dict[str, Any], Network, float | None]:
    """Parse a ``POST /v1/solve`` body into ``(spec, network, timeout)``.

    The body is either a bare network spec or an envelope
    ``{"network": <spec>, "timeout": <seconds>}``.  The returned spec is
    the *normalized* :func:`~repro.verify.serialize.network_spec` of the
    rebuilt network (digest included), so workers rebuild exactly the
    instance that was fingerprinted and served certificates embed the
    same spec the CLI path would.
    """
    try:
        data = json.loads(body if isinstance(body, str) else body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RequestError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RequestError("request body must be a JSON object")
    spec = data.get("network", data)
    if not isinstance(spec, dict):
        raise RequestError('"network" must be a JSON object')
    timeout: Any = default_timeout
    if spec is not data:
        timeout = data.get("timeout", default_timeout)
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0:
            raise RequestError('"timeout" must be a positive number of seconds')
        timeout = float(timeout)
    try:
        # Count before building: an oversized spec costs nothing to refuse.
        num_nodes = spec_node_count(spec)
    except ValueError as exc:
        raise RequestError(f"bad network spec: {exc}") from exc
    if num_nodes > max_nodes:
        raise RequestError(
            f"network has {num_nodes} nodes; this server accepts at "
            f"most {max_nodes}"
        )
    try:
        net = network_from_spec(spec)
    except ValueError as exc:
        raise RequestError(f"bad network spec: {exc}") from exc
    return network_spec(net), net, timeout


@dataclass
class Job:
    """One accepted request, mutated in place under the queue's lock.

    ``deadline`` is the queue-clock instant the request's budget runs
    out, fixed at *submission* — queueing time counts against the
    budget, which is what lets an overloaded server degrade to cheaper
    tiers instead of stacking up full-cost solves.
    """

    id: str
    key: str  # canonical fingerprint, served as ``fingerprint``
    digest: str  # raw edge digest (exact-instance identity)
    # Dropped once the job settles: a long-running server keeps every
    # settled job, and a done job's certificate embeds the same spec.
    spec: dict[str, Any] | None
    timeout: float | None
    submitted: float
    deadline: float | None
    state: str = QUEUED
    clients: int = 1
    started: float | None = None
    finished: float | None = None
    certificate: dict[str, Any] | None = None
    tier: str | None = None
    exact: bool | None = None
    error: str | None = None

    def to_status(self) -> dict[str, Any]:
        """The JSON body of ``GET /v1/jobs/<id>``."""
        status: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "fingerprint": self.key,
            "clients": self.clients,
            "timeout": self.timeout,
        }
        if self.state == DONE:
            status["tier"] = self.tier
            status["exact"] = self.exact
            status["result_url"] = f"/v1/results/{self.id}"
        elif self.state == FAILED:
            status["error"] = self.error
        return status


def solve_job(task: dict[str, Any]) -> dict[str, Any]:
    """Solve one queued request through the degradation cascade.

    ``task`` carries ``spec`` (a normalized network spec),
    ``budget_seconds`` (remaining budget at execution time, ``None`` for
    unlimited — ``0.0`` still certifies the tier-5 trivial interval),
    and ``cache`` (shared :class:`~repro.perf.cache.SolverCache` root or
    ``None``).  Returns ``{"certificate", "tier", "exact"}`` on success
    — the certificate already in :func:`certificate_to_data` form — or
    ``{"error": ...}``; it never raises.
    """
    try:
        net = network_from_spec(task["spec"])
        seconds = task.get("budget_seconds")
        budget = None if seconds is None else Budget(float(seconds))
        with trace("serve.solve", network=net.name, nodes=net.num_nodes):
            cert = solve_with_fallback(net, budget, cache=task.get("cache"))
        # The cascade annotates the winning tier on the active collector;
        # a tier-0 cache hit keeps the *original* solver's evidence
        # strings, so the annotation is the only place "tier-0" shows.
        col = current()
        tier = col.notes.get("winning_tier") if col is not None else None
        if tier is None:
            tier = cert.upper_evidence.split()[0]
        return {
            "certificate": certificate_to_data(net, cert),
            "tier": str(tier),
            "exact": bool(cert.lower == cert.upper),
        }
    except Exception as exc:  # noqa: BLE001 - contract: errors are data, not raises
        return {"error": f"{type(exc).__name__}: {exc}"}
