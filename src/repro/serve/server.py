"""The asyncio HTTP front end of bisection-as-a-service.

Hand-rolled HTTP/1.1 over ``asyncio.start_server`` — the repo serves
certificates with zero runtime dependencies beyond the standard
library.  Routes:

* ``POST /v1/solve`` — accept a solve request, return ``202`` with a
  job id (``400`` for malformed specs, never a traceback);
* ``GET /v1/jobs/<id>`` — poll job status; ``?wait=<s>`` long-polls
  off-loop so the event loop never blocks on a solve;
* ``GET /v1/results/<id>`` — the finished ``repro-certificate/1`` JSON,
  byte-identical to what ``repro-butterfly solve --certificate`` writes
  (same dump options), so ``repro-butterfly verify`` accepts it as-is;
* ``GET /metrics`` — OpenMetrics exposition of the live collector
  (queue depth, cache hit/miss, request counters);
* ``GET /healthz`` — liveness.

The server owns the process-global obs collector for its lifetime: a
plain in-memory :class:`~repro.obs.Collector` that keeps counters and
gauges but no finished spans, or — when a telemetry
directory is configured — a journaling
:class:`~repro.obs.telemetry.ShardCollector` whose ``server.jsonl``
shard the drain thread flushes after every job and which merges into
``<dir>/timeline.json`` on shutdown, the same fleet-timeline artifact
the distributed sweep produces.

Request handling is split so that every span opens and closes inside
one synchronous call on the loop thread: asyncio may interleave
*requests*, but it cannot interleave the middle of a span, so the
per-thread span stacks never mis-nest.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse
from pathlib import Path
from typing import Any

from ..obs import Collector, activate, incr, trace
from ..obs.export import openmetrics_lines
from ..obs.telemetry import (
    ShardCollector,
    TraceContext,
    merge_shards,
    new_run_id,
    write_timeline,
)
from .jobs import DEFAULT_MAX_NODES, DONE, FAILED, RequestError, parse_request
from .queue import JobQueue

__all__ = ["ServeServer"]

#: Largest accepted request body; generous for any supported edge list.
_MAX_BODY = 1 << 22

_JSON = "application/json; charset=utf-8"
_OPENMETRICS = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on one long-poll leg; clients re-poll, threads don't pile up.
_MAX_WAIT = 300.0


def _jsonb(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _error(status: int, message: str) -> tuple[int, bytes, str]:
    return status, _jsonb({"error": message}), _JSON


class ServeServer:
    """One HTTP listener in a background thread, fronting a :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_nodes: int = DEFAULT_MAX_NODES,
        default_timeout: float | None = None,
        telemetry: str | None = None,
    ) -> None:
        self.queue = queue
        self.host = host
        self.port = int(port)  # rebound to the real port once listening
        self.max_nodes = int(max_nodes)
        self.default_timeout = default_timeout
        self.run_id = new_run_id()
        self._telemetry_dir = None if telemetry is None else Path(telemetry)
        self.collector: Collector | None = None
        self._prev_collector: Collector | None = None
        self._anchor = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, *, start_queue: bool = True) -> "ServeServer":
        """Bind, start serving in a daemon thread, return once listening.

        ``start_queue=False`` leaves the drain thread to the caller —
        the dedup tests use it to pile requests onto a paused queue.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        if self._telemetry_dir is not None:
            self._telemetry_dir.mkdir(parents=True, exist_ok=True)
            self.collector = ShardCollector(
                self._telemetry_dir / "server.jsonl",
                context=TraceContext(self.run_id),
                worker="parent",
            )
        else:
            # Nothing reads this collector's finished spans, and a
            # long-running server would keep every one.
            self.collector = Collector(keep_spans=False)
        self._prev_collector = activate(self.collector)
        self._anchor = self.collector.span("serve.run", {"host": self.host})
        self._anchor.__enter__()
        if isinstance(self.collector, ShardCollector):
            self.collector.flush()
        if start_queue:
            self.queue.start()
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._serve_thread, args=(ready,), name="serve-http", daemon=True
        )
        self._thread.start()
        ready.wait()
        return self

    def _serve_thread(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = loop.run_until_complete(
            asyncio.start_server(self._handle, self.host, self.port)
        )
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def stop(self) -> None:
        """Drain the queue, stop listening, merge the telemetry timeline."""
        if self._thread is None:
            return
        self.queue.stop()
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None
        if self._anchor is not None:
            self._anchor.__exit__(None, None, None)
            self._anchor = None
        if isinstance(self.collector, ShardCollector):
            self.collector.flush()
            assert self._telemetry_dir is not None
            shards = sorted(self._telemetry_dir.glob("*.jsonl"))
            timeline = merge_shards(shards, run_id=self.run_id)
            write_timeline(self._telemetry_dir / "timeline.json", timeline)
        activate(self._prev_collector)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            request = None
        if request is None:
            status, body, ctype = _error(400, "malformed HTTP request")
        else:
            method, path, query, payload = request
            status, body, ctype = await self._respond(method, path, query, payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        parts = line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return None
        if length < 0 or length > _MAX_BODY:
            return None
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, dict(urllib.parse.parse_qsl(query)), body

    async def _respond(
        self, method: str, path: str, query: dict[str, str], payload: bytes
    ) -> tuple[int, bytes, str]:
        # Long-poll legs block in the default executor, not on the loop.
        if method == "GET" and (
            path.startswith("/v1/jobs/") or path.startswith("/v1/results/")
        ):
            try:
                wait = float(query["wait"])
            except (KeyError, ValueError):
                wait = None
            if wait is not None and wait > 0:
                job_id = path.rsplit("/", 1)[1]
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, self.queue.wait, job_id, min(wait, _MAX_WAIT)
                )
        return self._dispatch(method, path, payload)

    # ------------------------------------------------------------------ #
    # Routes (synchronous: spans open and close without yielding)
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str, path: str, payload: bytes) -> tuple[int, bytes, str]:
        with trace("serve.request", method=method, path=path):
            incr("serve.http_requests")
            if path == "/v1/solve":
                if method != "POST":
                    return _error(405, "use POST /v1/solve")
                return self._post_solve(payload)
            if path.startswith("/v1/jobs/") and method == "GET":
                return self._get_job(path.rsplit("/", 1)[1])
            if path.startswith("/v1/results/") and method == "GET":
                return self._get_result(path.rsplit("/", 1)[1])
            if path == "/metrics" and method == "GET":
                return self._get_metrics()
            if path == "/healthz" and method == "GET":
                return 200, _jsonb({"ok": True, "run_id": self.run_id}), _JSON
            return _error(404, f"no route for {method} {path}")

    def _post_solve(self, payload: bytes) -> tuple[int, bytes, str]:
        try:
            spec, net, timeout = parse_request(
                payload,
                max_nodes=self.max_nodes,
                default_timeout=self.default_timeout,
            )
        except RequestError as exc:
            incr("serve.rejected")
            return _error(400, str(exc))
        try:
            job, deduped = self.queue.submit(spec, net, timeout=timeout)
        except RuntimeError as exc:  # queue closed mid-shutdown
            return _error(503, str(exc))
        return 202, _jsonb(
            {
                "job": job.id,
                "state": job.state,
                "deduped": deduped,
                "fingerprint": job.key,
                "status_url": f"/v1/jobs/{job.id}",
                "result_url": f"/v1/results/{job.id}",
            }
        ), _JSON

    def _get_job(self, job_id: str) -> tuple[int, bytes, str]:
        job = self.queue.get(job_id)
        if job is None:
            return _error(404, f"unknown job {job_id!r}")
        return 200, _jsonb(job.to_status()), _JSON

    def _get_result(self, job_id: str) -> tuple[int, bytes, str]:
        job = self.queue.get(job_id)
        if job is None:
            return _error(404, f"unknown job {job_id!r}")
        if job.state == FAILED:
            return _error(500, job.error or "solve failed")
        if job.state != DONE or job.certificate is None:
            return (
                409,
                _jsonb({"error": "job not finished", "job": job.id, "state": job.state}),
                _JSON,
            )
        # Byte-identical to ``write_certificate``: same dump options, so
        # the body round-trips through ``repro-butterfly verify``.
        text = json.dumps(job.certificate, indent=1, sort_keys=True)
        return 200, text.encode("utf-8"), _JSON

    def _get_metrics(self) -> tuple[int, bytes, str]:
        col = self.collector
        assert col is not None
        doc: dict[str, Any] = {
            "run_id": self.run_id,
            "counters": col.counters,
            "gauges": col.gauges,
        }
        if col.keep_spans:
            doc["spans"] = col.spans
        text = "\n".join(openmetrics_lines(doc)) + "\n"
        return 200, text.encode("utf-8"), _OPENMETRICS
