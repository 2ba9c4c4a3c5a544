"""Client side of the serve workloads: server processes and load loops.

Load comes from this one process with two client threads, so at most two
connections are open at a time.  A request is the three HTTP legs a
client of ``repro-butterfly serve`` makes: ``POST /v1/solve``, a
long-poll on ``GET /v1/jobs/<id>?wait=``, and ``GET /v1/results/<id>``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
CLIENTS = 2
now = time.monotonic


@dataclass
class Record:
    """One request: its spec, timings (monotonic seconds) and outcome."""

    spec: dict
    due: float  # when it was due (closed loop: when it was sent)
    end: float = 0.0
    legs: tuple[float, float, float] | None = None
    tier: str | None = None
    text: str | None = None
    error: str | None = None


def call(port: int, method: str, path: str, body=None) -> tuple[int, bytes]:
    """One HTTP round trip on a fresh connection (the server closes it)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request(port: int, spec: dict, due: float | None = None) -> Record:
    """Submit ``spec``, long-poll it to completion and fetch the certificate."""
    t0 = now()
    rec = Record(spec, t0 if due is None else due)
    try:
        status, raw = call(port, "POST", "/v1/solve", {"network": spec})
        t1 = now()
        if status != 202:
            raise RuntimeError(f"POST /v1/solve: HTTP {status}")
        job = json.loads(raw)["job"]
        status, raw = call(port, "GET", f"/v1/jobs/{job}?wait=120")
        t2 = now()
        state = json.loads(raw) if status == 200 else {}
        if state.get("state") != "done":
            raise RuntimeError(f"GET /v1/jobs: HTTP {status}, {raw[:200]!r}")
        status, raw = call(port, "GET", f"/v1/results/{job}")
        t3 = now()
        if status != 200:
            raise RuntimeError(f"GET /v1/results: HTTP {status}")
        rec.legs, rec.tier, rec.text = (t1 - t0, t2 - t1, t3 - t2), state.get("tier"), raw.decode()
    except (OSError, ValueError, KeyError, RuntimeError, http.client.HTTPException) as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.end = now()
    return rec


def _run_clients(client) -> None:
    threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(port: int, specs: list[dict], seconds: float) -> tuple[list[Record], float]:
    """Each client sends its next request when its last one returns.

    Returns the records and the wall time from start to the last reply.
    """
    records: list[Record] = []
    order = itertools.count()
    lock = threading.Lock()
    t0 = now()
    deadline = t0 + seconds

    def client(_k: int) -> None:
        while now() < deadline:
            with lock:
                i = next(order)
            records.append(request(port, specs[i % len(specs)]))

    _run_clients(client)
    return records, max((r.end for r in records), default=t0) - t0


def open_loop(port: int, specs: list[dict], rate: float, seconds: float):
    """Request ``j`` is due at ``start + j / rate``; client ``j % 2`` sends it.

    Latency counts from the due time, so a stall also delays the
    requests queued behind it.  Returns the records and how late each
    send was (seconds).
    """
    records: list[Record] = []
    lags: list[float] = []
    total = max(1, int(rate * seconds))
    t0 = now() + 0.01

    def client(k: int) -> None:
        for j in range(k, total, CLIENTS):
            due = t0 + j / rate
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            lags.append(max(0.0, now() - due))
            records.append(request(port, specs[j % len(specs)], due))

    _run_clients(client)
    return records, lags


class Server:
    """A ``repro-butterfly serve`` subprocess on a fresh cache directory.

    With ``spans`` set it runs under ``launch_server.py``, which installs
    the span wrappers and writes the spans to that path on shutdown.
    """

    def __init__(self, root: Path, work: Path, env: dict, tag: str, spans: Path | None = None):
        self.cache = work / f"cache-{tag}"
        port_file = work / f"port-{tag}"
        args = ["serve", "--port", "0", "--port-file", str(port_file), "--cache", str(self.cache)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "launch_server.py"), str(spans), *args]
        self._log = open(work / f"server-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._log.close()
            raise

    def _wait_port(self, port_file: Path, timeout: float = 60.0) -> int:
        deadline = now() + timeout
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} before listening")
            try:
                text = port_file.read_text(encoding="utf-8")
            except OSError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise RuntimeError("server wrote no port file")

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = now() + timeout
        while now() < deadline:
            try:
                if call(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def counters(self) -> dict[str, float]:
        """Counter totals from ``/metrics``: ``repro_<name>_total`` as ``name``."""
        _, raw = call(self.port, "GET", "/metrics")
        out = {}
        for line in raw.decode().splitlines():
            name, _, value = line.partition(" ")
            if name.startswith("repro_") and name.endswith("_total"):
                out[name[len("repro_"):-len("_total")]] = float(value)
        return out

    def stop(self) -> tuple[bool, float]:
        """SIGTERM and wait.  Returns ``(clean, peak RSS in MB)``; clean
        means exit code 0 and the listening port released."""
        rss = peak_rss_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        return code == 0 and port_free(self.port), rss


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def port_free(port: int) -> bool:
    """True when nothing listens on ``port`` any more."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((HOST, port))
        except OSError:
            return False
    return True
