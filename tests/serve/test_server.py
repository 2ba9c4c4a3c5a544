"""HTTP surface of the serving API: routes, status codes, telemetry.

Each test runs a real listener on a loopback port and talks to it with
the stdlib client — no mocked transport, the same bytes CI's smoke mix
sends.
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import load_timeline, validate_timeline
from repro.serve import JobQueue, ServeClient, ServeError, ServeServer
from repro.topology import torus

BN4 = {"family": "bn", "params": {"n": 4}}
TORUS34 = {"family": "torus", "params": {"sides": [3, 4]}}
TORUS43 = {"family": "torus", "params": {"sides": [4, 3]}}


@pytest.fixture()
def server(tmp_path):
    srv = ServeServer(
        JobQueue(cache_dir=str(tmp_path / "cache")), port=0
    ).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.host, server.port)


class TestRoutes:
    def test_healthz(self, client, server):
        body = client.healthz()
        assert body["ok"] is True and body["run_id"] == server.run_id

    def test_solve_roundtrip(self, client):
        accepted, status = client.solve_and_wait(BN4, wait=60)
        assert accepted["fingerprint"] == "bf:b4:full"
        assert status["state"] == "done" and status["exact"] is True
        cert = client.result(accepted["job"])
        assert cert["format"] == "repro-certificate/1"
        assert cert["lower"] == cert["upper"]

    def test_malformed_spec_is_400_not_500(self, client):
        status, data = client.request_json(
            "POST", "/v1/solve", {"network": {"family": "nope"}}
        )
        assert status == 400 and "error" in data
        status, _ = client.request("POST", "/v1/solve", body=None)
        assert status == 400

    def test_unknown_job_404(self, client):
        status, _ = client.request_json("GET", "/v1/jobs/job-nope")
        assert status == 404
        status, _ = client.request_json("GET", "/v1/results/job-nope")
        assert status == 404

    def test_wrong_method_405(self, client):
        status, _ = client.request_json("GET", "/v1/solve")
        assert status == 405

    def test_unrouted_path_404(self, client):
        status, _ = client.request_json("GET", "/v2/everything")
        assert status == 404

    def test_result_before_done_409(self, tmp_path):
        queue = JobQueue(cache_dir=None)
        srv = ServeServer(queue, port=0).start(start_queue=False)
        try:
            client = ServeClient(srv.host, srv.port)
            accepted = client.solve(BN4)
            status, data = client.request_json(
                "GET", f"/v1/results/{accepted['job']}"
            )
            assert status == 409 and data["state"] == "queued"
            with pytest.raises(ServeError) as err:
                client.result(accepted["job"])
            assert err.value.status == 409
            queue.start()
        finally:
            srv.stop()

    def test_deduped_flag_over_http(self, tmp_path):
        queue = JobQueue(cache_dir=None)
        srv = ServeServer(queue, port=0).start(start_queue=False)
        try:
            client = ServeClient(srv.host, srv.port)
            first = client.solve(BN4)
            second = client.solve(BN4)
            assert second["deduped"] is True
            assert second["job"] == first["job"]
            queue.start()
            assert client.job(first["job"], wait=60)["state"] == "done"
        finally:
            srv.stop()

    def test_oversized_instance_rejected(self, tmp_path):
        queue = JobQueue(cache_dir=None)
        srv = ServeServer(queue, port=0, max_nodes=8).start()
        try:
            client = ServeClient(srv.host, srv.port)
            status, data = client.request_json(
                "POST", "/v1/solve", {"network": BN4}
            )
            assert status == 400 and "at most 8" in data["error"]
        finally:
            srv.stop()


class TestCertificateBytes:
    def test_result_matches_write_certificate_bytes(self, client, tmp_path):
        """The served body is byte-identical to the CLI's certificate file."""
        from repro.core.fallback import solve_with_fallback
        from repro.verify.serialize import write_certificate

        accepted, _ = client.solve_and_wait(TORUS34, wait=60)
        served = client.result_text(accepted["job"])
        net = torus(3, 4)
        path = write_certificate(
            tmp_path / "cli.json", net, solve_with_fallback(net, cache=None)
        )
        assert served == path.read_text(encoding="utf-8")


class TestMetrics:
    def test_openmetrics_exposition(self, client):
        client.solve_and_wait(BN4, wait=60)
        client.solve_and_wait(BN4, wait=60)  # cache hit
        client.request_json("POST", "/v1/solve", {"network": {"family": "nope"}})
        text = client.metrics()
        assert text.rstrip().endswith("# EOF")
        metrics = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                if "{" not in name:
                    metrics[name] = float(value)
        assert metrics["repro_serve_requests_total"] == 2
        assert metrics["repro_serve_solves_total"] == 2
        assert metrics["repro_serve_rejected_total"] == 1
        assert metrics["repro_perf_cache_hit_total"] >= 1
        assert metrics["repro_serve_queue_depth"] == 0

    def test_in_memory_collector_keeps_no_finished_spans(self, server, client):
        """Without telemetry nothing reads finished spans, so a
        long-running server keeps none; counters and gauges stay."""
        for _ in range(5):
            client.solve_and_wait(BN4, wait=60)
        assert server.collector.spans == []
        assert server.collector.open_spans[0]["name"] == "serve.run"
        text = client.metrics()
        assert text.rstrip().endswith("# EOF")
        assert "repro_serve_requests_total 5" in text.splitlines()
        assert "repro_serve_queue_depth 0" in text.splitlines()
        assert "repro_timeline_spans" not in text

    def test_content_type(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert "openmetrics-text" in response.getheader("Content-Type")
            response.read()
        finally:
            conn.close()


class TestTelemetry:
    def test_timeline_merges_on_shutdown(self, tmp_path):
        tele = tmp_path / "tele"
        srv = ServeServer(
            JobQueue(cache_dir=str(tmp_path / "cache")),
            port=0,
            telemetry=str(tele),
        ).start()
        client = ServeClient(srv.host, srv.port)
        accepted, _ = client.solve_and_wait(TORUS34, wait=60)
        client.result_text(accepted["job"])
        srv.stop()
        doc = load_timeline(tele / "timeline.json")
        assert validate_timeline(doc) == []
        names = {s["name"] for s in doc["spans"]}
        assert "serve.run" in names
        assert "serve.request" in names
        assert "serve.solve" in names
        assert doc["counters"]["serve.solves"] == 1

    def test_finished_job_is_journaled_before_shutdown(self, tmp_path):
        from repro.obs import read_shard

        tele = tmp_path / "tele"
        srv = ServeServer(
            JobQueue(cache_dir=None), port=0, telemetry=str(tele),
        ).start()
        try:
            client = ServeClient(srv.host, srv.port)
            _, status = client.solve_and_wait(BN4, wait=60)
            assert status["state"] == "done"
            # A server killed now loses nothing a client already saw done.
            shard = read_shard(tele / "server.jsonl")
            solves = [s for s in shard["spans"] if s["name"] == "serve.solve"]
            assert len(solves) == 1
            assert solves[0]["attrs"]["network"] == "B4"
        finally:
            srv.stop()

    def test_collector_restored_after_stop(self, tmp_path):
        from repro.obs import current

        before = current()
        srv = ServeServer(JobQueue(cache_dir=None), port=0).start()
        assert current() is srv.collector
        srv.stop()
        assert current() is before


class TestOrbitServing:
    def test_axis_rotated_request_is_tier0(self, client):
        _, first = client.solve_and_wait(TORUS34, wait=60)
        accepted, second = client.solve_and_wait(TORUS43, wait=60)
        assert first["tier"] == "tier-1"
        assert second["tier"] == "tier-0"
        # The certificate still names the instance the client asked for.
        cert = client.result(accepted["job"])
        assert cert["network"]["edge_digest"] == torus(4, 3).edge_digest
        assert cert["lower"] == cert["upper"]


#: ``repro-butterfly serve`` whose server signals itself SIGTERM the moment
#: it listens: the earliest a client that read the port file can stop it.
_SELF_TERMINATING_SERVE = """
import os, signal, sys
from repro.cli import main
from repro.serve import ServeServer

start = ServeServer.start

def start_then_sigterm(self, **kwargs):
    started = start(self, **kwargs)
    os.kill(os.getpid(), signal.SIGTERM)
    return started

ServeServer.start = start_then_sigterm
sys.exit(main(sys.argv[1:]))
"""


class TestShutdownSignal:
    def test_sigterm_as_soon_as_listening_exits_zero(self, tmp_path):
        import subprocess
        import sys

        port_file = tmp_path / "port"
        proc = subprocess.run(
            [sys.executable, "-c", _SELF_TERMINATING_SERVE, "serve",
             "--port", "0", "--no-cache", "--port-file", str(port_file)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert port_file.read_text().endswith("\n")
