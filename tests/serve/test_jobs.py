"""Request parsing and the solve task: the API's front-door contracts.

``parse_request`` must reject everything malformed with a
:class:`RequestError` (the server's 400) and normalize everything valid
through the certificate-file spec round trip; ``solve_job`` must never
raise — the serial drain path runs it in the queue thread — and must
certify even a zero budget.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.serve.jobs import RequestError, parse_request, solve_job
from repro.topology import butterfly, torus
from repro.verify.checker import check_certificate
from repro.verify.serialize import network_from_spec, network_spec


class TestParseRequest:
    def test_bare_spec(self):
        spec, net, timeout = parse_request(
            json.dumps({"family": "bn", "params": {"n": 4}})
        )
        assert net.edge_digest == butterfly(4).edge_digest
        assert timeout is None
        # Normalized: the returned spec carries the digest.
        assert spec == network_spec(net)

    def test_enveloped_spec_with_timeout(self):
        body = {"network": {"family": "torus", "params": {"sides": [3, 4]}},
                "timeout": 2.5}
        spec, net, timeout = parse_request(json.dumps(body))
        assert net.num_nodes == 12
        assert math.isclose(timeout, 2.5, rel_tol=0.0, abs_tol=0.0)

    def test_default_timeout_applies(self):
        _, _, timeout = parse_request(
            json.dumps({"family": "bn", "params": {"n": 4}}), default_timeout=7.0
        )
        assert math.isclose(timeout, 7.0, rel_tol=0.0, abs_tol=0.0)

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[1, 2]",
            json.dumps({"network": "bn4"}).encode(),
            json.dumps({"family": "nope"}).encode(),
            json.dumps({"family": "bn", "params": {}}).encode(),
            json.dumps({"network": {"family": "bn", "params": {"n": 4}},
                        "timeout": -1}).encode(),
            json.dumps({"network": {"family": "bn", "params": {"n": 4}},
                        "timeout": True}).encode(),
            json.dumps({"family": "bn", "params": {"n": 4},
                        "edge_digest": "0" * 64}).encode(),
        ],
        ids=["not-json", "not-object", "network-not-object", "bad-family",
             "missing-params", "negative-timeout", "bool-timeout",
             "digest-drift"],
    )
    def test_malformed_requests_rejected(self, body):
        with pytest.raises(RequestError):
            parse_request(body)

    def test_max_nodes_policy(self):
        body = json.dumps({"family": "bn", "params": {"n": 8}})
        with pytest.raises(RequestError, match="at most 16"):
            parse_request(body, max_nodes=16)
        parse_request(body, max_nodes=32)  # 8 * lg(8)+1 = 32 nodes: allowed

    def test_oversized_spec_is_refused_before_building(self, monkeypatch):
        import repro.verify.serialize as serialize

        def _no_build(*args, **kwargs):
            raise AssertionError("the family constructor ran")

        monkeypatch.setattr(serialize, "Butterfly", _no_build)
        body = json.dumps({"family": "bn", "params": {"n": 1 << 20}})
        with pytest.raises(RequestError, match="22020096 nodes.*at most 4096"):
            parse_request(body)


class TestSolveJob:
    def test_success_returns_verifiable_certificate(self):
        net = torus(3, 4)
        out = solve_job({"spec": network_spec(net), "cache": None,
                         "budget_seconds": None})
        assert out["exact"] is True and out["tier"] == "tier-1"
        data = out["certificate"]
        assert data["format"] == "repro-certificate/1"
        rebuilt = network_from_spec(data["network"])
        fields = {k: data[k] for k in
                  ("quantity", "lower", "upper", "lower_evidence", "upper_evidence")}
        bits = data["witness"]
        fields["witness_side"] = np.array([b == "1" for b in bits])
        check_certificate(rebuilt, fields).raise_for_problems()

    def test_zero_budget_still_certifies(self):
        """An expired budget degrades to tier-5, never to an error."""
        net = butterfly(4)
        out = solve_job({"spec": network_spec(net), "cache": None,
                         "budget_seconds": 0.0})
        data = out["certificate"]
        assert data["lower"] == 0 and data["upper"] == net.num_edges
        assert "tier-5" in data["upper_evidence"]
        assert out["exact"] is False

    def test_errors_are_data_not_raises(self):
        out = solve_job({"spec": {"family": "nope"}, "cache": None})
        assert "certificate" not in out
        assert "ValueError" in out["error"]
        out = solve_job({})  # no spec at all
        assert "error" in out
