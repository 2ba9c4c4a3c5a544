"""End-to-end ``solve --certificate`` → ``verify`` → ``fuzz`` CLI flows.

This is the CI-exercised acceptance path: a pristine certificate passes,
a deliberately corrupted one (flipped width, flipped witness bits) is
REJECTED with a non-zero exit.
"""

import json

import pytest

from repro.cli import main
from repro.obs import validate_timeline


@pytest.fixture
def cert_path(tmp_path):
    path = tmp_path / "w4.cert.json"
    assert main(["solve", "wn", "4", "--no-cache",
                 "--certificate", str(path)]) == 0
    return path


class TestVerifyCertificate:
    def test_pristine_certificate_verifies(self, cert_path, capsys):
        assert main(["verify", str(cert_path)]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_flipped_width_is_rejected(self, cert_path, capsys):
        data = json.loads(cert_path.read_text())
        data["lower"] -= 1
        data["upper"] -= 1
        cert_path.write_text(json.dumps(data))
        assert main(["verify", str(cert_path)]) == 1
        err = capsys.readouterr().err
        assert "REJECTED" in err and "recounted capacity" in err

    def test_flipped_witness_bits_are_rejected(self, cert_path, capsys):
        data = json.loads(cert_path.read_text())
        bits = list(data["witness"])
        bits[0] = "1" if bits[0] == "0" else "0"
        bits[1] = "1" if bits[1] == "0" else "0"
        data["witness"] = "".join(bits)
        cert_path.write_text(json.dumps(data))
        assert main(["verify", str(cert_path)]) == 1
        assert "REJECTED" in capsys.readouterr().err

    def test_drifted_network_spec_is_rejected(self, cert_path, capsys):
        data = json.loads(cert_path.read_text())
        data["network"]["edge_digest"] = "0" * 16
        cert_path.write_text(json.dumps(data))
        assert main(["verify", str(cert_path)]) == 1
        assert "REJECTED" in capsys.readouterr().err

    def test_unreadable_path_errors(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "missing.json")]) == 2

    def test_manifest_from_solve_trace_verifies(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert main(["solve", "bn", "4", "--no-cache",
                     "--trace", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["verify", str(manifest)]) == 0
        assert "verify: OK" in capsys.readouterr().out


@pytest.fixture
def bn3_cert(tmp_path):
    path = tmp_path / "b8.cert.json"
    assert main(["solve", "bn", "3", "--no-cache", "--certificate", str(path)]) == 0
    return path


def _generic_without_edges(network):
    return {"family": "generic", "num_nodes": network["num_nodes"]}


class TestMalformedCertificateSpecs:
    """A malformed network spec is REJECTED (exit 1), never a traceback."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda net: [],
            lambda net: {**net, "params": {}},
            _generic_without_edges,
        ],
        ids=["network-is-a-list", "params-empty", "generic-without-edges"],
    )
    def test_rejected_without_traceback(self, bn3_cert, capsys, edit):
        data = json.loads(bn3_cert.read_text())
        data["network"] = edit(data["network"])
        bn3_cert.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(bn3_cert)]) == 1
        err = capsys.readouterr().err
        assert "REJECTED" in err and "malformed network spec" in err
        assert "Traceback" not in err


class TestHostileCertificateSpecs:
    """A spec naming more than 2^24 nodes is refused before it is built."""

    @pytest.mark.parametrize("params", [{"n": 1 << 30}, {"n": 1 << 20}])
    def test_rejected_without_building(self, bn3_cert, capsys, monkeypatch,
                                       params):
        import repro.verify.serialize as serialize

        def _no_build(*args, **kwargs):
            raise AssertionError("the family constructor ran")

        monkeypatch.setattr(serialize, "Butterfly", _no_build)
        data = json.loads(bn3_cert.read_text())
        data["network"]["params"] = params
        bn3_cert.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(bn3_cert)]) == 1
        err = capsys.readouterr().err
        assert "REJECTED" in err and "at most 16777216 are built" in err


class TestVerifyRunRecord:
    def test_timeline_without_a_result_has_nothing_to_verify(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["solve", "bn", "3", "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        data["result"] = None
        trace.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(trace)]) == 2
        assert "no solve result to verify" in capsys.readouterr().err

    def test_fuzz_timeline_has_nothing_to_verify(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "2", "--runs", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["verify", str(trace)]) == 2
        assert "no solve result to verify" in capsys.readouterr().err

    def test_old_manifest_is_refused_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "kind": "repro-obs-manifest", "version": 1, "result": None,
            "environment": {"python": "3.11"}, "spans": [], "counters": {},
        }))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no longer read; re-run with --trace" in err


class TestFuzzCommand:
    def test_smoke_fuzz_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "1", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "disagreements=0" in out

    def test_fuzz_writes_a_valid_manifest(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "2", "--runs", "3",
                     "--corpus", str(tmp_path / "corpus"),
                     "--trace", str(trace)]) == 0
        timeline = json.loads(trace.read_text())
        assert validate_timeline(timeline) == []
        assert timeline["seed"] == 2
        assert timeline["result"]["disagreements"] == 0

    def test_stats_reads_a_fuzz_manifest(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "2", "--runs", "3",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        assert "disagreements=0" in capsys.readouterr().out
