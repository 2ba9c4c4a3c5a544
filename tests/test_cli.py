"""The command-line interface."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs import validate_timeline


class TestCLI:
    def test_info(self, capsys):
        assert main(["info", "8"]) == 0
        out = capsys.readouterr().out
        assert "B8" in out and "32 nodes" in out

    def test_info_wraparound(self, capsys):
        assert main(["info", "8", "--wraparound"]) == 0
        assert "W8" in capsys.readouterr().out

    def test_bisection(self, capsys):
        assert main(["bisection", "bn", "8"]) == 0
        assert "BW(B8) = 8" in capsys.readouterr().out

    def test_bisection_ccc(self, capsys):
        assert main(["bisection", "ccc", "8"]) == 0
        assert "BW(CCC8) = 4" in capsys.readouterr().out

    def test_expansion(self, capsys):
        assert main(["expansion", "wn", "8", "4"]) == 0
        assert "EE(W8, 4)" in capsys.readouterr().out

    def test_expansion_node(self, capsys):
        assert main(["expansion", "bn", "8", "4", "--node"]) == 0
        assert "NE(B8, 4)" in capsys.readouterr().out

    def test_folklore_plan_only(self, capsys):
        assert main(["folklore", "4096", "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "0.9375" in out

    def test_folklore_built(self, capsys):
        assert main(["folklore", "1024"]) == 0
        out = capsys.readouterr().out
        assert "built and verified" in out

    def test_claims_subset(self, capsys):
        assert main(["claims", "lemma-2.18", "lemma-2.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_claims_unknown_id(self, capsys):
        assert main(["claims", "lemma-9.9"]) == 1

    def test_solve_without_trace(self, capsys):
        assert main(["solve", "bn", "8"]) == 0
        assert "BW(B8) = 8" in capsys.readouterr().out


class TestSolveTrace:
    def test_trace_writes_schema_valid_manifest(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        # "bn 3" is the dimension convenience: B8, 32 nodes, so tier-1
        # enumeration is skipped and the layered DP wins exactly.
        assert main(["solve", "bn", "3", "--trace", str(path)]) == 0
        assert "BW(B8) = 8" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert validate_timeline(data) == []
        assert data["kind"] == "repro-telemetry-timeline"
        assert isinstance(data["environment"]["python"], str)
        assert data["tier"] == "tier-2"
        assert data["command"] == ["solve", "bn", "3"]
        assert data["result"]["exact"] is True
        # The acceptance bar: >= 3 distinct spans, >= 5 distinct counters.
        assert len({s["name"] for s in data["spans"]}) >= 3
        assert len(data["counters"]) >= 5
        # The one-shard timeline is built from a temporary shard.
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_trace_records_budget(self, tmp_path):
        path = tmp_path / "run.json"
        assert main(["solve", "bn", "3", "--timeout", "30",
                     "--trace", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["budget"] == {"seconds": 30.0, "expired": False}

    def test_no_collector_leaks_after_traced_run(self, tmp_path):
        from repro import obs

        assert main(["solve", "bn", "3",
                     "--trace", str(tmp_path / "m.json")]) == 0
        assert not obs.enabled()


class TestStats:
    @pytest.fixture()
    def run_path(self, tmp_path):
        path = tmp_path / "run.json"
        assert main(["solve", "bn", "3", "--trace", str(path)]) == 0
        return path

    def test_pretty_print(self, capsys, run_path):
        capsys.readouterr()
        assert main(["stats", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "winning tier: tier-2" in out
        assert "solve.fallback" in out
        assert "cuts.layered_dp.sweeps" in out

    def test_json_dump_round_trips(self, capsys, run_path):
        capsys.readouterr()
        assert main(["stats", str(run_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_timeline(data) == []
        assert data["tier"] == "tier-2"

    def test_exports_of_a_solve_timeline(self, tmp_path, run_path):
        metrics, flame = tmp_path / "m.txt", tmp_path / "f.txt"
        assert main(["stats", str(run_path), "--openmetrics", str(metrics),
                     "--flame", str(flame)]) == 0
        assert "repro_cuts_layered_dp_sweeps_total 1" in metrics.read_text()
        assert flame.read_text().startswith("solve.fallback ")

    def test_missing_file_fails(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "absent.json")]) == 1
        assert "stats:" in capsys.readouterr().err

    def test_invalid_manifest_fails_with_problems(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "wrong", "version": 1}))
        assert main(["stats", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid timeline" in err and "kind" in err

    def test_old_manifest_is_refused_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "kind": "repro-obs-manifest", "version": 1,
            "environment": {"python": "3.11"}, "spans": [], "counters": {},
        }))
        assert main(["stats", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no longer read; re-run with --trace" in err


class TestDist:
    def test_run_status_merge_round_trip(self, capsys, tmp_path):
        """A sharded solve, ``dist status`` on its state, then the same
        solve again: on the settled state it merges the done shards into
        the same certificate bytes without claiming a shard."""
        from repro.dist import ShardCoordinator

        state = str(tmp_path / "st")
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        argv = ["solve", "fbfly", "4", "--shards", "8", "--dist-workers", "2",
                "--dist-state", state, "--no-cache", "--certificate"]
        assert main(argv + [str(first)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("BW(FBfly4d2) = 16 (tier-1 distributed enumeration")
        assert "8/8 shards done" in out

        assert main(["dist", "status", "--state", state]) == 0
        assert "done=8" in capsys.readouterr().out
        events = ShardCoordinator.peek(state)["events"]

        assert main(argv + [str(again)]) == 0
        assert capsys.readouterr().out == out
        assert again.read_bytes() == first.read_bytes()
        assert ShardCoordinator.peek(state)["events"] == events

    def test_status_on_missing_state(self, capsys, tmp_path):
        assert main(["dist", "status", "--state", str(tmp_path / "no")]) == 2
        assert "no coordinator state" in capsys.readouterr().err

    def test_solve_with_shards(self, capsys):
        assert main(["solve", "bn", "4", "--shards", "4"]) == 0
        assert "BW(B4) = 4" in capsys.readouterr().out

    def test_shards_past_the_enumeration_limit(self, capsys):
        # B16's 80 nodes skip tier 1, sharded or not; the claim tier answers.
        assert main(["solve", "bn", "16", "--shards", "4", "--no-cache"]) == 0
        assert capsys.readouterr().out.startswith("BW(B16) in [14, 16]")

    def test_removed_entry_points_are_usage_errors(self, capsys):
        for argv in (["dist", "run", "bn", "4", "--state", "unused"],
                     ["dist", "merge", "--state", "unused"],
                     ["serve", "--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()


class TestTelemetryCLI:
    def _traced_run(self, tmp_path):
        state = str(tmp_path / "st")
        tele = tmp_path / "tele"
        rc = main([
            "solve", "bn", "4", "--shards", "4", "--dist-workers", "2",
            "--dist-state", state, "--dist-telemetry", str(tele),
        ])
        return rc, state, tele

    def test_dist_run_telemetry_writes_valid_timeline(self, capsys, tmp_path):
        from repro.obs import load_timeline, validate_timeline

        rc, _state, tele = self._traced_run(tmp_path)
        assert rc == 0
        assert "BW(B4) = 4" in capsys.readouterr().out
        timeline = load_timeline(tele / "timeline.json")
        assert validate_timeline(timeline) == []
        assert timeline["critical_path"]["names"][0] == "dist.run"
        assert (tele / "parent.jsonl").exists()

    def test_status_watch_once_renders_progress(self, capsys, tmp_path):
        rc, state, _tele = self._traced_run(tmp_path)
        assert rc == 0
        capsys.readouterr()
        assert main([
            "dist", "status", "--state", state, "--watch", "--once",
        ]) == 0
        out = capsys.readouterr().out
        assert "100%" in out
        assert "done" in out

    def test_stats_renders_timeline_and_exports(self, capsys, tmp_path):
        rc, _state, tele = self._traced_run(tmp_path)
        assert rc == 0
        capsys.readouterr()
        timeline = str(tele / "timeline.json")
        assert main(["stats", timeline]) == 0
        out = capsys.readouterr().out
        assert "dist.run" in out and "critical path" in out

        om = tmp_path / "om.txt"
        flame = tmp_path / "flame.txt"
        # Export flags switch stats into quiet export mode (stderr notes).
        assert main([
            "stats", timeline,
            "--openmetrics", str(om), "--flame", str(flame),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "openmetrics written" in captured.err
        om_text = om.read_text()
        assert om_text.endswith("# EOF\n")
        assert "repro_cuts_enumerate_cuts_evaluated_total 2048" in om_text
        flame_text = flame.read_text()
        assert any(ln.startswith("dist.run") for ln in flame_text.splitlines())

    def test_stats_timeline_json_round_trips(self, capsys, tmp_path):
        rc, _state, tele = self._traced_run(tmp_path)
        assert rc == 0
        capsys.readouterr()
        assert main(["stats", str(tele / "timeline.json"), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "repro-telemetry-timeline"

    def test_stats_rejects_invalid_timeline(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"kind": "repro-telemetry-timeline", "version": 1}
        ))
        assert main(["stats", str(path)]) == 1
        assert "invalid timeline" in capsys.readouterr().err

    def test_solve_dist_telemetry_flag(self, capsys, tmp_path):
        from repro.obs import load_timeline, validate_timeline

        tele, run = tmp_path / "tele", tmp_path / "run.json"
        assert main([
            "solve", "bn", "4", "--shards", "4",
            "--dist-telemetry", str(tele), "--trace", str(run),
        ]) == 0
        assert "BW(B4) = 4" in capsys.readouterr().out
        assert validate_timeline(load_timeline(tele / "timeline.json")) == []
        # The run timeline points at the fleet's shard files and timeline.
        pointer = load_timeline(run)["telemetry"]
        assert pointer["timeline"] == str(tele / "timeline.json")


class TestTimeoutValidation:
    @pytest.mark.parametrize("argv", [
        ["solve", "bn", "2", "--timeout", "-1"],
        ["solve", "bn", "2", "--timeout", "nan"],
        ["solve", "bn", "2", "--shards", "4", "--dist-state", "unused",
         "--timeout", "-1"],
        ["serve", "--timeout", "-1"],
        ["serve", "--timeout", "0"],
    ])
    def test_rejected_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --timeout" in err

    def test_zero_budget_still_degrades(self, capsys):
        assert main(["solve", "bn", "2", "--timeout", "0"]) == 0
        assert "BW(B2) in [0, 4]" in capsys.readouterr().out


class TestFamilySizeValidation:
    @pytest.mark.parametrize("argv", [
        ["solve", "wn", "2"],
        ["solve", "ccc", "2"],
        ["solve", "fattree", "0"],
        ["solve", "mesh", "1"],
        ["solve", "torus", "2", "--dims", "5"],
        ["bisection", "ccc", "2"],
        ["solve", "fattree", "0", "--shards", "4", "--dist-state", "unused"],
    ])
    def test_rejected_with_one_usage_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert err.startswith(f"repro-butterfly {argv[0]}")
        assert ": error: " in err


class TestBisectionAlias:
    def test_prints_what_solve_prints(self, capsys):
        assert main(["solve", "bn", "16", "--no-cache"]) == 0
        solved = capsys.readouterr().out
        assert main(["bisection", "bn", "16", "--no-cache"]) == 0
        assert capsys.readouterr().out == solved
        assert solved.startswith("BW(B16) in [14, 16]")


#: sha256 of the ``solve ... --no-cache --certificate`` bytes of instances
#: the exact tiers close (tiers 1, 2 and 3).  The claim tier runs after
#: them, so these certificates must not move by a byte.
EXACT_CERTIFICATE_SHA256 = {
    "torus 4": "664c9dab1999e292bd1bc1e7c518a2bd1ef9704ef0de556ddcb6a7ff744f773b",
    "mesh 4": "71dca4c6ec6b9217ef01d05e80b02207e10bc6cef5abd4ebcdacf605932772ce",
    "bn 8": "746a6be7b3be2fa31f1a5661fd66530296c7e2740b2d09319552ac07ff85348e",
    "torus 5": "3f59145661048f663509fe8d01de0d0b9e7e44d10b79c76f9f83937d429afcb5",
    "fattree 4": "8b26531d27ad6d66cb7f9652b3419c6c453410dcf0418da7c059d3a752722841",
    "fbfly 4": "ddbb27027fb49a4528321c626eb50f3afa684b63f4c53693ec8664574411a564",
    "wn 8": "72686664abbbd750573eb21d291df9ba3334dd5a84e2c896c6a337efa6af84a4",
    "ccc 8": "06664764fd3d45e8568cf247ba2a15567453f956eba5671fdf6dec76512f982e",
}


class TestExactCertificateBytes:
    @pytest.mark.parametrize("instance", sorted(EXACT_CERTIFICATE_SHA256))
    def test_bytes_are_pinned(self, tmp_path, instance):
        path = tmp_path / "cert.json"
        argv = ["solve", *instance.split(), "--no-cache", "--certificate", str(path)]
        assert main(argv) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == EXACT_CERTIFICATE_SHA256[instance]


class TestMainModule:
    def test_python_dash_m(self):
        import subprocess, sys

        out = subprocess.run(
            [sys.executable, "-m", "repro", "bisection", "ccc", "8"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "BW(CCC8) = 4" in out.stdout
