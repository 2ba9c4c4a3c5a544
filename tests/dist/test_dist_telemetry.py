"""Fleet telemetry under chaos: the ISSUE's acceptance scenario.

A seeded 4-worker distributed run with one SIGKILLed worker must still
produce a single merged timeline that validates against the schema, whose
fleet counter totals equal the serial sweep on the completed-shard union,
and whose critical path names the straggler.  Telemetry is strictly an
observer: the profile stays bit-identical to serial with it enabled.
"""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.cuts.enumerate_exact import cut_profile
from repro.dist import distributed_cut_profile
from repro.obs import collecting, load_timeline, merge_shards, validate_timeline
from repro.resilience import CrashSchedule
from repro.topology.random_regular import random_regular_graph


def _no_leaked_children(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestChaosTelemetry:
    def _run(self, tmp_path, *, kills=1):
        net = random_regular_graph(14, 3, seed=7)
        sched = CrashSchedule.seeded(
            tmp_path / "chaos", 11, workers=4, kills=kills
        )
        status = {}
        tele_dir = tmp_path / "tele"
        dist = distributed_cut_profile(
            net, state_dir=str(tmp_path / "st"), shards=8, workers=4,
            schedule=sched, lease_seconds=1.0, batch_bits=10,
            status=status, telemetry=str(tele_dir),
        )
        return net, sched, status, tele_dir, dist

    def test_sigkilled_fleet_yields_one_valid_timeline(self, tmp_path):
        net, sched, status, tele_dir, dist = self._run(tmp_path)
        assert status["workers_killed"] == 1
        assert sched.pending() == []
        assert dist.complete
        assert np.array_equal(cut_profile(net).values, dist.values)

        info = status["telemetry"]
        timeline = load_timeline(info["timeline"])
        assert validate_timeline(timeline) == []

        # Counter equality: each enumeration range is credited exactly
        # once (on accepted completion), so the fleet total equals the
        # serial sweep's subset count, 2^(n-1).
        assert (
            timeline["counters"]["cuts.enumerate.cuts_evaluated"]
            == 1 << (net.num_nodes - 1)
        )

        # The SIGKILL left exactly the killed worker's claim truncated,
        # and the whole fleet hangs off the one parent dist.run root.
        truncated = [s for s in timeline["spans"] if s["truncated"]]
        assert len(truncated) == 1
        assert truncated[0]["name"] == "dist.claim"
        roots = [s for s in timeline["spans"] if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["dist.run"]
        assert roots[0]["worker"] == "parent"

        # Critical path starts at the root and stays inside the tree.
        cp = timeline["critical_path"]
        assert cp["names"][0] == "dist.run"
        ids = {s["id"] for s in timeline["spans"]}
        assert set(cp["span_ids"]) <= ids
        assert _no_leaked_children()

    def test_merge_is_deterministic_and_counters_survive_kill(self, tmp_path):
        _, _, status, tele_dir, dist = self._run(tmp_path)
        info = status["telemetry"]
        shard_files = [tele_dir / f for f in info["shard_files"]]
        assert (tele_dir / "parent.jsonl") in shard_files

        forward = merge_shards(shard_files, run_id=info["run_id"])
        backward = merge_shards(reversed(shard_files), run_id=info["run_id"])
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )
        # The killed worker's flushed counters still reach the merge: the
        # fleet claim count covers at least the 8 shard completions.
        assert forward["counters"]["dist.worker.completions"] >= 8

    def test_telemetry_disabled_leaves_no_artifacts(self, b4, tmp_path):
        status = {}
        dist = distributed_cut_profile(
            b4, state_dir=str(tmp_path / "st"), shards=4, workers=2,
            status=status,
        )
        assert dist.complete
        assert "telemetry" not in status
        assert not list(tmp_path.glob("**/*.jsonl"))
        assert _no_leaked_children()


class TestSettledRerun:
    def test_rerun_on_a_settled_state_leaves_the_fleet_timeline(self, b4, tmp_path):
        """Re-certifying a settled sweep starts no worker and claims no
        shard, so the sweep's telemetry stays byte for byte as it was,
        and the run still points at its timeline."""
        state, tele = str(tmp_path / "st"), tmp_path / "tele"
        first, again = {}, {}
        distributed_cut_profile(
            b4, state_dir=state, shards=4, workers=2, status=first,
            telemetry=str(tele),
        )
        before = {p.name: p.read_bytes() for p in tele.iterdir()}
        with collecting() as col:
            dist = distributed_cut_profile(
                b4, state_dir=state, shards=4, workers=2, status=again,
                telemetry=str(tele),
            )
        assert dist.complete
        assert again["workers_spawned"] == 0 and again["parent_takeovers"] == 0
        assert {p.name: p.read_bytes() for p in tele.iterdir()} == before
        kept = again["telemetry"]
        assert kept["timeline"] == first["telemetry"]["timeline"]
        assert kept["timeline"] == str(tele / "timeline.json")
        assert kept["run_id"] == first["telemetry"]["run_id"]
        assert col.notes["telemetry"] == kept
        assert _no_leaked_children()


class TestCoordinatorProgress:
    def test_heartbeat_progress_lifecycle(self, b4, tmp_path):
        from repro.cuts.enumerate_exact import enumeration_shards, shard_minima
        from repro.dist import ShardCoordinator, dist_key
        from repro.dist.worker import shard_payload

        counted = np.arange(b4.num_nodes, dtype=np.int64)
        key = dist_key(b4, counted, 4)
        coord = ShardCoordinator(str(tmp_path / "st"), key)
        coord.ensure(enumeration_shards(b4, 4))

        def _row(shard):
            (row,) = [r for r in coord.shard_table() if r["id"] == shard]
            return row

        lease = coord.claim("w0")
        assert _row(lease.shard)["progress"] is None

        coord.heartbeat("w0", lease.shard, progress=0.5)
        assert _row(lease.shard)["progress"] == pytest.approx(0.5)

        # Out-of-range values clamp rather than corrupt the state file.
        coord.heartbeat("w0", lease.shard, progress=7.0)
        assert _row(lease.shard)["progress"] == pytest.approx(1.0)

        best, mask = shard_minima(b4.edges, counted, lease.lo, lease.hi)
        coord.complete("w0", lease.shard, shard_payload(best, mask))
        assert _row(lease.shard)["progress"] == pytest.approx(1.0)

    def test_abandon_resets_progress(self, b4, tmp_path):
        from repro.cuts.enumerate_exact import enumeration_shards
        from repro.dist import ShardCoordinator, dist_key

        counted = np.arange(b4.num_nodes, dtype=np.int64)
        coord = ShardCoordinator(
            str(tmp_path / "st"), dist_key(b4, counted, 4)
        )
        coord.ensure(enumeration_shards(b4, 4))
        lease = coord.claim("w0")
        coord.heartbeat("w0", lease.shard, progress=0.25)
        coord.abandon("w0", lease.shard)
        (row,) = [r for r in coord.shard_table() if r["id"] == lease.shard]
        assert row["progress"] is None
