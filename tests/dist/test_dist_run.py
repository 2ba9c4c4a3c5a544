"""Distributed sweep: bit-identity, chaos, resume, degraded certification.

The acceptance invariant of the whole layer lives here: a fleet of
workers — with seeded SIGKILLs mid-sweep — terminates with a profile
bit-identical to the uninterrupted serial sweep, and anything less than
a full sweep still merges into a certified upper bound.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.fallback import solve_with_fallback
from repro.cuts.enumerate_exact import cut_profile, enumeration_shards
from repro.dist import (
    ShardCoordinator,
    dist_key,
    distributed_cut_profile,
    merge_to_profile,
)
from repro.resilience import Budget, CrashSchedule
from repro.topology.random_regular import random_regular_graph


def _no_leaked_children(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestBitIdentity:
    def test_matches_serial_sweep_exactly(self, b4, tmp_path):
        serial = cut_profile(b4)
        dist = distributed_cut_profile(
            b4, state_dir=str(tmp_path / "st"), shards=6, workers=3,
            lease_seconds=5.0,
        )
        assert dist.complete
        assert np.array_equal(serial.values, dist.values)
        assert np.array_equal(serial.witnesses, dist.witnesses)
        assert _no_leaked_children()

    def test_counted_subset(self, b4, tmp_path):
        counted = np.arange(0, b4.num_nodes, 2, dtype=np.int64)
        serial = cut_profile(b4, counted=counted)
        dist = distributed_cut_profile(
            b4, counted, state_dir=str(tmp_path / "st"), shards=4, workers=2,
        )
        assert dist.complete
        assert np.array_equal(serial.values, dist.values)
        assert np.array_equal(serial.witnesses, dist.witnesses)

    def test_single_shard_degenerates_to_serial(self, b4, tmp_path):
        serial = cut_profile(b4)
        dist = distributed_cut_profile(
            b4, state_dir=str(tmp_path / "st"), shards=1, workers=1,
        )
        assert dist.complete
        assert np.array_equal(serial.values, dist.values)
        assert np.array_equal(serial.witnesses, dist.witnesses)

    def test_node_limit_enforced(self, tmp_path):
        big = random_regular_graph(30, 3, seed=0)
        with pytest.raises(ValueError, match="limited to"):
            distributed_cut_profile(big, state_dir=str(tmp_path / "st"))


class TestChaos:
    @pytest.mark.parametrize("seed", [11, 42])
    def test_two_killed_workers_still_bit_identical(self, tmp_path, seed):
        """The headline invariant: 2 of 4 workers SIGKILLed mid-sweep,
        their leases stolen back, final profile equals the serial one."""
        net = random_regular_graph(14, 3, seed=7)
        serial = cut_profile(net)
        sched = CrashSchedule.seeded(
            tmp_path / "chaos", seed, workers=4, kills=2
        )
        status = {}
        dist = distributed_cut_profile(
            net, state_dir=str(tmp_path / "st"), shards=8, workers=4,
            schedule=sched, lease_seconds=1.0, batch_bits=10, status=status,
        )
        assert status["workers_killed"] == 2
        assert sched.pending() == []  # every planned kill actually fired
        assert status["events"]["reclaims"] >= 2
        assert dist.complete
        assert np.array_equal(serial.values, dist.values)
        assert np.array_equal(serial.witnesses, dist.witnesses)
        assert _no_leaked_children()

    def test_cascade_certifies_a_chaos_settled_state(self, tmp_path):
        """The same chaos run, then the cascade on its state directory:
        the serial interval and witness, and not one new claim."""
        net = random_regular_graph(14, 3, seed=7)
        state = str(tmp_path / "st")
        sched = CrashSchedule.seeded(tmp_path / "chaos", 11, workers=4, kills=2)
        distributed_cut_profile(
            net, state_dir=state, shards=8, workers=4,
            schedule=sched, lease_seconds=1.0, batch_bits=10,
        )
        settled = ShardCoordinator.peek(state)
        assert settled["settled"] and settled["events"]["reclaims"] >= 2

        serial = solve_with_fallback(net)
        cert = solve_with_fallback(
            net, shards=8, dist_state=state, dist_workers=4,
        )
        assert (cert.lower, cert.upper) == (serial.lower, serial.upper)
        assert serial.lower == serial.upper
        assert np.array_equal(cert.witness.side, serial.witness.side)
        assert cert.upper_evidence.startswith("tier-1 distributed enumeration")
        assert cert.verify(net).ok
        assert ShardCoordinator.peek(state)["events"] == settled["events"]
        assert _no_leaked_children()

    def test_whole_fleet_dead_parent_takes_over(self, b4, tmp_path):
        serial = cut_profile(b4)
        sched = CrashSchedule.seeded(
            tmp_path / "chaos", 0, workers=2, kills=2
        )
        status = {}
        dist = distributed_cut_profile(
            b4, state_dir=str(tmp_path / "st"), shards=4, workers=2,
            schedule=sched, lease_seconds=0.5, status=status,
        )
        assert status["workers_killed"] == 2
        assert dist.complete
        assert np.array_equal(serial.values, dist.values)
        assert np.array_equal(serial.witnesses, dist.witnesses)
        assert _no_leaked_children()


class TestResumeAndPartial:
    def test_resume_skips_done_shards_and_stays_identical(self, b4, tmp_path):
        serial = cut_profile(b4)
        state = str(tmp_path / "st")
        # Pre-complete two shards by hand (an interrupted earlier run).
        counted = np.arange(b4.num_nodes, dtype=np.int64)
        key = dist_key(b4, counted, 6)
        coord = ShardCoordinator(state, key)
        coord.ensure(enumeration_shards(b4, 6))
        from repro.cuts.enumerate_exact import shard_minima
        from repro.dist.worker import shard_payload

        for _ in range(2):
            lease = coord.claim("earlier-run")
            best, mask = shard_minima(b4.edges, counted, lease.lo, lease.hi)
            coord.complete("earlier-run", lease.shard, shard_payload(best, mask))

        status = {}
        dist = distributed_cut_profile(
            b4, state_dir=state, shards=6, workers=2, status=status,
        )
        assert dist.complete
        # The resumed run only computed the remaining four shards.
        assert status["events"]["completions"] == 6
        assert np.array_equal(serial.values, dist.values)
        assert np.array_equal(serial.witnesses, dist.witnesses)

    def test_expired_budget_returns_certified_partial(self, b4, tmp_path):
        status = {}
        dist = distributed_cut_profile(
            b4, state_dir=str(tmp_path / "st"), shards=4, workers=2,
            budget=Budget(0.0), status=status,
        )
        assert not dist.complete
        assert not status["complete"]
        # Nothing ran; every entry is the int64 sentinel (vacuous bound).
        assert _no_leaked_children()

    def test_partial_union_is_an_upper_bound(self, b4, tmp_path):
        """Merge-is-an-upper-bound: shards completed by a run that never
        finished still certify, entry by entry, against the serial truth."""
        serial = cut_profile(b4)
        counted = np.arange(b4.num_nodes, dtype=np.int64)
        key = dist_key(b4, counted, 6)
        coord = ShardCoordinator(str(tmp_path / "st"), key)
        coord.ensure(enumeration_shards(b4, 6))
        from repro.cuts.enumerate_exact import shard_minima
        from repro.dist.worker import shard_payload

        for _ in range(3):  # half the sweep, then the "run" dies
            lease = coord.claim("doomed-run")
            best, mask = shard_minima(b4.edges, counted, lease.lo, lease.hi)
            coord.complete("doomed-run", lease.shard, shard_payload(best, mask))

        prof = merge_to_profile(b4, counted, coord.completed_payloads())
        assert not prof.complete
        finite = prof.values < np.iinfo(np.int64).max
        assert finite.any()
        assert (prof.values[finite] >= serial.values[finite]).all()
        # Every finite entry's witness recounts to its claimed capacity.
        for c in np.flatnonzero(finite):
            assert prof.witness_cut(int(c)).capacity == prof.values[c]


class TestFallbackTier:
    def test_distributed_tier_matches_serial_cascade(self, b4):
        serial = solve_with_fallback(b4)
        dist = solve_with_fallback(b4, shards=4, dist_workers=2)
        assert (dist.lower, dist.upper) == (serial.lower, serial.upper)
        assert dist.upper_evidence.startswith("tier-1 distributed enumeration")
        assert "shard history" in dist.upper_evidence
        assert dist.verify(b4).ok

    def test_chaos_inside_the_cascade_still_exact(self, b4, tmp_path):
        sched = CrashSchedule.seeded(tmp_path / "chaos", 5, workers=2, kills=1)
        serial = solve_with_fallback(b4)
        # The cascade API has no schedule hook (chaos is a dist concern);
        # drive the dist tier directly with the same state dir instead.
        status = {}
        prof = distributed_cut_profile(
            b4, state_dir=str(tmp_path / "st"), shards=4, workers=2,
            schedule=sched, lease_seconds=0.5, status=status,
        )
        assert status["workers_killed"] == 1
        n = b4.num_nodes
        bw = int(min(prof.values[n // 2], prof.values[(n + 1) // 2]))
        assert bw == serial.upper == serial.lower
