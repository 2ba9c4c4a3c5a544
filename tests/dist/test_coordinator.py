"""The lease protocol, deterministically: injected clock, single process."""

import json

from repro.dist import Lease, ShardCoordinator


class _Clock:
    """Manually advanced monotonic clock."""

    def __init__(self, t=0.0):
        self.t = float(t)

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


def _coord(tmp_path, clock, **kw):
    kw.setdefault("lease_seconds", 10.0)
    kw.setdefault("max_attempts", 2)
    kw.setdefault("backoff", 1.0)
    kw.setdefault("backoff_factor", 2.0)
    kw.setdefault("max_backoff", 8.0)
    return ShardCoordinator(tmp_path / "st", "k1", clock=clock, **kw)


RANGES = [(0, 4), (4, 8), (8, 12)]


class TestEnsure:
    def test_creates_pending_shards(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        s = coord.ensure(RANGES)
        assert s["shards"] == 3
        assert s["counts"] == {
            "pending": 3, "leased": 0, "done": 0, "quarantined": 0,
        }
        assert not s["settled"]

    def test_same_key_adopts_existing_state(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock)
        coord.ensure(RANGES)
        lease = coord.claim("w0")
        coord.complete("w0", lease.shard, {"best": [1]})
        # A second ensure (a resumed run) must not reset the done shard.
        s = coord.ensure(RANGES)
        assert s["counts"]["done"] == 1

    def test_stale_key_state_is_replaced(self, tmp_path):
        clock = _Clock()
        old = ShardCoordinator(tmp_path / "st", "old-key", clock=clock)
        old.ensure(RANGES)
        lease = old.claim("w0")
        old.complete("w0", lease.shard, {"best": [9]})
        # Same directory, different computation: the old completions
        # describe someone else's mask space and must not be resumed.
        new = ShardCoordinator(tmp_path / "st", "new-key", clock=clock)
        s = new.ensure([(0, 2)])
        assert s["key"] == "new-key"
        assert s["shards"] == 1
        assert s["counts"]["done"] == 0

    def test_torn_state_file_is_replaced(self, tmp_path):
        (tmp_path / "st").mkdir()
        (tmp_path / "st" / "state.json").write_text("{ torn mid-wri")
        coord = _coord(tmp_path, _Clock())
        s = coord.ensure(RANGES)
        assert s["shards"] == 3


class TestClaim:
    def test_claims_are_exclusive_and_in_order(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        a = coord.claim("w0")
        b = coord.claim("w1")
        c = coord.claim("w2")
        assert isinstance(a, Lease)
        assert [(l.lo, l.hi) for l in (a, b, c)] == RANGES
        assert {l.worker for l in (a, b, c)} == {"w0", "w1", "w2"}
        assert coord.claim("w3") is None  # everything leased, none expired

    def test_expired_lease_is_reclaimed_with_attempt_count(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock)
        coord.ensure([(0, 4)])
        lost = coord.claim("dead-worker")
        clock.advance(10.0)  # the lease dies at exactly lease_seconds
        # The first claim observes the expiry and starts the backoff; a
        # claim after the backoff actually steals the shard.
        assert coord.claim("thief") is None
        clock.advance(1.0)
        stolen = coord.claim("thief")
        assert stolen.shard == lost.shard
        assert stolen.worker == "thief"
        ev = coord.summary()["events"]
        assert ev["expired"] == 1 and ev["reclaims"] == 1

    def test_backoff_delays_reissue(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=1.0)
        coord.ensure([(0, 4)])
        coord.claim("w0")
        clock.advance(1.0)
        # Lease expired, but the reclaimed shard sits in backoff (1s):
        # a claim right now gets nothing, one after the backoff succeeds.
        assert coord.claim("w1") is None
        clock.advance(1.0)
        assert coord.claim("w1") is not None

    def test_backoff_grows_exponentially_and_caps(self, tmp_path):
        clock = _Clock()
        coord = _coord(
            tmp_path, clock, lease_seconds=1.0, max_attempts=10,
            backoff=1.0, backoff_factor=2.0, max_backoff=3.0,
        )
        coord.ensure([(0, 4)])
        observed = []
        for _ in range(4):
            lease = None
            waited = 0.0
            coord.claim("w")
            clock.advance(1.0)  # expire the lease
            while lease is None:
                lease = coord.claim("w")
                if lease is None:
                    clock.advance(0.5)
                    waited += 0.5
            observed.append(waited)
        # 1.0, 2.0 then capped at 3.0 (claim polls on a 0.5 grid).
        assert observed == [1.0, 2.0, 3.0, 3.0]

    def test_quarantine_after_attempt_cap(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=1.0, max_attempts=1)
        coord.ensure([(0, 4)])
        coord.claim("doomed")                    # expires at t=1
        clock.advance(2.0)
        assert coord.claim("doomed") is None     # expiry #1, backoff to t=3
        clock.advance(1.0)
        assert coord.claim("doomed") is not None  # reissued, expires t=4
        clock.advance(2.0)
        assert coord.claim("w") is None          # expiry #2 > cap: quarantine
        s = coord.summary()
        assert s["counts"]["quarantined"] == 1
        assert s["events"]["quarantined"] == 1
        assert not s["settled"]
        assert coord.unfinished() == 1

    def test_include_quarantined_override(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=1.0, max_attempts=0)
        coord.ensure([(0, 4)])
        coord.claim("doomed")
        clock.advance(1.0)
        assert coord.claim("w") is None  # quarantined immediately
        rescue = coord.claim("parent", include_quarantined=True)
        assert rescue is not None
        # Completing it lifts the quarantine: the sweep can settle.
        assert coord.complete("parent", rescue.shard, {"best": [1]})
        assert coord.summary()["counts"]["done"] == 1


class TestHeartbeatAndComplete:
    def test_heartbeat_extends_the_lease(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=2.0)
        coord.ensure([(0, 4)])
        lease = coord.claim("w0")
        for _ in range(5):
            clock.advance(1.5)
            assert coord.heartbeat("w0", lease.shard)
        # 7.5s elapsed, far past the 2s lease, but never between beats.
        assert coord.claim("thief") is None

    def test_heartbeat_reports_a_lost_lease(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=1.0)
        coord.ensure([(0, 4)])
        lease = coord.claim("w0")
        clock.advance(2.0)
        coord.claim("thief")  # reclaim w0's expired lease
        assert not coord.heartbeat("w0", lease.shard)

    def test_complete_marks_done_and_stores_payload(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        lease = coord.claim("w0")
        assert coord.complete("w0", lease.shard, {"best": [3, 1]})
        assert coord.completed_payloads() == [(0, 4, {"best": [3, 1]})]

    def test_straggler_completion_is_accepted(self, tmp_path):
        # A worker whose lease was stolen mid-compute still delivers a
        # correct (deterministic) payload; accepting it finishes sooner.
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=1.0)
        coord.ensure([(0, 4)])
        coord.claim("straggler")
        clock.advance(2.0)
        coord.claim("thief")
        assert coord.complete("straggler", 0, {"best": [1]})
        ev = coord.summary()["events"]
        assert ev["stale_completions"] == 1  # counted, but accepted
        assert coord.summary()["counts"]["done"] == 1

    def test_double_completion_of_done_shard_is_dropped(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock, lease_seconds=1.0)
        coord.ensure([(0, 4)])
        coord.claim("a")
        assert coord.complete("a", 0, {"best": [1]})
        assert not coord.complete("b", 0, {"best": [2]})
        assert coord.completed_payloads()[0][2] == {"best": [1]}

    def test_abandon_reissues_without_penalty(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure([(0, 4)])
        lease = coord.claim("w0")
        coord.abandon("w0", lease.shard)
        again = coord.claim("w1")
        assert again is not None and again.shard == lease.shard
        assert coord.summary()["events"]["expired"] == 0

    def test_settled_when_all_done(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        assert not coord.settled()
        while (lease := coord.claim("w")) is not None:
            coord.complete("w", lease.shard, {"best": []})
        assert coord.settled()
        assert coord.unfinished() == 0

    def test_payloads_sorted_by_lo(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        leases = [coord.claim("w") for _ in RANGES]
        for lease in reversed(leases):  # complete out of order
            coord.complete("w", lease.shard, {"lo": lease.lo})
        assert [lo for lo, _, _ in coord.completed_payloads()] == [0, 4, 8]


class TestDurability:
    def test_state_survives_coordinator_restart(self, tmp_path):
        clock = _Clock()
        coord = _coord(tmp_path, clock)
        coord.ensure(RANGES)
        lease = coord.claim("w0")
        coord.complete("w0", lease.shard, {"best": [2]})
        # A brand-new coordinator object (a restarted process) sees it.
        again = _coord(tmp_path, clock)
        s = again.ensure(RANGES)
        assert s["counts"]["done"] == 1
        assert again.completed_payloads() == [(0, 4, {"best": [2]})]

    def test_write_leaves_no_temp_file(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        coord.claim("w0")
        names = {p.name for p in (tmp_path / "st").iterdir()}
        assert names == {"state.json", "lock"}

    def test_done_ledger_coalesces_ranges(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        for _ in RANGES:
            lease = coord.claim("w")
            coord.complete("w", lease.shard, {})
        s = coord.summary()
        assert s["done_ledger"] == [[0, 12]]
        assert s["covered"] == 12

    def test_peek_without_key(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        coord.claim("w0")
        peeked = ShardCoordinator.peek(tmp_path / "st")
        assert peeked["key"] == "k1"
        assert peeked["counts"]["leased"] == 1
        assert len(peeked["shard_rows"]) == 3

    def test_peek_missing_or_torn_is_none(self, tmp_path):
        assert ShardCoordinator.peek(tmp_path / "nowhere") is None
        (tmp_path / "st").mkdir()
        (tmp_path / "st" / "state.json").write_text("nope")
        assert ShardCoordinator.peek(tmp_path / "st") is None

    def test_state_file_is_valid_sorted_json(self, tmp_path):
        coord = _coord(tmp_path, _Clock())
        coord.ensure(RANGES)
        data = json.loads((tmp_path / "st" / "state.json").read_text())
        assert data["key"] == "k1"
        assert [s["id"] for s in data["shards"]] == [0, 1, 2]
