"""Exhaustive exact cuts."""

import numpy as np
import pytest

from repro.cuts import Cut, cut_profile, min_bisection, min_u_bisection
from repro.topology import Network, butterfly, complete_graph


def path_graph(n):
    return Network(range(n), [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle_graph(n):
    return Network(range(n), [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


class TestKnownValues:
    def test_path_profile(self):
        """A path of n nodes: any proper prefix cut costs 1."""
        prof = cut_profile(path_graph(6))
        assert prof.values.tolist() == [0, 1, 1, 1, 1, 1, 0]

    def test_cycle_bisection(self):
        assert cut_profile(cycle_graph(8)).bisection_width() == 2

    def test_complete_graph(self):
        prof = cut_profile(complete_graph(6))
        for k in range(7):
            assert prof.values[k] == k * (6 - k)

    def test_b4_bisection(self, b4):
        assert cut_profile(b4).bisection_width() == 4

    def test_multigraph(self):
        net = Network(range(4), [(0, 1), (0, 1), (1, 2), (2, 3)])
        prof = cut_profile(net)
        assert prof.values[1] == 1  # isolate node 3


class TestProfileInvariants:
    def test_symmetry(self, b4):
        prof = cut_profile(b4)
        assert np.array_equal(prof.values, prof.values[::-1])

    def test_endpoints_zero(self, b4):
        prof = cut_profile(b4)
        assert prof.values[0] == 0 and prof.values[-1] == 0

    def test_witnesses_realize_values(self, b4):
        prof = cut_profile(b4)
        for c in range(13):
            cut = prof.witness_cut(c)
            assert cut.capacity == prof.values[c]
            assert cut.s_size == c

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            cut_profile(complete_graph(29))


class TestUBisection:
    def test_counted_subset(self, b4):
        """Bisecting only the inputs of B4 costs n = 4 (Lemma 3.1)."""
        prof = cut_profile(b4, counted=b4.inputs())
        assert prof.bisection_width() == 4

    def test_min_u_bisection_witness(self, b4):
        cut = min_u_bisection(b4, b4.inputs())
        assert cut.bisects(b4.inputs())
        assert cut.capacity == 4

    def test_min_bisection_witness(self, b4):
        cut = min_bisection(b4)
        assert cut.is_bisection()
        assert cut.capacity == 4

    def test_counted_singleton(self):
        net = path_graph(5)
        prof = cut_profile(net, counted=np.array([2]))
        # Bisecting a single node means either side may hold it; the empty
        # cut qualifies.
        assert prof.bisection_width() == 0


class _PollClock:
    """Each read advances one second; budgets expire deterministically."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestActionableSizeError:
    def test_message_names_the_limit_and_the_alternatives(self):
        with pytest.raises(ValueError) as exc:
            cut_profile(complete_graph(29))
        msg = str(exc.value)
        assert "28" in msg
        assert "layered_dp" in msg
        assert "branch_and_bound" in msg
        assert "heuristic" in msg


class TestBudgetedSweep:
    def test_expired_budget_yields_partial_not_raise(self):
        from repro.resilience import Budget

        prof = cut_profile(path_graph(10), budget=Budget(0))
        assert not prof.complete
        assert np.all(prof.values == np.iinfo(np.int64).max)

    def test_partial_entries_are_valid_upper_bounds(self):
        from repro.resilience import Budget

        net = path_graph(14)
        budget = Budget(3.5, clock=_PollClock())
        prof = cut_profile(net, budget=budget, batch_bits=8)
        full = cut_profile(net)
        assert not prof.complete
        sentinel = np.iinfo(np.int64).max
        examined = prof.values < sentinel
        assert examined.any()
        assert np.all(prof.values[examined] >= full.values[examined])
        for c in np.flatnonzero(examined):
            assert prof.witness_cut(int(c)).capacity == prof.values[c]

    def test_max_batch_bits_caps_the_batch(self):
        from repro.resilience import Budget

        # With 2-bit batches a 3-poll budget covers at most 8 assignments.
        budget = Budget(3.5, clock=_PollClock(), max_batch_bits=2)
        prof = cut_profile(path_graph(12), budget=budget)
        assert not prof.complete


class TestCheckpointResume:
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        """Acceptance: kill mid-sweep via budget, resume, compare exactly."""
        from repro.resilience import Budget

        net = butterfly(4)  # 12 nodes, 2^11 assignments
        ck = tmp_path / "profile.json"
        budget = Budget(4.5, clock=_PollClock())
        partial = cut_profile(net, budget=budget, checkpoint=ck, batch_bits=6)
        assert not partial.complete
        assert ck.exists()

        resumed = cut_profile(net, checkpoint=ck, batch_bits=6)
        fresh = cut_profile(net, batch_bits=6)
        assert resumed.complete
        assert np.array_equal(resumed.values, fresh.values)
        assert np.array_equal(resumed.witnesses, fresh.witnesses)

    def test_resume_ignores_a_foreign_checkpoint(self, tmp_path):
        ck = tmp_path / "profile.json"
        cut_profile(path_graph(10), checkpoint=ck, batch_bits=4)
        # Different network, same file: fingerprint mismatch, fresh sweep.
        prof = cut_profile(cycle_graph(10), checkpoint=ck, batch_bits=4)
        assert prof.complete
        assert prof.bisection_width() == 2

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        ck = tmp_path / "profile.json"
        net = path_graph(10)
        first = cut_profile(net, checkpoint=ck, batch_bits=4)
        again = cut_profile(net, checkpoint=ck, batch_bits=4)
        assert np.array_equal(first.values, again.values)
        assert np.array_equal(first.witnesses, again.witnesses)


class TestFingerprint:
    """The checkpoint/cache key must track wiring and the batch contract.

    Regression: the fingerprint once keyed only on name and node count, so
    two same-shaped networks with different wiring (or different counted
    masks) could resume each other's checkpoints.
    """

    def test_same_shape_different_wiring_differs(self):
        from repro.cuts.enumerate_exact import _fingerprint

        a = Network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], name="G")
        b = Network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name="G")
        counted = np.arange(6)
        assert a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
        assert _fingerprint(a, counted) != _fingerprint(b, counted)

    def test_counted_mask_is_keyed(self):
        from repro.cuts.enumerate_exact import _fingerprint

        net = path_graph(6)
        assert _fingerprint(net, np.arange(6)) != _fingerprint(
            net, np.arange(4)
        )

    def test_contract_version_is_keyed(self):
        from repro.cuts.enumerate_exact import BATCH_CONTRACT_VERSION, _fingerprint

        fp = _fingerprint(path_graph(6), np.arange(6))
        assert f":v{BATCH_CONTRACT_VERSION}:" in fp

    def test_key_is_unchanged_since_contract_v2(self):
        """Checkpoints and cache entries written before the fixed tile
        grid must still be found: the key is pinned byte for byte."""
        from repro.cuts.enumerate_exact import _fingerprint

        assert _fingerprint(path_graph(6), np.arange(6)) == (
            "cut-profile:v2:P6:6n:ee2eaf8cf551bac27:c98722e2ebed8ed3d"
        )

    def test_batch_size_is_not_keyed(self, tmp_path):
        """Differing batch grids share checkpoints (the fold is batch-free)."""
        ck = tmp_path / "profile.json"
        net = path_graph(12)
        cut_profile(net, checkpoint=ck, batch_bits=4)
        prof = cut_profile(net, checkpoint=ck, batch_bits=7)
        fresh = cut_profile(net)
        assert prof.complete
        assert np.array_equal(prof.values, fresh.values)
        assert np.array_equal(prof.witnesses, fresh.witnesses)


class TestBitIdentity:
    def test_default_grid_matches_fixed(self, w4):
        fixed = cut_profile(w4, batch_bits=4)
        default = cut_profile(w4)
        np.testing.assert_array_equal(default.values, fixed.values)
        np.testing.assert_array_equal(default.witnesses, fixed.witnesses)

    def test_any_two_grids_agree(self, b4):
        a = cut_profile(b4, batch_bits=3)
        b = cut_profile(b4, batch_bits=11)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.witnesses, b.witnesses)

    def test_contract_version_is_current(self):
        from repro.cuts.enumerate_exact import BATCH_CONTRACT_VERSION

        assert BATCH_CONTRACT_VERSION == 2


def _ring_with_chords(n, seed):
    """A connected multigraph with many tied cuts: a ring plus random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(n // 2)]
    return Network(range(n), edges, name=f"R{n}s{seed}")


_GRAPHS = {n: _ring_with_chords(n, seed=n) for n in (17, 18, 20)}


def _counted(n, subset):
    return np.arange(0, n, 3, dtype=np.int64) if subset else None


def _one_batch(monkeypatch, n, subset):
    """The sweep as one tile and one batch: the grid-free reference."""
    from repro.cuts import enumerate_exact

    with monkeypatch.context() as m:
        m.setattr(enumerate_exact, "_TILE_BITS", n - 1)
        m.setattr(enumerate_exact, "_BATCH_BITS", n - 1)
        return cut_profile(_GRAPHS[n], _counted(n, subset))


class TestFixedGrid:
    """Tiles of 2^15 masks and batches of 2^18 change no value or witness."""

    @pytest.mark.parametrize(
        ("n", "subset", "batch_bits"),
        [
            (17, False, 4), (17, True, 4),
            (18, False, 15), (18, True, 16), (18, False, None),
            (20, False, 16), (20, True, None), (20, True, 15),
        ],
    )
    def test_matches_one_batch_sweep(self, monkeypatch, n, subset, batch_bits):
        ref = _one_batch(monkeypatch, n, subset)
        prof = cut_profile(_GRAPHS[n], _counted(n, subset), batch_bits=batch_bits)
        assert prof.complete
        np.testing.assert_array_equal(prof.values, ref.values)
        np.testing.assert_array_equal(prof.witnesses, ref.witnesses)

    def test_default_batch_checkpoint_resumes_under_small_batches(self, tmp_path):
        from repro.resilience import Budget

        net = _GRAPHS[20]  # 2^19 masks: two default batches
        ck = tmp_path / "profile.json"
        partial = cut_profile(net, budget=Budget(1.5, clock=_PollClock()), checkpoint=ck)
        assert not partial.complete
        resumed = cut_profile(net, checkpoint=ck, batch_bits=6)
        fresh = cut_profile(net)
        assert resumed.complete
        np.testing.assert_array_equal(resumed.values, fresh.values)
        np.testing.assert_array_equal(resumed.witnesses, fresh.witnesses)

    def test_shards_that_split_a_tile_match_the_serial_profile(self):
        from repro.cuts.enumerate_exact import _complement_fold, shard_minima, sweep_ranges

        net = _GRAPHS[18]
        counted = np.arange(18, dtype=np.int64)
        ranges = sweep_ranges(1 << 17, 3)
        assert any(lo % (1 << 15) for lo, _ in ranges[1:])
        best = np.full(19, np.iinfo(np.int64).max, dtype=np.int64)
        best_mask = np.zeros(19, dtype=np.uint64)
        for lo, hi in ranges:
            part, part_mask = shard_minima(net.edges, counted, lo, hi)
            better = part < best
            best[better] = part[better]
            best_mask[better] = part_mask[better]
        values, witnesses = _complement_fold(best, best_mask, 18)
        serial = cut_profile(net)
        np.testing.assert_array_equal(values, serial.values)
        np.testing.assert_array_equal(witnesses, serial.witnesses)
