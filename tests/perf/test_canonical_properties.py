"""Seeded property tests for the symmetry-quotiented cache keys.

The canonical fingerprint of :mod:`repro.perf.canonical` must be
*invariant* along the paper's automorphism orbits (Lemmas 2.1/2.2) and
must *separate* instances that are not in the same orbit — otherwise the
cache either misses isomorphic siblings or, far worse, conflates distinct
instances.  Both directions are exercised here with seeded randomness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuts import cut_profile
from repro.perf import (
    BATCH_CONTRACT_VERSION,
    SolverCache,
    canonical_form,
    permute_mask,
    unpermute_mask,
)
from repro.perf.canonical import _butterfly_candidates
from repro.topology import butterfly, wrapped_butterfly
from repro.topology.automorphism import (
    cascade_xor_permutation,
    column_xor_permutation,
    is_automorphism,
    level_reversal_permutation,
    level_rotation_permutation,
)

_TRIALS = 50


def _random_butterfly_automorphism(bf, rng):
    """A uniform sample from the L2.1/L2.2 cascade-and-reversal group."""
    base = int(rng.integers(bf.n))
    flips = tuple(bool(b) for b in rng.integers(0, 2, size=bf.lg))
    p = cascade_xor_permutation(bf, base, flips)
    if rng.integers(2):
        p = level_reversal_permutation(bf)[p]
    return p


def _random_wrapped_automorphism(wn, rng):
    """A uniform sample from the column-XOR / level-rotation group of Wn."""
    c = int(rng.integers(wn.n))
    s = int(rng.integers(wn.lg))
    return column_xor_permutation(wn, c)[level_rotation_permutation(wn, s)]


class TestOrbitInvariance:
    """Key equality along automorphism orbits (the cache-hit direction)."""

    def test_butterfly_counted_sets(self, b8, rng):
        counted = np.sort(rng.choice(b8.num_nodes, size=10, replace=False))
        base = canonical_form(b8, counted)
        for _ in range(_TRIALS):
            g = _random_butterfly_automorphism(b8, rng)
            assert is_automorphism(b8, g)
            sibling = canonical_form(b8, g[counted])
            assert sibling.key == base.key
            assert sibling.family == "butterfly"

    def test_wrapped_counted_sets(self, w8, rng):
        counted = np.sort(rng.choice(w8.num_nodes, size=9, replace=False))
        base = canonical_form(w8, counted)
        for _ in range(_TRIALS):
            g = _random_wrapped_automorphism(w8, rng)
            assert is_automorphism(w8, g)
            sibling = canonical_form(w8, g[counted])
            assert sibling.key == base.key
            assert sibling.family == "wrapped"

    def test_full_counted_set_is_structural(self, b8):
        form = canonical_form(b8)
        assert form.key.endswith(":full")
        assert form.group_size == 1
        np.testing.assert_array_equal(form.perm, np.arange(b8.num_nodes))

    def test_perm_maps_instance_onto_canonical(self, b8, rng):
        """Both orbit members land on the *same* canonical counted set."""
        counted = np.sort(rng.choice(b8.num_nodes, size=10, replace=False))
        g = _random_butterfly_automorphism(b8, rng)
        a, b = canonical_form(b8, counted), canonical_form(b8, g[counted])
        canon_a = np.sort(a.perm[counted])
        canon_b = np.sort(b.perm[g[counted]])
        np.testing.assert_array_equal(canon_a, canon_b)


class TestSeparation:
    """Non-isomorphic perturbations must get distinct keys."""

    def test_100_random_non_orbit_counted_sets(self, b8, rng):
        counted = np.sort(rng.choice(b8.num_nodes, size=10, replace=False))
        base_key = canonical_form(b8, counted).key
        orbit = {
            tuple(np.sort(p[counted]))
            for p in _butterfly_candidates(b8)
        }
        checked = 0
        while checked < 100:
            size = int(rng.integers(4, 14))
            other = np.sort(rng.choice(b8.num_nodes, size=size, replace=False))
            if tuple(other) in orbit:
                continue
            assert canonical_form(b8, other).key != base_key
            checked += 1

    def test_different_families_never_collide(self, rng):
        b4, w4 = butterfly(4), wrapped_butterfly(4)
        counted = np.arange(4)
        assert canonical_form(b4, counted).key != canonical_form(w4, counted).key

    def test_general_network_keys_track_wiring(self):
        from repro.topology import Network

        a = Network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], name="G")
        b = Network(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name="G")
        assert canonical_form(a).key != canonical_form(b).key
        assert canonical_form(a).family == "network"


class TestMaskTransport:
    def test_permute_unpermute_roundtrip(self, rng):
        for _ in range(_TRIALS):
            n = int(rng.integers(4, 40))
            perm = rng.permutation(n).astype(np.int64)
            mask = int(rng.integers(0, 1 << n, dtype=np.uint64))
            assert unpermute_mask(permute_mask(mask, perm), perm) == mask
            assert permute_mask(unpermute_mask(mask, perm), perm) == mask

    def test_permuted_mask_preserves_capacity(self, b4, rng):
        """An automorphism image of a cut has identical capacity (L2.1/2.2)."""
        side = rng.integers(0, 2, size=b4.num_nodes).astype(bool)
        mask = sum(1 << int(v) for v in np.flatnonzero(side))
        for _ in range(10):
            g = _random_butterfly_automorphism(b4, rng)
            moved = permute_mask(mask, g)
            moved_side = np.array(
                [(moved >> v) & 1 for v in range(b4.num_nodes)], dtype=bool
            )
            assert b4.cut_capacity(moved_side) == b4.cut_capacity(side)


class TestCacheRoundTrip:
    def test_profile_bit_identical(self, b4, tmp_path):
        cache = SolverCache(tmp_path / "cache")
        prof = cut_profile(b4)
        assert cache.put_profile(b4, prof, version=BATCH_CONTRACT_VERSION)
        got = cache.get_profile(b4, version=BATCH_CONTRACT_VERSION)
        assert got is not None and got.complete
        np.testing.assert_array_equal(got.values, prof.values)
        np.testing.assert_array_equal(got.witnesses, prof.witnesses)
        np.testing.assert_array_equal(got.counted, prof.counted)

    def test_isomorphic_sibling_hits(self, b4, rng, tmp_path):
        """A profile stored for one instance serves its whole orbit."""
        cache = SolverCache(tmp_path / "cache")
        counted = np.sort(rng.choice(b4.num_nodes, size=6, replace=False))
        cache.put_profile(
            b4, cut_profile(b4, counted), version=BATCH_CONTRACT_VERSION
        )
        g = _random_butterfly_automorphism(b4, rng)
        sibling = np.sort(g[counted])
        got = cache.get_profile(b4, sibling, version=BATCH_CONTRACT_VERSION)
        assert got is not None, "orbit sibling should be a cache hit"
        direct = cut_profile(b4, sibling)
        np.testing.assert_array_equal(got.values, direct.values)
        for c in range(len(sibling) + 1):
            cut = got.witness_cut(c)
            assert cut.capacity == direct.values[c]
            assert cut.count_in(sibling) == c

    def test_version_bump_orphans_entries(self, b4, tmp_path):
        cache = SolverCache(tmp_path / "cache")
        cache.put_profile(b4, cut_profile(b4), version=1)
        assert cache.get_profile(b4, version=2) is None


class TestCorruptionTolerance:
    @pytest.fixture()
    def warm(self, b4, tmp_path):
        cache = SolverCache(tmp_path / "cache")
        cache.put_profile(b4, cut_profile(b4), version=BATCH_CONTRACT_VERSION)
        return cache

    def test_garbage_index_reads_as_empty(self, warm, b4):
        """Garbage in an entry file, the profile's or a certificate's, is a miss."""
        prof = cut_profile(b4)
        c = b4.num_nodes // 2
        width = int(prof.values[c])
        warm.put_certificate(
            b4,
            {"quantity": f"BW({b4.name})", "lower": width, "upper": width,
             "lower_evidence": "tier-1", "upper_evidence": "tier-1"},
            witness_side=prof.witness_cut(c).side,
        )
        assert warm.get_certificate(b4) is not None
        entries = [p for p in warm.root.rglob("*") if p.is_file()]
        assert len(entries) == 2
        for entry in entries:
            entry.write_text("{not json", encoding="utf-8")
        assert warm.get_profile(b4, version=BATCH_CONTRACT_VERSION) is None
        assert warm.get_certificate(b4) is None
        assert warm.get_warm_start(b4) is None

    def test_truncated_payload_is_a_miss(self, warm, b4):
        (payload,) = list((warm.root / "payloads").glob("*.npz"))
        payload.write_bytes(payload.read_bytes()[:20])
        assert warm.get_profile(b4, version=BATCH_CONTRACT_VERSION) is None

    def test_recovers_by_restoring(self, warm, b4):
        (payload,) = list((warm.root / "payloads").glob("*.npz"))
        payload.write_bytes(b"garbage")
        assert warm.get_profile(b4, version=BATCH_CONTRACT_VERSION) is None
        warm.put_profile(b4, cut_profile(b4), version=BATCH_CONTRACT_VERSION)
        assert warm.get_profile(b4, version=BATCH_CONTRACT_VERSION) is not None
