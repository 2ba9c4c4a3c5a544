"""Seeded property tests for the full-set cache keys.

The canonical fingerprint of :mod:`repro.perf.canonical` names a network
with every node counted.  It must be equal for the instances that share
an entry (a torus or mesh and its axis-rotated twin) and must *separate*
everything else — otherwise the cache either misses a twin or, far
worse, conflates distinct instances.  Every key and perm is also pinned
to the bytes earlier versions wrote, so caches filled by them still hit.
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
from repro.topology import (
    Network,
    butterfly,
    fat_tree,
    flattened_butterfly,
    mesh,
    torus,
    wrapped_butterfly,
)
from repro.topology.automorphism import (
    cascade_xor_permutation,
    level_reversal_permutation,
)

_TRIALS = 50

#: A 16-node graph of no named family: a cycle with six chords.
_G16_EDGES = [(i, (i + 1) % 16) for i in range(16)] + [
    (i, i + 5) for i in range(0, 11, 2)
]


def _random_butterfly_automorphism(bf, rng):
    """A uniform sample from the L2.1/L2.2 cascade-and-reversal group."""
    base = int(rng.integers(bf.n))
    flips = tuple(bool(b) for b in rng.integers(0, 2, size=bf.lg))
    p = cascade_xor_permutation(bf, base, flips)
    if rng.integers(2):
        p = level_reversal_permutation(bf)[p]
    return p


class TestKeyPins:
    """Keys and perms as the counted-set implementation computed them."""

    KEYS = [
        pytest.param(lambda: butterfly(4), "bf:b4:full", None, id="B4"),
        pytest.param(lambda: wrapped_butterfly(4), "bf:w4:full", None, id="W4"),
        pytest.param(lambda: butterfly(16), "bf:b16:full", None, id="B16"),
        pytest.param(lambda: torus(3, 4), "torus:3x4:full", None, id="Torus3x4"),
        pytest.param(
            lambda: torus(4, 3), "torus:3x4:full",
            [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11], id="Torus4x3",
        ),
        pytest.param(lambda: mesh(2, 4), "mesh:2x4:full", None, id="Mesh2x4"),
        pytest.param(
            lambda: mesh(3, 2), "mesh:2x3:full", [0, 3, 1, 4, 2, 5], id="Mesh3x2",
        ),
        pytest.param(
            lambda: flattened_butterfly(2, 2), "fbfly:2d2:full", None, id="FBfly2d2",
        ),
        pytest.param(lambda: fat_tree(2), "ft:2:full", None, id="FatTree2"),
        pytest.param(
            lambda: Network(range(16), _G16_EDGES, name="G16"),
            "net:2a41032950d6ee6f:cca2fd00fa0011907", None, id="G16",
        ),
    ]

    @pytest.mark.parametrize(("build", "key", "perm"), KEYS)
    def test_key_and_perm_are_pinned(self, build, key, perm):
        net = build()
        form = canonical_form(net)
        assert form.key == key
        want = list(range(net.num_nodes)) if perm is None else perm
        assert form.perm.tolist() == want
        assert form.group_size == 1


class TestOrbitInvariance:
    """Key equality across isomorphic instances (the cache-hit direction)."""

    def test_full_counted_set_is_structural(self, b8):
        form = canonical_form(b8)
        assert form.key.endswith(":full")
        assert form.group_size == 1
        np.testing.assert_array_equal(form.perm, np.arange(b8.num_nodes))

    def test_perm_maps_instance_onto_canonical(self):
        """Both axis orders land on the *same* canonical edge set."""

        def canonical_edges(net, perm):
            mapped = perm[net.edges]
            return sorted(map(tuple, np.sort(mapped, axis=1).tolist()))

        for a, b in [(torus(3, 4), torus(4, 3)), (mesh(2, 3), mesh(3, 2)),
                     (mesh(2, 3, 4), mesh(4, 2, 3))]:
            fa, fb = canonical_form(a), canonical_form(b)
            assert fa.key == fb.key
            assert canonical_edges(a, fa.perm) == canonical_edges(b, fb.perm)


class TestSeparation:
    """Non-isomorphic perturbations must get distinct keys."""

    def test_different_families_never_collide(self):
        """Same parameter, different family: distinct keys."""
        nets = [butterfly(4), wrapped_butterfly(4), torus(4, 4), mesh(4, 4),
                flattened_butterfly(4, 2), fat_tree(4),
                Network(range(16), _G16_EDGES, name="G16")]
        keys = [canonical_form(n).key for n in nets]
        assert len(set(keys)) == len(keys)

    def test_general_network_keys_track_wiring(self):
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

    def test_isomorphic_sibling_hits(self, tmp_path):
        """A profile stored for Torus(3,4) serves its axis-rotated twin."""
        cache = SolverCache(tmp_path / "cache")
        a, b = torus(3, 4), torus(4, 3)
        assert cache.put_profile(a, cut_profile(a), version=BATCH_CONTRACT_VERSION)
        got = cache.get_profile(b, version=BATCH_CONTRACT_VERSION)
        assert got is not None, "axis-rotated twin should be a cache hit"
        direct = cut_profile(b)
        np.testing.assert_array_equal(got.values, direct.values)
        for c in range(b.num_nodes + 1):
            cut = got.witness_cut(c)
            assert cut.capacity == direct.values[c]
            assert int(cut.side.sum()) == c

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
