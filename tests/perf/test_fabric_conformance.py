"""Cross-solver conformance on the product and data-center families.

The same contract as ``tests/cuts/test_solver_conformance.py``, extended
to every new family of this repo's product-network layer: on each
``<= 16``-node torus, mesh, fat-tree and flattened-butterfly instance,
exhaustive enumeration, the layered min-plus DP (where the family is
layered) and branch and bound must agree on the bisection width and hand
back mutually valid witnesses — cached and uncached, so a cache hit
can never change an answer.  Where the
Arjona-Aroca closed form applies, the shared width must equal it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.claims import (
    arjona_mesh_width,
    arjona_torus_width,
    fat_tree_width,
    flattened_butterfly_width,
)
from repro.core.fallback import solve_with_fallback
from repro.cuts import (
    Cut,
    bb_min_bisection,
    cut_profile,
    layered_cut_profile,
)
from repro.obs import collecting
from repro.perf import BATCH_CONTRACT_VERSION, SolverCache
from repro.topology import FatTree, FlattenedButterfly, Mesh, Torus
from repro.topology import fat_tree, flattened_butterfly, mesh, torus

#: Every new-family instance with <= 16 nodes.
INSTANCES = [
    pytest.param(lambda: torus(3), id="Torus3-3n"),
    pytest.param(lambda: torus(3, 3), id="Torus3x3-9n"),
    pytest.param(lambda: torus(4, 3), id="Torus4x3-12n"),
    pytest.param(lambda: torus(4, 4), id="Torus4x4-16n"),
    pytest.param(lambda: mesh(2, 2), id="Mesh2x2-4n"),
    pytest.param(lambda: mesh(3, 2), id="Mesh3x2-6n"),
    pytest.param(lambda: mesh(2, 2, 2), id="Mesh2x2x2-8n"),
    pytest.param(lambda: mesh(4, 2), id="Mesh4x2-8n"),
    pytest.param(lambda: mesh(3, 3), id="Mesh3x3-9n"),
    pytest.param(lambda: fat_tree(1), id="FT1-3n"),
    pytest.param(lambda: fat_tree(2), id="FT2-7n"),
    pytest.param(lambda: fat_tree(3), id="FT3-15n"),
    pytest.param(lambda: flattened_butterfly(2, 2), id="FBfly2d2-4n"),
    pytest.param(lambda: flattened_butterfly(2, 3), id="FBfly2d3-8n"),
    pytest.param(lambda: flattened_butterfly(3, 2), id="FBfly3d2-9n"),
    pytest.param(lambda: flattened_butterfly(4, 2), id="FBfly4d2-16n"),
]

_DP_WIDTH_LIMIT = 12


@pytest.fixture(params=INSTANCES)
def instance(request):
    net = request.param()
    assert net.num_nodes <= 16
    return net


def _dp_applies(net) -> bool:
    layers = net.layers() if hasattr(net, "layers") else None
    return layers is not None and max(len(l) for l in layers) <= _DP_WIDTH_LIMIT


def _witnesses(net):
    """One optimal bisection per applicable exact solver."""
    prof = cut_profile(net)
    n = net.num_nodes
    c = n // 2 if prof.values[n // 2] <= prof.values[(n + 1) // 2] else (n + 1) // 2
    out = {
        "enumerate": prof.witness_cut(c),
        "branch_and_bound": bb_min_bisection(net),
    }
    if _dp_applies(net):
        out["layered_dp"] = layered_cut_profile(net).min_bisection()
    return out


def _closed_form(net) -> int | None:
    if isinstance(net, Torus) and net.is_square:
        return arjona_torus_width(net.sides[0], net.dims)
    if isinstance(net, Mesh) and net.is_square:
        return arjona_mesh_width(net.sides[0], net.dims)
    if isinstance(net, FatTree):
        return fat_tree_width(net.depth)
    if isinstance(net, FlattenedButterfly) and net.ary % 2 == 0:
        return flattened_butterfly_width(net.ary, net.dims)
    return None


class TestAgreement:
    def test_solvers_agree_on_one_width(self, instance):
        width = cut_profile(instance).bisection_width()
        assert bb_min_bisection(instance).capacity == width
        if _dp_applies(instance):
            assert layered_cut_profile(instance).min_bisection().capacity == width

    def test_witnesses_are_mutually_valid(self, instance):
        width = cut_profile(instance).bisection_width()
        for solver, cut in _witnesses(instance).items():
            assert cut.is_bisection(), f"{solver} witness is not a bisection"
            assert cut.capacity == width, f"{solver} witness capacity drifts"
            # Re-derive the capacity from the raw side array so the check
            # does not trust the Cut object the solver handed back.
            assert instance.cut_capacity(cut.side) == width

    def test_width_matches_the_claim_table(self, instance):
        """Where the Arjona-Aroca closed form applies, it is the width."""
        want = _closed_form(instance)
        if want is None:
            pytest.skip("no closed form for this instance")
        assert cut_profile(instance).bisection_width() == want


def _cached_profile(net, cache):
    """Read through the cache the way the cascade's tier 1 does."""
    prof = cache.get_profile(net, version=BATCH_CONTRACT_VERSION)
    if prof is None:
        prof = cut_profile(net)
        assert cache.put_profile(net, prof, version=BATCH_CONTRACT_VERSION)
    return prof


class TestCacheTransparency:
    def test_cached_equals_uncached(self, instance, tmp_path):
        cache = SolverCache(tmp_path / "cache")
        plain = cut_profile(instance)
        with collecting() as col:
            cold = _cached_profile(instance, cache)
            warm = _cached_profile(instance, cache)
        assert col.counters["perf.cache.hit"] == 1
        for prof in (cold, warm):
            np.testing.assert_array_equal(prof.values, plain.values)
            np.testing.assert_array_equal(prof.witnesses, plain.witnesses)

    def test_fallback_tier0_preserves_the_certificate(self, instance, tmp_path):
        cache = SolverCache(tmp_path / "cache")
        baseline = solve_with_fallback(instance)
        assert baseline.is_exact
        cold = solve_with_fallback(instance, cache=cache)
        with collecting() as col:
            warm = solve_with_fallback(instance, cache=cache)
        assert cold.value == warm.value == baseline.value
        assert col.counters.get("perf.cache.hit", 0) >= 1
        assert warm.witness is not None
        assert isinstance(warm.witness, Cut)
        assert warm.witness.is_bisection()
        assert warm.witness.capacity == baseline.value

    def test_warm_start_seeds_branch_and_bound(self, instance):
        best = bb_min_bisection(instance)
        seeded = bb_min_bisection(instance, warm_start=best)
        assert seeded.capacity == best.capacity
