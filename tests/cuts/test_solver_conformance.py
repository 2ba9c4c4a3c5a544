"""Cross-solver conformance on every exactly-solvable small instance.

Three independent exact solvers implement the same quantity: exhaustive
enumeration (:func:`repro.cuts.cut_profile`), the layered min-plus DP
(:func:`repro.cuts.layered_cut_profile`) and branch and bound
(:func:`repro.cuts.bb_min_bisection`).  On every butterfly, wrapped
butterfly and CCC instance with at most 16 nodes they must agree on the
bisection width and each must produce a witness the others validate —
with the solver cache enabled and disabled, so a cache hit can never
change an answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fallback import solve_with_fallback
from repro.cuts import (
    Cut,
    bb_min_bisection,
    cut_profile,
    layered_cut_profile,
)
from repro.obs import collecting
from repro.perf import BATCH_CONTRACT_VERSION, SolverCache
from repro.topology import butterfly, cube_connected_cycles, wrapped_butterfly

#: Every supported family instance with <= 16 nodes.
INSTANCES = [
    pytest.param(lambda: butterfly(2), id="B2-4n"),
    pytest.param(lambda: butterfly(4), id="B4-12n"),
    pytest.param(lambda: wrapped_butterfly(4), id="W4-8n"),
    pytest.param(lambda: cube_connected_cycles(4), id="CCC4-8n"),
]


@pytest.fixture(params=INSTANCES)
def instance(request):
    net = request.param()
    assert net.num_nodes <= 16
    return net


def _witnesses(net):
    """One optimal bisection per solver."""
    prof = cut_profile(net)
    n = net.num_nodes
    c = n // 2 if prof.values[n // 2] <= prof.values[(n + 1) // 2] else (n + 1) // 2
    return {
        "enumerate": prof.witness_cut(c),
        "layered_dp": layered_cut_profile(net).min_bisection(),
        "branch_and_bound": bb_min_bisection(net),
    }


class TestAgreement:
    def test_three_solvers_one_width(self, instance):
        width = cut_profile(instance).bisection_width()
        assert layered_cut_profile(instance).min_bisection().capacity == width
        assert bb_min_bisection(instance).capacity == width

    def test_witnesses_are_mutually_valid(self, instance):
        """Each solver's witness checks out against the shared width."""
        width = cut_profile(instance).bisection_width()
        for solver, cut in _witnesses(instance).items():
            assert cut.is_bisection(), f"{solver} witness is not a bisection"
            assert cut.capacity == width, f"{solver} witness capacity drifts"
            # Re-derive the capacity from the raw side array so the check
            # does not trust the Cut object the solver handed back.
            assert instance.cut_capacity(cut.side) == width


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
