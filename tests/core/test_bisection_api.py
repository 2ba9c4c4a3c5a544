"""Certified bisection widths of the paper's families, through the cascade."""

import pytest

from repro.core import solve_with_fallback
from repro.core.claims import theorem_220_strict_floor
from repro.topology import (
    butterfly,
    complete_graph,
    cube_connected_cycles,
    hypercube,
    wrapped_butterfly,
)


class TestButterfly:
    @pytest.mark.parametrize("n,expected", [(2, 2), (4, 4), (8, 8)])
    def test_exact_small(self, n, expected):
        cert = solve_with_fallback(butterfly(n))
        assert cert.is_exact and cert.value == expected
        assert cert.witness is not None and cert.witness.capacity == expected

    def test_interval_medium(self):
        cert = solve_with_fallback(butterfly(1024))
        assert not cert.is_exact
        assert cert.lower >= 512
        assert cert.upper < 1024  # Theorem 2.20: below folklore
        assert cert.witness.capacity == cert.upper
        assert cert.witness.is_bisection()

    def test_lower_bound_above_the_strict_floor(self):
        cert = solve_with_fallback(butterfly(4096))
        assert cert.lower > theorem_220_strict_floor(4096)

    def test_construction_below_n_at_16384(self):
        n = 1 << 14
        cert = solve_with_fallback(butterfly(n))
        assert cert.lower <= cert.upper < n
        assert cert.witness is not None
        assert cert.witness.capacity == cert.upper
        assert cert.witness.is_bisection()


class TestWrapped:
    @pytest.mark.parametrize("n", [4, 8])
    def test_exact_small(self, n):
        cert = solve_with_fallback(wrapped_butterfly(n))
        assert cert.is_exact and cert.value == n

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_exact_large_via_lemma(self, n):
        cert = solve_with_fallback(wrapped_butterfly(n))
        assert cert.is_exact and cert.value == n
        assert cert.witness.capacity == n


class TestCCC:
    @pytest.mark.parametrize("n", [4, 8])
    def test_exact_small(self, n):
        cert = solve_with_fallback(cube_connected_cycles(n))
        assert cert.is_exact and cert.value == n // 2

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_exact_large_via_lemma(self, n):
        cert = solve_with_fallback(cube_connected_cycles(n))
        assert cert.is_exact and cert.value == n // 2


class TestGenericAPI:
    def test_layered_network_exact(self, b8):
        cert = solve_with_fallback(b8)
        assert cert.is_exact and cert.value == 8

    def test_small_arbitrary_exact(self):
        cert = solve_with_fallback(complete_graph(6))
        assert cert.is_exact and cert.value == 9

    def test_heuristic_interval(self):
        q = hypercube(6)  # 64 nodes: beyond enumeration, not layered
        cert = solve_with_fallback(q)
        assert cert.lower <= 32 <= cert.upper
        assert cert.witness is not None
