"""Golden regression against the paper's exact statements.

Every expected number here is *derived* from :mod:`repro.core.claims` —
Theorem 2.20's coefficient and the Lemma 3.2 / 3.3 closed forms — not
hand-copied into the assertions, so a drift between the claims table and
the cascade's exact tiers fails loudly on all exactly-solvable sizes.
"""

from __future__ import annotations

import math

import pytest

from repro.core import solve_with_fallback
from repro.core.claims import (
    THEOREM_220_COEFFICIENT,
    lemma_32_width,
    lemma_33_width,
    theorem_220_strict_floor,
)
from repro.topology import butterfly, cube_connected_cycles, wrapped_butterfly


class TestTheorem220:
    def test_coefficient_is_the_papers(self):
        assert math.isclose(THEOREM_220_COEFFICIENT, 2.0 * (math.sqrt(2.0) - 1.0))
        assert 0.82 < THEOREM_220_COEFFICIENT < 0.83

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exact_bw_beats_the_strict_floor(self, n):
        cert = solve_with_fallback(butterfly(n))
        assert cert.is_exact
        assert cert.value > theorem_220_strict_floor(n)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_folklore_ceiling(self, n):
        assert solve_with_fallback(butterfly(n)).value <= n


class TestLemma32:
    @pytest.mark.parametrize("n", [4, 8])
    def test_wrapped_width_is_n(self, n):
        cert = solve_with_fallback(wrapped_butterfly(n))
        assert cert.is_exact
        assert cert.value == lemma_32_width(n) == n


class TestLemma33:
    @pytest.mark.parametrize("n", [4, 8])
    def test_ccc_width_is_half_n(self, n):
        cert = solve_with_fallback(cube_connected_cycles(n))
        assert cert.is_exact
        assert cert.value == lemma_33_width(n) == n // 2

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            lemma_33_width(5)
