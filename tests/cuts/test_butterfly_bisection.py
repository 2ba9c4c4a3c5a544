"""Theorem 2.20's construction: verified sub-n bisections of Bn."""

import math

import numpy as np
import pytest

from repro.cuts import (
    best_plan,
    build_planned_bisection,
    butterfly_bisection_below_n,
    mos_quotient_map,
    plan_bisection,
)
from repro.embeddings import mos_fiber_map
from repro.resilience import Budget
from repro.topology import butterfly


class TestQuotientMap:
    def test_matches_embedding_fiber_map(self):
        """The arithmetic quotient equals the Lemma 2.11 embedding's map."""
        bf = butterfly(64)
        assert np.array_equal(mos_quotient_map(bf, 4), mos_fiber_map(bf, 4, 4))

    def test_fiber_sizes(self):
        bf = butterfly(64)
        q = mos_quotient_map(bf, 4)
        counts = np.bincount(q)
        j = 4
        lgj, lg = 2, 6
        assert (counts[:j] == (64 // j) * lgj).all()              # M1
        assert (counts[j:j + j * j] == (64 // 16) * (lg - 2 * lgj + 1)).all()  # M2
        assert (counts[j + j * j:] == (64 // j) * lgj).all()      # M3

    def test_rejects_bad_j(self):
        bf = butterfly(16)
        with pytest.raises(ValueError):
            mos_quotient_map(bf, 3)
        with pytest.raises(ValueError):
            mos_quotient_map(bf, 8)  # j^2 > n

    def test_rejects_wrapped(self, w8):
        with pytest.raises(ValueError):
            mos_quotient_map(w8, 2)

    def test_quotient_edges_respect_mos(self):
        """Butterfly edges map to MOS edges or stay inside a fiber."""
        from repro.topology import mesh_of_stars

        bf = butterfly(64)
        j = 4
        q = mos_quotient_map(bf, j)
        mos = mesh_of_stars(j, j)
        for u, v in bf.edges:
            fu, fv = int(q[u]), int(q[v])
            assert fu == fv or mos.has_edge(fu, fv)


class TestPlans:
    def test_plan_balance_arithmetic(self):
        plan = plan_bisection(1 << 12, 8, 5, 5)
        assert plan is not None
        # Recompute |S| from the plan's own fields.
        s = (plan.a + plan.b) * plan.side_block
        s += (plan.a * plan.b - plan.aa_flipped) * plan.fiber_size
        s += (plan.mixed_in_s + plan.bb_flipped) * plan.fiber_size
        s += plan.drain_in_s
        assert s == plan.n * (plan.lg + 1) // 2

    def test_plan_capacity_formula(self):
        plan = plan_bisection(1 << 12, 8, 5, 5)
        cong = 2 * plan.n // (plan.j * plan.j)
        assert plan.capacity == cong * (
            plan.mixed + 2 * plan.aa_flipped + 2 * plan.bb_flipped
        )

    def test_infeasible_shapes_return_none(self):
        # a = b = j: everything in S, nothing mixed, cannot rebalance.
        assert plan_bisection(1 << 10, 8, 8, 8) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            plan_bisection(1000, 8, 4, 4)  # n not a power of two
        with pytest.raises(ValueError):
            plan_bisection(1 << 10, 8, 9, 0)  # a out of range

    def test_best_plan_below_n(self):
        for lg in (10, 12, 14, 20):
            plan = best_plan(1 << lg)
            assert plan.capacity < (1 << lg)

    def test_best_plan_approaches_limit(self):
        """The analytic series descends toward 2(sqrt 2 - 1)."""
        limit = 2 * (math.sqrt(2) - 1)
        r100 = best_plan(1 << 100).capacity_over_n
        r800 = best_plan(1 << 800).capacity_over_n
        assert limit < r800 < r100 < 1.0

    def test_plan_strictly_above_theorem_floor(self):
        limit = 2 * (math.sqrt(2) - 1)
        for lg in (10, 16, 60):
            assert best_plan(1 << lg).capacity_over_n > limit

    def test_expired_budget_plans_nothing(self):
        assert best_plan(1 << 10, budget=Budget(0)) is None

    def test_budget_keeps_the_best_plan_so_far(self):
        t = {"v": 0.0}

        def clock():
            t["v"] += 1.0
            return t["v"]

        # Three shapes get planned before the fourth poll expires.
        early = best_plan(1 << 10, budget=Budget(3.5, clock=clock))
        assert early is not None
        assert early.capacity >= best_plan(1 << 10).capacity


class TestBuiltCuts:
    @pytest.mark.parametrize("n,j,a,b", [
        (1 << 10, 4, 3, 3),
        (1 << 10, 8, 5, 5),
        (1 << 10, 16, 7, 7),
        (1 << 12, 8, 5, 6),
        (1 << 12, 16, 9, 9),
    ])
    def test_build_verifies(self, n, j, a, b):
        """build_planned_bisection asserts balance and exact capacity."""
        plan = plan_bisection(n, j, a, b)
        if plan is None:
            pytest.skip("shape not balanceable")
        cut = build_planned_bisection(plan)
        assert cut.capacity == plan.capacity
        assert cut.s_size == cut.complement_size

    def test_aa_flip_branch(self):
        """Force the paid branch (base > target) and verify it too."""
        n = 1 << 10
        plan = plan_bisection(n, 8, 7, 7)  # heavy shape
        assert plan is not None and plan.aa_flipped > 0
        cut = build_planned_bisection(plan)
        assert cut.capacity == plan.capacity

    def test_folklore_refutation_entry_point(self):
        plan, cut = butterfly_bisection_below_n(1 << 10)
        assert cut is not None
        assert cut.capacity == plan.capacity < (1 << 10)
        assert cut.is_bisection()

    def test_wrong_network_rejected(self):
        plan = plan_bisection(1 << 10, 8, 5, 5)
        with pytest.raises(ValueError):
            build_planned_bisection(plan, butterfly(512))


class TestConstructionVsHeuristics:
    """The construction finds what generic heuristics do not."""

    @pytest.mark.slow
    def test_beats_spectral_and_fm_at_1024(self):
        """At n = 2^10 spectral bisection lands exactly on the folklore
        column cut (1024) and FM cannot improve either it or our cut —
        the 1008-capacity pullback is strictly better and FM-locally
        optimal."""
        from repro.cuts import fm_refine, spectral_bisection

        n = 1 << 10
        bf = butterfly(n)
        plan = best_plan(n)
        ours = build_planned_bisection(plan, bf)
        spec = spectral_bisection(bf, refine=False)
        assert spec.capacity == n                      # heuristic = folklore
        assert fm_refine(spec, max_passes=2).capacity == n
        assert ours.capacity < n                       # the paper's insight
        assert fm_refine(ours, max_passes=2).capacity == ours.capacity
