"""Branch-and-bound exact bisection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cuts.kernighan_lin as kernighan_lin
from repro.cuts import bb_bisection_width, bb_min_bisection, cut_profile
from repro.obs import collecting
from repro.resilience.budget import Budget
from repro.topology import (
    Network,
    butterfly,
    de_bruijn,
    hypercube,
    hypercube_bisection_width,
    shuffle_exchange,
    wrapped_butterfly,
)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("make", [
        lambda: butterfly(4),
        lambda: wrapped_butterfly(4),
        lambda: hypercube(4),
        lambda: de_bruijn(4),
        lambda: shuffle_exchange(4),
    ])
    def test_matches_enumeration(self, make):
        net = make()
        assert bb_bisection_width(net) == cut_profile(net).bisection_width()

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        if not edges:
            edges = [(0, 1)]
        net = Network(range(n), edges, name="rand")
        assert bb_bisection_width(net) == cut_profile(net).bisection_width()


class TestBeyondEnumeration:
    def test_b8_exact(self, b8):
        cut = bb_min_bisection(b8)
        assert cut.capacity == 8
        assert cut.is_bisection()

    @pytest.mark.slow
    def test_hypercube_q5(self):
        """32 nodes, out of reach of plain enumeration."""
        assert bb_bisection_width(hypercube(5)) == hypercube_bisection_width(5)

    def test_witness_is_certified(self, b4):
        cut = bb_min_bisection(b4)
        assert cut.capacity == 4
        assert cut.s_size in (6, 6)


class TestGuards:
    def test_node_limit(self):
        with pytest.raises(ValueError, match="limited"):
            bb_min_bisection(hypercube(6))

    def test_raise_limit(self):
        # Explicitly raising the limit is allowed (and exact, just slow).
        cut = bb_min_bisection(hypercube(4), node_limit=64)
        assert cut.capacity == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bb_min_bisection(Network([], []))

    def test_odd_sizes(self):
        net = Network(range(5), [(i, (i + 1) % 5) for i in range(5)])
        cut = bb_min_bisection(net)
        assert cut.capacity == 2
        assert {cut.s_size, cut.complement_size} == {2, 3}

    @pytest.mark.parametrize("length", [0, 15, 17])
    def test_wrong_length_warm_start_ignored(self, length):
        net = hypercube(4)
        with collecting() as col:
            cut = bb_min_bisection(net, warm_start=np.ones(length, dtype=bool))
        assert cut.capacity == 8
        assert "cuts.bb.warm_starts" not in col.counters


class TestBudget:
    def test_expired_budget_stops_the_kl_incumbent(self, monkeypatch):
        calls = []
        refine = kernighan_lin.kl_refine

        def counting_refine(*args, **kwargs):
            calls.append(kwargs.get("budget"))
            return refine(*args, **kwargs)

        monkeypatch.setattr(kernighan_lin, "kl_refine", counting_refine)
        budget = Budget(0.0)
        status: dict = {}
        cut = bb_min_bisection(hypercube(4), budget=budget, status=status)
        assert calls == [budget]
        assert cut.is_bisection()
        assert status["complete"] is False
        assert status["expansions"] == 0
