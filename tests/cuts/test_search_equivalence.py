"""Branch and bound, Kernighan-Lin and Fiduccia-Mattheyses match their reference.

The production search loops keep their state in Python lists and an
incrementally maintained bound; ``reference_search`` keeps the earlier
NumPy/scipy loops.  Both must make the same decisions in the same order,
so every side array, capacity and branch-and-bound ``status`` dict here
must be identical, not merely equally good: the witnesses land in
certificates that the corpus conformance suite compares byte for byte.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cuts import (
    Cut,
    bb_min_bisection,
    fm_bisection,
    fm_refine,
    kernighan_lin_bisection,
    kl_refine,
    spectral_bisection,
)
from repro.resilience.budget import Budget
from repro.topology import (
    Network,
    butterfly,
    cube_connected_cycles,
    fat_tree,
    flattened_butterfly,
    mesh,
    torus,
    wrapped_butterfly,
)

from . import reference_search as ref


def _family_instances(max_clique: int) -> list:
    """Every instance of the CLI's families with at most 31 nodes.

    ``--dims 1`` builds cycles, paths and complete graphs ``K_k``; those
    beyond ``K_max_clique`` are left out.  Instances with the same edge
    array as an earlier one (``FBfly(3,3)`` is ``Torus(3,3,3)``) run once.
    """
    makers = [lambda: butterfly(2), lambda: butterfly(4)]
    makers += [lambda k=k: wrapped_butterfly(k) for k in (4, 8)]
    makers += [lambda k=k: cube_connected_cycles(k) for k in (4, 8)]
    makers += [lambda k=k: fat_tree(k) for k in (1, 2, 3, 4)]
    for dims in (1, 2, 3, 4):
        for k in range(2, 32):
            if k**dims > 31:
                break
            if k >= 3:
                makers.append(lambda k=k, d=dims: torus(*(k,) * d))
            makers.append(lambda k=k, d=dims: mesh(*(k,) * d))
            if dims > 1 or k <= max_clique:
                makers.append(lambda k=k, d=dims: flattened_butterfly(k, d))
    nets = {}
    for make in makers:
        net = make()
        assert net.num_nodes <= 31
        nets.setdefault(net.edge_digest, net)
    return [pytest.param(net, id=net.name) for net in nets.values()]


FAMILY = _family_instances(max_clique=31)
# Every bisection of K_k ties, so branch and bound cannot prune and its
# search grows exponentially in k (about a million expansions on K22).
FAMILY_BB = _family_instances(max_clique=16)


def _random_multigraph(seed: int) -> Network:
    """A seeded connected multigraph with parallel edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 17))
    ring = [(i, (i + 1) % n) for i in range(n)]
    extra = [tuple(rng.choice(n, size=2, replace=False)) for _ in range(n)]
    bundles = [ring[i] for i in rng.choice(n, size=3)]
    return Network(range(n), ring + extra + bundles, name=f"multi{seed}")


RANDOM = [pytest.param(seed, id=f"multi{seed}") for seed in range(40)]


def _same_cut(got, want) -> None:
    assert np.array_equal(got.side, want.side)
    assert got.capacity == want.capacity


def _bb(solver, net, **kwargs):
    status: dict = {}
    cut = solver(net, status=status, **kwargs)
    return cut, status


def _assert_bb_equal(net, **kwargs) -> dict:
    got, got_status = _bb(bb_min_bisection, net, **kwargs)
    want, want_status = _bb(ref.bb_min_bisection, net, **kwargs)
    _same_cut(got, want)
    assert got_status == want_status
    return got_status


def _assert_heuristics_equal(net) -> None:
    _same_cut(kernighan_lin_bisection(net), ref.kernighan_lin_bisection(net))
    _same_cut(fm_bisection(net), ref.fm_bisection(net))
    # spectral_bisection refines its median split with kl_refine.  Both
    # refine one split: on a degenerate Fiedler eigenspace (Torus5x5) two
    # eigensolves can return different vectors.
    split = spectral_bisection(net, refine=False)
    _same_cut(kl_refine(split), ref.kl_refine(split))


class TestFamilies:
    @pytest.mark.parametrize("net", FAMILY_BB)
    def test_branch_and_bound(self, net):
        assert _assert_bb_equal(net)["complete"]

    @pytest.mark.parametrize("net", FAMILY_BB)
    def test_branch_and_bound_warm_started(self, net):
        _assert_bb_equal(net, warm_start=fm_bisection(net, restarts=1, seed=7))

    @pytest.mark.parametrize("net", FAMILY)
    def test_heuristics(self, net):
        _assert_heuristics_equal(net)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_heuristics_on_butterflies(self, n):
        _assert_heuristics_equal(butterfly(n))

    def test_fat_tree_4_pinned(self):
        cut, status = _bb(bb_min_bisection, fat_tree(4))
        assert cut.capacity == 8
        assert status == {
            "complete": True, "expansions": 33162, "pruned": 13955,
            "improvements": 1,
        }


class TestRandomMultigraphs:
    @pytest.mark.parametrize("seed", RANDOM)
    def test_branch_and_bound(self, seed):
        net = _random_multigraph(seed)
        assert not net.is_simple
        _assert_bb_equal(net)
        _assert_bb_equal(net, warm_start=fm_bisection(net, restarts=1, seed=seed).side)

    @pytest.mark.parametrize("seed", RANDOM)
    def test_heuristics(self, seed):
        _assert_heuristics_equal(_random_multigraph(seed))

    @pytest.mark.parametrize("seed", RANDOM)
    def test_refine_from_unbalanced_start(self, seed):
        net = _random_multigraph(seed)
        side = np.random.default_rng(seed).random(net.num_nodes) < 0.3
        cut = Cut(net, side)
        _same_cut(kl_refine(cut), ref.kl_refine(cut))
        for slack in (0, 1, 3):
            _same_cut(fm_refine(cut, balance_slack=slack),
                      ref.fm_refine(cut, balance_slack=slack))


def _ticking_budget(ticks: int) -> Budget:
    """A budget whose clock advances one tick per poll and expires at ``ticks``."""
    clock = itertools.count()
    return Budget(ticks, clock=lambda: next(clock))


class TestBudgetExpiry:
    @pytest.mark.parametrize("ticks", [3, 17, 60])
    @pytest.mark.parametrize("make", [lambda: fat_tree(4), lambda: torus(5, 5)],
                             ids=["FT4", "Torus5x5"])
    def test_mid_search_expiry(self, make, ticks):
        net = make()
        got, got_status = _bb(bb_min_bisection, net, budget=_ticking_budget(ticks))
        want, want_status = _bb(ref.bb_min_bisection, net, budget=_ticking_budget(ticks))
        _same_cut(got, want)
        assert got_status == want_status
        assert not got_status["complete"]
        assert got.is_bisection()

    def test_expiry_lands_inside_the_search(self):
        statuses = [
            _bb(bb_min_bisection, fat_tree(4), budget=_ticking_budget(t))[1]
            for t in (3, 17, 60)
        ]
        expansions = [s["expansions"] for s in statuses]
        assert expansions[0] == 0  # expired during the KL incumbent
        assert 0 < expansions[1] < expansions[2] < 33162
