"""Kernighan–Lin bisection refinement.

A from-scratch implementation of the classical KL pass: starting from a
balanced partition, repeatedly pick the unlocked pair ``(a, b)`` across the
cut with the largest swap gain ``D[a] + D[b] - 2 w(a, b)``, lock it, and
after exhausting all pairs commit the prefix of swaps with the best
cumulative gain.  Passes repeat until no positive-gain prefix exists.

This provides upper bounds on the Section 1.2 bisection widths for networks
beyond the exact solvers' reach (``B16``, ``B32``, ``W16``...), and serves as the refinement
stage after spectral initialization.  The per-pass bottleneck (the gain
matrix between boundary candidates) is evaluated with dense NumPy blocks;
each swap updates the ``D`` values from the swapped pair's neighbor lists.
"""

from __future__ import annotations

import numpy as np

from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut

__all__ = ["kernighan_lin_bisection", "kl_refine"]

#: Added to a locked node's D: far below any real gain (|D| and W are at
#: most the degree) yet far from int64 overflow after a pass of updates.
_LOCKED = -(1 << 40)


def _initial_side(net: Network, rng: np.random.Generator) -> np.ndarray:
    n = net.num_nodes
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[: n // 2]] = True
    return side


def kl_refine(
    cut: Cut, max_passes: int = 20, budget: Budget | None = None
) -> Cut:
    """Refine a balanced cut with Kernighan–Lin passes.

    The input sizes are preserved exactly (KL only swaps), so a bisection
    stays a bisection.  Returns a cut with capacity <= the input's.
    An expired ``budget`` stops between passes; each pass commits a whole
    swap prefix, so the cut returned is always balanced.
    """
    net = cut.network
    n = net.num_nodes
    side = cut.side.copy()

    for _ in range(max_passes):
        if budget is not None and budget.expired():
            break
        a_nodes = np.flatnonzero(side)
        b_nodes = np.flatnonzero(~side)
        if len(a_nodes) == 0 or len(b_nodes) == 0:
            break
        # D[v] = external - internal degree under the current partition.
        d = Cut(net, side).move_gains()
        Da = d[a_nodes]
        Db = d[b_nodes]
        # W2[i, j] = twice the edges between a_nodes[i] and b_nodes[j].
        pos = np.empty(n, dtype=np.int64)
        pos[a_nodes] = np.arange(len(a_nodes))
        pos[b_nodes] = np.arange(len(b_nodes))
        cross = net.cut_edges(side)
        first_in_a = side[cross[:, 0]]
        a_end = np.where(first_in_a, cross[:, 0], cross[:, 1])
        b_end = np.where(first_in_a, cross[:, 1], cross[:, 0])
        W2 = np.zeros((len(a_nodes), len(b_nodes)), dtype=np.int64)
        np.add.at(W2, (pos[a_end], pos[b_end]), 2)

        G = np.empty_like(W2)
        gains: list[int] = []
        swaps: list[tuple[int, int]] = []
        steps = min(len(a_nodes), len(b_nodes))
        for _step in range(steps):
            # Locked nodes carry _LOCKED in their D, so every unlocked pair
            # outranks every locked one and argmax keeps its first-max order.
            np.add(Da[:, None], Db, out=G)
            G -= W2
            flat = int(np.argmax(G))
            ia, ib = divmod(flat, len(b_nodes))
            gains.append(int(G[ia, ib]))
            swaps.append((ia, ib))
            Da[ia] += _LOCKED
            Db[ib] += _LOCKED
            # Update D values as if the pair were swapped.
            delta = 2 * (
                np.bincount(net.neighbors(a_nodes[ia]), minlength=n)
                - np.bincount(net.neighbors(b_nodes[ib]), minlength=n)
            )
            Da += delta[a_nodes]
            Db -= delta[b_nodes]
        cum = np.cumsum(gains)
        best = int(np.argmax(cum))
        if cum[best] <= 0:
            break
        for ia, ib in swaps[: best + 1]:
            side[a_nodes[ia]] = False
            side[b_nodes[ib]] = True
    refined = Cut(net, side)
    assert refined.s_size == cut.s_size, "KL must preserve side sizes"
    return refined if refined.capacity <= cut.capacity else cut


def kernighan_lin_bisection(
    net: Network, restarts: int = 4, seed: int = 0, max_passes: int = 20,
    budget: Budget | None = None,
) -> Cut:
    """Heuristic minimum bisection: random balanced starts + KL refinement.

    Returns the best bisection found across ``restarts`` independent starts.
    The result is an upper-bound witness; optimality is not guaranteed.
    An expired ``budget`` stops after the current restart: at least one
    start always completes, so the answer stays a valid (if weaker) bound.
    """
    rng = np.random.default_rng(seed)
    best: Cut | None = None
    for _ in range(max(1, restarts)):
        if best is not None and budget is not None and budget.expired():
            break
        cut = Cut(net, _initial_side(net, rng))
        cut = kl_refine(cut, max_passes=max_passes, budget=budget)
        if best is None or cut.capacity < best.capacity:
            best = cut
    assert best is not None
    return best
